import math
import warnings

import numpy as np
import pytest

from sbmpot import bernstein, densities, kernels, ladder, laplace
from sbmpot.errors import NumericAccuracyError


def test_talbot_exponential():
    t = np.geomspace(1e-2, 10.0, 20)
    vals = laplace.talbot_inversion(lambda s: 1.0 / (s + 1.0), t)
    np.testing.assert_allclose(vals, np.exp(-t), rtol=2e-7)


def test_talbot_power_law():
    t = np.geomspace(1e-3, 100.0, 25)
    vals = laplace.talbot_inversion(lambda s: s**-0.5, t)
    np.testing.assert_allclose(vals, t**-0.5 / math.gamma(0.5), rtol=1e-10)


def test_gaver_stehfest_exponential():
    # Stehfest loses ~12 digits to coefficient cancellation; 1e-4 is its realm
    t = np.geomspace(0.1, 2.0, 9)
    vals = laplace.gaver_stehfest(lambda s: 1.0 / (s + 1.0), t)
    np.testing.assert_allclose(vals, np.exp(-t), rtol=1e-4)


@pytest.mark.parametrize("transform, kernels", [
    (lambda s: np.full(np.shape(s), math.nan), None),
    (lambda s: np.full(np.shape(s), math.inf), None),
    (lambda s: [s**0.5, np.where(s > 2.0, math.nan, s**0.5)], [None, None]),  # one density of a pair
], ids=["nan", "inf", "nan_in_one_row"])
def test_non_finite_inversion_is_refused(transform, kernels):
    # no certificate covers a NaN or inf, in any density of a call that pairs
    # one with each kernel: the rule refuses, and without a warning on the way
    t = np.array([0.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericAccuracyError, match="not finite"):
            laplace.real_axis_integral(transform, t if kernels is None else [t] * len(kernels), 1.0, kernels)


def test_shared_density_keeps_each_integral_bits():
    # one density per kernel, each with its own times: the densities are
    # evaluated once per node for every integral of the call, and each
    # integral keeps the bits of its own call
    t, calls = np.geomspace(1e-3, 1e3, 7), []

    def pair(s):
        calls.append(s.size)
        return [s**0.5, s**-0.5]

    k3 = laplace.resolvent_kernel(3)
    both = laplace.real_axis_integral(pair, [t, t[::2]], 1.0, [None, k3])
    assert sum(calls) <= laplace._axis_nodes(laplace._AXIS_LEVELS, 1.0)[0].size
    assert [x.shape for x in both] == [t.shape, t[::2].shape]
    assert np.array_equal(both[0], laplace.real_axis_integral(lambda s: s**0.5, t))
    assert np.array_equal(both[1], laplace.real_axis_integral(lambda s: s**-0.5, t[::2], 1.0, k3))
    assert isinstance(laplace.real_axis_integral(lambda s: s**0.5, 1.0), float)


@pytest.mark.parametrize("alpha, rtol", [(0.5, 1e-12), (1.0, 1e-12), (1.5, 1e-12), (1.95, 1e-10)])
def test_real_axis_rule_matches_the_stable_closed_forms(alpha, rtol):
    # phi = lam^(alpha/2) on the upper lip: Im phi(-s + i0) = sin(pi alpha/2) s^(alpha/2); at
    # alpha = 1.95 the u density s^-0.975 leaves 2.5e-4 of u past the far end, to the closing rest
    a, c = alpha / 2.0, math.sin(math.pi * alpha / 2.0)
    t = np.geomspace(1e-6, 1e6, 13)
    for rho, exact in ((lambda s: c * s**a, a / math.gamma(1.0 - a) * t ** (-1.0 - a)),
                       (lambda s: c * s ** (a - 1.0), t**-a / math.gamma(1.0 - a)),
                       (lambda s: c * s**-a, t ** (a - 1.0) / math.gamma(a))):
        np.testing.assert_allclose(laplace.real_axis_integral(rho, t), exact, rtol=rtol)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_real_axis_rule_refuses_a_density_that_is_not_finite(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericAccuracyError, match="not finite"):
            laplace.real_axis_integral(lambda s: np.where(s > 2.0, bad, s**0.5), np.array([0.5, 1.0]))


def test_real_axis_coarse_sum_is_the_previous_fine_sum(monkeypatch):
    # a level's step-2h sum is the step-h sum of the level before, on both
    # sides of the split, even where the rule is far from converged (a density
    # oscillating in log s); else the two halves' errors could cancel in the
    # certificate
    rows, driver = [], laplace.halving_trapezoid

    def capture(sums, n, **kwargs):
        rows.extend(sums(level, np.arange(n)) for level in range(1, 5))
        return driver(sums, n, **kwargs)

    monkeypatch.setattr(laplace, "halving_trapezoid", capture)
    laplace.real_axis_integral(lambda s: s**-0.5 * (1.5 + np.sin(40.0 * np.log(s))), np.geomspace(1e-3, 1e3, 7))
    assert abs(rows[0][0] / rows[0][1] - 1.0).max() > 1e-3  # level 1 is not converged
    for (fine, _), (_, coarse) in zip(rows, rows[1:]):
        np.testing.assert_allclose(coarse, fine, rtol=1e-13)


@pytest.mark.parametrize("phi", [bernstein.log_perturbed_up(1.0, 0.5), bernstein.relativistic_stable(1.0, 1.0)],
                         ids=lambda phi: phi.kind)
def test_each_time_is_its_own_integral(phi):
    # every kernel's band is as wide as any t's can be, and the rule takes each
    # distinct t once, so a value has the same bits in one call over 25 t, or
    # over them unsorted with repeats, as alone: u, mu and the tail (exp(-z),
    # with a head), v (with one) and V (without), and G and j in d = 1, 2, 3
    # (the resolvent kernels, d = 2's head with a log term)
    forms = [densities.potential_density_u, bernstein.eval_levy_density, bernstein.levy_tail,
             ladder.ladder_density_v, ladder.renewal_function_V]
    radial = [lambda phi, r, d=d, f=f: f(phi, d, r) for d in (1, 2, 3) for f in (kernels.jump_kernel,
              kernels.green_function) if f is kernels.jump_kernel or kernels.transience_check(phi, d)]
    for f, t in [(f, np.geomspace(1e-6, 1e6, 25)) for f in forms] + [(f, np.geomspace(1e-3, 1e3, 25)) for f in radial]:
        # 25 t, then 36 unsorted with 11 repeats
        for grid in (t, np.random.default_rng(7).permutation(np.concatenate([t, t[::3], t[4:6], t[4:6]]))):
            together = np.asarray(f(phi, grid))
            assert together.tobytes() == np.array([f(phi, x) for x in grid]).tobytes(), f


def test_each_distinct_time_is_taken_once(monkeypatch):
    # the kernel sees the rows of distinct t only: a call over t with repeats,
    # unsorted, evaluates as many kernel rows as one over its distinct t, with
    # each value that of its t
    rows = []

    def counted(z):
        rows.append(z.shape[0])
        return np.exp(-z)

    t = np.geomspace(1e-3, 1e3, 9)
    monkeypatch.setattr(laplace, "_EXP", laplace._EXP._replace(f=counted))
    distinct = laplace.real_axis_integral(lambda s: s**-0.5, t)
    once, rows[:] = sum(rows), []
    repeated = np.concatenate([t[::-1], t, t[2:5]])
    values = laplace.real_axis_integral(lambda s: s**-0.5, repeated)
    assert sum(rows) == once and rows[0] == t.size
    assert values.tobytes() == np.concatenate([distinct[::-1], distinct, distinct[2:5]]).tobytes()


def test_band_layout_is_read_only():
    # a level's layout is shared by every call that asks for it
    nodes, w, powers, log_s, width, windows = laplace._band_layout(2, 1.0, 1e40, (0.0, 1.0))
    assert windows.shape[1] == width and len(powers) == 2
    assert not any(x.flags.writeable for x in (w, *powers, log_s, windows))
