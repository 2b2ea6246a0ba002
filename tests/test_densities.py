import inspect
import math

import numpy as np
import pytest
from scipy.special import erf, erfcx

from sbmpot import bernstein, densities, laplace
from sbmpot.errors import EvaluationDomainError, NumericAccuracyError


def test_stable_potential_density_closed_form():
    for alpha in (0.5, 1.0, 1.5):
        phi = bernstein.stable(alpha)
        t = np.geomspace(1e-3, 10.0, 21)
        expected = t ** (alpha / 2.0 - 1.0) / math.gamma(alpha / 2.0)
        np.testing.assert_allclose(
            densities.potential_density_u(phi, t), expected, rtol=1e-9)


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
def test_relativistic_potential_density_oracle(m):
    # alpha = 1: 1/phi = (sqrt(lam + m^2) + m)/lam inverts term by term to
    # m (1 + erf(m sqrt t)) + exp(-m^2 t)/sqrt(pi t), a form that shares no
    # code with the certified Talbot inversion behind u
    phi = bernstein.relativistic_stable(1.0, m)
    t = np.geomspace(1e-4, 1e2, 25)
    exact = m * (1.0 + erf(m * np.sqrt(t))) + np.exp(-m * m * t) / np.sqrt(np.pi * t)
    np.testing.assert_allclose(densities.potential_density_u(phi, t), exact, rtol=1e-6)


def test_killed_relativistic_potential_density_past_the_batch_peak():
    # phi = sqrt(lam + 1) + 1/2: u = e^(-t) (1/sqrt(pi t) - erfcx(sqrt(t)/2)/2), 4.0e-47 at t = 100,
    # where a contour rule's batch floor wrote 5.2e-13
    phi = bernstein.killed_shift(bernstein.relativistic_stable(1.0, 1.0), 1.5)
    t = np.array([1.0, 10.0, 100.0])
    exact = np.exp(-t) * (1.0 / np.sqrt(np.pi * t) - 0.5 * erfcx(0.5 * np.sqrt(t)))
    np.testing.assert_allclose(densities.potential_density_u(phi, t), exact, rtol=1e-9)
    # at a = m, phi = sqrt(lam + 1), the pole of 1/(phi + a) sits on the branch point, where the
    # singular density c (s - 1)^(-1/2) loses 3.8e-7 to the nodes dropped next to it at t = 100: refused
    with pytest.raises(NumericAccuracyError, match="branch point"):
        densities.potential_density_u(bernstein.killed_shift(bernstein.relativistic_stable(1.0, 1.0), 1.0), t)


def test_conjugate_potential_density_carries_the_atom():
    # psi = lam/(sqrt(lam) + 1/2): 1/psi = lam^(-1/2) + 1/(2 lam), so u = 1/sqrt(pi t) + 1/2, by the
    # closed tail of the inner kind and by the atom plus the real-axis rule alike
    psi = bernstein.conjugate(bernstein.killed_shift(bernstein.stable(1.0), 0.5))
    t = np.geomspace(1e-3, 1e3, 7)
    exact = 1.0 / np.sqrt(np.pi * t) + 0.5
    np.testing.assert_allclose(densities.potential_density_u(psi, t), exact, rtol=1e-12)
    assert psi.stieltjes(0).c == 0.5
    rule = 0.5 + psi.sums([(0, 0)], [t])[0]
    np.testing.assert_allclose(rule, exact, rtol=1e-12)


@pytest.mark.parametrize("phi, t, rtol", [
    (bernstein.stable(1.0), np.geomspace(1e-2, 10.0, 15), 1e-8),
    # the truncated-series potential density is exact
    (bernstein.geometric_like(1.0, 64), np.geomspace(1e-2, 1.0, 11), 1e-7),
], ids=["stable", "geometric_example"])
def test_closed_potential_density_matches_talbot(phi, t, rtol):
    # cross-validates the closed form against the certified inversion of 1/phi
    closed = densities.potential_density_u(phi, t)
    inverted = laplace.talbot_inversion(lambda s: 1.0 / phi(s), t)
    np.testing.assert_allclose(inverted, closed, rtol=rtol)


KIND_EXAMPLES = {
    "stable": bernstein.stable(1.0),
    "relativistic": bernstein.relativistic_stable(1.0, 1.0),
    "sum": bernstein.sum_of_stables(1.0, 0.5),
    "log_up": bernstein.log_perturbed_up(1.0, 0.5),
    "log_down": bernstein.log_perturbed_down(1.0, 0.5),
    "geometric_example": bernstein.geometric_like(1.0, 64),
    "conjugate": bernstein.conjugate(bernstein.stable(1.0)),
    "killed_shift": bernstein.killed_shift(bernstein.stable(1.0), 0.5),
}


@pytest.mark.parametrize("kind", list(bernstein.KINDS))
def test_closed_mode_raises_exactly_without_a_closed_form(kind):
    # u is the kind's closed form exactly where the registry has one that gives
    # a value (a conjugate's is its inner kind's closed tail, killed_shift's none),
    # and the sum of 1/phi's measure, same bits, everywhere else, which the Talbot
    # inversion of 1/phi confirms to its 1e-6; both with 1/phi's constant c/lam
    phi = KIND_EXAMPLES[kind]
    t = np.array([0.1, 1.0])
    closed = phi.closed_form("potential_density", t)
    assert (closed is None) == (("exp", 0) not in phi.stieltjes(0).closed)
    if closed is None:
        closed = phi.sums([(0, 0)], [t])[0]
        np.testing.assert_allclose(closed + phi.stieltjes(0).c, laplace.talbot_inversion(lambda s: 1.0 / phi(s), t),
                                   rtol=1e-6)
    assert np.array_equal(densities.potential_density_u(phi, t), closed + phi.stieltjes(0).c)
    assert isinstance(densities.potential_density_u(phi, 0.5), float)


def test_unknown_density_mode_is_refused():
    # u has one path, so no mode is accepted
    assert list(inspect.signature(densities.potential_density_u).parameters) == ["phi", "t"]
    with pytest.raises(TypeError):
        densities.potential_density_u(bernstein.stable(1.0), 1.0, mode="talbot")


def test_u_decreasing_and_convex(catalog):
    t = np.geomspace(1e-2, 10.0, 40)
    for phi in catalog:
        u = np.atleast_1d(densities.potential_density_u(phi, t))
        assert np.all(np.diff(u) < 0.0), phi.label()
        assert np.all(np.diff(u, 2) > -1e-12 * u[:-2]), phi.label()


def test_zahle_upper_bound_with_explicit_constant(catalog):
    for phi in catalog:
        rep = densities.zahle_upper_check(phi)
        assert rep.passed, phi.label()
        assert rep.hi <= densities.ZAHLE_BOUND + 1e-6, phi.label()


def test_zahle_lower_bound_via_scaling_witness():
    # a delta below the lower scaling index has a constant a >= 1; one above it
    # has none on the grid
    phi = bernstein.stable(1.0)
    assert densities.find_scaling_constant(phi, 0.4, 1.0) >= 1.0
    assert densities.find_scaling_constant(phi, 0.9, 1.0) < 1.0
    t = np.geomspace(1e-3, 0.9, 30)
    u = np.atleast_1d(densities.potential_density_u(phi, t))
    products = u * t * np.atleast_1d(phi(1.0 / t))
    assert np.all(products > 0.0)
    assert products.min() > 0.1


def test_find_scaling_constant_stable():
    phi = bernstein.stable(1.0)
    a = densities.find_scaling_constant(phi, delta=0.4)
    assert np.isfinite(a) and a >= 1.0 - 1e-12


@pytest.mark.parametrize("delta, s0", [(0.4, 0.0), (0.4, math.nan), (0.4, math.inf), (0.0, 1.0),
                                       (1.0, 1.0), (math.nan, 1.0)])
def test_scaling_constant_refuses_what_it_cannot_measure(delta, s0):
    # s0 = 0 divided by zero and s0 = NaN returned NaN
    with pytest.raises(EvaluationDomainError):
        densities.find_scaling_constant(bernstein.stable(1.0), delta, s0)


@pytest.mark.parametrize("grid", [[0.5, 2.0], [0.0, 0.5], [math.nan, 0.5]])
def test_zahle_grid_outside_the_unit_interval_is_refused(grid):
    with pytest.raises(EvaluationDomainError):
        densities.zahle_upper_check(bernstein.stable(1.0), np.array(grid))


def test_zahle_verdict_at_its_bound(monkeypatch):
    # passed while the largest product is at most ZAHLE_BOUND + 1e-6, exactly
    edge = densities.ZAHLE_BOUND + 1e-6
    for hi, passed in ((edge, True), (np.nextafter(edge, math.inf), False)):
        monkeypatch.setattr(densities, "u_asymptotic_ratio",
                            lambda phi, grid: densities.RatioWindow.of(grid, [0.5, hi], densities.RatioWindow.bounded))
        win = densities.zahle_upper_check(bernstein.stable(1.0), np.array([0.1, 1.0]))
        assert (win.hi, win.passed) == (hi, passed)


def test_levy_shift_verdict_on_an_underflowing_density():
    # relativistic m = 100: mu is 0 on the whole grid, so the ratio is NaN and
    # the check fails, with no warning
    assert not densities.check_levy_shift_bound(bernstein.relativistic_stable(1.0, 100.0)).passed


def test_tail_vs_conjugate_potential_identity(catalog):
    # the Laplace transform of a + mu(t, inf) is phi/lam = 1/psi for the
    # conjugate psi = lam/phi (a the killing of phi), so the tail plus the
    # killing is u of the conjugate: the closed inner tail or the real-axis
    # integral with its atom, which the killed kinds exercise
    grid = np.geomspace(1e-2, 10.0, 20)
    for phi in catalog + [bernstein.killed_shift(phi, 0.5) for phi in catalog[4:7]]:
        tail = np.atleast_1d(bernstein.levy_tail(phi, grid)) + phi.killing
        np.testing.assert_allclose(densities.potential_density_u(bernstein.conjugate(phi), grid), tail,
                                   rtol=1e-9, err_msg=phi.label())


def test_asymptotic_ratio_windows(catalog):
    for phi in catalog:
        for win in (densities.u_asymptotic_ratio(phi), densities.mu_asymptotic_ratio(phi)):
            assert 0.0 < win.lo <= win.hi, phi.label()
            assert win.hi / win.lo < 1e3 and win.passed, phi.label()


def test_ratio_window_spread_needs_a_positive_window():
    # a window that reaches zero or dips negative has no finite spread, so
    # a bound such as spread < 1e3 cannot pass it
    grid = np.array([1.0, 2.0])
    bounded = densities.RatioWindow.bounded
    assert densities.RatioWindow.of(grid, [0.5, 2.0], bounded).spread == 4.0
    for ratios in ([-1e-3, 5.0], [0.0, 5.0]):
        win = densities.RatioWindow.of(grid, ratios, bounded)
        assert win.spread == math.inf and not win.passed
    # a positive window passes on a spread strictly under 1e3
    for hi, passed in ((1e3, False), (np.nextafter(1e3, 0.0), True), (math.inf, False), (math.nan, False)):
        assert densities.RatioWindow.of(grid, [1.0, hi], bounded).passed is passed


def test_potential_density_batches_match_scalars():
    phi = bernstein.relativistic_stable(1.0, 1.0)
    t = np.array([0.05, 0.3, 2.0])
    batch = np.atleast_1d(densities.potential_density_u(phi, t))
    singles = np.array([densities.potential_density_u(phi, float(x)) for x in t])
    np.testing.assert_allclose(batch, singles, rtol=1e-10)


def test_killed_phi_potential_density_allowed():
    phi = bernstein.killed_shift(bernstein.stable(1.0), 0.5)
    t = np.geomspace(1e-2, 2.0, 9)
    u = np.atleast_1d(densities.potential_density_u(phi, t))
    base = np.atleast_1d(densities.potential_density_u(bernstein.stable(1.0), t))
    assert np.all(u > 0.0)
    assert np.all(u <= base * (1.0 + 1e-9))


def _same_bits(a: float, b: float) -> bool:
    # a NaN's sign bit depends on where it arose, so NaN only has to meet NaN
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64)


_SIDES = {"potential_density": (0, 0), "levy_density": (1, 1)}


def _registry_form(phi, name, t):
    # a kind's closed form, or the exact sum of exponentials of a measure with atoms only
    side, p = _SIDES[name]
    if (closed := phi.closed_form(name, t)) is not None or phi.stieltjes(side).cut:
        return closed
    m = phi.stieltjes(side)
    return bernstein._exp_sum(m.w, m.z, np.asarray(t, dtype=float), p)


@pytest.mark.parametrize("kind, name", [
    (kind, name) for kind in bernstein.KINDS for name in ("potential_density", "levy_density")
    if _registry_form(KIND_EXAMPLES[kind], name, 1.0) is not None])
def test_closed_form_weight_has_the_registry_bits(kind, name):
    # the entry points for u and mu return a kind's closed form, or the sum over the atoms of a measure
    # that has no density, with its bits (1/phi's constant c, which u adds, is 0 for all of these)
    phi = KIND_EXAMPLES[kind]
    entry = {"potential_density": densities.potential_density_u, "levy_density": bernstein.eval_levy_density}[name]
    assert name == "levy_density" or phi.stieltjes(0).c == 0.0

    def weight(t):
        return entry(phi, t)

    ts = np.array(np.geomspace(1e-6, 1e6, 2001).tolist() + [math.pi, 1.0])
    # on an array and on each t alone
    assert weight(ts).view(np.uint64).tolist() == _registry_form(phi, name, ts).view(np.uint64).tolist()
    for t in ts.tolist():
        assert _same_bits(weight(t), _registry_form(phi, name, t)), (kind, t)
