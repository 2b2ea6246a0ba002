import math
import warnings

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn, hyp2f1

from sbmpot import bernstein, cli, ladder
from sbmpot.errors import NumericAccuracyError


def test_chi_identity_stable():
    for alpha in (0.5, 1.0, 1.5):
        phi = bernstein.stable(alpha)
        for lam in (0.1, 1.0, 10.0, 100.0):
            chi = float(ladder.ladder_exponent_chi(phi, lam))
            assert abs(chi / lam ** (alpha / 2.0) - 1.0) < 1e-6


def test_chi_vectorized_matches_scalar():
    phi = bernstein.sum_of_stables(1.0, 0.5)
    lam = np.geomspace(0.1, 100.0, 9)
    batch = np.atleast_1d(ladder.ladder_exponent_chi(phi, lam))
    singles = np.array([float(ladder.ladder_exponent_chi(phi, float(x))) for x in lam])
    np.testing.assert_allclose(batch, singles, rtol=1e-12)


def test_sandwich_all_catalog(catalog, lam_grid):
    for phi in catalog:
        mn, mx = ladder.chi_sandwich_check(phi, lam_grid)
        assert mn >= ladder.SANDWICH_LO - 1e-9, phi.label()
        assert mx <= ladder.SANDWICH_HI + 1e-9, phi.label()


def test_chi_is_complete_bernstein():
    for phi in (bernstein.stable(1.0), bernstein.sum_of_stables(1.0, 0.5)):
        rep = ladder.chi_is_cbf_check(phi)
        assert rep.passed, phi.label()


def test_renewal_function_stable_closed_form():
    for alpha in (0.5, 1.0, 1.5):
        phi = bernstein.stable(alpha)
        t = np.geomspace(0.1, 10.0, 9)
        expected = t ** (alpha / 2.0) / math.gamma(1.0 + alpha / 2.0)
        np.testing.assert_allclose(
            np.atleast_1d(ladder.renewal_function_V(phi, t)), expected, rtol=1e-9)


def test_renewal_scaling_inequality(catalog):
    # V(2t) <= 2 V(t): subadditivity of the renewal function of a subordinator
    t = np.geomspace(0.05, 5.0, 12)
    for phi in catalog:
        v1 = np.atleast_1d(ladder.renewal_function_V(phi, t))
        v2 = np.atleast_1d(ladder.renewal_function_V(phi, 2.0 * t))
        assert np.all(v2 <= 2.0 * v1 * (1.0 + 1e-6)), phi.label()
        assert np.all(np.diff(v1) > 0.0), phi.label()


def test_ladder_density_is_renewal_derivative():
    phi = bernstein.stable(1.0)
    t = np.geomspace(0.2, 5.0, 9)
    h = 1e-4 * t
    dv = (np.atleast_1d(ladder.renewal_function_V(phi, t + h))
          - np.atleast_1d(ladder.renewal_function_V(phi, t - h))) / (2.0 * h)
    v = np.atleast_1d(ladder.ladder_density_v(phi, t))
    np.testing.assert_allclose(v, dv, rtol=1e-5)


def test_halfline_green_closed_value():
    phi = bernstein.stable(1.0)
    expected = (2.0 / math.pi) * math.log(1.0 + math.sqrt(2.0))
    assert ladder.halfline_green(phi, 1.0, 2.0) == pytest.approx(expected, abs=1e-4)


@pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0, 1.05, 1.5, 1.95])
@pytest.mark.parametrize("x, y", [(1.0, 2.0), (0.2, 3.0), (2.5, 0.7), (1.0, 1.0)])
def test_halfline_green_stable_oracle(alpha, x, y):
    # v(z) = z^(a-1)/Gamma(a), a = alpha/2, so G is a hypergeometric function
    # off the diagonal and a power of x on it (divergent for alpha <= 1)
    a, lo, gap = alpha / 2.0, min(x, y), abs(y - x)
    if gap == 0.0:
        expect = lo ** (alpha - 1.0) / ((alpha - 1.0) * gamma_fn(a) ** 2) if alpha > 1.0 else math.inf
    else:
        expect = gap ** (a - 1.0) * lo ** a / a * hyp2f1(1.0 - a, a, a + 1.0, -lo / gap) / gamma_fn(a) ** 2
    assert ladder.halfline_green(bernstein.stable(alpha), x, y) == pytest.approx(expect, rel=1e-12)


def test_halfline_green_refuses_a_drifting_rest():
    # on the diagonal at alpha = 1.01 the rest under z = 1e-100 x carries a
    # tenth of the value, and the log factor keeps v off a power law there:
    # closed with the measured power it moves by 4e-3 when the floor does, so
    # the gap to the limit power must refuse it
    with pytest.raises(NumericAccuracyError, match="halfline Green quadrature"):
        ladder.halfline_green(bernstein.log_perturbed_up(1.01, 0.5), 1.0, 1.0)


def test_halfline_green_symmetry():
    phi = bernstein.stable(1.0)
    xs = np.linspace(0.5, 2.5, 5)
    for i, x in enumerate(xs):
        for y in xs[i + 1:]:
            a = ladder.halfline_green(phi, float(x), float(y))
            b = ladder.halfline_green(phi, float(y), float(x))
            assert abs(a - b) < 1e-6


def test_halfline_green_leaks_no_integration_warning(capsys):
    # v's round-off keeps the rule short of its request on this input; the
    # verdict is a value within 50 times the request (exit 0) or a typed refusal (exit 3)
    argv = ["ladder", "halfline", "--kind", "sum", "--alpha", "1", "--beta", "0.5",
            "--x", "1", "--y", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv)
    assert rc in (0, 3)


def test_halfline_green_refuses_an_uncertified_convolution(monkeypatch):
    # a renewal density too rough for the rule's last step halving
    monkeypatch.setattr(ladder, "ladder_density_v", lambda phi, z: 1.0 + 1e-3 * np.sin(1e7 * z * z))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericAccuracyError, match="halfline Green quadrature") as info:
            ladder.halfline_green(bernstein.stable(1.0), 1.0, 2.0)
    assert info.value.residual > 0.0


def test_interval_green_mass_bound_limits():
    phi = bernstein.stable(1.0)
    big = ladder.interval_green_mass_bound(phi, 1.0, 0.5)
    assert big.min_form <= big.plain * (1.0 + 1e-12)
    assert big.plain > 0.0
    # expected exit time vanishes at the boundary
    near_zero = ladder.interval_green_mass_bound(phi, 1.0, 1e-9)
    assert near_zero.plain < 1e-3
