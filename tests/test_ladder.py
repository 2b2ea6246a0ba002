import json
import math
import os
import warnings

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn, hyp2f1

from sbmpot import bernstein, cli, ladder
from sbmpot.errors import EvaluationDomainError, NumericAccuracyError


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
        win = ladder.chi_sandwich_check(phi, lam_grid)
        assert win.lo >= ladder.SANDWICH_LO - 1e-9, phi.label()
        assert win.hi <= ladder.SANDWICH_HI + 1e-9 and win.passed, phi.label()


@pytest.mark.parametrize("ratio, passed", [
    (ladder.SANDWICH_LO - 0.9e-9, True),
    (ladder.SANDWICH_LO - 1.1e-9, False),
    (ladder.SANDWICH_HI + 0.9e-9, True),
    (ladder.SANDWICH_HI + 1.1e-9, False),
])
def test_sandwich_verdict_at_its_bounds(monkeypatch, ratio, passed):
    # chi set to a constant multiple of sqrt(phi(lam^2)): the window is that
    # multiple to a few ulps, and passes within [LO - 1e-9, HI + 1e-9]
    phi = bernstein.stable(1.0)
    monkeypatch.setattr(ladder, "ladder_exponent_chi", lambda phi, lam: ratio * np.sqrt(phi(lam**2)))
    win = ladder.chi_sandwich_check(phi)
    assert win.lo == pytest.approx(ratio, rel=1e-14) and win.passed is passed


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


def _mpmath_ladder():
    # v and V of kinds with no closed form, inverted by mpmath from chi's
    # rotated integral on the positive axis; regenerate with
    # tests/fixtures/ladder_mpmath.py
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "ladder_mpmath.json")) as fh:
        return json.load(fh)["ladder"]


@pytest.mark.parametrize("case", _mpmath_ladder(), ids=lambda c: f"{c['label']}-t{c['t']:g}")
def test_ladder_objects_match_the_mpmath_fixture(case):
    # held to the real-axis rule's relative target; the geometric kind's come
    # from its pole sums
    phi, t = bernstein.phi_from_json(case["phi"]), case["t"]
    assert ladder.ladder_density_v(phi, t) == pytest.approx(case["v"], rel=1e-9)
    assert ladder.renewal_function_V(phi, t) == pytest.approx(case["V"], rel=1e-9)


@pytest.mark.parametrize("phi", [bernstein.log_perturbed_down(1.0, 0.5), bernstein.geometric_like(1.0, 64)],
                         ids=["cut", "poles"])
def test_renewal_table_evaluates_chi_once_for_v_and_V(monkeypatch, phi):
    # one op's v and V share chi's values at the cut's nodes (or the poles):
    # no lam is evaluated twice, and both keep the bits of their own calls
    t, lams, chi = np.geomspace(1e-3, 1e3, 7), [], ladder.ladder_exponent_chi
    monkeypatch.setattr(ladder, "ladder_exponent_chi", lambda phi, lam: lams.append(lam) or chi(phi, lam))
    table = ladder.renewal_table(phi, t)
    taken = np.concatenate(lams)
    assert np.unique(taken).size == taken.size
    assert np.array_equal(table["v_ladder"], ladder.ladder_density_v(phi, t))
    assert np.array_equal(table["V"], ladder.renewal_function_V(phi, t))


def test_chi_takes_phi_at_the_float_range_end_within_rounding():
    # lam^2 tan^2(theta) overflows at the last nodes for lam = 1e130, whose
    # weights make the clamp's error negligible: chi of lam^(1/2) + lam^(1/4)
    # is lam^(1/2) (1 + O(lam^(-1/2))); at lam = 1e150 it would not be
    phi = bernstein.sum_of_stables(1.0, 0.5)
    assert ladder.ladder_exponent_chi(phi, 1e130) == pytest.approx(1e65, rel=1e-15)
    with pytest.raises(EvaluationDomainError, match="float range"):
        ladder.ladder_exponent_chi(phi, 1e150)
    # the geometric kind's last poles at alpha = 1.9 lie past 1e249
    v = ladder.ladder_density_v(bernstein.geometric_like(1.9), np.array([0.1, 1.0]))
    assert np.all(np.isfinite(v) & (v > 0.0))


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
    # on the diagonal at alpha = 1.01 the rest under z = 1e-60 x covers s <
    # 0.25, and the log factor keeps v off a power law there: closed with the
    # measured power it is 1.60, with the limit power 2.01, so the gap between
    # the two must refuse it
    with pytest.raises(NumericAccuracyError, match="halfline Green quadrature"):
        ladder.halfline_green(bernstein.log_perturbed_up(1.01, 0.5), 1.0, 1.0)


@pytest.mark.parametrize("x", [1e-12, 1e-40, 1e-62])
def test_halfline_green_near_the_boundary_is_V_times_v(x):
    # G(x, y) = int_0^x v(z) v(y - x + z) dz -> V(x) v(y) as x -> 0; the rule's
    # floor z >= 1e-66 keeps v's t^2 within the real-axis rule's reach there
    phi = bernstein.sum_of_stables(1.0, 0.5)
    expect = ladder.renewal_function_V(phi, x) * ladder.ladder_density_v(phi, 1.0)
    assert ladder.halfline_green(phi, x, 1.0) == pytest.approx(expect, rel=1e-9)


def test_halfline_green_symmetry():
    phi = bernstein.stable(1.0)
    xs = np.linspace(0.5, 2.5, 5)
    for i, x in enumerate(xs):
        for y in xs[i + 1:]:
            a = ladder.halfline_green(phi, float(x), float(y))
            b = ladder.halfline_green(phi, float(y), float(x))
            assert abs(a - b) < 1e-6


def test_halfline_green_leaks_no_integration_warning(capsys):
    # v from phi's cut is certified to 1e-9 per point, so the convolution
    # meets its request on an inverted kind, with no warning on the way
    argv = ["ladder", "halfline", "--kind", "sum", "--alpha", "1", "--beta", "0.5",
            "--x", "1", "--y", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv)
    assert rc == 0


def test_halfline_green_refuses_an_uncertified_convolution(monkeypatch):
    # a renewal density too rough for the rule's last step halving, which
    # still decreases across the head's bracket, with V(z) = z there
    monkeypatch.setattr(ladder, "_renewal", lambda phi, names, ts: [1.0 + 1e-3 * np.sin(1e7 * ts[0] * ts[0]), ts[1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericAccuracyError, match="halfline Green quadrature") as info:
            ladder.halfline_green(bernstein.stable(1.0), 1.0, 2.0)
    assert info.value.residual > 0.0


def test_halfline_green_takes_v_at_the_rule_s_second_level(monkeypatch):
    # off the diagonal the bracketed head keeps v's arguments above
    # 1e-12 min(x, gap), where the real-axis rule certifies at level 2: one
    # chi sweep of its nodes serves v at the convolution's nodes and V(z_c)
    taken, chi = [], ladder.ladder_exponent_chi
    monkeypatch.setattr(ladder, "ladder_exponent_chi", lambda phi, lam: taken.append(np.size(lam)) or chi(phi, lam))
    ladder.halfline_green(bernstein.sum_of_stables(1.0, 0.5), 1.0, 2.0)
    assert sum(taken) <= 1700


@pytest.mark.parametrize("phi", [bernstein.sum_of_stables(1.0, 0.5), bernstein.log_perturbed_down(1.0, 0.5)],
                         ids=["sum", "log_down"])
def test_halfline_green_head_bracket_does_not_move_g(monkeypatch, phi):
    # the bracket V(z_c) [v(gap + z_c), v(gap)] is about 1e-12 of G wide:
    # moving z_c down by 1e-8 moves G by rounding only
    head = ladder.halfline_green(phi, 1.03, 2.1)
    monkeypatch.setattr(ladder, "_HALFLINE_HEAD", ladder._HALFLINE_HEAD * 1e-8)
    assert ladder.halfline_green(phi, 1.03, 2.1) == pytest.approx(head, rel=1e-12)


def test_halfline_green_refuses_a_renewal_density_that_rises(monkeypatch):
    # the head's bracket holds for a decreasing v only
    monkeypatch.setattr(ladder, "_renewal", lambda phi, names, ts: [np.exp(ts[0]), ts[1]])
    with pytest.raises(NumericAccuracyError, match="does not decrease"):
        ladder.halfline_green(bernstein.sum_of_stables(1.0, 0.5), 1.0, 2.0)


@pytest.mark.parametrize("phi, expect", [
    (bernstein.sum_of_stables(1.0, 0.5), 0.18885514168916945),
    (bernstein.log_perturbed_up(1.0, 0.5), 0.9013311292936714),
    (bernstein.log_perturbed_down(1.0, 0.5), 0.28023388217158396),
    (bernstein.relativistic_stable(1.0, 1.0), 2.7009305899009584),
], ids=["sum", "log_up", "log_down", "relativistic"])
def test_halfline_green_keeps_the_power_law_head_s_values(phi, expect):
    # the values of the rule that closed (0, 1e-60 x) with a measured power
    assert ladder.halfline_green(phi, 1.03, 2.1) == pytest.approx(expect, rel=1e-11)


def test_halfline_green_geometric_certified_on_the_finest_level():
    # levels 3 and 4 of the rule agree to 5.4e-10 here but are both 4e-8 low;
    # the reference is the pole-sum v's convolution by two independent scipy
    # quadratures, which agree to 1e-16
    phi = bernstein.phi_from_json({"kind": "geometric_example", "alpha": 0.7202691650936953})
    got = ladder.halfline_green(phi, 0.8298737001329015, 1.8680849129554078)
    assert got == pytest.approx(0.0253131272598574, rel=1e-9)


@pytest.mark.parametrize("alpha, x, y", [(0.5, 0.2, 3.0), (1.0, 1.0, 2.0), (1.6, 1.0, 1.001), (1.6, 1.0, 1.000001)])
def test_halfline_green_of_a_pole_sum_is_its_closed_convolution(alpha, x, y):
    # v = a + sum c_i e^(-r_i t) over the atoms z_i = r_i^2 of 1/phi, so
    # int_0^lo v(z) v(gap + z) dz is a closed double sum of exponentials
    phi = bernstein.phi_from_json({"kind": "geometric_example", "alpha": alpha})
    m, lo, gap = phi.stieltjes(0), min(x, y), abs(y - x)
    w, z = m.w, m.z
    r = np.sqrt(z[np.isfinite(z)])
    c = w[np.isfinite(z)] * ladder.ladder_exponent_chi(phi, r) / (2.0 * r)
    a = math.sqrt(m.c)
    head = -np.expm1(-lo * r) / r
    rs = r[:, None] + r[None, :]
    expect = (a * a * lo + a * (c * head * (1.0 + np.exp(-gap * r))).sum()
              + (c[:, None] * c[None, :] * np.exp(-gap * r)[None, :] * -np.expm1(-lo * rs) / rs).sum())
    assert ladder.halfline_green(phi, x, y) == pytest.approx(expect, rel=1e-9)


def test_ladder_refusals_state_the_reach_in_t():
    # the real-axis rule integrates v and V in t^2; a refusal names the t given
    phi = bernstein.sum_of_stables(1.0, 0.5)
    for f in (ladder.ladder_density_v, ladder.renewal_function_V):
        with pytest.raises(NumericAccuracyError, match=r"reaches t in \[.*\], not 1e\+60 to 1e\+60"):
            f(phi, 1e60)


@pytest.mark.parametrize("phi, x, y, reach", [
    # v is taken up to x v y, past the real-axis rule's reach in t
    (bernstein.sum_of_stables(1.0, 0.5), 1.0, 7e55, r"\[1.1e-64, 6.79e\+55\]"),
    # and down to 1e-5 x, whose square is under the float range
    (bernstein.geometric_like(1.0), 1e-300, 1.0, r"\[1.49e-149, 1.34e\+154\]"),
], ids=["cut_far", "poles_near"])
def test_halfline_green_refusals_state_the_reach_in_x_and_y(phi, x, y, reach):
    with pytest.raises(NumericAccuracyError, match=rf"halfline Green reaches x and y in {reach}"):
        ladder.halfline_green(phi, x, y)
    # the stable kind's closed v reaches every x
    assert ladder.halfline_green(bernstein.stable(phi.alpha), x, y) > 0.0


def test_halfline_green_holds_its_stated_reach_in_x(capsys):
    # relativistic alpha = 1, m = 1e-10: v reaches t down to 1.1e-59 only, above _HALFLINE_Z_MIN = 1e-66, so
    # z_c is floored at that reach and every x the refusal states is taken (x = 1e-50 exited 3, as z_c = 1e-62)
    phi = bernstein.relativistic_stable(1.0, 1e-10)
    x_lo = 1e5 * ladder._renewal_reach(phi)[0]
    assert cli.main(["ladder", "halfline", "--kind", "relativistic", "--alpha", "1", "--m", "1e-10",
                     "--x", "1e-50", "--y", "2"]) == 0
    assert capsys.readouterr().out.startswith("x,y,G_halfline\n1e-50,2,")
    assert ladder.halfline_green(phi, x_lo * (1.0 + 1e-6), 2.0) > 0.0
    with pytest.raises(NumericAccuracyError, match=r"reaches x and y in \[1.1e-54, "):
        ladder.halfline_green(phi, x_lo * (1.0 - 1e-6), 2.0)


def test_halfline_green_converts_a_t_square_out_of_the_float_range(monkeypatch):
    # at the reach's very end 1e-5 x can still round to a t whose square leaves
    # the float range (geometric_example alpha = 0.8 at x = 1.4916681462400413e-149);
    # with the reach widened, x = 1e-300 takes that path: laplace.squares' refusal, converted
    monkeypatch.setattr(ladder, "_renewal_reach", lambda phi: (0.0, math.inf))
    with pytest.raises(NumericAccuracyError, match="halfline Green reaches x and y") as info:
        ladder.halfline_green(bernstein.geometric_like(1.0), 1e-300, 1.0)
    assert isinstance(info.value.__cause__, EvaluationDomainError)


@pytest.mark.parametrize("argv, rc", [
    # chi at the geometric kind's poles, which the package chose: a failure of the rule
    (["ladder", "v", "--kind", "geometric_example", "--alpha", "0.13", "--t", "1"], 3),
    # chi at the caller's own lam past its float range: a domain error
    (["ladder", "chi", "--kind", "sum", "--alpha", "1", "--beta", "0.5", "--lambda", "1e150"], 2),
], ids=["package_lambda", "caller_lambda"])
def test_chi_out_of_range_exit_codes(capsys, argv, rc):
    assert cli.main(argv) == rc
    assert capsys.readouterr().out == ""


def test_interval_green_mass_bound_limits():
    phi = bernstein.stable(1.0)
    big = ladder.interval_green_mass_bound(phi, 1.0, 0.5)
    assert big.min_form <= big.plain * (1.0 + 1e-12)
    assert big.plain > 0.0
    # expected exit time vanishes at the boundary
    near_zero = ladder.interval_green_mass_bound(phi, 1.0, 1e-9)
    assert near_zero.plain < 1e-3
