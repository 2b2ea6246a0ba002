import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest
from scipy.special import expit, gamma as gamma_fn, hyp2f1

from sbmpot import bernstein, cli, ladder, laplace
from sbmpot.errors import EvaluationDomainError, NumericAccuracyError


def test_chi_identity_stable():
    for alpha in (0.5, 1.0, 1.5):
        phi = bernstein.stable(alpha)
        for lam in (0.1, 1.0, 10.0, 100.0):
            chi = float(ladder.ladder_exponent_chi(phi, lam))
            assert abs(chi / lam ** (alpha / 2.0) - 1.0) < 1e-6


def test_chi_vectorized_matches_scalar():
    # the lattice is anchored at y_i = i/8 and convolved in fixed blocks, so a lam has the same bits whatever
    # other lam share the call; this grid spans three blocks
    phi = bernstein.sum_of_stables(1.0, 0.5)
    lam = np.geomspace(1e-70, 1e70, 41)
    batch = np.atleast_1d(ladder.ladder_exponent_chi(phi, lam))
    singles = np.array([float(ladder.ladder_exponent_chi(phi, float(x))) for x in lam])
    assert np.array_equal(batch, singles)


def _gauss_forward_loop(f, s):
    # Gauss's forward formula term by term, the reference for ladder._gauss_forward's running products and sums
    p = ladder._CHI_P
    nodes = [(k + 1) // 2 if k % 2 else -(k // 2) for k in range(p + 1)]
    diffs, basis, total = f, np.ones_like(s), f[p // 2].copy()
    for k in range(1, p + 2):
        diffs = diffs[1:] - diffs[:-1]
        basis *= (s - nodes[k - 1]) / k
        total += basis * diffs[p // 2 - k // 2]
        if k == p - 1:
            narrow = total.copy()
    return total, narrow


def test_gauss_forward_has_the_bits_of_the_term_by_term_sum():
    rng = np.random.default_rng(3)
    for n in (1, 7, 100):
        f, s = rng.normal(scale=300.0, size=(ladder._CHI_P + 2, n)), rng.random(n)
        for got, want in zip(ladder._gauss_forward(f, s), _gauss_forward_loop(f, s)):
            assert got.tobytes() == want.tobytes()


def test_chi_blocks_are_memoised_with_their_bits():
    # chi's lattice blocks are memoised per (phi, block): the memo's blocks have
    # the bits of fresh ones, a second call on the same phi and lam builds none,
    # and a cached block cannot be written through
    phi, lam = bernstein.log_perturbed_down(1.37, 0.5), np.geomspace(1e-70, 1e70, 41)
    ladder._chi_block.cache_clear()
    fresh = ladder.ladder_exponent_chi(phi, lam)
    built = ladder._chi_block.cache_info().misses
    cached = ladder.ladder_exponent_chi(phi, lam)
    assert built == 3 and ladder._chi_block.cache_info().misses == built
    assert cached.tobytes() == fresh.tobytes()
    for b in (-1, 0, 1):
        block = ladder._chi_block(phi, b)
        assert all(not x.flags.writeable for x in block)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(block, ladder._chi_block.__wrapped__(phi, b)))


def _de_chi(phi, lam):
    # the doubly exponential sweep the lattice replaced, kept as a reference: chi(lam) =
    # exp((1/pi) int_0^(pi/2) log phi(lam^2 tan^2(theta)) dtheta) with the power lam^(alpha/2) taken out
    # on Takahasi & Mori's rule for (0, pi/2): nodes sigmoid(pi sinh(kh)) and 1 minus them, |k| <= 128
    lam, kh = np.asarray(lam, dtype=float), np.arange(-128.0, 129.0) * (3.9 / 128)
    sig, sig_m = expit(math.pi * np.sinh(kh)), expit(-math.pi * np.sinh(kh))
    w = (math.pi / 2.0 * math.pi * (3.9 / 128)) * np.cosh(kh) * sig * sig_m
    keep = w > 1e-30
    x, xi = (math.pi / 2.0) * sig[keep], (math.pi / 2.0) * sig_m[keep]
    tansq, w = np.where(x <= math.pi / 4.0, np.tan(x) ** 2, 1.0 / np.tan(xi) ** 2), w[keep]
    z = np.clip((lam * lam)[:, None] * tansq, *ladder._NORMAL)
    corr = (np.log(phi._eval(z)) - (phi.alpha / 2.0) * np.log(z)) @ w
    return lam ** (phi.alpha / 2.0) * np.exp(corr / math.pi)


@pytest.mark.parametrize("phi, lo, hi", [
    *[(make(alpha), 1e-70, 1e70) for alpha in (1.0, 1.9) for make in (
        bernstein.stable, lambda a: bernstein.sum_of_stables(a, a / 2.0),
        lambda a: bernstein.log_perturbed_up(a, (2.0 - a) / 2.0), lambda a: bernstein.log_perturbed_down(a, a / 2.0),
        lambda a: bernstein.relativistic_stable(a, 1.0))],
    (bernstein.geometric_like(1.0), 1.0, 1e27),
    (bernstein.geometric_like(1.9), 1.0, 1e27),
], ids=lambda p: p.label() if isinstance(p, bernstein.CompleteBernsteinFunction) else f"{p:g}")
def test_chi_matches_the_de_sweep(phi, lo, hi):
    lam = np.geomspace(lo, hi, 97)
    np.testing.assert_allclose(ladder.ladder_exponent_chi(phi, lam), _de_chi(phi, lam), rtol=1e-12, atol=0.0)


def test_chi_refuses_a_certificate_miss(monkeypatch):
    # no lattice value meets 1e-17 on log chi: the step-h and interpolation certificates refuse it
    monkeypatch.setattr(ladder, "_CHI_TOL", 1e-17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericAccuracyError, match="chi's lattice misses") as info:
            ladder.ladder_exponent_chi(bernstein.sum_of_stables(1.0, 0.5), np.geomspace(0.1, 10.0, 5))
    assert info.value.residual > 1e-17


def test_chi_refuses_only_the_lam_whose_sums_reach_a_non_finite_phi(monkeypatch):
    # a phi that is inf past z = 1e108, inside the lattice block of lam = 1, as relativistic alpha = 0.1,
    # m = 1e-10 was while x/m^(2/alpha) overflowed: that node takes G = 0 and refuses the lam whose
    # convolution reaches it, not its block's other lam.  chi's blocks are memoised by phi, so the memo is
    # emptied before the patched kind is evaluated and after
    phi, entry = bernstein.relativistic_stable(0.1, 1e-10), bernstein.KINDS["relativistic"]
    monkeypatch.setitem(bernstein.KINDS, "relativistic", dataclasses.replace(
        entry, evaluate=lambda phi, x: np.where(np.abs(x) > 1e108, np.inf, entry.evaluate(phi, x))))
    ladder._chi_block.cache_clear()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ladder.ladder_exponent_chi(phi, 1.0) == pytest.approx(_de_chi(phi, [1.0])[0], rel=1e-12)
            with pytest.raises(EvaluationDomainError, match="leaves the float range"):
                ladder.ladder_exponent_chi(phi, 1e34)
    finally:
        ladder._chi_block.cache_clear()


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


@pytest.mark.parametrize("phi", [bernstein.geometric_like(1.0, 64), bernstein.geometric_like(0.5)],
                         ids=["n64", "default_n"])
@pytest.mark.parametrize("name", ["ladder_density", "renewal_function"])
def test_atoms_only_v_and_V_have_the_exp_sum_bits(phi, name):
    # the sibling of u's and mu's registry-bits test: where 1/phi has atoms
    # only, v and V are _exp_sum over its atoms weighed by chi(sqrt z)/(2 sqrt z),
    # with their kernels at t^2 z (V's times t), bit for bit, the one way the
    # sums add a measure's atoms (c_v = 0 for these)
    m = phi.stieltjes(0)
    assert not m.cut and m.c == 0.0
    live = np.isfinite(m.z)
    z, w = m.z[live], m.w[live]
    x = ladder.ladder_exponent_chi(phi, np.sqrt(z)) * w / (2.0 * np.sqrt(z))
    ts = np.array(np.geomspace(1e-3, 1e3, 201).tolist() + [math.pi, 1.0])
    expect = bernstein._exp_sum(x, z, ts * ts, 0, ladder._RENEWAL_KERNELS[name].f)
    expect = expect if name == "ladder_density" else ts * expect
    entry = {"ladder_density": ladder.ladder_density_v, "renewal_function": ladder.renewal_function_V}[name]
    # on an array and on each t alone
    assert entry(phi, ts).view(np.uint64).tolist() == expect.view(np.uint64).tolist()
    for t, want in zip(ts.tolist(), expect.tolist()):
        assert np.float64(entry(phi, t)).view(np.uint64) == np.float64(want).view(np.uint64), t


def test_chi_takes_phi_at_the_float_range_end_within_rounding():
    # lam^2 e^(2u) overflows at the last lattice nodes for lam = 1e130, whose
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
    # on the diagonal at alpha = 1.01, int_0^delta v^2 with delta = 1e-60 x is
    # about a quarter of G, and the log factor keeps v off a power law there:
    # closed with v's measured power and with the power alpha/2 - 1 it differs
    # by 0.41 of G, at every level, so the gap between the two must refuse it
    with pytest.raises(NumericAccuracyError, match="halfline Green quadrature"):
        ladder.halfline_green(bernstein.log_perturbed_up(1.01, 0.5), 1.0, 1.0)


@pytest.mark.parametrize("x", [1e-12, 1e-40, 1e-62])
def test_halfline_green_near_the_boundary_is_V_times_v(x):
    # G(x, y) = int_0^x v(z) v(y - x + z) dz -> V(x) v(y) as x -> 0; the double
    # sum's e^(-x sig) turns at sig = 1/x, where its nodes are sparse, so the
    # two smaller x take level 3
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
    # a measure of v too rough for the rule's last step halving (two levels here, so the test is quick)
    chi = ladder._chi_on_cut
    monkeypatch.setattr(ladder, "_chi_on_cut", lambda phi, lam: chi(phi, lam) * (1.0 + 1e-3 * np.sin(1e7 * lam * lam)))
    monkeypatch.setattr(laplace, "_AXIS_LEVELS", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericAccuracyError, match="halfline Green quadrature") as info:
            ladder.halfline_green(bernstein.stable(1.0), 1.0, 2.0)
    assert info.value.residual > 0.0


def test_halfline_green_takes_v_at_the_rule_s_second_level(monkeypatch):
    # the double sum certifies at the real-axis rule's level 2 here, and takes
    # chi once per node of it (1 608 with weight), once for all its pairs
    taken, chi = [], ladder.ladder_exponent_chi
    monkeypatch.setattr(ladder, "ladder_exponent_chi", lambda phi, lam: taken.append(np.size(lam)) or chi(phi, lam))
    ladder.halfline_green(bernstein.sum_of_stables(1.0, 0.5), 1.0, 2.0)
    assert sum(taken) <= 1700


@pytest.mark.parametrize("phi", [bernstein.sum_of_stables(1.0, 0.5), bernstein.log_perturbed_down(1.0, 0.5)],
                         ids=["sum", "log_down"])
def test_halfline_green_block_budget_does_not_move_g(monkeypatch, phi):
    # K's row blocks set only the order of the sums: 64 times smaller blocks move G by rounding only
    blocks = ladder.halfline_green(phi, 1.03, 2.1)
    monkeypatch.setattr(ladder, "_HALFLINE_BLOCK", ladder._HALFLINE_BLOCK // 64)
    assert ladder.halfline_green(phi, 1.03, 2.1) == pytest.approx(blocks, rel=1e-12)


def test_halfline_green_refuses_a_renewal_density_that_rises(monkeypatch):
    # the double sum is positive only for a completely monotone v, whose measure is positive: a negative
    # measure makes v rise
    chi = ladder._chi_on_cut
    monkeypatch.setattr(ladder, "_chi_on_cut", lambda phi, lam: -chi(phi, lam))
    with pytest.raises(NumericAccuracyError, match="not completely monotone"):
        ladder.halfline_green(bernstein.sum_of_stables(1.0, 0.5), 1.0, 2.0)


@pytest.mark.parametrize("phi, expect", [
    (bernstein.sum_of_stables(1.0, 0.5), 0.18885514168916945),
    (bernstein.log_perturbed_up(1.0, 0.5), 0.9013311292936714),
    (bernstein.log_perturbed_down(1.0, 0.5), 0.28023388217158396),
    (bernstein.relativistic_stable(1.0, 1.0), 2.7009305899009584),
], ids=["sum", "log_up", "log_down", "relativistic"])
def test_halfline_green_keeps_the_power_law_head_s_values(phi, expect):
    # the values of the doubly exponential rule that closed (0, 1e-60 x) with a measured power
    assert ladder.halfline_green(phi, 1.03, 2.1) == pytest.approx(expect, rel=1e-11)


# the 12 ``ladder halfline`` ops of the analytic benchmark at seed 1, with the values the doubly exponential
# rule gave them
_BENCHMARK_HALFLINE = [
    ({"kind": "stable", "alpha": 1.0}, 1.0, 2.0, 0.5610998523391802),
    ({"kind": "relativistic", "alpha": 1.1926906820496677, "m": 1.0}, 0.8369575651287303, 1.772053973621707,
     1.835604832342617),
    ({"kind": "sum", "alpha": 0.8131811097866876, "beta": 0.5}, 1.1314327871583412, 2.1586934098025248,
     0.17826273606034487),
    ({"kind": "log_up", "alpha": 1.377062801200676, "gamma": 0.5}, 0.9359898800534798, 1.8182142405971922,
     1.0456399607854698),
    ({"kind": "log_down", "alpha": 1.378149235368366, "beta": 0.5}, 0.9107129898623748, 1.940253070863435,
     0.4541573709472291),
    ({"kind": "geometric_example", "alpha": 1.2301984485165318, "n": 67}, 0.8471688511771176, 2.033449289837643,
     0.08791953439451172),
    ({"kind": "stable", "alpha": 1.0}, 1.0, 2.0, 0.5610998523391802),
    ({"kind": "relativistic", "alpha": 0.993305135546581, "m": 1.0}, 1.0929629109525598, 2.10680744737005,
     2.8579382738837302),
    ({"kind": "sum", "alpha": 1.2716100277330473, "beta": 0.5}, 1.0048332321387292, 2.189657135619515,
     0.19590435530794742),
    ({"kind": "log_up", "alpha": 0.7768968895983306, "gamma": 0.5}, 1.0527374917845083, 2.0255034912326306,
     0.7842928289496711),
    ({"kind": "log_down", "alpha": 1.2061206949416272, "beta": 0.5}, 1.0599879708457443, 2.2522109653968467,
     0.3630920370434105),
    ({"kind": "geometric_example", "alpha": 0.7202691650936953, "n": 64}, 0.8298737001329015, 1.8680849129554078,
     0.02531312725985723),
]


@pytest.mark.parametrize("spec, x, y, expect", _BENCHMARK_HALFLINE, ids=[f"op{i}" for i in range(12)])
def test_halfline_green_keeps_the_benchmark_s_values(spec, x, y, expect):
    # log_up at alpha = 1.377 keeps 7e-5 of G under the first node of the real-axis rule (its v's measure goes
    # like sig^(-0.94) there): the doubly exponential rule took v from that rule's level 1, whose end closes
    # with the Euler-Maclaurin h^2 term only, and is 1.97e-12 high; the double sum's levels 1 to 4 agree with
    # one another to 1e-15 with the h^4 term, and converge to the same value without it
    rel = 2.5e-12 if spec["kind"] == "log_up" and spec["alpha"] > 1.0 else 1e-12
    assert ladder.halfline_green(bernstein.phi_from_json(spec), x, y) == pytest.approx(expect, rel=rel)


def test_halfline_green_geometric_certified_on_the_finest_level():
    # levels 3 and 4 of the doubly exponential rule agreed to 5.4e-10 here but
    # were both 4e-8 low; the double sum over the atoms is exact; the reference
    # is the pole-sum v's convolution by two independent scipy quadratures,
    # which agree to 1e-16
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
    # the cut's nodes s reach t with e^(-t sqrt s) 1 to rounding under the first: up to 6.79e55
    (bernstein.sum_of_stables(1.0, 0.5), 1.0, 7e55, r"\[1.1e-69, 6.79e\+55\]"),
    # and 0 past the last: down to 1.1e-69, for a kind with a pole of 1/phi too
    (bernstein.killed_shift(bernstein.relativistic_stable(1.0, 1.0), 0.5), 1e-100, 1.0, r"\[1.1e-69, 6.79e\+55\]"),
], ids=["cut_far", "poles_near"])
def test_halfline_green_refusals_state_the_reach_in_x_and_y(phi, x, y, reach):
    with pytest.raises(NumericAccuracyError, match=rf"halfline Green reaches x and y in {reach}"):
        ladder.halfline_green(phi, x, y)
    # the stable kind sums its measure on the same nodes, so it has the same reach
    with pytest.raises(NumericAccuracyError, match=rf"halfline Green reaches x and y in {reach}"):
        ladder.halfline_green(bernstein.stable(phi.alpha), x, y)


def test_halfline_green_holds_its_stated_reach_in_x(capsys):
    # relativistic alpha = 1, m = 1e-10: the branch point 1e-20 moves the cut's nodes, which reach t down to
    # 1.1e-59 only; every x the refusal states is taken (x = 1e-50 exited 3 while z_c was 1e-62)
    phi = bernstein.relativistic_stable(1.0, 1e-10)
    x_lo = math.sqrt(laplace.reach(ladder._RENEWAL_KERNELS["ladder_density"], phi.branch_point)[0])
    assert cli.main(["ladder", "halfline", "--kind", "relativistic", "--alpha", "1", "--m", "1e-10",
                     "--x", "1e-50", "--y", "2"]) == 0
    assert capsys.readouterr().out.startswith("x,y,G_halfline\n1e-50,2,")
    assert ladder.halfline_green(phi, x_lo * (1.0 + 1e-6), 2.0) > 0.0
    with pytest.raises(NumericAccuracyError, match=r"reaches x and y in \[1.1e-59, "):
        ladder.halfline_green(phi, x_lo * (1.0 - 1e-6), 2.0)


def test_halfline_green_of_atoms_reaches_x_whose_square_leaves_the_float_range():
    # a kind with atoms only sums no cut, so it has no reach: at x = 1e-300 (where v's t^2 would leave the
    # float range) G is the closed convolution of the pole sums, V(x) v(1) to O(x)
    phi = bernstein.geometric_like(1.0)
    m, x = phi.stieltjes(0), 1e-300
    r = np.sqrt(m.z[np.isfinite(m.z)])
    c = m.w[np.isfinite(m.z)] * ladder.ladder_exponent_chi(phi, r) / (2.0 * r)
    assert ladder.halfline_green(phi, x, 1.0) == pytest.approx(x * c.sum() * (c @ np.exp(-(1.0 - x) * r)), rel=1e-12)


@pytest.mark.parametrize("argv, rc", [
    # chi at the geometric kind's poles, which the package chose: a failure of the rule
    (["ladder", "v", "--kind", "geometric_example", "--alpha", "0.13", "--t", "1"], 3),
    # chi at the caller's own lam past its float range: a domain error
    (["ladder", "chi", "--kind", "sum", "--alpha", "1", "--beta", "0.5", "--lambda", "1e150"], 2),
], ids=["package_lambda", "caller_lambda"])
def test_chi_out_of_range_exit_codes(capsys, argv, rc):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
