import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from sbmpot import bernstein, densities, kernels, laplace
from sbmpot.errors import ConstructionError, NumericAccuracyError, UnsupportedKindError
from sbmpot.montecarlo import _compound_tables


def test_stable_closed_values():
    phi = bernstein.stable(1.0)
    assert phi(4.0) == pytest.approx(2.0, abs=1e-15)
    assert phi(0.0) == 0.0
    grid = np.array([1.0, 9.0, 100.0])
    np.testing.assert_allclose(phi(grid), np.sqrt(grid), rtol=1e-15)


def test_relativistic_closed_value():
    phi = bernstein.relativistic_stable(1.0, 1.0)
    assert phi(3.0) == pytest.approx(1.0, abs=1e-15)
    assert phi(0.0) == pytest.approx(0.0, abs=1e-15)


def test_alpha_range_enforced():
    for bad in (0.0, 2.0, -0.3, 2.4):
        with pytest.raises(ConstructionError):
            bernstein.stable(bad)


def test_killed_shift_requires_positive_rate():
    phi = bernstein.stable(1.0)
    with pytest.raises(ConstructionError):
        bernstein.killed_shift(phi, -1.0)
    killed = bernstein.killed_shift(phi, 0.25)
    assert killed.killing == pytest.approx(0.25)
    assert killed(1.0) == pytest.approx(1.25)


def test_bad_mass_or_killing_rate_is_refused():
    # a mass or rate that is not finite, or a branch point m^(2/alpha) out of the normal float range, is a
    # construction error, not nan values, an OverflowError or a rule that reaches no t later
    for m in (math.nan, math.inf, -1.0, 1e300, 1e-200):
        with pytest.raises(ConstructionError):
            bernstein.relativistic_stable(1.0, m)
    with pytest.raises(ConstructionError):
        bernstein.relativistic_stable(1.5, 1e250)
    for a in (math.nan, math.inf, 0.0):
        with pytest.raises(ConstructionError):
            bernstein.killed_shift(bernstein.stable(1.0), a)


def test_concavity_scaling_property(catalog, lam_grid):
    # phi concave with phi(0) >= 0 forces phi(c*lam) <= c*phi(lam) for c >= 1
    for phi in catalog:
        for c in (1.5, 4.0, 32.0):
            lhs = np.atleast_1d(phi(c * lam_grid))
            rhs = c * np.atleast_1d(phi(lam_grid))
            assert np.all(lhs <= rhs * (1.0 + 1e-12)), phi.label()


def test_conjugate_involution(catalog):
    lam = np.geomspace(1e-2, 1e3, 25)
    for phi in catalog:
        back = bernstein.conjugate(bernstein.conjugate(phi))
        np.testing.assert_allclose(
            np.atleast_1d(back(lam)), np.atleast_1d(phi(lam)), rtol=1e-12,
            err_msg=phi.label())


def test_conjugate_killing_default_needs_a_small_exponent_below_one(catalog):
    # a kind that declares no constant c/lam for 1/phi gets 0, which is the limit
    # of lam/phi(lam) only if phi's small exponent is below 1 or phi is
    # killed: check every catalog entry and its killed form (the conjugate
    # of a conjugate unwraps and reads no killing)
    default = bernstein._Kind.stieltjes
    for phi in catalog + [bernstein.killed_shift(phi, 0.5) for phi in catalog]:
        if bernstein.KINDS[phi.kind].stieltjes is default:
            assert phi.small_exponent < 1.0 or phi.killing > 0.0, phi.label()
            assert bernstein.conjugate(phi).killing == 0.0, phi.label()
    assert bernstein.KINDS["relativistic"].stieltjes is not default
    # relativistic: 1/phi'(0), here 2 m**(2/alpha - 1) = 2
    rel = bernstein.relativistic_stable(1.0, 1.0)
    assert bernstein.conjugate(rel).killing == 2.0 == rel.stieltjes(0).c
    assert 1e-7 / float(rel(1e-7)) == pytest.approx(2.0, rel=1e-6)


def test_conjugate_swaps_the_two_measures(catalog):
    # 1/psi = phi/lam and psi/lam = 1/phi: side s of the conjugate is side 1 - s of phi, constants and atoms too
    for phi in catalog + [bernstein.killed_shift(bernstein.geometric_like(1.0), 0.5)]:
        psi = bernstein.conjugate(phi)
        for side in (0, 1):
            mine, theirs = psi.stieltjes(side), phi.stieltjes(1 - side)
            assert (mine.a, mine.c, mine.cut) == (theirs.a, theirs.c, theirs.cut), phi.label()
            assert np.array_equal(mine.w, theirs.w) and np.array_equal(mine.z, theirs.z), phi.label()
        assert psi.killing == phi.stieltjes(0).c and psi.drift == phi.stieltjes(0).a


def test_conjugate_identity_product():
    phi = bernstein.sum_of_stables(1.0, 0.5)
    psi = bernstein.conjugate(phi)
    lam = np.geomspace(0.1, 100.0, 11)
    np.testing.assert_allclose(phi(lam) * psi(lam), lam, rtol=1e-14)


def test_geometric_truncation_stability():
    lam = np.geomspace(1.0, 1e4, 30)
    base = bernstein.geometric_like(1.0, 64)
    deeper = bernstein.geometric_like(1.0, 72)
    np.testing.assert_allclose(base(lam), deeper(lam), rtol=1e-6)


# phi(0.5), phi(2), phi(1000) and the killing rate, as float.hex
GEOMETRIC_BITS = {
    (1.0, 64): ("0x1.119304fa0c44ep+0", "0x1.3f83ebb9b8d35p+0", "0x1.cb589f3752849p+3",
                "0x1.0000000000000p+0"),
    (0.6, 64): ("0x1.0cf12bd478f8bp+2", "0x1.2b2f370c57c84p+2", "0x1.602ecddcd31efp+6",
                "0x1.028a2f98d728bp+2"),
    (1.5, 1023): ("0x1.18ba6f365152dp-2", "0x1.39eb26157acc3p-2", "0x1.2c2981341c976p+0",
                  "0x1.0a28be635ca2bp-2"),
    (1.25, None): ("0x1.19d4ecc93cb4dp-1", "0x1.4541f0fc053ccp-1", "0x1.18ca6fcb09e85p+2",
                   "0x1.080c0076560d9p-1"),
    (0.1, None): ("0x1.ffffcffffc000p+18", "0x1.fffffffff0000p+18", "0x1.003e5ff05e193p+19",
                  "0x1.ffffc00000000p+18"),
    (1.9, None): ("0x1.34ab0c466b695p-5", "0x1.3d482588d2e7cp-5", "0x1.a4745483d9613p-5",
                  "0x1.305fc698e3f50p-5"),
}


@pytest.mark.parametrize("alpha, n", list(GEOMETRIC_BITS))
def test_geometric_bits_below_the_overflow_limit(alpha, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = bernstein.geometric_like(alpha, n)
        got = [float(phi(lam)).hex() for lam in (0.5, 2.0, 1e3)] + [phi.killing.hex()]
        # complex arguments (the inversion contours) meet the same infinite poles
        assert np.isfinite(phi(2.0 + 1.0j))
    assert tuple(got) == GEOMETRIC_BITS[alpha, n]
    assert phi.n_terms <= bernstein.GEOMETRIC_MAX_TERMS


def test_geometric_sums_are_finite_where_weights_overflow():
    # at N = 1023 some atoms' w z overflows where their e^(-z t) is 0: each
    # such term is 0, not inf * 0 = nan, with no warning (python -W error)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = bernstein.geometric_like(1.0, 1023)
        mu = bernstein.eval_levy_density(phi, 1.0)
        j = kernels.jump_kernel(phi, 3, 0.5)
    # the atoms past N = 64 add nothing at t = 1
    assert mu == pytest.approx(bernstein.eval_levy_density(bernstein.geometric_like(1.0, 64), 1.0), rel=1e-12)
    assert np.isfinite(j) and j > 0.0


def test_geometric_refuses_overflowing_truncation():
    assert bernstein.GEOMETRIC_MAX_TERMS == 1023
    bernstein.geometric_like(1.0, 1023)
    for n in (1024, 5000):
        with pytest.raises(ConstructionError):
            bernstein.geometric_like(1.0, n)
    # the default truncation crosses the limit near alpha = 1.915
    assert bernstein.default_truncation(1.9) < 1024 < bernstein.default_truncation(1.95)
    for alpha in (1.95, 1.99):
        with pytest.raises(ConstructionError):
            bernstein.geometric_like(alpha)
    with pytest.raises(ConstructionError):
        bernstein.phi_from_json({"kind": "geometric_example", "alpha": 1.99})


def test_geometric_killing_positive():
    phi = bernstein.geometric_like(1.0, 64)
    assert phi.killing > 0.0
    assert phi(0.0) == pytest.approx(phi.killing, rel=1e-12)


def test_geometric_drift():
    # the truncated Stieltjes sum g decays like sum 2**n / lam, so phi = 1/g
    # keeps the drift 1/(2**(N+1) - 2); one term is pure drift plus killing
    one = bernstein.geometric_like(1.0, 1)
    assert one.drift == 0.5 and one.killing == 2.0
    assert one(3.0) == 3.5 == one.drift * 3.0 + one.killing
    for n in (1, 3, 10, 64):
        phi = bernstein.geometric_like(1.0, n)
        assert phi.drift == 1.0 / (2.0 ** (n + 1) - 2.0)
        lam = 1e8 * 4.0**n  # far past the largest pole 2**(2n/alpha)
        assert phi(lam) / lam == pytest.approx(phi.drift, rel=1e-6)
    assert bernstein.geometric_like(1.0, bernstein.GEOMETRIC_MAX_TERMS).drift == 2.0**-1024
    assert bernstein.killed_shift(one, 0.5).drift == 0.5
    assert bernstein.stable(1.0).drift == 0.0


def test_stable_levy_density_closed_form():
    alpha = 1.0
    phi = bernstein.stable(alpha)
    t = np.geomspace(1e-3, 10.0, 17)
    expected = (alpha / 2.0) / math.gamma(1.0 - alpha / 2.0) * t ** (-1.0 - alpha / 2.0)
    np.testing.assert_allclose(bernstein.eval_levy_density(phi, t), expected, rtol=1e-10)


def test_levy_tail_matches_transform_inversion():
    # L[killing + tail](s) = phi(s)/s for drift-free phi; invert the right side
    # and compare against the closed stable tail
    from sbmpot import laplace

    phi = bernstein.stable(1.2)
    t = np.geomspace(1e-2, 5.0, 9)
    inverted = laplace.talbot_inversion(lambda s: np.atleast_1d(phi(s)) / s, t)
    np.testing.assert_allclose(inverted, bernstein.levy_tail(phi, t), rtol=1e-6)
    closed = bernstein.eval_levy_density(phi, t)
    assert np.all(np.diff(closed) < 0.0)


def test_levy_tail_matches_mpmath_fixture():
    # tails and compound rates and drifts at 30 digits from mpmath, which
    # writes each phi out again; regenerate with tests/fixtures/levy_tail_mpmath.py
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "levy_tail_mpmath.json")) as fh:
        ref = json.load(fh)
    for case in ref["tails"]:
        phi = bernstein.phi_from_json(case["phi"])
        np.testing.assert_allclose(bernstein.levy_tail(phi, np.array(case["t"])), case["tail"],
                                   rtol=1e-6, err_msg=case["label"])
    for case in ref["compound"]:
        rate, drift = _compound_tables(bernstein.phi_from_json(case["phi"]), case["epsilon"])[:2]
        np.testing.assert_allclose([rate, drift], [case["rate"], case["drift"]],
                                   rtol=1e-6, err_msg=case["label"])


def test_geometric_levy_tail_memory_is_bounded():
    # phi is evaluated in blocks of arguments, so the (arguments, terms)
    # temporary of an inversion batch stays small: 3360 points of the Levy
    # density are 107k Talbot nodes, 213 MB unblocked; the tail is closed
    phi = bernstein.geometric_like(1.0)
    tracemalloc.start()
    try:
        mu = -laplace.talbot_inversion(phi._eval, np.geomspace(1e-3, 1e-1, 3360))
        tail = bernstein.levy_tail(phi, np.geomspace(1e-3, 1e2, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.all(mu > 0.0) and np.all(tail >= 0.0)


def test_conjugate_relativistic_levy_density_is_never_negative():
    # lam/(sqrt(lam + 1) - 1) = sqrt(lam + 1) + 1 = phi + 2, so the conjugate's mu is the
    # relativistic closed one, 1.05e-47 at t = 100 and 0 in floats past it; a contour
    # rule's batch floor wrote 2.0e-12 and negative values
    rel = bernstein.relativistic_stable(1.0, 1.0)
    t = np.array([100.0, 1e4, 1e6])
    mu = bernstein.eval_levy_density(bernstein.conjugate(rel), t)
    assert np.all(mu >= 0.0)
    np.testing.assert_allclose(mu, rel.closed_form("levy_density", t), rtol=1e-9, atol=0.0)


def test_geometric_composites_are_closed_pole_sums():
    # the cut of these composites carries atoms only, which the real-axis rule
    # cannot see: 1/(phi + a) = sum w/(lam + z) over the roots of 1 + a/phi,
    # and psi = lam/phi = sum w lam/(lam + b) has mu = sum w b e^(-bt); each agrees
    # with the Talbot inversion of its transform
    geo = bernstein.geometric_like(1.0)
    lam = np.geomspace(1e-3, 1e9, 25)
    for phi, a in ((geo, 0.5), (geo, 1e-6), (geo, 1e3), (bernstein.killed_shift(geo, 0.25), 0.25)):
        m = bernstein.killed_shift(phi, a).stieltjes(0)
        assert not m.cut and m.c == 0.0
        np.testing.assert_allclose(np.sum(m.w / (lam[:, None] + m.z), axis=-1), 1.0 / (phi(lam) + a), rtol=1e-12)
    t = np.array([0.1, 1.0])
    killed, psi = bernstein.killed_shift(geo, 0.5), bernstein.conjugate(geo)
    np.testing.assert_allclose(densities.potential_density_u(killed, t),
                               laplace.talbot_inversion(lambda s: 1.0 / killed(s), t), rtol=1e-8)
    np.testing.assert_allclose(bernstein.levy_tail(psi, t), laplace.talbot_inversion(lambda s: psi(s) / s, t),
                               rtol=1e-8)
    np.testing.assert_allclose(bernstein.eval_levy_density(psi, t), -laplace.talbot_inversion(psi._eval, t),
                               rtol=1e-8)
    # the conjugate of a kind with a cut keeps it, and swaps the closed forms of the two sides
    assert bernstein.conjugate(bernstein.stable(1.0)).closed_form("levy_tail", t) is not None
    assert bernstein.conjugate(bernstein.stable(1.0)).closed_form("levy_density", t) is None


@pytest.mark.parametrize("phi", [bernstein.log_perturbed_up(1.0, 0.5), bernstein.log_perturbed_down(1.0, 0.5)],
                         ids=["log_up", "log_down"])
def test_log_jump_kernel_does_not_depend_on_its_grid(phi):
    # the weight table is trimmed only where mu is 0 or not finite, so j(1)
    # from a table over [1e-3, 1] is j(1) alone (1.3% and 0.4% apart when the
    # table was cut at 1e-14 of its peak)
    grid_value = kernels.jump_kernel(phi, 3, np.geomspace(1e-3, 1.0, 30))[-1]
    assert grid_value == pytest.approx(kernels.jump_kernel(phi, 3, 1.0), rel=1e-9)


def test_geometric_levy_density_is_the_tail_derivative():
    # mu is closed: positive where the Talbot inversion sinks under its
    # round-off floor, equal to it where that is certified, and the same at
    # r = 1 whichever radius grid j is computed on
    phi = bernstein.geometric_like(1.0)
    assert np.all(bernstein.eval_levy_density(phi, np.array([10.0, 100.0])) > 0.0)
    t = np.geomspace(1e-4, 1.0, 40)
    talbot = -laplace.talbot_inversion(phi._eval, t)
    np.testing.assert_allclose(bernstein.eval_levy_density(phi, t), talbot, rtol=1e-7)
    assert kernels.jump_kernel(phi, 3, np.geomspace(1e-3, 1.0, 30))[-1] == kernels.jump_kernel(phi, 3, 1.0)


def test_geometric_blocks_are_invisible():
    phi = bernstein.geometric_like(1.0)
    n = bernstein._GEOM_BLOCK
    z = np.geomspace(1e-3, 1e3, 3 * n // 2) * (1.0 + 0.5j)
    split = np.concatenate([phi(z[:n]), phi(z[n:])])
    assert np.array_equal(phi(z), split)
    assert np.array_equal(phi(z.reshape(2, -1)), phi(z).reshape(2, -1))


def test_closed_form_accessor():
    phi = bernstein.stable(1.0)
    assert isinstance(phi.closed_form("levy_tail", 2.0), float)
    assert phi.closed_form("renewal_function", np.array([1.0, 4.0])).shape == (2,)
    log_up = bernstein.log_perturbed_up(1.0, 0.5)
    assert log_up.closed_form("levy_density", 2.0) is None
    # an added killing rate keeps the Levy measure but changes u, v and V
    killed = bernstein.killed_shift(phi, 0.5)
    assert killed.closed_form("levy_density", 2.0) == phi.closed_form("levy_density", 2.0)
    assert killed.closed_form("potential_density", 2.0) is None
    assert bernstein.killed_shift(log_up, 0.5).closed_form("levy_tail", 2.0) is None
    # the relativistic tail is closed, and an added killing rate keeps it
    rel = bernstein.relativistic_stable(1.0, 1.0)
    assert rel.closed_form("levy_tail", 1.0) == pytest.approx(
        math.exp(-1.0) / math.sqrt(math.pi) - math.erfc(1.0), rel=1e-14)
    assert bernstein.killed_shift(rel, 0.5).closed_form("levy_tail", 1.0) == rel.closed_form("levy_tail", 1.0)


def test_tail_additivity_for_sum():
    phi = bernstein.sum_of_stables(1.0, 0.5)
    a = bernstein.stable(1.0)
    b = bernstein.stable(0.5)
    t = np.geomspace(1e-2, 10.0, 13)
    np.testing.assert_allclose(
        bernstein.levy_tail(phi, t),
        bernstein.levy_tail(a, t) + bernstein.levy_tail(b, t),
        rtol=1e-9)


def test_levy_shift_bound(catalog):
    for phi in catalog:
        rep = densities.check_levy_shift_bound(phi)
        assert rep.passed and np.isfinite(rep.hi) and rep.hi > 0.0, phi.label()
        if phi.kind == "geometric_example":
            # mu is the exponential sum sum c_k z_k e^(-z_k t), whose ratio
            # rises to e^(z_1) and is there at the last point t = 64
            z_1 = phi.stieltjes(1).z[0]
            assert rep.hi == pytest.approx(math.exp(z_1), rel=1e-12)
        if phi.kind == "stable":
            # mu(t)/mu(t+1) = ((t+1)/t)^(1+alpha/2), largest at the first point t = 2
            assert rep.hi == pytest.approx(1.5 ** (1.0 + phi.alpha / 2.0), rel=1e-12)


def test_complete_monotonicity_probes():
    good = bernstein.check_complete_monotonicity(lambda x: 1.0 / x)
    assert good.passed
    bad = bernstein.check_complete_monotonicity(lambda x: np.sin(x) + 2.0)
    assert not bad.passed


def test_bernstein_probes():
    good = bernstein.check_bernstein(lambda x: np.sqrt(x))
    assert good.passed
    # increasing but with non-monotone derivative signs
    bad = bernstein.check_bernstein(lambda x: x + 0.5 * np.sin(x))
    assert not bad.passed


def test_json_round_trip(catalog):
    for phi in catalog:
        spec = bernstein.phi_to_json(phi)
        assert bernstein.phi_from_json(spec) == phi, phi.label()
        assert bernstein.phi_from_json(json.dumps(spec)) == phi, phi.label()


def test_composites_have_no_json_form(catalog):
    for phi in (bernstein.conjugate(catalog[4]), bernstein.killed_shift(catalog[0], 0.5)):
        with pytest.raises(UnsupportedKindError):
            bernstein.phi_to_json(phi)
        with pytest.raises(ConstructionError):
            bernstein.phi_from_json({"kind": phi.kind, "alpha": 1.0})


def test_json_ignores_parameters_the_kind_does_not_take():
    extra = {"m": 1.0, "beta": 0.5, "gamma": 0.5}
    for kind in ("stable", "geometric_example"):
        spec = {"kind": kind, "alpha": 1.0, **extra}
        assert bernstein.phi_from_json(spec) == bernstein.phi_from_json(
            {"kind": kind, "alpha": 1.0})


@pytest.mark.parametrize("spec", [
    {"kind": "stable", "alpha": "x"},
    {"kind": "stable", "alpha": None},
    {"kind": "stable", "alpha": [1.0]},
    {"kind": "stable"},
    {"kind": "geometric_example", "alpha": 1.0, "n": "a"},
    {"kind": "geometric_example", "alpha": 1.0, "n": float("inf")},
    {"kind": ["stable"], "alpha": 1.0},
    "stable",
    '"stable"',
    "{not json",
])
def test_json_malformed_spec_is_construction_error(spec):
    with pytest.raises(ConstructionError):
        bernstein.phi_from_json(spec)


def test_phi_from_json_docstring_lists_every_json_kind():
    forms = [json.loads(line) for line in bernstein.phi_from_json.__doc__.splitlines()
             if line.strip().startswith('{"kind"')]
    assert [f["kind"] for f in forms] == list(bernstein.JSON_KINDS)
    for form in forms:
        phi = bernstein.phi_from_json(form)
        assert bernstein.phi_to_json(phi) == form


def test_labels_pinned(catalog):
    # labels name exponents in error messages and kernel-table ids
    assert [phi.label() for phi in catalog] == [
        "stable(alpha=0.5)",
        "stable(alpha=1)",
        "stable(alpha=1.5)",
        "relativistic(alpha=1, m=1)",
        "sum(alpha=1, beta=0.5)",
        "log_up(alpha=1, gamma=0.5)",
        "log_down(alpha=1, beta=0.5)",
        "geometric_example(alpha=1, n=64)",
    ]
    assert bernstein.conjugate(catalog[4]).label() == "conjugate[sum(alpha=1, beta=0.5)]"
    assert (bernstein.killed_shift(catalog[5], 0.25).label()
            == "killed_shift[log_up(alpha=1, gamma=0.5), a=0.25]")


def test_json_rejects_unknown_kind():
    with pytest.raises(ConstructionError):
        bernstein.phi_from_json({"kind": "levy_flight", "alpha": 1.0})


def test_catalog_has_eight_entries(catalog):
    assert len(catalog) == 8
    labels = [phi.label() for phi in catalog]
    assert len(set(labels)) == 8
