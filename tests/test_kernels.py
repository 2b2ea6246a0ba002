import hashlib
import json
import math
import os
import warnings

import numpy as np
import pytest
from scipy.special import kv

from sbmpot import bernstein, cli, densities, kernels, ladder, laplace, montecarlo
from sbmpot.errors import EvaluationDomainError, NotTransientError, NumericAccuracyError


def _riesz_green_constant(d: int, alpha: float) -> float:
    num = math.gamma((d - alpha) / 2.0)
    den = 2.0**alpha * math.pi ** (d / 2.0) * math.gamma(alpha / 2.0)
    return num / den


def _stable_jump_constant(d: int, alpha: float) -> float:
    num = alpha * 2.0 ** (alpha - 1.0) * math.gamma((d + alpha) / 2.0)
    den = math.pi ** (d / 2.0) * math.gamma(1.0 - alpha / 2.0)
    return num / den


def test_green_function_riesz_oracle():
    phi = bernstein.stable(1.0)
    const = _riesz_green_constant(3, 1.0)
    for r in (0.01, 0.1, 1.0):
        g = kernels.green_function(phi, 3, r)
        assert g * r**2 == pytest.approx(const, rel=1e-3)
    assert const == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-14)


def test_jump_kernel_stable_oracle():
    phi = bernstein.stable(1.0)
    j1 = kernels.jump_kernel(phi, 1, 1.0)
    assert j1 == pytest.approx(1.0 / math.pi, rel=1e-6)
    j_half = kernels.jump_kernel(phi, 1, 0.5)
    assert j_half / j1 == pytest.approx(4.0, rel=1e-6)


def test_jump_kernel_general_alpha():
    for alpha in (0.5, 1.5):
        phi = bernstein.stable(alpha)
        const = _stable_jump_constant(2, alpha)
        j = kernels.jump_kernel(phi, 2, 0.7)
        assert j == pytest.approx(const * 0.7 ** (-2.0 - alpha), rel=1e-6)


def test_doubling_constant_stable():
    phi = bernstein.stable(1.0)
    doubling, shift = kernels.j_doubling_and_shift(phi, 1, 2.0)
    assert doubling.hi == pytest.approx(2.0 ** (1.0 + 1.0), rel=1e-6)
    assert np.isfinite(shift.hi) and shift.hi > 0.0 and doubling.passed


@pytest.mark.parametrize("quarter, value, passed", [
    (None, 1.0, True),           # j constant: doubling and shift 1
    (0, 0.0, False),             # doubling 0
    (1, 0.0, False),             # doubling inf
    (3, 0.0, False),             # shift inf
    (1, math.nan, False),        # doubling NaN
    (3, math.nan, False),        # shift NaN
    (2, math.inf, False),        # shift inf from j
])
def test_doubling_verdict_on_non_finite_constants(monkeypatch, quarter, value, passed):
    # j_doubling_and_shift reads j at r, 2r (doubling) and r, r + 1 (shift) in
    # four quarters of one call; both windows carry the pair's verdict
    def j(phi, d, r):
        out = np.ones_like(r)
        if quarter is not None:
            out[quarter * 40:(quarter + 1) * 40] = value
        return out
    monkeypatch.setattr(kernels, "jump_kernel", j)
    doubling, shift = kernels.j_doubling_and_shift(bernstein.stable(1.0), 1, 2.0)
    assert doubling.passed is passed and shift.passed is passed


def test_doubling_of_an_underflowing_kernel_fails_without_warning(capsys):
    # relativistic m = 100: j(r + 1) underflows to 0 past r ~ 7, so the shift
    # ratio is NaN and the check exits 1, where it leaked a RuntimeWarning.
    # The shift cell is left unpinned: a kernel that underflows is one the
    # check cannot measure, which a failed verdict does not yet say.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["check", "doubling", "--kind", "relativistic", "--alpha", "1", "--m", "100",
                         "--dim", "1", "--K", "3"]) == 1


def test_transience_rules():
    assert not kernels.transience_check(bernstein.stable(1.0), 1)
    assert kernels.transience_check(bernstein.stable(1.0), 3)
    assert kernels.transience_check(bernstein.stable(0.5), 1)
    assert kernels.transience_check(bernstein.relativistic_stable(1.0, 1.0), 3)


def test_green_function_refuses_recurrent_case():
    with pytest.raises(NotTransientError):
        kernels.green_function(bernstein.stable(1.5), 1, 1.0)


def test_heat_kernel_normalization():
    from scipy.integrate import quad

    for d in (1, 3):
        total, _ = quad(
            lambda r: kernels.heat_kernel(d, 0.7, r)
            * (2.0 if d == 1 else 4.0 * math.pi * r**2),
            0.0, np.inf)
        assert total == pytest.approx(1.0, rel=1e-8)


def test_kernel_ratio_windows(catalog):
    for phi in catalog:
        j_win = kernels.j_asymptotic_ratio(phi, 3)
        assert 0.0 < j_win.lo <= j_win.hi and j_win.hi / j_win.lo < 1e3, phi.label()
        if kernels.transience_check(phi, 3):
            g_win = kernels.g_asymptotic_ratio(phi, 3)
            assert 0.0 < g_win.lo <= g_win.hi and g_win.hi / g_win.lo < 1e3, phi.label()


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_relativistic_jump_kernel_oracle(d, m):
    # alpha = 1: subordinating mu(t) = exp(-m^2 t)/(2 sqrt(pi) t^(3/2)) gives
    # pi^(-1/2) (4 pi)^(-d/2) (2m/r)^((d+1)/2) K_((d+1)/2)(m r), a Bessel
    # form that shares no code with the subordination integral
    phi = bernstein.relativistic_stable(1.0, m)
    nu = (d + 1) / 2.0
    for r in np.geomspace(0.01, 3.0, 9):
        exact = math.pi**-0.5 * (4.0 * math.pi) ** (-d / 2.0) * (2.0 * m / r) ** nu * kv(nu, m * r)
        assert kernels.jump_kernel(phi, d, r) == pytest.approx(exact, rel=1e-6), r


def test_kernel_table_monotone():
    phi = bernstein.relativistic_stable(1.0, 1.0)
    table = kernels.build_kernel_table(phi, 3, 1e-2, 1.0, 12)
    assert np.all(np.diff(table.g_values) < 0.0)
    assert np.all(np.diff(table.j_values) < 0.0)
    cols = table.columns(phi)
    assert set(cols) == {"r", "G", "J", "g_ratio", "j_ratio"}


def test_subordination_integral_heat_identity():
    # with the potential weight of the stable subordinator the integral is Riesz
    phi = bernstein.stable(1.0)
    g_direct = kernels.green_function(phi, 3, 0.3)
    assert g_direct == pytest.approx(_riesz_green_constant(3, 1.0) * 0.3**-2, rel=1e-6)


@pytest.mark.parametrize("d, alpha, r", [
    (1, 0.95, 0.3),
    (1, 0.9938235677851865, 0.05772396153673417),
    (1, 0.999, 1.0),
    (2, 1.9, 0.1),
])
def test_green_function_riesz_near_alpha_d(d, alpha, r):
    # the integrand decays like exp(-(d - alpha) y / 2) in y = log t, so a
    # large share of G lies past t = e^690 and comes from the closed rest
    g = kernels.green_function(bernstein.stable(alpha), d, r)
    assert g == pytest.approx(_riesz_green_constant(d, alpha) * r ** (alpha - d), rel=1e-6)


@pytest.mark.parametrize("d, power", [(3, -1.2), (2, -1.0), (1, -0.6)])
def test_subordination_integral_refuses_an_end_that_is_not_integrable(d, power):
    # k_d(z) is z^(-1/2) (d = 1), log z (d = 2) or constant (d = 3) at 0, so
    # rho = s^power leaves int_0 k_d(r^2 s) rho(s) ds infinite: the rule's
    # measured end power says so, rather than closing it with a rest
    with pytest.raises(NumericAccuracyError, match="not integrable"):
        kernels.subordination_integral(lambda s: s**power, d, 1.0)


@pytest.mark.parametrize("r, j_finite", [(1e-110, False), (1e-80, False), (1e-60, True)])
def test_kernels_past_float_range_are_refused(r, j_finite):
    # in d = 3 the stable alpha = 1 kernels are G = 1/(2 pi^2 r^2) and
    # j = 1/(pi^2 r^4); the integrands are formed in logs, so each kernel is
    # returned while it fits a float (G at all three radii, about 5e218 at
    # 1e-110, and j at 1e-60, about 1e239) and refused once it does not
    phi = bernstein.stable(1.0)
    assert kernels.green_function(phi, 3, r) * r**2 == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-6)
    if j_finite:
        assert kernels.jump_kernel(phi, 3, r) * r**4 == pytest.approx(1.0 / math.pi**2, rel=1e-6)
    else:
        with pytest.raises(EvaluationDomainError, match="float range"):
            kernels.jump_kernel(phi, 3, r)


def test_kernel_refusals_state_the_reach_in_r():
    # the rule integrates in r^2; a radius out of its reach is refused in r
    with pytest.raises(NumericAccuracyError, match=r"reaches r in \[.*\], not 1e-80 to 1e-80"):
        kernels.green_function(bernstein.sum_of_stables(1.0, 0.5), 3, 1e-80)


@pytest.mark.parametrize("d, beta", [(1, 0.75), (2, 0.5), (3, 0.5), (3, 0.0)])
def test_subordination_integral_power_weight(d, beta):
    # for w(t) = t**(-beta) the integral of p(t, r) w(t) is Gamma(d/2 + beta - 1) / (4**(1-beta) pi**(d/2))
    # times r**(2 - d - 2*beta), exactly; on the cut w is rho(s) = pi s**(beta-1)/Gamma(beta)
    const = math.gamma(d / 2.0 + beta - 1.0) / (4.0 ** (1.0 - beta) * math.pi ** (d / 2.0))
    for r in (1e-3, 1.0):
        if beta > 0.0:
            val = kernels.subordination_integral(lambda s: math.pi * s ** (beta - 1.0) / math.gamma(beta), d, r)
        else:
            # w = 1 is rho = pi delta(s), which the rule refuses: G adds it as the atom of u's
            # constant c, here c = 2 for relativistic(1, 1)
            phi = bernstein.relativistic_stable(1.0, 1.0)
            val = (kernels.green_function(phi, d, r) - kernels.subordination_integral(
                lambda s: -(1.0 / phi._eval(-s + 0j)).imag, d, r)) / 2.0
        assert val * r ** (d + 2.0 * beta - 2.0) == pytest.approx(const, rel=1e-9)


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()


# the one G/j set-up of every entry point, pinned bit for bit on kinds whose
# kernels are integrals on the cut
@pytest.mark.parametrize("phi, sha", [
    (bernstein.relativistic_stable(1.0, 1.0),
     "e5ff757bb8abf8c500a3014105f71fe4463118cba3063a3cc0794efb599b8f2c"),
    (bernstein.sum_of_stables(1.0, 0.5),
     "2f5a6d112a30b4d2af4957383db07e1108a32f2abd57447f6c315b9b2da68dd4"),
], ids=["relativistic", "sum"])
def test_kernel_table_bits_pinned(phi, sha):
    table = kernels.build_kernel_table(phi, 3, 1e-2, 1.0, 8)
    assert _sha(table.g_values, table.j_values) == sha


def test_kernel_ratio_windows_bits_pinned():
    phi = bernstein.log_perturbed_up(1.0, 0.5)
    assert (_sha(kernels.g_asymptotic_ratio(phi, 3).ratios)
            == "e1b5f8cb9ad2eb64896677033b1141b1512ad610cdb6e60892b4d9218d496d87")
    assert (_sha(kernels.j_asymptotic_ratio(phi, 3).ratios)
            == "21f05c21a345855b6cb3d155a41d3e8d52cb30ff8fd2851f9c7cd5b60acb5efe")


def _counting(fn, calls, key):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_quad_is_looked_up_at_call_time(monkeypatch):
    # a wrapper set on kernels.quad, ladder.quad, laplace.talbot_inversion or
    # laplace.gaver_stehfest (as the benchmark's tracer sets them) sees every
    # call, and the values keep their bits; the half-line Green function
    # integrates with the shared trapezoid rule, and u, mu, the tail, the
    # compound drift, the kernels, v and V with the real-axis rule, so none
    # sees a call
    log_up, rel, stable = (bernstein.log_perturbed_up(1.0, 0.5), bernstein.relativistic_stable(1.0, 1.0),
                           bernstein.stable(1.0))
    t = np.geomspace(1e-3, 10.0, 5)

    def values():
        return [*(f(phi, t).tolist() for phi in (log_up, rel) for f in (
                    densities.potential_density_u, bernstein.eval_levy_density, bernstein.levy_tail)),
                *(montecarlo._compound_tables.__wrapped__(phi, 1e-3)[1] for phi in (log_up, rel)),
                *(kernels.green_function(phi, 3, np.array([0.1, 0.5])).tolist() for phi in (log_up, rel)),
                *(kernels.jump_kernel(phi, 3, np.array([0.1, 0.5])).tolist() for phi in (log_up, rel)),
                *(f(phi, t).tolist() for phi in (log_up, rel) for f in (ladder.ladder_density_v,
                                                                        ladder.renewal_function_V)),
                ladder.halfline_green(stable, 1.0, 2.0)]

    plain = values()
    calls = {"kernels": 0, "ladder": 0, "laplace": 0}
    for module, key, name in ((kernels, "kernels", "quad"), (ladder, "ladder", "quad"),
                              (laplace, "laplace", "talbot_inversion"), (laplace, "laplace", "gaver_stehfest")):
        monkeypatch.setattr(module, name, _counting(getattr(module, name), calls, key))
    patched = values()
    assert calls == {"kernels": 0, "ladder": 0, "laplace": 0}
    assert patched == plain


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sum_jump_kernel_is_the_sum_of_stable_kernels(d):
    # the sum kind's Levy density is mu_alpha + mu_beta, so its j is the sum of
    # two Riesz jump kernels in closed form, which share no code with the rule
    alpha, beta = 1.0, 0.5
    phi = bernstein.sum_of_stables(alpha, beta)
    for r in (1e-3, 0.1, 1.0, 10.0):
        exact = (_stable_jump_constant(d, alpha) * r ** (-d - alpha)
                 + _stable_jump_constant(d, beta) * r ** (-d - beta))
        assert kernels.jump_kernel(phi, d, r) == pytest.approx(exact, rel=1e-6), r


def test_relativistic_jump_kernel_past_the_weight_underflow():
    # m = 1, d = 1, r = 20: the weight exp(-t) t^(-3/2) is 0 in floats long
    # before the cut, so the rest past it is closed as 0, and the value (about
    # 9.4e-12, under the absolute target) is still held to rel 1e-6
    m, d, r = 1.0, 1, 20.0
    nu = (d + 1) / 2.0
    exact = math.pi**-0.5 * (4.0 * math.pi) ** (-d / 2.0) * (2.0 * m / r) ** nu * kv(nu, m * r)
    got = kernels.jump_kernel(bernstein.relativistic_stable(1.0, m), d, r)
    assert got == pytest.approx(exact, rel=1e-6)


def _kinked_density(s):
    # s^(1/2) that drops to s^(-79/2) past s = 3: a kink no step halving of the rule resolves
    s = np.asarray(s, dtype=float)
    return s**0.5 * np.minimum(1.0, 3.0 / s) ** 40


def test_unresolved_kink_is_refused(monkeypatch, capsys):
    with pytest.raises(NumericAccuracyError, match="step halvings"):
        kernels.subordination_integral(_kinked_density, 3, 1.0)
    # through the CLI the refusal is exit 3, with nothing written
    rule = laplace.real_axis_integral
    monkeypatch.setattr(laplace, "real_axis_integral",
                        lambda rho, t, b=1.0, kernel=None: rule(lambda s: [_kinked_density(s)], t, 1.0, kernel))
    rc = cli.main(["kernel", "--kind", "log_up", "--alpha", "1", "--dim", "3", "--r", "1"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err.startswith("numeric accuracy failure: ")


@pytest.mark.parametrize("phi", [bernstein.sum_of_stables(1.0, 0.5), bernstein.log_perturbed_up(1.0, 0.5)],
                         ids=["sum", "log_up"])
@pytest.mark.parametrize("d", [2, 3])
def test_subordination_integral_is_grid_and_block_independent(monkeypatch, phi, d):
    # each radius's G and j are the ones it gets alone, bit for bit: on a grid
    # of more than one block of (radii, nodes), on blocks of a single radius,
    # and with the grid reversed
    radii = np.geomspace(1e-3, 30.0, 400)
    for kernel in (kernels.green_function, kernels.jump_kernel):
        alone = [kernel(phi, d, r) for r in radii]
        at_once = kernel(phi, d, radii)
        with monkeypatch.context() as m:
            m.setattr(laplace, "_BLOCK", 1)
            one_row_blocks = kernel(phi, d, radii[::-1])[::-1]
        assert at_once.tolist() == alone and one_row_blocks.tolist() == alone


@pytest.mark.parametrize("d, alpha, r", [
    *[(d, alpha, r) for d in (1, 2, 3) for alpha in (0.5, 1.0, 1.5, 1.9) for r in (1e-3, 1.0, 10.0)],
    # the cases of test_green_function_riesz_near_alpha_d: an integrand on the cut that
    # decays slowly at s = 0, so much of G lies past the rule's left end, in its closing rest
    (1, 0.95, 0.3), (1, 0.9938235677851865, 0.05772396153673417), (1, 0.999, 1.0), (2, 1.9, 0.1),
])
def test_stable_kernels_on_the_cut_are_riesz(d, alpha, r):
    # the stable kind's kernels are closed, so the rule runs here on its cut
    # densities sin(pi alpha/2) s^(-+alpha/2) directly; in d = 2 at alpha = 1.9 the
    # left rest is closed with K_0's log, which a pure power misses by 2e-9 to 1e-8
    c = math.sin(math.pi * alpha / 2.0)
    if alpha < d:
        assert (kernels.subordination_integral(lambda s: c * s ** (-alpha / 2.0), d, r)
                == pytest.approx(_riesz_green_constant(d, alpha) * r ** (alpha - d), rel=1e-9))
    assert (kernels.subordination_integral(lambda s: c * s ** (alpha / 2.0), d, r)
            == pytest.approx(_stable_jump_constant(d, alpha) * r ** (-d - alpha), rel=1e-9))


def _mpmath_kernels():
    # G and j of kinds with no closed kernel, each a heat-kernel integral of u
    # or mu from mpmath's Laplace inversion, which writes each phi out again;
    # regenerate with tests/fixtures/kernels_mpmath.py
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "kernels_mpmath.json")) as fh:
        return json.load(fh)["kernels"]


@pytest.mark.parametrize("case", _mpmath_kernels(), ids=lambda c: f"{c['label']}-d{c['d']}-r{c['r']:g}")
def test_kernels_match_the_mpmath_heat_kernel_integrals(case):
    # held to the real-axis rule's relative target
    phi, d, r = bernstein.phi_from_json(case["phi"]), case["d"], case["r"]
    if case["G"] is not None:
        assert kernels.green_function(phi, d, r) == pytest.approx(case["G"], rel=1e-9)
    else:
        with pytest.raises(NotTransientError):
            kernels.green_function(phi, d, r)
    assert kernels.jump_kernel(phi, d, r) == pytest.approx(case["J"], rel=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_geometric_kernels_are_heat_kernel_integrals_of_the_pole_sums(d):
    # the geometric kind's cut is point masses, so G and j are sums of Brownian
    # resolvents over its poles; here they are checked against scipy's quadrature
    # of p(t, r) against its closed u and mu, in log t
    from scipy.integrate import quad

    phi = bernstein.geometric_like(1.0)
    for r in (1e-2, 0.3, 1.0):
        for kernel, density in ((kernels.green_function, densities.potential_density_u),
                                (kernels.jump_kernel, bernstein.eval_levy_density)):
            def f(y):
                t = math.exp(y)
                return kernels.heat_kernel(d, t, r) * density(phi, t) * t

            lo = math.log(r * r / 3200.0)
            exact = sum(quad(f, a, a + 2.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                        for a in np.arange(lo, 20.0, 2.0))
            assert kernel(phi, d, r) == pytest.approx(exact, rel=1e-9), (kernel.__name__, r)
