import hashlib
import math

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
    assert doubling == pytest.approx(2.0 ** (1.0 + 1.0), rel=1e-6)
    assert np.isfinite(shift) and shift > 0.0


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


def test_subordination_integral_refuses_slower_decay_than_declared():
    # gamma = 0.3 declares a decay rate of 0.2 in log t; w = t^-0.55 decays at
    # 0.05, so the declaration is broken and the rest cannot be trusted
    with pytest.raises(NumericAccuracyError, match="under half the declared"):
        kernels.subordination_integral(lambda t: t ** -0.55, 1, 1.0, gamma=0.3)


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


@pytest.mark.parametrize("d, beta", [(1, 0.75), (2, 0.5), (3, 0.5), (3, 0.0)])
def test_subordination_integral_power_weight(d, beta):
    # for w(t) = t**(-beta) the integral is Gamma(d/2 + beta - 1) / (4**(1-beta) pi**(d/2))
    # times r**(2 - d - 2*beta), exactly
    const = math.gamma(d / 2.0 + beta - 1.0) / (4.0 ** (1.0 - beta) * math.pi ** (d / 2.0))
    for r in (1e-3, 1.0):
        val = kernels.subordination_integral(lambda t: t ** (-beta), d, r, gamma=1.0 - beta)
        assert val * r ** (d + 2.0 * beta - 2.0) == pytest.approx(const, rel=1e-6)


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()


# the one G/j set-up of every entry point, pinned bit for bit on kinds whose
# weights are inverted and splined
@pytest.mark.parametrize("phi, sha", [
    (bernstein.relativistic_stable(1.0, 1.0),
     "53461524c261ac2737d9d05d0e713ba9630e5bed7de2bdc3d30687db2bcf02a6"),
    (bernstein.sum_of_stables(1.0, 0.5),
     "5d1cbe5b878bd18442d0bc608060019378c292a1cebc42936843aeb79cb2a663"),
], ids=["relativistic", "sum"])
def test_kernel_table_bits_pinned(phi, sha):
    table = kernels.build_kernel_table(phi, 3, 1e-2, 1.0, 8)
    assert _sha(table.g_values, table.j_values) == sha


def test_kernel_ratio_windows_bits_pinned():
    phi = bernstein.log_perturbed_up(1.0, 0.5)
    assert (_sha(kernels.g_asymptotic_ratio(phi, 3).ratios)
            == "dfdd5f98df6408875599509fb5abfa42fa404b7ed817063b75e5cc190ab9967b")
    assert (_sha(kernels.j_asymptotic_ratio(phi, 3).ratios)
            == "74078b1f51404f1e8c5c288a910993e766bdb9108e5b508840051fa8c217dfbb")


def _counting(fn, calls, key):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_quad_is_looked_up_at_call_time(monkeypatch):
    # a wrapper set on kernels.quad, ladder.quad or laplace.talbot_inversion
    # (as the benchmark's tracer sets them) sees every call, and the values
    # keep their bits; the kernels and the half-line Green function
    # integrate with the shared trapezoid rule, and u, mu, the tail and the
    # compound drift with the real-axis rule, so none sees a call
    log_up, rel, stable = (bernstein.log_perturbed_up(1.0, 0.5), bernstein.relativistic_stable(1.0, 1.0),
                           bernstein.stable(1.0))
    t = np.geomspace(1e-3, 10.0, 5)

    def values():
        return [*(f(phi, t).tolist() for phi in (log_up, rel) for f in (
                    densities.potential_density_u, bernstein.eval_levy_density, bernstein.levy_tail)),
                *(montecarlo._compound_tables.__wrapped__(phi, 1e-3)[1] for phi in (log_up, rel)),
                *(kernels._green(phi, 3, np.array([0.1, 0.5])).tolist() for phi in (log_up, rel)),
                *(kernels._jump(phi, 3, np.array([0.1, 0.5])).tolist() for phi in (log_up, rel)),
                ladder.halfline_green(stable, 1.0, 2.0)]

    plain = values()
    calls = {"kernels": 0, "ladder": 0, "laplace": 0}
    for module, key, name in ((kernels, "kernels", "quad"), (ladder, "ladder", "quad"),
                              (laplace, "laplace", "talbot_inversion")):
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


def _kinked_weight(t):
    # t^(-3/2) that drops to t^(-83/2) past t = 1: a kink in log w no
    # trapezoid step of the rule resolves
    t = np.asarray(t, dtype=float)
    return t**-1.5 * np.where(t < 1.0, 1.0, t**-40.0)


def test_unresolved_kink_is_refused(monkeypatch, capsys):
    with pytest.raises(NumericAccuracyError, match="step halvings"):
        kernels.subordination_integral(_kinked_weight, 3, 1.0)
    # through the CLI the refusal is exit 3, with nothing written
    monkeypatch.setattr(kernels, "spline_levy_evaluator", lambda phi, t_lo, t_hi: _kinked_weight)
    rc = cli.main(["kernel", "--kind", "stable", "--alpha", "1", "--dim", "3", "--r", "1"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err.startswith("numeric accuracy failure: ")


@pytest.mark.parametrize("weight", ["closed", "spline"])
def test_subordination_integral_is_grid_and_block_independent(monkeypatch, weight):
    # each radius's value is the one it gets alone, bit for bit: on a grid of
    # more than one block of (radii, nodes), and on blocks of a single radius
    # the evaluator is the registry's closed form for the sum kind, a spline of
    # the inverted density for log_up
    phi = bernstein.sum_of_stables(1.0, 0.5) if weight == "closed" else bernstein.log_perturbed_up(1.0, 0.5)
    w = kernels.spline_levy_evaluator(phi, 1e-10, 1e15)
    radii = np.geomspace(1e-3, 30.0, 400)
    alone = [kernels.subordination_integral(w, 3, r) for r in radii]
    near = int((kernels._Y_FAR - kernels._Y_LO) / kernels._STEP) * 2
    assert radii.size > kernels._BLOCK // near
    at_once = kernels.subordination_integral(w, 3, radii)
    monkeypatch.setattr(kernels, "_BLOCK", 1)
    one_row_blocks = kernels.subordination_integral(w, 3, radii[::-1])[::-1]
    assert at_once.tolist() == alone and one_row_blocks.tolist() == alone
