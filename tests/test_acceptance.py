"""End-to-end acceptance gate: one test per shipped guarantee.

Each test pins the tolerance and (where stated) the runtime budget of a
user-facing claim: closed-form stable oracles for the analytic kernels,
hard two-sided bounds for the ladder exponent and potential density,
bounded-spread windows for the asymptotic ratios, Monte Carlo exit-time and
exit-distribution oracles, stability of the empirical Harnack and boundary
Harnack ratios, and bit-identical reruns.  Run with -v to get one pass/fail
line per criterion.
"""

import math
import time

import numpy as np
import pytest

from sbmpot import (
    Ball,
    bhp_ratio_check,
    cli,
    default_catalog,
    exit_distribution_histogram,
    g_asymptotic_ratio,
    green_function,
    harnack_ratio,
    j_asymptotic_ratio,
    j_doubling_and_shift,
    jump_kernel,
    ladder_exponent_chi,
    halfline_green,
    mu_asymptotic_ratio,
    renewal_function_V,
    scaled_config,
    simulate_exits,
    stable,
    u_asymptotic_ratio,
    zahle_upper_check,
)
from sbmpot.densities import ZAHLE_BOUND

RIESZ_G3 = 0.05066059182116889      # 1/(2 pi^2)
STABLE_J1 = 0.3183098861837907      # 1/pi


def test_criterion_01_stable_green_oracle():
    t0 = time.monotonic()
    phi = stable(1.0)
    for r in (0.01, 0.1, 1.0):
        g = green_function(phi, 3, r)
        assert g * r**2 == pytest.approx(RIESZ_G3, rel=5e-3)
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_stable_jump_oracle():
    t0 = time.monotonic()
    phi = stable(1.0)
    assert jump_kernel(phi, 1, 1.0) == pytest.approx(STABLE_J1, rel=1e-3)
    doubling, shift = j_doubling_and_shift(phi, 1, 2.0)
    assert doubling.hi == pytest.approx(4.0, abs=1e-4)
    assert math.isfinite(shift.hi) and shift.hi > 0.0 and doubling.passed
    assert time.monotonic() - t0 < 5.0


def test_criterion_03_ladder_exponent_identity():
    t0 = time.monotonic()
    lams = np.array([0.1, 1.0, 10.0, 100.0])
    for alpha in (0.5, 1.0, 1.5):
        chi = ladder_exponent_chi(stable(alpha), lams)
        assert np.max(np.abs(chi / lams ** (alpha / 2.0) - 1.0)) < 1e-6
    assert time.monotonic() - t0 < 1.0


def test_criterion_04_sandwich_bounds():
    lams = np.geomspace(1e-2, 1e4, 40)
    lo, hi = math.exp(-math.pi / 2.0), math.exp(math.pi / 2.0)
    for phi in default_catalog():
        ratio = ladder_exponent_chi(phi, lams) / np.sqrt(phi(lams**2))
        assert np.min(ratio) >= lo - 1e-9, phi.label()
        assert np.max(ratio) <= hi + 1e-9, phi.label()


def test_criterion_05_zahle_bound():
    grid = np.geomspace(1e-6, 1.0, 50)
    for phi in default_catalog():
        rep = zahle_upper_check(phi, t_grid=grid)
        assert rep.hi <= ZAHLE_BOUND + 1e-6 and rep.passed, phi.label()


def test_criterion_06_asymptotic_ratio_suites():
    t_base = np.geomspace(1e-6, 1.0, 50)
    r_base = np.geomspace(1e-3, 1.0, 30)
    t_fine = np.geomspace(1e-6, 1.0, 100)
    r_fine = np.geomspace(1e-3, 1.0, 60)
    for phi in default_catalog():
        pairs = [
            (u_asymptotic_ratio(phi, t_base), u_asymptotic_ratio(phi, t_fine)),
            (mu_asymptotic_ratio(phi, t_base), mu_asymptotic_ratio(phi, t_fine)),
            (g_asymptotic_ratio(phi, 3, r_base), g_asymptotic_ratio(phi, 3, r_fine)),
            (j_asymptotic_ratio(phi, 3, r_base), j_asymptotic_ratio(phi, 3, r_fine)),
        ]
        for base, fine in pairs:
            assert base.spread < 1e3, phi.label()
            assert abs(fine.spread - base.spread) / base.spread < 0.05, phi.label()


def test_criterion_07_exit_time_oracle():
    t0 = time.monotonic()
    phi = stable(1.0)
    ball = Ball(center=(0.0,), radius=1.0)
    est0 = simulate_exits(
        phi, ball, [0.0], scaled_config(phi, 1.0, 100_000, seed=21, epsilon=1e-4)
    ).mean_tau()
    assert est0.mean == pytest.approx(1.0, rel=0.05)
    v22 = 2.0 * renewal_function_V(phi, 2.0)
    for x, est in [
        (0.0, est0),
        (0.5, simulate_exits(phi, ball, [0.5],
                             scaled_config(phi, 1.0, 20_000, seed=22, epsilon=1e-4)).mean_tau()),
        (0.9, simulate_exits(phi, ball, [0.9],
                             scaled_config(phi, 1.0, 20_000, seed=23, epsilon=1e-4)).mean_tau()),
    ]:
        bound = v22 * renewal_function_V(phi, 1.0 - abs(x))
        assert est.mean <= bound + 3.0 * est.std_error, f"x={x}"
    assert time.monotonic() - t0 < 120.0


def test_criterion_08_poisson_kernel_oracle():
    t0 = time.monotonic()
    phi = stable(1.0)
    edges = np.array([1.1, 1.3, 1.5, 1.8, 2.1, 2.5, 3.0])
    hist = exit_distribution_histogram(
        phi, Ball(center=(0.0,), radius=1.0), [0.0], edges,
        scaled_config(phi, 1.0, 100_000, seed=12, epsilon=1e-4),
    )
    # exact exit law through the unit ball from 0: bin mass
    # (2/pi) * (arccos(1/b) - arccos(1/a)) on a <= |y| < b
    exact = (2.0 / math.pi) * np.diff(np.arccos(1.0 / edges))
    rel = np.abs(hist.prob - exact) / exact
    assert np.max(rel) < 0.10
    assert time.monotonic() - t0 < 120.0


def test_criterion_09_halfline_green_value():
    t0 = time.monotonic()
    phi = stable(1.0)
    expect = (2.0 / math.pi) * math.log(1.0 + math.sqrt(2.0))
    assert halfline_green(phi, 1.0, 2.0) == pytest.approx(expect, abs=1e-4)
    xs = np.linspace(0.5, 2.5, 5)
    for i, x in enumerate(xs):
        for y in xs[i + 1:]:
            a = halfline_green(phi, float(x), float(y))
            b = halfline_green(phi, float(y), float(x))
            assert abs(a - b) < 1e-6
    assert time.monotonic() - t0 < 1.0


def test_criterion_10_harnack_bhp_stability():
    t0 = time.monotonic()
    combos = [(a, r) for a in (0.5, 1.0, 1.5) for r in (0.01, 0.05, 0.1)]
    for i, (alpha, r) in enumerate(combos):
        # alpha=1.5 puts little mass in the far shells, so its profile
        # ratios need more paths for the same count resolution
        paths = 1500 if alpha == 1.5 else 600
        rep = harnack_ratio(stable(alpha), 1, r, paths, 101 + 13 * i, 1e-4)
        assert math.isfinite(rep.ratio), (alpha, r)
        assert rep.delta_paths < 0.2 and rep.delta_grid < 0.2, (alpha, r)
    bhp = bhp_ratio_check(stable(1.0), 0.05, 2400, 11, 1e-4)
    assert bhp.spread < 10.0
    assert bhp.delta_paths < 0.2
    assert time.monotonic() - t0 < 600.0


def test_criterion_11_determinism(tmp_path):
    runs = {
        "table.csv": ["phi", "--kind", "log_up", "--alpha", "1.2",
                      "--lmin", "0.1", "--lmax", "10", "--points", "9"],
        "kernel.csv": ["kernel", "--kind", "stable", "--alpha", "1", "--dim", "3",
                       "--rmin", "0.01", "--rmax", "1", "--points", "7"],
        "exit.csv": ["simulate", "exit", "--kind", "relativistic", "--alpha", "1",
                     "--paths", "5000", "--seed", "7"],
    }
    for name, argv in runs.items():
        first, second = tmp_path / ("a_" + name), tmp_path / ("b_" + name)
        assert cli.main(argv + ["--output", str(first)]) == 0
        assert cli.main(argv + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
