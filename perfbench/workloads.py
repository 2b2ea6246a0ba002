"""Workload generators and output oracles for the sbmpot benchmark.

Every op is one ``sbmpot`` command line.  A generator turns the workload
seed into an endless, deterministic sequence of rounds; a round holds one op
per op shape of the workload, always in the same order, and a run measures
a fixed number of whole rounds.  The seed draws the numeric parameters,
except those that set the cost of a Monte Carlo op (see the exit and probe
generators).  Runs with different seeds therefore measure the same mix of
work, and two runs with one seed run identical ops.  sbmpot sees only the
flags.

Each op carries an oracle: a function of the parsed artifact records that
returns None when the output meets its verification bound and a short
message otherwise.  Oracles run outside the timed region.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import hyp2f1

WORKLOADS = ("exit_exact", "exit_compound", "probe_family", "analytic")

# Rounds a run measures at --seconds 10; other lengths scale it, at least
# one round.  The op list, op count and digest of a run therefore depend
# only on the seed and --seconds.  On a 2-core host a run's ops take about
# 10 s (exit_exact, exit_compound), 17 s (analytic) and 40 s
# (probe_family, whose checks march for seconds each).  More rounds steady
# a run's metrics only while op_s_tail stays inside a cluster of similar
# ops: three rounds of analytic put it at the edge of the check_doubling
# cluster and widened its spread over seeds from 9% to 12%.
ROUNDS_AT_10S = {"exit_exact": 4, "exit_compound": 3, "probe_family": 2, "analytic": 2}


def rounds_per_run(workload: str, seconds: float) -> int:
    return max(1, round(ROUNDS_AT_10S[workload] * seconds / 10.0))


SANDWICH_LO = math.exp(-math.pi / 2.0)
SANDWICH_HI = math.exp(math.pi / 2.0)
ZAHLE_BOUND = 1.0 / (1.0 - math.exp(-1.0))

# Skeleton step of the exit workloads, as a share of the exit-time scale
# 1/phi(r^-2).  The CLI default (1e-3) marches about 10k steps per op, which
# would leave fewer than ten ops in a run; coarser steps keep the same shape
# of work (full batches, then a long straggler tail) with fewer steps.  A
# compound step costs more (one Philox call per jump slot), so it is coarser.
EXACT_STEP_FRAC = 1e-2
COMPOUND_STEP_FRAC = 2e-2

# Fixed exponents of the compound-sampler kinds.  Their tables are built in
# set-up, so measured ops must reuse these exact exponents.  log_down is left
# out: its table is built by the same levy_tail path as log_up and would add
# another 17 s of set-up to every run.
COMPOUND_KINDS = ("relativistic", "sum", "log_up")
COMPOUND_ALPHA = 1.0

ANALYTIC_KINDS = ("stable", "relativistic", "sum", "log_up", "log_down", "geometric_example")
ANALYTIC_SHAPES = ("phi", "density", "kernel_r", "kernel_table", "ladder_chi", "ladder_v",
                   "ladder_halfline", "check_sandwich", "check_zahle", "check_asym",
                   "check_doubling")


@dataclass
class Op:
    """One sbmpot command plus how to judge its outcome.

    ``expect`` is "pass" when exit code 0 is required, or "verdict" for
    statistical checks whose pass/fail verdict (exit 0 or 1) is itself the
    result.  ``paths`` is the number of exit paths the op marches.
    """

    shape: str
    argv: list
    oracle: Callable = field(repr=False)
    expect: str = "pass"
    paths: int = 0


# ---------------------------------------------------------------------------
# closed forms used by generators and oracles


def phi_value(kind: str, alpha: float, lam: np.ndarray) -> np.ndarray:
    """Laplace exponent at the CLI's default parameters (m=1, beta=gamma=0.5)."""
    lam = np.asarray(lam, dtype=float)
    if kind == "stable":
        return lam ** (alpha / 2.0)
    if kind == "relativistic":
        return (lam + 1.0) ** (alpha / 2.0) - 1.0
    if kind == "sum":
        return lam ** (alpha / 2.0) + lam ** 0.25
    if kind == "log_up":
        return lam ** (alpha / 2.0) * np.log1p(lam) ** 0.25
    if kind == "log_down":
        return lam ** (alpha / 2.0) * np.log1p(lam) ** -0.25
    raise ValueError(kind)


def small_exponent(kind: str, alpha: float) -> float:
    """Power of phi at 0+, which decides transience in d <= 2."""
    return {"stable": alpha / 2.0, "relativistic": 1.0, "sum": 0.25,
            "log_up": (alpha + 0.5) / 2.0, "log_down": (alpha - 0.5) / 2.0,
            "geometric_example": 0.0}[kind]


def transient_dims(kind: str, alpha: float) -> list:
    return [d for d in (1, 2, 3) if d == 3 or small_exponent(kind, alpha) < d / 2.0]


def riesz_green(alpha: float, d: int, r: float) -> float:
    return (gamma_fn((d - alpha) / 2.0) / (2.0 ** alpha * math.pi ** (d / 2.0) * gamma_fn(alpha / 2.0))
            * r ** (alpha - d))


def riesz_jump(alpha: float, d: int, r: float) -> float:
    return (alpha * 2.0 ** (alpha - 1.0) * gamma_fn((d + alpha) / 2.0)
            / (math.pi ** (d / 2.0) * gamma_fn(1.0 - alpha / 2.0)) * r ** (-d - alpha))


def stable_halfline_green(alpha: float, x: float, y: float) -> float:
    """int_0^lo v(z) v(gap+z) dz with v(z) = z^(a-1)/Gamma(a), a = alpha/2."""
    a = alpha / 2.0
    lo, gap = min(x, y), abs(y - x)
    return (gap ** (a - 1.0) * lo ** a / a * hyp2f1(1.0 - a, a, a + 1.0, -lo / gap)
            / gamma_fn(a) ** 2)


def bgr_mean_exit(alpha: float, d: int, r: float, x_norm: float) -> float:
    """Blumenthal-Getoor-Ray mean exit time of the ball B(0, r) from |x|."""
    return (gamma_fn(d / 2.0) / (2.0 ** alpha * gamma_fn(1.0 + alpha / 2.0)
                                 * gamma_fn((d + alpha) / 2.0))
            * (r * r - x_norm * x_norm) ** (alpha / 2.0))


# ---------------------------------------------------------------------------
# oracle helpers


def _col(records, key) -> np.ndarray:
    return np.array([float(rec[key]) for rec in records])


def _close(got, want, rtol: float, what: str):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.max(np.abs(got - want) / np.abs(want))
    return None if err <= rtol else f"{what} off by {err:.2e} relative (tolerance {rtol:.0e})"


def _positive(records, keys):
    for key in keys:
        vals = _col(records, key)
        if not np.all(np.isfinite(vals) & (vals > 0.0)):
            return f"{key} not finite and positive"
    return None


def _above_floor(records, keys):
    """Finite and positive up to the Talbot rule's documented absolute
    round-off floor, 1e-12 of the column's peak: values in a dead tail below
    it are returned uncertified and may read as small negative noise."""
    for key in keys:
        vals = _col(records, key)
        floor = 1e-12 * np.max(np.abs(vals))
        if not np.all(np.isfinite(vals) & (vals >= -floor)) or not np.max(vals) > 0.0:
            return f"{key} below the round-off floor"
    return None


def _first(*checks):
    for msg in checks:
        if msg:
            return msg
    return None


def _start_point(rnd: random.Random, d: int, norm: float) -> list:
    v = [rnd.gauss(0.0, 1.0) for _ in range(d)]
    scale = norm / math.sqrt(sum(c * c for c in v))
    return [c * scale for c in v]


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# exit workloads


def _exit_records_check(records, d: int, r: float, paths: int):
    if not records:
        return "no exit records"
    pos = np.array([[float(rec[f"x{k + 1}"]) for k in range(d)] for rec in records])
    if np.any(np.linalg.norm(pos, axis=1) < r * (1.0 - 1e-12)):
        return "exit position inside the ball"
    tau = _col(records, "tau")
    if not np.all(np.isfinite(tau) & (tau > 0.0)):
        return "exit time not finite and positive"
    if len(records) < 0.99 * paths:
        return f"{paths - len(records)} of {paths} paths censored"
    return None


def _exit_op(rnd: random.Random, shape: str, kind: str, alpha: float, d: int, step_frac: float,
             paths_range: tuple, r_range: tuple, paths_q: float, offset_q: float, r_q: float,
             oracle_factory) -> Op:
    r = r_range[0] + (r_range[1] - r_range[0]) * r_q
    x_norm = 0.9 * offset_q * r
    x0 = _start_point(rnd, d, x_norm)
    lo, hi = paths_range
    paths = int(round(lo * (hi / lo) ** paths_q))
    step = step_frac / float(phi_value(kind, alpha, r ** -2.0))
    argv = ["simulate", "exit", "--kind", kind, "--alpha", _fmt(alpha), "--dim", str(d),
            "--radius", _fmt(r), "--x0=" + ",".join(_fmt(c) for c in x0),
            "--paths", str(paths), "--seed", str(rnd.randrange(2 ** 31)), "--step", _fmt(step)]
    return Op(shape, argv, oracle_factory(kind, alpha, d, r, x_norm, paths, step), paths=paths)


def _bgr_oracle(kind, alpha, d, r, x_norm, paths, step):
    want = bgr_mean_exit(alpha, d, r, x_norm)

    def oracle(records):
        msg = _exit_records_check(records, d, r, paths)
        if msg:
            return msg
        tau = _col(records, "tau")
        se = tau.std(ddof=1) / math.sqrt(tau.size)
        # The skeleton sees an exit only at a grid time at or after the true
        # one, so the mean may sit above BGR but not below it.  The measured
        # excess at this step is at most 2.5 steps (alpha = 1.5, start near
        # the boundary); the bound allows 5.
        if not want - 5.0 * se <= tau.mean() <= want + 5.0 * se + 5.0 * step:
            return f"mean exit {tau.mean():.5g} outside [BGR {want:.5g} - 5 SE, + 5 SE + 5 steps]"
        return None

    return oracle


def _renewal_oracle(kind, alpha, d, r, x_norm, paths, step):
    def oracle(records):
        msg = _exit_records_check(records, d, r, paths)
        if msg:
            return msg
        from sbmpot.bernstein import phi_from_json
        from sbmpot.ladder import renewal_function_V

        phi = phi_from_json({"kind": kind, "alpha": alpha, "m": 1.0, "beta": 0.5, "gamma": 0.5})
        bound = 2.0 * float(renewal_function_V(phi, 2.0 * r)) * float(renewal_function_V(phi, r - x_norm))
        tau = _col(records, "tau")
        se = tau.std(ddof=1) / math.sqrt(tau.size)
        if tau.mean() > bound + 3.0 * se:
            return f"mean exit {tau.mean():.5g} above renewal bound {bound:.5g} + 3 SE"
        return None

    return oracle


EXACT_SHAPES = [(0.5, 1), (1.0, 2), (1.5, 3), (0.5, 2), (1.0, 3), (1.5, 1), (0.5, 3), (1.0, 1), (1.5, 2)]


def _exit_round(rnd: random.Random, prefix: str, shapes: list, step_frac: float,
                paths_range: tuple, r_range: tuple, oracle_factory) -> list:
    """One op per (kind, alpha, d) shape.  Shape i always marches the i-th
    of n path counts spaced geometrically over ``paths_range``, in a ball
    whose radius is the (2i mod n)-th of n spaced evenly over ``r_range``,
    from the (4i mod n)-th of n start offsets spaced evenly over [0, 0.9r).
    Every round therefore marches the same batch sizes, radii and offsets.
    All three set an op's cost (the radius only for kinds that are not
    stable); drawn at random, they would shift a run's percentiles between
    the clusters that the shapes form.  The seed draws the start direction
    and the Monte Carlo seed."""
    n = len(shapes)
    return [_exit_op(rnd, f"{prefix}_{kind}_a{alpha:g}_d{d}", kind, alpha, d, step_frac,
                     paths_range, r_range, (i + 0.5) / n, (4 * i % n + 0.5) / n,
                     (2 * i % n + 0.5) / n, oracle_factory)
            for i, (kind, alpha, d) in enumerate(shapes)]


def exit_exact_rounds(rnd: random.Random):
    shapes = [("stable", alpha, d) for alpha, d in EXACT_SHAPES]
    while True:
        yield _exit_round(rnd, "exact", shapes, EXACT_STEP_FRAC, (300, 24000), (0.5, 2.0), _bgr_oracle)


def exit_compound_rounds(rnd: random.Random):
    shapes = [(kind, COMPOUND_ALPHA, d) for d in (1, 2, 3) for kind in COMPOUND_KINDS]
    while True:
        yield _exit_round(rnd, "compound", shapes, COMPOUND_STEP_FRAC, (200, 5000), (0.5, 1.5),
                          _renewal_oracle)


# ---------------------------------------------------------------------------
# probe family: empirical Harnack and boundary Harnack checks

PROBE_ALPHA = 1.5
PROBE_PATHS = 200


def _probe_oracle(check: str, r: float):
    def oracle(records):
        if len(records) != 1 or records[0]["check"] != check:
            return "malformed check report"
        rec = records[0]
        if abs(float(rec["r"]) - r) > 1e-12 * r:
            return "report radius differs from the input"
        ratio, delta = float(rec["ratio"]), float(rec["refinement_delta"])
        if not ratio >= 1.0:
            return f"sup/inf ratio {ratio} below 1"
        if not delta >= 0.0:
            return f"refinement delta {delta} negative"
        if rec["pass"] == "true" and not (math.isfinite(ratio) and delta < 0.2):
            return "pass verdict with an unstable ratio"
        return None

    return oracle


def _probe_op(rnd: random.Random, check: str, where, mc_seed: int) -> Op:
    r = rnd.uniform(0.02, 0.1)
    argv = ["check", check, "--kind", "stable", "--alpha", _fmt(PROBE_ALPHA),
            "--r", _fmt(r), "--paths", str(PROBE_PATHS), "--seed", str(mc_seed)]
    if check == "bhp":
        argv += ["--domain", where]
        marched = 7 * 4 * PROBE_PATHS  # 7 start points, 4x the base paths each
    else:
        argv += ["--dim", str(where)]
        marched = 13 * 4 * PROBE_PATHS
    return Op(f"{check}_{where}", argv, _probe_oracle(check, r), expect="verdict", paths=marched)


def probe_family_rounds(rnd: random.Random):
    """BHP on the interval and the half-disk, then Harnack in d = 2.

    Harnack in d = 1 is left out: at any path count it marches 20-30 s per
    check on a 2-core host.

    The Monte Carlo seed of the n-th op is n and every check runs
    PROBE_PATHS base paths, whatever the workload seed.  A check marches
    its start points on common random numbers, so its cost is set by one
    set of slowest paths: it swings by a third between Monte Carlo seeds
    (26.7k to 39.5k march steps for one Harnack check over seeds 1 to 5),
    and it moves with the path count, which adds paths to those maxima.
    That is far more than the six ops a run can afford average out.  The
    workload seed draws r, which changes every output but, the process
    being stable, not the cost.
    """
    mc_seeds = itertools.count(1)
    while True:
        yield [_probe_op(rnd, check, where, next(mc_seeds))
               for check, where in (("bhp", "interval"), ("bhp", "halfdisk"), ("harnack", 2))]


# ---------------------------------------------------------------------------
# analytic: bernstein, laplace, densities, kernels and ladder, no Monte Carlo


def _draw_alpha(rnd: random.Random, kind: str) -> float:
    if kind == "stable":
        return rnd.uniform(0.3, 1.8)
    if kind == "geometric_example":
        # above 1.25 the truncation grows past 64 terms, and with it the
        # memory of every transform evaluation
        return rnd.uniform(0.6, 1.25)
    # sum and log_down need alpha > beta = 0.5, log_up needs alpha < 2 - gamma = 1.5
    return rnd.uniform(0.6, 1.4)


def _analytic_op(rnd: random.Random, shape: str, kind: str, control: bool) -> Op:
    alpha = 1.0 if control and kind == "stable" else _draw_alpha(rnd, kind)
    base = ["--kind", kind, "--alpha", _fmt(alpha)]
    stable = kind == "stable"
    closed_phi = kind != "geometric_example"

    if shape == "phi":
        argv = ["phi"] + base + ["--lmin", _fmt(10 ** rnd.uniform(-3, -1)),
                                 "--lmax", _fmt(10 ** rnd.uniform(1, 3)),
                                 "--points", str(rnd.randrange(10, 41))]

        def oracle(recs):
            lam, phi, psi = _col(recs, "lambda"), _col(recs, "phi"), _col(recs, "psi")
            return _first(_positive(recs, ["phi", "psi"]),
                          None if np.all(np.diff(phi) > 0.0) else "phi not increasing",
                          _close(psi * phi, lam, 1e-12, "psi*phi vs lambda"),
                          _close(phi, phi_value(kind, alpha, lam), 1e-10, "phi") if closed_phi else None)

    elif shape == "density":
        argv = ["density"] + base + ["--tmin", _fmt(10 ** rnd.uniform(-4, -2)),
                                     "--tmax", _fmt(10 ** rnd.uniform(-0.5, 0.5)), "--points", "8"]

        def oracle(recs):
            t = _col(recs, "t")
            a = alpha / 2.0
            return _first(
                _above_floor(recs, ["u", "mu", "tail"]),
                None if np.all(_col(recs, "u_ratio") <= ZAHLE_BOUND + 1e-6) else "u t phi(1/t) above the Zahle bound",
                _close(_col(recs, "u_ratio"), _col(recs, "u") * t * phi_value(kind, alpha, 1.0 / t),
                       1e-10, "u_ratio") if closed_phi else None,
                _close(_col(recs, "u"), t ** (a - 1.0) / gamma_fn(a), 1e-10, "stable u") if stable else None,
                _close(_col(recs, "mu"), a / gamma_fn(1.0 - a) * t ** (-1.0 - a), 1e-10, "stable mu") if stable else None,
            )

    elif shape == "kernel_r":
        if control and stable:
            d, r = 3, 1.0
        else:
            d, r = rnd.choice(transient_dims(kind, alpha)), 10 ** rnd.uniform(-1.5, 0.3)
        argv = ["kernel"] + base + ["--dim", str(d), "--r", _fmt(r)]

        def oracle(recs):
            return _first(
                _positive(recs, ["G", "J"]),
                _close(_col(recs, "G"), riesz_green(alpha, d, r), 1e-5, "Riesz G") if stable else None,
                _close(_col(recs, "J"), riesz_jump(alpha, d, r), 1e-5, "Riesz J") if stable else None,
            )

    elif shape == "kernel_table":
        d = rnd.choice(transient_dims(kind, alpha))
        argv = ["kernel"] + base + ["--dim", str(d), "--rmin", _fmt(10 ** rnd.uniform(-2.5, -1.5)),
                                    "--rmax", _fmt(10 ** rnd.uniform(-0.5, 0.3)),
                                    "--points", str(rnd.randrange(5, 11))]

        def oracle(recs):
            r = _col(recs, "r")
            return _first(
                _positive(recs, ["G", "J"]),
                None if np.all(np.diff(_col(recs, "G")) < 0.0) else "G not decreasing",
                _close(_col(recs, "G"), [riesz_green(alpha, d, x) for x in r], 1e-5, "Riesz G") if stable else None,
                _close(_col(recs, "J"), [riesz_jump(alpha, d, x) for x in r], 1e-5, "Riesz J") if stable else None,
            )

    elif shape == "ladder_chi":
        argv = ["ladder", "chi"] + base + ["--lmin", _fmt(10 ** rnd.uniform(-3, -1)),
                                           "--lmax", _fmt(10 ** rnd.uniform(1, 3)),
                                           "--points", str(rnd.randrange(10, 41))]

        def oracle(recs):
            ratio = _col(recs, "ratio")
            return _first(
                _positive(recs, ["chi"]),
                None if np.all((ratio >= SANDWICH_LO - 1e-9) & (ratio <= SANDWICH_HI + 1e-9)) else "chi outside the sandwich",
                _close(_col(recs, "chi"), _col(recs, "lambda") ** (alpha / 2.0), 1e-8, "stable chi") if stable else None,
            )

    elif shape == "ladder_v":
        argv = ["ladder", "v"] + base + ["--tmin", _fmt(10 ** rnd.uniform(-2, -1)),
                                         "--tmax", _fmt(rnd.uniform(0.5, 5.0)),
                                         "--points", str(rnd.randrange(5, 16))]

        def oracle(recs):
            t, big_v = _col(recs, "t"), _col(recs, "V")
            a = alpha / 2.0
            return _first(
                _positive(recs, ["v_ladder", "V"]),
                None if np.all(np.diff(big_v) > 0.0) else "V not increasing",
                _close(big_v, t ** a / gamma_fn(1.0 + a), 1e-10, "stable V") if stable else None,
            )

    elif shape == "ladder_halfline":
        if control and stable:
            x, y = 1.0, 2.0
        else:
            x = rnd.uniform(0.8, 1.2)
            y = x + rnd.uniform(0.8, 1.2)
        argv = ["ladder", "halfline"] + base + ["--x", _fmt(x), "--y", _fmt(y)]

        def oracle(recs):
            return _first(
                _positive(recs, ["G_halfline"]),
                _close(_col(recs, "G_halfline"), stable_halfline_green(alpha, x, y), 1e-6,
                       "stable half-line Green") if stable else None,
            )

    elif shape == "check_sandwich":
        argv = ["check", "sandwich"] + base

        def oracle(recs):
            rec = recs[0]
            ok = SANDWICH_LO - 1e-9 <= float(rec["min"]) and float(rec["max"]) <= SANDWICH_HI + 1e-9
            return None if ok else "sandwich bound violated"

    elif shape == "check_zahle":
        argv = ["check", "zahle"] + base

        def oracle(recs):
            return None if float(recs[0]["max_product"]) <= ZAHLE_BOUND + 1e-6 else "Zahle bound violated"

    elif shape == "check_asym":
        d = rnd.choice(transient_dims(kind, alpha))
        argv = ["check", "asym"] + base + ["--dim", str(d)]

        def oracle(recs):
            spreads = _col(recs, "spread")
            return None if len(recs) == 4 and np.all(np.isfinite(spreads) & (spreads >= 1.0)) else "bad asymptotic windows"

    else:  # check_doubling
        argv = ["check", "doubling"] + base + ["--dim", str(rnd.choice((1, 2, 3))),
                                               "--K", _fmt(rnd.uniform(1.0, 3.0))]

        def oracle(recs):
            return _positive(recs, ["doubling", "shift"])

    return Op(f"{shape}_{kind}", argv, oracle)


def analytic_rounds(rnd: random.Random):
    """Every (shape, kind) pair once per round, in six blocks of the 11 shapes.

    Block j pairs shape s with kind (s + j) mod 6, so kinds interleave.  The
    first block carries the stable closed-form controls: G = 1/(2 pi^2) at
    d = 3, r = 1 and G_halfline(1, 2) = (2/pi) ln(1 + sqrt 2), at alpha = 1.
    """
    while True:
        yield [_analytic_op(rnd, shape, ANALYTIC_KINDS[(s + j) % len(ANALYTIC_KINDS)],
                            control=(j == 0))
               for j in range(len(ANALYTIC_KINDS)) for s, shape in enumerate(ANALYTIC_SHAPES)]


_GENERATORS = {
    "exit_exact": exit_exact_rounds,
    "exit_compound": exit_compound_rounds,
    "probe_family": probe_family_rounds,
    "analytic": analytic_rounds,
}


def rounds(workload: str, seed: int):
    """Endless deterministic sequence of op rounds of a workload for a seed."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def warmup(workload: str) -> list:
    """One tiny instance of each op shape; fills sbmpot's lazy caches."""
    if workload == "exit_exact":
        return [["simulate", "exit", "--kind", "stable", "--alpha", "1", "--dim", str(d),
                 "--paths", "64", "--step", "0.01"] for d in (1, 2, 3)]
    if workload == "exit_compound":
        return [["simulate", "exit", "--kind", kind, "--alpha", _fmt(COMPOUND_ALPHA),
                 "--dim", "1", "--paths", "16", "--step", "0.01"] for kind in COMPOUND_KINDS]
    if workload == "probe_family":
        return [["check", "bhp", "--kind", "stable", "--alpha", _fmt(PROBE_ALPHA), "--paths", "4",
                 "--domain", "interval"],
                ["check", "harnack", "--kind", "stable", "--alpha", _fmt(PROBE_ALPHA), "--paths", "4",
                 "--dim", "2"]]
    base = ["--kind", "log_up", "--alpha", "1"]
    return [["phi"] + base + ["--points", "3"],
            ["density"] + base + ["--points", "3"],
            ["kernel"] + base + ["--dim", "3", "--r", "0.5"],
            ["kernel"] + base + ["--dim", "3", "--rmin", "0.1", "--rmax", "1", "--points", "2"],
            ["ladder", "chi"] + base + ["--points", "3"],
            ["ladder", "v"] + base + ["--tmin", "0.1", "--tmax", "1", "--points", "3"],
            ["ladder", "halfline"] + base + ["--x", "0.5", "--y", "1"],
            ["check", "sandwich"] + base,
            ["check", "zahle"] + base,
            ["check", "asym"] + base + ["--dim", "3"],
            ["check", "doubling"] + base + ["--dim", "3"]]
