"""Command-line interface: evaluate, tabulate, check, simulate.

Each command writes one table, built as columns: CSV is a header plus one
line per row (an empty table is one newline), JSON a list of row objects.
A check is a one-row table; ``simulate exit`` writes one CSV row per
uncensored path, or its mean exit time as JSON.

Every command is a pure function of (flags, seed): outputs are bit-identical
across re-runs.  When --output is given a manifest JSON (command, flags,
seed, artifact_version, timestamp) is written alongside the artifact, and
--from-manifest replays the stored flags verbatim.

Exit codes: 0 pass, 1 check failed, 2 usage or configuration error,
3 numeric-accuracy failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .bernstein import JSON_KINDS, KINDS, phi_from_json
from .densities import (
    ZAHLE_BOUND,
    density_table,
    mu_asymptotic_ratio,
    u_asymptotic_ratio,
    zahle_upper_check,
)
from .errors import (
    ConstructionError,
    EvaluationDomainError,
    NotTransientError,
    NumericAccuracyError,
    UndecidableError,
    UnsupportedKindError,
)
from .harnack import bhp_ratio_check, harnack_ratio
from .kernels import (
    build_kernel_table,
    g_asymptotic_ratio,
    green_function,
    j_asymptotic_ratio,
    j_doubling_and_shift,
    jump_kernel,
)
from .ladder import (
    SANDWICH_HI,
    SANDWICH_LO,
    chi_sandwich_check,
    halfline_green,
    ladder_density_v,
    ladder_exponent_chi,
    renewal_function_V,
)
from .montecarlo import Ball, scaled_config, simulate_exits

_USAGE_ERRORS = (
    ConstructionError,
    UnsupportedKindError,
    EvaluationDomainError,
    UndecidableError,
    NotTransientError,
)


def _cells(col: np.ndarray) -> list[str]:
    """One column's CSV cells, its format picked once from its dtype."""
    if col.dtype.kind == "f":
        return [format(x, ".17g") for x in col.tolist()]
    if col.dtype.kind == "b":
        return ["true" if x else "false" for x in col.tolist()]
    return list(map(str, col.tolist()))


def _render(table: dict, fmt: str) -> str:
    """A table of equal-length columns as CSV (a header plus one line per
    row; an empty table is one newline) or as a JSON list of row objects."""
    cols = [np.asarray(col) for col in table.values()]
    if fmt == "json":
        rows = zip(*(col.tolist() for col in cols))
        return json.dumps([dict(zip(table, row)) for row in rows], indent=2) + "\n"
    if not cols[0].size:
        return "\n"
    return "\n".join([",".join(table), *map(",".join, zip(*map(_cells, cols)))]) + "\n"


def _emit(table: dict, args, argv: list[str]) -> None:
    text = _render(table, args.format)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        manifest = {
            "command": argv[0],
            "flags": argv,
            "seed": getattr(args, "seed", None),
            "artifact_version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        with open(args.output + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    else:
        sys.stdout.write(text)


def _phi_from_args(args):
    if getattr(args, "phi", None):
        return phi_from_json(args.phi)
    kind = getattr(args, "kind", None)
    if kind is None:
        raise ConstructionError("provide --kind or --phi <json>")
    # every catalog parameter has a flag of the same name
    spec = {"kind": kind}
    for p in KINDS[kind].params:
        if getattr(args, p.name) is not None:
            spec[p.name] = getattr(args, p.name)
    return phi_from_json(spec)


def _add_phi_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=JSON_KINDS)
    p.add_argument("--phi", help="JSON catalog entry, alternative to --kind")
    # one flag per catalog parameter name, in KINDS order, typed as its JSON
    # value; --m, --beta and --gamma have defaults, the others None
    defaults = {"m": 1.0, "beta": 0.5, "gamma": 0.5}
    params = {q.name: q for kind in JSON_KINDS for q in KINDS[kind].params}
    for name, q in params.items():
        p.add_argument(f"--{name}", type=q.coerce, default=defaults.get(name))


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default=None)


def _grid(args, single, lo_name, hi_name, default_lo=None, default_hi=None):
    """[single] when given, else points geometric between --<lo_name> and --<hi_name>."""
    if single is not None:
        if not 0.0 < single < math.inf:
            raise ConstructionError(f"the point must lie in (0, inf), not {single:g}")
        return np.array([single])
    lo, hi = getattr(args, lo_name), getattr(args, hi_name)
    lo = default_lo if lo is None else lo
    hi = default_hi if hi is None else hi
    if not 0.0 < lo < hi < math.inf:
        raise ConstructionError(f"need 0 < --{lo_name} < --{hi_name} < inf, got {lo:g} and {hi:g}")
    if args.points < 1:
        raise ConstructionError("--points must be at least 1")
    return np.geomspace(lo, hi, args.points)


def _cmd_phi(args, argv) -> int:
    phi = _phi_from_args(args)
    grid = _grid(args, args.lam, "lmin", "lmax", 1e-2, 1e2)
    vals = np.atleast_1d(phi(grid))
    # ell stays scalar: an array power may round differently from pow
    ell = [v / lam ** (phi.alpha / 2.0) for lam, v in zip(grid, vals)]
    _emit({"lambda": grid, "phi": vals, "psi": grid / vals, "ell": ell}, args, argv)
    return 0


def _cmd_density(args, argv) -> int:
    phi = _phi_from_args(args)
    grid = _grid(args, args.t, "tmin", "tmax", 1e-3, 1.0)
    _emit(density_table(phi, grid), args, argv)
    return 0


def _cmd_kernel(args, argv) -> int:
    phi = _phi_from_args(args)
    d = args.dim
    if args.r is not None:
        r = args.r
        g = green_function(phi, d, r)
        j = jump_kernel(phi, d, r)
        pr = float(phi(r**-2.0))
        table = {"r": [r], "G": [g], "J": [j],
                 "g_ratio": [g * r**d * pr], "j_ratio": [j * r**d / pr]}
    else:
        r_min = 1e-2 if args.rmin is None else args.rmin
        r_max = 1.0 if args.rmax is None else args.rmax
        table = build_kernel_table(phi, d, r_min, r_max, args.points).columns(phi)
    _emit(table, args, argv)
    return 0


def _cmd_ladder(args, argv) -> int:
    phi = _phi_from_args(args)
    if args.which == "chi":
        grid = _grid(args, args.lam, "lmin", "lmax", 1e-2, 1e2)
        chi = np.atleast_1d(ladder_exponent_chi(phi, grid))
        ref = np.sqrt(np.atleast_1d(phi(grid**2)))
        table = {"lambda": grid, "chi": chi, "sqrt_phi_lambda2": ref, "ratio": chi / ref}
    elif args.which == "v":
        grid = _grid(args, args.t, "tmin", "tmax", 1e-2, 1.0)
        table = {"t": grid, "v_ladder": np.atleast_1d(ladder_density_v(phi, grid)),
                 "V": np.atleast_1d(renewal_function_V(phi, grid))}
    else:
        if args.x is None or args.y is None:
            raise ConstructionError("halfline needs --x and --y")
        both = args.ymin is not None and args.ymax is not None
        ys = _grid(args, None if both else args.y, "ymin", "ymax")
        table = {"x": [args.x] * ys.size, "y": ys,
                 "G_halfline": [halfline_green(phi, args.x, y) for y in ys.tolist()]}
    _emit(table, args, argv)
    return 0


def _cmd_check(args, argv) -> int:
    phi = _phi_from_args(args)
    which = args.which
    if which == "sandwich":
        mn, mx = chi_sandwich_check(phi)
        passed = SANDWICH_LO - 1e-9 <= mn and mx <= SANDWICH_HI + 1e-9
        table = {"check": ["sandwich"], "min": [mn], "max": [mx],
                 "lo_bound": [SANDWICH_LO], "hi_bound": [SANDWICH_HI], "pass": [passed]}
    elif which == "zahle":
        rep = zahle_upper_check(phi)
        passed = rep.passed
        table = {"check": ["zahle"], "max_product": [rep.max_product],
                 "min_product": [rep.min_product], "bound": [ZAHLE_BOUND], "pass": [passed]}
    elif which == "doubling":
        doubling, shift = j_doubling_and_shift(phi, args.dim, args.K)
        passed = bool(np.isfinite(doubling) and np.isfinite(shift) and doubling > 0.0)
        table = {"check": ["doubling"], "dim": [args.dim], "K": [args.K],
                 "doubling": [doubling], "shift": [shift], "pass": [passed]}
    elif which == "asym":
        windows = [u_asymptotic_ratio(phi), mu_asymptotic_ratio(phi),
                   g_asymptotic_ratio(phi, args.dim), j_asymptotic_ratio(phi, args.dim)]
        spread = [win.spread for win in windows]
        ok = [bool(np.isfinite(s) and s < 1e3) for s in spread]
        passed = all(ok)
        table = {"check": ["asym"] * 4, "quantity": ["u", "mu", "G", "j"],
                 "lo": [win.lo for win in windows], "hi": [win.hi for win in windows],
                 "spread": spread, "pass": ok}
    elif which == "harnack":
        rep = harnack_ratio(phi, args.dim, args.r, args.paths, args.seed, args.eps)
        passed = rep.passed
        table = {"check": ["harnack"], "dim": [args.dim], "r": [args.r],
                 "ratio": [rep.ratio], "refinement_delta": [rep.refinement_delta],
                 "delta_paths": [rep.delta_paths], "delta_grid": [rep.delta_grid],
                 "pass": [passed]}
    else:
        rep = bhp_ratio_check(phi, args.r, args.paths, args.seed, args.eps, domain=args.domain)
        passed = rep.passed
        table = {"check": ["bhp"], "domain": [args.domain], "r": [args.r],
                 "ratio": [rep.spread], "refinement_delta": [rep.delta_paths],
                 "pass": [passed]}
    _emit(table, args, argv)
    return 0 if passed else 1


def _cmd_simulate(args, argv) -> int:
    phi = _phi_from_args(args)
    d = args.dim
    try:
        x0 = [float(s) for s in str(args.x0).split(",")]
    except ValueError:
        raise ConstructionError(f"--x0 takes comma-separated numbers, got {args.x0!r}") from None
    if len(x0) != d:
        raise ConstructionError("--x0 must supply one coordinate per dimension")
    base = scaled_config(phi, args.radius, args.paths, args.seed, epsilon=args.eps)
    cfg = replace(base, step=base.step if args.step is None else args.step,
                  horizon=base.horizon if args.horizon is None else args.horizon)
    domain = Ball(center=(0.0,) * d, radius=args.radius)
    sample = simulate_exits(phi, domain, x0, cfg)
    if args.format == "csv":
        table = {"path": np.arange(sample.tau.size), "tau": sample.tau,
                 **{f"x{k + 1}": sample.exit_position[:, k] for k in range(d)},
                 "exited_by_jump": sample.exited_by_jump}
    else:
        est = sample.mean_tau()
        table = {"mean": [est.mean], "std_error": [est.std_error],
                 "n": [est.n], "censored": [sample.censored]}
    _emit(table, args, argv)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parse_args keeps
    no state between calls, each one starts from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="sbmpot",
        description="Potential-theoretic quantities of subordinate Brownian motion",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="tabulate (lambda, phi, psi, ell)")
    _add_phi_flags(p)
    _add_common_flags(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--lmin", type=float, default=None)
    p.add_argument("--lmax", type=float, default=None)
    p.add_argument("--points", type=int, default=25)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("density", help="tabulate (t, u, mu, tail, ratios)")
    _add_phi_flags(p)
    _add_common_flags(p)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--points", type=int, default=25)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("kernel", help="tabulate (r, G, J, ratios)")
    _add_phi_flags(p)
    _add_common_flags(p)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--rmin", type=float, default=None)
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--points", type=int, default=20)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("ladder", help="ladder-height tables")
    p.add_argument("which", choices=["chi", "v", "halfline"])
    _add_phi_flags(p)
    _add_common_flags(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--lmin", type=float, default=None)
    p.add_argument("--lmax", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--tmin", type=float, default=None)
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--ymin", type=float, default=None)
    p.add_argument("--ymax", type=float, default=None)
    p.add_argument("--points", type=int, default=25)
    p.set_defaults(func=_cmd_ladder)

    p = sub.add_parser("check", help="pass/fail property checks")
    p.add_argument("which", choices=["sandwich", "zahle", "doubling", "asym",
                                     "harnack", "bhp"])
    _add_phi_flags(p)
    _add_common_flags(p)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--K", type=float, default=2.0)
    p.add_argument("--r", type=float, default=0.05)
    p.add_argument("--paths", type=int, default=1200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--domain", choices=["interval", "halfdisk"], default="interval")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="Monte Carlo first-exit sampling")
    p.add_argument("what", choices=["exit"])
    _add_phi_flags(p)
    _add_common_flags(p)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--x0", default="0")
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--horizon", type=float, default=None)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--from-manifest"]:
        if len(argv) != 2:
            sys.stderr.write("usage: sbmpot --from-manifest <path>\n")
            return 2
        try:
            with open(argv[1]) as fh:
                manifest = json.load(fh)
            argv = [str(f) for f in manifest["flags"]]
        except (OSError, KeyError, json.JSONDecodeError) as exc:
            sys.stderr.write(f"error: cannot replay manifest: {exc}\n")
            return 2
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except _USAGE_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericAccuracyError as exc:
        sys.stderr.write(f"numeric accuracy failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
