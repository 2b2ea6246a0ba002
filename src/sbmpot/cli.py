"""Command-line interface: evaluate, tabulate, check, simulate.

COMMANDS maps each command, or mode of ``ladder``, ``check`` and
``simulate``, to a row builder ``(phi, args) -> table`` and the flags it
reads.  The parser is derived from it, so a mode takes only its own flags
besides the exponent flags, --format and --output.  A table is built as
columns: CSV is a header plus one line per row (an empty table is one
newline), JSON a list of row objects.  A check is a one-row table;
``simulate exit`` writes one CSV row per uncensored path, or its mean exit
time as JSON.

Every command is a pure function of (flags, seed): outputs are bit-identical
across re-runs.  When --output is given a manifest JSON (command, flags,
seed or null, artifact_version, timestamp) is written alongside the
artifact, and --from-manifest replays the stored flags verbatim.

Exit codes: 0 pass, 1 check failed (a false cell in the table's ``pass``
column), 2 usage or configuration error, 3 numeric-accuracy failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable

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
    ladder_exponent_chi,
    renewal_table,
)
from .ladder import ladder_density_v, renewal_function_V  # noqa: F401  unused here; names a tracer patches
from .laplace import finite
from .montecarlo import Ball, scaled_config, simulate_exits

_USAGE_ERRORS = (
    ConstructionError,
    UnsupportedKindError,
    EvaluationDomainError,
    UndecidableError,
    NotTransientError,
    OSError,  # an --output that cannot be written
)


def _render(table: dict, fmt: str) -> str:
    """A table of equal-length columns as CSV (a header plus one line per
    row; an empty table is one newline) or as a JSON list of row objects."""
    cols = [np.asarray(col) for col in table.values()]
    if fmt == "json":
        rows = zip(*(col.tolist() for col in cols))
        return json.dumps([dict(zip(table, row)) for row in rows], indent=2) + "\n"
    if not cols[0].size:
        return "\n"
    # one format per row, its cells picked once per column from the dtype
    line = ",".join("%.17g" if col.dtype.kind == "f" else "%s" for col in cols)
    cells = [np.where(col, "true", "false") if col.dtype.kind == "b" else col for col in cols]
    return "\n".join([",".join(table), *map(line.__mod__, zip(*(c.tolist() for c in cells)))]) + "\n"


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
    if args.phi:
        return phi_from_json(args.phi)
    if args.kind is None:
        raise ConstructionError("provide --kind or --phi <json>")
    # every catalog parameter has a flag of the same name
    spec = {"kind": args.kind}
    for p in KINDS[args.kind].params:
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


def _point(args, point, lo_name, hi_name):
    """--<point>, or None; refused together with either bound of its range."""
    value = getattr(args, point)
    if value is not None and (getattr(args, lo_name) is not None
                              or getattr(args, hi_name) is not None):
        raise ConstructionError(f"give --{point} or --{lo_name}/--{hi_name}, not both")
    return value


def _grid(args, point, lo_name, hi_name, default_lo=None, default_hi=None):
    """[--<point>] when given, else --points geometric between --<lo_name>
    and --<hi_name>; a range without defaults needs both bounds."""
    single = _point(args, point, lo_name, hi_name)
    if single is not None:
        if not 0.0 < single < math.inf:
            raise ConstructionError(f"the point must lie in (0, inf), not {single:g}")
        return np.array([single])
    lo, hi = getattr(args, lo_name), getattr(args, hi_name)
    lo = default_lo if lo is None else lo
    hi = default_hi if hi is None else hi
    if lo is None or hi is None:
        raise ConstructionError(f"need --{point}, or both --{lo_name} and --{hi_name}")
    if not 0.0 < lo < hi < math.inf:
        raise ConstructionError(f"need 0 < --{lo_name} < --{hi_name} < inf, got {lo:g} and {hi:g}")
    if args.points < 1:
        raise ConstructionError("--points must be at least 1")
    return np.geomspace(lo, hi, args.points)


# Row builders, (phi, args) -> table.  Each reads only the flags its entry of
# COMMANDS lists, and calls the library through this module's globals at call
# time, so a name patched on the module is the one that runs.


def _phi_rows(phi, args) -> dict:
    grid = _grid(args, "lambda", "lmin", "lmax", 1e-2, 1e2)
    vals = np.atleast_1d(phi(grid))
    with np.errstate(all="ignore"):  # a column past the float range is refused below
        # ell stays scalar: an array power may round differently from pow
        ell = [v / lam ** (phi.alpha / 2.0) for lam, v in zip(grid, vals)]
        psi = grid / vals
    return {"lambda": grid, "phi": vals,
            **{name: finite(x, grid, f"{name} at lambda") for name, x in (("psi", psi), ("ell", ell))}}


def _density_rows(phi, args) -> dict:
    return density_table(phi, _grid(args, "t", "tmin", "tmax", 1e-3, 1.0))


def _kernel_rows(phi, args) -> dict:
    d, r = args.dim, _point(args, "r", "rmin", "rmax")
    if r is None:
        r_min = 1e-2 if args.rmin is None else args.rmin
        r_max = 1.0 if args.rmax is None else args.rmax
        return build_kernel_table(phi, d, r_min, r_max, args.points).columns(phi)
    g, j, r = green_function(phi, d, r), jump_kernel(phi, d, r), np.float64(r)
    with np.errstate(all="ignore"):  # a ratio past the float range is refused below
        pr = float(phi(r**-2.0))
        ratios = g * r**d * pr, j * r**d / pr
    return {"r": [r], "G": [g], "J": [j],
            **{name: [finite(x, r, f"{name} at r")] for name, x in zip(("g_ratio", "j_ratio"), ratios)}}


def _chi_rows(phi, args) -> dict:
    grid = _grid(args, "lambda", "lmin", "lmax", 1e-2, 1e2)
    chi = np.atleast_1d(ladder_exponent_chi(phi, grid))
    ref = np.sqrt(np.atleast_1d(phi(grid**2)))
    return {"lambda": grid, "chi": chi, "sqrt_phi_lambda2": ref, "ratio": chi / ref}


def _v_rows(phi, args) -> dict:
    return renewal_table(phi, _grid(args, "t", "tmin", "tmax", 1e-2, 1.0))


def _halfline_rows(phi, args) -> dict:
    ys = _grid(args, "y", "ymin", "ymax")
    return {"x": [args.x] * ys.size, "y": ys,
            "G_halfline": [halfline_green(phi, args.x, y) for y in ys.tolist()]}


def _sandwich_rows(phi, args) -> dict:
    win = chi_sandwich_check(phi)
    return {"check": ["sandwich"], "min": [win.lo], "max": [win.hi],
            "lo_bound": [SANDWICH_LO], "hi_bound": [SANDWICH_HI], "pass": [win.passed]}


def _zahle_rows(phi, args) -> dict:
    win = zahle_upper_check(phi)
    return {"check": ["zahle"], "max_product": [win.hi],
            "min_product": [win.lo], "bound": [ZAHLE_BOUND], "pass": [win.passed]}


def _doubling_rows(phi, args) -> dict:
    doubling, shift = j_doubling_and_shift(phi, args.dim, args.K)
    return {"check": ["doubling"], "dim": [args.dim], "K": [args.K],
            "doubling": [doubling.hi], "shift": [shift.hi], "pass": [doubling.passed]}


def _asym_rows(phi, args) -> dict:
    windows = [u_asymptotic_ratio(phi), mu_asymptotic_ratio(phi),
               g_asymptotic_ratio(phi, args.dim), j_asymptotic_ratio(phi, args.dim)]
    return {"check": ["asym"] * 4, "quantity": ["u", "mu", "G", "j"],
            "lo": [win.lo for win in windows], "hi": [win.hi for win in windows],
            "spread": [win.spread for win in windows], "pass": [win.passed for win in windows]}


def _harnack_rows(phi, args) -> dict:
    rep = harnack_ratio(phi, args.dim, args.r, args.paths, args.seed, args.eps)
    return {"check": ["harnack"], "dim": [args.dim], "r": [args.r], "ratio": [rep.ratio],
            "refinement_delta": [max(rep.delta_paths, rep.delta_grid)],
            "delta_paths": [rep.delta_paths], "delta_grid": [rep.delta_grid],
            "pass": [rep.passed]}


def _bhp_rows(phi, args) -> dict:
    rep = bhp_ratio_check(phi, args.r, args.paths, args.seed, args.eps, domain=args.domain)
    return {"check": ["bhp"], "domain": [args.domain], "r": [args.r], "ratio": [rep.spread],
            "refinement_delta": [rep.delta_paths], "pass": [rep.passed]}


def _exit_rows(phi, args) -> dict:
    d = args.dim
    try:  # the ball's centre, the origin, unless --x0 is given
        x0 = [0.0] * d if args.x0 is None else [float(s) for s in str(args.x0).split(",")]
    except ValueError:
        raise ConstructionError(f"--x0 takes comma-separated numbers, got {args.x0!r}") from None
    if len(x0) != d:
        raise ConstructionError("--x0 must supply one coordinate per dimension")
    base = scaled_config(phi, args.radius, args.paths, args.seed, epsilon=args.eps)
    cfg = replace(base, step=base.step if args.step is None else args.step,
                  horizon=base.horizon if args.horizon is None else args.horizon)
    sample = simulate_exits(phi, Ball(center=(0.0,) * d, radius=args.radius), x0, cfg)
    if args.format == "csv":
        return {"path": np.arange(sample.tau.size), "tau": sample.tau,
                **{f"x{k + 1}": sample.exit_position[:, k] for k in range(d)},
                "exited_by_jump": sample.exited_by_jump}
    est = sample.mean_tau()
    return {"mean": [est.mean], "std_error": [est.std_error],
            "n": [est.n], "censored": [sample.censored]}


# Every flag a command may read, declared once as its argparse keywords; an
# entry of COMMANDS may replace some of them for its own parser.
_FLAGS = {
    **{name: {"type": float} for name in ("lambda", "lmin", "lmax", "t", "tmin", "tmax", "rmin",
                                         "rmax", "y", "ymin", "ymax", "step", "horizon")},
    "r": {"type": float, "default": 0.05},
    "x": {"type": float, "required": True},
    "points": {"type": int, "default": 25},
    "dim": {"type": int, "default": 1},
    "K": {"type": float, "default": 2.0},
    "paths": {"type": int, "default": 1200},
    "seed": {"type": int, "default": 0},
    "eps": {"type": float, "default": 1e-4,
            "help": "truncation level of compound increments; exact ones (the stable and sum kinds, "
                    "and relativistic with m*dt <= 1, dt the skeleton step, at an index "
                    "above about 0.103) read none"},
    "domain": {"choices": ["interval", "halfdisk"], "default": "interval"},
    "radius": {"type": float, "default": 1.0},
    "x0": {},
}


@dataclass(frozen=True)
class Command:
    """One ``sbmpot`` command, or mode of one: its row builder, the flags it
    reads besides the exponent flags, --format and --output, and the argparse
    keywords that replace _FLAGS' for it."""

    build: Callable  # (phi, args) -> table of equal-length columns
    flags: tuple = ()
    overrides: dict = field(default_factory=dict)


COMMANDS = {
    "phi": Command(_phi_rows, ("lambda", "lmin", "lmax", "points")),
    "density": Command(_density_rows, ("t", "tmin", "tmax", "points")),
    "kernel": Command(_kernel_rows, ("dim", "r", "rmin", "rmax", "points"),
                      {"dim": {"required": True}, "r": {"default": None}, "points": {"default": 20}}),
    "ladder chi": Command(_chi_rows, ("lambda", "lmin", "lmax", "points")),
    "ladder v": Command(_v_rows, ("t", "tmin", "tmax", "points")),
    "ladder halfline": Command(_halfline_rows, ("x", "y", "ymin", "ymax", "points")),
    "check sandwich": Command(_sandwich_rows),
    "check zahle": Command(_zahle_rows),
    "check doubling": Command(_doubling_rows, ("dim", "K")),
    "check asym": Command(_asym_rows, ("dim",)),
    "check harnack": Command(_harnack_rows, ("dim", "r", "paths", "seed", "eps")),
    "check bhp": Command(_bhp_rows, ("r", "paths", "seed", "eps", "domain")),
    "simulate exit": Command(_exit_rows, ("dim", "radius", "x0", "paths", "seed", "eps", "step",
                                          "horizon"), {"paths": {"required": True}}),
}

_HELP = {
    "phi": "tabulate (lambda, phi, psi, ell)",
    "density": "tabulate (t, u, mu, tail, ratios)",
    "kernel": "tabulate (r, G, J, ratios)",
    "ladder": "ladder-height tables",
    "check": "pass/fail property checks",
    "simulate": "Monte Carlo first-exit sampling",
}


class _CommandParser(argparse.ArgumentParser):
    """The parser of a command or mode: it refuses an argument it does not
    read with its own usage line, which lists the flags it takes, where the
    top-level parser would print its own."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, derived from COMMANDS and built once per
    process: parse_args keeps no state between calls, each one starts from a
    fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="sbmpot",
        description="Potential-theoretic quantities of subordinate Brownian motion",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    modes = {}
    for name, cmd in COMMANDS.items():
        command, _, mode = name.partition(" ")
        if mode and command not in modes:
            modes[command] = sub.add_parser(command, help=_HELP[command]).add_subparsers(
                dest="mode", required=True, parser_class=_CommandParser)
        p = modes[command].add_parser(mode) if mode else sub.add_parser(command, help=_HELP[command])
        _add_phi_flags(p)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--output", default=None)
        for flag in cmd.flags:
            p.add_argument(f"--{flag}", **{**_FLAGS[flag], **cmd.overrides.get(flag, {})})
        p.set_defaults(build=cmd.build)
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
            if not (isinstance(manifest, dict) and isinstance(manifest.get("flags"), list)):
                raise ValueError("it is not a JSON object whose flags are a list")
            argv = [str(f) for f in manifest["flags"]]
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"error: cannot replay manifest: {exc}\n")
            return 2
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        table = args.build(_phi_from_args(args), args)
        _emit(table, args, argv)
    except _USAGE_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericAccuracyError as exc:
        sys.stderr.write(f"numeric accuracy failure: {exc}\n")
        return 3
    return 0 if all(table.get("pass", ())) else 1


if __name__ == "__main__":
    sys.exit(main())
