"""Empirical Harnack, Carleson, and boundary Harnack ratio checks.

A harmonic function is represented by its boundary data: u(x) =
E_x[data(X_tau_D)], evaluated by the exit sampler.  All checks share one
simulation per start point across the whole probe family (the data
functions are evaluated on the same exit positions), and the refinement
comparisons reuse the same paths: the base estimate reads the first quarter
of each path block, the paths-refined estimate reads all of it, and the
grid-refined estimate adds the interleaved start points.

The Carleson and boundary Harnack checks compare u(x) near a boundary point
Q with u at the corkscrew point A_r(Q) = Q +- r/2, the point at distance r/2
from Q on the inward axis.

Constants here are existence-only, so nothing asserts a particular ratio
value; the checks measure the ratio and require it to be finite and stable
under refinement, and each boolean verdict carries a three-sigma margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bernstein import CompleteBernsteinFunction
from .errors import EvaluationDomainError
from .montecarlo import (Ball, HalfDisk, Interval, McEstimate, PathConfig, _as_points, _check_radius,
                         _exit_positions, _row_norm, _run_batches, scaled_config)

__all__ = [
    "shell_probes_1d",
    "sector_probes_2d",
    "mc_harmonic",
    "harnack_ratio",
    "HarnackReport",
    "carleson_check",
    "CarlesonReport",
    "bhp_ratio_check",
    "BhpReport",
]


# largest relative change of a ratio under path or grid refinement that
# still counts as stable
_STABILITY_TOL = 0.2


def _band(*limits) -> Callable:
    """Boundary data: the indicator that lo <= coord(x) < hi for every
    (coord, lo, hi) in limits."""

    def data(x):
        inside = np.ones(x.shape[0], dtype=bool)
        for coord, lo, hi in limits:
            c = coord(x)
            inside &= (c >= lo) & (c < hi)
        return inside.astype(float)

    return data


def _axis(j: int) -> Callable:
    return lambda x: x[:, j]


def _angle(x):
    return np.arctan2(x[:, 1], x[:, 0])


def _shells(R: float, coord: Callable) -> list:
    """Three dyadic shells R*[1, 2), [2, 4), [4, 8) of coord plus the far
    tail beyond 8R; the tail replaces ever-thinner shells whose hit counts
    would be too noisy."""
    bands = [(1.0, 2.0), (2.0, 4.0), (4.0, 8.0), (8.0, math.inf)]
    return [_band((coord, R * lo_m, R * hi_m)) for lo_m, hi_m in bands]


def shell_probes_1d(R: float) -> list:
    """Eight one-sided probes outside [-R, R]: the shells on each side,
    alternating right and left, nearest first."""
    right = _shells(R, _axis(0))
    # negation is exact: -y in [lo, hi) is y in (-hi, -lo]
    left = _shells(R, lambda x: -x[:, 0])
    return [p for pair in zip(right, left) for p in pair]


def sector_probes_2d(R: float) -> list:
    """Eight angular-sector indicators of the annulus [R, 4R)."""
    return [_band((_row_norm, R, 4.0 * R),
                  (_angle, k * math.pi / 4.0 - math.pi, (k + 1) * math.pi / 4.0 - math.pi))
            for k in range(8)]


def _family_values(phi, domain, grid, datas, cfg: PathConfig, walk: bool = False):
    """Per-path data values for every (start, probe): shape (m, paths, K).

    NaN marks censored paths.  One simulation per start point serves the
    whole probe family, and path ids restart at zero for each start, so
    every grid point sees identical driving noise (common random numbers).
    Ratios of the resulting means are far less noisy than with independent
    paths, while each mean stays an unbiased standalone estimate.  All
    starts march in one run, so the straggler tail is paid once per batch
    rather than once per start, and rows that share a path id share every
    draw, which the march and the walk make once per id, not once per start.

    The march couples paths by shift: path i moves by the same increments
    from every start.  Walk-on-spheres (``walk``, taken by the stable kind
    only) couples them by scale: sphere k of path i has the same radius
    multiple and direction, but each sphere's radius is that start's own
    gap, so near a boundary, where the gaps of nearby starts differ most,
    the coupling is weak.

    A start that repeats an earlier one bit for bit (the corkscrew point of
    bhp_ratio_check) is run once: a path's record depends only on its start
    and its id, so the repeat's values are a copy of the first's.
    """
    grid = _as_points(grid, domain.d)
    n = cfg.paths
    # the distinct starts, by their bytes, and each grid point's among them
    _, first, row = np.unique(np.ascontiguousarray(grid).view(f"V{grid.itemsize * grid.shape[1]}"),
                              return_index=True, return_inverse=True)
    starts = np.repeat(grid[first], n, axis=0)
    ids = np.tile(np.arange(n, dtype=np.uint64), first.size)
    pos, ok = _exit_positions(phi, domain, starts, cfg, ids, march=_run_batches, walk=walk)
    vals = np.full((starts.shape[0], len(datas)), np.nan)
    for k, data in enumerate(datas):
        vals[ok, k] = data(pos[ok])
    row = row.ravel()
    return vals.reshape(-1, n, len(datas))[row], int((~ok).reshape(-1, n)[row].sum())


def _family_means(vals: np.ndarray, n_use: int):
    """Means and standard errors per (start, probe) over the first n_use
    paths, censored ones left out.  As in McEstimate.from_values, a start
    with one uncensored path has se = inf and one with none mean and se NaN."""
    sub = vals[:, :n_use, :]
    counts = np.sum(~np.isnan(sub[:, :, 0]), axis=1)
    many, one = counts > 1, counts == 1
    means = np.full((sub.shape[0], sub.shape[2]), np.nan)
    ses = np.full_like(means, np.nan)
    means[many] = np.nanmean(sub[many], axis=1)
    ses[many] = np.nanstd(sub[many], axis=1, ddof=1) / np.sqrt(counts[many])[:, None]
    means[one] = np.nansum(sub[one], axis=1)
    ses[one] = math.inf
    return means, ses


def _base_and_refined_means(phi, domain, grid, datas, run_cfg: PathConfig, walk: bool = False):
    """Family means over the first quarter of each start's paths (base) and
    over all of them (paths-refined), from one run; plus the censored count."""
    vals, censored = _family_values(phi, domain, grid, datas, run_cfg, walk)
    means_base, _ = _family_means(vals, run_cfg.paths // 4)
    means_full, _ = _family_means(vals, run_cfg.paths)
    return means_base, means_full, censored


def mc_harmonic(phi, boundary_data: Callable, domain, grid, cfg: PathConfig) -> list:
    """E_x[boundary_data(X_tau)], tau the exit time of domain, with std
    errors: one McEstimate per grid point x, of shape (d,) for one point or
    (n, d) for several, d the domain's dimension.  Every kind marches."""
    vals, _ = _family_values(phi, domain, grid, [boundary_data], cfg)
    out = []
    for i in range(vals.shape[0]):
        v = vals[i, :, 0]
        out.append(McEstimate.from_values(v[~np.isnan(v)]))
    return out


def _refinement(base: float, *refined: float):
    """Relative changes of the refined ratios from the base one, and whether
    all are under _STABILITY_TOL (a non-finite ratio makes a delta fail)."""
    deltas = [abs(ref - base) / base if math.isfinite(base) else math.inf for ref in refined]
    return deltas, all(delta < _STABILITY_TOL for delta in deltas)


def _sup_inf_ratio(means: np.ndarray, idx) -> float:
    sel = means[idx, :]
    lo = sel.min(axis=0)
    hi = sel.max(axis=0)
    if np.any(lo <= 0.0):
        return math.inf
    return float(np.max(hi / lo))


@dataclass(frozen=True)
class HarnackReport:
    ratio: float
    ratio_paths_refined: float
    ratio_grid_refined: float
    delta_paths: float
    delta_grid: float
    censored: int
    passed: bool


def harnack_ratio(
    phi: CompleteBernsteinFunction,
    d: int,
    r: float,
    paths: int,
    seed: int,
    epsilon: float = 1e-4,
) -> HarnackReport:
    """Measured sup/inf ratio over B(0, r) for probes harmonic in B(0, 17r).

    paths is the base path count per start; the simulation runs 4x that so
    the paths-refined and grid-refined ratios come from the same paths.
    The probes are eight dyadic shells (d = 1) or eight annular sectors
    (d >= 2), all supported outside the harmonicity ball.  Step and horizon
    are scaled_config's at radius 17r, with seed and the compound sampler's
    truncation level epsilon.  The stable kind walks on spheres: the starts
    lie deep inside B(0, 17r), where its coupling across starts is as good
    as the march's.  Every other kind marches on the increments its kind
    picks.
    """
    if d < 1:
        raise EvaluationDomainError(f"dimension must be at least 1, got {d}")
    _check_radius(r)
    big_r = 17.0 * r
    run_cfg = scaled_config(phi, big_r, 4 * paths, seed, epsilon=epsilon)
    domain = Ball(center=(0.0,) * d, radius=big_r)
    datas = shell_probes_1d(big_r) if d == 1 else sector_probes_2d(big_r)
    fine = np.linspace(-0.75 * r, 0.75 * r, 13)
    if d == 1:
        grid = fine[:, None]
    else:
        grid = np.zeros((13, d))
        grid[:, 0] = fine
    means_base, means_full, censored = _base_and_refined_means(
        phi, domain, grid, datas, run_cfg, walk=True)
    coarse_idx = np.arange(0, 13, 2)
    fine_idx = np.arange(13)
    r_base = _sup_inf_ratio(means_base, coarse_idx)
    r_paths = _sup_inf_ratio(means_full, coarse_idx)
    r_grid = _sup_inf_ratio(means_base, fine_idx)
    (d_paths, d_grid), passed = _refinement(r_base, r_paths, r_grid)
    return HarnackReport(
        ratio=r_base,
        ratio_paths_refined=r_paths,
        ratio_grid_refined=r_grid,
        delta_paths=d_paths,
        delta_grid=d_grid,
        censored=censored,
        passed=passed,
    )


@dataclass(frozen=True)
class CarlesonReport:
    floor: float
    floor_sigma: float
    inconclusive: bool
    passed: bool
    corkscrew_value: float


def carleson_check(
    phi: CompleteBernsteinFunction,
    interval: Interval,
    Q: float,
    r: float,
    paths: int,
    seed: int,
    epsilon: float = 1e-4,
) -> CarlesonReport:
    """Floor of u(A_r(Q))/u(x) over x near Q, for data vanishing on D^c near Q.

    D is the interval, Q one of its endpoints, and A_r(Q) the corkscrew
    point at distance r/2 inside D.  Probes vanish on D^c intersected with
    B(Q, 2r): dyadic shells outside Q beyond distance 2r, the deepest
    extended to a full tail so its hit count stays usable.  Wide confidence
    intervals (tiny r or few paths) yield inconclusive=True rather than a
    failure.  Each start marches ``paths`` paths on scaled_config's skeleton
    at radius r, with step fraction 1e-2.  Every kind marches:
    walk-on-spheres couples starts this close to the boundary too weakly
    (see _family_values).
    """
    if not (Q == interval.lo or Q == interval.hi):
        raise EvaluationDomainError("Q must be an endpoint of the interval")
    inward = 1.0 if Q == interval.lo else -1.0
    a_pt = Q + inward * r / 2.0
    datas = _shells(2.0 * r, lambda x: -inward * (x[:, 0] - Q))
    xs = Q + inward * np.linspace(r / 6.0, r, 6)
    grid = np.concatenate([xs, [a_pt]])[:, None]
    run_cfg = scaled_config(phi, r, paths, seed, 1e-2, epsilon=epsilon)
    vals, _ = _family_values(phi, interval, grid, datas, run_cfg)
    means, ses = _family_means(vals, paths)
    u_a, se_a = means[-1, :], ses[-1, :]
    u_x, se_x = means[:-1, :], ses[:-1, :]
    if np.any(u_x <= 0.0) or np.any(u_a <= 0.0):
        return CarlesonReport(0.0, math.nan, True, False, float(a_pt))
    ratios = u_a[None, :] / u_x
    rel_sig = np.sqrt((se_a[None, :] / u_a[None, :]) ** 2 + (se_x / u_x) ** 2)
    floor_idx = np.unravel_index(np.argmin(ratios), ratios.shape)
    floor = float(ratios[floor_idx])
    sigma = float(floor * rel_sig[floor_idx])
    inconclusive = bool(np.any(rel_sig > 1.0 / 3.0))
    passed = (not inconclusive) and floor - 3.0 * sigma > 0.0
    return CarlesonReport(floor, sigma, inconclusive, passed, float(a_pt))


@dataclass(frozen=True)
class BhpReport:
    spread: float
    spread_paths_refined: float
    delta_paths: float
    censored: int
    passed: bool


def _bhp_from_means(means: np.ndarray) -> float:
    # column 0 is u, column 1 is v; last row is the corkscrew point
    u_a, v_a = means[-1, 0], means[-1, 1]
    u_x, v_x = means[:-1, 0], means[:-1, 1]
    if min(u_a, v_a) <= 0.0 or np.any(u_x <= 0.0) or np.any(v_x <= 0.0):
        return math.inf
    ratio = (u_x / v_x) * (v_a / u_a)
    return float(ratio.max() / ratio.min())


def bhp_ratio_check(
    phi: CompleteBernsteinFunction,
    r: float,
    paths: int,
    seed: int,
    epsilon: float = 1e-4,
    domain: str = "interval",
) -> BhpReport:
    """Spread of (u(x)/v(x)) * (v(A)/u(A)) over x in D near the boundary point.

    The interval case takes D = (0, inf) localised to (0, 2r) with Q = 0;
    the halfdisk case takes the upper half-plane localised to the upper
    half-disk of radius 2r.  The probes u and v are indicators of [2r, 8r)
    and [8r, 32r) on the inward axis (radially, in the upper half-plane, for
    the half-disk), vanishing on D^c near Q as the boundary Harnack principle
    requires.  The domain gives the dimension: 1 for the interval, 2 for
    the half-disk.  paths is the base count; 4x runs, on scaled_config's
    skeleton at radius 2r, and the paths-refined spread reuses the same
    simulation.  Every kind marches, as in carleson_check.
    """
    _check_radius(r)
    run_cfg = scaled_config(phi, 2.0 * r, 4 * paths, seed, epsilon=epsilon)
    if domain == "interval":
        sim_domain = Interval(0.0, 2.0 * r)
        depth, side = _axis(0), ()
        xs = np.linspace(r / 12.0, r / 2.0, 6)
        grid = np.concatenate([xs, [r / 2.0]])[:, None]
    elif domain == "halfdisk":
        sim_domain = HalfDisk(radius=2.0 * r)
        # x_2 > 0 is x_2 >= the smallest positive float
        depth, side = _row_norm, ((_axis(1), math.ulp(0.0), math.inf),)
        heights = np.linspace(r / 12.0, r / 2.0, 6)
        grid = np.zeros((7, 2))
        grid[:6, 1] = heights
        grid[6, 1] = r / 2.0
    else:
        raise EvaluationDomainError(f"domain must be 'interval' or 'halfdisk', got {domain!r}")
    u_data = _band((depth, 2.0 * r, 8.0 * r), *side)
    v_data = _band((depth, 8.0 * r, 32.0 * r), *side)
    means_base, means_full, censored = _base_and_refined_means(
        phi, sim_domain, grid, [u_data, v_data], run_cfg)
    s_base = _bhp_from_means(means_base)
    s_full = _bhp_from_means(means_full)
    (delta,), passed = _refinement(s_base, s_full)
    return BhpReport(
        spread=s_base,
        spread_paths_refined=s_full,
        delta_paths=delta,
        censored=censored,
        passed=passed,
    )
