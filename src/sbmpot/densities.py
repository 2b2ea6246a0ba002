"""Potential and Levy densities of a subordinator on the real axis.

The potential measure U of a subordinator with Laplace exponent phi has
Laplace transform 1/phi, a Stieltjes function, so u is a constant
c = lim lam/phi(lam) plus a sum over the atoms of 1/phi's measure plus
(1/pi) int_0^inf e^(-ts) (-Im 1/phi(-s + i0)) ds, on the real-axis rule of
:mod:`sbmpot.laplace`.  Where a kind has a closed form (u of the stable kind,
the Levy density of several) it comes from the kind registry.  ``phi.forms``
picks the one or the other, and takes u, mu and the tail of
:func:`density_table` on one evaluation of phi per node.

Each check returns a :class:`RatioWindow`: its ratios over a grid, their
range, and the verdict of the rule the check states where it computes them.
The asymptotic windows of u and mu (and of G and j in :mod:`sbmpot.kernels`)
claim a bounded spread as t -> 0; u's window also meets the explicit upper
bound (1 - 1/e)^(-1) for every decreasing integrand, no scaling hypothesis
needed; and mu(t)/mu(t+1) stays finite on (1, inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bernstein import CompleteBernsteinFunction, eval_levy_density
from .bernstein import levy_tail  # noqa: F401  unused here; perfbench/tracing.py patches it by name
from .errors import EvaluationDomainError

__all__ = [
    "ZAHLE_BOUND",
    "potential_density_u",
    "zahle_upper_check",
    "find_scaling_constant",
    "u_asymptotic_ratio",
    "mu_asymptotic_ratio",
    "check_levy_shift_bound",
    "RatioWindow",
    "density_table",
]

# (1 - e^{-1})^{-1}: universal constant in the upper bound for u(t)*t*phi(1/t)
ZAHLE_BOUND = 1.0 / (1.0 - math.exp(-1.0))


def potential_density_u(phi: CompleteBernsteinFunction, t):
    """Potential density u(t), the density of the occupation measure of the subordinator: the kind's closed
    form, else c plus the sum of 1/phi's measure, its integral of -Im(1/phi) certified to relative 1e-9."""
    return phi.forms(("potential_density",), t)[0]


def zahle_upper_check(phi: CompleteBernsteinFunction, t_grid=None) -> RatioWindow:
    """u's window of :func:`u_asymptotic_ratio` on a grid in (0, 1], passed when its max is at most
    (1-1/e)^(-1) + 1e-6.

    The bound is unconditional for decreasing potential densities, so a
    violation beyond 1e-6 indicates a numerical problem, not a modelling
    one.
    """
    grid = _small_times(t_grid)
    if not np.all((grid > 0.0) & (grid <= 1.0)):
        raise EvaluationDomainError("the Zahle check's grid must lie in (0, 1]")
    ratios = u_asymptotic_ratio(phi, grid).ratios
    return RatioWindow.of(grid, ratios, lambda lo, hi: hi <= ZAHLE_BOUND + 1e-6)


def find_scaling_constant(phi: CompleteBernsteinFunction, delta: float, s0: float = 1.0) -> float:
    """Best constant a of the weak scaling phi(lam*t) >= a * lam**delta * phi(t) for lam >= 1, t >= 1/s0:
    the inf over the grid of phi(lam*t)/(lam**delta phi(t)), for delta in (0, 1) and s0 in (0, inf)."""
    if not (0.0 < delta < 1.0 and 0.0 < s0 < math.inf):
        raise EvaluationDomainError(f"need delta in (0, 1) and s0 in (0, inf), got {delta:g} and {s0:g}")
    lams = np.geomspace(1.0, 1e6, 60)
    ts = np.geomspace(1.0 / s0, 1e6 / s0, 60)
    ratio = np.atleast_1d(phi(np.outer(lams, ts))) / (
        lams[:, None] ** delta * np.atleast_1d(phi(ts))[None, :]
    )
    return float(np.min(ratio))


@dataclass(frozen=True)
class RatioWindow:
    """Ratios over a grid, their least and greatest value, and the verdict of the check that made them."""

    grid: np.ndarray
    ratios: np.ndarray
    lo: float
    hi: float
    passed: bool

    @classmethod
    def of(cls, grid, ratios, rule: Callable[[float, float], bool]) -> "RatioWindow":
        """The window of ``ratios`` over ``grid``, passed when ``rule(lo, hi)`` holds."""
        ratios = np.asarray(ratios, dtype=float)
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        return cls(grid=grid, ratios=ratios, lo=lo, hi=hi, passed=bool(rule(lo, hi)))

    @property
    def spread(self) -> float:
        """hi/lo, or inf once the window reaches zero or below: a ratio
        window that is not positive has no finite spread."""
        return self.hi / self.lo if self.lo > 0.0 else math.inf

    @staticmethod
    def bounded(lo: float, hi: float) -> bool:
        """The asymptotic claim's rule: a positive window whose spread hi/lo is under 1e3."""
        return lo > 0.0 and hi / lo < 1e3


def _small_times(t_grid) -> np.ndarray:
    return np.asarray(t_grid if t_grid is not None else np.geomspace(1e-6, 1.0, 50), dtype=float)


def u_asymptotic_ratio(phi: CompleteBernsteinFunction, t_grid=None) -> RatioWindow:
    """u(t) * t * phi(1/t) over a small-time window; bounded spread is the claim."""
    grid = _small_times(t_grid)
    u = np.atleast_1d(potential_density_u(phi, grid))
    return RatioWindow.of(grid, u * grid * np.atleast_1d(phi(1.0 / grid)), RatioWindow.bounded)


def mu_asymptotic_ratio(phi: CompleteBernsteinFunction, t_grid=None) -> RatioWindow:
    """mu(t) * t / phi(1/t) over a small-time window; bounded spread is the claim."""
    grid = _small_times(t_grid)
    mu = np.atleast_1d(eval_levy_density(phi, grid))
    return RatioWindow.of(grid, mu * grid / np.atleast_1d(phi(1.0 / grid)), RatioWindow.bounded)


def check_levy_shift_bound(phi: CompleteBernsteinFunction) -> RatioWindow:
    """mu(t)/mu(t+1) on a grid in (1, inf), passed when its sup is finite."""
    grid = np.geomspace(2.0, 64.0, 12)
    with np.errstate(divide="ignore", invalid="ignore"):  # mu underflows to 0 far out: the ratio is inf or NaN
        ratios = np.atleast_1d(eval_levy_density(phi, grid)) / np.atleast_1d(eval_levy_density(phi, grid + 1.0))
    return RatioWindow.of(grid, ratios, lambda lo, hi: math.isfinite(hi))


def density_table(phi: CompleteBernsteinFunction, t_grid) -> dict[str, np.ndarray]:
    """Columns (t, u, mu, tail, u_ratio, mu_ratio) for CSV export."""
    grid = np.asarray(t_grid, dtype=float)
    u, mu, tail = (np.atleast_1d(x) for x in phi.forms(("potential_density", "levy_density", "levy_tail"), grid))
    phi_inv_t = np.atleast_1d(phi(1.0 / grid))
    return {
        "t": grid,
        "u": u,
        "mu": mu,
        "tail": tail,
        "u_ratio": u * grid * phi_inv_t,
        "mu_ratio": mu * grid / phi_inv_t,
    }
