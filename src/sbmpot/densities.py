"""Potential and Levy densities of a subordinator on the real axis.

The potential measure U of a subordinator with Laplace exponent phi has
Laplace transform 1/phi, a Stieltjes function, so u is a constant
c = lim lam/phi(lam) plus a sum over the atoms of 1/phi's measure plus
(1/pi) int_0^inf e^(-ts) (-Im 1/phi(-s + i0)) ds, on the real-axis rule of
:mod:`sbmpot.laplace`.  Where a kind has a closed form (u of the stable kind,
the Levy density of several) it comes from the kind registry.  ``phi.forms``
picks the one or the other, and takes u, mu and the tail of
:func:`density_table` on one evaluation of phi per node.

The bound checks implemented here are the two sides of the small-time
comparison u(t) ~ 1/(t*phi(1/t)):

* the upper bound holds with the explicit constant (1 - 1/e)^(-1) for every
  decreasing integrand, no scaling hypothesis needed;
* the lower bound needs a scaling witness phi(lam*t) >= a * lam**delta * phi(t),
  which is what :class:`ScalingWitness` records and verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bernstein import CompleteBernsteinFunction, eval_levy_density
from .bernstein import levy_tail  # noqa: F401  unused here; perfbench/tracing.py patches it by name

__all__ = [
    "ZAHLE_BOUND",
    "potential_density_u",
    "zahle_upper_check",
    "ZahleReport",
    "ScalingWitness",
    "find_scaling_constant",
    "verify_scaling_condition",
    "u_asymptotic_ratio",
    "mu_asymptotic_ratio",
    "RatioWindow",
    "density_table",
]

# (1 - e^{-1})^{-1}: universal constant in the upper bound for u(t)*t*phi(1/t)
ZAHLE_BOUND = 1.0 / (1.0 - math.exp(-1.0))


def potential_density_u(phi: CompleteBernsteinFunction, t):
    """Potential density u(t), the density of the occupation measure of the subordinator: the kind's closed
    form, else c plus the sum of 1/phi's measure, its integral of -Im(1/phi) certified to relative 1e-9."""
    return phi.forms(("potential_density",), t)[0]


@dataclass(frozen=True)
class ZahleReport:
    grid: np.ndarray
    products: np.ndarray
    max_product: float
    min_product: float
    bound: float
    passed: bool


def zahle_upper_check(phi: CompleteBernsteinFunction, t_grid=None) -> ZahleReport:
    """max over the grid of u(t) * t * phi(1/t), checked against (1-1/e)^(-1).

    The bound is unconditional for decreasing potential densities, so a
    violation beyond 1e-6 indicates a numerical problem, not a modelling
    one.
    """
    grid = _small_times(t_grid)
    if np.any(grid <= 0.0) or np.any(grid > 1.0):
        raise ValueError("grid must lie in (0, 1]")
    win = u_asymptotic_ratio(phi, grid)
    return ZahleReport(
        grid=grid,
        products=win.ratios,
        max_product=win.hi,
        min_product=win.lo,
        bound=ZAHLE_BOUND,
        passed=win.hi <= ZAHLE_BOUND + 1e-6,
    )


@dataclass(frozen=True)
class ScalingWitness:
    """Witness of phi(lam*t) >= a * lam**delta * phi(t) for lam >= 1, t >= 1/s0."""

    delta: float
    a_const: float
    s0: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.a_const <= 0.0 or self.s0 <= 0.0:
            raise ValueError("witness constants must be positive")


def find_scaling_constant(phi: CompleteBernsteinFunction, delta: float, s0: float = 1.0) -> float:
    """Best constant a for a given delta: inf over the grid of phi(lam*t)/(lam**delta phi(t))."""
    lams = np.geomspace(1.0, 1e6, 60)
    ts = np.geomspace(1.0 / s0, 1e6 / s0, 60)
    ratio = np.atleast_1d(phi(np.outer(lams, ts))) / (
        lams[:, None] ** delta * np.atleast_1d(phi(ts))[None, :]
    )
    return float(np.min(ratio))


def verify_scaling_condition(phi: CompleteBernsteinFunction, witness: ScalingWitness) -> bool:
    """Grid verification of the scaling witness."""
    return find_scaling_constant(phi, witness.delta, witness.s0) >= witness.a_const


@dataclass(frozen=True)
class RatioWindow:
    grid: np.ndarray
    ratios: np.ndarray
    lo: float
    hi: float

    @classmethod
    def of(cls, grid, ratios) -> "RatioWindow":
        ratios = np.asarray(ratios, dtype=float)
        return cls(grid=grid, ratios=ratios, lo=float(np.min(ratios)), hi=float(np.max(ratios)))

    @property
    def spread(self) -> float:
        """hi/lo, or inf once the window reaches zero or below: a ratio
        window that is not positive has no finite spread."""
        return self.hi / self.lo if self.lo > 0.0 else math.inf


def _small_times(t_grid) -> np.ndarray:
    return np.asarray(t_grid if t_grid is not None else np.geomspace(1e-6, 1.0, 50), dtype=float)


def u_asymptotic_ratio(phi: CompleteBernsteinFunction, t_grid=None) -> RatioWindow:
    """u(t) * t * phi(1/t) over a small-time window; bounded spread is the claim."""
    grid = _small_times(t_grid)
    u = np.atleast_1d(potential_density_u(phi, grid))
    return RatioWindow.of(grid, u * grid * np.atleast_1d(phi(1.0 / grid)))


def mu_asymptotic_ratio(phi: CompleteBernsteinFunction, t_grid=None) -> RatioWindow:
    """mu(t) * t / phi(1/t) over a small-time window."""
    grid = _small_times(t_grid)
    mu = np.atleast_1d(eval_levy_density(phi, grid))
    return RatioWindow.of(grid, mu * grid / np.atleast_1d(phi(1.0 / grid)))


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
