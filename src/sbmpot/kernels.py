"""Green function and jump kernel of the subordinate Brownian motion.

Both kernels are subordination integrals of the Gaussian heat kernel p(t, x),

    G(x) = int_0^inf p(t, x) u(t) dt,      j(r) = int_0^inf p(t, x) mu(t) dt,

with u the potential density and mu the Levy density of the subordinator.  Both are Laplace
transforms of densities on phi's cut (:mod:`sbmpot.densities`), so the order swaps, the heat
kernel becomes the Brownian resolvent, and each kernel is one positive real-axis integral

    (2 pi)^(-d/2) r^(2-d) (1/pi) int_0^inf k_d(r^2 s) rho(s) ds,

with rho = -Im 1/phi(-s + i0) for G and rho = Im phi(-s + i0) for j, and k_d the kernel of
:func:`sbmpot.laplace.resolvent_kernel`, plus sums of resolvents over the atoms of phi's Stieltjes
measures (:meth:`sbmpot.bernstein.CompleteBernsteinFunction.sums`; Riesz's closed kernels for the stable
kind).  u's constant c = lim lam/phi(lam) adds c Gamma(d/2 - 1)/(4 pi^(d/2) r^(d-2)) to G in d >= 3.
phi is evaluated once per node for a whole radius grid, each radius certified to relative 1e-9 and
independent of its grid bit for bit; :func:`subordination_integral` is that integral for any rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import laplace
from .bernstein import CompleteBernsteinFunction
from .densities import RatioWindow
from .errors import EvaluationDomainError, NotTransientError, NumericAccuracyError, UndecidableError
from .laplace import quad  # noqa: F401  unused here; perfbench/tracing.py patches it by name

# unused here too: names perfbench/tracing.py patches, bound until its tracer drops them
spline_potential_evaluator = spline_levy_evaluator = None

__all__ = [
    "heat_kernel",
    "transience_check",
    "subordination_integral",
    "green_function",
    "jump_kernel",
    "g_asymptotic_ratio",
    "j_asymptotic_ratio",
    "j_doubling_and_shift",
    "RadialKernelTable",
    "build_kernel_table",
]


def heat_kernel(d: int, t, r):
    """Gaussian transition density (4*pi*t)**(-d/2) * exp(-r**2/(4t))."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    out = (4.0 * math.pi * t) ** (-d / 2.0) * np.exp(-(r ** 2) / (4.0 * t))
    return float(out) if out.ndim == 0 else out


def transience_check(phi: CompleteBernsteinFunction, d: int) -> bool:
    """Whether the subordinate Brownian motion in dimension d is transient.

    d >= 3 is always transient.  In d <= 2 the criterion is a small-lambda
    growth floor: some gamma < d/2 with liminf phi(lam)/lam**gamma > 0,
    decided by the catalog's known small-lambda exponent.
    """
    if d < 1:
        raise EvaluationDomainError("dimension must be a positive integer")
    if d >= 3:
        return True
    e = phi.small_exponent
    if e is None:
        raise UndecidableError(
            "transience in d <= 2 needs a growth exponent gamma, and the catalog "
            "entry has no known small-lambda exponent"
        )
    return e < d / 2.0


def _radii(d: int, r) -> np.ndarray:
    """r as an array, once d and each radius squared are in range."""
    if d < 1:
        raise EvaluationDomainError("dimension must be a positive integer")
    laplace.squares(r, "a radius")
    return np.asarray(r, dtype=float)


def _finite(values, radii):
    bad = ~np.isfinite(values)
    if bad.any():
        raise EvaluationDomainError(f"the kernel at radius {radii.flat[np.argmax(bad)]:g} leaves the float range")
    values = values.reshape(radii.shape)
    return float(values) if radii.ndim == 0 else values


def subordination_integral(rho: Callable, d: int, r, b: float = 1.0):
    """(2 pi)^(-d/2) r^(2-d) (1/pi) int_0^inf k_d(r^2 s) rho(s) ds at each radius r, for a density rho >= 0.

    That is int_0^inf p(t, r) w(t) dt for the weight w(t) = (1/pi) int_0^inf e^(-ts) rho(s) ds.  ``rho``
    takes an array of s, with a branch point b, and is evaluated once per node for all radii; ``r`` is a
    radius or an array of them, and a radius's value depends on it alone.  The rule's errors are
    NumericAccuracyError; a radius whose kernel leaves the float range raises EvaluationDomainError.
    """
    radii, kernel = _radii(d, r), laplace.resolvent_kernel(d)
    laplace.check_reach(kernel, b, radii, "r", 2)
    values = laplace.real_axis_integral(rho, np.ravel(radii) ** 2, b, kernel)
    with np.errstate(over="ignore"):
        return _finite((2.0 * math.pi) ** (-d / 2.0) * np.ravel(radii) ** (2.0 - d) * values, radii)


def _kernel(phi: CompleteBernsteinFunction, d: int, r, side: int, power: int):
    """(2 pi)^(-d/2) r^(2-d) times the sum of phi's measure ``side`` with t = r^2 and the resolvent kernel (closed
    where the measure has it), plus the term of its constant c for p = 0, int_0^inf p(t, r) c dt."""
    radii, kernel, m = np.ravel(_radii(d, r)), laplace.resolvent_kernel(d), phi.stieltjes(side)
    if (closed := m.closed.get(("resolvent", power))) is None and m.cut:
        laplace.check_reach(kernel, phi.branch_point, radii, "r", 2)
    with np.errstate(over="ignore"):
        values = closed(d, radii) if closed else (
            (2.0 * math.pi) ** (-d / 2.0) * radii ** (2.0 - d) * phi.sums([(side, power)], [radii**2], [kernel])[0])
        if m.c > 0.0 and power == 0:
            values = values + m.c * math.gamma(d / 2.0 - 1.0) / (4.0 * math.pi ** (d / 2.0)) * radii ** (2.0 - d)
    return _finite(values, np.asarray(r, dtype=float))


def green_function(phi: CompleteBernsteinFunction, d: int, r):
    """G(x) at |x| = r, a radius or an array of them: subordination integral of the potential density."""
    if not transience_check(phi, d):
        raise NotTransientError(f"{phi.label()} is not transient in d={d}")
    return _kernel(phi, d, r, 0, 0)


def jump_kernel(phi: CompleteBernsteinFunction, d: int, r):
    """j(r), a radius or an array of them: subordination integral of the Levy density; no transience needed."""
    return _kernel(phi, d, r, 1, 1)


def _small_radii(r_grid) -> np.ndarray:
    return np.asarray(r_grid if r_grid is not None else np.geomspace(1e-3, 1.0, 30), dtype=float)


def g_asymptotic_ratio(phi: CompleteBernsteinFunction, d: int, r_grid=None) -> RatioWindow:
    """G(r) * r**d * phi(r**-2) over a small-r window; bounded spread is the claim."""
    grid = _small_radii(r_grid)
    return RatioWindow.of(grid, green_function(phi, d, grid) * grid ** d * phi(grid ** -2.0), RatioWindow.bounded)


def j_asymptotic_ratio(phi: CompleteBernsteinFunction, d: int, r_grid=None) -> RatioWindow:
    """j(r) * r**d / phi(r**-2) over a small-r window; bounded spread is the claim."""
    grid = _small_radii(r_grid)
    return RatioWindow.of(grid, jump_kernel(phi, d, grid) * grid ** d / phi(grid ** -2.0), RatioWindow.bounded)


def j_doubling_and_shift(phi: CompleteBernsteinFunction, d: int, K: float) -> tuple[RatioWindow, RatioWindow]:
    """Windows of the jump kernel's doubling ratio j(r)/j(2r) on (0, K) and unit-shift ratio j(r)/j(r+1) on
    (1, 10K), whose sups are its measured constants.  Both carry the pair's verdict: both sups finite, and
    the doubling one positive.
    """
    if not 0.0 < K < math.inf:
        raise EvaluationDomainError(f"K must lie in (0, inf), got {K:g}")
    r_small = np.geomspace(K * 1e-3, K * 0.999, 40)
    r_large = np.geomspace(1.001, 10.0 * K if 10.0 * K > 1.1 else 1.1, 40)
    j_small, j_double, j_large, j_shift = np.split(
        jump_kernel(phi, d, np.concatenate([r_small, 2.0 * r_small, r_large, r_large + 1.0])), 4)
    with np.errstate(divide="ignore", invalid="ignore"):  # j underflows to 0 far out: the ratio is inf or NaN
        doubling = RatioWindow.of(r_small, j_small / j_double, lambda lo, hi: math.isfinite(hi) and hi > 0.0)
        shift = RatioWindow.of(r_large, j_large / j_shift, lambda lo, hi: math.isfinite(hi))
    passed = doubling.passed and shift.passed
    return replace(doubling, passed=passed), replace(shift, passed=passed)


@dataclass(frozen=True)
class RadialKernelTable:
    """Tabulated G and j on a log radius grid, ready for CSV export."""

    d: int
    radii: np.ndarray
    g_values: np.ndarray
    j_values: np.ndarray

    def __post_init__(self):
        for name, vals in (("g_values", self.g_values), ("j_values", self.j_values)):
            if np.any(np.diff(vals) >= 0.0):
                raise NumericAccuracyError(f"{name} must be strictly decreasing in r")

    def columns(self, phi: CompleteBernsteinFunction) -> dict[str, np.ndarray]:
        phi_r = np.atleast_1d(phi(self.radii ** -2.0))
        return {
            "r": self.radii,
            "G": self.g_values,
            "J": self.j_values,
            "g_ratio": self.g_values * self.radii ** self.d * phi_r,
            "j_ratio": self.j_values * self.radii ** self.d / phi_r,
        }


def build_kernel_table(
    phi: CompleteBernsteinFunction,
    d: int,
    r_min: float,
    r_max: float,
    points: int,
) -> RadialKernelTable:
    if not 0.0 < r_min < r_max < math.inf:
        raise EvaluationDomainError("need 0 < r_min < r_max < inf")
    if points < 1:
        raise EvaluationDomainError("need at least one radius")
    radii = np.geomspace(r_min, r_max, points)
    return RadialKernelTable(d, radii, green_function(phi, d, radii), jump_kernel(phi, d, radii))
