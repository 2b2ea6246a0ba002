"""Green function and jump kernel of the subordinate Brownian motion.

Both kernels are subordination integrals of the Gaussian heat kernel,

    G(x) = int_0^inf p(t, x) u(t) dt,      j(r) = int_0^inf p(t, x) mu(t) dt,

with u the potential density and mu the Levy density of the subordinator.
:func:`subordination_integral` runs a trapezoid rule in log t on the
integrand formed in logs, on nodes shared by a whole radius grid, and
certifies each radius by :func:`sbmpot.laplace.halving_trapezoid`; the rest
past t = e^700 is closed by the weight's power law there.

Every entry point passes its whole radius grid in one call, G through
``_green`` (transience check, tail exponent in d <= 2, potential weight) and
j through ``_jump`` (Levy weight).  A weight, which takes an array of t, is
the kind's closed form where the registry has one, else a log-log spline,
trimmed only where 0 or not finite, of the real-axis rule's density table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import laplace
from .bernstein import CompleteBernsteinFunction
from .densities import RatioWindow, spline_levy_evaluator, spline_potential_evaluator
from .errors import EvaluationDomainError, NotTransientError, NumericAccuracyError, UndecidableError
from .laplace import quad  # noqa: F401  unused here; perfbench/tracing.py patches it by name

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


_EPSABS, _EPSREL = 1e-9, 1e-7  # targets of each subordination integral
# The rule's nodes, shared by every radius: u_k = log t_k = _U_TOP - k*h with
# h = _STEP/2**level.  A radius sums them from y = log(t/r^2) = _Y_LO, under
# which exp(-e^(-y)/4) < e^(-5500) leaves nothing of any float weight, up to
# the cut T = e^_U_TOP; past y = _Y_FAR that factor is 1 in floats, so the
# stretch above is a running sum of the nodes, one for all radii.
_U_TOP, _Y_LO, _Y_FAR = 700.0, -10.0, 37.0
_STEP, _LEVELS = 0.5, 6
_BLOCK = 1 << 16  # elements of a (radii, nodes) block


def subordination_integral(w: Callable, d: int, r, gamma: float | None = None):
    """int_0^inf (4 pi t)**(-d/2) exp(-r**2/(4t)) w(t) dt for decreasing w, at each radius r.

    ``r`` is a radius or an array of them, ``w`` takes an array of t, and a
    radius's value depends on it alone.  Past T the weight is taken as the
    power c*t**p it follows over the last unit of log t; the rest, c (4 pi)^(-d/2)
    (r^2/4)^(-a) Gamma(a) P(a, r^2/4T) with a = d/2 - p - 1, is F(T)/a to the
    last bit (F the integrand in log t) as r^2/4T < 1e-18, and 0 for a weight
    that is 0 at T.  In d <= 2 the rest only converges under a declared decay
    w(t) <= c*t**(gamma-1) with gamma < d/2, which the caller must state; an a
    under half of d/2 - gamma (d/2 - 1 in d >= 3) is refused.  A radius whose
    integral leaves the float range raises EvaluationDomainError.
    """
    if d < 1:
        raise EvaluationDomainError("dimension must be a positive integer")
    if d <= 2:
        if gamma is None:
            raise UndecidableError("d <= 2 requires a declared tail exponent gamma < d/2")
        if gamma >= d / 2.0:
            raise EvaluationDomainError("tail exponent must satisfy gamma < d/2")
    radii = np.asarray(r, dtype=float)
    for x in radii.flat:
        if not 0.0 < x < math.inf:
            raise EvaluationDomainError(f"radius must lie in (0, inf), got {x:g}")
        if not math.log(np.finfo(float).tiny) < 2.0 * math.log(x) < _U_TOP - 1.0 - _Y_FAR:
            raise EvaluationDomainError(f"radius {x:g} squared leaves the float range")
    log_r2 = np.array([2.0 * math.log(x) for x in radii.flat])

    def log_f(u):  # the log integrand in u = log t but its Gaussian factor; inf past floats
        with np.errstate(over="ignore", divide="ignore"):
            return np.log(w(np.exp(u))) + (1.0 - d / 2.0) * u - (d / 2.0) * math.log(4.0 * math.pi)

    f_cut, f_below = log_f(np.array([_U_TOP, _U_TOP - 1.0]))
    rest = 0.0
    if f_cut > -math.inf:
        declared = d / 2.0 - gamma if d <= 2 else d / 2.0 - 1.0
        rate = f_below - f_cut
        # a tabulated weight is continued with its end slope, which need not
        # have reached the limit (0.87 of the declared rate for
        # sum_of_stables(0.9, 0.85) in d = 1), so only a rate under half the
        # declared one is refused
        if not rate >= 0.5 * declared:
            raise NumericAccuracyError(
                f"subordination integrand decays past t = e^{_U_TOP:g} at rate {rate:.3g} in "
                f"log t, under half the declared {declared:.3g}")
        rest = math.exp(f_cut) / rate

    def sums(level, idx):
        h = _STEP / 2.0 ** level
        near = int((_Y_FAR - _Y_LO) / _STEP) * 2 ** level  # nodes under y = _Y_FAR
        # k: the last node of the coarse (step 2h) lattice at or above y = _Y_FAR
        k = np.floor((_U_TOP - _Y_FAR - log_r2[idx]) / (2.0 * h)).astype(np.int64)
        u = _U_TOP - h * np.arange(2 * int(k.max()) + near + 1)
        lf = log_f(u)
        fine, coarse = np.empty(idx.size), np.empty(idx.size)
        rows = max(1, _BLOCK // near)
        # past the float range a sum is inf, which is refused below
        with np.errstate(over="ignore"):
            f = np.exp(lf)
            f[0] *= 0.5  # the trapezoid's end weight at T
            far_fine, far_coarse = np.cumsum(f), np.cumsum(f[::2])
            for lo in range(0, idx.size, rows):
                b = slice(lo, lo + rows)
                nodes = 2 * k[b, None] + 1 + np.arange(near)
                vals = np.exp(lf[nodes] - 0.25 * np.exp(log_r2[idx[b], None] - u[nodes]))
                # the coarse near nodes are every other fine one, from the second
                fine[b] = h * (far_fine[2 * k[b]] + vals.sum(axis=1)) + rest
                coarse[b] = 2.0 * h * (far_coarse[k[b]] + vals[:, 1::2].sum(axis=1)) + rest
        return fine, coarse

    values = laplace.halving_trapezoid(sums, radii.size, epsabs=_EPSABS, epsrel=_EPSREL,
                                       levels=_LEVELS, what="subordination integral")
    bad = ~np.isfinite(values)
    if bad.any():
        raise EvaluationDomainError(
            f"the kernel at radius {radii.flat[np.argmax(bad)]:g} leaves the float range")
    return float(values[0]) if radii.ndim == 0 else values.reshape(radii.shape)


def _weight_span(r) -> tuple[float, float]:
    """Times t a weight is tabulated on for the radii r."""
    r_lo, r_hi = float(np.min(r)), float(np.max(r))
    if not r_lo > 0.0:
        raise EvaluationDomainError("radius must be positive")
    span = r_lo * r_lo / 1e4, r_hi * r_hi * 1e12
    if not (span[0] > 0.0 and span[1] < math.inf):
        raise EvaluationDomainError(f"radii in [{r_lo:g}, {r_hi:g}] leave the float range once squared")
    return span


def _green(phi: CompleteBernsteinFunction, d: int, r):
    """G at the radii r, once transience is established; in d <= 2 the tail
    exponent is phi's power at 0+."""
    if not transience_check(phi, d):
        raise NotTransientError(f"{phi.label()} is not transient in d={d}")
    w = spline_potential_evaluator(phi, *_weight_span(r))
    return subordination_integral(w, d, r, gamma=phi.small_exponent if d <= 2 else None)


def _jump(phi: CompleteBernsteinFunction, d: int, r):
    """j at the radii r.  The Levy density is integrable at infinity, so its
    tail decays faster than 1/t and gamma = 0 always works in low dimension."""
    w = spline_levy_evaluator(phi, *_weight_span(r))
    return subordination_integral(w, d, r, gamma=0.0 if d <= 2 else None)


def green_function(phi: CompleteBernsteinFunction, d: int, r: float) -> float:
    """G(x) at |x| = r: subordination integral of the potential density."""
    return _green(phi, d, r)


def jump_kernel(phi: CompleteBernsteinFunction, d: int, r: float) -> float:
    """j(r): subordination integral of the Levy density; no transience needed."""
    return _jump(phi, d, r)


def _small_radii(r_grid) -> np.ndarray:
    return np.asarray(r_grid if r_grid is not None else np.geomspace(1e-3, 1.0, 30), dtype=float)


def g_asymptotic_ratio(phi: CompleteBernsteinFunction, d: int, r_grid=None) -> RatioWindow:
    """G(r) * r**d * phi(r**-2) over a small-r window; bounded spread is the claim."""
    grid = _small_radii(r_grid)
    return RatioWindow.of(grid, _green(phi, d, grid) * grid ** d * phi(grid ** -2.0))


def j_asymptotic_ratio(phi: CompleteBernsteinFunction, d: int, r_grid=None) -> RatioWindow:
    """j(r) * r**d / phi(r**-2) over a small-r window."""
    grid = _small_radii(r_grid)
    return RatioWindow.of(grid, _jump(phi, d, grid) * grid ** d / phi(grid ** -2.0))


def j_doubling_and_shift(phi: CompleteBernsteinFunction, d: int, K: float) -> tuple[float, float]:
    """Measured doubling and unit-shift constants of the jump kernel.

    Returns (max of j(r)/j(2r) on (0,K), max of j(r)/j(r+1) on (1, 10K)).
    """
    if not 0.0 < K < math.inf:
        raise EvaluationDomainError(f"K must lie in (0, inf), got {K:g}")
    r_small = np.geomspace(K * 1e-3, K * 0.999, 40)
    r_large = np.geomspace(1.001, 10.0 * K if 10.0 * K > 1.1 else 1.1, 40)
    j_small, j_double, j_large, j_shift = np.split(
        _jump(phi, d, np.concatenate([r_small, 2.0 * r_small, r_large, r_large + 1.0])), 4)
    return float(np.max(j_small / j_double)), float(np.max(j_large / j_shift))


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
    return RadialKernelTable(d=d, radii=radii, g_values=_green(phi, d, radii), j_values=_jump(phi, d, radii))
