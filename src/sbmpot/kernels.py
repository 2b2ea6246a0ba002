"""Green function and jump kernel of the subordinate Brownian motion.

Both kernels are subordination integrals of the Gaussian heat kernel,

    G(x) = int_0^inf p(t, x) u(t) dt,      j(r) = int_0^inf p(t, x) mu(t) dt,

with u the potential density and mu the Levy density of the subordinator.
The integrand peaks near t of order r**2, so the quadrature splits there:
t = r**2/(4s) on the head (turning the Gaussian factor into exp(-s)) and
t = r**2 * exp(y) on the tail, whose rest past t = e^690 is closed.

Every entry point sets G up through ``_green`` (transience check, tail
exponent in d <= 2, potential weight) and j through ``_jump`` (Levy
weight).  A weight is the kind's closed form where the registry has one,
else a log-log spline of the inverted density tabulated once for the whole
radius range.

The panels integrate with ``quad``, bound from :func:`sbmpot.laplace.quad`:
``scipy.integrate`` is imported on the first panel, not with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bernstein import CompleteBernsteinFunction
from .densities import RatioWindow, spline_levy_evaluator, spline_potential_evaluator
from .errors import EvaluationDomainError, NotTransientError, NumericAccuracyError, UndecidableError
from .laplace import quad

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


# absolute and relative targets of each quad panel of a subordination integral
_EPSABS, _EPSREL = 1e-9, 1e-7


def _panel(f, a, b):
    val, err, info = quad(f, a, b, epsabs=_EPSABS, epsrel=_EPSREL, limit=500, full_output=1)[:3]
    if err > max(_EPSABS, _EPSREL * abs(val)) * 50.0:
        raise NumericAccuracyError(
            f"subordination quadrature achieved {err:.2e} against target {_EPSABS:.0e}/{_EPSREL:.0e}",
            residual=err,
        )
    return val, err


def subordination_integral(w: Callable, d: int, r: float, gamma: float | None = None) -> float:
    """int_0^inf (4 pi t)**(-d/2) exp(-r**2/(4t)) w(t) dt for decreasing w.

    In d <= 2 the tail only converges under a declared decay w(t) <= c*t**(gamma-1)
    with gamma < d/2, so the caller must state gamma there.  A radius whose
    integrand or integral leaves the float range raises EvaluationDomainError.
    """
    if d < 1:
        raise EvaluationDomainError("dimension must be a positive integer")
    if not 0.0 < r < math.inf:
        raise EvaluationDomainError(f"radius must lie in (0, inf), got {r:g}")
    if d <= 2:
        if gamma is None:
            raise UndecidableError("d <= 2 requires a declared tail exponent gamma < d/2")
        if gamma >= d / 2.0:
            raise EvaluationDomainError("tail exponent must satisfy gamma < d/2")
    r2 = r * r
    if not 0.0 < r2 < math.inf:
        raise EvaluationDomainError(f"radius {r:g} squared leaves the float range")
    log_r2 = math.log(r2)

    def head(s):
        # t = r^2/(4s), s in [1/4, inf); Gaussian factor becomes e^{-s}.
        # Past s ~ 700 the e^{-s} factor is below 1e-304 and the power factors
        # would overflow first, so the region contributes exactly nothing.
        if s > 700.0:
            return 0.0
        t = r2 / (4.0 * s)
        return (4.0 * math.pi * t) ** (-d / 2.0) * math.exp(-s) * w(t) * r2 / (4.0 * s * s)

    def tail_at(y):
        # t = r^2 e^y, y in [0, inf)
        t = math.exp(log_r2 + y)
        return (4.0 * math.pi * t) ** (-d / 2.0) * math.exp(-0.25 * math.exp(-y)) * w(t) * t

    # the panel stops at y_cut, where t nears the top of the float range; past
    # it the integrand is ~ t^(gamma - d/2) (t^(1 - d/2) for a decreasing w in
    # d >= 3), a geometric decay in y whose rate the last unit step measures,
    # so the rest is closed
    y_cut = max(690.0 - log_r2, 0.0)
    # a small radius can push the integrand, or the integral, past the float
    # range; either is refused rather than returned as inf
    try:
        head_val, _ = _panel(head, 0.25, np.inf)
        tail_val, _ = _panel(lambda y: 0.0 if log_r2 + y > 690.0 else tail_at(y), 0.0, np.inf)
        f_cut = tail_at(y_cut)
    except OverflowError:
        raise EvaluationDomainError(f"the integrand at radius {r:g} leaves the float range") from None
    total = head_val + tail_val
    if f_cut != 0.0:
        declared = d / 2.0 - gamma if d <= 2 else d / 2.0 - 1.0
        rate = math.log(tail_at(y_cut - 1.0) / f_cut)
        # a tabulated weight is continued with its end slope, which need not
        # have reached the limit (0.87 of the declared rate for
        # sum_of_stables(0.9, 0.85) in d = 1), so only a rate under half the
        # declared one is refused
        if not rate >= 0.5 * declared:
            raise NumericAccuracyError(
                f"subordination integrand decays past t = e^690 at rate {rate:.3g} in log t, "
                f"under half the declared {declared:.3g}")
        total += f_cut / rate
    if not math.isfinite(total):
        raise EvaluationDomainError(f"the kernel at radius {r:g} leaves the float range")
    return total


def _weight_span(r_lo: float, r_hi: float) -> tuple[float, float]:
    """Times t a weight is tabulated on for radii in [r_lo, r_hi]."""
    if not r_lo > 0.0:
        raise EvaluationDomainError("radius must be positive")
    try:
        span = r_lo ** 2 / 1e4, r_hi ** 2 * 1e12
    except OverflowError:
        span = 0.0, math.inf
    if not (span[0] > 0.0 and span[1] < math.inf):
        raise EvaluationDomainError(f"radii in [{r_lo:g}, {r_hi:g}] leave the float range once squared")
    return span


def _green(phi: CompleteBernsteinFunction, d: int, r_lo: float, r_hi: float) -> Callable[[float], float]:
    """r -> G(r) for radii in [r_lo, r_hi], once transience is established.

    In d <= 2 the tail exponent is phi's power at 0+.
    """
    if not transience_check(phi, d):
        raise NotTransientError(f"{phi.label()} is not transient in d={d}")
    tail_gamma = phi.small_exponent if d <= 2 else None
    w = spline_potential_evaluator(phi, *_weight_span(r_lo, r_hi))
    return lambda r: subordination_integral(w, d, r, gamma=tail_gamma)


def _jump(phi: CompleteBernsteinFunction, d: int, r_lo: float, r_hi: float) -> Callable[[float], float]:
    """r -> j(r) for radii in [r_lo, r_hi].

    The Levy density is integrable at infinity, so its tail decays faster
    than 1/t and gamma = 0 always works in low dimension.
    """
    w = spline_levy_evaluator(phi, *_weight_span(r_lo, r_hi))
    tail_gamma = 0.0 if d <= 2 else None
    return lambda r: subordination_integral(w, d, r, gamma=tail_gamma)


def green_function(phi: CompleteBernsteinFunction, d: int, r: float) -> float:
    """G(x) at |x| = r: subordination integral of the potential density."""
    return _green(phi, d, r, r)(r)


def jump_kernel(phi: CompleteBernsteinFunction, d: int, r: float) -> float:
    """j(r): subordination integral of the Levy density; no transience needed."""
    return _jump(phi, d, r, r)(r)


def _small_radii(r_grid) -> np.ndarray:
    return np.asarray(r_grid if r_grid is not None else np.geomspace(1e-3, 1.0, 30), dtype=float)


def g_asymptotic_ratio(phi: CompleteBernsteinFunction, d: int, r_grid=None) -> RatioWindow:
    """G(r) * r**d * phi(r**-2) over a small-r window; bounded spread is the claim."""
    grid = _small_radii(r_grid)
    g = _green(phi, d, float(grid.min()), float(grid.max()))
    return RatioWindow.of(grid, [g(r) * r ** d * float(phi(r ** -2.0)) for r in grid])


def j_asymptotic_ratio(phi: CompleteBernsteinFunction, d: int, r_grid=None) -> RatioWindow:
    """j(r) * r**d / phi(r**-2) over a small-r window."""
    grid = _small_radii(r_grid)
    j = _jump(phi, d, float(grid.min()), float(grid.max()))
    return RatioWindow.of(grid, [j(r) * r ** d / float(phi(r ** -2.0)) for r in grid])


def j_doubling_and_shift(phi: CompleteBernsteinFunction, d: int, K: float) -> tuple[float, float]:
    """Measured doubling and unit-shift constants of the jump kernel.

    Returns (max of j(r)/j(2r) on (0,K), max of j(r)/j(r+1) on (1, 10K)).
    """
    if not 0.0 < K < math.inf:
        raise EvaluationDomainError(f"K must lie in (0, inf), got {K:g}")
    r_small = np.geomspace(K * 1e-3, K * 0.999, 40)
    r_large = np.geomspace(1.001, 10.0 * K if 10.0 * K > 1.1 else 1.1, 40)
    lo = min(float(r_small.min()), float(r_large.min()))
    hi = max(2.0 * float(r_small.max()), float(r_large.max()) + 1.0)
    jump = _jump(phi, d, lo, hi)
    j = lambda r: jump(float(r))
    c4 = max(j(r) / j(2.0 * r) for r in r_small)
    c5 = max(j(r) / j(r + 1.0) for r in r_large)
    return float(c4), float(c5)


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
    g = _green(phi, d, r_min, r_max)
    j = _jump(phi, d, r_min, r_max)
    g_vals = np.array([g(float(r)) for r in radii])
    j_vals = np.array([j(float(r)) for r in radii])
    return RadialKernelTable(d=d, radii=radii, g_values=g_vals, j_values=j_vals)
