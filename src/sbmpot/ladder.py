"""Ladder-height machinery of the one-dimensional subordinate Brownian motion.

The ascending ladder-height process of X is a subordinator whose Laplace
exponent has the explicit log-integral representation

    chi(lam) = exp( (1/pi) * int_0^inf log(phi(lam^2 th^2)) / (1+th^2) dth ),

and chi is sandwiched between exp(-pi/2) and exp(pi/2) times sqrt(phi(lam^2)).
The renewal density v and renewal function V are Laplace inversions of 1/chi
and 1/(lam*chi); the half-line Green function is the convolution
G(x,y) = int_0^(x^y) v(z) v(|y-x|+z) dz.

Numerical notes.  The quadrature pulls the power lam^(alpha/2) out of the
exponent analytically (using int log(th)/(1+th^2) dth = 0), leaving only the
slowly varying part under the integral; nodes come from a doubly exponential
rule written so that both endpoints stay resolved in floating point.  The
inversions use the Gaver-Stehfest rule: it samples the transform on the
positive real axis only, where the chi integral representation is valid (on
a complex contour lam^2 leaves the principal branch, so the Talbot route
used elsewhere does not apply).  Kinds whose v and V have closed forms
(the stable kind, where chi(lam) = lam^(alpha/2)) take them from the kind
registry instead.  The half-line convolution integrates with ``quad``, bound
from :func:`sbmpot.laplace.quad`, so ``scipy.integrate`` is imported on its
first call, not with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expit

from . import laplace
from .bernstein import CompleteBernsteinFunction, MonotonicityReport, check_complete_monotonicity
from .errors import EvaluationDomainError, NumericAccuracyError
from .laplace import quad

__all__ = [
    "ladder_exponent_chi",
    "chi_sandwich_check",
    "chi_is_cbf_check",
    "ladder_density_v",
    "renewal_function_V",
    "halfline_green",
    "interval_green_mass_bound",
    "IntervalGreenBound",
    "SANDWICH_LO",
    "SANDWICH_HI",
]

SANDWICH_LO = math.exp(-math.pi / 2.0)
SANDWICH_HI = math.exp(math.pi / 2.0)


@lru_cache(maxsize=4)
def _de_rule(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Doubly exponential rule for int_0^(pi/2) f(x) dx, as (tan^2 x_k, w_k).

    Nodes are x = (pi/2)*sigmoid(pi*sinh(kh)); tan^2 is formed on whichever
    half keeps the angle away from the rounding cliff, so both endpoints stay
    resolved down to the 1e-30 weight cutoff.
    """
    k = np.arange(-n, n + 1, dtype=float)
    t = math.pi * np.sinh(k * h)
    sig, sig_m = expit(t), expit(-t)
    w = (math.pi ** 2 * h / 2.0) * np.cosh(k * h) * sig * sig_m
    keep = w > 1e-30
    sig, sig_m, w = sig[keep], sig_m[keep], w[keep]
    x = (math.pi / 2.0) * sig
    xi = (math.pi / 2.0) * sig_m  # pi/2 - x, computed without cancellation
    tansq = np.where(x <= math.pi / 4.0, np.tan(x) ** 2, 1.0 / np.tan(xi) ** 2)
    return tansq, w


def _log_slowly_varying(phi: CompleteBernsteinFunction, z: np.ndarray) -> np.ndarray:
    # log(phi(z) / z^(alpha/2)) without forming the ratio
    return np.log(phi._eval(z)) - (phi.alpha / 2.0) * np.log(z)


_CHI_NODES = 128  # half-width of the DE rule: about 2*_CHI_NODES nodes per lam


def ladder_exponent_chi(phi: CompleteBernsteinFunction, lam):
    """Laplace exponent chi of the ladder-height subordinator of X.

    Vectorized over lam of any shape; each value costs one fixed-rule sweep
    of about 2*_CHI_NODES nodes.
    """
    scalar = np.ndim(lam) == 0
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float)).ravel()
    tansq, w = _de_rule(_CHI_NODES, 3.9 / _CHI_NODES)
    # tansq ascends and rounding is monotone, so the extreme lam bound every
    # z; Python floats overflow to inf without a warning
    lo, hi = (float(lam_arr.min()), float(lam_arr.max())) if lam_arr.size else (1.0, 1.0)
    if not (lo > 0.0 and lo * lo * float(tansq[0]) > 0.0 and hi * hi * float(tansq[-1]) < math.inf):
        raise EvaluationDomainError(f"chi needs lam > 0 with lam^2 tan^2(theta) in (0, inf) at "
                                    f"every node; got lam in [{lo:g}, {hi:g}]")
    z = (lam_arr ** 2)[:, None] * tansq[None, :]
    corr = (_log_slowly_varying(phi, z) @ w) / math.pi
    out = lam_arr ** (phi.alpha / 2.0) * np.exp(corr)
    out = out.reshape(np.shape(lam))
    return float(out) if scalar else out


def chi_sandwich_check(
    phi: CompleteBernsteinFunction, lambda_grid=None
) -> tuple[float, float]:
    """(min, max) of chi(lam)/sqrt(phi(lam^2)) over the grid.

    Both ends must land inside [exp(-pi/2), exp(pi/2)] whatever phi is; that
    window comes with explicit constants, so callers can assert it hard.
    """
    grid = np.asarray(
        lambda_grid if lambda_grid is not None else np.geomspace(1e-2, 1e4, 40), dtype=float
    )
    ratio = ladder_exponent_chi(phi, grid) / np.sqrt(np.atleast_1d(phi(grid ** 2)))
    return float(np.min(ratio)), float(np.max(ratio))


def chi_is_cbf_check(phi: CompleteBernsteinFunction) -> MonotonicityReport:
    """Complete-monotonicity probe of lam -> chi(lam)/lam.

    chi being complete Bernstein makes chi(lam)/lam a Stieltjes function,
    hence completely monotone; the divided-difference check certifies the
    sign pattern.
    """
    return check_complete_monotonicity(lambda lam: ladder_exponent_chi(phi, lam) / lam,
                                       grid=np.geomspace(1e-1, 1e3, 15))


def ladder_density_v(phi: CompleteBernsteinFunction, t):
    """Renewal (ladder potential) density v(t), the inverse transform of 1/chi."""
    closed = phi.closed_form("ladder_density", t)
    if closed is not None:
        return closed
    vals, _ = laplace.stehfest_with_residual(lambda s: 1.0 / ladder_exponent_chi(phi, s), t)
    return vals


def renewal_function_V(phi: CompleteBernsteinFunction, t):
    """Renewal function V(t) = int_0^t v; inverse transform of 1/(lam*chi(lam))."""
    closed = phi.closed_form("renewal_function", t)
    if closed is not None:
        return closed
    vals, _ = laplace.stehfest_with_residual(lambda s: 1.0 / (s * ladder_exponent_chi(phi, s)), t)
    return vals


# absolute and relative targets of the halfline convolution quadrature
_HALFLINE_EPSABS, _HALFLINE_EPSREL = 1e-10, 1e-9


def halfline_green(phi: CompleteBernsteinFunction, x: float, y: float) -> float:
    """Green function of (0, inf) at (x, y) via the renewal-density convolution.

    Returns +inf on the diagonal when the convolution integral genuinely
    diverges there (alpha <= 1); that is a value, not an error.
    """
    if not (0.0 < x < math.inf and 0.0 < y < math.inf):
        raise EvaluationDomainError(f"halfline Green needs x, y in (0, inf), got {x:g} and {y:g}")
    lo, gap = (x, y - x) if x <= y else (y, x - y)
    if gap == 0.0 and phi.alpha <= 1.0:
        return math.inf

    def integrand(s):
        # z = lo * s^2 resolves the z^(alpha/2-1) endpoint singularity
        z = lo * s * s
        return float(ladder_density_v(phi, z)) * float(ladder_density_v(phi, gap + z)) * 2.0 * lo * s

    # full_output keeps a stalled quad from warning; its abserr is held to the
    # subordination panels' contract, 50 times the requested accuracy
    val, err = quad(integrand, 0.0, 1.0, epsabs=_HALFLINE_EPSABS, epsrel=_HALFLINE_EPSREL,
                    limit=300, full_output=1)[:2]
    if err > max(_HALFLINE_EPSABS, _HALFLINE_EPSREL * abs(val)) * 50.0:
        raise NumericAccuracyError(
            f"halfline Green quadrature achieved {err:.2e} against target "
            f"{_HALFLINE_EPSABS:.0e}/{_HALFLINE_EPSREL:.0e}", residual=err)
    return val


@dataclass(frozen=True)
class IntervalGreenBound:
    """Closed upper bounds on int_0^r G_(0,r)(x, y) dy, i.e. on E_x[exit time]."""

    plain: float
    min_form: float
    symmetric_form: float


def interval_green_mass_bound(
    phi: CompleteBernsteinFunction, r: float, x: float
) -> IntervalGreenBound:
    """Renewal-function bounds on the expected exit time from an interval.

    plain:           2 V(x) V(r)            for the interval (0, r)
    min_form:        2 V(r) (V(x) ^ V(r-x)) same interval, sharper near both ends
    symmetric_form:  2 V(2r) V(r - |x'|)    for (-r, r) seen at x' = x, hence
                     the form used on balls B(0, r) at offset |x'| < r
    """
    if not 0.0 < x < r:
        raise EvaluationDomainError("need 0 < x < r")
    V = lambda t: float(renewal_function_V(phi, t))
    v_r, v_x, v_rx = V(r), V(x), V(r - x)
    plain = 2.0 * v_x * v_r
    min_form = 2.0 * v_r * min(v_x, v_rx)
    symmetric = 2.0 * V(2.0 * r) * min(V(r + x), v_rx)
    return IntervalGreenBound(plain=plain, min_form=min_form, symmetric_form=symmetric)
