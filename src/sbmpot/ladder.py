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
slowly varying part under the integral.  The inversions use the Gaver-Stehfest
rule: it samples the transform on the positive real axis only, where the chi
integral representation is valid (for complex lam, lam^2 leaves the principal
branch).  Kinds whose v and V have closed forms (the stable kind, where
chi(lam) = lam^(alpha/2)) take them from the kind registry instead.  The
doubly exponential nodes on (0, 1) of ``_de_rule`` (Takahasi & Mori,
Publ. RIMS 9, 1974), exact at both ends, serve chi as one fixed rule and the
half-line convolution as one rule per step halving of the shared driver,
:func:`sbmpot.laplace.halving_trapezoid`, on v taken up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import laplace
from .bernstein import CompleteBernsteinFunction, MonotonicityReport, check_complete_monotonicity
from .errors import EvaluationDomainError, NumericAccuracyError
from .laplace import quad  # noqa: F401  unused here; perfbench/tracing.py patches it by name

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

_CHI_NODES = 128  # half-width of chi's DE rule: about 2*_CHI_NODES nodes per lam
_BLOCK = 1 << 16  # elements of a (lam, node) block


def _de_rule(n: int, h: float, length: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DE rule for int_0^length: node fractions s_k = sigmoid(pi*sinh(kh)), |k| <= n, and
    1 - s_k, each exact at its end, and weights h*g(kh), so step 2h has every other node."""
    k = np.arange(-n, n + 1, dtype=float)
    t = math.pi * np.sinh(k * h)
    sig, sig_m = expit(t), expit(-t)
    return sig, sig_m, (length * math.pi * h) * np.cosh(k * h) * sig * sig_m


def ladder_exponent_chi(phi: CompleteBernsteinFunction, lam):
    """Laplace exponent chi of the ladder-height subordinator of X, for lam of any shape.

    Each value costs one sweep of about 2*_CHI_NODES nodes, in blocks of _BLOCK elements."""
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float)).ravel()
    sig, sig_m, w = _de_rule(_CHI_NODES, 3.9 / _CHI_NODES, math.pi / 2.0)
    keep = w > 1e-30
    # theta and pi/2 - theta; tan^2 is formed on the half away from the
    # rounding cliff, so both ends stay resolved down to the weight cutoff
    x, xi = (math.pi / 2.0) * sig[keep], (math.pi / 2.0) * sig_m[keep]
    tansq, w = np.where(x <= math.pi / 4.0, np.tan(x) ** 2, 1.0 / np.tan(xi) ** 2), w[keep]
    # tansq ascends and rounding is monotone, so the extreme lam bound every
    # z; Python floats overflow to inf without a warning
    lo, hi = (float(lam_arr.min()), float(lam_arr.max())) if lam_arr.size else (1.0, 1.0)
    if not (lo > 0.0 and lo * lo * float(tansq[0]) > 0.0 and hi * hi * float(tansq[-1]) < math.inf):
        raise EvaluationDomainError(f"chi needs lam > 0 with lam^2 tan^2(theta) in (0, inf) at "
                                    f"every node; got lam in [{lo:g}, {hi:g}]")
    corr = np.empty(lam_arr.size)
    rows = max(8, _BLOCK // tansq.size // 8 * 8)  # whole groups of 8 rows, as BLAS takes them
    for b in range(0, lam_arr.size, rows):
        z = (lam_arr[b:b + rows] ** 2)[:, None] * tansq[None, :]
        # log(phi(z) / z^(alpha/2)) without forming the ratio
        corr[b:b + rows] = (np.log(phi._eval(z)) - (phi.alpha / 2.0) * np.log(z)) @ w
    out = (lam_arr ** (phi.alpha / 2.0) * np.exp(corr / math.pi)).reshape(np.shape(lam))
    return float(out) if np.ndim(lam) == 0 else out


def chi_sandwich_check(phi: CompleteBernsteinFunction, lambda_grid=None) -> tuple[float, float]:
    """(min, max) of chi(lam)/sqrt(phi(lam^2)) over the grid.

    Both ends must land inside [exp(-pi/2), exp(pi/2)] whatever phi is; that
    window comes with explicit constants, so callers can assert it hard.
    """
    grid = np.asarray(lambda_grid if lambda_grid is not None else np.geomspace(1e-2, 1e4, 40), dtype=float)
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


def _renewal(phi: CompleteBernsteinFunction, name: str, power: int, t):
    # the closed form ``name`` of phi, else the inverse transform of 1/(lam^power chi(lam))
    closed = phi.closed_form(name, t)
    if closed is not None:
        return closed
    return laplace.stehfest_with_residual(lambda s: 1.0 / (s ** power * ladder_exponent_chi(phi, s)), t)[0]


def ladder_density_v(phi: CompleteBernsteinFunction, t):
    """Renewal (ladder potential) density v(t), the inverse transform of 1/chi."""
    return _renewal(phi, "ladder_density", 0, t)


def renewal_function_V(phi: CompleteBernsteinFunction, t):
    """Renewal function V(t) = int_0^t v; inverse transform of 1/(lam*chi(lam))."""
    return _renewal(phi, "renewal_function", 1, t)


# targets of the halfline convolution; its DE rule has step 2^-level over |kh| <= _HALFLINE_REACH
# on z above (x^y)*_HALFLINE_Z_FLOOR, where chi's lam^2 tan^2(theta) stays in the float range
_HALFLINE_EPSABS, _HALFLINE_EPSREL = 1e-10, 1e-9
_HALFLINE_REACH, _HALFLINE_LEVELS, _HALFLINE_Z_FLOOR = 4, 6, 1e-100


def halfline_green(phi: CompleteBernsteinFunction, x: float, y: float) -> float:
    """Green function of (0, inf) at (x, y) via the renewal-density convolution.

    With lo = x^y and z = lo*s^p, p the inverse of the integrand's power at z = 0 (2/alpha off the
    diagonal, 1/(alpha-1) on it), the integrand in s is bounded at 0.  DE rules cover (s_c, 1), z(s_c) =
    max(lo*_HALFLINE_Z_FLOOR, 1e-305), on v taken once at the finest one's nodes: one cost whatever halving
    certifies.  The power law measured at s_c and sqrt(s_c), half the decades of z up to lo apart so that
    v's round-off stays out of it, closes (0, s_c).  The diagonal with alpha <= 1 diverges: +inf, not an error."""
    if not (1e-300 <= x < math.inf and 1e-300 <= y < math.inf):
        raise EvaluationDomainError(f"halfline Green needs x, y in [1e-300, inf), got {x:g} and {y:g}")
    lo, gap = (x, y - x) if x <= y else (y, x - y)
    if gap == 0.0 and phi.alpha <= 1.0:
        return math.inf
    p = 1.0 / (phi.alpha - 1.0) if gap == 0.0 else 2.0 / phi.alpha
    s_c = max(_HALFLINE_Z_FLOOR, 1e-305 / lo) ** (1.0 / p)

    def f(s):  # the integrand in s, in an order that keeps every product in floats
        z = lo * s ** p
        v = ladder_density_v(phi, np.concatenate([z, gap + z]))
        return v[:s.size] * (lo * p) * s ** (p - 1.0) * v[s.size:]

    r = s_c ** -0.5
    f_c, f_r = f(np.array([s_c, r * s_c, 1.0]))[:2]  # and s = 1, v's largest t, where refusals mostly are
    if not (f_c > 0.0 and r * f_r > f_c):  # a measured power above -1
        raise NumericAccuracyError(
            f"halfline Green integrand is not integrable as a power law at s = {s_c:.3g}")
    # the fine sums close with the measured power, the coarse ones with the
    # limit power 0, so the driver's error covers the gap between them too
    rest, rest_alt = f_c * s_c / (1.0 + math.log(f_r / f_c, r)), f_c * s_c
    s = s_c + (1.0 - s_c) * _de_rule(_HALFLINE_REACH << _HALFLINE_LEVELS, 2.0 ** -_HALFLINE_LEVELS, 1.0)[0]
    first, vals = np.arange(s.size) % (1 << (_HALFLINE_LEVELS - 1)) == 0, np.empty(s.size)
    vals[first], vals[~first] = f(s[first]), f(s[~first])  # first rule first, so as to fail on few

    def sums(level, idx):
        w = _de_rule(_HALFLINE_REACH << level, 2.0 ** -level, 1.0 - s_c)[2]
        v = vals[::1 << (_HALFLINE_LEVELS - level)].copy()  # BLAS sums a strided view in another order
        return np.array([w @ v + rest]), np.array([2.0 * (w[::2] @ v[::2]) + rest_alt])

    return float(laplace.halving_trapezoid(sums, 1, epsabs=_HALFLINE_EPSABS, epsrel=_HALFLINE_EPSREL,
                                           levels=_HALFLINE_LEVELS, what="halfline Green quadrature")[0])


@dataclass(frozen=True)
class IntervalGreenBound:
    """Closed upper bounds on int_0^r G_(0,r)(x, y) dy, i.e. on E_x[exit time]."""

    plain: float
    min_form: float
    symmetric_form: float


def interval_green_mass_bound(phi: CompleteBernsteinFunction, r: float, x: float) -> IntervalGreenBound:
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
