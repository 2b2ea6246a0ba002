"""Numerical inversion of Laplace transforms.

Two classic rules, both specialised to transforms that are analytic off the
negative real axis (Stieltjes-type transforms always are):

* fixed-Talbot (Abate & Valko): deformed Bromwich contour, complex arithmetic,
  roughly one significant digit per 2 nodes in double precision;
* Gaver-Stehfest: real-axis sampling only, useful when the transform cannot
  be continued into the left half-plane.  Accuracy saturates near 1e-7 in
  double precision around 14 terms.

The module also holds the quadrature driver every integral shares, the
trapezoid rule :func:`halving_trapezoid`, which certifies many integrals at
once by step halvings (Takahasi & Mori, Publ. RIMS 9, 1974, on its fast
convergence in a log or doubly exponential variable).  :func:`quad` is scipy's
``quad``, which nothing in the package calls: it stays only as the name a
tracer patches, and imports ``scipy.integrate`` on its first call.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import EvaluationDomainError, NumericAccuracyError

__all__ = [
    "talbot_inversion",
    "talbot_with_residual",
    "gaver_stehfest",
    "stehfest_with_residual",
    "halving_trapezoid",
    "quad",
]


@lru_cache(maxsize=16)
def _talbot_weights(m: int):
    # Fixed-Talbot contour s(theta) = (r/t) * theta * (cot(theta) + i),
    # theta_k = k*pi/m, r = 2m/5.  Because t*s_k does not depend on t the
    # exponential factors can be cached once per node count.
    theta = np.arange(m) * np.pi / m
    cot = np.zeros(m)
    cot[1:] = 1.0 / np.tan(theta[1:])
    r = 2.0 * m / 5.0
    base = r * theta * (cot + 1j)  # equals t*s_k
    base[0] = r
    gamma = np.empty(m, dtype=complex)
    gamma[0] = 0.5 * math.exp(r)
    gamma[1:] = np.exp(base[1:]) * (1.0 + 1j * theta[1:] * (1.0 + cot[1:] ** 2) - 1j * cot[1:])
    return base, gamma


def talbot_inversion(transform: Callable, t, nodes: int = 32) -> np.ndarray:
    """Evaluate the inverse Laplace transform of ``transform`` at times ``t``.

    ``transform`` must accept a complex ndarray.  ``t`` may be a scalar or an
    array of positive times; the result matches its shape.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr <= 0.0):
        raise EvaluationDomainError("inversion times must be positive")
    base, gamma = _talbot_weights(nodes)
    s = base[None, :] / t_arr[:, None]
    fs = transform(s)
    # a sum past the float range is inf or nan, which talbot_with_residual refuses
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.real(fs @ gamma) * (2.0 / (5.0 * t_arr))
    return vals if np.ndim(t) else float(vals[0])


_TALBOT_NODES, _TALBOT_CHECK_NODES, _TALBOT_RTOL = 32, 24, 1e-6


def talbot_with_residual(transform: Callable, t):
    """Talbot inversion with an internal accuracy estimate.

    The residual is the relative difference between the _TALBOT_NODES- and
    _TALBOT_CHECK_NODES-point rules.  The cross-check rule is *smaller*: the
    contour weights grow like exp(2m/5), so past the double-precision sweet
    spot adding nodes amplifies round-off instead of reducing truncation (a
    48-node rule can sit 1e-5 off while 24/32-node rules agree with each
    other and with Gaver-Stehfest to 1e-8).  A non-finite value, or a residual
    not within _TALBOT_RTOL, raises :class:`NumericAccuracyError`.

    The absolute round-off floor of the rule is about 1e-12 times the peak
    magnitude in the batch, so relative accuracy _TALBOT_RTOL is only
    attainable where |f(t)| >= 1e-6 * peak.  Points in the exponentially
    dead tail below that floor are returned but not certified (noise).
    """
    vals_main = np.atleast_1d(talbot_inversion(transform, t, _TALBOT_NODES))
    vals_check = np.atleast_1d(talbot_inversion(transform, t, _TALBOT_CHECK_NODES))
    if not np.isfinite(vals_main).all():
        raise NumericAccuracyError("Laplace inversion returned a non-finite value")
    mags = np.abs(vals_main)
    vmax = float(np.max(mags)) if mags.size else 0.0
    live = mags >= max(1e-12 / _TALBOT_RTOL * vmax, np.finfo(float).tiny)
    if np.any(live):
        residual = float(np.max(np.abs(vals_main - vals_check)[live] / mags[live]))
    else:
        residual = 0.0
    if not residual <= _TALBOT_RTOL:
        raise NumericAccuracyError(
            f"Laplace inversion residual {residual:.3e} exceeds tolerance {_TALBOT_RTOL:.1e}",
            residual=residual,
        )
    vals = vals_main if np.ndim(t) else float(vals_main[0])
    return vals, residual


@lru_cache(maxsize=8)
def _stehfest_weights(n: int) -> np.ndarray:
    if n % 2 != 0:
        raise ValueError("Gaver-Stehfest term count must be even")
    half = n // 2
    fact = [math.factorial(k) for k in range(2 * half + 1)]
    w = np.zeros(n)
    for k in range(1, n + 1):
        acc = 0.0
        for j in range((k + 1) // 2, min(k, half) + 1):
            acc += (
                j ** half
                * fact[2 * j]
                / (fact[half - j] * fact[j] * fact[j - 1] * fact[k - j] * fact[2 * j - k])
            )
        w[k - 1] = (-1) ** (k + half) * acc
    return w


def gaver_stehfest(transform: Callable, t, terms: int = 14) -> np.ndarray:
    """Gaver-Stehfest inversion using real-axis samples only."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr <= 0.0):
        raise EvaluationDomainError("inversion times must be positive")
    w = _stehfest_weights(terms)
    ln2 = math.log(2.0)
    lam = np.arange(1, terms + 1)[None, :] * (ln2 / t_arr[:, None])
    fs = transform(lam)
    # as in talbot_inversion; stehfest_with_residual refuses a non-finite value
    with np.errstate(over="ignore", invalid="ignore"):
        vals = (fs @ w) * (ln2 / t_arr)
    return vals if np.ndim(t) else float(vals[0])


_STEHFEST_TERMS, _STEHFEST_CHECK_TERMS = 14, 12
_STEHFEST_RTOL = 1e-4


def stehfest_with_residual(transform: Callable, t):
    """Gaver-Stehfest with a two-rule residual estimate.

    Going above ~16 terms amplifies round-off, so the cross-check uses a
    *smaller* rule of _STEHFEST_CHECK_TERMS terms; the residual mixes
    truncation of the small rule with round-off of the large one, which is
    the honest resolution limit.  A non-finite value, or a residual not
    within _STEHFEST_RTOL, raises :class:`NumericAccuracyError`.
    """
    a = np.atleast_1d(gaver_stehfest(transform, t, _STEHFEST_TERMS))
    b = np.atleast_1d(gaver_stehfest(transform, t, _STEHFEST_CHECK_TERMS))
    if not np.isfinite(a).all():
        raise NumericAccuracyError("Gaver-Stehfest inversion returned a non-finite value")
    scale = np.maximum(np.abs(a), np.finfo(float).tiny)
    residual = float(np.max(np.abs(a - b) / scale))
    if not residual <= _STEHFEST_RTOL:
        raise NumericAccuracyError(
            f"Gaver-Stehfest residual {residual:.3e} exceeds tolerance {_STEHFEST_RTOL:.1e}",
            residual=residual,
        )
    vals = a if np.ndim(t) else float(a[0])
    return vals, residual


def halving_trapezoid(sums: Callable, n: int, *, epsabs: float, epsrel: float, levels: int,
                      what: str) -> np.ndarray:
    """Values of n integrals, each certified by its own step halvings.

    ``sums(level, idx)`` returns, for the integrals ``idx`` (an index array),
    the trapezoid sums with step h = h0/2**level and with step 2h on every
    other of the same nodes, so the check costs no extra node.  An integral
    is done once the two agree to epsrel*|fine| (or once its sum leaves the
    float range, which the caller refuses); past ``levels`` halvings, one
    whose |fine - coarse| is over 50*max(epsabs, epsrel*|fine|) raises
    :class:`NumericAccuracyError`.  An integral's value is its own last fine sum.
    """
    value, err = np.empty(n), np.empty(n)
    todo = np.arange(n)
    for level in range(1, levels + 1):
        fine, coarse = sums(level, todo)
        with np.errstate(invalid="ignore"):  # inf - inf, where a sum left the float range
            value[todo], err[todo] = fine, np.abs(fine - coarse)
        todo = todo[np.isfinite(fine) & ~(err[todo] <= epsrel * np.abs(fine))]
        if not todo.size:
            return value
    tol = np.maximum(epsabs, epsrel * np.abs(value[todo]))
    if not np.all(err[todo] <= 50.0 * tol):
        worst = np.argmax(err[todo] / tol)
        raise NumericAccuracyError(
            f"{what} achieved {err[todo][worst]:.2e} against target {epsabs:.0e}/{epsrel:.0e} "
            f"after {levels} step halvings", residual=float(err[todo][worst]))
    return value


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on the first call.

    Nothing in the package calls it; ``kernels`` and ``ladder`` bind it
    only so that a tracer's wrapper set on that name keeps a target.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)
