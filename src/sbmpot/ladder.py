"""Ladder-height machinery of the one-dimensional subordinate Brownian motion.

The ascending ladder-height process of X is a subordinator whose Laplace
exponent has the explicit log-integral representation

    chi(lam) = exp( (1/pi) * int_0^inf log(phi(lam^2 th^2)) / (1+th^2) dth ),

and chi is sandwiched between exp(-pi/2) and exp(pi/2) times sqrt(phi(lam^2)).
The renewal density v and renewal function V have Laplace transforms 1/chi
and 1/(lam*chi); the half-line Green function is the convolution
G(x,y) = int_0^(x^y) v(z) v(|y-x|+z) dz.

Numerical notes.  With th = e^u the integral is a convolution in log lam,
log chi(lam) = (alpha/2) log lam + (1/pi) int G(log lam + u) du/(2 cosh u) with
G(y) = log phi(e^(2y)) - alpha y (the power lam^(alpha/2) comes out since
int u du/cosh u = 0).  Both factors are analytic in |Im u| < pi/2, so the
trapezoid rule converges like e^(-pi^2/h) (Trefethen & Weideman, SIAM Rev. 56,
2014).  ``ladder_exponent_chi`` takes G once per point of the lattice
y_i = i/8, anchored at lam = 1, convolves it with the kernel over |u| <= 46 by
FFTs of 2 048 nodes in blocks fixed on the lattice, and interpolates to log
lam on 14 lattice points, so a lam has the same bits in any call.  A block is
memoised per (phi, block) in a small bounded cache of read-only arrays, so v,
V and the half-line rule, which ask chi for the nodes of each level of the
real-axis rule, build each block once.  Each value
is certified to 1e-12 of log chi by step h against 2h and by 14 points against
12, else NumericAccuracyError.  Its reach is the float range: the convolution
needs phi at lam^2 e^(+-92), a node past the range takes phi at its end, and a
lam whose nodes so moved could change log chi by over 1e-16 is refused
(EvaluationDomainError for a caller's lam, NumericAccuracyError for one the
package chose).  Wiener-Hopf for psi(xi) = phi(xi^2) gives chi(lam) chi(-lam)
= phi(-lam^2), so the Stieltjes function 1/chi has the cut density
chi(s) (-Im 1/phi(-s^2 + i0)) (Kwasnicki, Studia Math. 206, 2011), and each
atom w/(lam + z) of 1/phi gives 1/chi the atom chi(sqrt z) w/(2 sqrt z): v and V
are the sums of 1/phi's measure so weighed
(:meth:`sbmpot.bernstein.CompleteBernsteinFunction.sums`).  Kinds whose v and V
have closed forms (the stable kind, where chi(lam) = lam^(alpha/2)) take them
from the kind registry instead.  The half-line convolution is one doubly
exponential rule on (0, 1), ``_de_rule`` (Takahasi & Mori, Publ. RIMS 9, 1974),
exact at both ends and certified against its every other node by the shared
driver, :func:`sbmpot.laplace.halving_trapezoid`, on v taken up front.  v is
completely monotone, so off the diagonal the convolution's head
int_0^(z_c) v(z) v(gap+z) dz lies in V(z_c) [v(gap+z_c), v(gap)]: with z_c =
1e-12 min(x^y, gap), v's arguments stay where the real-axis rule certifies at
its second level, and one chi call at its nodes serves v and V(z_c) alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import expit

from . import laplace
from .bernstein import CompleteBernsteinFunction, MonotonicityReport, check_complete_monotonicity
from .densities import RatioWindow
from .errors import EvaluationDomainError, NumericAccuracyError
from .laplace import quad  # noqa: F401  unused here; perfbench/tracing.py patches it by name

__all__ = [
    "ladder_exponent_chi",
    "chi_sandwich_check",
    "chi_is_cbf_check",
    "ladder_density_v",
    "renewal_function_V",
    "renewal_table",
    "halfline_green",
    "interval_green_mass_bound",
    "IntervalGreenBound",
    "SANDWICH_LO",
    "SANDWICH_HI",
]

SANDWICH_LO = math.exp(-math.pi / 2.0)
SANDWICH_HI = math.exp(math.pi / 2.0)

_NORMAL = (np.finfo(float).tiny, np.finfo(float).max)  # the normal float range


def _de_rule(n: int, h: float, length: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DE rule for int_0^length: node fractions s_k = sigmoid(pi*sinh(kh)), |k| <= n, and
    1 - s_k, each exact at its end, and weights h*g(kh), so step 2h has every other node."""
    k = np.arange(-n, n + 1, dtype=float)
    t = math.pi * np.sinh(k * h)
    sig, sig_m = expit(t), expit(-t)
    return sig, sig_m, (length * math.pi * h) * np.cosh(k * h) * sig * sig_m


# chi's lattice: G on y_i = i*_CHI_H, convolved with the sech kernel over |u| <= _CHI_TAPS*_CHI_H = 46 (where
# sech(u)/2 is under 1e-20) in blocks of _CHI_FFT nodes, each giving log chi at _CHI_OUT points, by steps h and 2h;
# log chi is interpolated on _CHI_P + 2 lattice points and certified against _CHI_P of them
_CHI_H, _CHI_TAPS, _CHI_FFT, _CHI_P, _CHI_TOL = 0.125, 368, 2048, 12, 1e-12
_CHI_OUT = _CHI_FFT - 2 * _CHI_TAPS
_CHI_RANGE = 1e-16  # the largest error of log chi that nodes out of the float range may make
_CHI_K = np.arange(-_CHI_TAPS, _CHI_TAPS + 1)
_CHI_W = (_CHI_H / (2.0 * math.pi)) / np.cosh(_CHI_H * _CHI_K)  # (1/pi) h sech(kh)/2: the kernel's taps


def _sech_transform(step: int) -> np.ndarray:
    """rfft of the kernel of step step*h on a block (a tap every step-th node), wrapped so that its product with
    rfft(G) convolves."""
    taps = np.zeros(_CHI_FFT)
    taps[_CHI_K[::step] % _CHI_FFT] = step * _CHI_W[::step]
    return np.fft.rfft(taps)


_CHI_SECH = _sech_transform(1), _sech_transform(2)
# Gauss's forward formula: its term k multiplies the k-th difference by prod_(j <= k) (s - node_(j-1))/j, on the
# nodes 0, 1, -1, 2, -2, ..., the difference taken at row _CHI_P/2 - k/2 of the stencil
_GAUSS_NODES = np.array([(k + 1) // 2 if k % 2 else -(k // 2) for k in range(_CHI_P + 1)], dtype=float)[:, None]
_GAUSS_K = np.arange(1.0, _CHI_P + 2)[:, None]


def _gauss_forward(f: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss's forward formula on the stencil f (rows: nodes -6, ..., 7) at s in [0, 1) from node 0, summed to all
    _CHI_P + 2 terms (the interpolant on -6..7) and to _CHI_P (on -5..6): the Newton form on the nodes 0, 1, -1, 2,
    ...  Elementwise operations only, in one order (the bases and the partial sums are running products and sums
    over the terms): each value has its own bits."""
    diffs, picked = f, []
    for k in range(1, _CHI_P + 2):
        diffs = diffs[1:] - diffs[:-1]
        picked.append(diffs[_CHI_P // 2 - k // 2])
    basis = np.cumprod((s - _GAUSS_NODES) / _GAUSS_K, axis=0)
    total = np.cumsum(np.concatenate([f[_CHI_P // 2][None], basis * picked]), axis=0)
    return total[_CHI_P + 1], total[_CHI_P - 1]


@lru_cache(maxsize=16)
def _chi_block(phi: CompleteBernsteinFunction, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log chi(lam) - (alpha/2) log lam at the lattice points i in [b - 1/2, b + 1/2) * _CHI_OUT by step h, its
    distance from step 2h's, and the nodes with no finite G, which take G = 0 so that the other values keep their
    bits.  A node out of the float range takes phi at its end.  Memoised per (phi, block), read-only: v, V and
    the half-line rule ask chi for the same blocks at each level of the real-axis rule."""
    j = b * _CHI_OUT - _CHI_FFT // 2 + np.arange(_CHI_FFT)
    with np.errstate(all="ignore"):
        z = np.clip(np.exp((2.0 * _CHI_H) * j), *_NORMAL)
        g = np.log(phi._eval(z)) - (phi.alpha / 2.0) * np.log(z)
    bad = ~np.isfinite(g)
    g[bad] = 0.0
    g_hat = np.fft.rfft(g)
    fine, coarse = (np.fft.irfft(g_hat * kernel, _CHI_FFT)[_CHI_TAPS:-_CHI_TAPS] for kernel in _CHI_SECH)
    out = fine.copy(), np.abs(fine - coarse), j[bad]
    for x in out:
        x.flags.writeable = False
    return out


def ladder_exponent_chi(phi: CompleteBernsteinFunction, lam):
    """Laplace exponent chi of the ladder-height subordinator of X, for lam of any shape.

    log chi(lam) - (alpha/2) log lam is the convolution (1/pi) int G(log lam + u) du/(2 cosh u) of
    G(y) = log phi(e^(2y)) - alpha y, taken by the trapezoid rule of step h = 1/8 on the lattice y_i = i h over
    |u| <= 46, in fixed blocks of FFTs, and interpolated to log lam on 14 lattice points: chi at lam has the same
    bits whatever other lam share the call.  Each value is certified to 1e-12 of log chi twice, else
    NumericAccuracyError: step h against 2h on the stencil, and its 14 points against the inner 12.  A node whose
    lam^2 e^(2u) leaves the float range takes phi at its end, which moves G by at most the distance in log z
    (phi increases, phi(z)/z decreases): a lam whose such nodes move log chi by over 1e-16 is refused, as is one
    whose sums reach a node where log phi is not a finite float."""
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float)).ravel()
    laplace.squares(lam_arr, "chi's lam")
    if not lam_arr.size:
        return np.empty(np.shape(lam))
    x = np.log(lam_arr) / _CHI_H
    first = np.floor(x).astype(np.int64) - _CHI_P // 2  # the stencil is first, ..., first + _CHI_P + 1
    lo, hi = int(first.min()), int(first.max()) + _CHI_P + 1
    for end in (lo, hi):  # log chi's error from the clipped nodes grows towards the stencils' ends
        log_z = (2.0 * _CHI_H) * (end + _CHI_K)
        if log_z[0] < math.log(_NORMAL[0]) or log_z[-1] > math.log(_NORMAL[1]):
            if not np.abs(log_z - np.clip(log_z, *np.log(_NORMAL))) @ _CHI_W <= _CHI_RANGE:
                raise EvaluationDomainError(f"chi: lam^2 e^(2u) leaves the float range at nodes of weight over "
                                            f"1e-16, for lam in [{lam_arr.min():g}, {lam_arr.max():g}]")
    # lattice point i lies in block (i + _CHI_OUT/2) // _CHI_OUT, at i - start in f and err
    blocks = np.unique((np.concatenate([first, first + _CHI_P + 1]) + _CHI_OUT // 2) // _CHI_OUT)
    start = blocks[0] * _CHI_OUT - _CHI_OUT // 2
    f, err = np.empty((2, (blocks[-1] - blocks[0] + 1) * _CHI_OUT))
    bad = []
    for b in blocks:
        at = slice((b - blocks[0]) * _CHI_OUT, (b - blocks[0] + 1) * _CHI_OUT)
        f[at], err[at], nodes = _chi_block(phi, int(b))
        bad.append(nodes)
    if (bad := np.concatenate(bad)).size:
        reach = np.searchsorted(bad, first - _CHI_TAPS) < np.searchsorted(bad, first + _CHI_P + 1 + _CHI_TAPS, "right")
        if reach.any():
            raise EvaluationDomainError(f"chi: log phi(z) leaves the float range at z = e^{2.0 * _CHI_H * bad[0]:g}, "
                                        f"which chi at lam = {lam_arr[reach][0]:g} takes")
    stencil = first - start + np.arange(_CHI_P + 2)[:, None]
    wide, narrow = _gauss_forward(f[stencil], x - (first + _CHI_P // 2))
    quad_err = np.max(err[stencil], axis=0)
    residual = np.maximum(quad_err, np.abs(wide - narrow))
    if not np.all(residual <= _CHI_TOL):
        k = int(np.flatnonzero(~(residual <= _CHI_TOL))[0])
        raise NumericAccuracyError(f"chi's lattice misses 1e-12 on log chi at lam = {lam_arr[k]:g}: step h against "
                                   f"2h {quad_err[k]:.2g}, interpolation {abs(wide[k] - narrow[k]):.2g}",
                                   residual=float(residual[k]))
    out = (lam_arr ** (phi.alpha / 2.0) * np.exp(wide)).reshape(np.shape(lam))
    return float(out) if np.ndim(lam) == 0 else out


def chi_sandwich_check(phi: CompleteBernsteinFunction, lambda_grid=None) -> RatioWindow:
    """chi(lam)/sqrt(phi(lam^2)) over the grid, passed when it lies in [exp(-pi/2), exp(pi/2)] to 1e-9.

    That window holds whatever phi is and comes with explicit constants, so
    callers can assert it hard.
    """
    grid = np.asarray(lambda_grid if lambda_grid is not None else np.geomspace(1e-2, 1e4, 40), dtype=float)
    ratio = ladder_exponent_chi(phi, grid) / np.sqrt(np.atleast_1d(phi(grid ** 2)))
    return RatioWindow.of(grid, ratio, lambda lo, hi: SANDWICH_LO - 1e-9 <= lo and hi <= SANDWICH_HI + 1e-9)


def chi_is_cbf_check(phi: CompleteBernsteinFunction) -> MonotonicityReport:
    """Complete-monotonicity probe of lam -> chi(lam)/lam.

    chi being complete Bernstein makes chi(lam)/lam a Stieltjes function,
    hence completely monotone; the divided-difference check certifies the
    sign pattern.
    """
    return check_complete_monotonicity(lambda lam: ladder_exponent_chi(phi, lam) / lam,
                                       grid=np.geomspace(1e-1, 1e3, 15))


# v(t) = c_v + (1/pi) int e^(-t sqrt z) rho(z) dz and V(t) = c_v t + (1/pi) int (1 - e^(-t sqrt z)) rho(z)/sqrt z dz
# on chi's cut in z = s^2, as kernels of T z, T = t^2, V's over t; V's is a power past far, so it has no head
_RENEWAL_KERNELS = {
    "ladder_density": laplace.Kernel(lambda z: np.exp(-np.sqrt(z)), 1e-32, 746.0**2, ((0.0, 1.0, 0.0),)),
    "renewal_function": laplace.Kernel(lambda z: -np.expm1(-np.sqrt(z)) / np.sqrt(z), 1e-32, 746.0**2),
}


def _chi_on_cut(phi: CompleteBernsteinFunction, lam):
    """chi at lam the package chose (poles or nodes of the cut): one out of chi's float range is a failure of
    the rule, NumericAccuracyError, where a caller's own lam is an EvaluationDomainError."""
    try:
        return ladder_exponent_chi(phi, lam)
    except EvaluationDomainError as exc:
        raise NumericAccuracyError(str(exc)) from exc


def _renewal(phi: CompleteBernsteinFunction, names, ts) -> list:
    """The ladder objects ``names`` ("ladder_density" v, "renewal_function" V), each at its own t of ``ts``:
    closed forms, else the sums of 1/chi's measure in z = s^2 (sqrt z, unlike s, stays in chi's float range),
    1/phi's atoms and density weighed by chi(sqrt z)/(2 sqrt z), chi taken once per atom or node for all, plus
    c_v = lim lam/chi = sqrt(lim lam/phi).  A t whose t^2 the real-axis rule does not reach is refused in t, and
    a value past the float range by :func:`sbmpot.laplace.finite`."""
    out = [phi.closed_form(name, t) for name, t in zip(names, ts)]
    if any(value is None for value in out):
        flat = [np.ravel(np.asarray(t, dtype=float)) for t in ts]
        squares = [laplace.squares(tt, "t of v and V") for tt in flat]
        kernels, m = [_RENEWAL_KERNELS[name] for name in names], phi.stieltjes(0)
        if m.cut:
            for k, tt in zip(kernels, flat):
                laplace.check_reach(k, phi.branch_point, tt, "t", 2)
        rows = phi.sums([(0, 0)] * len(names), squares, kernels,
                        weight=lambda z, x: _chi_on_cut(phi, np.sqrt(z)) * x / (2.0 * np.sqrt(z)))
        atom = math.sqrt(m.c)
        out = [atom + row if name == "ladder_density" else tt * (atom + row)
               for name, tt, row in zip(names, flat, rows)]
    return [laplace.finite(x, t, f"{name} at t") for name, x, t in zip(names, out, ts)]


def _renewal_reach(phi: CompleteBernsteinFunction) -> tuple[float, float]:
    """The t at which _renewal takes v and V: every positive t for closed forms, else those whose t^2 is a normal
    float, for a measure with a density only those whose t^2 the real-axis rule reaches too."""
    if all(phi.closed_form(name, 1.0) is not None for name in _RENEWAL_KERNELS):
        return 0.0, math.inf
    lo, hi = _NORMAL
    if phi.stieltjes(0).cut:
        for k in _RENEWAL_KERNELS.values():
            k_lo, k_hi = laplace.reach(k, phi.branch_point)
            lo, hi = max(lo, k_lo), min(hi, k_hi)
    return math.sqrt(lo), math.sqrt(hi)


def ladder_density_v(phi: CompleteBernsteinFunction, t):
    """Renewal (ladder potential) density v(t), the inverse transform of 1/chi, certified to relative 1e-9."""
    return _renewal(phi, ("ladder_density",), (t,))[0]


def renewal_function_V(phi: CompleteBernsteinFunction, t):
    """Renewal function V(t) = int_0^t v; inverse transform of 1/(lam*chi(lam)), certified as v is."""
    return _renewal(phi, ("renewal_function",), (t,))[0]


def renewal_table(phi: CompleteBernsteinFunction, t_grid) -> dict[str, np.ndarray]:
    """Columns (t, v_ladder, V) for CSV export, chi evaluated once per node for both."""
    grid = np.asarray(t_grid, dtype=float)
    v, V = _renewal(phi, ("ladder_density", "renewal_function"), (grid, grid))
    return {"t": grid, "v_ladder": np.atleast_1d(v), "V": np.atleast_1d(V)}


# targets of the halfline convolution; its DE rule has step 2^-_HALFLINE_LEVELS over |kh| <= _HALFLINE_REACH on
# z above z_c, (x^y)*_HALFLINE_Z_FLOOR on the diagonal and _HALFLINE_HEAD*min(x^y, gap) off it, and above
# _HALFLINE_Z_MIN and the lowest t of v's reach, where v's t^2 is within the real-axis rule's reach
_HALFLINE_EPSABS, _HALFLINE_EPSREL = 1e-10, 1e-9
_HALFLINE_REACH, _HALFLINE_LEVELS, _HALFLINE_Z_FLOOR, _HALFLINE_Z_MIN = 4, 6, 1e-60, 1e-66
_HALFLINE_HEAD = 1e-12


def halfline_green(phi: CompleteBernsteinFunction, x: float, y: float) -> float:
    """Green function of (0, inf) at (x, y) via the renewal-density convolution.

    With lo = x^y and z = lo*s^p, p the inverse of the integrand's power at z = 0 (2/alpha off the
    diagonal, 1/(alpha-1) on it), the integrand in s is bounded at 0.  A DE rule of step 2^-6 covers (s_c, 1),
    z(s_c) = z_c above _HALFLINE_Z_MIN and v's lowest t and at most lo*1e-5, on v taken once at its nodes, and
    is certified against the rule of step 2^-5 on every other node.  Off the diagonal z_c = 1e-12*min(lo, gap),
    and v is completely monotone, so the head int_0^(z_c) v(z) v(gap+z) dz lies in V(z_c)*[v(gap+z_c), v(gap)]:
    the fine sum closes with the bracket's midpoint, the coarse one with its end, V(z_c) from the same chi values
    as v.  On the diagonal z_c = lo*1e-60, and the power law measured at s_c and sqrt(s_c), half the decades of
    z up to lo apart so that v's round-off stays out of it, closes (0, s_c).  The diagonal with alpha <= 1
    diverges: +inf, not an error.  v's arguments run from at most 1e-5 x^y up to x v y, so x^y under 1e5 times
    the lowest t v reaches, or x v y past its highest, raises NumericAccuracyError stating that reach in x and y."""
    if not (1e-300 <= x < math.inf and 1e-300 <= y < math.inf):
        raise EvaluationDomainError(f"halfline Green needs x, y in [1e-300, inf), got {x:g} and {y:g}")
    lo, gap = (x, y - x) if x <= y else (y, x - y)
    if gap == 0.0 and phi.alpha <= 1.0:
        return math.inf
    # arguments the rule chose out of v's reach are a failure of the rule, not of the caller's x and y
    t_lo, t_hi = _renewal_reach(phi)
    t_lo *= 1.0 + 1e-9  # a margin for the rounding of z = lo*s^p at s_c, below
    refusal = (f"halfline Green reaches x and y in [{1e5 * t_lo:.3g}, {t_hi:.3g}] for {phi.label()}, "
               f"not {x:g} and {y:g}")
    if not (1e5 * t_lo <= lo and gap + lo <= t_hi):
        raise NumericAccuracyError(refusal)
    p = 1.0 / (phi.alpha - 1.0) if gap == 0.0 else 2.0 / phi.alpha
    ratio = _HALFLINE_HEAD * min(1.0, gap / lo) if gap else _HALFLINE_Z_FLOOR  # z_c/lo, before the floor
    s_c = min(max(ratio, max(_HALFLINE_Z_MIN, t_lo) / lo), 1e-5) ** (1.0 / p)
    sig, _, w = _de_rule(_HALFLINE_REACH << _HALFLINE_LEVELS, 2.0 ** -_HALFLINE_LEVELS, 1.0 - s_c)
    s = s_c + (1.0 - s_c) * sig
    try:  # v's t^2 may still round out of the float range at the reach's very end: converted as in _chi_on_cut
        if gap:
            z, z_c = lo * s**p, lo * s_c**p
            v, V_c = _renewal(phi, ("ladder_density", "renewal_function"),
                              (np.concatenate([z, gap + z, [gap, gap + z_c]]), z_c))
        else:
            r = s_c**-0.5
            s = np.concatenate([[s_c, r * s_c], s])
            v = v_far = _renewal(phi, ("ladder_density",), (lo * s**p,))[0]
    except EvaluationDomainError as exc:
        raise NumericAccuracyError(refusal) from exc
    if gap:
        v, v_far, (v_gap, v_end) = v[:s.size], v[s.size:-2], v[-2:]
        if not v_gap >= v_end > 0.0:
            raise NumericAccuracyError(f"halfline Green: the renewal density does not decrease at {gap:g}")
        rest, rest_alt = V_c * (v_gap + v_end) / 2.0, V_c * v_gap  # the head's bracket: midpoint and end
    f = v * (lo * p) * s ** (p - 1.0) * v_far  # the integrand, every product in floats
    if not gap:
        (f_c, f_r), f = f[:2], f[2:]
        if not (f_c > 0.0 and r * f_r > f_c):  # a measured power above -1
            raise NumericAccuracyError(
                f"halfline Green integrand is not integrable as a power law at s = {s_c:.3g}")
        # the fine sums close with the measured power, the coarse ones with the limit power 0
        rest, rest_alt = f_c * s_c / (1.0 + math.log(f_r / f_c, r)), f_c * s_c
    # the rule of step 2^-5 halved once, so the driver's error covers the rests' gap too
    sums = np.array([w @ f + rest]), np.array([2.0 * (w[::2] @ f[::2]) + rest_alt])
    return float(laplace.halving_trapezoid(lambda level, idx: sums, 1, epsabs=_HALFLINE_EPSABS,
                                           epsrel=_HALFLINE_EPSREL, levels=1, what="halfline Green quadrature")[0])


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
    v_r, v_x, v_rx, v_2r, v_rpx = np.atleast_1d(renewal_function_V(phi, np.array([r, x, r - x, 2.0 * r, r + x])))
    return IntervalGreenBound(plain=2.0 * v_x * v_r, min_form=2.0 * v_r * min(v_x, v_rx),
                              symmetric_form=2.0 * v_2r * min(v_rpx, v_rx))
