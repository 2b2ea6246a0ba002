"""Ladder-height machinery of the one-dimensional subordinate Brownian motion.

The ascending ladder-height process of X is a subordinator whose Laplace
exponent has the explicit log-integral representation

    chi(lam) = exp( (1/pi) * int_0^inf log(phi(lam^2 th^2)) / (1+th^2) dth ),

and chi is sandwiched between exp(-pi/2) and exp(pi/2) times sqrt(phi(lam^2)).
The renewal density v and renewal function V have Laplace transforms 1/chi
and 1/(lam*chi); the half-line Green function is the convolution
G(x,y) = int_0^(x^y) v(z) v(|y-x|+z) dz, a double sum over v's own measure.

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
V and the half-line sum, which ask chi for the nodes of each level of the
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
from the kind registry instead.  v = c + int e^(-t sig) nu(d sig) is
completely monotone, so ``halfline_green`` is a positive double sum over nu
(Silverstein, Ann. Probab. 8, 1980), certified per level by the shared driver,
:func:`sbmpot.laplace.halving_trapezoid`; it takes no v at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


_HALFLINE_EPSABS, _HALFLINE_EPSREL, _HALFLINE_BLOCK = 1e-10, 1e-9, 1 << 15  # half-line targets; entries of a block


def _pair_sums(sig, nu, lo: float, gap: float, c: float) -> np.ndarray:
    """c^2 lo + sum c a (1 + F)/sig + a'Kb + e'Kd per measure nu (row of ``nu``) on the ascending sig, all terms
    positive: E, F = e^(-lo sig), e^(-gap sig), a, e = nu (1 - E), nu E, b, d = nu F, nu F (1 - E), K_ij = 1/(sig_i
    + sig_j).  K is formed in row blocks of at most _HALFLINE_BLOCK entries (sig_i + sig_j an exact rank-2 product)
    within a factor 1e8 of a block's rows; past that, K_ij = (1/sig_i)(1 - sig_j/sig_i) or its mirror to 1e-16."""
    with np.errstate(all="ignore"):  # lo sig past the float range gives E = 0; a sum past it is refused
        one_e, f_gap = -np.expm1(-lo * sig), np.exp(-gap * sig)
        a, e, b, n = nu * one_e, nu * np.exp(-lo * sig), nu * f_gap, len(nu)
        sc, bd = sig[np.any(b > 0.0, axis=0)], np.concatenate([b, b * one_e])[:, np.any(b > 0.0, axis=0)]
        under = [np.cumsum(np.pad(bd * x, ((0, 0), (1, 0))), axis=1) for x in (1.0, sc)]
        over = [np.cumsum(np.pad(bd / x, ((0, 0), (0, 1)))[:, ::-1], axis=1)[:, ::-1] for x in (sc, sc * sc)]
        j0, j1 = np.searchsorted(sc, 1e-8 * sig), np.searchsorted(sc, 1e8 * sig, "right")
        rows, buf = np.zeros((2 * n, sig.size)), np.empty(max(_HALFLINE_BLOCK, int(np.max(j1 - j0, initial=0))))
        left, right = np.stack([sig, np.ones(sig.size)]), np.stack([np.ones(sc.size), sc], 1)
        count, r = np.arange(1, sig.size + 1), 0
        while r < sig.size:  # the longest run of rows from r whose columns fit in a block takes its first and last's
            end = r + max(1, int(np.searchsorted(count[:sig.size - r] * (j1[r:] - j0[r]), _HALFLINE_BLOCK, "right")))
            j0[r:end], j1[r:end], k = j0[r], j1[end - 1], buf[:(end - r) * (j1[end - 1] - j0[r])].reshape(-1, end - r)
            if k.size:
                k = np.divide(1.0, np.matmul(right[j0[r]:j1[r]], left[:, r:end], out=k), out=k)
                rows[:, r:end] = bd[:, j0[r]:j1[r]] @ k
            r = end
        rows += (under[0][:, j0] - under[1][:, j0] / sig) / sig + over[0][:, j1] - sig * over[1][:, j1]
        return c * c * lo + np.sum(c * a / sig * (1.0 + f_gap) + a * rows[:n] + e * rows[n:], axis=1)


def _end_mass(fs: float, q: float, h: float, sign: float) -> float:
    """The mass past an end node (sign 1 the left, -1 the right) of a density with f z = fs there, going like
    z^(q-1), with the Euler-Maclaurin h^2 and h^4 terms of its halved weight: log s ~ sign a sinh(k/a) there, so the
    integrand's log has derivatives l1 = q x - sign c (as in :func:`sbmpot.laplace.real_axis_integral`), l2, l3."""
    a = laplace._AXIS_SCALE
    x, s = math.cosh(laplace._AXIS_FAR / a), math.sinh(laplace._AXIS_FAR / a)
    l1, l2, l3 = q * x - sign * s / (a * x), (a * x) ** -2 - sign * q * s / a, q * x / a**2 + 2 * sign * s / (a * x)**3
    return sign * fs * (1.0 / q + x * (h * h / 12.0 * l1 - h**4 / 720.0 * (l3 + 3.0 * l1 * l2 + l1**3)))


def halfline_green(phi: CompleteBernsteinFunction, x: float, y: float) -> float:
    """Green function of (0, inf) at (x, y): G = int_0^lo v(z) v(gap + z) dz, lo = x^y, gap = |y - x|.

    v = c + int e^(-t sig) nu(d sig) is completely monotone: G is :func:`_pair_sums` over nu at sqrt of the real-axis
    rule's nodes with v's weights, at 1/phi's atoms, and at the cut's mass past both end nodes (off the diagonal
    only past the last), closed by nu's power measured from the next node of step 1.  Each level is certified by
    :func:`sbmpot.laplace.halving_trapezoid` against its even nodes and the sum closed by the kind's powers.  On the
    diagonal, e^(-delta sig), delta = 1e-60 lo (or v's lowest t), damps nu for int_delta^lo v^2, and v's power from
    v(delta) to v(sqrt(delta lo)), or alpha/2 - 1, closes int_0^delta v^2: +inf for alpha <= 1.  A cut reaches the
    x, y of v's real-axis rule, and |y - x| = 0 or over 1e16 times its lowest t: NumericAccuracyError past that."""
    if not (1e-300 <= x < math.inf and 1e-300 <= y < math.inf):
        raise EvaluationDomainError(f"halfline Green needs x, y in [1e-300, inf), got {x:g} and {y:g}")
    (lo, gap), m, b = (x, y - x) if x <= y else (y, x - y), phi.stieltjes(0), phi.branch_point
    if gap == 0.0 and phi.alpha <= 1.0:
        return math.inf
    if m.refusal:
        raise NumericAccuracyError(m.refusal)
    t_lo, t_hi = np.sqrt(laplace.reach(_RENEWAL_KERNELS["ladder_density"], b)) if m.cut else (0.0, math.inf)
    if not (t_lo <= lo and lo + gap <= t_hi and (gap == 0.0 or gap >= 1e16 * t_lo)):
        raise NumericAccuracyError(f"halfline Green reaches x and y in [{t_lo:.3g}, {t_hi:.3g}], with |y - x| 0 or "
                                   f"over {1e16 * t_lo:.3g}, for {phi.label()}, not {x:g} and {y:g}")
    r, c, dens, found, ends = np.sqrt(m.z[np.isfinite(m.z)]), math.sqrt(m.c), {}, {}, []
    atoms, delta = (r, _chi_on_cut(phi, r) * m.w[np.isfinite(m.z)] / (2.0 * r)), max(1e-60 * lo, t_lo) * (gap == 0)

    def density(level):  # nu's density in z at the level's nodes, 0 where a node weighs 0
        s, w, new = laplace._axis_nodes(level, b)
        if level not in dens:
            dens[level] = f = np.zeros(s.size)
            f[~new] = dens[level - 1] if level - 1 in dens else 0.0
            todo = (w > 0.0) & (new | (level - 1 not in dens))
            f[todo] = -(1.0 / phi._eval(-s[todo] + 0j)).imag * _chi_on_cut(phi, np.sqrt(s[todo])) / (
                2.0 * math.pi * np.sqrt(s[todo]))
            if not np.all(ok := np.isfinite(f) & (f >= 0.0)):  # v completely monotone: a positive measure
                raise NumericAccuracyError(f"halfline Green: v is not completely monotone at s = {s[~ok][0]:.6g}")
        return s, w, dens[level]

    if m.cut:  # each end's node, f z there and f's power, measured and as the kind states (f/sqrt z past the last)
        (s, _, f), q0 = density(1), phi.small_exponent
        for i, j, g, sign in ((0, 2, f, 1.0), (-1, -3, f / np.sqrt(s), -1.0)):
            if g[i] > 0.0 and (sign > 0.0 or gap > 0.0):
                powers = (math.log(g[j] / g[i]) / math.log(s[j] / s[i]) + 1.0, -phi.alpha / 4.0 if sign < 0.0 else (
                    (1.0 - q0) / 2.0 if q0 is not None else math.log(f[4] / f[2]) / math.log(s[4] / s[2]) + 1.0))
                if not min(sign * q for q in powers) > 0.0:
                    raise NumericAccuracyError("halfline Green: the cut's density is not integrable past an end")
                ends.append((math.sqrt(s[i]), g[i] * s[i], powers, sign))

    def totals(levels):  # in one pass, G at each level (0: every other node of level 1), closed by the measured
        s, w, f = density(levels[0]) if m.cut else (np.empty(0),) * 3  # powers and, at the first, the kind's (k = 1)
        on, runs, nu = w * f > 0.0, [(level, k) for level in levels for k in range(2 - (level < levels[0]))], []
        for level, k in runs:
            step = 2 ** (levels[0] - level)
            nu.append(np.concatenate([np.where(np.arange(w.size) % step == 0, step * w, 0.0)[on] * f[on], atoms[1], [
                _end_mass(fs, p[k], 0.5 ** (level + 1), sign) * root ** (sign < 0.0) for root, fs, p, sign in ends]]))
        order = np.argsort(sig := np.concatenate([np.sqrt(s[on]), atoms[0], [e[0] for e in ends]]), kind="stable")
        sig, nu = sig[order], np.array(nu)[:, order]
        value = _pair_sums(sig, nu * np.exp(-delta * sig), lo - delta, gap, c)
        if delta:  # int_0^delta v^2, with v's power from v(delta) to v(sqrt(delta lo)), or with alpha/2 - 1
            with np.errstate(over="ignore"):
                v_0, v_1 = c + np.exp(-np.outer([delta, math.sqrt(delta * lo)], sig)) @ nu.T
            p = np.where([k for _, k in runs], phi.alpha / 2.0 - 1.0, 2.0 * np.log(v_1 / v_0) / math.log(lo / delta))
            if not np.all(2.0 * p + 1.0 > 0.0):
                raise NumericAccuracyError(f"halfline Green: v^2 is not integrable as a power under z = {delta:.3g}")
            value = value + delta * v_0 * v_0 / (2.0 * p + 1.0)
        found.update(zip(runs, value))

    def sums(level, _):  # G, and G plus its gaps to its even nodes' G and to G closed by the kind's powers
        totals([1, 0] if level == 1 else [level])
        fine = found[level, 0]
        return np.array([fine]), np.array([fine + abs(fine - found[level - 1, 0]) + abs(fine - found[level, 1])])

    return laplace.finite(laplace.halving_trapezoid(sums, 1, epsabs=_HALFLINE_EPSABS, epsrel=_HALFLINE_EPSREL, levels=(
        laplace._AXIS_LEVELS if m.cut else 1), what="halfline Green quadrature")[0], x, "halfline Green at x")


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
