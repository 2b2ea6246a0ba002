"""Ladder-height machinery of the one-dimensional subordinate Brownian motion.

The ascending ladder-height process of X is a subordinator whose Laplace
exponent has the explicit log-integral representation

    chi(lam) = exp( (1/pi) * int_0^inf log(phi(lam^2 th^2)) / (1+th^2) dth ),

and chi is sandwiched between exp(-pi/2) and exp(pi/2) times sqrt(phi(lam^2)).
The renewal density v and renewal function V have Laplace transforms 1/chi
and 1/(lam*chi); the half-line Green function is the convolution
G(x,y) = int_0^(x^y) v(z) v(|y-x|+z) dz.

Numerical notes.  The quadrature pulls the power lam^(alpha/2) out of the
exponent analytically (using int log(th)/(1+th^2) dth = 0), leaving only the
slowly varying part under the integral.  It holds for lam > 0 only, but
Wiener-Hopf for psi(xi) = phi(xi^2) gives chi(lam) chi(-lam) = phi(-lam^2), so
the Stieltjes function 1/chi has the cut density chi(s) (-Im 1/phi(-s^2 + i0))
(Kwasnicki, Studia Math. 206, 2011), and each atom w/(lam + z) of 1/phi gives
1/chi the atom chi(sqrt z) w/(2 sqrt z): v and V are the sums of 1/phi's
measure so weighed (:meth:`sbmpot.bernstein.CompleteBernsteinFunction.sums`).
Kinds whose v and V have closed forms (the stable kind, where chi(lam) =
lam^(alpha/2)) take them from the kind registry instead.  The doubly
exponential nodes on (0, 1) of ``_de_rule`` (Takahasi & Mori, Publ. RIMS 9,
1974), exact at both ends, serve chi as one fixed rule and the half-line
convolution as one rule, certified against its every other node by the shared
driver, :func:`sbmpot.laplace.halving_trapezoid`, on v taken up front.  v is
completely monotone, so off the diagonal the convolution's head
int_0^(z_c) v(z) v(gap+z) dz lies in V(z_c) [v(gap+z_c), v(gap)]: with z_c =
1e-12 min(x^y, gap), v's arguments stay where the real-axis rule certifies at
its second level, and one chi sweep of its nodes serves v and V(z_c) alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

_CHI_NODES = 128  # half-width of chi's DE rule: about 2*_CHI_NODES nodes per lam
_BLOCK = 1 << 16  # elements of a (lam, node) block
_NORMAL = (np.finfo(float).tiny, np.finfo(float).max)  # the normal float range


def _de_rule(n: int, h: float, length: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DE rule for int_0^length: node fractions s_k = sigmoid(pi*sinh(kh)), |k| <= n, and
    1 - s_k, each exact at its end, and weights h*g(kh), so step 2h has every other node."""
    k = np.arange(-n, n + 1, dtype=float)
    t = math.pi * np.sinh(k * h)
    sig, sig_m = expit(t), expit(-t)
    return sig, sig_m, (length * math.pi * h) * np.cosh(k * h) * sig * sig_m


def ladder_exponent_chi(phi: CompleteBernsteinFunction, lam):
    """Laplace exponent chi of the ladder-height subordinator of X, for lam of any shape.

    Each value costs one sweep of about 2*_CHI_NODES nodes, in blocks of _BLOCK elements.  A node whose
    lam^2 tan^2(theta) leaves the float range takes phi at its end, which moves log(phi(z)/z^(alpha/2)) by
    at most |log| of the ratio of the two z (phi increases, phi(z)/z decreases): over 1e-16 of chi, refused."""
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float)).ravel()
    lam2 = laplace.squares(lam_arr, "chi's lam")
    sig, sig_m, w = _de_rule(_CHI_NODES, 3.9 / _CHI_NODES, math.pi / 2.0)
    keep = w > 1e-30
    # theta and pi/2 - theta; tan^2 is formed on the half away from the
    # rounding cliff, so both ends stay resolved down to the weight cutoff
    x, xi = (math.pi / 2.0) * sig[keep], (math.pi / 2.0) * sig_m[keep]
    tansq, w = np.where(x <= math.pi / 4.0, np.tan(x) ** 2, 1.0 / np.tan(xi) ** 2), w[keep]
    corr = np.empty(lam_arr.size)
    rows = max(8, _BLOCK // tansq.size // 8 * 8)  # whole groups of 8 rows, as BLAS takes them
    for b in range(0, lam_arr.size, rows):
        with np.errstate(over="ignore", under="ignore"):
            z = lam2[b:b + rows, None] * tansq[None, :]
        if not np.all((z >= _NORMAL[0]) & (z <= _NORMAL[1])):  # phi at the range's end, as above
            log_z, z = np.log(lam2[b:b + rows, None]) + np.log(tansq), np.clip(z, *_NORMAL)
            if not np.all(np.abs(log_z - np.clip(log_z, *np.log(_NORMAL))) @ w <= 1e-16 * math.pi):
                raise EvaluationDomainError(f"chi: lam^2 tan^2(theta) leaves the float range at nodes of weight "
                                            f"over 1e-16, for lam in [{lam_arr.min():g}, {lam_arr.max():g}]")
        # log(phi(z) / z^(alpha/2)) without forming the ratio
        corr[b:b + rows] = (np.log(phi._eval(z)) - (phi.alpha / 2.0) * np.log(z)) @ w
    out = (lam_arr ** (phi.alpha / 2.0) * np.exp(corr / math.pi)).reshape(np.shape(lam))
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
    c_v = lim lam/chi = sqrt(lim lam/phi).  A t whose t^2 the real-axis rule does not reach is refused in t."""
    closed = [phi.closed_form(name, t) for name, t in zip(names, ts)]
    if all(value is not None for value in closed):
        return closed
    flat = [np.ravel(np.asarray(t, dtype=float)) for t in ts]
    squares = [laplace.squares(tt, "t of v and V") for tt in flat]
    kernels, m = [_RENEWAL_KERNELS[name] for name in names], phi.stieltjes(0)
    if m.cut:
        for k, tt in zip(kernels, flat):
            laplace.check_reach(k, phi.branch_point, tt, "t", 2)
    rows = phi.sums([(0, 0)] * len(names), squares, kernels,
                    weight=lambda z, x: _chi_on_cut(phi, np.sqrt(z)) * x / (2.0 * np.sqrt(z)))
    atom = math.sqrt(m.c)
    out = [(atom + row if name == "ladder_density" else tt * (atom + row)).reshape(np.shape(t))
           for name, t, tt, row in zip(names, ts, flat, rows)]
    return [x if np.ndim(t) else float(x) for x, t in zip(out, ts)]


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
