"""Laplace transforms of positive densities on the real axis, and two reference inversion rules.

Every catalog phi is complete Bernstein, so mu, its tail, u, the small-jump moment and, with t = r^2
and the Brownian resolvent kernel of :func:`resolvent_kernel`, the Green function and jump kernel are
integrals (1/pi) int_0^inf k(t*s) rho(s) ds of densities rho >= 0 read off phi(-s + i0), the upper lip
of its cut (Schilling, Song & Vondracek, *Bernstein Functions*, 2nd ed. 2012, ch. 6-7).  So are the
ladder objects v and V, through chi(-s + i0) = phi(-s^2 + i0)/chi(s) (:mod:`sbmpot.ladder`).  A
:class:`Kernel` carries where it may be closed: its head at 0 and the z past which it is 0 or a power,
which bound the t the rule reaches (:func:`reach`).  :func:`real_axis_integral` certifies them per t on
:func:`halving_trapezoid`, the trapezoid driver every integral of the package shares (Takahasi & Mori,
Publ. RIMS 9, 1974): each distinct t once, since a t's value depends on it alone, on nodes and band layouts
cached per level (:func:`_axis_nodes`, :func:`_band_layout`), so that a call computes only what its density
and its times change.  Nothing in the package calls fixed-Talbot (Abate & Valko) or Gaver-Stehfest,
the tests' independent references; a tracer patches both names.  :func:`quad` is scipy's ``quad``,
which nothing calls: it is the name a tracer patches, and imports ``scipy.integrate`` on its first call.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import expit, k0, kv

from .errors import EvaluationDomainError, NumericAccuracyError

__all__ = [
    "Kernel",
    "resolvent_kernel",
    "real_axis_integral",
    "reach",
    "check_reach",
    "talbot_inversion",
    "gaver_stehfest",
    "halving_trapezoid",
    "squares",
    "finite",
    "quad",
]

_NORMAL = (np.finfo(float).tiny, np.finfo(float).max)  # the normal float range


@lru_cache(maxsize=16)
def _talbot_weights(m: int):
    # Fixed-Talbot contour s(theta) = (r/t) * theta * (cot(theta) + i),
    # theta_k = k*pi/m, r = 2m/5.  Because t*s_k does not depend on t the
    # exponential factors can be cached once per node count.
    theta, r = np.arange(m) * np.pi / m, 2.0 * m / 5.0
    cot = np.concatenate([[0.0], 1.0 / np.tan(theta[1:])])
    base = np.concatenate([[r], r * theta[1:] * (cot[1:] + 1j)])  # equals t*s_k
    gamma = np.concatenate([[0.5 * math.exp(r)],
                            np.exp(base[1:]) * (1.0 + 1j * theta[1:] * (1.0 + cot[1:] ** 2) - 1j * cot[1:])])
    return base, gamma * 0.4


@lru_cache(maxsize=8)
def _stehfest_weights(n: int):
    # lam_k = k ln 2/t, weights ln 2 * (-1)^(k + n/2) sum_j j^(n/2) (2j)!/((n/2 - j)! j! (j-1)! (k-j)! (2j-k)!)
    if n % 2 != 0:
        raise ValueError("Gaver-Stehfest term count must be even")
    half, f = n // 2, math.factorial
    return np.arange(1, n + 1) * math.log(2.0), math.log(2.0) * np.array([(-1) ** (k + half) * sum(
        j**half * f(2 * j) / (f(half - j) * f(j) * f(j - 1) * f(k - j) * f(2 * j - k))
        for j in range((k + 1) // 2, min(k, half) + 1)) for k in range(1, n + 1)])


def _invert(transform: Callable, t, base: np.ndarray, weights: np.ndarray):
    """sum_k w_k F(b_k/t)/t at the positive times t, the result in t's shape."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr <= 0.0):
        raise EvaluationDomainError("inversion times must be positive")
    fs = transform(base[None, :] / t_arr[:, None])
    # a sum past the float range is inf or nan, which a caller has to refuse
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.real(fs @ weights) / t_arr
    return vals if np.ndim(t) else float(vals[0])


def talbot_inversion(transform: Callable, t, nodes: int = 32) -> np.ndarray:
    """Fixed-Talbot inverse Laplace transform of ``transform``, which takes a complex ndarray, at times t."""
    return _invert(transform, t, *_talbot_weights(nodes))


def gaver_stehfest(transform: Callable, t, terms: int = 14) -> np.ndarray:
    """Gaver-Stehfest inverse Laplace transform of ``transform``, from real-axis samples only, at times t."""
    return _invert(transform, t, *_stehfest_weights(terms))


def squares(x, what: str) -> np.ndarray:
    """x^2 of an array of x, once each x is positive with a square in the normal float range."""
    with np.errstate(over="ignore", under="ignore"):
        sq = (x := np.asarray(x, dtype=float)) * x
    if not np.all(ok := (x > 0.0) & (sq >= _NORMAL[0]) & (sq <= _NORMAL[1])):
        raise EvaluationDomainError(f"{what} must lie in (0, inf), its square in the float range; not {x[~ok][0]:g}")
    return sq


def finite(values, at, what: str):
    """``values``, one per argument of ``at`` and in its shape (a float for a scalar), once each is a finite float:
    the one exit of u, mu, the tail, G, j, v and V, closed or summed, and of the columns derived from them.  A value
    past the float range raises EvaluationDomainError naming ``what`` at its argument: "levy_density at t = 1e-300"."""
    values = np.asarray(values, dtype=float).reshape(np.shape(at))
    if not (ok := np.isfinite(values)).all():
        raise EvaluationDomainError(f"{what} = {np.ravel(at)[np.argmin(ok)]:g} leaves the float range")
    return values if values.ndim else float(values)


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


# the real-axis rule's relative target, step halvings from 1/2, and reach in k (see _axis_nodes)
_AXIS_EPSREL, _AXIS_LEVELS, _AXIS_FAR, _AXIS_NEAR, _AXIS_SCALE = 1e-9, 6, 97, 4, 32.0
_BLOCK = 1 << 16  # elements of a (time, node) block


@lru_cache(maxsize=32)
def _axis_nodes(level: int, b: float):
    """Nodes at step h = 2^-(level+1), ascending, weights, and which nodes are new at this level.  On
    (0, b), s = b*sigmoid(x), x = A*sinh(k/A) + e^k for k in [-_AXIS_FAR, _AXIS_NEAR]: log s is uniform
    out to |x| ~ A, b - s doubly exponential toward b, and s = b*e^-331 at the far end; (b, inf) is
    its mirror, s = b*(1 + e^-x), which shares the node at k = _AXIS_NEAR, s = b, so that the nodes of
    step 2h are the even ones on both sides.  The far ends' weights are halved; nodes within 4 ulps of
    b, which meet b in a kind's arithmetic, weigh 0."""
    h, a = 0.5 ** (level + 1), _AXIS_SCALE
    k = h * np.arange(-_AXIS_FAR << (level + 1), (_AXIS_NEAR << (level + 1)) + 1)
    x, dx = a * np.sinh(k / a) + np.exp(k), np.cosh(k / a) + np.exp(k)
    sig, sig_m = expit(x), expit(-x)
    s = b * np.concatenate([sig, 1.0 + (sig_m / sig)[-2::-1]])
    w = (b * h) * np.concatenate([dx * sig * sig_m, (dx * sig_m / sig)[-2::-1]])
    w[[0, -1]] *= 0.5
    w[np.abs(s - b) <= 4.0 * np.spacing(b)] = 0.0
    return s, w, np.arange(s.size) % 2 == 1


@lru_cache(maxsize=32)
def _band_layout(level: int, b: float, span: float, powers: tuple[float, ...]):
    """What :func:`real_axis_integral` sums at a level whatever the density: the nodes it sums (all at level 1,
    the new ones past it) as an index and their weights; those nodes, the head's s^a for each power a of
    ``powers`` and log s on them; the widest band a t can have with a kernel of ``span`` = far/tiny (every node
    for inf), in those nodes; and each node's window of that width, padded past the last node with it."""
    s, w, new = _axis_nodes(level, b)
    width = -(-int((np.searchsorted(s, s * span) - np.arange(s.size)).max() + 2) // 2) * 2
    at = slice(None) if level == 1 else slice(1, None, 2)
    s, w, width = s[at], w[at], width if level == 1 else width // 2
    with np.errstate(over="ignore", under="ignore"):  # s^a past every band, where no sum reads it
        heads = tuple(s**a for a in powers)
    log_s = np.log(s)
    for x in (w, log_s, *heads):  # shared by every call that asks for this layout
        x.flags.writeable = False
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(s, (0, width), "edge"), width)
    return at, w, heads, log_s, width, windows


class Kernel(NamedTuple):
    """A kernel k(z), z > 0, of :func:`real_axis_integral`, and the forms the rule closes it with.

    Under z = ``tiny`` it is its ``head``, terms (a, A, B) of sum z^a (A + B log z) by rising a, to rounding;
    past z = ``far`` it is 0 or a power.  A kernel with a head is summed on a band of nodes per t, the
    nodes under the band in the head's closed form once for all t; one without (None) on every node.
    """

    f: Callable
    tiny: float
    far: float
    head: tuple[tuple[float, float, float], ...] | None = None


_EXP = Kernel(lambda z: np.exp(-z), 1e-17, 746.0, ((0.0, 1.0, 0.0),))  # 1 in floats under tiny, 0 past far
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


@lru_cache(maxsize=8)
def resolvent_kernel(d: int) -> Kernel:
    """k_d(z) = z^(nu/2) K_nu(sqrt z), nu = d/2 - 1, set to 0 past sqrt z = 746, where it underflows.

    (2 pi)^(-d/2) r^(2-d) k_d(r^2 s) is the Brownian resolvent density int_0^inf e^(-st) p(t, r) dt in
    dimension d.  In d = 1 and 3 it is sqrt(pi/2) e^(-sqrt z), over sqrt z in d = 1; in d = 2 it is
    K_0(sqrt z) = L (1 + z/4) + z/4 to rounding under z = 1e-8, L = -log(z/4)/2 - gamma_E; in d >= 4 its
    head is the constant 2^(nu-1) Gamma(nu).
    """
    nu, far = d / 2.0 - 1.0, 746.0**2
    if d in (1, 3):
        return Kernel((lambda z: _SQRT_HALF_PI * np.exp(-np.sqrt(z)) / np.sqrt(z)) if d == 1 else
                      (lambda z: _SQRT_HALF_PI * np.exp(-np.sqrt(z))),
                      1e-32, far, (((d - 3) / 4.0, _SQRT_HALF_PI, 0.0),))
    c = math.log(2.0) - np.euler_gamma
    tiny, head = (1e-8, ((0.0, c, -0.5), (1.0, (c + 1.0) / 4.0, -0.125))) if d == 2 else (
        1e-32, ((0.0, 2.0 ** (nu - 1.0) * math.gamma(nu), 0.0),))
    bessel = k0 if d == 2 else (lambda x: kv(nu, x) * x**nu)

    def f(z):  # the head under tiny, where kv overflows; 0 past far
        out, small, live = np.zeros(z.shape), z < tiny, (z >= tiny) & (z < far)
        zs = z[small]
        out[small], out[live] = sum(zs**a * (h0 + h1 * np.log(zs)) for a, h0, h1 in head), bessel(np.sqrt(z[live]))
        return out

    return Kernel(f, tiny, far, head)


def reach(kernel: Kernel | None, b: float) -> tuple[float, float]:
    """The t :func:`real_axis_integral` reaches with ``kernel`` (exp(-z) for None) split at b: [far/s_max,
    tiny/s_min], about [1e-138, 1e112] for the resolvent kernels at b = 1."""
    k, s = _EXP if kernel is None else kernel, _axis_nodes(1, b)[0]
    return k.far / s[-1], k.tiny / s[0]


def check_reach(kernel: Kernel | None, b: float, x, name: str = "t", power: int = 1) -> None:
    """Refuse, with NumericAccuracyError, an x whose t = x^power :func:`real_axis_integral` does not reach
    (:func:`reach`).  The message states the reach in x, under ``name``."""
    (lo, hi), x = reach(kernel, b), np.asarray(x, dtype=float)
    t = x**power
    if not np.all((t >= lo) & (t <= hi)):
        raise NumericAccuracyError(f"the real-axis rule reaches {name} in [{lo ** (1.0 / power):.3g}, "
                                   f"{hi ** (1.0 / power):.3g}], not {x.min():g} to {x.max():g}")


def real_axis_integral(rho: Callable, t, b: float = 1.0, kernel: Kernel | Sequence[Kernel | None] | None = None):
    """(1/pi) int_0^inf k(t*s) rho(s) ds at each t, for a density rho >= 0 with a branch point b.

    ``rho`` takes an array of s, evaluated once per node for all t.  With one kernel (exp(-z) for None) it gives
    one density, and the values come in the shape of t; with a sequence of kernels it gives one density per
    kernel, t is a sequence of one array of times per kernel, and the values are a list of one array per kernel.
    A t sums the nodes under its band (t*s under the kernel's ``tiny``) in the head's closed form, from sums once
    for all t, and drops those past ``far``.  A band is as wide as any t's can be (every node for a kernel
    without a head), and past the first level sums its new nodes only, onto half the last level's sum, so a t's
    value depends on it alone, bit for bit: the rule takes each distinct t once and gives its value to every place
    it has in t.  The rule is split at b, where rho may be singular;
    the nodes dropped next to b cost about 4*c*sqrt(ulp(b)) of a singularity c*|s - b|^(-1/2): 3.8e-7 relative
    for exp(-t)/sqrt(pi*t) at t = 100, b = 1.  Past the far ends the integrand is closed by the power it follows
    between the end node and the next one of step 1 (at the left end, rho's power and the kernel's log term), with
    the Euler-Maclaurin h^2 term of the halved end weight.  Each t is certified to relative _AXIS_EPSREL (absolute
    under the smallest normal float) by :func:`halving_trapezoid`.  The rule reaches the t of
    :func:`reach`.  A rho not finite or 0 at every node (a cut with point masses only), an end not integrable
    as a power, a t out of reach or a value past the float range raises NumericAccuracyError.
    """
    paired = not (kernel is None or isinstance(kernel, Kernel))
    kernels = [_EXP if k is None else k for k in (kernel if paired else [kernel])]
    times = [np.ravel(np.asarray(x, dtype=float)) for x in (t if paired else [t])]
    for k, tt in zip(kernels, times, strict=True):
        if not np.all(tt > 0.0):
            raise EvaluationDomainError("times must be positive")
        check_reach(k, b, tt)
    dens = {}  # each kernel's density at each level's nodes, (kernels, nodes)

    def density(level):
        if level not in dens:
            s, w, new = _axis_nodes(level, b)
            todo = (w > 0.0) & (new | (level == 1))
            vals = np.zeros((len(kernels), s.size))
            vals[:, todo] = rho(s[todo])
            if level > 1:
                vals[:, ~new] = dens[level - 1]
            if not np.all(finite := np.isfinite(vals)):
                raise NumericAccuracyError(f"density on the cut is not finite at s = {s[~finite.all(axis=0)][0]:.6g}")
            if level == 1 and not np.all(np.any(vals > 0.0, axis=1)):
                raise NumericAccuracyError("density on the cut is 0 at every node: the cut has point masses")
            dens[level] = vals
        return dens[level]

    values = [_certified(lambda level, i=i: density(level)[i], tt, b, k)
              for i, (k, tt) in enumerate(zip(kernels, times))]
    if not all(np.all(np.isfinite(x)) for x in values):
        raise NumericAccuracyError("a real-axis integral leaves the float range")
    if paired:
        return values
    return values[0].reshape(np.shape(t)) if np.ndim(t) else float(values[0][0])


def _certified(density: Callable, tt: np.ndarray, b: float, k: Kernel) -> np.ndarray:
    """:func:`real_axis_integral` at the times tt of one density, taken by level, and one kernel: each distinct t
    once, its value given to every place it has in tt."""
    tt, where = np.unique(tt, return_inverse=True)
    head, tiny, span = (k.head, k.tiny, k.far / k.tiny) if k.head else ((), 0.0, math.inf)
    log_c = head[0][2] if head else 0.0  # the leading term's log, which the left end's rest closes with
    # d log s/dk at the far ends, and d log(d log s/dk)/dk at the left one
    x1, c1 = math.cosh(_AXIS_FAR / _AXIS_SCALE), math.tanh(_AXIS_FAR / _AXIS_SCALE) / _AXIS_SCALE
    at = {}  # the rests' data, and the last level's fine sums

    def rest(h, idx):  # c*s^p past both ends, with p measured between the end node and the next of step 1
        p1 = at["p1"][idx]
        return at["fs"][idx] * (at["head"][idx] + h * h / 12.0 * x1 * (p1 * x1 - [c1, -c1])) @ [1.0, -1.0]

    def sums(level, idx):
        s, _, new = _axis_nodes(level, b)
        vals = density(level)
        tk = tt[idx]
        if level == 1:
            ke = k.f(tt[:, None] * s[[0, 2, -3, -1]])
            f = ke * vals[[0, 2, -3, -1]]
            at["fs"], live = f[:, [0, 3]] * s[[0, -1]], f[:, [0, 3]] > 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                p1 = np.log(f[:, [1, 2]] / f[:, [0, 3]]) / np.log(s[[2, -3]] / s[[0, -1]]) + 1.0
            if not np.all(~live | (p1 * [1.0, -1.0] > 0.0)):
                raise NumericAccuracyError("integrand on the cut is not integrable as a power past an end")
            at["p1"] = np.where(live, p1, 1.0)  # a rest of 0 where the end's integrand is 0
            at["head"] = 1.0 / at["p1"]
            if log_c:  # k = A + B log z at the left end: int_0^1 u^q (1 + B log(u)/k) du, q rho's own power
                p = at["p1"][:, 0] - np.log(ke[:, 1] / ke[:, 0]) / math.log(s[2] / s[0])
                at["head"][:, 0] = 1.0 / p - log_c / (ke[:, 0] * p * p)
        # each band starts on a node of step 2h; past level 1 the rule sums the new nodes only, at step h
        lo = np.searchsorted(s, tiny / tk) // 2 * 2
        nodes, w, powers, log_s, width, win_s = _band_layout(level, b, span, tuple(a for a, _, _ in head))
        q = w * vals[nodes]
        if level == 1:  # every node, weighed at steps h and 2h
            qs = np.array([q, np.where(new, 0.0, 2.0 * q)])
        else:
            qs, lo = q[None], lo // 2
        # the nodes under each band, in the head's form: sum over its terms of
        # t^a ((A + B log t) sum q s^a + B sum q s^a log s)
        below = np.zeros((len(qs), tk.size))
        for (a, h0, h1), s_a in zip(head, powers):
            with np.errstate(over="ignore"):  # q s^a may overflow past every band, where no sum is read
                steps = qs * s_a
                cum = [np.concatenate([np.zeros((len(qs), 1)), np.cumsum(x, axis=1)], axis=1)[:, lo]
                       for x in ((steps, steps * log_s) if h1 else (steps,))]
            below = below + tk**a * ((h0 + h1 * np.log(tk)) * cum[0] + (h1 * cum[1] if h1 else 0.0))
        band = np.zeros((len(qs), tk.size))
        q_pad = np.concatenate([qs[0], np.zeros(width)])  # a node past the last weighs 0
        win_q = np.ndarray((qs.shape[1] + 1, width), buffer=q_pad, strides=q_pad.strides * 2)  # windows, as win_s
        step = max(1, _BLOCK // width)
        for r in range(0, tk.size, step):  # blocks of _BLOCK (time, node) pairs
            rows = slice(r, r + step)
            terms = k.f(tk[rows, None] * win_s[lo[rows]]) * win_q[lo[rows]]
            band[0, rows] = terms.sum(axis=1)
            if level == 1:
                band[1, rows] = 2.0 * terms[:, ::2].sum(axis=1)
        rests = [rest(0.5 ** (level + 1), idx), rest(0.5 ** level, idx)]
        # the trapezoid sums; past level 1 the coarse one is the last level's fine one
        prev = at["sum"][np.searchsorted(at["idx"], idx)] if level > 1 else None
        fine, coarse = (0.5 * prev + below[0] + band[0], prev) if level > 1 else below + band
        at["sum"], at["idx"] = fine, idx
        return fine + rests[0], coarse + rests[1]

    return (halving_trapezoid(sums, tt.size, epsabs=np.finfo(float).tiny, epsrel=_AXIS_EPSREL,
                              levels=_AXIS_LEVELS, what="real-axis integral") / math.pi)[where]


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on the first call; nothing calls it, and ``kernels`` and ``ladder``
    bind it only so that a tracer's wrapper set on that name keeps a target."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)
