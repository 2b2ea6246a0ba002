"""Catalog of complete Bernstein functions and their Levy data.

Every entry is the Laplace exponent phi of a (possibly killed) subordinator,

    phi(lam) = a + b*lam + integral_0^inf (1 - exp(-lam*t)) mu(t) dt,

whose Levy density mu is completely monotone.  The drift b is zero but for
the truncated geometric example.  All catalog entries satisfy a
power-comparability profile at infinity: phi(lam) is comparable to
lam**(alpha/2) times a slowly varying factor on [1, inf), with alpha stored on
the object.

Evaluation accepts real positive or complex arguments (principal branches,
analytic off the negative real axis); -s + 0j is the upper lip of the cut.
1/phi and phi/lam are Stieltjes functions (Schilling, Song & Vondracek,
*Bernstein Functions*, 2nd ed., ch. 6-7), which every kind declares as
:class:`Stieltjes` measures: u and G are their sums over 1/phi's, mu, the tail
and j over phi/lam's (:meth:`CompleteBernsteinFunction.sums`).  The conjugate
swaps the two; a killed shift keeps phi/lam's and finds the atoms of 1/(phi + a).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import gamma as gamma_fn, gammaincc

from . import laplace
from .errors import ConstructionError, EvaluationDomainError, NumericAccuracyError, UnsupportedKindError

__all__ = [
    "CompleteBernsteinFunction",
    "KINDS",
    "JSON_KINDS",
    "stable",
    "relativistic_stable",
    "sum_of_stables",
    "log_perturbed_up",
    "log_perturbed_down",
    "default_truncation",
    "geometric_like",
    "conjugate",
    "killed_shift",
    "eval_levy_density",
    "levy_tail",
    "Stieltjes",
    "check_complete_monotonicity",
    "check_bernstein",
    "MonotonicityReport",
    "phi_from_json",
    "phi_to_json",
    "default_catalog",
]


@dataclass(frozen=True)
class CompleteBernsteinFunction:
    """A catalog Laplace exponent.

    ``alpha`` is the comparability index at infinity (phi(lam) comparable to
    lam**(alpha/2) up to a slowly varying factor).  For the geometric-series
    example the construction parameter ``alpha_param`` differs from the
    profile index: the Stieltjes transform flips it to ``2 - alpha_param``.
    ``killing`` is phi(0+), nonzero only for entries whose subordinator is
    killed.  ``drift`` is zero but for the truncated geometric example.
    """

    kind: str
    alpha: float
    alpha_param: float
    m: float = 0.0
    beta: float = 0.0
    log_exponent: float = 0.0
    n_terms: int = 0
    killing: float = 0.0
    shift: float = 0.0
    inner: "CompleteBernsteinFunction | None" = None

    # ---- evaluation ----------------------------------------------------

    def __call__(self, lam):
        scalar = np.ndim(lam) == 0
        x = np.asarray(lam)
        if not np.iscomplexobj(x):
            x = np.asarray(lam, dtype=float)
            if np.any(x < 0.0):
                raise EvaluationDomainError("Laplace exponent needs lam >= 0")
        val = self._eval(x)
        return complex(val) if scalar and np.iscomplexobj(val) else (float(val) if scalar else val)

    def _eval(self, x):
        return _entry(self.kind).evaluate(self, x)

    # ---- structural data -----------------------------------------------

    @property
    def drift(self) -> float:
        return self.stieltjes(1).a

    def stieltjes(self, side: int) -> "Stieltjes":
        """The measure of 1/phi (side 0) or of phi/lam (side 1)."""
        return _entry(self.kind).stieltjes(self, side)

    @property
    def branch_point(self) -> float:
        """The s where the densities on the cut may be singular."""
        return _entry(self.kind).branch_point(self)

    def sums(self, rows, ts, kernels=None, weight: Callable | None = None) -> list:
        """For each row (side, p), at its own t of ``ts`` and with its kernel of ``kernels`` (exp(-z) for None),
        sum w z^p k(t z) over the atoms of the measure ``side`` plus (1/pi) int_0^inf k(t s) s^p rho(s) ds over its
        density, in the shape of t; a constant's term is the caller's.  weight(s, x) stands for the atoms' x = w z^p,
        finite z only, and rho(s) s^p, once per (side, p); phi is evaluated once per node, on none without rho.
        The atoms sum in _exp_sum's blocks, weighed or not.  A measure's refusal raises here."""
        kernels, ms = kernels or [None] * len(rows), {side: self.stieltjes(side) for side, _ in rows}
        if refusal := next((m.refusal for m in ms.values() if m.refusal), ""):
            raise NumericAccuracyError(refusal)
        keys = list(dict.fromkeys(rows))
        atoms = {}  # _exp_sum's weights, rates and power of each (side, p); weighed, at finite rates only
        for q, p in keys:
            m, live = ms[q], np.isfinite(ms[q].z)
            atoms[q, p] = (m.w, m.z, p) if weight is None else (weight(m.z[live], (m.w * m.z**p)[live]), m.z[live], 0)
        out = [_exp_sum(w, z, tt, p, _neg_exp if k is None else k.f)
               for (w, z, p), k, tt in zip((atoms[row] for row in rows), kernels, ts)]
        if cut := [i for i, (q, _) in enumerate(rows) if ms[q].cut]:
            def rho(s):
                v = self._eval(-s + 0j)
                x = {(q, p): _DENSITY[q](v, s, p) for q, p in keys if ms[q].cut}
                x = x if weight is None else {key: weight(s, y) for key, y in x.items()}
                return [x[rows[i]] for i in cut]

            values = laplace.real_axis_integral(rho, [ts[i] for i in cut], self.branch_point,
                                                [kernels[i] for i in cut])
            for i, row in zip(cut, values):
                out[i] = out[i] + row.reshape(np.shape(ts[i]))
        return out

    def forms(self, names, t) -> list:
        """The forms ``names`` ("potential_density" u, "levy_density" mu, "levy_tail") at t: closed where the kind
        has them, else :meth:`sums` of phi's measures, u with the constant of 1/phi; a scalar t gives floats.  Each
        leaves through :func:`sbmpot.laplace.finite`: one past the float range is an EvaluationDomainError."""
        out = {name: self.closed_form(name, t) for name in names}
        todo = [name for name in names if out[name] is None]
        out.update(zip(todo, self.sums([_FORMS[n] for n in todo], [t] * len(todo))))
        if "potential_density" in out:
            out["potential_density"] = out["potential_density"] + self.stieltjes(0).c
        return [laplace.finite(out[name], t, f"{name} at t") for name in names]

    @property
    def small_exponent(self) -> float | None:
        """Known power behaviour of phi at 0+, or None when unavailable."""
        if self.killing > 0.0:
            return 0.0
        return _entry(self.kind).small_exponent(self)

    def closed_form(self, name: str, t):
        """Closed form ``name`` of the kind at t, or None when there is none.

        ``name`` is ``potential_density``, ``levy_density`` or ``levy_tail``, a
        sum of one of phi's measures without its constant, or
        ``ladder_density`` or ``renewal_function``, which are not sums of a
        measure but functions of chi, the kind's own.  A scalar t gives a float.
        """
        if name in _FORMS:
            side, p = _FORMS[name]
            form = self.stieltjes(side).closed.get(("exp", p))
        else:  # no swap or shift of a measure carries v and V
            form = _entry(self.kind).ladder(self).get(name)
        if form is None:
            return None
        with np.errstate(all="ignore"):  # a value past the float range is its caller's to refuse
            vals = form(np.asarray(t, dtype=float))
        return float(vals) if np.ndim(t) == 0 else vals

    def label(self) -> str:
        entry = _entry(self.kind)
        parts = [f"{p.name}={format(getattr(self, p.field), 'g' if p.coerce is float else '')}"
                 for p in entry.params]
        if entry.composite:
            return f"{self.kind}[{', '.join([self.inner.label(), *parts])}]"
        return f"{self.kind}({', '.join(parts)})"


def _stable_levy(alpha: float, t):
    c = (alpha / 2.0) / gamma_fn(1.0 - alpha / 2.0)
    return c * t ** (-1.0 - alpha / 2.0)


def _stable_tail(alpha: float, t):
    return t ** (-alpha / 2.0) / gamma_fn(1.0 - alpha / 2.0)


def _relativistic_tail(phi, t):
    # (a/Gamma(1-a)) theta**a Gamma(-a, theta*t), a = alpha/2, rewritten by
    # Gamma(-a, x) = (x**(-a) exp(-x) - Gamma(1-a, x))/a
    a = phi.alpha_param / 2.0
    theta = phi.m ** (2.0 / phi.alpha_param)
    return t ** (-a) * np.exp(-theta * t) / gamma_fn(1.0 - a) - theta**a * gammaincc(1.0 - a, theta * t)


def _stable_potential(alpha: float, t):
    # inverse transform of lam**(-alpha/2): the potential density of the
    # stable subordinator, and the ladder density too (chi = lam**(alpha/2))
    return t ** (alpha / 2.0 - 1.0) / gamma_fn(alpha / 2.0)


def _stable_renewal(alpha: float, t):
    return t ** (alpha / 2.0) / gamma_fn(1.0 + alpha / 2.0)


def _stable_closed(alpha: float) -> tuple[dict, dict]:
    # the stable kind's closed sums: u and G of 1/phi; the tail, mu and j of phi/lam
    return ({("exp", 0): partial(_stable_potential, alpha), ("resolvent", 0): partial(_riesz_green, alpha)},
            {("exp", 0): partial(_stable_tail, alpha), ("exp", 1): partial(_stable_levy, alpha),
             ("resolvent", 1): partial(_riesz_jump, alpha)})


def _neg_exp(z):
    return np.exp(-z)


def _exp_sum(weights, rates, t, power=0, kernel=_neg_exp):
    """sum w r^power k(r t), k = exp(-z) by default (the power-th derivative of sum w exp(-r t) up to
    sign), in blocks of t.  A term is exactly 0 where its kernel is, though w r^power may overflow there: the
    product is masked only where some w r^power does (never for the weighted atoms of v and V, finite rates)."""
    flat, out = np.ravel(t), np.empty(np.size(t))
    with np.errstate(over="ignore"):  # an inf r t gives the kernel's 0
        c = weights * rates ** power
        finite = np.all(np.isfinite(c))
        for lo in range(0, flat.size, _GEOM_BLOCK):
            k = kernel(np.multiply.outer(flat[lo:lo + _GEOM_BLOCK], rates))
            terms = c * k if finite else np.multiply(c, k, out=np.zeros(k.shape), where=k != 0.0)
            out[lo:lo + _GEOM_BLOCK] = np.sum(terms, axis=-1)
    return out.reshape(np.shape(t))[()]


def _riesz_green(alpha: float, d: int, r):
    c = math.gamma((d - alpha) / 2.0) / (2.0**alpha * math.pi ** (d / 2.0) * math.gamma(alpha / 2.0))
    return c * r ** (alpha - d)


def _riesz_jump(alpha: float, d: int, r):
    c = alpha * 2.0 ** (alpha - 1.0) * math.gamma((d + alpha) / 2.0)
    return c / (math.pi ** (d / 2.0) * math.gamma(1.0 - alpha / 2.0)) * r ** (-d - alpha)


def _roots_past_poles(w, z, level: float, top):
    """d and the gaps z_j - z_i (which keep z - x in floats where x rounds to z_i) of the root x = z_i + d < top_i
    of sum w/(z - x) = level past each ascending pole z_i, where it rises from -inf: bisection in log d."""
    gap = (z - z[:, None])[:top.size]
    lo, hi = np.full(top.size, math.log(np.finfo(float).tiny)), np.log(top)
    for _ in range(64):
        mid = (lo + hi) / 2.0
        below = np.sum(w / (gap - np.exp(mid)[:, None]), axis=-1) < level
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.exp((lo + hi) / 2.0), gap


@lru_cache(maxsize=16)
def _geometric_roots(alpha_param: float, n_terms: int):
    # g = 1/phi = sum w/(lam + b), so phi/lam = 1/(lam g) has a simple pole at 0 (the killing) and one at each
    # zero -z of g, between consecutive poles b, with residue 1/(z sum w/(b - z)**2), positive and finite
    w, b = _geometric_terms(alpha_param, n_terms)
    w, b = w[np.isfinite(b)], b[np.isfinite(b)]
    d, gap = _roots_past_poles(w, b, 0.0, np.diag(b - b[:, None], 1))
    z = b[:d.size] + d
    with np.errstate(over="ignore", divide="ignore"):  # an inf square is a zero term; z keeps it in floats
        return z / np.sum(w / ((gap - d[:, None]) / z[:, None]) ** 2, axis=-1), z


@lru_cache(maxsize=64)
def _shift_roots(phi, a: float):
    """Atoms of 1/(phi + a) = g/(1 + a g), g = 1/phi of atoms only (c/lam one at 0): the roots x of g(-x) = -1/a
    past each, the last under x = z + a sum w, residue 1/(a^2 sum w/(z - x)^2).  None where g has a density (whose
    refusal, if any, is kept)."""
    g = phi.stieltjes(0)
    if g.cut:
        return Stieltjes(refusal=g.refusal)
    w, z = g.w[np.isfinite(g.z)], g.z[np.isfinite(g.z)]
    if g.c > 0.0:
        w, z = np.append(g.c, w), np.append(0.0, z)
    d, gap = _roots_past_poles(w, z, -1.0 / a - g.a, np.append(np.diag(z - z[:, None], 1), a * np.sum(w)))
    with np.errstate(over="ignore", divide="ignore"):  # an inf square is a zero term
        return Stieltjes(w=a ** -2.0 / np.sum(w / (gap - d[:, None]) ** 2, axis=-1), z=z + d)


def _log1p(z):
    """log(1+z); for complex z below |z| = 1e-3, where numpy's cancels, a 6-term series (error < |z|^7)."""
    if not np.iscomplexobj(z):
        return np.log1p(z)
    small = np.abs(z) < 1e-3
    zs = np.where(small, z, 0.0)
    series = zs * (1 + zs * (-1 / 2 + zs * (1 / 3 + zs * (-1 / 4 + zs * (1 / 5 - zs / 6)))))
    return np.where(small, series, np.log(np.where(small, 1.0, 1.0 + z)))


# 2.0**1024 overflows, so the geometric weights 2**n stay finite up to here
GEOMETRIC_MAX_TERMS = 1023


@lru_cache(maxsize=16)
def _geometric_terms(alpha_param: float, n_terms: int):
    n = np.arange(1, n_terms + 1, dtype=float)
    # a pole past the float range is inf and gives an exact zero term
    with np.errstate(over="ignore"):
        poles = 2.0 ** (2.0 * n / alpha_param)
    return 2.0 ** n, poles


# ---- constructors -------------------------------------------------------


def stable(alpha: float) -> CompleteBernsteinFunction:
    """phi(lam) = lam**(alpha/2); the rotationally symmetric alpha-stable case."""
    # alpha = 2 would be pure drift, which the catalog excludes
    if not 0.0 < alpha < 2.0:
        raise ConstructionError("stable index must lie in (0, 2)")
    return CompleteBernsteinFunction(kind="stable", alpha=alpha, alpha_param=alpha)


def relativistic_stable(alpha: float, m: float) -> CompleteBernsteinFunction:
    """phi(lam) = (lam + m**(2/alpha))**(alpha/2) - m."""
    if not 0.0 < alpha < 2.0:
        raise ConstructionError("relativistic index must lie in (0, 2)")
    if not 0.0 <= m < math.inf:
        raise ConstructionError(f"mass must be finite and nonnegative, not {m:g}")
    if m == 0.0:
        return stable(alpha)
    if not np.log(np.finfo(float).tiny) <= 2.0 / alpha * math.log(m) < np.log(np.finfo(float).max):
        raise ConstructionError(f"mass {m:g} puts the branch point m**(2/alpha) out of the normal float range")
    return CompleteBernsteinFunction(kind="relativistic", alpha=alpha, alpha_param=alpha, m=m)


def sum_of_stables(alpha: float, beta: float) -> CompleteBernsteinFunction:
    """phi(lam) = lam**(alpha/2) + lam**(beta/2) with 0 < beta < alpha."""
    if not 0.0 < alpha < 2.0:
        raise ConstructionError("leading index must lie in (0, 2)")
    if not 0.0 < beta < alpha:
        raise ConstructionError("secondary index must lie in (0, alpha)")
    return CompleteBernsteinFunction(kind="sum", alpha=alpha, alpha_param=alpha, beta=beta)


def log_perturbed_up(alpha: float, gamma: float) -> CompleteBernsteinFunction:
    """phi(lam) = lam**(alpha/2) * log(1+lam)**(gamma/2), gamma in (0, 2-alpha)."""
    if not 0.0 < alpha < 2.0:
        raise ConstructionError("index must lie in (0, 2)")
    if not 0.0 < gamma < 2.0 - alpha:
        raise ConstructionError("log exponent must lie in (0, 2-alpha)")
    return CompleteBernsteinFunction(
        kind="log_up", alpha=alpha, alpha_param=alpha, log_exponent=gamma
    )


def log_perturbed_down(alpha: float, beta: float) -> CompleteBernsteinFunction:
    """phi(lam) = lam**(alpha/2) * log(1+lam)**(-beta/2), 0 <= beta < alpha."""
    if not 0.0 < alpha < 2.0:
        raise ConstructionError("index must lie in (0, 2)")
    if not 0.0 <= beta < alpha:
        raise ConstructionError("log exponent must lie in [0, alpha)")
    if beta == 0.0:
        return stable(alpha)
    return CompleteBernsteinFunction(kind="log_down", alpha=alpha, alpha_param=alpha, beta=beta)


def default_truncation(alpha_param: float) -> int:
    """Smallest geometric-series truncation whose dropped tail is negligible.

    The dropped terms sum to about q**(N+1)/(1-q) with q = 2**(1 - 2/alpha);
    pick N so that this is below 1e-12 relative to the leading term, with a
    floor of 64.  Uncapped: geometric_like refuses N past GEOMETRIC_MAX_TERMS.
    """
    q = 2.0 ** (1.0 - 2.0 / alpha_param)
    n = int(math.ceil(math.log(1e-12 * (1.0 - q)) / math.log(q)))
    return max(n, 64)


def geometric_like(alpha: float, n_terms: int | None = None) -> CompleteBernsteinFunction:
    """Reciprocal of a truncated geometric Stieltjes sum.

    phi(lam) = 1 / sum_{n=1}^{N} 2**n / (lam + 2**(2n/alpha)).  Comparable to
    lam**(1 - alpha/2) at infinity but not regularly varying, so the profile
    index is 2 - alpha.  The full sum stays finite at 0, i.e. the entry
    carries a killing term phi(0+) = 1/g(0) > 0.  The truncated sum decays
    like sum 2**n / lam, so phi keeps a drift 1/(2**(N+1) - 2).  N is at most
    GEOMETRIC_MAX_TERMS, which refuses the default N for alpha above ~1.915.
    """
    if not 0.0 < alpha < 2.0:
        raise ConstructionError("construction index must lie in (0, 2)")
    n = default_truncation(alpha) if n_terms is None else int(n_terms)
    if n < 1:
        raise ConstructionError("truncation must be positive")
    if n > GEOMETRIC_MAX_TERMS:
        raise ConstructionError(f"truncation must be at most {GEOMETRIC_MAX_TERMS}, not {n}: "
                                "2**n overflows past it")
    w, b = _geometric_terms(alpha, n)
    killing = 1.0 / float(np.sum(w / b))
    return CompleteBernsteinFunction(
        kind="geometric_example",
        alpha=2.0 - alpha,
        alpha_param=alpha,
        n_terms=n,
        killing=killing,
    )


def conjugate(phi: CompleteBernsteinFunction) -> CompleteBernsteinFunction:
    """The conjugate exponent psi(lam) = lam / phi(lam).

    Complete Bernstein functions are closed under this map.  When the Levy
    density of phi has a finite first moment the conjugate is killed, with
    rate 1 / integral t*mu(t) dt = lim_{lam->0} lam/phi(lam).
    """
    if phi.kind == "conjugate":
        # unwrap: lam / (lam/phi) = phi
        return phi.inner
    return CompleteBernsteinFunction(
        kind="conjugate",
        alpha=2.0 - phi.alpha,
        alpha_param=2.0 - phi.alpha,
        killing=phi.stieltjes(0).c,
        inner=phi,
    )


def killed_shift(phi: CompleteBernsteinFunction, a: float) -> CompleteBernsteinFunction:
    """phi(lam) + a: add an independent killing rate a > 0."""
    if not 0.0 < a < math.inf:
        raise ConstructionError(f"killing rate must be positive and finite, not {a:g}")
    return CompleteBernsteinFunction(
        kind="killed_shift",
        alpha=phi.alpha,
        alpha_param=phi.alpha_param,
        killing=phi.killing + a,
        shift=a,
        inner=phi,
    )


# ---- kind registry ---------------------------------------------------------
#
# Everything that differs between kinds lives in KINDS; the methods of
# CompleteBernsteinFunction, the JSON schema, labels and the CLI's --kind
# all read it.  A new kind is one constructor plus one entry here.


def _integer(x) -> int:
    """An integer parameter from an int, an integral float or a CLI string of digits; a fraction is refused."""
    value = int(x)
    if not isinstance(x, str) and value != x:
        raise ConstructionError(f"{x!r} is not an integer")
    return value


_integer.__name__ = "integer"  # argparse names a refused --n by it: "invalid integer value"


@dataclass(frozen=True)
class _Param:
    """One construction parameter: JSON key (also label name and CLI flag) and field."""

    name: str
    field: str
    coerce: Callable = float
    optional: bool = False


class Stieltjes(NamedTuple):
    """f(lam) = a + c/lam + sum w/(lam + z) + (1/pi) int_0^inf rho(s)/(lam + s) ds, one of phi's two Stieltjes
    functions: 1/phi (side 0, rho = -Im 1/phi(-s + i0)) or phi/lam (side 1, rho = Im phi(-s + i0)/s).  The atoms
    ascend; rho is 0 where ``cut`` is False.  ``closed`` holds closed forms of the sums over atoms and density by
    (kernel, p): of t, of (d, r) for "resolvent".  A ``refusal`` says why the sums cannot be certified."""

    a: float = 0.0
    c: float = 0.0
    w: np.ndarray = np.empty(0)
    z: np.ndarray = np.empty(0)
    cut: bool = True
    closed: dict = {}
    refusal: str = ""


# rho(v, s) s^p of each side at v = phi(-s + i0); -Im 1/v, not Im v/|v|^2, which underflows
_DENSITY = (lambda v, s, p: -(1.0 / v).imag * s**p, lambda v, s, p: v.imag / s ** (1 - p))
# (side, p) of each form that is a sum of one of phi's measures with the kernel exp(-z)
_FORMS = {"potential_density": (0, 0), "levy_tail": (1, 0), "levy_density": (1, 1)}


@dataclass(frozen=True)
class _Kind:
    build: Callable  # the constructor, called with the parameters in order
    params: tuple[_Param, ...]
    evaluate: Callable  # (phi, x) -> phi(x), x real or complex
    small_exponent: Callable  # phi -> power of phi at 0+ (unkilled), or None
    stieltjes: Callable = lambda phi, side: Stieltjes(c=phi.killing if side else 0.0)  # a density only, by default
    shift_atoms: Callable = _shift_roots  # (phi, a) -> Stieltjes of the atoms of 1/(phi + a), a > 0: phi(-z) = -a
    ladder: Callable = lambda phi: {}  # phi -> closed v and V by name, where chi is closed
    # the s where Im phi(-s + i0) may be singular: 1, or a composite's inner kind's
    branch_point: Callable = lambda phi: 1.0 if phi.inner is None else phi.inner.branch_point
    composite: bool = False  # wraps ``inner``; no JSON form


def _phi_relativistic(phi, x):
    # expm1/log1p keeps precision near 0, where the direct formula cancels
    # catastrophically (numpy's complex expm1 is accurate there, its log1p is not);
    # where x/b overflows, log1p(x/b) is log x - log b + log1p(b/x); where it
    # is under the normal range, phi is its first-order term (m (alpha/2)/b) x
    b = phi.m ** (2.0 / phi.alpha_param)  # a normal float, as the constructor requires
    with np.errstate(over="ignore"):
        ratio = x / b
    log = _log1p(ratio)
    size, tiny = np.abs(ratio), np.finfo(float).tiny
    # one test of |x/b| against both ends of the normal range; the masks only where it leaves it
    inside = tiny <= np.min(size, initial=tiny) and np.max(size, initial=0.0) < np.inf
    if not inside and np.any(far := np.isinf(ratio) & np.isfinite(x)):
        x_far = np.where(far, x, 1.0)
        log = np.where(far, np.log(x_far) - math.log(b) + _log1p(b / x_far), log)
    out = phi.m * np.expm1((phi.alpha_param / 2.0) * log)
    if not inside and np.any(near := (size < tiny) & (x != 0)):
        out = np.where(near, (phi.m * (phi.alpha_param / 2.0) / b) * x, out)
    return out


def _phi_log_up(phi, x):
    return x ** (phi.alpha_param / 2.0) * _log1p(x) ** (phi.log_exponent / 2.0)


def _phi_log_down(phi, x):
    lg = _log1p(x)
    with np.errstate(divide="ignore"):
        return x ** (phi.alpha_param / 2.0) * lg ** (-phi.beta / 2.0)


_GEOM_BLOCK = 8192  # arguments per block of the (arguments, terms) temporary


def _phi_geometric(phi, x):
    # in blocks, as _exp_sum: a block of chi holds 2^16 arguments, and the
    # temporary is n_terms times larger
    w, b = _geometric_terms(phi.alpha_param, phi.n_terms)
    flat = x.reshape(-1)
    out = np.empty(flat.shape, dtype=np.result_type(flat, b))
    for lo in range(0, flat.size, _GEOM_BLOCK):
        out[lo:lo + _GEOM_BLOCK] = 1.0 / np.sum(w / (flat[lo:lo + _GEOM_BLOCK, None] + b), axis=-1)
    return out.reshape(x.shape)


def _relativistic_shift_atoms(phi, a: float):
    # phi(-z) = (b - z)^(alpha/2) - m is real on (0, b): -a at z = b - (m - a)^(2/alpha) for a < m, with residue
    # 1/phi'(-z) = (2/alpha) (m - a)^(2/alpha - 1).  Within 1e-6 b of b, the atom (or for a > m the density's
    # near-singular peak) is under the rule's resolution of b (u is 1e-10 off at 1e-8 b for alpha = 1.9): the
    # measure's sums are refused, not the kind
    q, m = 2.0 / phi.alpha_param, phi.m
    if (abs(m - a) / m) ** q < 1e-6:
        return Stieltjes(refusal=f"1/(phi + {a:g}) of {phi.label()} has a pole within 1e-6 of the branch point")
    if a >= m:
        return Stieltjes()
    return Stieltjes(w=np.array([q * (m - a) ** (q - 1.0)]),
                     z=np.array([-(m**q) * math.expm1(q * math.log1p(-a / m))]))


def _killed_stieltjes(phi, side: int):
    # phi/lam gains a/lam; 1/(phi + a) -> 1/(1/inner.a + a) at inf, 1/a at 0 (no c/lam), atoms at phi(-z) = -a
    inner = phi.inner.stieltjes(side)
    if side:
        return inner._replace(c=inner.c + phi.shift)
    return _entry(phi.inner.kind).shift_atoms(phi.inner, phi.shift)._replace(
        a=inner.a / (1.0 + phi.shift * inner.a), cut=inner.cut)


def _conjugate_small_exponent(phi):
    e = phi.inner.small_exponent
    return None if e is None else 1.0 - e


_ALPHA = _Param("alpha", "alpha_param")

KINDS: dict[str, _Kind] = {
    "stable": _Kind(
        stable,
        (_ALPHA,),
        lambda phi, x: x ** (phi.alpha_param / 2.0),
        lambda phi: phi.alpha_param / 2.0,
        stieltjes=lambda phi, side: Stieltjes(closed=_stable_closed(phi.alpha_param)[side]),
        ladder=lambda phi: {"ladder_density": partial(_stable_potential, phi.alpha_param),
                            "renewal_function": partial(_stable_renewal, phi.alpha_param)},
    ),
    "relativistic": _Kind(
        relativistic_stable,
        (_ALPHA, _Param("m", "m")),
        _phi_relativistic,
        lambda phi: 1.0,
        # 1/phi has c = lim lam/phi(lam) = 1/phi'(0), phi'(0) = (alpha/2) * m**((2/alpha)(alpha/2 - 1))
        stieltjes=lambda phi, side: Stieltjes(closed={
            ("exp", 0): partial(_relativistic_tail, phi),
            ("exp", 1): lambda t: _stable_levy(phi.alpha_param, t) * np.exp(-phi.m ** (2.0 / phi.alpha_param) * t),
        }) if side else Stieltjes(c=(2.0 / phi.alpha_param) * phi.m ** (
            (2.0 / phi.alpha_param) * (1.0 - phi.alpha_param / 2.0))),
        shift_atoms=_relativistic_shift_atoms,
        branch_point=lambda phi: phi.m ** (2.0 / phi.alpha_param),  # Im phi(-s + i0) = 0 below it
    ),
    "sum": _Kind(
        sum_of_stables,
        (_ALPHA, _Param("beta", "beta")),
        lambda phi, x: x ** (phi.alpha_param / 2.0) + x ** (phi.beta / 2.0),
        lambda phi: phi.beta / 2.0,
        stieltjes=lambda phi, side: Stieltjes(closed={
            ("exp", 0): lambda t: _stable_tail(phi.alpha_param, t) + _stable_tail(phi.beta, t),
            ("exp", 1): lambda t: _stable_levy(phi.alpha_param, t) + _stable_levy(phi.beta, t),
        } if side else {}),
    ),
    "log_up": _Kind(
        log_perturbed_up,
        (_ALPHA, _Param("gamma", "log_exponent")),
        _phi_log_up,
        # log(1+lam) ~ lam at 0, so the log factor adds a full power
        lambda phi: (phi.alpha_param + phi.log_exponent) / 2.0,
    ),
    "log_down": _Kind(
        log_perturbed_down,
        (_ALPHA, _Param("beta", "beta")),
        _phi_log_down,
        lambda phi: (phi.alpha_param - phi.beta) / 2.0,
    ),
    "geometric_example": _Kind(
        geometric_like,
        (_ALPHA, _Param("n", "n_terms", _integer, optional=True)),
        _phi_geometric,
        lambda phi: 0.0,
        # 1/phi = sum w/(lam + b) and phi/lam = drift + killing/lam + sum over the zeros of 1/phi: atoms only
        stieltjes=lambda phi, side: Stieltjes(0.0, 0.0, *_geometric_terms(phi.alpha_param, phi.n_terms), cut=False)
        if side == 0 else Stieltjes(0.5 / (2.0**phi.n_terms - 1.0), phi.killing,
                                    *_geometric_roots(phi.alpha_param, phi.n_terms), cut=False),
    ),
    "conjugate": _Kind(
        conjugate,
        (),
        lambda phi, x: x / phi.inner._eval(x),
        _conjugate_small_exponent,
        stieltjes=lambda phi, side: phi.inner.stieltjes(1 - side),  # 1/psi = phi/lam and psi/lam = 1/phi
        composite=True,
    ),
    "killed_shift": _Kind(
        killed_shift,
        (_Param("a", "shift"),),
        lambda phi, x: phi.inner._eval(x) + phi.shift,
        lambda phi: 0.0,
        stieltjes=_killed_stieltjes,
        shift_atoms=lambda phi, a: _entry(phi.inner.kind).shift_atoms(phi.inner, phi.shift + a),
        composite=True,
    ),
}

# the kinds phi_from_json builds and the CLI's --kind offers, in table order
JSON_KINDS = tuple(k for k, entry in KINDS.items() if not entry.composite)


def _entry(kind: str) -> _Kind:
    try:
        return KINDS[kind]
    except KeyError:
        raise UnsupportedKindError(f"unknown kind {kind!r}") from None


def default_catalog() -> list[CompleteBernsteinFunction]:
    """The instances exercised by the check suites."""
    return [
        stable(0.5),
        stable(1.0),
        stable(1.5),
        relativistic_stable(1.0, 1.0),
        sum_of_stables(1.0, 0.5),
        log_perturbed_up(1.0, 0.5),
        log_perturbed_down(1.0, 0.5),
        geometric_like(1.0, 64),
    ]


# ---- pointwise operations ------------------------------------------------


def eval_levy_density(phi: CompleteBernsteinFunction, t):
    """Levy density mu(t) of phi: the closed form where the catalog has one, else sum w z e^(-zt) over the atoms
    of phi/lam plus (1/pi) int_0^inf e^(-ts) Im phi(-s + i0) ds, each t certified to relative 1e-9."""
    return phi.forms(("levy_density",), t)[0]


def levy_tail(phi: CompleteBernsteinFunction, t):
    """Tail mass mu(t, inf): the closed form where available, else sum w e^(-zt) over the atoms of phi/lam
    plus (1/pi) int_0^inf e^(-ts) Im phi(-s + i0)/s ds, certified as the Levy density is."""
    return phi.forms(("levy_tail",), t)[0]


# ---- complete monotonicity probes -----------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    passed: bool
    inconclusive_fraction: float
    worst_violation: float


# the probes check divided differences of orders 0 to _ORDER on stencils
# x*(1 + h)^j, for h = _REL_STEP and h = _REL_STEP/2
_ORDER, _REL_STEP = 3, 1e-2


def _divided_difference_signs(f, grid, rel_step):
    """Divided-difference table on stencils x*(1+h)^j with error tracking.

    Returns (dd, noise) where dd[k] holds the order-k divided differences at
    every grid point and noise[k] the propagated round-off estimate.
    """
    x = np.asarray(grid, dtype=float)
    j = np.arange(_ORDER + 1)
    nodes = x[:, None] * (1.0 + rel_step) ** j[None, :]
    vals = np.asarray(f(nodes), dtype=float)
    eps = np.finfo(float).eps
    dd = [vals]
    noise = [np.full_like(vals, eps) * np.max(np.abs(vals), axis=1, keepdims=True) * 8.0]
    for k in range(1, _ORDER + 1):
        span = nodes[:, k:] - nodes[:, :-k]
        dd.append((dd[-1][:, 1:] - dd[-1][:, :-1]) / span)
        noise.append((noise[-1][:, 1:] + noise[-1][:, :-1]) / span)
    return dd, noise


def _check_alternation(f, grid, sign_of_order) -> MonotonicityReport:
    worst, total, inconclusive = 0.0, 0, 0
    for h in (_REL_STEP, _REL_STEP / 2.0):
        dd, noise = _divided_difference_signs(f, grid, h)
        for k in range(_ORDER + 1):
            vals, small = dd[k].ravel(), np.abs(dd[k].ravel()) <= 1e3 * noise[k].ravel()
            total, inconclusive = total + vals.size, inconclusive + int(np.sum(small))
            bad = ~small & (sign_of_order(k) * vals < 0.0)
            worst = max(worst, float(np.max(np.abs(vals[bad]), initial=0.0)))
    return MonotonicityReport(passed=worst == 0.0, inconclusive_fraction=inconclusive / max(total, 1),
                              worst_violation=worst)


def check_complete_monotonicity(f: Callable, grid=None) -> MonotonicityReport:
    """Check the sign alternation (-1)^k dd_k >= 0 of divided differences.

    Conclusive sign violations fail the check; differences below the
    cancellation threshold only raise the inconclusive fraction.
    """
    g = np.asarray(grid if grid is not None else np.geomspace(1e-2, 1e2, 25), dtype=float)
    return _check_alternation(f, g, lambda k: (-1.0) ** k)


def check_bernstein(f: Callable) -> MonotonicityReport:
    """Bernstein probe: f >= 0 and f' completely monotone, via (-1)^(k+1) dd_k >= 0 for k >= 1."""
    return _check_alternation(f, np.geomspace(1e-2, 1e2, 25),
                              lambda k: 1.0 if k <= 1 else (-1.0) ** (k + 1))


# ---- JSON schema -----------------------------------------------------------


def phi_from_json(spec) -> CompleteBernsteinFunction:
    """Build a catalog entry from its JSON description (a dict or a JSON string).

    Accepted forms, one per kind of ``JSON_KINDS``::

        {"kind": "stable", "alpha": 0.5}
        {"kind": "relativistic", "alpha": 1.0, "m": 1.0}
        {"kind": "sum", "alpha": 1.0, "beta": 0.5}
        {"kind": "log_up", "alpha": 1.0, "gamma": 0.5}
        {"kind": "log_down", "alpha": 1.0, "beta": 0.5}
        {"kind": "geometric_example", "alpha": 1.0, "n": 64}

    "n" may be left out for ``default_truncation(alpha)``; keys the kind does
    not take are ignored.  Malformed input raises :class:`ConstructionError`.
    """
    if isinstance(spec, (str, bytes)):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ConstructionError(f"catalog JSON does not parse: {exc}") from None
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConstructionError("catalog JSON must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind not in JSON_KINDS:
        raise ConstructionError(
            f"unknown catalog kind {kind!r}; JSON kinds are {', '.join(JSON_KINDS)}")
    params = KINDS[kind].params
    try:
        args = [None if p.optional and p.name not in spec else p.coerce(spec[p.name])
                for p in params]
    except KeyError as missing:
        raise ConstructionError(f"kind {kind!r} is missing parameter {missing}") from None
    except ConstructionError as exc:
        raise ConstructionError(f"kind {kind!r}: {exc}") from None
    except (TypeError, ValueError, OverflowError):
        names = ", ".join(p.name for p in params)
        raise ConstructionError(f"kind {kind!r} takes numbers for {names}, got {spec}") from None
    return KINDS[kind].build(*args)


def phi_to_json(phi: CompleteBernsteinFunction) -> dict:
    entry = _entry(phi.kind)
    if entry.composite:
        raise UnsupportedKindError(f"kind {phi.kind!r} has no JSON form")
    return {"kind": phi.kind, **{p.name: getattr(phi, p.field) for p in entry.params}}
