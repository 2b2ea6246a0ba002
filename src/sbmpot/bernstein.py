"""Catalog of complete Bernstein functions and their Levy data.

Every entry is the Laplace exponent phi of a (possibly killed) subordinator,

    phi(lam) = a + b*lam + integral_0^inf (1 - exp(-lam*t)) mu(t) dt,

whose Levy density mu is completely monotone.  The drift b is zero but for
the truncated geometric example.  All catalog entries satisfy a
power-comparability profile at infinity: phi(lam) is comparable to
lam**(alpha/2) times a slowly varying factor on [1, inf), with alpha stored on
the object.

Evaluation accepts real positive or complex arguments (principal branches,
analytic off the negative real axis); -s + 0j is the upper lip of the cut,
where mu(t) = (1/pi) int_0^inf e^(-ts) Im phi(-s + i0) ds, and the tail takes
Im phi(-s + i0)/s: :meth:`CompleteBernsteinFunction.cut_integral` computes
both on the real-axis rule of :mod:`sbmpot.laplace` for kinds without them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import gamma as gamma_fn, gammaincc

from . import laplace
from .errors import ConstructionError, EvaluationDomainError, UnsupportedKindError

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
    "check_levy_shift_bound",
    "ShiftBoundReport",
    "reg_var_profile",
    "RegVarProfile",
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
        return _entry(self.kind).drift(self)

    def cut_integral(self, rho: Callable, t, kernel: laplace.Kernel | None = None):
        """Real-axis integral (1/pi) int_0^inf k(t*s) rho(phi(-s + i0), s) ds, split at the kind's branch point."""
        b = _entry(self.kind).branch_point(self)
        return laplace.real_axis_integral(lambda s: rho(self._eval(-s + 0j), s), t, b, kernel)

    def forms(self, names, t) -> list:
        """The forms ``names`` of _CUT_FORMS at t: closed where the kind has them, else on phi's cut (u with its
        atom lim lam/phi(lam)), phi evaluated once per node for all, each t certified to relative 1e-9."""
        out = {name: self.closed_form(name, t) for name in names}
        cut = [name for name in names if out[name] is None]
        rows = self.cut_integral(lambda v, s: [_CUT_FORMS[name](v, s) for name in cut], t) if cut else ()
        atom = {"potential_density": _entry(self.kind).conjugate_killing(self)}
        for name, row in zip(cut, rows):
            out[name] = (row if np.ndim(t) else float(row)) + atom.get(name, 0.0)
        return [out[name] for name in names]

    @property
    def small_exponent(self) -> float | None:
        """Known power behaviour of phi at 0+, or None when unavailable."""
        if self.killing > 0.0:
            return 0.0
        return _entry(self.kind).small_exponent(self)

    def closed_form(self, name: str, t):
        """Closed form ``name`` of the kind at t, or None when there is none.

        ``name`` is one of the optional forms of the kind registry:
        ``potential_density``, ``levy_density``, ``levy_tail``,
        ``ladder_density`` or ``renewal_function``.  A scalar t gives a float.
        """
        form = getattr(_entry(self.kind), name)
        vals = None if form is None else form(self, np.asarray(t, dtype=float))
        if vals is None:
            return None
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


def _exp_sum(weights, rates, t, power=0, kernel=lambda z: np.exp(-z)):
    """sum w r^power k(r t), k = exp(-z) by default (the power-th derivative of sum w exp(-r t) up to
    sign), in blocks of t."""
    flat, c, out = np.ravel(t), weights * rates ** power, np.empty(np.size(t))
    with np.errstate(over="ignore"):  # an inf r t gives the kernel's 0
        for lo in range(0, flat.size, _GEOM_BLOCK):
            z = np.multiply.outer(flat[lo:lo + _GEOM_BLOCK], rates)
            out[lo:lo + _GEOM_BLOCK] = np.sum(c * kernel(z), axis=-1)
    return out.reshape(np.shape(t))[()]


def _resolvent_sum(poles, d: int, r, power: int = 0):
    """(2 pi)^(-d/2) r^(2-d) sum w z^power k_d(r^2 z) over poles (w, z), the kernel of a cut of point masses
    pi*w*z^power at s = z; None for no poles."""
    if poles is None:
        return None
    k = laplace.resolvent_kernel(d).f
    return (2.0 * math.pi) ** (-d / 2.0) * r ** (2.0 - d) * _exp_sum(*poles, r * r, power, k)


def _riesz_green(alpha: float, d: int, r):
    c = math.gamma((d - alpha) / 2.0) / (2.0**alpha * math.pi ** (d / 2.0) * math.gamma(alpha / 2.0))
    return c * r ** (alpha - d)


def _riesz_jump(alpha: float, d: int, r):
    c = alpha * 2.0 ** (alpha - 1.0) * math.gamma((d + alpha) / 2.0)
    return c / (math.pi ** (d / 2.0) * math.gamma(1.0 - alpha / 2.0)) * r ** (-d - alpha)


@lru_cache(maxsize=16)
def _geometric_roots(alpha_param: float, n_terms: int, a: float = 0.0):
    # g = 1/phi = sum w/(lam + b).  For a = 0 the tail's terms: phi/lam = 1/(lam g) has a simple pole
    # at 0 (the killing) and one at each zero -z of g, residue 1/(z sum w/(b - z)**2).  For a > 0 the
    # terms of u of phi + a: 1/(phi + a) = g/(1 + a g) has one at each root of g(-z) = -1/a, residue
    # 1/(a**2 sum w/(b - z)**2).  With z = b + d, g(-z) rises from -inf at d = 0 to inf at the next
    # pole, or to 0 past the last, where g(-z) = -1/a has its root under d = a sum w: d is found from
    # the gaps between poles, as z rounds to b where a*w << b.  The residues are positive and finite.
    w, b = _geometric_terms(alpha_param, n_terms)
    w, b = w[np.isfinite(b)], b[np.isfinite(b)]
    top = np.append(np.diag(b - b[:, None], 1), a * np.sum(w))[:b.size - (a == 0.0)]
    gap = (b - b[:, None])[:top.size]
    lo, hi = np.full(top.size, math.log(np.finfo(float).tiny)), np.log(top)
    for _ in range(64):  # bisection in log d, to full precision
        mid = (lo + hi) / 2.0
        below = np.sum(w / (gap - np.exp(mid)[:, None]), axis=-1) < (-1.0 / a if a > 0.0 else 0.0)
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    d = np.exp((lo + hi) / 2.0)
    z = b[:top.size] + d
    c = z if a == 0.0 else np.ones(z.size)  # a scale that keeps the sum of squares in floats
    with np.errstate(over="ignore", divide="ignore"):  # an inf square is a zero term
        return (c if a == 0.0 else a ** -2.0) / np.sum(w / ((gap - d[:, None]) / c[:, None]) ** 2, axis=-1), z


def _pole_sum(phi, a: float, t, power: int = 0):
    """sum w z^power e^(-z t) over the poles -z of 1/(phi + a), None where that is no finite sum."""
    return None if (poles := _entry(phi.kind).poles(phi, a)) is None else _exp_sum(*poles, t, power)


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
    if m < 0.0:
        raise ConstructionError("mass must be nonnegative")
    if m == 0.0:
        return stable(alpha)
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
        killing=_entry(phi.kind).conjugate_killing(phi),
        inner=phi,
    )


def killed_shift(phi: CompleteBernsteinFunction, a: float) -> CompleteBernsteinFunction:
    """phi(lam) + a: add an independent killing rate a > 0."""
    if a <= 0.0:
        raise ConstructionError("killing rate must be positive")
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


@dataclass(frozen=True)
class _Param:
    """One construction parameter: JSON key (also label name and CLI flag) and field."""

    name: str
    field: str
    coerce: type = float
    optional: bool = False


@dataclass(frozen=True)
class _Kind:
    build: Callable  # the constructor, called with the parameters in order
    params: tuple[_Param, ...]
    evaluate: Callable  # (phi, x) -> phi(x), x real or complex
    small_exponent: Callable  # phi -> power of phi at 0+ (unkilled), or None
    # closed forms (phi, t) -> value, read through phi.closed_form(name, t)
    potential_density: Callable | None = None  # u(t), inverse transform of 1/phi
    levy_density: Callable | None = None  # mu(t)
    levy_tail: Callable | None = None  # mu(t, inf)
    ladder_density: Callable | None = None  # v(t), inverse transform of 1/chi
    renewal_function: Callable | None = None  # V(t), inverse transform of 1/(lam*chi)
    drift: Callable = lambda phi: 0.0  # lim phi(lam)/lam
    poles: Callable = lambda phi, a: None  # (w, z), 1/(phi + a) = sum w/(lam + z): masses on the cut
    # closed kernels (phi, d, r) -> value or None: the Green function (by default over the poles of
    # 1/phi) and the jump kernel
    green: Callable = lambda phi, d, r: _resolvent_sum(_entry(phi.kind).poles(phi, 0.0), d, r)
    jump: Callable = lambda phi, d, r: None
    branch_point: Callable = lambda phi: 1.0  # the s where Im phi(-s + i0) may be singular
    # lim lam/phi(lam) as lam -> 0+, the conjugate's killing: 0 wherever the
    # small exponent is below 1 or phi is killed
    conjugate_killing: Callable = lambda phi: 0.0
    composite: bool = False  # wraps ``inner``; no JSON form


def _phi_relativistic(phi, x):
    # expm1/log1p keeps precision near 0, where the direct formula cancels
    # catastrophically (numpy's complex expm1 is accurate there, its log1p is not)
    return phi.m * np.expm1((phi.alpha_param / 2.0) * _log1p(x / phi.m ** (2.0 / phi.alpha_param)))


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
        potential_density=lambda phi, t: _stable_potential(phi.alpha_param, t),
        levy_density=lambda phi, t: _stable_levy(phi.alpha_param, t),
        levy_tail=lambda phi, t: _stable_tail(phi.alpha_param, t),
        ladder_density=lambda phi, t: _stable_potential(phi.alpha_param, t),
        renewal_function=lambda phi, t: _stable_renewal(phi.alpha_param, t),
        green=lambda phi, d, r: _riesz_green(phi.alpha_param, d, r),
        jump=lambda phi, d, r: _riesz_jump(phi.alpha_param, d, r),
    ),
    "relativistic": _Kind(
        relativistic_stable,
        (_ALPHA, _Param("m", "m")),
        _phi_relativistic,
        lambda phi: 1.0,
        levy_density=lambda phi, t: (
            _stable_levy(phi.alpha_param, t) * np.exp(-phi.m ** (2.0 / phi.alpha_param) * t)),
        levy_tail=_relativistic_tail,
        branch_point=lambda phi: phi.m ** (2.0 / phi.alpha_param),  # Im phi(-s + i0) = 0 below it
        # 1/phi'(0), phi'(0) = (alpha/2) * m**((2/alpha)(alpha/2 - 1))
        conjugate_killing=lambda phi: (2.0 / phi.alpha_param) * phi.m ** (
            (2.0 / phi.alpha_param) * (1.0 - phi.alpha_param / 2.0)),
    ),
    "sum": _Kind(
        sum_of_stables,
        (_ALPHA, _Param("beta", "beta")),
        lambda phi, x: x ** (phi.alpha_param / 2.0) + x ** (phi.beta / 2.0),
        lambda phi: phi.beta / 2.0,
        levy_density=lambda phi, t: _stable_levy(phi.alpha_param, t) + _stable_levy(phi.beta, t),
        levy_tail=lambda phi, t: _stable_tail(phi.alpha_param, t) + _stable_tail(phi.beta, t),
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
        (_ALPHA, _Param("n", "n_terms", int, optional=True)),
        _phi_geometric,
        lambda phi: 0.0,
        # 1/phi and phi/lam are finite sums of simple poles, so u, mu and the tail are exact
        # exponential sums
        potential_density=lambda phi, t: _pole_sum(phi, 0.0, t),
        levy_density=lambda phi, t: _exp_sum(*_geometric_roots(phi.alpha_param, phi.n_terms), t, 1),
        levy_tail=lambda phi, t: _exp_sum(*_geometric_roots(phi.alpha_param, phi.n_terms), t),
        drift=lambda phi: 0.5 / (2.0**phi.n_terms - 1.0),  # 1/(2**(N+1) - 2)
        poles=lambda phi, a: (_geometric_roots(phi.alpha_param, phi.n_terms, a) if a > 0.0
                              else _geometric_terms(phi.alpha_param, phi.n_terms)),
        jump=lambda phi, d, r: _resolvent_sum(_geometric_roots(phi.alpha_param, phi.n_terms), d, r, 1),
    ),
    "conjugate": _Kind(
        conjugate,
        (),
        lambda phi, x: x / phi.inner._eval(x),
        _conjugate_small_exponent,
        # 1/psi = phi/lam, so u of the conjugate is phi's killing plus its Levy tail; where
        # 1/phi = sum w/(lam + z), psi = sum w lam/(lam + z) has mu = sum w z e^(-zt)
        potential_density=lambda phi, t: (None if (tail := phi.inner.closed_form("levy_tail", t)) is None
                                          else tail + phi.inner.killing),
        levy_density=lambda phi, t: _pole_sum(phi.inner, 0.0, t, 1),
        levy_tail=lambda phi, t: _pole_sum(phi.inner, 0.0, t),
        jump=lambda phi, d, r: _resolvent_sum(_entry(phi.inner.kind).poles(phi.inner, 0.0), d, r, 1),
        branch_point=lambda phi: _entry(phi.inner.kind).branch_point(phi.inner),
        conjugate_killing=lambda phi: phi.inner.killing,
        composite=True,
    ),
    "killed_shift": _Kind(
        killed_shift,
        (_Param("a", "shift"),),
        lambda phi, x: phi.inner._eval(x) + phi.shift,
        lambda phi: 0.0,
        levy_density=lambda phi, t: phi.inner.closed_form("levy_density", t),
        levy_tail=lambda phi, t: phi.inner.closed_form("levy_tail", t),
        potential_density=lambda phi, t: _pole_sum(phi.inner, phi.shift, t),
        jump=lambda phi, d, r: _entry(phi.inner.kind).jump(phi.inner, d, r),
        drift=lambda phi: phi.inner.drift,
        poles=lambda phi, a: _entry(phi.inner.kind).poles(phi.inner, phi.shift + a),
        branch_point=lambda phi: _entry(phi.inner.kind).branch_point(phi.inner),
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


# name -> rho(phi(-s + i0), s) of a form (1/pi) int_0^inf e^(-ts) rho ds; u's is not Im phi/|phi|^2: it underflows
_CUT_FORMS = {
    "potential_density": lambda v, s: -(1.0 / v).imag,
    "levy_density": lambda v, s: v.imag,
    "levy_tail": lambda v, s: v.imag / s,
}


def eval_levy_density(phi: CompleteBernsteinFunction, t):
    """Levy density mu(t) of phi: the closed form where the catalog has one, else (1/pi) int_0^inf e^(-ts)
    Im phi(-s + i0) ds on the real-axis rule, each t certified to relative 1e-9 (NumericAccuracyError beyond)."""
    return phi.forms(("levy_density",), t)[0]


def levy_tail(phi: CompleteBernsteinFunction, t):
    """Tail mass mu(t, inf): the closed form where available, else
    (1/pi) int_0^inf e^(-ts) Im phi(-s + i0)/s ds, certified as the Levy density is."""
    return phi.forms(("levy_tail",), t)[0]


@dataclass(frozen=True)
class ShiftBoundReport:
    grid: np.ndarray
    ratios: np.ndarray
    max_ratio: float


def check_levy_shift_bound(phi: CompleteBernsteinFunction) -> ShiftBoundReport:
    """Ratios mu(t)/mu(t+1) on a grid in (1, inf); finite sup is the point."""
    grid = np.geomspace(2.0, 64.0, 12)
    ratios = np.atleast_1d(eval_levy_density(phi, grid)) / np.atleast_1d(eval_levy_density(phi, grid + 1.0))
    return ShiftBoundReport(grid=grid, ratios=ratios, max_ratio=float(np.max(ratios)))


@dataclass(frozen=True)
class RegVarProfile:
    """phi as lam**(alpha/2) times the slowly varying factor ell."""

    alpha: float
    ell: Callable


def reg_var_profile(phi: CompleteBernsteinFunction) -> RegVarProfile:
    """Extract (alpha, ell) with ell(lam) = phi(lam)/lam**(alpha/2)."""
    def ell(lam):
        lam = np.asarray(lam, dtype=float)
        return phi(lam) / lam ** (phi.alpha / 2.0)

    return RegVarProfile(alpha=phi.alpha, ell=ell)


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
    except (TypeError, ValueError, OverflowError):
        names = ", ".join(p.name for p in params)
        raise ConstructionError(f"kind {kind!r} takes numbers for {names}, got {spec}") from None
    return KINDS[kind].build(*args)


def phi_to_json(phi: CompleteBernsteinFunction) -> dict:
    entry = _entry(phi.kind)
    if entry.composite:
        raise UnsupportedKindError(f"kind {phi.kind!r} has no JSON form")
    return {"kind": phi.kind, **{p.name: getattr(phi, p.field) for p in entry.params}}
