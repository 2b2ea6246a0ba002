"""Write kernels_mpmath.json: Green functions and jump kernels at 20 digits.

    python3 tests/fixtures/kernels_mpmath.py

Needs mpmath only (not sbmpot): each phi and its derivative are written out
again here in mpmath arithmetic.  The potential density u is the inverse
Laplace transform of 1/phi, and t*mu(t) that of phi', both inverted by
mpmath.invertlaplace.  Each kernel is the heat-kernel integral

    G(r) = int_0^inf (4 pi t)^(-d/2) exp(-r^2/(4t)) u(t) dt,

and j(r) the same with mu, taken in y = log t by Gauss-Legendre on panels of
width about 2 in y from t = r^2/3200 (where the Gaussian factor is e^-800)
to t = 1e30.  The rest past 1e30 is closed by the power the integrand
follows there, measured by mpmath.diff: u's algebraic tail decays as slowly
as t^(e - d/2) for phi ~ lam^e at 0, so a plain quadrature out to infinity
misses it (1.3e-7 of G for the sum kind in d = 1 at r = 1e-3).  The
relativistic mu decays as exp(-m^(2/alpha) t), under the inversion's
round-off long before 1e30, so its j stops at m^(2/alpha) t = 40 (e^-40)
with no rest.  One value takes about 8 s.  G is written only where the
process is transient, e < d/2.
"""

from __future__ import annotations

import json
import os

import mpmath as mp

mp.mp.dps = 20

RADII = ["1e-3", "0.1", "1"]
TOP = mp.mpf(10) ** 30


def relativistic(alpha, m):
    a, theta = mp.mpf(alpha) / 2, mp.mpf(m) ** (2 / mp.mpf(alpha))
    return (lambda s: (s + theta) ** a - m), (lambda s: a * (s + theta) ** (a - 1)), mp.mpf(1), 40 / theta


def sum_of_stables(alpha, beta):
    a, b = mp.mpf(alpha) / 2, mp.mpf(beta) / 2
    return (lambda s: s**a + s**b), (lambda s: a * s ** (a - 1) + b * s ** (b - 1)), b, None


def _log_kind(alpha, c):
    # phi = lam^a log(1 + lam)^c, phi' = a lam^(a-1) L^c + c lam^a L^(c-1)/(1 + lam)
    a = mp.mpf(alpha) / 2
    return ((lambda s: s**a * mp.log1p(s) ** c),
            (lambda s: a * s ** (a - 1) * mp.log1p(s) ** c + c * s**a * mp.log1p(s) ** (c - 1) / (1 + s)),
            a + c, None)


def log_up(alpha, gamma):
    return _log_kind(alpha, mp.mpf(gamma) / 2)


def log_down(alpha, beta):
    return _log_kind(alpha, -mp.mpf(beta) / 2)


def _heat_integral(w, d, r, top=None):
    """int_0^inf (4 pi t)^(-d/2) exp(-r^2/4t) w(t) dt, in y = log t; up to ``top`` alone if given."""
    r = mp.mpf(r)

    def g(y):
        t = mp.exp(y)
        return (4 * mp.pi * t) ** (-mp.mpf(d) / 2) * mp.exp(-r * r / (4 * t)) * w(t) * t

    y0, y1 = mp.log(r * r / 3200), mp.log(TOP if top is None else top)
    n = int(mp.ceil((y1 - y0) / 2))
    main = mp.quad(g, [y0 + (y1 - y0) * k / n for k in range(n + 1)], method="gauss-legendre")
    # past TOP, g ~ c e^(q y) with q < 0
    return main if top is not None else main - g(y1) / mp.diff(lambda y: mp.log(g(y)), y1)


def green(kind, d, r):
    phi = kind[0]
    return _heat_integral(lambda t: mp.invertlaplace(lambda s: 1 / phi(s), t, method="talbot"), d, r)


def jump(kind, d, r):
    dphi = kind[1]
    return _heat_integral(lambda t: mp.invertlaplace(dphi, t, method="talbot") / t, d, r, kind[3])


# (label, sbmpot.phi_from_json spec, mpmath (phi, phi', small exponent, top of j's integral or None))
KINDS = [
    ("sum(1,0.5)", {"kind": "sum", "alpha": 1.0, "beta": 0.5}, sum_of_stables(1, 0.5)),
    ("log_up(1,0.5)", {"kind": "log_up", "alpha": 1.0, "gamma": 0.5}, log_up(1, 0.5)),
    ("log_down(1,0.5)", {"kind": "log_down", "alpha": 1.0, "beta": 0.5}, log_down(1, 0.5)),
    ("relativistic(1,1)", {"kind": "relativistic", "alpha": 1.0, "m": 1.0}, relativistic(1, 1)),
]


def main() -> None:
    out = {
        "generator": (f"mpmath {mp.__version__} invertlaplace(method='talbot') and Gauss-Legendre in log t, "
                      f"{mp.mp.dps} digits"),
        "kernels": [
            {"label": label, "phi": spec, "d": d, "r": float(r),
             "G": float(green(kind, d, r)) if kind[2] < mp.mpf(d) / 2 else None,
             "J": float(jump(kind, d, r))}
            for label, spec, kind in KINDS for d in (1, 2, 3) for r in RADII
        ],
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels_mpmath.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
