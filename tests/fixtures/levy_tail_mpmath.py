"""Write levy_tail_mpmath.json: Levy tails and compound drifts at 30 digits.

    python3 tests/fixtures/levy_tail_mpmath.py

Needs mpmath only (not sbmpot): each phi is written out again here in mpmath
arithmetic.  For a drift-free phi with killing k = phi(0+), the tail
mu(t, inf) is the inverse Laplace transform of (phi(lam) - k)/lam and
int_0^t mu(s, inf) ds that of (phi(lam) - k)/lam**2, both inverted by
mpmath.invertlaplace at 30 significant digits.  The compound sampler's rate
at eps is the tail at eps, and its drift int_0^eps s mu(s) ds is the head
integral minus eps times the rate.
"""

from __future__ import annotations

import json
import os

import mpmath as mp

mp.mp.dps = 30

TIMES = ["1e-4", "1e-2", "0.3", "1", "3"]
EPSILON = "1e-4"


def relativistic(alpha, m):
    a, theta = mp.mpf(alpha) / 2, mp.mpf(m) ** (2 / mp.mpf(alpha))
    return lambda s: (s + theta) ** a - m, mp.mpf(0)


def sum_of_stables(alpha, beta):
    return lambda s: s ** (mp.mpf(alpha) / 2) + s ** (mp.mpf(beta) / 2), mp.mpf(0)


def log_up(alpha, gamma):
    return lambda s: s ** (mp.mpf(alpha) / 2) * mp.log1p(s) ** (mp.mpf(gamma) / 2), mp.mpf(0)


def log_down(alpha, beta):
    return lambda s: s ** (mp.mpf(alpha) / 2) * mp.log1p(s) ** (-mp.mpf(beta) / 2), mp.mpf(0)


def geometric(alpha, n):
    terms = [(mp.mpf(2) ** k, mp.mpf(2) ** (2 * k / mp.mpf(alpha))) for k in range(1, n + 1)]

    def phi(s):
        return 1 / mp.fsum(w / (s + b) for w, b in terms)

    return phi, phi(0)


def _tail(phi, killing, t):
    return mp.invertlaplace(lambda s: (phi(s) - killing) / s, mp.mpf(t), method="talbot")


def _drift(phi, killing, eps):
    head = mp.invertlaplace(lambda s: (phi(s) - killing) / s**2, mp.mpf(eps), method="talbot")
    return head - mp.mpf(eps) * _tail(phi, killing, eps)


# (label, sbmpot.phi_from_json spec, mpmath phi, times)
TAILS = [
    ("relativistic(1,1)", {"kind": "relativistic", "alpha": 1.0, "m": 1.0}, relativistic(1, 1), TIMES),
    ("relativistic(1.5,2)", {"kind": "relativistic", "alpha": 1.5, "m": 2.0}, relativistic(1.5, 2), TIMES),
    ("log_up(1,0.5)", {"kind": "log_up", "alpha": 1.0, "gamma": 0.5}, log_up(1, 0.5),
     TIMES + ["1e2", "1e4", "1e6", "1e8"]),
    ("log_up(0.6,0.9)", {"kind": "log_up", "alpha": 0.6, "gamma": 0.9}, log_up(0.6, 0.9), TIMES),
    ("log_down(1,0.5)", {"kind": "log_down", "alpha": 1.0, "beta": 0.5}, log_down(1, 0.5), TIMES),
    ("geometric_example(1,64)", {"kind": "geometric_example", "alpha": 1.0, "n": 64},
     geometric(1, 64), TIMES),
]

COMPOUND = [
    ("relativistic(1,1)", {"kind": "relativistic", "alpha": 1.0, "m": 1.0}, relativistic(1, 1)),
    ("sum(1,0.5)", {"kind": "sum", "alpha": 1.0, "beta": 0.5}, sum_of_stables(1, 0.5)),
    ("log_up(1,0.5)", {"kind": "log_up", "alpha": 1.0, "gamma": 0.5}, log_up(1, 0.5)),
    ("log_down(1,0.5)", {"kind": "log_down", "alpha": 1.0, "beta": 0.5}, log_down(1, 0.5)),
]


def main() -> None:
    out = {
        "generator": f"mpmath {mp.__version__} invertlaplace(method='talbot'), {mp.mp.dps} digits",
        "tails": [
            {"label": label, "phi": spec, "t": [float(t) for t in times],
             "tail": [float(_tail(*pk, t)) for t in times]}
            for label, spec, pk, times in TAILS
        ],
        "compound": [
            {"label": label, "phi": spec, "epsilon": float(EPSILON),
             "rate": float(_tail(*pk, EPSILON)), "drift": float(_drift(*pk, EPSILON))}
            for label, spec, pk in COMPOUND
        ],
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "levy_tail_mpmath.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
