"""Write ladder_mpmath.json: the renewal density v and renewal function V at 30 digits.

    python3 tests/fixtures/ladder_mpmath.py

Needs mpmath only (not sbmpot): each phi is written out again here in mpmath
arithmetic.  The ladder exponent is the rotated integral on the positive axis,

    chi(lam) = exp( (1/pi) int_-inf^inf log phi(lam^2 e^(2y)) / (2 cosh y) dy ),

taken by tanh-sinh quadrature split where lam^2 e^(2y) meets phi's own scales
(1, and each pole of the geometric kind).  v and V are the inverse Laplace
transforms of 1/chi and 1/(lam chi), both by mpmath's Gaver-Stehfest rule, which
samples the positive axis only; at 30 digits it takes 88 samples per t, at 87
working digits, shared by v and V.  Talbot's contour would reach Re lam < 0,
where the rotated form does not hold.  Nothing here uses the Wiener-Hopf
identity chi(lam) chi(-lam) = phi(-lam^2) that the package computes v and V
by.  The geometric kind takes about 8 min per t, the others about half a
minute; the tasks run on two processes.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor

import mpmath as mp

mp.mp.dps = 30

TIMES = ["1e-2", "1", "10"]


def sum_of_stables(alpha, beta):
    a, b = mp.mpf(alpha) / 2, mp.mpf(beta) / 2
    return (lambda x: x**a + x**b), [mp.mpf(1)]


def log_up(alpha, gamma):
    a, c = mp.mpf(alpha) / 2, mp.mpf(gamma) / 2
    return (lambda x: x**a * mp.log1p(x) ** c), [mp.mpf(1)]


def log_down(alpha, beta):
    a, c = mp.mpf(alpha) / 2, -mp.mpf(beta) / 2
    return (lambda x: x**a * mp.log1p(x) ** c), [mp.mpf(1)]


def relativistic(alpha, m):
    # (x + theta)^a - m without its cancellation at small x
    a, m = mp.mpf(alpha) / 2, mp.mpf(m)
    theta = m ** (1 / a)
    return (lambda x: m * mp.expm1(a * mp.log1p(x / theta))), [theta]


def geometric(alpha, n):
    # 1 / sum_{k=1}^n 2^k / (x + 2^(2k/alpha))
    w = [mp.mpf(2) ** k for k in range(1, n + 1)]
    b = [mp.mpf(2) ** (2 * k / mp.mpf(alpha)) for k in range(1, n + 1)]
    return (lambda x: 1 / mp.fsum(wk / (x + bk) for wk, bk in zip(w, b))), b


# (label, sbmpot.phi_from_json spec, mpmath (phi, the scales to split chi's integral at) and its parameters)
KINDS = [
    ("sum(1,0.5)", {"kind": "sum", "alpha": 1.0, "beta": 0.5}, sum_of_stables, (1, 0.5)),
    ("log_up(1,0.5)", {"kind": "log_up", "alpha": 1.0, "gamma": 0.5}, log_up, (1, 0.5)),
    ("log_down(1,0.5)", {"kind": "log_down", "alpha": 1.0, "beta": 0.5}, log_down, (1, 0.5)),
    ("relativistic(1,1)", {"kind": "relativistic", "alpha": 1.0, "m": 1.0}, relativistic, (1, 1)),
    ("geometric(1,64)", {"kind": "geometric_example", "alpha": 1.0, "n": 64}, geometric, (1, 64)),
]


def chi(phi, scales, lam):
    """The rotated integral, at the working precision of the caller."""
    f = lambda y: mp.log(phi(lam**2 * mp.exp(2 * y))) / (2 * mp.cosh(y))
    cuts = sorted(mp.log(s) / 2 - mp.log(lam) for s in scales)
    return mp.exp(mp.quad(f, [-mp.inf, *cuts, mp.inf]) / mp.pi)


def renewal(task):
    """(label, spec, t, v, V) of one kind at one t."""
    label, spec, make, args, t = task
    phi, scales = make(*args)
    seen = {}

    def inv_chi(lam):
        if lam not in seen:
            seen[lam] = 1 / chi(phi, scales, lam)
        return seen[lam]

    t = mp.mpf(t)
    v = mp.invertlaplace(inv_chi, t, method="stehfest")
    V = mp.invertlaplace(lambda lam: inv_chi(lam) / lam, t, method="stehfest")
    return label, spec, float(t), float(v), float(V)


def main() -> None:
    # the slow geometric tasks first, so that the two processes finish together
    tasks = [(*kind, t) for kind in reversed(KINDS) for t in TIMES]
    with ProcessPoolExecutor(max_workers=2) as pool:
        rows = list(pool.map(renewal, tasks))
    order = {kind[0]: i for i, kind in enumerate(KINDS)}
    rows.sort(key=lambda row: (order[row[0]], row[2]))
    out = {
        "generator": (f"mpmath {mp.__version__}: chi by the rotated integral (tanh-sinh), v and V by "
                      f"invertlaplace(method='stehfest'), {mp.mp.dps} digits"),
        "ladder": [{"label": label, "phi": spec, "t": t, "v": v, "V": V} for label, spec, t, v, V in rows],
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ladder_mpmath.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
