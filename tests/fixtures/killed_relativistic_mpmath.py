"""Write killed_relativistic_mpmath.json: G in d = 3 of phi = sqrt(lam + 1) - 1 + a at 25 digits.

    python3 tests/fixtures/killed_relativistic_mpmath.py

Needs mpmath only (not sbmpot).  The relativistic kind at alpha = 1, m = 1 killed at rate a has
1/(phi + a) = 1/(sqrt(lam + 1) - c), c = 1 - a, whose inverse Laplace transform is the closed

    u(t) = e^(-t) (1/sqrt(pi t) + c e^(c^2 t) erfc(-c sqrt t)),

and G(r) = int_0^inf (4 pi t)^(-3/2) exp(-r^2/(4t)) u(t) dt, by mpmath.quad on panels split at r^2
and at powers of ten of t.  For a < 1 the pole of 1/(phi + a) at lam = -(1 - c^2) is off the cut, so
u decays as e^(-(1 - c^2) t).
"""

from __future__ import annotations

import json
import os

import mpmath as mp

mp.mp.dps = 25

A = "0.5"
RADII = ["0.01", "0.1", "0.5", "1", "3"]


def u(t, c):
    return mp.exp(-t) * (1 / mp.sqrt(mp.pi * t) + c * mp.exp(c * c * t) * mp.erfc(-c * mp.sqrt(t)))


def green(r, c):
    f = lambda t: (4 * mp.pi * t) ** mp.mpf(-1.5) * mp.exp(-r * r / (4 * t)) * u(t, c)  # noqa: E731
    cuts = sorted({mp.mpf(0), r * r / 100, r * r, *(mp.mpf(10) ** k for k in range(-6, 4)), mp.inf})
    return mp.quad(f, cuts)


def main():
    c = 1 - mp.mpf(A)
    rows = [{"a": float(A), "r": float(r), "G": float(green(mp.mpf(r), c))} for r in RADII]
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "killed_relativistic_mpmath.json")
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
