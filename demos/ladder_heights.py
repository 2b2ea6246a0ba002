"""Ladder-height objects of the one-dimensional process.

The ladder exponent chi satisfies chi(lam) = lam^(alpha/2) exactly in the
stable case and is sandwiched between e^(-pi/2) and e^(pi/2) multiples of
sqrt(phi(lam^2)) in general.  Its renewal function V gives exit-time bounds,
and the half-line Green function comes from a renewal-density convolution.
"""

import math

import numpy as np

from sbmpot import (
    chi_sandwich_check,
    default_catalog,
    halfline_green,
    ladder_exponent_chi,
    renewal_function_V,
    stable,
)

phi = stable(1.0)
lams = np.array([0.25, 1.0, 4.0, 16.0])
print("stable alpha=1: chi(lam) against sqrt(lam)")
for lam in lams:
    chi = ladder_exponent_chi(phi, float(lam))
    print(f"  lam={lam:6g}  chi={chi:.10f}  sqrt(lam)={math.sqrt(lam):.10f}")

print("\nsandwich ratios chi/sqrt(phi(lam^2)) across the catalog")
lo, hi = math.exp(-math.pi / 2.0), math.exp(math.pi / 2.0)
print(f"  admissible window [{lo:.4f}, {hi:.4f}]")
for entry in default_catalog():
    win = chi_sandwich_check(entry)
    print(f"  {entry.label():38s} min={win.lo:.6f} max={win.hi:.6f} passed={win.passed}")

print("\nrenewal function V(t) = t^(1/2)/Gamma(3/2) for alpha=1")
for t in (0.25, 1.0, 4.0):
    print(f"  V({t:4g}) = {renewal_function_V(phi, t):.8f}")

print("\nhalf-line Green function, symmetric in its arguments")
val = halfline_green(phi, 1.0, 2.0)
print(f"  G(1,2) = {val:.6f}   (2/pi)ln(1+sqrt(2)) = "
      f"{2.0 / math.pi * math.log(1.0 + math.sqrt(2.0)):.6f}")
print(f"  G(2,1) = {halfline_green(phi, 2.0, 1.0):.6f}")
