"""Green function and jump kernel through the subordination integrals.

For phi(lam) = lam^(1/2) in d = 3 the Green function is the Riesz kernel
G(r) = 1/(2 pi^2 r^2), which the kind registry returns in closed form.  The
integral on phi's cut reaches the same value from the cut density
-Im 1/phi(-s + i0) = s^(-1/2), so the closed form is an exact target for the
real-axis rule.  The jump kernel of the same process in d = 1 is
j(r) = 1/(pi r^2), and its doubling constant j(r)/j(2r) is exactly 4.
"""

import math

import numpy as np

from sbmpot import (
    build_kernel_table,
    green_function,
    j_doubling_and_shift,
    jump_kernel,
    stable,
    subordination_integral,
    transience_check,
)

phi = stable(1.0)
print("Riesz kernel check, d=3: G(r) * r^2 should equal 1/(2 pi^2)")
target = 1.0 / (2.0 * math.pi**2)
for r in (0.01, 0.1, 1.0):
    g = green_function(phi, 3, r)
    rule = subordination_integral(lambda s: s**-0.5, 3, r)
    print(f"  r={r:5g}  G*r^2={g * r * r:.8f}  on the cut {rule * r * r:.8f}  target={target:.8f}")

print("\njump kernel, d=1: j(1) should equal 1/pi")
print(f"  j(1) = {jump_kernel(phi, 1, 1.0):.10f}   1/pi = {1.0 / math.pi:.10f}")
doubling, shift = j_doubling_and_shift(phi, 1, 2.0)
print(f"  doubling sup j(r)/j(2r) = {doubling:.8f}   unit shift sup = {shift:.4f}")

print("\ntransience in d=1 depends on the index: alpha < 1 transient")
for alpha in (0.5, 1.5):
    print(f"  alpha={alpha}: transient = {transience_check(stable(alpha), 1)}")

print("\nkernel table for the relativistic entry, d=3 "
      "(ratio columns should stay within fixed windows)")
from sbmpot import relativistic_stable

rel = relativistic_stable(1.0, 1.0)
cols = build_kernel_table(rel, 3, 0.01, 1.0, 5).columns(rel)
print(f"  {'r':>8s} {'G':>12s} {'J':>12s} {'G*r^3*phi':>12s} {'j*r^3/phi':>12s}")
for i in range(5):
    print(f"  {cols['r'][i]:8.3g} {cols['G'][i]:12.5g} {cols['J'][i]:12.5g} "
          f"{cols['g_ratio'][i]:12.5g} {cols['j_ratio'][i]:12.5g}")
