"""Tour of the built-in Laplace exponent catalog.

Prints each catalog entry, evaluates phi and its conjugate psi = lambda/phi,
shows that conjugation is an involution and that entries round-trip
through their JSON descriptions, and tabulates u and G (d = 3) of two
composite exponents: a conjugate whose measures are atoms only, and a
killed shift whose 1/phi has an atom off the cut.
"""

import numpy as np

from sbmpot import (conjugate, default_catalog, geometric_like, green_function, killed_shift, phi_from_json,
                    phi_to_json, potential_density_u, relativistic_stable)

lams = np.array([0.1, 1.0, 10.0, 100.0])

print("catalog entries and phi values")
print(f"{'label':38s}" + "".join(f"phi({lam:g})".rjust(12) for lam in lams))
for phi in default_catalog():
    row = "".join(f"{v:12.5g}" for v in phi(lams))
    print(f"{phi.label():38s}{row}")

phi = default_catalog()[1]          # stable, alpha = 1
psi = conjugate(phi)
back = conjugate(psi)
print()
print("conjugation: psi(lam) = lam / phi(lam), applied twice returns phi")
for lam in lams:
    print(f"  lam={lam:6g}  phi={phi(lam):.6f}  psi={psi(lam):.6f}  "
          f"phi*psi/lam={phi(lam) * psi(lam) / lam:.12f}  "
          f"psi_conj={back(lam):.6f}")

entry = phi_to_json(default_catalog()[3])
print()
print("JSON round trip:", entry)
clone = phi_from_json(entry)
print(f"  phi(2.5) original {default_catalog()[3](2.5):.12f}  clone {clone(2.5):.12f}")

print()
print("composites: u(t) and G(r) in d = 3")
for composite in (conjugate(geometric_like(1.0)), killed_shift(relativistic_stable(1.0, 1.0), 0.5)):
    print(f"  {composite.label()}")
    for t, r in zip((0.1, 1.0, 10.0), (0.1, 0.5, 2.0)):
        print(f"    u({t:g}) = {potential_density_u(composite, t):.10g}   "
              f"G({r:g}) = {green_function(composite, 3, r):.10g}")
