"""Potential and Levy densities via numerical Laplace inversion.

The potential density u has Laplace transform 1/phi and the Levy density mu
is recovered from phi itself.  For stable exponents both have closed forms,
which potential_density_u and eval_levy_density return (a kind without one
integrates phi's cut on the real axis instead); inverting 1/phi directly,
with the fixed-Talbot rule checked against its 24-node rule, makes the
inversion error and its residual visible.  The hard upper bound
u(t) * t * phi(1/t) <= 1/(1 - 1/e) holds for every entry.
"""

import math

import numpy as np

from sbmpot import (
    ZAHLE_BOUND,
    default_catalog,
    eval_levy_density,
    laplace,
    potential_density_u,
    stable,
)

phi = stable(1.0)
ts = np.geomspace(1e-3, 1.0, 7)
u_inv = laplace.talbot_inversion(lambda s: 1.0 / phi(s), ts)
residual = float(np.max(np.abs(u_inv / laplace.talbot_inversion(lambda s: 1.0 / phi(s), ts, 24) - 1.0)))
u_exact = ts ** (-0.5) / math.sqrt(math.pi)

print(f"stable alpha=1: inverted u(t) against t^(-1/2)/sqrt(pi), residual {residual:.2e}")
for t, a, b in zip(ts, u_inv, u_exact):
    print(f"  t={t:9.4g}  inverted={a:.10g}  exact={b:.10g}  rel={abs(a / b - 1.0):.2e}")

mu = eval_levy_density(phi, 1.0)
mu_exact = 0.5 / math.gamma(0.5)
print(f"\nLevy density at t=1: {mu:.10g} (exact {mu_exact:.10g})")

print(f"\nupper-bound products u(t)*t*phi(1/t), bound {ZAHLE_BOUND:.6f}")
for phi_k in default_catalog():
    prods = potential_density_u(phi_k, ts) * ts * phi_k(1.0 / ts)
    print(f"  {phi_k.label():38s} max={prods.max():.6f}")
