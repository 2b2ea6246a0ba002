"""Empirical Harnack and boundary Harnack ratio experiments.

Harmonic functions are represented by boundary data and evaluated by exit
sampling with shared driving noise across the evaluation grid, so the
sup/inf ratios are far less noisy than the individual estimates.  The
Harnack check walks on spheres and the boundary Harnack check marches.
Takes about six seconds, nearly all of it the boundary Harnack march.
"""

from sbmpot import bhp_ratio_check, harnack_ratio, stable

phi = stable(1.0)

print("Harnack ratio over B(0, r) for data harmonic in B(0, 17r), alpha=1, d=1")
rep = harnack_ratio(phi, 1, 0.05, paths=600, seed=11, epsilon=1e-4)
print(f"  sup/inf ratio        {rep.ratio:.4f}")
print(f"  with 4x paths        {rep.ratio_paths_refined:.4f}  (delta {rep.delta_paths:.2%})")
print(f"  with 2x grid         {rep.ratio_grid_refined:.4f}  (delta {rep.delta_grid:.2%})")
print(f"  stable under refinement: {rep.passed}")

print("\nboundary Harnack spread near 0 for the interval (0, 2r)")
bhp = bhp_ratio_check(phi, 0.05, paths=2400, seed=11, epsilon=1e-4)
print(f"  spread of (u/v)(x) * (v/u)(corkscrew)  {bhp.spread:.4f}")
print(f"  with 4x paths                          {bhp.spread_paths_refined:.4f}")
print(f"  stable under refinement: {bhp.passed}")
