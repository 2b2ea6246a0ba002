"""Monte Carlo first-exit sampling against closed-form stable targets.

Simulates exits of the alpha=1 process from the unit interval.  The mean
exit time from the center is exactly 1, and the exit distribution follows
an explicit arc-cosine law, bin by bin.
"""

import math

import numpy as np

from sbmpot import Ball, exit_distribution_histogram, scaled_config, simulate_exits, stable

phi = stable(1.0)
ball = Ball(center=(0.0,), radius=1.0)
cfg = scaled_config(phi, 1.0, 20_000, seed=3, epsilon=1e-4)

print(f"simulating {cfg.paths} paths (seed {cfg.seed}, "
      f"step {cfg.step:g}, horizon {cfg.horizon:g})")
for x0 in (0.0, 0.5, 0.9):
    est = simulate_exits(phi, ball, [x0], cfg).mean_tau()
    exact = math.sqrt(1.0 - x0 * x0)
    print(f"  x0={x0:3g}  mean tau={est.mean:.4f} +- {est.std_error:.4f}"
          f"   exact={exact:.4f}")

edges = np.array([1.1, 1.3, 1.5, 1.8, 2.1, 2.5, 3.0])
hist = exit_distribution_histogram(phi, ball, [0.0], edges, cfg)
exact = (2.0 / math.pi) * np.diff(np.arccos(1.0 / edges))
print("\nexit-position histogram from the center, radial bins")
print(f"  {'bin':>12s} {'observed':>10s} {'exact':>10s} {'rel err':>9s}")
for i in range(len(exact)):
    lo, hi = edges[i], edges[i + 1]
    rel = abs(hist.prob[i] / exact[i] - 1.0)
    print(f"  [{lo:4.2f},{hi:4.2f}) {hist.prob[i]:10.5f} {exact[i]:10.5f} {rel:9.2%}")
print(f"  censored paths: {hist.censored} of {hist.n}")
print(f"  left/right boundary mass: {hist.mass_left:.4f} / {hist.mass_right:.4f}")
