"""Spectrum estimation: tensor-power mass concentrates on nearby diagrams.

For k copies of a state, the projected trace tr(P_lam rho^(x k)) piles up
on diagrams whose normalization approximates the spectrum.  The table below
tracks the mass and the l1 distances per diagram, the tail outside a fixed
ball, and the concave rate diagnostic along fixed diagram sequences.
"""

import numpy as np

from snrecoupling.quantumstates import DensityMatrix
from snrecoupling.experiments import cmd_spectrum_estimation

rho = DensityMatrix(dims=(2,), matrix=np.diag([0.9, 0.1]))
report = cmd_spectrum_estimation(rho, k_max=24, delta=0.3)

print("diagram table at k = 24 (spectrum (0.9, 0.1)):")
for item in report.items:
    if item["k"] == 24 and item["trace"] > 1e-12:
        print(f"  lam = {str(item['lam']):>10}  trace = {item['trace']:.3e}  "
              f"l1 dist = {item['l1_dist']:.3f}  "
              f"exp(-k dist^2/2) = {item['gaussian_bound']:.3e}")

print("\ntail mass outside the 0.3-ball, by k:")
tails = report.summary["tail_mass"]
for k in (4, 8, 12, 16, 20, 24):
    print(f"  k = {k:2d}: {tails[k - 1]:.4e}")

print("\nrate diagnostic (log trace + k dist^2 / 2) per diagram direction:")
for direction in report.summary["rate_directions"]:
    print(f"  direction {str(direction['direction']):>10}: "
          f"{direction['points']} points, concave: {direction['monotone']}")
