"""Marginal spectra, entropy inequalities and the dimension-ratio route.

Strong subadditivity H(AB) + H(BC) >= H(B) + H(ABC) and weak monotonicity
H(AB) + H(BC) >= H(A) + H(C) are scanned over random tripartite states, and
the entropy gap is recovered from pure diagram counting: rounded marginal
spectra and exact log-dimensions.
"""

import numpy as np

from snrecoupling.experiments import cmd_dimension_ratio, cmd_ssa_scan
from snrecoupling.quantumstates import (
    ghz_state,
    sample_hs_random,
    spectra_tuple,
    ssa_gap,
    weak_mono_gap,
)

ghz = ghz_state()
s = spectra_tuple(ghz)
print("GHZ marginal spectra:")
print(f"  r_A   = {np.round(s.r_a, 6)}")
print(f"  r_AB  = {np.round(s.r_ab, 6)}")
print(f"  r_ABC = {np.round(s.r_abc, 6)}")
print(f"  ssa gap = {ssa_gap(s):.6f}, weak-mono gap = {weak_mono_gap(s):.6f}")

print("\nscan over 300 HS-random two-qubit-cubed states:")
report = cmd_ssa_scan(300, seed=5)
print(f"  min ssa gap       = {report.summary['min_ssa_gap']:.4e}")
print(f"  min weak-mono gap = {report.summary['min_weak_mono_gap']:.4e}")

print("\nentropy gap from diagram counting alone (GHZ):")
report = cmd_dimension_ratio(ghz, [125, 500, 2000])
for item in report.items:
    print(f"  k = {item['k']:5d}: ratio = {item['ratio']:.5f} "
          f"(gap {item['gap']:.1f}, error {item['abs_error']:.2e}, "
          f"bound {item['error_bound']:.2e})")

rho = sample_hs_random((2, 2, 2), seed=8)
print("\nsame for a random mixed state:")
report = cmd_dimension_ratio(rho, [250, 1000, 4000])
for item in report.items:
    print(f"  k = {item['k']:5d}: ratio = {item['ratio']:.5f} vs gap {item['gap']:.5f}")
