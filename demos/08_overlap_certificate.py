"""The finite-size projector-overlap certificate and the converse probe.

The certificate chain bounds the summed recoupling norms over a spectrum
ball from below by overlap traces of the ball projectors, using only
computed numbers:

    sum hs  >=  |tr(P~ Q~ rho^k)|  >=  tr(P~ rho^k) - sqrt(1 - tr(Q~ rho^k)).

The converse probe rounds target spectra to diagrams at each k up to 7 and
reports the exact recoupling norm sequence; tuples with vanishing
multiplicities die immediately, compatible pure-state tuples stay at norm
one.
"""

import numpy as np

from snrecoupling.experiments import (
    cmd_converse_probe,
    cmd_overlap_bound_fuzz,
    cmd_overlap_certificate,
)
from snrecoupling.quantumstates import (
    SpectraTuple,
    maximally_mixed,
    pure_state,
    spectra_tuple,
)

rho = maximally_mixed((2, 2, 2))
print("certificate for the maximally mixed state, k = 3, delta = 1.0:")
report = cmd_overlap_certificate(rho, k=3, delta=1.0)
s = report.summary
print(f"  ball sizes: {s['ball_sizes']}")
print(f"  t_P = {s['t_p']:.5f}, t_Q = {s['t_q']:.5f}, |t_PQ| = {s['t_pq_abs']:.5f}")
print(f"  sum of recoupling norms over the ball = {s['sum_hs']:.5f}")
print(f"  lower bound t_P - sqrt(1 - t_Q)       = {s['rhs_lower_bound']:.5f}")
print(f"  chain holds: {report.passed}")

print("\noverlap-bound inequality fuzz (500 random projector pairs):")
report = cmd_overlap_bound_fuzz(500, seed=1)
print(f"  min slack = {report.summary['min_slack']:.2e}, "
      f"violations = {report.summary['violations']}")

rng = np.random.default_rng(1)
vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
compatible = spectra_tuple(pure_state(vec, (2, 2, 2)))
print("\nconverse probe, compatible tuple (random pure state):")
report = cmd_converse_probe(compatible, range(2, 8))
print(f"  hs sequence: {[round(h, 6) for h in report.summary['hs_sequence']]}")

incompatible = SpectraTuple(
    r_a=np.array([0.5, 0.5]), r_b=np.array([0.5, 0.5]), r_c=np.array([1.0, 0.0]),
    r_ab=np.array([0.25] * 4), r_bc=np.array([0.5, 0.5, 0.0, 0.0]),
    r_abc=np.array([1.0] + [0.0] * 7),
)
print("converse probe, tuple with no joint state (multiplicities vanish):")
report = cmd_converse_probe(incompatible, range(2, 8))
print(f"  hs sequence: {[round(h, 6) for h in report.summary['hs_sequence']]}")
