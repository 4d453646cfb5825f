"""Isotypic projectors on tensor powers and the independent norm route.

On (C^d)^(x k) the isotypic projectors realize the abstract decomposition
concretely: ranks factor as dim[lam] * dim V^d_lam, traces against product
states follow from power sums over cycle types, and products of tripartite
projectors, formed in the group algebra and read off through their Fourier
blocks, reproduce recoupling norms computed in a completely different way by
the intertwiner route.
"""

import numpy as np

from snrecoupling.combinatorics import enumerate_partitions, sk_dimension, weyl_dimension
from snrecoupling.quantumstates import DensityMatrix
from snrecoupling.recoupling import recoupling_tensor
from snrecoupling.schurweyl import (
    hs_norm_via_schurweyl,
    isotypic_projector,
    projected_trace,
)

d, k = 2, 4
print(f"projector ranks on (C^{d})^(x {k}):")
for lam in enumerate_partitions(k):
    rank = round(float(np.trace(isotypic_projector(lam, d))))
    print(f"  {lam}: rank {rank} = dim[lam] {sk_dimension(lam)} x "
          f"dim V {weyl_dimension(lam, d)}")

rho = DensityMatrix(dims=(2,), matrix=np.diag([2 / 3, 1 / 3]))
print("\nprojected traces via cycle types (no projector materialized):")
for lam in enumerate_partitions(2):
    print(f"  tr(P_{lam} rho^(x2)) = {projected_trace(lam, rho):.6f}")
print("  (7/9 and 2/9 exactly)")

print("\ncross-route check at k = 3, local dimensions (2, 2, 2):")
tuples = [
    ((2, 1), (2, 1), (2, 1), (3,), (3,), (2, 1)),
    ((3,), (2, 1), (2, 1), (2, 1), (3,), (2, 1)),
    ((2, 1), (2, 1), (3,), (2, 1), (2, 1), (2, 1)),
]
for labels in tuples:
    sw = hs_norm_via_schurweyl(*labels, (2, 2, 2))
    abstract = recoupling_tensor(*labels).hs
    print(f"  {labels}:")
    print(f"    Fourier-block route {sw.hs:.10f} vs intertwiner route {abstract:.10f}"
          f"   (op norm {sw.op:.6f} <= hs)")
