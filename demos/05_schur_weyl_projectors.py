"""Isotypic projectors on tensor powers and the independent norm route.

On (C^d)^(x k) the isotypic projectors realize the abstract decomposition
concretely: ranks factor as dim[lam] * dim V^d_lam, traces against product
states follow from power sums over cycle types, and products of tripartite
projectors, formed in the group algebra, reproduce recoupling norms computed
in a completely different way by the intertwiner route.
"""

import math

import numpy as np

from snrecoupling.combinatorics import enumerate_partitions, sk_dimension, weyl_dimension
from snrecoupling.quantumstates import DensityMatrix, maximally_mixed
from snrecoupling.recoupling import recoupling_tensor
from snrecoupling.schurweyl import (
    isotypic_projector,
    overlap_trace,
    projected_trace,
    tripartite_elements,
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

# P~ and Q~ are projectors, so ||P~ Q~||_HS^2 = tr(P~ Q~), and tr(P~ Q~) is
# (abc)^k times its trace against the maximally mixed state.  P~ Q~ is an
# identity of dimension dim[lam] dim V^a_alpha dim V^b_beta dim V^c_gamma
# tensored with the recoupling block, so that dimension divides it out.
dims, k = (2, 2, 2), 3
print(f"\ncross-route check at k = {k}, local dimensions {dims}:")
tuples = [
    ((2, 1), (2, 1), (2, 1), (3,), (3,), (2, 1)),
    ((2, 1), (2, 1), (2, 1), (3,), (2, 1), (2, 1)),
    ((2, 1), (2, 1), (3,), (2, 1), (2, 1), (2, 1)),
]
for labels in tuples:
    alpha, beta, gamma, mu, nu, lam = labels
    elements = tripartite_elements(*([l] for l in labels), dims, k)
    t_pq = overlap_trace(elements, maximally_mixed(dims), k).t_pq.real
    identity_dim = (sk_dimension(lam) * weyl_dimension(alpha, dims[0])
                    * weyl_dimension(beta, dims[1]) * weyl_dimension(gamma, dims[2]))
    hs_sq = math.prod(dims) ** k * t_pq / identity_dim
    abstract = recoupling_tensor(*labels).hs
    assert abs(hs_sq - abstract**2) < 1e-12
    print(f"  {labels}:")
    print(f"    group-algebra trace route hs^2 {hs_sq:.10f} vs intertwiner route"
          f" {abstract**2:.10f}")
