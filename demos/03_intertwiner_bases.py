"""Kronecker coefficients and explicit intertwiner bases.

The multiplicity of [lam] inside [alpha] (x) [beta] is computed two ways:
by the exact character sum and as the dimension of the solved intertwiner
space.  The basis maps phi_i are isometries normalized so that
tr(phi_j^T phi_i) = dim[lam] delta_ij, the trivial coupling is the
maximally entangled vector, and bending a leg costs exactly the dimension
factors that power the column-swap symmetry.
"""

import numpy as np

from snrecoupling.combinatorics import enumerate_partitions, sk_dimension
from snrecoupling.intertwiner import (
    bend_and_compare,
    cg_isometries,
    kronecker_coefficient,
    trivial_coupling,
)

k = 3
print(f"Kronecker coefficients for k = {k}: g(alpha, beta, lam)")
parts = enumerate_partitions(k)
for alpha in parts:
    for beta in parts:
        row = [kronecker_coefficient(alpha, beta, lam) for lam in parts]
        print(f"  g({alpha}, {beta}, .) = {row}")

print("\nthe solved basis for ((2,1), (2,1), (2,1)):")
basis = cg_isometries((2, 1), (2, 1), (2, 1))
phi = basis[0]
print(f"  one map of shape {phi.shape}; tr(phi^T phi) = {np.trace(phi.T @ phi):.6f}"
      f" = dim[(2,1)] = {sk_dimension((2, 1))}")
print(f"  phi^T phi =\n{np.round(phi.T @ phi, 10)}  (an isometry)")

print("\ntrivial coupling = maximally entangled vector:")
vec = trivial_coupling((2, 1))
print(f"  {vec}  (norm {np.linalg.norm(vec):.6f})")

d = sk_dimension((2, 1))
pair = vec.reshape(d, d)
tele = np.einsum("ef,fg->ge", pair, pair)
print(f"\nteleportation contraction gives identity / dim:\n{np.round(tele, 10)}")

print("\nbending a leg relates two coupling orders through a unitary:")
for alpha, beta, lam in [((2, 1), (2, 1), (2, 1)), ((2, 1), (2, 1), (3,))]:
    u = bend_and_compare(alpha, beta, lam)
    print(f"  ({alpha}, {beta}, {lam}): U = {np.round(u, 8)}")
