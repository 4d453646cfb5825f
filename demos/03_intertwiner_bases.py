"""Kronecker coefficients and explicit intertwiner bases.

The multiplicity of [lam] inside [alpha] (x) [beta] is computed two ways:
by the exact character sum and as the dimension of the solved intertwiner
space.  The basis maps phi_i are isometries normalized so that
tr(phi_j^T phi_i) = dim[lam] delta_ij, the coupling of [lam] (x) [lam] to
the trivial irrep is the maximally entangled vector, and bending a leg
costs exactly the dimension factors that power the column-swap symmetry.
"""

import numpy as np

from snrecoupling.combinatorics import enumerate_partitions, sk_dimension
from snrecoupling.intertwiner import cg_isometries, kronecker_coefficient

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
vec = cg_isometries((2, 1), (2, 1), (3,))[0].reshape(-1)
print(f"  {np.round(vec, 10)}  (norm {np.linalg.norm(vec):.6f}; +-(1, 0, 0, 1)/sqrt(2))")

d = sk_dimension((2, 1))
pair = vec.reshape(d, d)
tele = np.einsum("ef,fg->ge", pair, pair)
print(f"\nteleportation contraction gives identity / dim:\n{np.round(tele, 10)}")

print("\nbending a leg relates two coupling orders through a unitary:")
for alpha, beta, lam in [((2, 1), (2, 1), (2, 1)), ((2, 1), (2, 1), (3,))]:
    da, db, dl = (sk_dimension(p) for p in (alpha, beta, lam))
    maps = cg_isometries(alpha, beta, lam)
    g = len(maps)
    # transpose the alpha and lam axes: [alpha] -> [lam] (x) [beta]
    bent = np.sqrt(da / dl) * maps.reshape(g, da, db, dl).transpose(0, 3, 2, 1)
    straight = cg_isometries(lam, beta, alpha).reshape(g, dl, db, da)
    u = np.tensordot(bent, straight, axes=((1, 2, 3), (1, 2, 3))) / da
    assert np.abs(u @ u.T - np.eye(g)).max() < 1e-10
    print(f"  ({alpha}, {beta}, {lam}) -> ({lam}, {beta}, {alpha}): U = {np.round(u, 8)}")
