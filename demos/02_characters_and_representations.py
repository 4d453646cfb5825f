"""Young's orthogonal form and exact characters.

The generator matrices of each irreducible representation are real,
symmetric and orthogonal; their entries come from axial distances in
standard tableaux.  Characters are computed independently by the
border-strip recursion, which lets us cross-check matrix traces against
exact integers.
"""

import numpy as np

from snrecoupling.combinatorics import conjugacy_classes, enumerate_partitions
from snrecoupling.repsym import character, young_orthogonal_rep

rep = young_orthogonal_rep((2, 1))
print("generators of the standard representation of S_3:")
for i, g in enumerate(rep.generators, start=1):
    print(f"  s_{i} =\n{np.round(g, 6)}")

a, b = rep.generators
print("\nbraid relation s1 s2 s1 = s2 s1 s2:",
      np.abs(a @ b @ a - b @ a @ b).max() < 1e-12)

print("\ncharacter table of S_4 (rows: diagrams, columns: cycle types):")
types = [t for t, _ in conjugacy_classes(4)]
print("        " + "  ".join(f"{str(t):>12}" for t in types))
for lam in enumerate_partitions(4):
    row = [character(lam, t) for t in types]
    print(f"{str(lam):>8}" + "  ".join(f"{v:>12}" for v in row))

print("\ncolumn orthogonality: sum_lam chi(t)^2 = k!/|class|")
for t, size in conjugacy_classes(4):
    total = sum(character(lam, t) ** 2 for lam in enumerate_partitions(4))
    print(f"  type {t}: {total} = {24 // size} * (24/{24 // size})"
          f" -> centralizer {24 // size}")


def class_word(cycle_type):
    """Generators whose product has the given cycle type: the cycle
    (i, i+1, ..., i+r-1) is s_i s_{i+1} ... s_{i+r-2}, one run per part."""
    word, start = [], 1
    for r in cycle_type:
        word += range(start, start + r - 1)
        start += r
    return word


print("\nmatrix traces reproduce the character table:")
for lam in enumerate_partitions(4):
    gens = young_orthogonal_rep(lam).generators
    traces = []
    for t in types:
        mat = np.eye(len(gens[0]))
        for i in class_word(t):
            mat = mat @ gens[i - 1]
        traces.append(np.trace(mat))
    chars = [character(lam, t) for t in types]
    assert np.allclose(traces, chars, atol=1e-12)
    print(f"{str(lam):>8}" + "  ".join(f"{tr:>12.6f}" for tr in traces))
