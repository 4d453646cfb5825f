"""Real orthogonal irreducible representations of S_k and their characters.

Generator matrices follow Young's orthogonal form: in the basis of standard
tableaux, the adjacent transposition s_i acts with diagonal entry 1/d and
off-diagonal sqrt(1 - 1/d^2), where d is the axial distance from i to i+1.
Characters are computed combinatorially (border-strip recursion over beta
sets), so projected traces stay usable far beyond the regime where matrices
can be materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .combinatorics import (
    Partition,
    Permutation,
    _sk_dimension,
    _tableau_moves,
    _tableaux_and_contents,
    adjacent_word,
    check_partition,
)
from .errors import ResourceLimitError, ValidationError

DEFAULT_DIMENSION_CAP = 5000


@dataclass(frozen=True)
class RepMatrixSet:
    """Orthogonal generator matrices of one irreducible representation.

    ``generators[i-1]`` represents the adjacent transposition s_i = (i, i+1)
    in the ordered basis ``basis`` of standard tableaux.
    """

    shape: Partition
    generators: tuple[np.ndarray, ...]
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def k(self) -> int:
        return sum(self.shape)


def young_orthogonal_rep(lam: Sequence[int]) -> RepMatrixSet:
    """Young's orthogonal form of [lam]; refused, before any matrix is built,
    above ``DEFAULT_DIMENSION_CAP`` (read at each call)."""
    lam = check_partition(lam)
    dim = _sk_dimension(lam)
    if dim > DEFAULT_DIMENSION_CAP:
        raise ResourceLimitError(
            f"representation {lam} has dimension {dim} above the cap {DEFAULT_DIMENSION_CAP}"
        )
    return _young_orthogonal_rep(lam)


@cache
def _young_orthogonal_rep(lam: Partition) -> RepMatrixSet:
    k = sum(lam)
    basis, contents = _tableaux_and_contents(lam)
    moves = _tableau_moves(lam)
    dim = len(basis)

    generators = []
    for i in range(1, k):
        mat = np.zeros((dim, dim))
        for t in range(dim):
            # axial distance from i to i+1: content(i+1) - content(i)
            d = contents[t][i + 1] - contents[t][i]
            mat[t, t] = 1.0 / d
            if moves[t][i] >= 0:
                mat[moves[t][i], t] = math.sqrt(1.0 - 1.0 / d**2)
        mat.setflags(write=False)
        generators.append(mat)
    return RepMatrixSet(shape=lam, generators=tuple(generators), basis=basis)


@cache
def _cycle_matrix(lam: Partition) -> np.ndarray:
    """Read-only matrix of the k-cycle (0 1 ... k-1) on [lam], memoized; it
    is the identity for no k >= 2."""
    k = sum(lam)
    mat = represent(_young_orthogonal_rep(lam), tuple(range(1, k)) + (0,))
    mat.setflags(write=False)
    return mat


def represent(reps: RepMatrixSet, perm: Permutation) -> np.ndarray:
    """Matrix of an arbitrary permutation, via a reduced word in the s_i."""
    if sorted(perm) != list(range(reps.k)):
        raise ValidationError(f"not a permutation of 0..{reps.k - 1}: {perm}")
    mat = np.eye(reps.dim)
    for i in adjacent_word(perm):
        mat = reps.generators[i - 1] @ mat
    return mat


# ---------------------------------------------------------------------------
# characters (border-strip recursion)

def character(lam: Sequence[int], cycle_type: Sequence[int]) -> int:
    """Exact integer character value of S_k at the given cycle type."""
    lam = check_partition(lam)
    t = check_partition(cycle_type)
    if sum(lam) != sum(t):
        raise ValidationError(
            f"shape {lam} and cycle type {t} refer to different symmetric groups"
        )
    return _character(lam, t)


@cache
def _character(lam: Partition, cycle_type: Partition) -> int:
    if not lam:
        return 1
    strip = cycle_type[0]
    rest = cycle_type[1:]
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        target = b - strip
        if target < 0 or target in beta_set:
            continue
        crossings = sum(1 for c in beta if target < c < b)
        new_beta = sorted(beta[:i] + beta[i + 1:] + [target], reverse=True)
        rows = [new_beta[j] - (m - 1 - j) for j in range(m)]
        new_lam = tuple(v for v in rows if v > 0)
        total += (-1) ** crossings * _character(new_lam, rest)
    return total
