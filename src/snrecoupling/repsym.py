"""Real orthogonal irreducible representations of S_k and their characters.

Generator matrices follow Young's orthogonal form: in the basis of standard
tableaux, the adjacent transposition s_i acts with diagonal entry 1/d and
off-diagonal sqrt(1 - 1/d^2), where d is the axial distance from i to i+1.
Characters are computed combinatorially, by the Murnaghan-Nakayama rule on
the abacus (James-Kerber, The Representation Theory of the Symmetric Group,
2.7): the beta-set of a partition is one integer bitmask, and removing a rim
hook of length r moves one bead r places down.  So projected traces stay
usable far beyond the regime where matrices can be materialized.
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
    conjugacy_classes,
    partition_counts,
)
from .errors import ResourceLimitError, ValidationError

DEFAULT_DIMENSION_CAP = 5000
CLASS_COUNT_CAP = 6_000  # admits k <= 30: p(30) = 5,604, p(31) = 6,842


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
# characters (Murnaghan-Nakayama rule on the abacus)

def character(lam: Sequence[int], cycle_type: Sequence[int]) -> int:
    """Exact integer character value of S_k at the given cycle type.

    Refused, before any recursion, for a k above ``CLASS_COUNT_CAP`` classes:
    the memo grows with the partitions inside lam that the rim-hook
    recursion reaches, about binom(2n, n) for an n x n box at 1^(n^2).
    """
    lam = check_partition(lam)
    t = check_partition(cycle_type)
    if sum(lam) != sum(t):
        raise ValidationError(
            f"shape {lam} and cycle type {t} refer to different symmetric groups"
        )
    _check_class_count(sum(t))
    return _bead_character(_beads(lam), t)


@cache
def _class_counts(cap: int) -> tuple[int, ...]:
    """p(0), p(1), ... through the first value above cap."""
    counts = []
    for p in partition_counts():
        counts.append(p)
        if p > cap:
            return tuple(counts)


def _check_class_count(k: int) -> None:
    """Refuse a k whose S_k has more than ``CLASS_COUNT_CAP`` (read at each
    call) conjugacy classes.  p(k) never decreases in k, so the recurrence
    stops at the first value above the cap, however large k is."""
    counts = _class_counts(CLASS_COUNT_CAP)
    if k >= len(counts) - 1:
        raise ResourceLimitError(
            f"S_{k} has p({k}) >= {counts[-1]} conjugacy classes, "
            f"above the cap {CLASS_COUNT_CAP}"
        )


@cache
def _character_row(lam: Partition) -> tuple[int, ...]:
    """chi_lam on every class of S_k, in ``conjugacy_classes(k)`` order."""
    beads = _beads(lam)
    return tuple(_bead_character(beads, t) for t, _ in conjugacy_classes(sum(lam)))


def _beads(lam: Partition) -> int:
    """The beta-set of lam as a bitmask: row i of its m rows puts a bead at
    lam_i + m - 1 - i.  Position 0 is empty, as every row is positive."""
    m = len(lam)
    return sum(1 << (row + m - 1 - i) for i, row in enumerate(lam))


@cache
def _bead_character(beads: int, cycle_type: Partition) -> int:
    """chi at cycle_type of the partition with beta-set ``beads``.

    A rim hook of length r = cycle_type[0] is a bead at b with b - r empty;
    removing it moves that bead to b - r, with sign (-1)^(number of beads
    strictly between).  Beads at 0, 1, ... stand for zero rows and are
    shifted out, so each partition has one memo key.
    """
    if not cycle_type:
        return 1
    r, rest = cycle_type[0], cycle_type[1:]
    movable = (beads & ~(beads << r)) >> r << r
    total = 0
    while movable:
        low = movable & -movable
        movable ^= low
        moved = beads ^ low ^ (low >> r)
        moved >>= (~moved & (moved + 1)).bit_length() - 1
        term = _bead_character(moved, rest)
        if (beads & (low - (low >> (r - 1)))).bit_count() & 1:
            term = -term
        total += term
    return total
