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
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .combinatorics import (
    Partition,
    _beta_numbers,
    _sk_dimension,
    _tableaux_and_contents,
    check_labels,
    check_partition,
    conjugacy_classes,
)
from .errors import check_cap

GENERATOR_FLOAT_CAP = 2**26  # (k - 1) * dim^2 floats of the generators: 512 MiB


@dataclass(frozen=True)
class RepMatrixSet:
    """Young's orthogonal form of one irreducible representation: the one
    table of its basis, built once per shape.

    ``basis`` lists the standard tableaux of ``shape`` in increasing row word.
    ``contents[t][e]`` is col - row of the cell holding entry e (1-based) in
    tableau t, and ``moves[t][i]`` is the index of s_i T_t, tableau t with
    the entries i and i+1 exchanged, or -1 when the two share a row or a
    column (axial distance +-1), so that s_i T_t is not standard; index 0
    of both is a pad (0 and -1).  ``descents[t]`` is the first i with i+1 in
    a higher row than i (0 for T1, which has none): s_i T_t has a smaller row
    word, so ``0 <= moves[t][i] < t``.  ``generators[i-1]`` represents s_i.
    """

    shape: Partition
    generators: tuple[np.ndarray, ...]
    basis: tuple
    contents: tuple[tuple[int, ...], ...]
    moves: tuple[tuple[int, ...], ...]
    descents: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def k(self) -> int:
        return sum(self.shape)

    @cached_property
    def cycle(self) -> np.ndarray:
        """Read-only matrix of the k-cycle (0 1 ... k-1), built on first use;
        it is the identity for no k >= 2.

        The cycle is s_1 s_2 ... s_{k-1}, multiplied right to left: the
        products, in order, that the tests' ``represent`` oracle takes along
        its bubble-sort word (k-1, ..., 2, 1), so the two agree bit for bit."""
        gens = self.generators
        mat = gens[-1] if gens else np.ones((1, 1))  # k = 1: the identity
        for gen in reversed(gens[:-1]):
            mat = gen @ mat
        mat.setflags(write=False)
        return mat


def young_orthogonal_rep(lam: Sequence[int]) -> RepMatrixSet:
    """Young's orthogonal form of [lam]; refused, before any matrix is built,
    when its k - 1 generators would hold more than ``GENERATOR_FLOAT_CAP``
    (read at each call) floats."""
    lam = check_partition(lam)
    check_cap("(k - 1) * dim^2 floats of the generators of {}",
              (sum(lam) - 1) * _sk_dimension(lam) ** 2, GENERATOR_FLOAT_CAP, lam)
    return _young_orthogonal_rep(lam)


@cache
def _young_orthogonal_rep(lam: Partition) -> RepMatrixSet:
    k = sum(lam)
    basis, contents = _tableaux_and_contents(lam)
    index = {cont: t for t, cont in enumerate(contents)}
    moves = [[-1] * k for _ in basis]
    descents = [0] * len(basis)
    generators = []
    for i in range(1, k):
        mat = np.zeros((len(basis),) * 2)
        for t, cont in enumerate(contents):
            # axial distance from i to i+1: content(i+1) - content(i)
            d = cont[i + 1] - cont[i]
            mat[t, t] = 1.0 / d
            if abs(d) >= 2:  # s_i T is standard: the tableau of the exchanged contents
                moves[t][i] = index[cont[:i] + (cont[i + 1], cont[i]) + cont[i + 2:]]
                mat[moves[t][i], t] = math.sqrt(1.0 - 1.0 / d**2)
                if d > 0 and not descents[t]:  # i+1 is in a higher row than i
                    descents[t] = i
        mat.setflags(write=False)
        generators.append(mat)
    return RepMatrixSet(shape=lam, generators=tuple(generators), basis=basis,
                        contents=contents, moves=tuple(map(tuple, moves)),
                        descents=tuple(descents))


# ---------------------------------------------------------------------------
# characters (Murnaghan-Nakayama rule on the abacus)

def character(lam: Sequence[int], cycle_type: Sequence[int]) -> int:
    """Exact integer character value of S_k at the given cycle type.

    Refused by ``check_labels``, before any recursion, for a k above
    ``combinatorics.K_MAX``: the memo grows with the
    partitions inside lam that the rim-hook recursion reaches, about
    binom(2n, n) for an n x n box at 1^(n^2).
    """
    lam, t = check_labels(lam, cycle_type)
    return _bead_character(_beads(lam), t)


@cache
def _character_row(lam: Partition) -> tuple[int, ...]:
    """chi_lam on every class of S_k, in ``conjugacy_classes(k)`` order."""
    beads = _beads(lam)
    return tuple(_bead_character(beads, t) for t, _ in conjugacy_classes(sum(lam)))


@cache
def _beads(lam: Partition) -> int:
    """The beta-set of lam as a bitmask: one bead at each of its beta
    numbers.  Position 0 is empty, as every row is positive."""
    return sum(1 << ell for ell in _beta_numbers(lam))


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
