"""Partitions, standard tableaux, permutations and dimension formulas.

Partitions are plain tuples of non-increasing positive ints summing to k.
Permutations are tuples ``p`` of length k with ``p[i]`` the 0-indexed image
of ``i``; composition is ``(p * q)(i) = p(q(i))``.
"""

from __future__ import annotations

import math
import operator
from functools import cache
from itertools import combinations
from itertools import permutations as _itertools_permutations
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError, check_cap, check_int

Partition = tuple[int, ...]
Permutation = tuple[int, ...]

ROUND_K_MAX = 10**11  # largest k round_spectrum accepts; see its docstring
K_MAX = 30  # largest k of a character sum: S_30 has p(30) = 5,604 conjugacy classes


class CycleType(NamedTuple):
    parts: Partition
    size: int


def check_partition(rows: Sequence[int]) -> Partition:
    """Validate and canonicalize a partition given as a sequence of rows.  Rows
    of type int are kept as they are; any other row goes through check_int."""
    lam = tuple(rows)
    if set(map(type, lam)) != {int}:
        lam = tuple(check_int(row, "partition rows") for row in lam)
    if not lam or lam[-1] <= 0 or any(map(operator.lt, lam, lam[1:])):
        raise ValidationError(f"partition rows must be positive and non-increasing, got {lam}")
    return lam


def check_labels(*parts: Sequence[int]) -> tuple[Partition, ...]:
    """Validate partitions that must all be partitions of one k, and refuse a
    k above ``K_MAX`` (read at each call), whose S_k has more conjugacy
    classes than a character sum may run over."""
    labels = tuple(map(check_partition, parts))
    if len(set(map(sum, labels))) != 1:
        raise ValidationError(f"labels {labels} do not share one k")
    check_cap("k of the S_k whose conjugacy classes a character sum runs over",
              sum(labels[0]), K_MAX)
    return labels


def enumerate_partitions(k: int, max_rows: int | None = None) -> tuple[Partition, ...]:
    """All partitions of k with at most max_rows rows, reverse-lexicographic."""
    k = check_int(k, "k")
    return _enumerate_partitions(k, k if max_rows is None else check_int(max_rows, "max_rows"))


@cache
def _enumerate_partitions(k: int, rows_cap: int) -> tuple[Partition, ...]:
    out: list[Partition] = []

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        if len(prefix) == rows_cap:
            return
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(k, k, ())
    return tuple(out)


def _beta_numbers(lam: Partition) -> list[int]:
    """The beta-set of lam: l_i = lam_i + m - 1 - i for its m rows, strictly
    decreasing and all positive."""
    m = len(lam)
    return [row + m - 1 - i for i, row in enumerate(lam)]


def sk_dimension(lam: Sequence[int]) -> int:
    """Dimension of the irreducible S_k representation labelled by lam.

    Exact big-integer arithmetic; equals the number of standard tableaux.
    """
    return _sk_dimension(check_partition(lam))


@cache
def _sk_dimension(lam: Partition) -> int:
    """Frobenius formula dim = k! prod_{i<j} (l_i - l_j) / prod_i l_i! on the
    beta numbers l_i of ``_beta_numbers``, in exact integers."""
    ell = _beta_numbers(lam)
    gaps = math.prod(a - b for a, b in combinations(ell, 2))
    dim, rem = divmod(math.factorial(sum(lam)) * gaps, math.prod(map(math.factorial, ell)))
    assert rem == 0
    return dim


def log_sk_dimension(lam: Sequence[int]) -> float:
    """Natural log of sk_dimension, overflow-free for very large k.

    The Frobenius formula of ``_sk_dimension`` in logs, O(rows^2) whatever k.
    """
    lam = check_partition(lam)
    ell = _beta_numbers(lam)
    log_gaps = sum(math.log(a - b) for a, b in combinations(ell, 2))
    return math.lgamma(sum(lam) + 1) + log_gaps - sum(math.lgamma(l + 1) for l in ell)


def weyl_dimension(lam: Sequence[int], d: int) -> int:
    """Dimension of the GL(d) multiplicity space of lam under Schur-Weyl.

    Counts semistandard tableaux of shape lam with entries in 1..d; zero
    exactly when lam has more than d rows.
    """
    return _weyl_dimension(check_partition(lam), check_int(d, "d"))


@cache
def _weyl_dimension(lam: Partition, d: int) -> int:
    # hook-content formula, with prod(hooks) = k! / dim; the cell (d, 0) of a
    # lam with more than d rows makes the product 0
    num = math.prod(d + j - i for i, row in enumerate(lam) for j in range(row))
    dim, rem = divmod(num * _sk_dimension(lam), math.factorial(sum(lam)))
    assert rem == 0
    return dim


def normalize(lam: Sequence[int], length: int | None = None) -> np.ndarray:
    """Rows divided by k, zero-padded to the requested length."""
    lam = check_partition(lam)
    vec = np.zeros(len(lam) if length is None else check_int(length, "length", len(lam)))
    vec[: len(lam)] = np.asarray(lam, dtype=float) / sum(lam)
    return vec


def round_spectrum(r: Sequence[float], k: int) -> Partition:
    """Round a non-increasing probability vector to a partition of k.

    Largest-remainder apportionment of k*r; ties prefer the larger
    remainder, then the earlier row.  The result is re-sorted so it is a
    valid partition even if apportionment breaks monotonicity.

    k must be an integer (numpy integers are accepted, bools are not) in
    1..ROUND_K_MAX.  The floors leave a deficit between 0 and
    the number of rows exactly when the float products k*r_i sum to within
    1 of k, which holds while k (1e-12 + 2^-53) < 1: 1e-12 is the tolerance
    of the sum check, 2^-53 the rounding of each product.
    """
    k = check_int(k, "k", 1, ROUND_K_MAX)
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValidationError("spectrum must be a non-empty vector")
    if not np.isfinite(r).all():
        raise ValidationError("spectrum has NaN or infinite entries")
    if np.any(r < 0):
        raise ValidationError("spectrum entries must be non-negative")
    if np.any(np.diff(r) > 0):
        raise ValidationError("spectrum must be non-increasing")
    if abs(float(r.sum()) - 1.0) > 1e-12:
        raise ValidationError(f"spectrum must sum to 1, got {r.sum()!r}")
    target = r * k
    base = np.floor(target).astype(int)
    remainder = target - base
    deficit = k - int(base.sum())
    order = sorted(range(r.size), key=lambda i: (-remainder[i], i))
    for i in order[:deficit]:
        base[i] += 1
    rows = tuple(sorted((int(b) for b in base if b > 0), reverse=True))
    assert sum(rows) == k
    return rows


def _class_size(parts: Partition) -> int:
    """Number of permutations in S_k with cycle type ``parts`` (exact)."""
    k = sum(parts)
    centralizer = 1
    for j in set(parts):
        m = parts.count(j)
        centralizer *= j**m * math.factorial(m)
    size, rem = divmod(math.factorial(k), centralizer)
    assert rem == 0
    return size


@cache
def conjugacy_classes(k: int) -> tuple[CycleType, ...]:
    """One entry per cycle type of S_k with its exact class size."""
    return tuple(CycleType(t, _class_size(t)) for t in enumerate_partitions(k))


# ---------------------------------------------------------------------------
# standard tableaux

Tableau = tuple[tuple[int, ...], ...]


def standard_tableaux(lam: Sequence[int]) -> tuple[Tableau, ...]:
    """All standard tableaux of shape lam, sorted by their row word."""
    return _tableaux_and_contents(check_partition(lam))[0]


def _tableaux_and_contents(
    lam: Partition,
) -> tuple[tuple[Tableau, ...], tuple[tuple[int, ...], ...]]:
    """The standard tableaux of lam and their contents, by one depth-first
    search over row words (entry e sits in row word[e - 1]): entry e goes into
    each row that can take another cell, smallest row first, so the tableaux
    come out in increasing row word."""
    k = sum(lam)
    tableaux, contents = [], []
    rows: list[list[int]] = [[] for _ in lam]
    cont = [0]

    def rec(e: int) -> None:
        if e > k:
            tableaux.append(tuple(map(tuple, rows)))
            contents.append(tuple(cont))
            return
        for i, row in enumerate(rows):
            if len(row) < lam[i] and (i == 0 or len(rows[i - 1]) > len(row)):
                cont.append(len(row) - i)
                row.append(e)
                rec(e + 1)
                row.pop()
                cont.pop()

    rec(1)
    return tuple(tableaux), tuple(contents)


def _addable_contents(mu: Sequence[int]) -> tuple[int, ...]:
    """Contents col - row of the cells that can be added to the diagram mu.

    They differ pairwise by at least 2: one per row whose predecessor is
    longer, plus the first cell of a new row.
    """
    return tuple(
        row - i for i, row in enumerate(mu) if i == 0 or mu[i - 1] > row
    ) + (-len(mu),)


# ---------------------------------------------------------------------------
# permutations

def perm_compose(p: Permutation, q: Permutation) -> Permutation:
    """(p * q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inverse(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def perm_cycle_type(p: Permutation) -> Partition:
    k = len(p)
    seen = [False] * k
    lengths = []
    for start in range(k):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def all_permutations(k: int):
    """Iterate over S_k in lexicographic one-line order."""
    return _itertools_permutations(range(k))
