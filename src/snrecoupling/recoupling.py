"""Recoupling coefficients of S_k as explicit maps between coupling trees.

For six labels (alpha, beta, gamma, mu, nu, lam) the recoupling tensor maps
the multiplicity pair (i: alpha beta -> mu, j: mu gamma -> lam) of the
((alpha beta) gamma) tree to the pair (k: beta gamma -> nu, l: alpha nu -> lam)
of the (alpha (beta gamma)) tree.  Entries are normalized Hilbert-Schmidt
overlaps of the composite isometries [lam] -> [alpha] (x) [beta] (x) [gamma],
computed as one contraction of the four intertwiners around the tetrahedron
whose six edges are the labels, as SU(2) 6j-symbols are; assembled over all
(mu; nu) they form a unitary block matrix.

Individual entries depend on the intertwiner convention; the Hilbert-Schmidt
norm, the blockwise unitarity and the column-swap ratios do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .combinatorics import Partition, _sk_dimension, check_labels, enumerate_partitions
from .intertwiner import _check_class_count, _kronecker_coefficient, cg_isometries
from .tensorlinalg import hs_norm


@dataclass(frozen=True)
class RecouplingTensor:
    """One recoupling block: entries[k, l, i, j] plus its HS norm."""

    labels: tuple[Partition, Partition, Partition, Partition, Partition, Partition]
    entries: np.ndarray
    hs: float

    @property
    def block_shape(self) -> tuple[int, int, int, int]:
        return self.entries.shape

    def as_matrix(self) -> np.ndarray:
        gk, gl, gi, gj = self.entries.shape
        return self.entries.reshape(gk * gl, gi * gj)


def _stacked_maps(a, b, c) -> np.ndarray:
    """The intertwiners [c] -> [a] (x) [b] as one (g, dim a, dim b, dim c) array."""
    maps = cg_isometries(a, b, c)
    return maps.reshape(len(maps), *map(_sk_dimension, (a, b, c)))


def _triples(labels):
    """The (left, right, target) triples of the vertices k, l, i, j below."""
    alpha, beta, gamma, mu, nu, lam = labels
    return ((beta, gamma, nu), (alpha, nu, lam), (alpha, beta, mu), (mu, gamma, lam))


def recoupling_tensor(alpha, beta, gamma, mu, nu, lam) -> RecouplingTensor:
    """The recoupling block for one six-tuple of labels.

    Entry (k, l, i, j) is tr(right_kl^T left_ij) / dim[lam], the overlap of
    the two composite isometries, contracted around the tetrahedron:

        (1/dim lam) sum phi_i[a,b,m] phi_j[m,c,x] phi_k[b,c,n] phi_l[a,n,x]

    for the intertwiners i: alpha beta -> mu, j: mu gamma -> lam,
    k: beta gamma -> nu and l: alpha nu -> lam, each reshaped row-major
    (left factor slowest).  When any of the four multiplicities vanishes
    the tensor is empty with hs = 0 and is not memoized.  Non-empty blocks
    are, since scans revisit tuples through the swap relations: the memo
    holds at most one block per six-tuple with four non-zero Kronecker
    coefficients (23,003 of the 290,521 tuples with at most three rows at
    k = 6).  A k above ``intertwiner.CLASS_COUNT_CAP`` classes raises
    ResourceLimitError before any Kronecker coefficient is computed, here
    and in ``full_recoupling_unitary``.
    """
    labels = check_labels(alpha, beta, gamma, mu, nu, lam)
    _check_class_count(sum(labels[5]))
    shape = tuple(_kronecker_coefficient(*t) for t in _triples(labels))
    if 0 in shape:
        return RecouplingTensor(labels=labels, entries=np.zeros(shape), hs=0.0)
    return _build_tensor(labels)


@cache
def _build_tensor(labels) -> RecouplingTensor:
    phi_k, phi_l, phi_i, phi_j = (_stacked_maps(*t) for t in _triples(labels))
    # Fixed order: the (alpha beta) gamma composites (i, a, b, j, c, x), the
    # alpha (beta gamma) composites (k, b, c, l, a, x), then their overlap.
    left = np.tensordot(phi_i, phi_j, axes=(3, 1))
    right = np.tensordot(phi_k, phi_l, axes=(3, 2))
    entries = np.tensordot(right, left, axes=((4, 1, 2, 5), (1, 2, 4, 5)))
    entries /= _sk_dimension(labels[5])
    entries.setflags(write=False)
    return RecouplingTensor(labels=labels, entries=entries, hs=hs_norm(entries))


class RecouplingUnitary(NamedTuple):
    matrix: np.ndarray
    mu_order: tuple[Partition, ...]
    nu_order: tuple[Partition, ...]


def full_recoupling_unitary(alpha, beta, gamma, lam) -> RecouplingUnitary:
    """Assemble all (mu; nu) blocks into the square change-of-tree matrix.

    Row blocks run over nu, column blocks over mu, both in the fixed
    reverse-lexicographic partition order.
    """
    alpha, beta, gamma, lam = check_labels(alpha, beta, gamma, lam)
    _check_class_count(sum(lam))
    parts = enumerate_partitions(sum(lam))
    mus = tuple(
        m for m in parts
        if _kronecker_coefficient(alpha, beta, m) * _kronecker_coefficient(m, gamma, lam) > 0
    )
    nus = tuple(
        n for n in parts
        if _kronecker_coefficient(beta, gamma, n) * _kronecker_coefficient(alpha, n, lam) > 0
    )
    if not (mus or nus):
        return RecouplingUnitary(matrix=np.zeros((0, 0)), mu_order=(), nu_order=())
    matrix = np.block([
        [recoupling_tensor(alpha, beta, gamma, mu, nu, lam).as_matrix() for mu in mus]
        for nu in nus
    ])
    if matrix.shape[0] != matrix.shape[1]:
        raise AssertionError(f"recoupling blocks assemble to a {matrix.shape} matrix")
    return RecouplingUnitary(matrix=matrix, mu_order=mus, nu_order=nus)


class ColumnSwapResult(NamedTuple):
    lhs_hs: float
    rhs_hs: float
    predicted_ratio: float

    @property
    def residual(self) -> float:
        """Relative defect of lhs = ratio * rhs; norms below 1e-12 count as zero."""
        scale = max(self.lhs_hs, self.predicted_ratio * self.rhs_hs)
        if scale < 1e-12:
            return 0.0
        return abs(self.lhs_hs - self.predicted_ratio * self.rhs_hs) / scale


def _column_swap(labels, p: int, q: int) -> ColumnSwapResult:
    """HS norms before and after exchanging label p with mu and label q with nu,
    and the predicted ratio sqrt(dim mu * dim nu / (dim[p] * dim[q]))."""
    labels = check_labels(*labels)
    swapped = list(labels)
    swapped[p], swapped[3] = labels[3], labels[p]
    swapped[q], swapped[4] = labels[4], labels[q]
    dims = [_sk_dimension(labels[i]) for i in (3, 4, p, q)]
    return ColumnSwapResult(
        lhs_hs=recoupling_tensor(*labels).hs,
        rhs_hs=recoupling_tensor(*swapped).hs,
        predicted_ratio=math.sqrt(dims[0] * dims[1] / (dims[2] * dims[3])),
    )


def column_swap_check(alpha, beta, gamma, mu, nu, lam) -> ColumnSwapResult:
    """Swap of the (beta, lam) and (mu, nu) columns.

    Returns the two HS norms and sqrt(dim mu * dim nu / (dim beta * dim lam));
    the first norm equals the product of the other two numbers.
    """
    return _column_swap((alpha, beta, gamma, mu, nu, lam), 1, 5)


def column_swap_check_ag(alpha, beta, gamma, mu, nu, lam) -> ColumnSwapResult:
    """Swap of the (alpha, gamma) and (mu, nu) columns."""
    return _column_swap((alpha, beta, gamma, mu, nu, lam), 0, 2)
