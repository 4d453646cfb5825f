"""Recoupling coefficients of S_k as explicit maps between coupling trees.

For six labels (alpha, beta, gamma, mu, nu, lam) the recoupling tensor maps
the multiplicity pair (i: alpha beta -> mu, j: mu gamma -> lam) of the
((alpha beta) gamma) tree to the pair (k: beta gamma -> nu, l: alpha nu -> lam)
of the (alpha (beta gamma)) tree.  Entries are normalized Hilbert-Schmidt
overlaps of the composite isometries [lam] -> [alpha] (x) [beta] (x) [gamma],
computed as one contraction of the four intertwiners around the tetrahedron
whose six edges are the labels, as SU(2) 6j-symbols are; assembled over all
(mu; nu) they form a unitary block matrix.

Both composites intertwine the irreducible [lam], so by Schur's lemma their
overlap right_kl^T left_ij is a scalar times the identity of [lam].  The
contraction therefore reads it at one basis vector x0 of [lam], the first
standard tableau, instead of tracing the lam edge and dividing by dim[lam]:
every intermediate is dim[lam] times smaller.

The whole recoupling matrix of (alpha, beta, gamma; lam) is the overlap of
two orthonormal bases of one multiplicity space, the composites of the two
trees.  ``full_recoupling_unitary`` builds each tree's composites once, for
all mu and all nu, instead of once per block; a single block builds those of
its own (mu; nu).  Both read the same two composite builders.

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
from .errors import check_cap
from .intertwiner import _check_products, _kronecker_coefficient, _solve_cg
from .tensorlinalg import hs_norm

# floats of the composites one block or one unitary holds at once, 2 GiB
COMPOSITE_FLOAT_CAP = 2**28
# a block with hs at or below HS_ZERO is zero: the float contraction leaves
# roundoff of up to a few 1e-16 on exactly-zero blocks.  Read by the consumers
# of this module's blocks (the CLI recoupling and scan-recoupling commands, the
# converse probe, the column swaps); the overlap certificate decides zeros by
# an exact integer instead (schurweyl._recoupling_character_sum)
HS_ZERO = 1e-12


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
    maps = _solve_cg(a, b, c)
    return maps.reshape(len(maps), *map(_sk_dimension, (a, b, c)))


def _triples(labels):
    """The (left, right, target) triples of the vertices k, l, i, j below."""
    alpha, beta, gamma, mu, nu, lam = labels
    return ((beta, gamma, nu), (alpha, nu, lam), (alpha, beta, mu), (mu, gamma, lam))


def recoupling_tensor(alpha, beta, gamma, mu, nu, lam) -> RecouplingTensor:
    """The recoupling block for one six-tuple of labels.

    Entry (k, l, i, j) is tr(right_kl^T left_ij) / dim[lam], the overlap of
    the two composite isometries.  Both intertwine the irreducible [lam], so
    right_kl^T left_ij is that overlap times the identity (Schur's lemma),
    and the entry is its diagonal element at x0, the first standard tableau
    of [lam], contracted around the tetrahedron with no division:

        sum phi_i[a,b,m] phi_j[m,c,x0] phi_k[b,c,n] phi_l[a,n,x0]

    for the intertwiners i: alpha beta -> mu, j: mu gamma -> lam,
    k: beta gamma -> nu and l: alpha nu -> lam, each reshaped row-major
    (left factor slowest).  When any of the four multiplicities vanishes
    the tensor is empty with hs = 0 and is not memoized; a block with
    hs <= ``HS_ZERO`` is zero, with exact zero entries.  Non-empty blocks
    are, since scans revisit tuples through the swap relations: the memo
    holds at most one block per six-tuple with four non-zero Kronecker
    coefficients (23,003 of the 290,521 tuples with at most three rows at
    k = 6).  A k above ``combinatorics.K_MAX`` raises ResourceLimitError
    before any Kronecker coefficient is computed, here and in
    ``full_recoupling_unitary``.  After them and before any solve, so does
    a block above ``COMPOSITE_FLOAT_CAP`` (read at each call) on the
    (g_i g_j + g_k g_l) dim[alpha] dim[beta] dim[gamma] floats of its two
    composites, or above ``intertwiner.DEFAULT_PRODUCT_CAP`` at one vertex.
    """
    return _recoupling_tensor(check_labels(alpha, beta, gamma, mu, nu, lam))


def _recoupling_tensor(labels) -> RecouplingTensor:
    """``recoupling_tensor`` of six checked labels."""
    triples = _triples(labels)
    shape = gk, gl, gi, gj = tuple(_kronecker_coefficient(*t) for t in triples)
    if 0 in shape:
        return RecouplingTensor(labels=labels, entries=np.zeros(shape), hs=0.0)
    _check_composite_floats(labels, gi * gj + gk * gl)
    _check_products(*triples)
    return _build_tensor(labels, shape)


def _check_composite_floats(labels, rows: int) -> None:
    """Refuse `rows` composites of dim[alpha] dim[beta] dim[gamma] floats above the cap."""
    check_cap(f"floats of the recoupling composites of {labels}",
              rows * math.prod(map(_sk_dimension, labels[:3])), COMPOSITE_FLOAT_CAP)


@cache
def _build_tensor(labels, shape) -> RecouplingTensor:
    alpha, beta, gamma, mu, nu, lam = labels
    right = _right(alpha, beta, gamma, nu, lam)
    entries = (right @ _left(alpha, beta, gamma, mu, lam).T).reshape(shape)
    hs = hs_norm(entries)
    if hs <= HS_ZERO:
        entries, hs = np.zeros(shape), 0.0
    entries.setflags(write=False)
    return RecouplingTensor(labels=labels, entries=entries, hs=hs)


def _left(alpha, beta, gamma, mu, lam) -> np.ndarray:
    """The ((alpha beta) gamma) composites at x0: row (i, j) holds
    sum_m phi_i[a,b,m] phi_j[m,c,x0] over (a, b, c), row-major."""
    phi_i, phi_j = _stacked_maps(alpha, beta, mu), _stacked_maps(mu, gamma, lam)
    gi, a, b, m = phi_i.shape
    left = np.matmul(phi_i.reshape(gi, 1, a * b, m), phi_j[None, ..., 0])
    return left.reshape(gi * len(phi_j), -1)


def _right(alpha, beta, gamma, nu, lam) -> np.ndarray:
    """The (alpha (beta gamma)) composites at x0: row (k, l) holds
    sum_n phi_k[b,c,n] phi_l[a,n,x0] over (a, b, c), row-major."""
    phi_k, phi_l = _stacked_maps(beta, gamma, nu), _stacked_maps(alpha, nu, lam)
    gk, b, c, n = phi_k.shape
    right = np.matmul(phi_l[None, ..., 0], phi_k.reshape(gk, 1, b * c, n).swapaxes(2, 3))
    return right.reshape(gk * len(phi_l), -1)


def _tree_rows(first, second) -> int:
    """g(first) g(second): the composites of one coupling tree at one middle label."""
    g = _kronecker_coefficient(*first)
    return g and g * _kronecker_coefficient(*second)


class RecouplingUnitary(NamedTuple):
    matrix: np.ndarray
    mu_order: tuple[Partition, ...]
    nu_order: tuple[Partition, ...]


def full_recoupling_unitary(alpha, beta, gamma, lam) -> RecouplingUnitary:
    """Assemble all (mu; nu) blocks into the square change-of-tree matrix.

    Row blocks run over nu, column blocks over mu, both in the fixed
    reverse-lexicographic partition order.  The matrix is one overlap of
    stacked composites: the ((alpha beta) gamma) composites of every mu are
    built once into one (M, dim[alpha] dim[beta] dim[gamma]) array, M the
    multiplicity of [lam] in [alpha] (x) [beta] (x) [gamma], and each nu row
    block is the overlap of that nu's (alpha (beta gamma)) composites with
    it, so one right composite is alive at a time.  Each block equals
    ``recoupling_tensor(alpha, beta, gamma, mu, nu, lam).as_matrix()``, but
    the block memo is not filled.  ``COMPOSITE_FLOAT_CAP`` bounds the
    (M + max_nu g_k g_l) dim[alpha] dim[beta] dim[gamma] floats of the
    composites and ``intertwiner.DEFAULT_PRODUCT_CAP`` every vertex, both
    checked after the Kronecker coefficients and before any solve.
    """
    alpha, beta, gamma, lam = check_labels(alpha, beta, gamma, lam)
    parts = enumerate_partitions(sum(lam))
    left_rows = {m: g for m in parts if (g := _tree_rows((alpha, beta, m), (m, gamma, lam)))}
    right_rows = {n: g for n in parts if (g := _tree_rows((beta, gamma, n), (alpha, n, lam)))}
    height, size = sum(right_rows.values()), sum(left_rows.values())
    if height != size:
        raise AssertionError(f"recoupling blocks assemble to a {(height, size)} matrix")
    if not size:
        return RecouplingUnitary(matrix=np.zeros((0, 0)), mu_order=(), nu_order=())
    _check_composite_floats((alpha, beta, gamma, lam), size + max(right_rows.values()))
    _check_products(*(t for m in left_rows for t in ((alpha, beta, m), (m, gamma, lam))),
                    *(t for n in right_rows for t in ((beta, gamma, n), (alpha, n, lam))))
    left = np.empty((size, math.prod(map(_sk_dimension, (alpha, beta, gamma)))))
    row = 0
    for mu, rows in left_rows.items():
        left[row:row + rows] = _left(alpha, beta, gamma, mu, lam)
        row += rows
    matrix = np.concatenate([_right(alpha, beta, gamma, nu, lam) @ left.T for nu in right_rows])
    return RecouplingUnitary(matrix=matrix, mu_order=tuple(left_rows), nu_order=tuple(right_rows))


class ColumnSwapResult(NamedTuple):
    lhs_hs: float
    rhs_hs: float
    predicted_ratio: float

    @property
    def residual(self) -> float:
        """Relative defect of lhs = ratio * rhs; 0.0 when both blocks are zero."""
        scale = max(self.lhs_hs, self.predicted_ratio * self.rhs_hs)
        if not scale:
            return 0.0
        return abs(self.lhs_hs - self.predicted_ratio * self.rhs_hs) / scale


def _column_swap(labels, p: int, q: int) -> ColumnSwapResult:
    """HS norms of checked labels before and after exchanging label p with mu and
    label q with nu, and the predicted ratio sqrt(dim mu * dim nu / (dim[p] * dim[q]))."""
    swapped = list(labels)
    swapped[p], swapped[3] = labels[3], labels[p]
    swapped[q], swapped[4] = labels[4], labels[q]
    dims = [_sk_dimension(labels[i]) for i in (3, 4, p, q)]
    return ColumnSwapResult(
        lhs_hs=_recoupling_tensor(labels).hs,
        rhs_hs=_recoupling_tensor(tuple(swapped)).hs,
        predicted_ratio=math.sqrt(dims[0] * dims[1] / (dims[2] * dims[3])),
    )


def column_swap_check(alpha, beta, gamma, mu, nu, lam) -> ColumnSwapResult:
    """Swap of the (beta, lam) and (mu, nu) columns.

    Returns the two HS norms and sqrt(dim mu * dim nu / (dim beta * dim lam));
    the first norm equals the product of the other two numbers.
    """
    return _column_swap(check_labels(alpha, beta, gamma, mu, nu, lam), 1, 5)


def column_swap_check_ag(alpha, beta, gamma, mu, nu, lam) -> ColumnSwapResult:
    """Swap of the (alpha, gamma) and (mu, nu) columns."""
    return _column_swap(check_labels(alpha, beta, gamma, mu, nu, lam), 0, 2)
