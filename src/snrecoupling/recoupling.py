"""Recoupling coefficients of S_k as explicit maps between coupling trees.

For six labels (alpha, beta, gamma, mu, nu, lam) the recoupling tensor maps
the multiplicity pair (i: alpha beta -> mu, j: mu gamma -> lam) of the
((alpha beta) gamma) tree to the pair (k: beta gamma -> nu, l: alpha nu -> lam)
of the (alpha (beta gamma)) tree.  Entries are normalized Hilbert-Schmidt
overlaps of the composite isometries [lam] -> [alpha] (x) [beta] (x) [gamma],
computed as one contraction of the four intertwiners around the tetrahedron
whose six edges are the labels, as SU(2) 6j-symbols are; assembled over all
(mu; nu) they form a unitary block matrix.  ``VERTICES`` is the one table of
that tetrahedron.  W = hs / sqrt(dim mu dim nu) is invariant under its 24
vertex permutations (Wigner's tetrahedral symmetry of the 6j-symbol), and
the two column swaps are the transpositions (j k) and (j l).

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


# the vertices i, j, k, l of recoupling_tensor: (left, right, target) label indices
VERTICES = ((0, 1, 3), (3, 2, 5), (1, 2, 4), (0, 4, 5))


def _triples(labels):
    """The (left, right, target) labels of the vertices i, j, k, l."""
    return tuple([(labels[a], labels[b], labels[c]) for a, b, c in VERTICES])


@cache
def _label_permutation(vertices: tuple[int, ...]) -> tuple[int, ...]:
    """The labels' image under the vertex permutation v -> vertices[v], as the label
    index each slot reads: slot x reads the edge that it takes edge x to."""
    edges = [{v for v, vertex in enumerate(VERTICES) if x in vertex} for x in range(6)]
    return tuple(edges.index({vertices[v] for v in edge}) for edge in edges)


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
    i, j, k, l = _triples(labels)
    shape = gk, gl, gi, gj = tuple(_kronecker_coefficient(*t) for t in (k, l, i, j))
    if 0 in shape:
        return RecouplingTensor(labels=labels, entries=np.zeros(shape), hs=0.0)
    _check_composite_floats(labels, gi * gj + gk * gl)
    _check_products(k, l, i, j)
    return _build_tensor(labels, shape)


def _check_composite_floats(labels, rows: int) -> None:
    """Refuse `rows` composites of dim[alpha] dim[beta] dim[gamma] floats above the cap."""
    check_cap(f"floats of the recoupling composites of {labels}",
              rows * math.prod(map(_sk_dimension, labels[:3])), COMPOSITE_FLOAT_CAP)


@cache
def _build_tensor(labels, shape) -> RecouplingTensor:
    i, j, k, l = _triples(labels)
    entries = (_right(k, l) @ _left(i, j).T).reshape(shape)
    hs = hs_norm(entries)
    if hs <= HS_ZERO:
        entries, hs = np.zeros(shape), 0.0
    entries.setflags(write=False)
    return RecouplingTensor(labels=labels, entries=entries, hs=hs)


def _left(i, j) -> np.ndarray:
    """The ((alpha beta) gamma) composites at x0 of the vertex triples i, j: row
    (i, j) holds sum_m phi_i[a,b,m] phi_j[m,c,x0] over (a, b, c), row-major."""
    phi_i, phi_j = _solve_cg(*i), _solve_cg(*j)  # (g, dim left * dim right, dim target)
    gi, gj, m = len(phi_i), len(phi_j), phi_i.shape[2]
    left = np.matmul(phi_i[:, None], phi_j[..., 0].reshape(1, gj, m, -1))
    return left.reshape(gi * gj, -1)


def _right(k, l) -> np.ndarray:
    """The (alpha (beta gamma)) composites at x0 of the vertex triples k, l: row
    (k, l) holds sum_n phi_k[b,c,n] phi_l[a,n,x0] over (a, b, c), row-major."""
    phi_k, phi_l = _solve_cg(*k), _solve_cg(*l)
    gk, gl, n = len(phi_k), len(phi_l), phi_k.shape[2]
    right = np.matmul(phi_l[..., 0].reshape(1, gl, -1, n), phi_k[:, None].swapaxes(2, 3))
    return right.reshape(gk * gl, -1)


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
    # each middle label m as both mu and nu: the left tree reads it as mu, the right as nu
    trees = {m: _triples((alpha, beta, gamma, m, m, lam)) for m in enumerate_partitions(sum(lam))}
    left_rows = {m: gi * gj for m, (i, j, _, _) in trees.items()
                 if (gi := _kronecker_coefficient(*i)) and (gj := _kronecker_coefficient(*j))}
    right_rows = {n: gk * gl for n, (_, _, k, l) in trees.items()
                  if (gk := _kronecker_coefficient(*k)) and (gl := _kronecker_coefficient(*l))}
    height, size = sum(right_rows.values()), sum(left_rows.values())
    if height != size:
        raise AssertionError(f"recoupling blocks assemble to a {(height, size)} matrix")
    if not size:
        return RecouplingUnitary(matrix=np.zeros((0, 0)), mu_order=(), nu_order=())
    _check_composite_floats((alpha, beta, gamma, lam), size + max(right_rows.values()))
    _check_products(*(t for m in left_rows for t in trees[m][:2]),
                    *(t for n in right_rows for t in trees[n][2:]))
    left = np.empty((size, math.prod(map(_sk_dimension, (alpha, beta, gamma)))))
    row = 0
    for mu, rows in left_rows.items():
        left[row:row + rows] = _left(*trees[mu][:2])
        row += rows
    matrix = np.concatenate([_right(*trees[nu][2:]) @ left.T for nu in right_rows])
    return RecouplingUnitary(matrix=matrix, mu_order=tuple(left_rows), nu_order=tuple(right_rows))


class ColumnSwapResult(NamedTuple):
    lhs_hs: float
    rhs_hs: float
    predicted_ratio: float

    @property
    def residual(self) -> float:
        """Relative defect of lhs = ratio * rhs; 0.0 when both blocks are zero."""
        scale = max(self.lhs_hs, self.predicted_ratio * self.rhs_hs)
        return abs(self.lhs_hs - self.predicted_ratio * self.rhs_hs) / scale if scale else 0.0


def _column_swap(labels, vertices: tuple[int, ...]) -> ColumnSwapResult:
    """HS norms of checked labels and of their image under the vertex permutation
    v -> vertices[v], and the ratio of the two that the invariance of
    W = hs / sqrt(dim mu dim nu) predicts: sqrt(dim mu dim nu / (dim mu' dim nu'))."""
    image = tuple([labels[x] for x in _label_permutation(vertices)])
    dims = [_sk_dimension(l) for l in (labels[3], labels[4], image[3], image[4])]
    return ColumnSwapResult(
        lhs_hs=_recoupling_tensor(labels).hs,
        rhs_hs=_recoupling_tensor(image).hs,
        predicted_ratio=math.sqrt(dims[0] * dims[1] / (dims[2] * dims[3])),
    )


def column_swap_check(alpha, beta, gamma, mu, nu, lam) -> ColumnSwapResult:
    """Swap of the (beta, lam) and (mu, nu) columns: the vertex transposition (j k).

    Returns the two HS norms and sqrt(dim mu * dim nu / (dim beta * dim lam));
    the first norm equals the product of the other two numbers.
    """
    return _column_swap(check_labels(alpha, beta, gamma, mu, nu, lam), (0, 2, 1, 3))


def column_swap_check_ag(alpha, beta, gamma, mu, nu, lam) -> ColumnSwapResult:
    """Swap of the (alpha, gamma) and (mu, nu) columns: the vertex transposition (j l)."""
    return _column_swap(check_labels(alpha, beta, gamma, mu, nu, lam), (0, 3, 2, 1))
