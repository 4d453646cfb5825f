"""Recoupling coefficients of S_k as explicit maps between coupling trees.

For six labels (alpha, beta, gamma, mu, nu, lam) the recoupling tensor maps
the multiplicity pair (i: alpha beta -> mu, j: mu gamma -> lam) of the
((alpha beta) gamma) tree to the pair (k: beta gamma -> nu, l: alpha nu -> lam)
of the (alpha (beta gamma)) tree.  Entries are normalized Hilbert-Schmidt
overlaps of the composite isometries [lam] -> [alpha] (x) [beta] (x) [gamma];
assembled over all (mu; nu) they form a unitary block matrix.

Individual entries depend on the intertwiner convention; the Hilbert-Schmidt
norm, the blockwise unitarity and the column-swap ratios do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .combinatorics import Partition, check_partition, enumerate_partitions, sk_dimension
from .errors import ValidationError
from .intertwiner import cg_isometries, kronecker_coefficient
from .tensorlinalg import hs_norm, kron


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


def _check_labels(alpha, beta, gamma, mu, nu, lam):
    labels = tuple(map(check_partition, (alpha, beta, gamma, mu, nu, lam)))
    ks = {sum(p) for p in labels}
    if len(ks) != 1:
        raise ValidationError(f"labels {labels} do not share one k")
    return labels


def _composite_left(alpha, beta, gamma, mu, lam) -> list[np.ndarray]:
    """Isometries [lam] -> [alpha][beta][gamma] through mu, all (i, j) pairs."""
    inner = cg_isometries(alpha, beta, mu)
    outer = cg_isometries(mu, gamma, lam)
    dg = sk_dimension(gamma)
    eye_g = np.eye(dg)
    return [kron(phi_i, eye_g) @ phi_j for phi_i in inner.maps for phi_j in outer.maps]


def _composite_right(alpha, beta, gamma, nu, lam) -> list[np.ndarray]:
    """Isometries [lam] -> [alpha][beta][gamma] through nu, all (k, l) pairs."""
    inner = cg_isometries(beta, gamma, nu)
    outer = cg_isometries(alpha, nu, lam)
    da = sk_dimension(alpha)
    eye_a = np.eye(da)
    return [kron(eye_a, phi_k) @ phi_l for phi_k in inner.maps for phi_l in outer.maps]


def recoupling_tensor(alpha, beta, gamma, mu, nu, lam) -> RecouplingTensor:
    """The recoupling block for one six-tuple of labels.

    Entry (kl, ij) is tr(right_kl^T left_ij) / dim[lam].  When any of the
    four multiplicities vanishes the tensor is empty with hs = 0.
    Results are memoized; scans revisit tuples through the swap relations.
    """
    return _build_tensor(_check_labels(alpha, beta, gamma, mu, nu, lam))


@cache
def _build_tensor(labels) -> RecouplingTensor:
    alpha, beta, gamma, mu, nu, lam = labels
    g_in_i = kronecker_coefficient(alpha, beta, mu)
    g_in_j = kronecker_coefficient(mu, gamma, lam)
    g_out_k = kronecker_coefficient(beta, gamma, nu)
    g_out_l = kronecker_coefficient(alpha, nu, lam)
    shape = (g_out_k, g_out_l, g_in_i, g_in_j)
    if 0 in shape:
        return RecouplingTensor(labels=labels, entries=np.zeros(shape), hs=0.0)

    dl = sk_dimension(lam)
    left = _composite_left(alpha, beta, gamma, mu, lam)
    right = _composite_right(alpha, beta, gamma, nu, lam)
    entries = np.empty(shape)
    for kl, t_right in enumerate(right):
        k_idx, l_idx = divmod(kl, g_out_l)
        for ij, t_left in enumerate(left):
            i_idx, j_idx = divmod(ij, g_in_j)
            entries[k_idx, l_idx, i_idx, j_idx] = np.sum(t_right * t_left) / dl
    entries.setflags(write=False)
    return RecouplingTensor(labels=labels, entries=entries, hs=hs_norm(entries))


def multiplicity_dimension(alpha, beta, gamma, lam, through: str) -> int:
    """Total multiplicity of [lam] in the triple product, summed one way."""
    k = sum(check_partition(lam))
    total = 0
    for middle in enumerate_partitions(k):
        if through == "mu":
            total += kronecker_coefficient(alpha, beta, middle) * kronecker_coefficient(
                middle, gamma, lam
            )
        elif through == "nu":
            total += kronecker_coefficient(beta, gamma, middle) * kronecker_coefficient(
                alpha, middle, lam
            )
        else:
            raise ValidationError("through must be 'mu' or 'nu'")
    return total


class RecouplingUnitary(NamedTuple):
    matrix: np.ndarray
    mu_order: tuple[Partition, ...]
    nu_order: tuple[Partition, ...]


def full_recoupling_unitary(alpha, beta, gamma, lam) -> RecouplingUnitary:
    """Assemble all (mu; nu) blocks into the square change-of-tree matrix.

    Row blocks run over nu, column blocks over mu, both in the fixed
    reverse-lexicographic partition order.
    """
    alpha, beta, gamma, lam = map(check_partition, (alpha, beta, gamma, lam))
    k = sum(lam)
    dim_mu = multiplicity_dimension(alpha, beta, gamma, lam, "mu")
    dim_nu = multiplicity_dimension(alpha, beta, gamma, lam, "nu")
    if dim_mu != dim_nu:
        raise AssertionError(
            f"multiplicity bookkeeping broken: {dim_mu} != {dim_nu}"
        )
    mus = tuple(
        m for m in enumerate_partitions(k)
        if kronecker_coefficient(alpha, beta, m) * kronecker_coefficient(m, gamma, lam) > 0
    )
    nus = tuple(
        n for n in enumerate_partitions(k)
        if kronecker_coefficient(beta, gamma, n) * kronecker_coefficient(alpha, n, lam) > 0
    )
    matrix = np.zeros((dim_nu, dim_mu))
    col = 0
    for mu in mus:
        row = 0
        width = None
        for nu in nus:
            block = recoupling_tensor(alpha, beta, gamma, mu, nu, lam).as_matrix()
            height, width = block.shape
            matrix[row: row + height, col: col + width] = block
            row += height
        col += width if width is not None else 0
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


def column_swap_check(alpha, beta, gamma, mu, nu, lam) -> ColumnSwapResult:
    """Swap of the (beta, lam) and (mu, nu) columns.

    Returns the two HS norms and sqrt(dim mu * dim nu / (dim beta * dim lam));
    the first norm equals the product of the other two numbers.
    """
    labels = _check_labels(alpha, beta, gamma, mu, nu, lam)
    alpha, beta, gamma, mu, nu, lam = labels
    lhs = recoupling_tensor(alpha, beta, gamma, mu, nu, lam).hs
    rhs = recoupling_tensor(alpha, mu, gamma, beta, lam, nu).hs
    ratio = math.sqrt(
        sk_dimension(mu) * sk_dimension(nu) / (sk_dimension(beta) * sk_dimension(lam))
    )
    return ColumnSwapResult(lhs_hs=lhs, rhs_hs=rhs, predicted_ratio=ratio)


def column_swap_check_ag(alpha, beta, gamma, mu, nu, lam) -> ColumnSwapResult:
    """Swap of the (alpha, gamma) and (mu, nu) columns."""
    labels = _check_labels(alpha, beta, gamma, mu, nu, lam)
    alpha, beta, gamma, mu, nu, lam = labels
    lhs = recoupling_tensor(alpha, beta, gamma, mu, nu, lam).hs
    rhs = recoupling_tensor(mu, beta, nu, alpha, gamma, lam).hs
    ratio = math.sqrt(
        sk_dimension(mu) * sk_dimension(nu) / (sk_dimension(alpha) * sk_dimension(gamma))
    )
    return ColumnSwapResult(lhs_hs=lhs, rhs_hs=rhs, predicted_ratio=ratio)
