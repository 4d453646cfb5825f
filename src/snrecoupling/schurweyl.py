"""Concrete tensor-power realization: permutation actions, isotypic projectors,
cycle-type projected traces and the tripartite projector route to recoupling
norms.

Index convention (global): a vector on (C^{abc})^(x k) is indexed by per-copy
digit groups, copy slowest, subsystems ordered A, B, C inside each copy.
Projectors on subsystem groups (e.g. the AB pairs of every copy) are built by
permuting exactly the digits of those subsystems across copies.

Every dense projector comes from ball_sum_projector, a class-function sum of
such permutations, uncached.  tripartite_projectors multiplies these sums into
P~ and Q~; it is the one product chain, shared by the overlap certificate,
the converse probe, hs_norm_via_schurweyl and the ``overlap`` CLI command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .combinatorics import (
    Partition,
    Permutation,
    all_permutations,
    check_partition,
    conjugacy_classes,
    perm_cycle_type,
    perm_inverse,
    sk_dimension,
    weyl_dimension,
)
from .errors import ResourceLimitError, ValidationError
from .quantumstates import DensityMatrix
from .repsym import character
from .tensorlinalg import hermitian_eigensystem, hs_norm, op_norm

DENSE_CAP = 4096
IMPLICIT_CAP = 1_000_000


def apply_permutation(perm: Permutation, vec: np.ndarray, d: int, k: int) -> np.ndarray:
    """Permute the k tensor factors of a vector of length d**k, matrix-free."""
    vec = np.asarray(vec)
    if vec.size != d**k:
        raise ValidationError(f"vector length {vec.size} != {d}**{k}")
    if sorted(perm) != list(range(k)):
        raise ValidationError(f"not a permutation of 0..{k - 1}: {perm}")
    inv = perm_inverse(perm)
    return vec.reshape((d,) * k).transpose(inv).reshape(-1)


def permutation_index_map(
    perm: Permutation, dims: Sequence[int], k: int, active: Sequence[bool]
) -> np.ndarray:
    """Index map y of the copy permutation acting on the active subsystems.

    The unitary U(perm) maps basis state x to basis state y[x]; inactive
    subsystem digits stay with their copy.  With one tensor axis per digit
    (copy slowest, then the subsystem order of `dims`) the map is a
    transpose of the index array.
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    axes = [(perm[t] if active[s] else t) * n + s for t in range(k) for s in range(n)]
    total = math.prod(dims) ** k
    return np.arange(total).reshape(dims * k).transpose(axes).reshape(-1)


@dataclass(frozen=True)
class IsotypicProjector:
    """Projector onto the lam-isotypic component of (C^d)^(x k).

    Dense matrix when d**k <= DENSE_CAP, otherwise apply-to-vector only.
    """

    lam: Partition
    d: int
    k: int
    matrix: np.ndarray | None

    def apply(self, vec: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix @ vec
        if self.d**self.k > IMPLICIT_CAP:
            raise ResourceLimitError(
                f"implicit projector refused above d^k = {IMPLICIT_CAP}"
            )
        dim = sk_dimension(self.lam)
        out = np.zeros_like(np.asarray(vec, dtype=float if not np.iscomplexobj(vec) else complex))
        for perm in all_permutations(self.k):
            chi = character(self.lam, perm_cycle_type(perm))
            if chi:
                out = out + chi * apply_permutation(perm, vec, self.d, self.k)
        return dim / math.factorial(self.k) * out


def isotypic_projector(lam, d: int, k: int) -> IsotypicProjector:
    """Group-average projector (dim/k!) sum_pi chi(pi) U(pi)."""
    lam = check_partition(lam)
    if sum(lam) != k:
        raise ValidationError(f"{lam} is not a partition of {k}")
    if d**k > DENSE_CAP:
        if d**k > IMPLICIT_CAP:
            raise ResourceLimitError(f"d^k = {d**k} above implicit cap {IMPLICIT_CAP}")
        return IsotypicProjector(lam=lam, d=d, k=k, matrix=None)
    return IsotypicProjector(lam=lam, d=d, k=k, matrix=ball_sum_projector([lam], (d,), k, "A"))


def projected_trace(lam, rho: DensityMatrix | np.ndarray, k: int) -> float:
    """tr(P_lam rho^(x k)) via cycle types: one term per partition of k.

    Needs only the power traces tr(rho^j), so it scales to k ~ 30 where no
    projector could ever be materialized.
    """
    lam = check_partition(lam)
    if sum(lam) != k:
        raise ValidationError(f"{lam} is not a partition of {k}")
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    vals, _ = hermitian_eigensystem(mat)
    power_traces = [float(np.sum(vals**j)) for j in range(k + 1)]
    total = 0.0
    for t, size in conjugacy_classes(k):
        chi = character(lam, t)
        if chi:
            prod = 1.0
            for part in t:
                prod *= power_traces[part]
            total += size * chi * prod
    return sk_dimension(lam) / math.factorial(k) * total


# ---------------------------------------------------------------------------
# tripartite projectors

def ball_sum_projector(
    labels: Sequence[Partition], dims: Sequence[int], k: int, group: str
) -> np.ndarray:
    """Sum of the isotypic projectors of several labels on one subsystem group.

    The subsystems of `dims` are named A, B, C in order and `group` names the
    active ones: "AB" acts on the AB pairs of every copy and as identity on
    the C digits.  The per-cycle-type coefficients are summed over the labels
    first, so the result is a single dense matrix however many labels the
    ball contains.
    """
    dims = tuple(int(d) for d in dims)
    names = "ABC"[: len(dims)]
    if not group or not set(group) <= set(names):
        raise ValidationError(f"group {group!r} is not a set of the subsystems {names}")
    active = [name in group for name in names]
    total = math.prod(dims) ** k
    if total > DENSE_CAP:
        raise ResourceLimitError(f"dense ball projector dimension {total} above {DENSE_CAP}")
    labels = [check_partition(l) for l in labels]
    coeff = {
        t: sum(sk_dimension(l) * character(l, t) for l in labels) / math.factorial(k)
        for t, _ in conjugacy_classes(k)
    }
    mat = np.zeros((total, total))
    cols = np.arange(total)
    for perm in all_permutations(k):
        c = coeff[perm_cycle_type(perm)]
        if c:
            # each index map is a bijection, so no (row, col) pair repeats
            mat[permutation_index_map(perm, dims, k, active), cols] += c
    return mat


class TripartiteProjectors(NamedTuple):
    p_tilde: np.ndarray
    q_tilde: np.ndarray


def tripartite_projectors(
    alphas, betas, gammas, mus, nus, lams, dims: tuple[int, int, int], k: int
) -> TripartiteProjectors:
    """P~ and Q~ for balls of labels, as dense operators on (C^{abc})^(x k).

    Each argument is a collection of labels (a one-element list for a single
    tuple), summed by ball_sum_projector into S_alpha, ..., S_lam:

        Q~ = (S_alpha S_beta S_gamma) S_mu S_gamma S_lam,
        P~ = (S_alpha S_beta S_gamma) (S_alpha S_nu) S_lam.

    Every S is built just before its first use and dropped after its last,
    so at most five dense matrices are alive at once.
    """
    def ball(labels, group):
        return ball_sum_projector(labels, dims, k, group)

    s_a = ball(alphas, "A")
    s_c = ball(gammas, "C")
    abc = (s_a @ ball(betas, "B")) @ s_c
    p_tilde = abc @ (s_a @ ball(nus, "BC"))
    del s_a
    q_tilde = (abc @ ball(mus, "AB")) @ s_c
    del abc, s_c
    s_l = ball(lams, "ABC")
    p_tilde = p_tilde @ s_l
    q_tilde = q_tilde @ s_l
    return TripartiteProjectors(p_tilde=p_tilde, q_tilde=q_tilde)


class SchurWeylNorm(NamedTuple):
    hs: float
    op: float


def hs_norm_via_schurweyl(
    alpha, beta, gamma, mu, nu, lam, dims: tuple[int, int, int], k: int
) -> SchurWeylNorm:
    """Independent route to the recoupling HS norm through P~ Q~.

    The product P~ Q~ equals an identity of dimension
    dim[lam] * dim V^a_alpha * dim V^b_beta * dim V^c_gamma tensored with the
    recoupling block, so dividing its HS norm by the square root of that
    dimension recovers the block's norm.  Also returns op_norm(P~ Q~) for
    the norm sandwich.
    """
    labels = tuple(map(check_partition, (alpha, beta, gamma, mu, nu, lam)))
    alpha, beta, gamma, mu, nu, lam = labels
    a, b, c = dims
    if len(alpha) > a or len(beta) > b or len(gamma) > c or len(lam) > a * b * c:
        raise ValidationError(
            "row counts must fit the local dimensions for the dense route"
        )
    p_tilde, q_tilde = tripartite_projectors(*([l] for l in labels), dims, k)
    pq = p_tilde @ q_tilde
    raw_hs = hs_norm(pq)
    raw_op = op_norm(pq)
    factor = (
        sk_dimension(lam)
        * weyl_dimension(alpha, a)
        * weyl_dimension(beta, b)
        * weyl_dimension(gamma, c)
    )
    if factor == 0:
        if raw_hs > 1e-9:
            raise AssertionError(
                f"zero identity factor but nonzero norm {raw_hs:.3e} for {labels}"
            )
        return SchurWeylNorm(hs=0.0, op=raw_op)
    return SchurWeylNorm(hs=raw_hs / math.sqrt(factor), op=raw_op)


class OverlapTraces(NamedTuple):
    t_pq: complex
    t_p: float
    t_q: float


def trace_with_tensor_power(mat: np.ndarray, rho: np.ndarray, k: int) -> complex:
    """tr(M rho^(x k)) without materializing rho^(x k)."""
    d = rho.shape[0]
    if mat.shape != (d**k, d**k):
        raise ValidationError(f"operator shape {mat.shape} != ({d**k}, {d**k})")
    tens = mat.reshape((d,) * (2 * k))
    out_idx = list(range(k))
    in_idx = list(range(k, 2 * k))
    operands = [tens, out_idx + in_idx]
    for t in range(k):
        operands.extend([rho, [in_idx[t], out_idx[t]]])
    return complex(np.einsum(*operands, optimize=True))


def overlap_trace(p_tilde: np.ndarray, q_tilde: np.ndarray, rho: DensityMatrix, k: int) -> OverlapTraces:
    """tr(P~ Q~ rho^(x k)) plus the two marginal traces."""
    t_pq = trace_with_tensor_power(p_tilde @ q_tilde, rho.matrix, k)
    t_p = trace_with_tensor_power(p_tilde, rho.matrix, k).real
    t_q = trace_with_tensor_power(q_tilde, rho.matrix, k).real
    return OverlapTraces(t_pq=t_pq, t_p=t_p, t_q=t_q)
