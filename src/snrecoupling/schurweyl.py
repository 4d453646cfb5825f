"""Concrete tensor-power realization: permutation actions, isotypic projectors,
cycle-type projected traces, and the tripartite ball projectors in the group
algebra, with their overlap traces and the norms of P~ Q~.

Index convention (global): a vector on (C^{abc})^(x k) is indexed by per-copy
digit groups, copy slowest, subsystems ordered A, B, C inside each copy.
Projectors on subsystem groups (e.g. the AB pairs of every copy) are built by
permuting exactly the digits of those subsystems across copies.

Every ball projector is a class-function sum of such permutations, with the
coefficients of _ball_coefficients, so the products P~, Q~ and P~ Q~ are
elements of the group algebra of S_k x S_k x S_k.  tripartite_elements is the
one builder of these products, as (k!, k!, k!) coefficient arrays.
overlap_trace pairs them with tr(U(g) rho^(x k)), which permutation_traces
evaluates once per orbit of simultaneous conjugation; the overlap
certificate and the ``overlap`` CLI command take this route.
hs_norm_via_schurweyl reads the HS and operator norms of P~ Q~ off its
Fourier blocks, one small matrix per triple of S_k irreps.  No operator on
(C^{abc})^(x k) is formed on either route.

ball_sum_projector materializes one ball sum as a dense matrix, under
DENSE_CAP: isotypic_projector is its single-subsystem case, and the tests
multiply ball sums into dense P~ and Q~ as the independent oracle.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .combinatorics import (
    Partition,
    Permutation,
    _sk_dimension,
    all_permutations,
    check_partition,
    conjugacy_classes,
    enumerate_partitions,
    perm_compose,
    perm_cycle_type,
    perm_inverse,
    sk_dimension,
    weyl_dimension,
)
from .errors import ResourceLimitError, ValidationError
from .quantumstates import DensityMatrix
from .repsym import _character_row, character, represent, young_orthogonal_rep
from .tensorlinalg import hermitian_eigensystem, hs_norm, op_norm

DENSE_CAP = 4096
IMPLICIT_CAP = 1_000_000


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


def isotypic_projector(lam, d: int, k: int) -> np.ndarray:
    """Dense group-average projector (dim/k!) sum_pi chi(pi) U(pi) on (C^d)^(x k),
    refused above DENSE_CAP."""
    return ball_sum_projector([lam], (d,), k, "A")


def projected_trace(lam, rho: DensityMatrix, k: int) -> float:
    """tr(P_lam rho^(x k)) via cycle types: one term per partition of k.

    Needs only the power traces tr(rho^j), so it scales to k ~ 30 where no
    projector could ever be materialized.
    """
    lam = check_partition(lam)
    if sum(lam) != k:
        raise ValidationError(f"{lam} is not a partition of {k}")
    vals, _ = hermitian_eigensystem(rho.matrix)
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
# ball sums of isotypic projectors

def _ball_coefficients(labels: Sequence[Partition], k: int) -> np.ndarray:
    """Coefficient of each permutation, in all_permutations(k) order, in the sum
    of the isotypic projectors of `labels`: sum_lam dim[lam] chi_lam(pi) / k!.

    Characters of S_k are real and constant on conjugacy classes, so the
    coefficient of pi equals that of its inverse.  The labels must be
    distinct, so that the sum is an idempotent.
    """
    labels = [check_partition(l) for l in labels]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"ball labels repeat: {labels}")
    for lam in labels:
        if sum(lam) != k:
            raise ValidationError(f"label {lam} is not a partition of k = {k}")
    terms = [(_sk_dimension(l), _character_row(l)) for l in labels]
    by_type = {
        t: sum(dim * row[c] for dim, row in terms) / math.factorial(k)
        for c, (t, _) in enumerate(conjugacy_classes(k))
    }
    return np.array([by_type[perm_cycle_type(p)] for p in all_permutations(k)])


def ball_sum_projector(
    labels: Sequence[Partition], dims: Sequence[int], k: int, group: str
) -> np.ndarray:
    """Sum of the isotypic projectors of several labels on one subsystem group.

    The subsystems of `dims` are named A, B, C in order and `group` names the
    active ones: "AB" acts on the AB pairs of every copy and as identity on
    the C digits.  The per-permutation coefficients are summed over the
    labels first, so the result is a single dense matrix however many labels
    the ball contains.
    """
    dims = tuple(int(d) for d in dims)
    names = "ABC"[: len(dims)]
    if not group or not set(group) <= set(names):
        raise ValidationError(f"group {group!r} is not a set of the subsystems {names}")
    active = [name in group for name in names]
    total = math.prod(dims) ** k
    if total > DENSE_CAP:
        raise ResourceLimitError(f"dense ball projector dimension {total} above {DENSE_CAP}")
    coeffs = _ball_coefficients(labels, k)
    mat = np.zeros((total, total))
    cols = np.arange(total)
    for perm, c in zip(all_permutations(k), coeffs):
        if c:
            # each index map is a bijection, so no (row, col) pair repeats
            mat[permutation_index_map(perm, dims, k, active), cols] += c
    return mat


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


# ---------------------------------------------------------------------------
# the group algebra of S_k x S_k x S_k
#
# An element is a real array x of shape (k!, k!, k!) indexed by
# (sigma_A, sigma_B, sigma_C) in all_permutations(k) order; it stands for the
# operator sum_g x[g] U(g) with U(g) = U_A(sigma_A) U_B(sigma_B) U_C(sigma_C).
# Under permutation_index_map's convention U(pi) U(tau) = U(pi o tau), with
# (pi o tau)[t] = pi[tau[t]], so operator products are group-algebra products.

_GROUP_AXES = {"AB": (0, 1), "BC": (1, 2), "ABC": (0, 1, 2)}


class _SkTables(NamedTuple):
    perms: tuple[Permutation, ...]
    mul: np.ndarray  # mul[i, j] = index of perms[i] o perms[j]
    inv: np.ndarray  # inv[i] = index of perms[i]^-1
    orbit: np.ndarray  # (k!, k!, k!): orbit number under simultaneous conjugation
    reps: tuple[tuple[int, int, int], ...]  # one element of each orbit


@cache
def _sk_tables(k: int) -> _SkTables:
    """Multiplication table of S_k and the conjugation orbits of S_k^3, on first use."""
    perms = tuple(all_permutations(k))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    mul = np.array([[index[perm_compose(p, q)] for q in perms] for p in perms])
    inv = np.array([index[perm_inverse(p)] for p in perms])
    conj = mul[mul, inv[:, None]]  # conj[t, i] = index of tau_t sigma_i tau_t^-1
    flat = (
        conj[:, :, None, None] * n * n + conj[:, None, :, None] * n + conj[:, None, None, :]
    )
    first, orbit = np.unique(flat.min(axis=0), return_inverse=True)
    reps = tuple(zip(*(idx.tolist() for idx in np.unravel_index(first, (n, n, n)))))
    return _SkTables(perms, mul, inv, orbit.reshape(n, n, n), reps)


def _check_algebra_size(dims: Sequence[int], k: int) -> None:
    """Refuse before allocating: (k!)^3 coefficients per element and
    prod(dims)^k iterations per einsum in permutation_traces."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    size = math.factorial(k) ** 3
    steps = math.prod(dims) ** k
    if max(size, steps) > IMPLICIT_CAP:
        raise ResourceLimitError(
            f"group-algebra route needs (k!)^3 = {size} coefficients and "
            f"prod(dims)^k = {steps} einsum steps; cap {IMPLICIT_CAP}"
        )


def _times_ball(x: np.ndarray, coeffs: np.ndarray, group: str, tables: _SkTables) -> np.ndarray:
    """x S for the ball factor S = sum_pi c(pi) U_group(pi).

    (x S)[h] = sum_pi c(pi) x[h o pi^-1 on the axes of `group`]: one gather
    through the multiplication table per permutation with c(pi) != 0.
    """
    axes = _GROUP_AXES[group]
    every = np.arange(x.shape[0])
    out = np.zeros_like(x)
    for j in np.flatnonzero(coeffs):
        moved = tables.mul[:, tables.inv[j]]
        out += coeffs[j] * x[np.ix_(*(moved if ax in axes else every for ax in range(3)))]
    return out


class TripartiteElements(NamedTuple):
    p_tilde: np.ndarray
    q_tilde: np.ndarray
    pq: np.ndarray


def tripartite_elements(
    alphas, betas, gammas, mus, nus, lams, dims: tuple[int, int, int], k: int
) -> TripartiteElements:
    """P~, Q~ and P~ Q~ for balls of labels, as group-algebra elements.

    Each argument is a collection of distinct labels (a one-element list for
    a single tuple), summed into one ball factor S_alpha, ..., S_lam on the
    subsystem groups A, B, C, AB, BC, ABC.  With abc = S_alpha S_beta S_gamma,
    P~ = abc S_alpha S_nu S_lam, Q~ = abc S_mu S_gamma S_lam, and P~ Q~ is
    P~ times both chains of Q~.  Two identities leave four passes:

    - S_alpha, S_beta, S_gamma are class functions of one factor, so sums of
      distinct central primitive idempotents: abc commutes with every U(g),
      absorbs a repeated S_alpha or S_gamma, and is the outer product of the
      three coefficient vectors;
    - S_mu and S_nu are invariant under simultaneous conjugation, so they
      commute with S_lam; S_lam and S_mu are idempotent.

    Hence P~ = abc S_lam S_nu, Q~ = abc S_lam S_mu and P~ Q~ = P~ S_mu.  Each
    array has (k!)^3 entries whatever the local dimensions; `dims` enters
    only the size check, which also covers permutation_traces on `dims`.
    """
    _check_algebra_size(dims, k)
    tables = _sk_tables(k)
    c_a, c_b, c_c, c_mu, c_nu, c_lam = (
        _ball_coefficients(labels, k) for labels in (alphas, betas, gammas, mus, nus, lams)
    )
    abc = c_a[:, None, None] * c_b[None, :, None] * c_c[None, None, :]
    x = _times_ball(abc, c_lam, "ABC", tables)
    p_tilde = _times_ball(x, c_nu, "BC", tables)
    return TripartiteElements(
        p_tilde=p_tilde,
        q_tilde=_times_ball(x, c_mu, "AB", tables),
        pq=_times_ball(p_tilde, c_mu, "AB", tables),
    )


def permutation_traces(rho: DensityMatrix, k: int) -> np.ndarray:
    """f(g) = tr(U(g) rho^(x k)) for every g in S_k^3, as a (k!, k!, k!) array.

    rho^(x k) commutes with the diagonal action of S_k, so f is constant on
    the orbits of simultaneous conjugation; one einsum over the k copies of
    rho, reshaped to (a, b, c, a, b, c), evaluates each orbit.  Copy t pairs
    its row digits with the column digits of copy sigma_X^-1(t) on every
    subsystem X.
    """
    if len(rho.dims) != 3:
        raise ValidationError("permutation traces need a tripartite state")
    _check_algebra_size(rho.dims, k)
    tables = _sk_tables(k)
    tens = rho.matrix.reshape(tuple(rho.dims) * 2)
    vals = np.empty(len(tables.reps), dtype=complex)
    for o, g in enumerate(tables.reps):
        inverses = [perm_inverse(tables.perms[i]) for i in g]
        operands = []
        for t in range(k):
            cols = [3 * inverses[s][t] + s for s in range(3)]
            operands.extend([tens, [3 * t, 3 * t + 1, 3 * t + 2] + cols])
        vals[o] = np.einsum(*operands, [])
    return vals[tables.orbit]


class OverlapTraces(NamedTuple):
    t_pq: complex
    t_p: float
    t_q: float


def overlap_trace(elements: TripartiteElements, rho: DensityMatrix, k: int) -> OverlapTraces:
    """tr(P~ Q~ rho^(x k)) plus the two marginal traces: each is <x, f> with
    f = permutation_traces(rho, k)."""
    f = permutation_traces(rho, k)
    t_pq, t_p, t_q = (
        complex(np.sum(x * f)) for x in (elements.pq, elements.p_tilde, elements.q_tilde)
    )
    return OverlapTraces(t_pq=t_pq, t_p=t_p.real, t_q=t_q.real)


# ---------------------------------------------------------------------------
# norms from Fourier blocks
#
# By Schur-Weyl duality U_X(sigma) on (C^d)^(x k) is, in a suitable basis, the
# direct sum over the irreps lam with at most d rows of rho_lam(sigma) (x) I,
# the identity of dimension weyl_dimension(lam, d).  So sum_g x[g] U(g) is the
# direct sum over irrep triples of B (x) I, with the Fourier block
# B = sum_g x[g] rho_A(sigma_A) (x) rho_B(sigma_B) (x) rho_C(sigma_C).


@cache
def _irrep_stack(lam: Partition) -> np.ndarray:
    """rho_lam(pi) for every pi in all_permutations(k) order, shape (k!, dim, dim)."""
    rep = young_orthogonal_rep(lam)
    return np.array([represent(rep, p) for p in all_permutations(sum(lam))])


def _fourier_norms(x: np.ndarray, dims: Sequence[int], k: int) -> tuple[float, float]:
    """HS and operator norms of sum_g x[g] U(g) on (C^{abc})^(x k), from the
    Fourier blocks of x: ||.||_HS^2 sums each block's squared Frobenius norm
    times its identity dimension, ||.||_op is the largest block op norm."""
    irreps = [
        [(weyl_dimension(lam, d), _irrep_stack(lam)) for lam in enumerate_partitions(k, d)]
        for d in dims
    ]
    hs_sq, op = 0.0, 0.0
    for (m_a, r_a), (m_b, r_b), (m_c, r_c) in product(*irreps):
        # contract sigma_A, sigma_B, sigma_C in turn: axes (i, j, k, l, m, n)
        block = np.tensordot(np.tensordot(np.tensordot(x, r_a, (0, 0)), r_b, (0, 0)), r_c, (0, 0))
        rows = r_a.shape[1] * r_b.shape[1] * r_c.shape[1]
        block = block.transpose(0, 2, 4, 1, 3, 5).reshape(rows, rows)
        hs_sq += m_a * m_b * m_c * hs_norm(block) ** 2
        op = max(op, op_norm(block))
    return math.sqrt(hs_sq), op


class SchurWeylNorm(NamedTuple):
    hs: float
    op: float


def hs_norm_via_schurweyl(
    alpha, beta, gamma, mu, nu, lam, dims: tuple[int, int, int], k: int
) -> SchurWeylNorm:
    """Independent route to the recoupling HS norm through P~ Q~.

    The operator P~ Q~ equals an identity of dimension
    dim[lam] * dim V^a_alpha * dim V^b_beta * dim V^c_gamma tensored with the
    recoupling block, so dividing its HS norm by the square root of that
    dimension recovers the block's norm.  Both norms of P~ Q~ come from the
    Fourier blocks of the group-algebra element tripartite_elements returns;
    no operator on (C^{abc})^(x k), intertwiner or Kronecker coefficient is
    involved.  Also returns op_norm(P~ Q~) for the norm sandwich.
    """
    labels = tuple(map(check_partition, (alpha, beta, gamma, mu, nu, lam)))
    alpha, beta, gamma, mu, nu, lam = labels
    a, b, c = dims
    if len(alpha) > a or len(beta) > b or len(gamma) > c or len(lam) > a * b * c:
        raise ValidationError(
            "row counts must fit the local dimensions for the tensor-power route"
        )
    pq = tripartite_elements(*([l] for l in labels), dims, k).pq
    raw_hs, raw_op = _fourier_norms(pq, dims, k)
    # positive: the row counts fit, so no Weyl dimension vanishes
    factor = (
        sk_dimension(lam)
        * weyl_dimension(alpha, a)
        * weyl_dimension(beta, b)
        * weyl_dimension(gamma, c)
    )
    return SchurWeylNorm(hs=raw_hs / math.sqrt(factor), op=raw_op)
