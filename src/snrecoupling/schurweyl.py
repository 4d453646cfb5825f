"""Concrete tensor-power realization: permutation actions, isotypic projectors,
cycle-type projected traces, and the tripartite ball projectors in the group
algebra, with their overlap traces.

Index convention (global): a vector on (C^{abc})^(x k) is indexed by per-copy
digit groups, copy slowest, subsystems ordered A, B, C inside each copy.
Projectors on subsystem groups (e.g. the AB pairs of every copy) are built by
permuting exactly the digits of those subsystems across copies.

Every ball projector is a class-function sum of such permutations, with the
coefficients of _ball_coefficients, so the products P~, Q~ and P~ Q~ are
elements of the group algebra of S_k x S_k x S_k.  tripartite_elements is
the one builder of these products, as one value per orbit of simultaneous
conjugation, under which all of them are invariant.  overlap_trace pairs
them with tr(U(g) rho^(x k)), which permutation_traces evaluates on the same
orbits; the overlap certificate and the ``overlap`` CLI command take this
route, and no operator on (C^{abc})^(x k) is formed on it.  The
certificate's recoupling norms come from the same tables:
_recoupling_character_sum is the exact integer character sum over S_k^3 of
which hs^2 is a multiple, so the certificate solves no intertwiner and
decides zero blocks by S == 0.  The tests read the recoupling norms off the
Fourier blocks of P~ Q~ (their oracle ``hs_norm_via_schurweyl``), a second
route to what ``recoupling_tensor`` computes.

ball_sum_projector materializes one ball sum as a dense matrix, under
DENSE_CAP and IMPLICIT_CAP: isotypic_projector is its single-subsystem case,
and the tests multiply ball sums into dense P~ and Q~ as the independent
oracle.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple, Sequence

import numpy as np

from .combinatorics import (
    Partition,
    Permutation,
    _sk_dimension,
    all_permutations,
    check_labels,
    check_partition,
    conjugacy_classes,
    perm_compose,
    perm_cycle_type,
    perm_inverse,
)
from .errors import ValidationError, check_cap, check_int
from .quantumstates import GROUPS, DensityMatrix
from .repsym import _character_row, character
from .tensorlinalg import tensor_shape

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
    dims = tensor_shape(dims)
    n = len(dims)
    axes = [(perm[t] if active[s] else t) * n + s for t in range(k) for s in range(n)]
    total = math.prod(dims) ** k
    return np.arange(total).reshape(dims * k).transpose(axes).reshape(-1)


def isotypic_projector(lam, d: int) -> np.ndarray:
    """Dense group-average projector (dim/k!) sum_pi chi(pi) U(pi) on (C^d)^(x k),
    k = |lam|, refused as ``ball_sum_projector`` is."""
    (lam,) = check_labels(lam)
    return _dense_ball_sum([lam], tensor_shape((d,)), sum(lam), [True])


def projected_trace(lam, rho: DensityMatrix) -> float:
    """tr(P_lam rho^(x k)) via cycle types, k = |lam|: one term per partition of k.

    Needs only the power traces tr(rho^j), so it scales to k ~ 30 where no
    projector could ever be materialized; a k above ``combinatorics.K_MAX``
    raises ResourceLimitError before any character.
    """
    (lam,) = check_labels(lam)
    k = sum(lam)
    vals = rho.spectrum()
    power_traces = [float(np.sum(vals**j)) for j in range(k + 1)]
    total = 0.0
    for t, size in conjugacy_classes(k):
        chi = character(lam, t)
        if chi:
            prod = 1.0
            for part in t:
                prod *= power_traces[part]
            total += size * chi * prod
    return _sk_dimension(lam) / math.factorial(k) * total


# ---------------------------------------------------------------------------
# ball sums of isotypic projectors

def _check_ball(labels: Sequence[Partition], k: int) -> list[Partition]:
    """One ball's labels, checked: distinct partitions of k sum to an idempotent."""
    labels = [check_partition(l) for l in labels]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"ball labels repeat: {labels}")
    if wrong := [lam for lam in labels if sum(lam) != k]:
        raise ValidationError(f"label {wrong[0]} is not a partition of k = {k}")
    return labels


def _ball_coefficients(labels: Sequence[Partition], k: int) -> np.ndarray:
    """Coefficient of each permutation, in all_permutations(k) order, in the sum
    of the isotypic projectors of the checked `labels`: sum_lam dim[lam] chi_lam(pi) / k!.

    Characters of S_k are real and constant on conjugacy classes, so the
    coefficient of pi equals that of its inverse.
    """
    terms = [(_sk_dimension(l), _character_row(l)) for l in labels]
    by_class = np.array([sum(dim * row[c] for dim, row in terms) / math.factorial(k)
                         for c in range(len(conjugacy_classes(k)))])
    return by_class[_perm_classes(k)]


@cache
def _perm_classes(k: int) -> np.ndarray:
    """The conjugacy_classes(k) index of each permutation, in all_permutations(k) order."""
    types = {t: c for c, (t, _) in enumerate(conjugacy_classes(k))}
    return np.array([types[perm_cycle_type(p)] for p in all_permutations(k)])


def ball_sum_projector(
    labels: Sequence[Partition], dims: Sequence[int], k: int, group: str
) -> np.ndarray:
    """Sum of the isotypic projectors of several labels on one subsystem group.

    The subsystems of `dims` are named A, B, C in order and `group` names the
    active ones: "AB" acts on the AB pairs of every copy and as identity on
    the C digits.  The per-permutation coefficients are summed over the
    labels first, so the result is a single dense matrix however many labels
    the ball contains.  Refused, before any permutation is listed, above
    DENSE_CAP rows and above IMPLICIT_CAP permutations k! summed over.
    """
    dims, k = tensor_shape(dims), check_int(k, "k")
    names = "ABC"[: len(dims)]
    if not group or not set(group) <= set(names):
        raise ValidationError(f"group {group!r} is not a set of the subsystems {names}")
    return _dense_ball_sum(_check_ball(labels, k), dims, k, [name in group for name in names])


def _dense_ball_sum(labels, dims: tuple[int, ...], k: int, active) -> np.ndarray:
    """``ball_sum_projector`` of checked labels, dims and k, on the `active` subsystems."""
    total = math.prod(dims) ** k
    check_cap("dense ball projector dimension", total, DENSE_CAP)
    check_cap("k! permutations of a dense ball sum", math.factorial(k), IMPLICIT_CAP)
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
# An element sum_g x[g] U(g) with U(g) = U_A(sigma_A) U_B(sigma_B) U_C(sigma_C)
# is stored as x_o, one real value per orbit o of simultaneous conjugation in
# _sk_tables(k).reps order, since every element formed here is invariant under
# it: x[tables.orbit] is the (k!, k!, k!) array over (sigma_A, sigma_B, sigma_C).
# Under permutation_index_map's convention U(pi) U(tau) = U(pi o tau), with
# (pi o tau)[t] = pi[tau[t]], so operator products are group-algebra products.


class _SkTables(NamedTuple):
    perms: tuple[Permutation, ...]
    mul: np.ndarray  # mul[i, j] = index of perms[i] o perms[j]
    inv: np.ndarray  # inv[i] = index of perms[i]^-1
    orbit: np.ndarray  # (k!, k!, k!): orbit number under simultaneous conjugation
    reps: np.ndarray  # (orbits, 3): the permutation indices of the first element of each orbit
    sizes: np.ndarray  # sizes[o] = number of elements of orbit o
    passes: dict[tuple[int, ...], np.ndarray]  # per group of GROUPS[3:], see _sk_tables


@cache
def _sk_tables(k: int) -> _SkTables:
    """Multiplication table of S_k and the conjugation orbits of S_k^3, on first use.

    passes[axes][o, j] is the orbit of rep_o o perms[j]^-1 on the subsystems
    `axes`, so for a ball factor S = sum_pi c(pi) U(pi) on them, a class
    function c, and an invariant x, x S is the invariant x[passes[axes]] @ c.
    """
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
    orbit = orbit.reshape(n, n, n)
    reps = np.stack(np.unravel_index(first, (n, n, n)), axis=1)
    passes = {
        axes: orbit[tuple(mul[reps[:, s, None], inv] if s in axes else reps[:, s, None]
                          for s in range(3))]
        for axes in GROUPS[3:]
    }
    return _SkTables(perms, mul, inv, orbit, reps, np.bincount(orbit.ravel()), passes)


def _check_algebra_size(dims: Sequence[int], k: int) -> int:
    """k as an int, refused before allocating: (k!)^3 entries of the orbit table
    and prod(dims)^k iterations per einsum in permutation_traces."""
    k = check_int(k, "k")
    check_cap("(k!)^3 entries of the S_k^3 orbit table", math.factorial(k) ** 3,
              IMPLICIT_CAP)
    check_cap("prod(dims)^k steps of a permutation-trace einsum", math.prod(dims) ** k,
              IMPLICIT_CAP)
    return k


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
    subsystem groups A, B, C, AB, BC, ABC of ``quantumstates.GROUPS``.  With
    abc = S_alpha S_beta S_gamma, P~ = abc S_alpha S_nu S_lam,
    Q~ = abc S_mu S_gamma S_lam, and P~ Q~ is P~ times both chains of Q~.
    Two identities leave four passes:

    - S_alpha, S_beta, S_gamma are class functions of one factor, so sums of
      distinct central primitive idempotents: abc commutes with every U(g),
      absorbs a repeated S_alpha or S_gamma, and is the product of the three
      coefficient vectors;
    - S_mu and S_nu are invariant under simultaneous conjugation, so they
      commute with S_lam; S_lam and S_mu are idempotent.

    Hence P~ = abc S_lam S_nu, Q~ = abc S_lam S_mu and P~ Q~ = P~ S_mu.  Each
    is one value per orbit of simultaneous conjugation, whatever the local
    dimensions; `dims` enters only the size check, which also covers
    permutation_traces on `dims`.
    """
    k = _check_algebra_size(tensor_shape(dims), k)
    balls = (alphas, betas, gammas, mus, nus, lams)
    return _tripartite_elements([_check_ball(labels, k) for labels in balls], k)


def _tripartite_elements(balls, k: int) -> TripartiteElements:
    """``tripartite_elements`` of six checked balls and a k checked by _check_algebra_size."""
    tables = _sk_tables(k)
    c_a, c_b, c_c, c_mu, c_nu, c_lam = (_ball_coefficients(labels, k) for labels in balls)
    on_ab, on_bc, on_abc = (tables.passes[axes] for axes in GROUPS[3:])
    abc = c_a[tables.reps[:, 0]] * c_b[tables.reps[:, 1]] * c_c[tables.reps[:, 2]]
    x = abc[on_abc] @ c_lam
    p_tilde = x[on_bc] @ c_nu
    return TripartiteElements(p_tilde, x[on_ab] @ c_mu, p_tilde[on_ab] @ c_mu)


def permutation_traces(rho: DensityMatrix, k: int) -> np.ndarray:
    """f(g) = tr(U(g) rho^(x k)) for every orbit of simultaneous conjugation of
    S_k^3, in _sk_tables(k).reps order.

    rho^(x k) commutes with the diagonal action of S_k, so f is constant on
    the orbits; one einsum over the k copies of rho, reshaped to
    (a, b, c, a, b, c), evaluates each at its representative.  Copy t pairs
    its row digits with the column digits of copy sigma_X^-1(t) on every
    subsystem X.  Where that copy is t itself the pairing is a partial trace,
    taken once per set of such subsystems and kept as axes of length 1, so
    the einsum runs only over the digits that pass between copies.  A copy
    paired with itself on all three is the factor tr rho, which validation
    lets differ from 1 by TRACE_TOL.
    """
    if len(rho.dims) != 3:
        raise ValidationError("permutation traces need a tripartite state")
    k = _check_algebra_size(rho.dims, k)
    tables = _sk_tables(k)
    dims = tuple(rho.dims)
    tens = rho.matrix.reshape(dims * 2)
    # reduced[mask] traces rho over the subsystems s with bit s of mask set
    reduced = []
    for mask in range(8):
        keep = [s for s in range(3) if not mask >> s & 1]
        part = np.einsum(tens, [0, 1, 2] + [3 + s if s in keep else s for s in range(3)],
                         keep + [3 + s for s in keep])
        reduced.append(part.reshape([d if s % 3 in keep else 1 for s, d in enumerate(dims * 2)]))
    source = np.array(tables.perms)[tables.inv][tables.reps]  # [o, s, t] = sigma_s^-1(t)
    # bit s of masks[o][t] is set where copy t pairs with itself on subsystem s
    masks = ((source == np.arange(k)) << np.arange(3)[:, None]).sum(axis=1).tolist()
    cols = (3 * source + np.arange(3)[:, None]).transpose(0, 2, 1).tolist()
    vals = np.empty(len(masks), dtype=complex)
    for o, (mask, col) in enumerate(zip(masks, cols)):
        operands = []
        for t in range(k):
            operands += [reduced[mask[t]], [3 * t, 3 * t + 1, 3 * t + 2] + col[t]]
        vals[o] = np.einsum(*operands, [])
    return vals


class OverlapTraces(NamedTuple):
    t_pq: complex
    t_p: float
    t_q: float


def overlap_trace(elements: TripartiteElements, rho: DensityMatrix, k: int) -> OverlapTraces:
    """tr(P~ Q~ rho^(x k)) plus the two marginal traces: each is
    sum_o |o| x_o f_o with f = permutation_traces(rho, k)."""
    f = _sk_tables(k).sizes * permutation_traces(rho, k)
    t_pq, t_p, t_q = (
        complex(x @ f) for x in (elements.pq, elements.p_tilde, elements.q_tilde)
    )
    return OverlapTraces(t_pq=t_pq, t_p=t_p.real, t_q=t_q.real)


# ---------------------------------------------------------------------------
# recoupling norms from characters


@cache
def _perm_characters(lam: Partition) -> np.ndarray:
    """chi_lam at every permutation of S_k, in all_permutations(k) order, as int64."""
    row = np.array(_character_row(lam), dtype=np.int64)[_perm_classes(sum(lam))]
    row.setflags(write=False)
    return row


def _recoupling_character_sum(alpha, beta, gamma, mu, nu, lam) -> int:
    """The exact integer

        S = sum_{sigma, tau, pi} chi_mu(sigma) chi_nu(tau) chi_lam(pi)
                chi_alpha(sigma pi) chi_beta(sigma tau pi) chi_gamma(tau pi)

    over S_k^3, with hs^2 = dim mu dim nu S / k!^3 for the recoupling block
    of the six labels (canonical partitions of one k, not re-checked).

    hs^2 = tr(P_mu P_nu P_lam) / dim lam on [alpha] (x) [beta] (x) [gamma],
    and the class-function expansion of the three isotypic projectors
    (Serre, Linear Representations of Finite Groups, 2.6) gives this sum.
    By the vertices of ``recoupling.VERTICES``: chi_mu(sigma) is the target of
    i (on AB), chi_nu(tau) that of k (on BC), chi_lam(pi) that of j and l (on
    ABC), and each leaf is read at the targets above it: alpha at sigma pi (i,
    then j and l), beta at sigma tau pi (i, k, then j and l), gamma at tau pi.
    The summand is invariant under conjugating sigma, tau and pi together,
    so it is read once per orbit of _sk_tables, weighted by the orbit size.
    S >= 0, and a block is zero exactly when S == 0.

    It runs where _check_algebra_size admits k, k <= 4 under IMPLICIT_CAP:
    _sk_tables ranks (k!)^4 conjugation codes, 1.66 GB at k = 5.  There
    |chi| <= 3, so the int64 sum of |o| |summand| is at most 3^6 (k!)^3 <
    2^24, exact.
    """
    tables = _sk_tables(sum(alpha))
    sigma, tau, pi = tables.reps.T
    tau_pi = tables.mul[tau, pi]
    summand = (
        _perm_characters(mu)[sigma] * _perm_characters(nu)[tau] * _perm_characters(lam)[pi]
        * _perm_characters(alpha)[tables.mul[sigma, pi]]
        * _perm_characters(beta)[tables.mul[sigma, tau_pi]]
        * _perm_characters(gamma)[tau_pi]
    )
    total = int(tables.sizes @ summand)
    assert total >= 0, (alpha, beta, gamma, mu, nu, lam)
    return total
