"""Second routes that the tests check the package against.

The package keeps one route per computation; the independent routes live
here.  This module holds no tests and is not collected (its name does not
start with ``test_``); test modules import it as ``oracles``, since
``tests/`` is on the import path under pytest's default import mode.

- ``conjugate_partition``: the transposed diagram;
- ``adjacent_word`` and ``represent``: the matrix of any permutation as a
  product of Young's generators;
- ``hs_norm_via_schurweyl``: the recoupling norm read off the Fourier blocks
  of the group-algebra element P~ Q~ (acceptance criterion 4);
- ``bend_and_compare``: the unitary between a bent intertwiner basis and the
  straight basis of the bent orientation;
- ``exact_hs_squared``: the squared recoupling norm as an exact rational,
  from characters alone;
- ``ball_coefficients_per_permutation``: the coefficients of a ball sum of
  isotypic projectors, looked up by the cycle type of every permutation;
- ``_times_ball``: a ball factor applied to a full (k!, k!, k!) group-algebra
  array, one gather per permutation, where the package passes orbit vectors;
- ``rate_directions``: the spectrum-estimation rate gate, each direction's
  diagrams rebuilt from its lower rows and looked up in a table of traces,
  where the package groups its items by their lower rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from snrecoupling.combinatorics import (
    Partition,
    Permutation,
    _sk_dimension,
    all_permutations,
    check_labels,
    check_partition,
    conjugacy_classes,
    enumerate_partitions,
    perm_cycle_type,
    weyl_dimension,
)
from snrecoupling.errors import ValidationError
from snrecoupling.experiments import GATE_SLACK
from snrecoupling.intertwiner import cg_isometries
from snrecoupling.repsym import RepMatrixSet, _character_row, _young_orthogonal_rep
from snrecoupling.schurweyl import _sk_tables, _SkTables, tripartite_elements
from snrecoupling.tensorlinalg import hs_norm


def ball_coefficients_per_permutation(labels: Sequence[Partition], k: int) -> np.ndarray:
    """sum_lam dim[lam] chi_lam(pi) / k! for each pi in all_permutations(k) order,
    summed over the labels in the same order as ``schurweyl._ball_coefficients``."""
    terms = [(_sk_dimension(l), _character_row(l)) for l in labels]
    by_type = {
        t: sum(dim * row[c] for dim, row in terms) / math.factorial(k)
        for c, (t, _) in enumerate(conjugacy_classes(k))
    }
    return np.array([by_type[perm_cycle_type(p)] for p in all_permutations(k)])


def _times_ball(
    x: np.ndarray, coeffs: np.ndarray, axes: tuple[int, ...], tables: _SkTables
) -> np.ndarray:
    """x S for the ball factor S = sum_pi c(pi) U(pi) on the subsystems `axes`,
    with x a (k!, k!, k!) array indexed by (sigma_A, sigma_B, sigma_C).

    (x S)[h] = sum_pi c(pi) x[h o pi^-1 on `axes`]: one gather through the
    multiplication table per permutation with c(pi) != 0.
    """
    every = np.arange(x.shape[0])
    out = np.zeros_like(x)
    for j in np.flatnonzero(coeffs):
        moved = tables.mul[:, tables.inv[j]]
        out += coeffs[j] * x[np.ix_(*(moved if ax in axes else every for ax in range(3)))]
    return out


def conjugate_partition(lam: Sequence[int]) -> Partition:
    lam = check_partition(lam)
    return tuple(sum(1 for r in lam if r > j) for j in range(lam[0]))


# ---------------------------------------------------------------------------
# permutation matrices from Young's generators

def adjacent_word(p: Permutation) -> list[int]:
    """Bubble-sort word: p = s_{w[-1]} ... s_{w[0]} with 1-indexed w."""
    work = list(p)
    word = []
    changed = True
    while changed:
        changed = False
        for j in range(len(work) - 1):
            if work[j] > work[j + 1]:
                work[j], work[j + 1] = work[j + 1], work[j]
                word.append(j + 1)
                changed = True
    return word


def represent(reps: RepMatrixSet, perm: Permutation) -> np.ndarray:
    """Matrix of an arbitrary permutation, via a reduced word in the s_i."""
    if sorted(perm) != list(range(reps.k)):
        raise ValidationError(f"not a permutation of 0..{reps.k - 1}: {perm}")
    mat = np.eye(reps.dim)
    for i in adjacent_word(perm):
        mat = reps.generators[i - 1] @ mat
    return mat


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
    """rho_lam(pi) for every pi in all_permutations(k) order, shape (k!, dim, dim).
    Its k fits IMPLICIT_CAP (k <= 4), far inside ``young_orthogonal_rep``'s cap."""
    rep = _young_orthogonal_rep(lam)
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
        op = max(op, float(np.linalg.norm(block, 2)))
    return math.sqrt(hs_sq), op


class SchurWeylNorm(NamedTuple):
    hs: float
    op: float


def hs_norm_via_schurweyl(
    alpha, beta, gamma, mu, nu, lam, dims: tuple[int, int, int]
) -> SchurWeylNorm:
    """Independent route to the recoupling HS norm through P~ Q~.

    The operator P~ Q~ equals an identity of dimension
    dim[lam] * dim V^a_alpha * dim V^b_beta * dim V^c_gamma tensored with the
    recoupling block, so dividing its HS norm by the square root of that
    dimension recovers the block's norm.  Both norms of P~ Q~ come from the
    Fourier blocks of the group-algebra element tripartite_elements returns,
    expanded from its orbits to all of S_k^3;
    no operator on (C^{abc})^(x k), intertwiner or Kronecker coefficient is
    involved.  Also returns the operator norm of P~ Q~ for the norm sandwich.
    """
    labels = check_labels(alpha, beta, gamma, mu, nu, lam)
    alpha, beta, gamma, mu, nu, lam = labels
    k = sum(lam)
    a, b, c = dims
    if len(alpha) > a or len(beta) > b or len(gamma) > c or len(lam) > a * b * c:
        raise ValidationError(
            "row counts must fit the local dimensions for the tensor-power route"
        )
    pq = tripartite_elements(*([l] for l in labels), dims, k).pq[_sk_tables(k).orbit]
    raw_hs, raw_op = _fourier_norms(pq, dims, k)
    # positive: the row counts fit, so no Weyl dimension vanishes
    factor = (
        _sk_dimension(lam)
        * weyl_dimension(alpha, a)
        * weyl_dimension(beta, b)
        * weyl_dimension(gamma, c)
    )
    return SchurWeylNorm(hs=raw_hs / math.sqrt(factor), op=raw_op)


# ---------------------------------------------------------------------------
# bending a leg

def bend_and_compare(alpha, beta, lam) -> np.ndarray:
    """Unitary relating bent intertwiners to the straight basis.

    Bending turns each phi_i: [lam] -> [alpha] (x) [beta] into
    psi_i: [alpha] -> [lam] (x) [beta] with tr(psi_j^T psi_i) =
    dim[alpha] delta_ij; the returned g x g matrix U expresses psi_i in the
    basis cg_isometries(lam, beta, alpha).  Both bases read one signed
    tensor, so U is the identity for three distinct labels; with a repeated
    label it can be a symmetric orthogonal involution other than I, such as
    -I, the action of swapping the two equal axes.  Raises if the Gram
    matrix deviates from dim[alpha] * I (an index-convention bug) or if U
    fails to be unitary, both within 1e-8.
    """
    tol = 1e-8
    alpha, beta, lam = check_labels(alpha, beta, lam)
    da, db, dl = _sk_dimension(alpha), _sk_dimension(beta), _sk_dimension(lam)
    source = cg_isometries(alpha, beta, lam)
    g = len(source)
    if g < 1:
        raise ValidationError(f"no intertwiners for {(alpha, beta, lam)}")

    cube = source.reshape(g, da, db, dl)
    psis = math.sqrt(da / dl) * cube.transpose(0, 3, 2, 1).reshape(g, dl * db, da)

    gram = np.tensordot(psis, psis, axes=((1, 2), (1, 2)))
    gram_resid = np.abs(gram - da * np.eye(g)).max()
    if gram_resid > tol * da:
        raise AssertionError(
            f"bent Gram matrix deviates from dim[alpha]*I by {gram_resid:.3e}"
        )

    target = cg_isometries(lam, beta, alpha)
    assert len(target) == g
    u = np.tensordot(psis, target, axes=((1, 2), (1, 2))) / da
    unitary_resid = np.abs(u @ u.conj().T - np.eye(g)).max()
    if unitary_resid > tol:
        raise AssertionError(f"bend comparison not unitary: {unitary_resid:.3e}")
    return u


# ---------------------------------------------------------------------------
# exact recoupling norms from characters

@cache
def _group_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(mul, cls) for S_k in all_permutations(k) order: mul[i, j] is the index
    of perms[i] o perms[j], cls[i] the conjugacy_classes(k) index of perms[i]."""
    perms = np.array(list(all_permutations(k)), dtype=np.int64).reshape(-1, k)
    # one-line words in base k increase with the lexicographic order
    weights = k ** np.arange(k - 1, -1, -1, dtype=np.int64)
    codes = perms @ weights
    composed = perms[:, perms]  # composed[i, j, t] = perms[i][perms[j][t]]
    mul = np.searchsorted(codes, composed @ weights)
    types = {t: c for c, (t, _) in enumerate(conjugacy_classes(k))}
    cls = np.array([types[perm_cycle_type(tuple(p))] for p in perms.tolist()])
    return mul, cls


def exact_hs_squared(alpha, beta, gamma, mu, nu, lam) -> Fraction:
    """hs^2 of the recoupling block as an exact rational, from characters.

    With the isotypic projectors of AB on mu, of BC on nu and of ABC on lam
    restricted to [alpha] (x) [beta] (x) [gamma],
    hs^2 = tr(P_mu P_nu P_lam) / dim lam, which the class-function expansion
    of each projector turns into

        (dim mu dim nu / k!^3) sum_{sigma, tau, pi}
            chi_mu(sigma) chi_nu(tau) chi_lam(pi)
            chi_alpha(sigma pi) chi_beta(sigma tau pi) chi_gamma(tau pi).

    The summand is invariant under conjugating sigma, tau and pi together,
    so sigma runs over one representative per class, weighted by the class
    size: p(k) k!^2 integer terms.  Each class's sum is taken in int64, which
    holds it at k <= 6 (|chi| <= 16 there, so it is below 16^5 * 720^2 <
    2^40).  No intertwiner, Young matrix or float enters.
    """
    labels = check_labels(alpha, beta, gamma, mu, nu, lam)
    k = sum(labels[0])
    assert k <= 6, "the int64 sums and the k!^2 tables are sized for k <= 6"
    mul, cls = _group_tables(k)
    c_a, c_b, c_g, c_mu, c_nu, c_lam = (
        np.array(_character_row(p), dtype=np.int64)[cls] for p in labels
    )
    first = {}  # one representative of each class
    for i, c in enumerate(cls.tolist()):
        first.setdefault(c, i)
    tau_pi = mul  # tau_pi[t, p] is the index of tau o pi
    gamma_tp = c_g[tau_pi]
    total = 0
    for (_, size), s in zip(conjugacy_classes(k), (first[c] for c in sorted(first))):
        beta_stp = c_b[mul[s][tau_pi]]
        pi_weight = c_lam * c_a[mul[s]]
        total += size * c_mu[s] * int(c_nu @ (beta_stp * gamma_tp) @ pi_weight)
    dims = _sk_dimension(labels[3]) * _sk_dimension(labels[4])
    return Fraction(dims * total, math.factorial(k) ** 3)


def rate_directions(items: Sequence[dict], k_max: int, d: int) -> list[dict]:
    """The ``rate_directions`` of a spectrum-estimation report, from its items.

    For each diagram of k_max boxes in at most d rows, in
    ``enumerate_partitions`` order, the diagrams of k > k_max - 10 boxes with
    the same lower rows are rebuilt as (k - sum(rest),) + rest and looked up
    in a (k, lam) table; those with a positive trace give the points
    log(trace) + k dist^2 / 2, whose increments must not increase (up to
    ``GATE_SLACK``).
    """
    traces = {(item["k"], tuple(item["lam"])): (item["trace"], item["l1_dist"])
              for item in items}
    directions = []
    for lam_top in enumerate_partitions(k_max, d):
        rest = lam_top[1:]
        seq = []
        for k in range(max(1, k_max - 9), k_max + 1):
            first = k - sum(rest)
            if first < (rest[0] if rest else 1):
                continue
            tr, dist = traces[(k, (first,) + rest)]
            if tr <= 0:
                continue
            seq.append((k, math.log(tr) + k * dist**2 / 2))
        incs = [seq[i + 1][1] - seq[i][1] for i in range(len(seq) - 1)]
        mono = all(incs[i + 1] <= incs[i] + GATE_SLACK for i in range(len(incs) - 1))
        directions.append({"direction": list(lam_top), "points": len(seq), "monotone": mono})
    return directions
