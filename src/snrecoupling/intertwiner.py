"""Kronecker coefficients and explicit orthonormal intertwiner bases.

An intertwiner basis for the triple (alpha, beta, lam) is a list of real
matrices phi_i of shape (dim[alpha]*dim[beta], dim[lam]) commuting with the
group action and normalized so tr(phi_j^T phi_i) = dim[lam] * delta_ij.
Each phi_i is then an isometric embedding of [lam] into [alpha] (x) [beta].
Entries are convention-dependent (any orthonormal mixing of the multiplicity
space is equally valid); only norms, Gram matrices and block unitarity are
basis-independent.

The bases come from the Gelfand-Tsetlin structure of Young's orthogonal form
(Vershik-Okounkov): the images of the first standard tableau of [lam] span
the joint eigenspace of the Jucys-Murphy elements on [alpha] (x) [beta] at
that tableau's contents, a dim[alpha]*dim[beta] eigenproblem, and Young's
step carries them to every other tableau.  Each unordered pair is solved
once: for alpha < beta the basis is that of (beta, alpha, lam) with the two
tensor factors swapped, the S_k analogue of the permutation symmetry of
3j-symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .combinatorics import (
    Partition,
    _sk_dimension,
    _tableau_contents,
    check_labels,
    conjugacy_classes,
    sk_dimension,
)
from .errors import ResourceLimitError, ValidationError
from .repsym import _character, _swap_entries, represent, young_orthogonal_rep
from .tensorlinalg import fix_vector_sign

DEFAULT_PRODUCT_CAP = 2_000_000
EQUIVARIANCE_TOL = 1e-9


@dataclass(frozen=True)
class IntertwinerBasis:
    source: Partition
    targets: tuple[Partition, Partition]
    maps: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.maps)


def kronecker_coefficient(alpha, beta, lam) -> int:
    """Multiplicity of [lam] inside [alpha] (x) [beta], exact integer (memoized)."""
    return _kronecker_coefficient(*check_labels(alpha, beta, lam))


@cache
def _kronecker_coefficient(alpha: Partition, beta: Partition, lam: Partition) -> int:
    k = sum(lam)
    total = sum(
        size * _character(alpha, t) * _character(beta, t) * _character(lam, t)
        for t, size in conjugacy_classes(k)
    )
    g, rem = divmod(total, math.factorial(k))
    assert rem == 0, "character sum must be divisible by k!"
    assert g >= 0
    return g


def cg_isometries(alpha, beta, lam, product_cap: int = DEFAULT_PRODUCT_CAP) -> IntertwinerBasis:
    """Orthonormal intertwiner basis [lam] -> [alpha] (x) [beta].

    The count is checked against the Kronecker coefficient, each map gets
    the sign of ``fix_vector_sign`` and equivariance is re-checked on the
    fixed k-cycle (0 1 ... k-1), which is not the identity for any k >= 2.
    ``product_cap`` bounds (dim[alpha]*dim[beta])**2, the entry count of the
    dense Jucys-Murphy operator the solver holds; every pair at k <= 7 fits
    the default.  Larger pairs raise ResourceLimitError before anything is
    allocated.  For alpha < beta the maps are those of (beta, alpha, lam)
    with their first two axes exchanged, re-signed and re-checked; the cap is
    the same for both orders, since the product is symmetric.
    """
    alpha, beta, lam = check_labels(alpha, beta, lam)
    da, db = _sk_dimension(alpha), _sk_dimension(beta)
    if (da * db) ** 2 > product_cap:
        raise ResourceLimitError(
            f"Jucys-Murphy operator size {(da * db) ** 2} for {(alpha, beta, lam)} "
            f"exceeds cap {product_cap}"
        )
    return _solve_cg(alpha, beta, lam)


def _apply_pair(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """kron(a, b) @ x for x of shape (da*db, m), without forming the kron."""
    da, db, m = a.shape[0], b.shape[0], x.shape[1]
    y = (a @ x.reshape(da, db * m)).reshape(da, db, m)
    return (b @ y).reshape(da * db, m)


@cache  # unbounded: one basis per triple solved, at most p(k)^3 per k
def _solve_cg(alpha: Partition, beta: Partition, lam: Partition) -> IntertwinerBasis:
    k = sum(lam)
    da, db, dl = _sk_dimension(alpha), _sk_dimension(beta), _sk_dimension(lam)
    g = _kronecker_coefficient(alpha, beta, lam)
    if g == 0:
        return IntertwinerBasis(source=lam, targets=(alpha, beta), maps=())

    rep_a = young_orthogonal_rep(alpha)
    rep_b = young_orthogonal_rep(beta)
    rep_l = young_orthogonal_rep(lam)
    if alpha < beta:
        # [alpha](x)[beta] is [beta](x)[alpha] with its tensor factors
        # swapped, and the swap commutes with the group action, so the maps
        # of the mirrored triple with their first two axes exchanged are an
        # orthonormal intertwiner basis here.
        stack = np.stack(_solve_cg(beta, alpha, lam).maps)
        stack = stack.reshape(g, db, da, dl).transpose(0, 2, 1, 3)
    else:
        stack = _jucys_murphy_stack(rep_a, rep_b, rep_l, g)

    maps = []
    for flat in stack.reshape(g, da * db * dl):
        phi = fix_vector_sign(flat).reshape(da * db, dl)
        phi.setflags(write=False)
        maps.append(phi)
    _check_full_permutation(rep_a, rep_b, rep_l, maps, k)
    return IntertwinerBasis(source=lam, targets=(alpha, beta), maps=tuple(maps))


def _jucys_murphy_stack(rep_a, rep_b, rep_l, g: int) -> np.ndarray:
    """The g intertwiners [lam] -> [alpha] (x) [beta] as a (g, da*db, dl) stack."""
    k, dl = rep_l.k, rep_l.dim
    n = rep_a.dim * rep_b.dim
    pairs = list(zip(rep_a.generators, rep_b.generators))
    tableaux = rep_l.basis
    contents = _tableau_contents(rep_l.shape)

    # Young's orthogonal form is Gelfand-Tsetlin adapted: v_T is the joint
    # eigenvector of the Jucys-Murphy elements X_j = sum_{i<j} (i j) with
    # eigenvalues the contents c_T(j).  So the images phi_i(v_T1) of the
    # first tableau span the joint eigenspace of X_2..X_k on [alpha](x)[beta]
    # at T1's contents, found by restricting one X_j at a time
    # (X_{j+1} = G_j X_j G_j + G_j with G_j = s_j (x) s_j; the X_j commute).
    # X_2 = G_1 is diagonal in Young's form, since 1 and 2 share a row or a
    # column of every tableau, so its eigenspace is spanned by the unit
    # vectors at `keep` and the first restriction is a selection.
    if k <= 2:
        span = np.ones((1, 1))  # every irrep of S_1, S_2 is one-dimensional, and g = 1
    else:
        a, b = pairs[0]
        x_diag = np.multiply.outer(np.diag(a), np.diag(b)).reshape(n)
        keep = np.flatnonzero(x_diag == contents[0][2])
        x_j = np.diag(x_diag)
        span = None
    for j in range(2, k):
        a, b = pairs[j - 1]
        # X is symmetric, so G X G = G (G X)^T; G itself by one broadcast
        gen = (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)
        x_j = _apply_pair(a, b, _apply_pair(a, b, x_j).T) + gen
        if span is None:
            vals, vecs = np.linalg.eigh(x_j[np.ix_(keep, keep)])
            span = np.zeros((n, len(keep)))
            span[keep] = vecs
        else:
            vals, vecs = np.linalg.eigh(span.T @ x_j @ span)
            span = span @ vecs
        span = span[:, np.abs(vals - contents[0][j + 1]) < 0.5]
    count = span.shape[1]
    assert count == g, f"solver found {count} intertwiners, characters say {g}"

    # Young's step from T to s_i T (axial distance d = c_T(i+1) - c_T(i)):
    # phi(v_{s_i T}) = (G_i phi(v_T) - phi(v_T) / d) / sqrt(1 - 1/d^2).
    index = {tab: t for t, tab in enumerate(tableaux)}
    images = np.empty((dl, n, g))
    images[0] = span
    queue = [tableaux[0]]
    seen = {tableaux[0]}
    for tab in queue:
        cont, src = contents[index[tab]], images[index[tab]]
        for i in range(1, k):
            d = cont[i + 1] - cont[i]
            if abs(d) < 2:
                continue
            nxt = _swap_entries(tab, i, i + 1)
            if nxt in seen:
                continue
            seen.add(nxt)
            queue.append(nxt)
            a, b = pairs[i - 1]
            step = _apply_pair(a, b, src) - src / d
            images[index[nxt]] = step / math.sqrt(1.0 - 1.0 / d**2)
    assert len(seen) == dl
    return images.transpose(2, 1, 0)


def _check_full_permutation(rep_a, rep_b, rep_l, maps, k) -> None:
    # generators suffice because they generate S_k; verify on one
    # non-trivial word, the k-cycle (never the identity for k >= 2), to
    # catch convention bugs early.
    perm = tuple(range(1, k)) + (0,)
    big_a, big_b = represent(rep_a, perm), represent(rep_b, perm)
    small = represent(rep_l, perm)
    for phi in maps:
        resid = np.abs(_apply_pair(big_a, big_b, phi) - phi @ small).max()
        if resid > EQUIVARIANCE_TOL:
            raise AssertionError(f"equivariance violated for {perm}: {resid:.3e}")


def trivial_coupling(lam) -> np.ndarray:
    """Unit vector (1/sqrt(dim)) sum_e |e>|e> in [lam] (x) [lam]."""
    d = sk_dimension(lam)
    return np.eye(d).reshape(-1) / math.sqrt(d)


def bend_and_compare(alpha, beta, lam, tol: float = 1e-8) -> np.ndarray:
    """Unitary relating bent intertwiners to the straight basis.

    Bending turns each phi_i: [lam] -> [alpha] (x) [beta] into
    psi_i: [alpha] -> [lam] (x) [beta] with tr(psi_j^T psi_i) =
    dim[alpha] delta_ij; the returned g x g matrix U expresses psi_i in the
    basis cg_isometries(lam, beta, alpha).  Raises if the Gram matrix
    deviates from dim[alpha] * I (an index-convention bug) or if U fails to
    be unitary within tol.
    """
    alpha, beta, lam = check_labels(alpha, beta, lam)
    da, db, dl = _sk_dimension(alpha), _sk_dimension(beta), _sk_dimension(lam)
    source = cg_isometries(alpha, beta, lam)
    g = len(source)
    if g < 1:
        raise ValidationError(f"no intertwiners for {(alpha, beta, lam)}")

    psis = []
    for phi in source.maps:
        cube = phi.reshape(da, db, dl)
        psi = math.sqrt(da / dl) * cube.transpose(2, 1, 0).reshape(dl * db, da)
        psis.append(psi)

    gram = np.array([[np.trace(p.T @ q) for q in psis] for p in psis])
    gram_resid = np.abs(gram - da * np.eye(g)).max()
    if gram_resid > tol * da:
        raise AssertionError(
            f"bent Gram matrix deviates from dim[alpha]*I by {gram_resid:.3e}"
        )

    target = cg_isometries(lam, beta, alpha)
    assert len(target) == g
    u = np.array(
        [[np.trace(tgt.T @ psi) / da for tgt in target.maps] for psi in psis]
    )
    unitary_resid = np.abs(u @ u.conj().T - np.eye(g)).max()
    if unitary_resid > tol:
        raise AssertionError(f"bend comparison not unitary: {unitary_resid:.3e}")
    return u
