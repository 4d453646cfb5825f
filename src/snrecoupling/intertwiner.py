"""Kronecker coefficients and explicit orthonormal intertwiner bases.

An intertwiner basis for the triple (alpha, beta, lam) is one read-only real
array of shape (g, dim[alpha]*dim[beta], dim[lam]): its g rows phi_i commute
with the group action and are normalized so tr(phi_j^T phi_i) = dim[lam] *
delta_ij.
Each phi_i is then an isometric embedding of [lam] into [alpha] (x) [beta].
Entries are convention-dependent (any orthonormal mixing of the multiplicity
space is equally valid); only norms, Gram matrices and block unitarity are
basis-independent.

The bases come from the Gelfand-Tsetlin structure of Young's orthogonal form
(Vershik-Okounkov): the images of the first standard tableau T1 of [lam]
span the joint eigenspace of the Jucys-Murphy elements on [alpha] (x) [beta]
at T1's contents, and Young's step carries them to every other tableau.
That eigenspace is cut out by polynomial projectors, since on it each X_{j+1}
can only take the contents of the cells addable to the shape of T1's entries
1..j.  Each unordered label set is solved once, in the orientation with the
smallest pair product dim[alpha]*dim[beta]: the label of largest dimension is
the target.  Every other orientation, the tensor-factor swap included, is an
axis permutation of that invariant tensor, the S_k analogue of the
permutation symmetry of 3j-symbols.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import permutations

import numpy as np

from .combinatorics import (
    Partition,
    _addable_contents,
    _sk_dimension,
    _tableau_contents,
    _tableau_moves,
    check_labels,
    conjugacy_classes,
    partition_counts,
    sk_dimension,
)
from .errors import ResourceLimitError, ValidationError
from .repsym import _character_row, _cycle_matrix, young_orthogonal_rep
from .tensorlinalg import fix_vector_sign

DEFAULT_PRODUCT_CAP = 2_000_000
CLASS_COUNT_CAP = 6_000  # admits k <= 30: p(30) = 5,604, p(31) = 6,842
EQUIVARIANCE_TOL = 1e-9
BEND_TOL = 1e-8


def kronecker_coefficient(alpha, beta, lam) -> int:
    """Multiplicity of [lam] inside [alpha] (x) [beta], exact integer (memoized).

    Its character sum has one term per conjugacy class of S_k: above
    ``CLASS_COUNT_CAP`` classes it raises ResourceLimitError before any
    character is computed.
    """
    labels = check_labels(alpha, beta, lam)
    _check_class_count(sum(labels[2]))
    return _kronecker_coefficient(*labels)


@cache
def _class_counts(cap: int) -> tuple[int, ...]:
    """p(0), p(1), ... through the first value above cap."""
    counts = []
    for p in partition_counts():
        counts.append(p)
        if p > cap:
            return tuple(counts)


def _check_class_count(k: int) -> None:
    """Refuse a k whose S_k has more than ``CLASS_COUNT_CAP`` (read at each
    call) conjugacy classes.  p(k) never decreases in k, so the recurrence
    stops at the first value above the cap, however large k is."""
    counts = _class_counts(CLASS_COUNT_CAP)
    if k >= len(counts) - 1:
        raise ResourceLimitError(
            f"S_{k} has p({k}) >= {counts[-1]} conjugacy classes, "
            f"above the cap {CLASS_COUNT_CAP}"
        )


@cache
def _kronecker_coefficient(alpha: Partition, beta: Partition, lam: Partition) -> int:
    k = sum(lam)
    rows = map(_character_row, (alpha, beta, lam))
    total = sum(
        size * a * b * c for (_, size), a, b, c in zip(conjugacy_classes(k), *rows)
    )
    g, rem = divmod(total, math.factorial(k))
    assert rem == 0, "character sum must be divisible by k!"
    assert g >= 0
    return g


def cg_isometries(alpha, beta, lam) -> np.ndarray:
    """Orthonormal intertwiner basis [lam] -> [alpha] (x) [beta].

    Returns the g = kronecker_coefficient(alpha, beta, lam) maps as one
    read-only C-contiguous array of shape (g, dim[alpha]*dim[beta],
    dim[lam]); iterating over it yields the maps, and when g = 0 it is
    empty, so test it with ``len()``, not truthiness.

    The label set is solved once, in its canonical orientation: the label
    of largest dimension (then the larger partition) as target, the other
    two larger partition first.  Any other orientation gets the canonical
    maps with their axes permuted and scaled by sqrt(dim[lam] / dim[target]).
    The solve checks that the trace of its exact-content projector is the
    Kronecker coefficient; each returned map gets the sign of
    ``fix_vector_sign`` and equivariance is re-checked on the fixed k-cycle
    (0 1 ... k-1), which is not the identity for any k >= 2.
    ``DEFAULT_PRODUCT_CAP``, read at each call, bounds n**2 for the pair
    product n of the canonical orientation: the entry count of the dense
    Jucys-Murphy operator the solver holds.  Since g * dim[target] <= n
    there, it also bounds the g * dim[alpha] * dim[beta] * dim[lam] floats
    of the returned maps.  Every label set at k <= 7 fits it.  Larger ones,
    and every k above ``CLASS_COUNT_CAP`` classes, raise ResourceLimitError
    before any character sum or allocation.
    """
    alpha, beta, lam = check_labels(alpha, beta, lam)
    # the canonical pair holds the two smallest dimensions
    small, second, _ = sorted(map(_sk_dimension, (alpha, beta, lam)))
    size = (small * second) ** 2
    if size > DEFAULT_PRODUCT_CAP:
        raise ResourceLimitError(
            f"Jucys-Murphy operator size {size} for {(alpha, beta, lam)} "
            f"exceeds cap {DEFAULT_PRODUCT_CAP}"
        )
    _check_class_count(sum(lam))
    return _solve_cg(alpha, beta, lam)


def _apply_pair(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """kron(a, b) @ x for x of shape (da*db, m), without forming the kron."""
    da, db, m = a.shape[0], b.shape[0], x.shape[1]
    y = (a @ x.reshape(da, db * m)).reshape(da, db, m)
    return (b @ y).reshape(da * db, m)


def _canonical_orientation(labels) -> tuple[Partition, Partition, Partition]:
    """The orientation in which a label set is solved: the label of largest
    dimension (then the larger partition) is the target, the other two form
    the pair, larger partition first.  Its pair product is the smallest."""
    target = max(labels, key=lambda p: (_sk_dimension(p), p))
    rest = list(labels)
    rest.remove(target)
    return (*sorted(rest, reverse=True), target)


@cache  # unbounded: one basis per triple solved, at most p(k)^3 per k
def _solve_cg(alpha: Partition, beta: Partition, lam: Partition) -> np.ndarray:
    da, db, dl = _sk_dimension(alpha), _sk_dimension(beta), _sk_dimension(lam)
    g = _kronecker_coefficient(alpha, beta, lam)
    if g == 0:
        maps = np.zeros((0, da * db, dl))
    else:
        canon = _canonical_orientation((alpha, beta, lam))
        if canon == (alpha, beta, lam):
            reps = (young_orthogonal_rep(p) for p in canon)
            stack = _jucys_murphy_stack(*reps, g)
        else:
            # The real orthogonal irreps make T[a, b, l] = phi[(a, b), l] an
            # invariant of [alpha] (x) [beta] (x) [lam], and so is any
            # permutation of its axes: read with another axis as target and
            # scaled by sqrt(dim lam / dim of the canonical target), the
            # canonical maps are an orthonormal intertwiner basis here (the
            # bending of bend_and_compare).
            axes = next(
                p for p in permutations(range(3))
                if all(canon[i] == label for i, label in zip(p, (alpha, beta, lam)))
            )
            dims = tuple(map(_sk_dimension, canon))
            cube = _solve_cg(*canon).reshape(g, *dims)
            stack = cube.transpose(0, *(1 + a for a in axes)) * math.sqrt(dl / dims[2])
        maps = np.stack([fix_vector_sign(flat) for flat in stack.reshape(g, da * db * dl)])
        maps = maps.reshape(g, da * db, dl)
        _check_full_permutation(alpha, beta, lam, maps)
    maps.setflags(write=False)
    return maps


def _jucys_murphy_stack(rep_a, rep_b, rep_l, g: int) -> np.ndarray:
    """The g intertwiners [lam] -> [alpha] (x) [beta] as a (g, da*db, dl) stack."""
    k, dl = rep_l.k, rep_l.dim
    n = rep_a.dim * rep_b.dim
    pairs = list(zip(rep_a.generators, rep_b.generators))
    first = rep_l.basis[0]
    contents = _tableau_contents(rep_l.shape)

    # Young's orthogonal form is Gelfand-Tsetlin adapted: v_T is the joint
    # eigenvector of the Jucys-Murphy elements X_j = sum_{i<j} (i j) with
    # eigenvalues the contents c_T(j).  So the images phi_i(v_T1) of the
    # first tableau span the joint eigenspace of X_2..X_k on [alpha](x)[beta]
    # at T1's contents (X_{j+1} = G_j X_j G_j + G_j with G_j = s_j (x) s_j;
    # the X_j commute).  X_2 = G_1 is diagonal in Young's form, since 1 and
    # 2 share a row or a column of every tableau, so its eigenspace is
    # spanned by the unit vectors at `keep`, which every X_j preserves.  On
    # the joint eigenspace of X_2..X_j at T1's contents, X_{j+1} has as its
    # only eigenvalues the contents of the cells addable to the shape of
    # T1's entries 1..j (Vershik-Okounkov), so the polynomial
    # prod_{c' != c} (X_{j+1} - c') / (c - c') projects onto content c.
    if k <= 2:
        span = np.ones((1, 1))  # every irrep of S_1, S_2 is one-dimensional, and g = 1
    else:
        a, b = pairs[0]
        x_diag = np.multiply.outer(np.diag(a), np.diag(b)).reshape(n)
        keep = np.flatnonzero(x_diag == contents[0][2])
        x_j = np.diag(x_diag)
        q = np.eye(len(keep))
        for j in range(2, k):
            a, b = pairs[j - 1]
            # X is symmetric, so G X G = G (G X)^T; G itself by one broadcast
            gen = (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)
            x_j = _apply_pair(a, b, _apply_pair(a, b, x_j).T) + gen
            x_keep = x_j[np.ix_(keep, keep)]
            prefix = [m for m in (sum(e <= j for e in row) for row in first) if m]
            c = contents[0][j + 1]
            for other in _addable_contents(prefix):
                if other != c:
                    q = (q @ x_keep - other * q) / (c - other)
        trace = np.trace(q)
        assert abs(trace - g) < 1e-8, f"projector has trace {trace}, characters say {g}"
        span = np.zeros((n, g))
        span[keep] = _projector_columns(q, g)

    # Young's step from T to s_i T (axial distance d = c_T(i+1) - c_T(i)):
    # phi(v_{s_i T}) = (G_i phi(v_T) - phi(v_T) / d) / sqrt(1 - 1/d^2).
    moves = _tableau_moves(rep_l.shape)
    images = np.empty((dl, n, g))
    images[0] = span
    queue = [0]
    seen = [True] + [False] * (dl - 1)
    for t in queue:
        cont, src = contents[t], images[t]
        for i, nxt in enumerate(moves[t]):
            if nxt < 0 or seen[nxt]:
                continue
            seen[nxt] = True
            queue.append(nxt)
            d = cont[i + 1] - cont[i]
            a, b = pairs[i - 1]
            step = _apply_pair(a, b, src) - src / d
            images[nxt] = step / math.sqrt(1.0 - 1.0 / d**2)
    assert len(queue) == dl
    return images.transpose(2, 1, 0)


def _projector_columns(q: np.ndarray, g: int) -> np.ndarray:
    """g orthonormal columns spanning the range of the rank-g projector q.

    g steps of pivoted Cholesky give q = L L^T with L of g columns; q^2 = q
    then makes L^T L the identity.
    """
    cols = np.zeros((q.shape[0], g))
    resid = np.diag(q).copy()
    for t in range(g):
        p = int(np.argmax(resid))
        col = (q[:, p] - cols[:, :t] @ cols[p, :t]) / math.sqrt(resid[p])
        cols[:, t] = col
        resid -= col**2
    assert np.abs(resid).max() < 1e-8, f"projector residual {np.abs(resid).max():.3e}"
    return cols


def _check_full_permutation(alpha: Partition, beta: Partition, lam: Partition,
                            maps) -> None:
    # generators suffice because they generate S_k; verify on one
    # non-trivial word, the k-cycle (never the identity for k >= 2), to
    # catch convention bugs early.
    k = sum(lam)
    big_a, big_b, small = (_cycle_matrix(p) for p in (alpha, beta, lam))
    for phi in maps:
        resid = np.abs(_apply_pair(big_a, big_b, phi) - phi @ small).max()
        if resid > EQUIVARIANCE_TOL:
            raise AssertionError(f"equivariance violated for the {k}-cycle: {resid:.3e}")


def trivial_coupling(lam) -> np.ndarray:
    """Unit vector (1/sqrt(dim)) sum_e |e>|e> in [lam] (x) [lam]."""
    d = sk_dimension(lam)
    return np.eye(d).reshape(-1) / math.sqrt(d)


def bend_and_compare(alpha, beta, lam) -> np.ndarray:
    """Unitary relating bent intertwiners to the straight basis.

    Bending turns each phi_i: [lam] -> [alpha] (x) [beta] into
    psi_i: [alpha] -> [lam] (x) [beta] with tr(psi_j^T psi_i) =
    dim[alpha] delta_ij; the returned g x g matrix U expresses psi_i in the
    basis cg_isometries(lam, beta, alpha).  Raises if the Gram matrix
    deviates from dim[alpha] * I (an index-convention bug) or if U fails to
    be unitary, both within BEND_TOL.
    """
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
    if gram_resid > BEND_TOL * da:
        raise AssertionError(
            f"bent Gram matrix deviates from dim[alpha]*I by {gram_resid:.3e}"
        )

    target = cg_isometries(lam, beta, alpha)
    assert len(target) == g
    u = np.tensordot(psis, target, axes=((1, 2), (1, 2))) / da
    unitary_resid = np.abs(u @ u.conj().T - np.eye(g)).max()
    if unitary_resid > BEND_TOL:
        raise AssertionError(f"bend comparison not unitary: {unitary_resid:.3e}")
    return u
