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
at T1's contents, and Young's step carries them to every other tableau,
each from the tableau at its first descent (``RepMatrixSet.descents``).
That eigenspace is cut out by polynomial projectors, since on it each X_{j+1}
can only take the contents of the cells addable to the shape of T1's entries
1..j.  Each unordered label set is solved and signed once, in the
orientation with the smallest pair product dim[alpha]*dim[beta]: the label
of largest dimension is the target.  Every other orientation, the
tensor-factor swap included, is an exact axis permutation of that one signed
invariant tensor, the S_k analogue of the permutation symmetry of
3j-symbols.  So with a repeated label, swapping the two equal axes can give
-1 times a map (or, for g >= 2, mix the maps).
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
    check_labels,
    conjugacy_classes,
)
from .errors import check_cap
from .repsym import _character_row, _young_orthogonal_rep
from .tensorlinalg import fix_vector_sign

DEFAULT_PRODUCT_CAP = 2_000_000
EQUIVARIANCE_TOL = 1e-9
PIVOT_TIE_RTOL = 1e-10


def kronecker_coefficient(alpha, beta, lam) -> int:
    """Multiplicity of [lam] inside [alpha] (x) [beta], exact integer (memoized).

    Its character sum has one term per conjugacy class of S_k: for a k
    above ``combinatorics.K_MAX`` ``check_labels`` raises ResourceLimitError
    before any character is computed.
    """
    return _kronecker_coefficient(*check_labels(alpha, beta, lam))


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
    two larger partition first.  The solve checks that the trace of its
    exact-content projector is the Kronecker coefficient, and only its maps
    get the sign of ``fix_vector_sign``.  Any other orientation gets exactly
    the signed canonical maps with their axes permuted and scaled by
    sqrt(dim[lam] / dim[target]), not re-signed, so all orientations read
    one tensor.  With a repeated label, two orientations that differ by
    swapping the equal axes can then differ by a sign (for g >= 2, by an
    orthogonal involution of the maps).  So the maps of (alpha, beta, lam),
    bent to (lam, beta, alpha) by transposing the alpha and lam axes and
    scaled by sqrt(dim[alpha] / dim[lam]), are those of
    ``cg_isometries(lam, beta, alpha)`` up to roundoff for three distinct
    labels, and can be -1 times them otherwise.  Every
    orientation's equivariance is re-checked on the fixed k-cycle
    (0 1 ... k-1), which is not the identity for any k >= 2.
    ``DEFAULT_PRODUCT_CAP``, read at each call, bounds n**2 for the pair
    product n of the canonical orientation: the entry count of the dense
    Jucys-Murphy operator the solver holds.  Since g * dim[target] <= n
    there, it also bounds the g * dim[alpha] * dim[beta] * dim[lam] floats
    of the returned maps.  Every label set at k <= 7 fits it.  Larger ones,
    and every k above ``combinatorics.K_MAX``, raise
    ResourceLimitError before any character sum or allocation.
    """
    triple = check_labels(alpha, beta, lam)
    _check_products(triple)
    return _solve_cg(*triple)


def _check_products(*triples) -> None:
    """The product cap on checked label triples, in order, before any solve."""
    for triple in triples:
        # the canonical pair holds the two smallest dimensions
        small, second, _ = sorted(map(_sk_dimension, triple))
        check_cap("Jucys-Murphy operator entries for {}",
                  (small * second) ** 2, DEFAULT_PRODUCT_CAP, triple)


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
            reps = (_young_orthogonal_rep(p) for p in canon)
            stack = _jucys_murphy_stack(*reps, g)
            maps = fix_vector_sign(stack.reshape(g, da * db * dl)).reshape(g, da * db, dl)
        else:
            # The real orthogonal irreps make T[a, b, l] = phi[(a, b), l] an
            # invariant of [alpha] (x) [beta] (x) [lam], and so is any
            # permutation of its axes: read with another axis as target and
            # scaled by sqrt(dim lam / dim of the canonical target), the
            # signed canonical maps are an orthonormal intertwiner basis here
            # (bending a leg), and they are not re-signed.
            axes = next(
                p for p in permutations(range(3))
                if all(canon[i] == label for i, label in zip(p, (alpha, beta, lam)))
            )
            dims = tuple(map(_sk_dimension, canon))
            cube = _solve_cg(*canon).reshape(g, *dims).transpose(0, *(1 + a for a in axes))
            maps = np.multiply(cube, math.sqrt(dl / dims[2]), order="C").reshape(g, da * db, dl)
        _check_full_permutation(alpha, beta, lam, maps)
    maps.setflags(write=False)
    return maps


def _jucys_murphy_stack(rep_a, rep_b, rep_l, g: int) -> np.ndarray:
    """The g intertwiners [lam] -> [alpha] (x) [beta] as a (g, da*db, dl) stack."""
    dl = rep_l.dim
    n = rep_a.dim * rep_b.dim
    pairs = list(zip(rep_a.generators, rep_b.generators))
    first, c1 = rep_l.basis[0], rep_l.contents[0]

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
    # prod_{c' != c} (X_{j+1} - c') / (c - c') projects onto c = c_T1(j+1).
    # The product starts at its first factor (X_3 has one for every lam),
    # so no identity is formed or multiplied.
    # Each G_j is a symmetric involution and each X_j symmetric, so
    # G X G + G = G (X G + I) with X G = (G X)^T: a step is two applications
    # of the pair and one on the diagonal, and G_j is never formed.  The
    # range of the projector is read off by pivoted Cholesky, whose pivot is
    # the first index within PIVOT_TIE_RTOL of the largest residual: the
    # diagonal repeats values, and roundoff must not choose among them.
    if rep_l.k < 3:
        span = np.ones((1, 1))  # every irrep of S_1, S_2 is one-dimensional, and g = 1
    else:
        a, b = pairs[0]
        x_diag = (a.diagonal()[:, None] * b.diagonal()).reshape(n)
        keep = np.flatnonzero(x_diag == c1[2])
        m = len(keep)
        x_j = np.diag(x_diag)
        q = None
        for j in range(2, rep_l.k):
            a, b = pairs[j - 1]
            y = _apply_pair(a, b, x_j)
            y.flat[:: n + 1] += 1.0  # (G X)^T has the diagonal of G X
            x_j = _apply_pair(a, b, y.T)
            x_keep = x_j.take(keep, 0).take(keep, 1)
            c = c1[j + 1]
            # T1's rows hold consecutive entries; count those <= j in each
            prefix = [min(len(row), j + 1 - row[0]) for row in first if row[0] <= j]
            for other in (x for x in _addable_contents(prefix) if x != c):
                if q is None:
                    q = x_keep.copy()
                    q.flat[:: m + 1] -= other
                    q /= c - other
                else:
                    q = (q @ x_keep - other * q) / (c - other)
        trace = q.trace()
        assert abs(trace - g) < 1e-8, f"projector has trace {trace}, characters say {g}"
        span = np.zeros((n, g))
        span[keep] = _projector_columns(q, g)

    # Young's step from T to s_i T (axial distance d = c_T(i+1) - c_T(i)):
    # phi(v_{s_i T}) = (G_i phi(v_T) - phi(v_T) / d) / sqrt(1 - 1/d^2).
    # Tableau t > 0 comes from src = s_i T_t, i its first descent: src is earlier.
    images = np.empty((dl, n, g))
    images[0] = span
    for t in range(1, dl):
        i = rep_l.descents[t]
        src = rep_l.moves[t][i]
        d = rep_l.contents[src][i + 1] - rep_l.contents[src][i]
        a, b = pairs[i - 1]
        images[t] = (_apply_pair(a, b, images[src]) - images[src] / d) / math.sqrt(1.0 - 1.0 / d**2)
    return images.transpose(2, 1, 0)


def _projector_columns(q: np.ndarray, g: int) -> np.ndarray:
    """g orthonormal columns spanning the range of the rank-g projector q.

    g steps of pivoted Cholesky give q = L L^T with L of g columns; q^2 = q
    then makes L^T L the identity.  Each pivot is the first index whose
    residual is within a relative PIVOT_TIE_RTOL of the largest, so a
    roundoff tie (the diagonal of q often repeats one value) cannot change
    the basis.
    """
    cols = np.zeros((q.shape[0], g))
    resid = np.diag(q).copy()
    for t in range(g):
        p = int(np.argmax(resid >= (1.0 - PIVOT_TIE_RTOL) * resid.max()))
        col = (q[:, p] - cols[:, :t] @ cols[p, :t]) / math.sqrt(resid[p])
        cols[:, t] = col
        resid -= col**2
    assert np.abs(resid).max() < 1e-8, f"projector residual {np.abs(resid).max():.3e}"
    return cols


def _check_full_permutation(alpha: Partition, beta: Partition, lam: Partition,
                            maps) -> None:
    # generators suffice because they generate S_k; verify on one
    # non-trivial word, the k-cycle (never the identity for k >= 2), to
    # catch convention bugs early.  The g maps sit side by side as the
    # columns of one (n, g * dl) matrix, so both sides are one product each.
    k = sum(lam)
    big_a, big_b, small = (_young_orthogonal_rep(p).cycle for p in (alpha, beta, lam))
    stack = np.asarray(maps)
    g, n, dl = stack.shape
    cols = stack.transpose(1, 0, 2).reshape(n, g * dl)
    right = (cols.reshape(n * g, dl) @ small).reshape(n, g * dl)
    resid = np.abs(_apply_pair(big_a, big_b, cols) - right).max(initial=0.0)
    if resid > EQUIVARIANCE_TOL:
        raise AssertionError(f"equivariance violated for the {k}-cycle: {resid:.3e}")
