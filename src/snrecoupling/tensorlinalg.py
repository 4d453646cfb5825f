"""Dense linear algebra and tensor-index utilities shared by all modules.

Index convention, fixed globally: subsystems are ordered A, B, C within one
copy, copies are ordered 1..k, and the copy index is always the slowest.
``np.kron`` follows the row-major convention (left factor slowest), so nested
kron products and row-major reshapes (as in ``partial_trace``, the
intertwiner solver and the recoupling contraction) reproduce exactly this
layout.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ValidationError

DEFAULT_RANK_RTOL = 1e-10


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm, pairwise-summed."""
    a = np.asarray(a)
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def fix_vector_sign(v: np.ndarray) -> np.ndarray:
    """Deterministic phase: the first entry within a relative 1e-12 of the largest
    magnitude is made positive real, so a roundoff tie cannot flip the sign.

    Works row-wise: an array of more than one axis has each row (along the
    last axis) fixed on its own, exactly as that row alone would be.  A zero
    vector is returned unchanged."""
    mag = np.abs(v)
    first = np.argmax(mag >= (1.0 - 1e-12) * mag.max(axis=-1, keepdims=True), axis=-1)
    rows = v.reshape(-1, v.shape[-1])
    pivot = rows[np.arange(len(rows)), first.ravel()].reshape(*first.shape, 1)
    if np.iscomplexobj(v):
        size = np.abs(pivot)
        phase = np.conj(pivot) / np.where(size > 0, size, 1.0)
        return v * np.where(size > 0, phase, 1.0)
    return v * np.where(pivot < 0, -1.0, 1.0)


def orthonormal_nullspace(a: np.ndarray) -> list[np.ndarray]:
    """Orthonormal basis of the nullspace of ``a`` by SVD thresholding.

    Singular values at or below DEFAULT_RANK_RTOL * max(sigma_max, 1) count as
    zero, so a matrix whose singular values are all roundoff has a full
    nullspace.  The floor of 1 assumes O(1) entries, as in the generator
    equations the tests pass; scale other matrices first.  Each basis vector
    gets the deterministic sign convention of ``fix_vector_sign``.  Nothing in
    the package calls this; it stays because the benchmark's tracer rebinds
    it by name, and the tests use it as a nullspace oracle.
    """
    a = np.asarray(a)
    if a.size == 0:
        n = a.shape[1] if a.ndim == 2 else 0
        return [fix_vector_sign(e) for e in np.eye(n)]
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    cutoff = DEFAULT_RANK_RTOL * max(s[0] if s.size else 0.0, 1.0)
    rank = int(np.sum(s > cutoff))
    return [fix_vector_sign(np.conj(vh[i])) for i in range(rank, a.shape[1])]


def hermitian_eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues sorted non-increasingly with matching orthonormal columns."""
    h = np.asarray(h)
    scale = hs_norm(h)
    if hs_norm(h - h.conj().T) > 1e-10 * max(scale, 1e-300):
        raise ValidationError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(vals, kind="stable")[::-1]
    return vals[order], vecs[:, order]


def tensor_shape(dims) -> tuple[int, ...]:
    """The one check of tensor factors: one integer >= 1 or a non-empty sequence of
    them, numpy integers included and bools, floats and strings refused."""
    shape = tuple(dims) if np.iterable(dims) else (dims,)
    if not shape or not all(
        isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 1 for d in shape
    ):
        raise ValidationError(f"all tensor factors must be integers >= 1: {shape}")
    return tuple(map(int, shape))


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all factors not listed in ``keep`` (indices into dims)."""
    dims = tensor_shape(dims)
    n = len(dims)
    keep = sorted(set(int(i) for i in keep))
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise ValidationError(f"keep indices {keep} out of range for {n} factors")
    total = int(np.prod(dims))
    m = np.asarray(m)
    if m.shape != (total, total):
        raise ValidationError(f"matrix shape {m.shape} does not match dims {dims}")
    t = m.reshape(dims + dims)
    # einsum with integer subscripts: kept row/col axes stay distinct,
    # traced axes share one index between row and col.
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(t, row + col, out)
    kept_dim = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(kept_dim, kept_dim)
