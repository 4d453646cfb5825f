"""Density matrices, marginal spectra, entropies and random-state sampling.

Entropies are in bits throughout.  Tripartite states live on
C^a (x) C^b (x) C^c with subsystem A slowest, matching the global index
convention of :mod:`snrecoupling.tensorlinalg`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, check_cap, check_int
from .tensorlinalg import hermitian_eigensystem, hs_norm, partial_trace, tensor_shape

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
# largest total dimension sample_hs_random draws: a 512-dim state takes about
# 2 s and 110 MB through sample-state, a 1024-dim one 8 s and 310 MB
SAMPLE_DIM_CAP = 512


# the subsystems whose spectra the labels (alpha, beta, gamma, mu, nu, lam)
# stand for: A, B, C, AB, BC and ABC of a tripartite state (no AC)
GROUPS = ((0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2))


def group_dims(dims) -> tuple[int, ...]:
    """(a, b, c, ab, bc, abc): the dimension of each of GROUPS for local dims (a, b, c)."""
    return tuple(math.prod(dims[i] for i in keep) for keep in GROUPS)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD trace-one matrix with subsystem dimension metadata, stored
    as the Hermitian part (M + M^H) / 2 of the matrix M it was checked on.

    ``residuals`` holds what the check measured: ||M - M^H||_HS, |tr M - 1|
    and the lowest eigenvalue of the stored part.  That part's eigenvalues,
    clipped at 0, are the state's one spectrum."""

    dims: tuple[int, ...]
    matrix: np.ndarray
    residuals: dict[str, float] = field(init=False, repr=False, compare=False)
    _spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", tensor_shape(self.dims))
        mat = np.asarray(self.matrix, dtype=complex)
        total = int(np.prod(self.dims))
        if mat.shape != (total, total):
            raise ValidationError(
                f"matrix shape {mat.shape} does not match dims {self.dims}"
            )
        if not np.isfinite(mat).all():
            raise ValidationError("matrix has NaN or infinite entries")
        herm = (mat + mat.conj().T) / 2
        vals = np.linalg.eigvalsh(herm)
        res = {
            "hermiticity": hs_norm(mat - mat.conj().T),
            "trace_defect": abs(complex(np.trace(mat)) - 1.0),
            "min_eigenvalue": float(vals[0]),
        }
        if res["hermiticity"] > HERMITICITY_TOL:
            raise ValidationError(f"not Hermitian: residual {res['hermiticity']:.3e}")
        if res["trace_defect"] > TRACE_TOL:
            raise ValidationError(f"trace differs from 1 by {res['trace_defect']:.3e}")
        if res["min_eigenvalue"] < EIGENVALUE_FLOOR:
            raise ValidationError(f"negative eigenvalue {res['min_eigenvalue']:.3e}")
        spectrum = np.clip(vals[::-1], 0.0, None)
        for value in (herm, spectrum):
            value.setflags(write=False)
        for name, value in (("matrix", herm), ("residuals", res), ("_spectrum", spectrum)):
            object.__setattr__(self, name, value)

    def marginal(self, keep: tuple[int, ...]) -> np.ndarray:
        return partial_trace(self.matrix, self.dims, keep)

    def spectrum(self) -> np.ndarray:
        """The stored matrix's eigenvalues, clipped at 0, non-increasing, read-only."""
        return self._spectrum


class SpectraTuple(NamedTuple):
    """The six ordered marginal spectra of a tripartite state, one per entry of GROUPS."""

    r_a: np.ndarray
    r_b: np.ndarray
    r_c: np.ndarray
    r_ab: np.ndarray
    r_bc: np.ndarray
    r_abc: np.ndarray

    def as_dict(self) -> dict[str, list[float]]:
        return {name: r.tolist() for name, r in zip(self._fields, self)}


def spectra_tuple(rho: DensityMatrix) -> SpectraTuple:
    """Marginal spectra on GROUPS, non-increasing and clipped at 0."""
    if len(rho.dims) != 3:
        raise ValidationError("spectra_tuple needs a tripartite state")
    marginals = (
        np.clip(hermitian_eigensystem(rho.marginal(keep))[0], 0.0, None) for keep in GROUPS[:5]
    )
    return SpectraTuple(*marginals, rho.spectrum())


def von_neumann_entropy(probs) -> float:
    """Base-2 entropy of a probability vector, such as ``rho.spectrum()``;
    an entry below EIGENVALUE_FLOOR is refused, the other negatives count as 0."""
    probs = np.asarray(probs, dtype=float)
    if probs.size and float(probs.min()) < EIGENVALUE_FLOOR:
        raise ValidationError(f"negative eigenvalue {probs.min():.3e}")
    probs = probs[probs > 0]
    return float(-np.sum(probs * np.log2(probs)))


def ssa_gap(s: SpectraTuple) -> float:
    """H(AB) + H(BC) - H(B) - H(ABC), from the spectra of ``spectra_tuple``."""
    return (
        von_neumann_entropy(s.r_ab)
        + von_neumann_entropy(s.r_bc)
        - von_neumann_entropy(s.r_b)
        - von_neumann_entropy(s.r_abc)
    )


def weak_mono_gap(s: SpectraTuple) -> float:
    """H(AB) + H(BC) - H(A) - H(C), from the spectra of ``spectra_tuple``."""
    return (
        von_neumann_entropy(s.r_ab)
        + von_neumann_entropy(s.r_bc)
        - von_neumann_entropy(s.r_a)
        - von_neumann_entropy(s.r_c)
    )


def _capped_dims(dims) -> tuple[tuple[int, ...], int]:
    """Canonical tensor factors and their total dimension, refused above
    SAMPLE_DIM_CAP (read at each call)."""
    dims = tensor_shape(dims)
    d = math.prod(dims)
    check_cap("state dimension", d, SAMPLE_DIM_CAP)
    return dims, d


def sample_hs_random(dims, seed) -> DensityMatrix:
    """Hilbert-Schmidt random state: rho = G G^dag / tr, Ginibre G.

    ``seed`` may be an integer >= 0 or a numpy Generator; equal integer seeds
    give bit-identical matrices.  A total dimension above SAMPLE_DIM_CAP is
    refused before anything is drawn.
    """
    dims, d = _capped_dims(dims)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(
        check_int(seed, "seed", 0))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix(dims=dims, matrix=m / np.trace(m).real)


def pure_state(vec: np.ndarray, dims) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(dims=dims, matrix=np.outer(v, v.conj()))


def ghz_state() -> DensityMatrix:
    """(|000> + |111>)/sqrt(2) on three qubits."""
    v = np.zeros(8)
    v[0] = v[7] = 1.0
    return pure_state(v, (2, 2, 2))


def maximally_mixed(dims) -> DensityMatrix:
    """I / d on the given factors; a total dimension above SAMPLE_DIM_CAP is
    refused before the identity is allocated."""
    dims, d = _capped_dims(dims)
    return DensityMatrix(dims=dims, matrix=np.eye(d) / d)


# ---------------------------------------------------------------------------
# state file format: {"dims": [a, b, c], "matrix": [[[re, im], ...], ...]}

def state_to_json(rho: DensityMatrix) -> dict:
    mat = [
        [[float(z.real), float(z.imag)] for z in row]
        for row in np.asarray(rho.matrix)
    ]
    return {"dims": list(rho.dims), "matrix": mat}


def _entry(entry) -> complex:
    """One matrix entry of a state file: exactly two real numbers, [re, im]."""
    if len(entry) != 2 or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry
    ):
        raise ValidationError(f"entry {entry!r} is not two real numbers")
    return complex(*entry)


def state_from_json(payload: dict) -> DensityMatrix:
    try:
        dims = tensor_shape(payload["dims"])
        mat = np.array([[_entry(entry) for entry in row] for row in payload["matrix"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed state file: {exc}") from exc
    return DensityMatrix(dims, mat)


def spectra_from_json(payload: dict) -> SpectraTuple:
    """Inverse of SpectraTuple.as_dict."""
    try:
        return SpectraTuple(
            *(np.asarray(payload[name], dtype=float) for name in SpectraTuple._fields)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed spectra file: {exc!r}") from exc


def load_json(path):
    """Parsed contents of a JSON file; unreadable or malformed files raise ValidationError."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read JSON from {path}: {exc}") from exc


def load_state(path) -> DensityMatrix:
    return state_from_json(load_json(path))
