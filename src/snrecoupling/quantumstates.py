"""Density matrices, marginal spectra, entropies and random-state sampling.

Entropies are in bits throughout.  Tripartite states live on
C^a (x) C^b (x) C^c with subsystem A slowest, matching the global index
convention of :mod:`snrecoupling.tensorlinalg`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .tensorlinalg import hermitian_eigensystem, hs_norm, partial_trace, tensor_shape

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
# largest total dimension sample_hs_random draws: a 512-dim state takes about
# 2 s and 110 MB through sample-state, a 1024-dim one 8 s and 310 MB
SAMPLE_DIM_CAP = 512


def state_residuals(mat: np.ndarray) -> dict[str, float]:
    """The three quantities DensityMatrix checks a finite matrix against:
    ||M - M^H||_HS, |tr M - 1| and the lowest eigenvalue of the Hermitian
    part (M + M^H) / 2, the matrix it stores."""
    return {
        "hermiticity": hs_norm(mat - mat.conj().T),
        "trace_defect": abs(complex(np.trace(mat)) - 1.0),
        "min_eigenvalue": float(np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0]),
    }


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD trace-one matrix with subsystem dimension metadata, stored
    as the Hermitian part (M + M^H) / 2 of the matrix it was checked on."""

    dims: tuple[int, ...]
    matrix: np.ndarray

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
        res = state_residuals(mat)
        if res["hermiticity"] > HERMITICITY_TOL:
            raise ValidationError(f"not Hermitian: residual {res['hermiticity']:.3e}")
        if res["trace_defect"] > TRACE_TOL:
            raise ValidationError(f"trace differs from 1 by {res['trace_defect']:.3e}")
        if res["min_eigenvalue"] < EIGENVALUE_FLOOR:
            raise ValidationError(f"negative eigenvalue {res['min_eigenvalue']:.3e}")
        herm = (mat + mat.conj().T) / 2
        herm.setflags(write=False)
        object.__setattr__(self, "matrix", herm)

    def marginal(self, keep: tuple[int, ...]) -> np.ndarray:
        return partial_trace(self.matrix, self.dims, keep)

    def spectrum(self) -> np.ndarray:
        vals, _ = hermitian_eigensystem(self.matrix)
        return clamp_spectrum(vals)


@dataclass(frozen=True)
class SpectraTuple:
    """The six ordered marginal spectra of a tripartite state (no AC)."""

    r_a: np.ndarray
    r_b: np.ndarray
    r_c: np.ndarray
    r_ab: np.ndarray
    r_bc: np.ndarray
    r_abc: np.ndarray

    def as_dict(self) -> dict[str, list[float]]:
        return {
            "r_a": self.r_a.tolist(),
            "r_b": self.r_b.tolist(),
            "r_c": self.r_c.tolist(),
            "r_ab": self.r_ab.tolist(),
            "r_bc": self.r_bc.tolist(),
            "r_abc": self.r_abc.tolist(),
        }


def clamp_spectrum(vals: np.ndarray) -> np.ndarray:
    """Zero out numerically-negative eigenvalues; reject real negativity."""
    vals = np.asarray(vals, dtype=float)
    if vals.size and float(vals.min()) < EIGENVALUE_FLOOR:
        raise ValidationError(f"negative eigenvalue {vals.min():.3e}")
    return np.clip(vals, 0.0, None)


def spectra_tuple(rho: DensityMatrix) -> SpectraTuple:
    """Marginal spectra (A, B, C, AB, BC, ABC), each sorted non-increasingly."""
    if len(rho.dims) != 3:
        raise ValidationError("spectra_tuple needs a tripartite state")

    def spec(keep):
        vals, _ = hermitian_eigensystem(rho.marginal(keep))
        return clamp_spectrum(vals)

    return SpectraTuple(
        r_a=spec((0,)),
        r_b=spec((1,)),
        r_c=spec((2,)),
        r_ab=spec((0, 1)),
        r_bc=spec((1, 2)),
        r_abc=rho.spectrum(),
    )


def von_neumann_entropy(probs) -> float:
    """Base-2 entropy of a probability vector, such as ``rho.spectrum()``."""
    probs = clamp_spectrum(probs)
    probs = probs[probs > 0]
    return float(-np.sum(probs * np.log2(probs)))


def ssa_gap(rho: DensityMatrix) -> float:
    """H(AB) + H(BC) - H(B) - H(ABC)."""
    s = spectra_tuple(rho)
    return (
        von_neumann_entropy(s.r_ab)
        + von_neumann_entropy(s.r_bc)
        - von_neumann_entropy(s.r_b)
        - von_neumann_entropy(s.r_abc)
    )


def weak_mono_gap(rho: DensityMatrix) -> float:
    """H(AB) + H(BC) - H(A) - H(C)."""
    s = spectra_tuple(rho)
    return (
        von_neumann_entropy(s.r_ab)
        + von_neumann_entropy(s.r_bc)
        - von_neumann_entropy(s.r_a)
        - von_neumann_entropy(s.r_c)
    )


def sample_hs_random(dims, seed) -> DensityMatrix:
    """Hilbert-Schmidt random state: rho = G G^dag / tr, Ginibre G.

    ``seed`` may be an int or a numpy Generator; equal integer seeds give
    bit-identical matrices.  A total dimension above SAMPLE_DIM_CAP is
    refused before anything is drawn.
    """
    dims = tensor_shape((dims,) if isinstance(dims, int) else dims)
    d = math.prod(dims)
    if d > SAMPLE_DIM_CAP:
        raise ResourceLimitError(f"state dimension {d} above {SAMPLE_DIM_CAP}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix(dims=dims, matrix=m / np.trace(m).real)


def pure_state(vec: np.ndarray, dims) -> DensityMatrix:
    dims = (dims,) if isinstance(dims, int) else tuple(int(d) for d in dims)
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(dims=dims, matrix=np.outer(v, v.conj()))


def ghz_state() -> DensityMatrix:
    """(|000> + |111>)/sqrt(2) on three qubits."""
    v = np.zeros(8)
    v[0] = v[7] = 1.0
    return pure_state(v, (2, 2, 2))


def maximally_mixed(dims) -> DensityMatrix:
    dims = (dims,) if isinstance(dims, int) else tuple(int(d) for d in dims)
    d = int(np.prod(dims))
    return DensityMatrix(dims=dims, matrix=np.eye(d) / d)


# ---------------------------------------------------------------------------
# state file format: {"dims": [a, b, c], "matrix": [[[re, im], ...], ...]}

def state_to_json(rho: DensityMatrix) -> dict:
    mat = [
        [[float(z.real), float(z.imag)] for z in row]
        for row in np.asarray(rho.matrix)
    ]
    return {"dims": list(rho.dims), "matrix": mat}


def matrix_from_json(payload: dict) -> tuple[tuple[int, ...], np.ndarray]:
    """The dims and the complex matrix of a state file, as written, unchecked."""
    try:
        dims = tuple(int(d) for d in payload["dims"])
        raw = payload["matrix"]
        mat = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in raw]
        )
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"malformed state file: {exc}") from exc
    return dims, mat


def state_from_json(payload: dict) -> DensityMatrix:
    return DensityMatrix(*matrix_from_json(payload))


def spectra_from_json(payload: dict) -> SpectraTuple:
    """Inverse of SpectraTuple.as_dict."""
    try:
        return SpectraTuple(
            **{f.name: np.asarray(payload[f.name], dtype=float) for f in fields(SpectraTuple)}
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed spectra file: {exc!r}") from exc


def save_state(rho: DensityMatrix, path) -> None:
    Path(path).write_text(json.dumps(state_to_json(rho)))


def load_json(path):
    """Parsed contents of a JSON file; unreadable or malformed files raise ValidationError."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read JSON from {path}: {exc}") from exc


def load_state(path) -> DensityMatrix:
    return state_from_json(load_json(path))
