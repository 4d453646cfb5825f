"""Density matrices, marginal spectra, entropies and random-state sampling.

Entropies are in bits throughout.  Tripartite states live on
C^a (x) C^b (x) C^c with subsystem A slowest, matching the global index
convention of :mod:`snrecoupling.tensorlinalg`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .tensorlinalg import hermitian_eigensystem, hs_norm, partial_trace

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD trace-one matrix with subsystem dimension metadata."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        mat = np.asarray(self.matrix, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        total = int(np.prod(self.dims))
        if mat.shape != (total, total):
            raise ValidationError(
                f"matrix shape {mat.shape} does not match dims {self.dims}"
            )
        if not np.isfinite(mat).all():
            raise ValidationError("matrix has NaN or infinite entries")
        herm = hs_norm(mat - mat.conj().T)
        if herm > HERMITICITY_TOL:
            raise ValidationError(f"not Hermitian: residual {herm:.3e}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace differs from 1 by {abs(tr - 1.0):.3e}")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < EIGENVALUE_FLOOR:
            raise ValidationError(f"negative eigenvalue {min_eig:.3e}")

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

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


def von_neumann_entropy(arg) -> float:
    """Base-2 entropy of a probability vector or a density matrix."""
    if isinstance(arg, DensityMatrix):
        probs = arg.spectrum()
    else:
        arr = np.asarray(arg)
        if arr.ndim == 2:
            vals, _ = hermitian_eigensystem(arr)
            probs = clamp_spectrum(vals)
        else:
            probs = clamp_spectrum(arr)
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
    bit-identical matrices.
    """
    dims = (dims,) if isinstance(dims, int) else tuple(int(d) for d in dims)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    d = int(np.prod(dims))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    m = (m + m.conj().T) / 2
    return DensityMatrix(dims=dims, matrix=m)


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


def state_from_json(payload: dict) -> DensityMatrix:
    try:
        dims = tuple(int(d) for d in payload["dims"])
        raw = payload["matrix"]
        mat = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in raw]
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValidationError(f"malformed state file: {exc}") from exc
    return DensityMatrix(dims=dims, matrix=mat)


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
