"""Span recording around the public layer functions of snrecoupling.

Tracing rebinds each traced name, in every ``snrecoupling`` module namespace
that holds it, to a wrapper that times the call.  The package's source files
are not touched.  Spans are aggregated in memory as they close, per traced
function: call count, inclusive time, self time (inclusive time minus the
time of traced calls made inside it), how many calls repeated an argument
tuple already seen in this process, and the largest operator size observed.
The aggregates are read once, when the workload has finished.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import math
import sys
import time

import numpy as np

from reference import sk_dim


def _operator_dim(args, kwargs):
    return (args[0] if args else kwargs["mat"]).shape[0]


def _ball_dim(args, kwargs):
    dims = args[1] if len(args) > 1 else kwargs["dims"]
    k = args[2] if len(args) > 2 else kwargs["k"]
    return math.prod(int(d) for d in dims) ** int(k)


def _cg_product(args, kwargs):
    labels = list(args[:3]) + [kwargs[n] for n in ("alpha", "beta", "lam")[len(args):]]
    return math.prod(sk_dim(tuple(int(r) for r in lam)) for lam in labels)


@dataclasses.dataclass(frozen=True)
class Traced:
    """One traced public name.

    ``keyed`` records argument tuples to measure how often calls repeat;
    ``observe`` maps a call's arguments to a size whose maximum is kept.
    """

    module: str
    attr: str
    keyed: bool = False
    observe: object = None

    @property
    def span(self) -> str:
        return f"{self.module}.{self.attr}"


TRACED = (
    Traced("cli", "main"),
    Traced("experiments", "cmd_overlap_certificate"),
    Traced("recoupling", "full_recoupling_unitary"),
    Traced("recoupling", "recoupling_tensor", keyed=True),
    Traced("intertwiner", "kronecker_coefficient", keyed=True),
    Traced("intertwiner", "cg_isometries", keyed=True, observe=_cg_product),
    Traced("schurweyl", "ball_sum_projector", observe=_ball_dim),
    Traced("schurweyl", "trace_with_tensor_power", observe=_operator_dim),
    Traced("quantumstates", "DensityMatrix.__post_init__"),
    Traced("quantumstates", "spectra_tuple"),
    Traced("repsym", "character", keyed=True),
    Traced("repsym", "young_orthogonal_rep"),
    Traced("tensorlinalg", "orthonormal_nullspace"),
    Traced("tensorlinalg", "hermitian_eigensystem"),
    Traced("tensorlinalg", "partial_trace"),
    Traced("combinatorics", "check_partition"),
)


def _freeze(value):
    """Hashable stand-in for an argument, equal for equal contents."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, np.ndarray):
        digest = hashlib.blake2b(np.ascontiguousarray(value).tobytes(), digest_size=16)
        return (value.shape, value.dtype.str, digest.digest())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            _freeze(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    return value


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    repeats: int = 0
    observed_max: int = 0
    seen: set = dataclasses.field(default_factory=set, repr=False)


class Recorder:
    """Installs the wrappers and holds the aggregated spans."""

    def __init__(self):
        self.stats = {t.span: SpanStats() for t in TRACED}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, traced: Traced, fn):
        stats = self.stats[traced.span]
        stack = self._stack
        clock = time.perf_counter
        keyed, observe = traced.keyed, traced.observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keyed:
                key = _freeze((args, sorted(kwargs.items())))
                if key in stats.seen:
                    stats.repeats += 1
                else:
                    stats.seen.add(key)
            if observe is not None:
                stats.observed_max = max(stats.observed_max, int(observe(args, kwargs)))
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def install(self) -> None:
        owners = {t.module: importlib.import_module(f"snrecoupling.{t.module}") for t in TRACED}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "snrecoupling" or n.startswith("snrecoupling.")]
        for traced in TRACED:
            owner = owners[traced.module]
            if "." in traced.attr:
                cls_name, method = traced.attr.split(".")
                cls = getattr(owner, cls_name)
                self._rebind(cls, method, self._wrap(traced, cls.__dict__[method]))
                continue
            original = getattr(owner, traced.attr)
            wrapper = self._wrap(traced, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, wrapper)

    def _rebind(self, target, name, value) -> None:
        self._undo.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def uninstall(self) -> None:
        while self._undo:
            target, name, value = self._undo.pop()
            setattr(target, name, value)

    def summary(self) -> dict[str, dict]:
        return {
            span: {
                "calls": s.calls,
                "total_s": s.total_s,
                "self_s": s.self_s,
                "repeat_ratio": s.repeats / s.calls if s.calls else 0.0,
                "observed_max": s.observed_max,
            }
            for span, s in self.stats.items()
        }


# per-layer metric name -> (span, field); the units live in run.py
LAYER_METRICS = {
    "cli.self_s": ("cli.main", "self_s"),
    "experiments.cmd_overlap_certificate.self_s": ("experiments.cmd_overlap_certificate", "self_s"),
    "recoupling.full_recoupling_unitary.self_s": ("recoupling.full_recoupling_unitary", "self_s"),
    "recoupling.recoupling_tensor.calls": ("recoupling.recoupling_tensor", "calls"),
    "recoupling.recoupling_tensor.self_s": ("recoupling.recoupling_tensor", "self_s"),
    "recoupling.recoupling_tensor.repeat_ratio": ("recoupling.recoupling_tensor", "repeat_ratio"),
    "intertwiner.kronecker_coefficient.calls": ("intertwiner.kronecker_coefficient", "calls"),
    "intertwiner.kronecker_coefficient.self_s": ("intertwiner.kronecker_coefficient", "self_s"),
    "intertwiner.kronecker_coefficient.repeat_ratio": ("intertwiner.kronecker_coefficient", "repeat_ratio"),
    "intertwiner.cg_isometries.calls": ("intertwiner.cg_isometries", "calls"),
    "intertwiner.cg_isometries.self_s": ("intertwiner.cg_isometries", "self_s"),
    "intertwiner.cg_isometries.repeat_ratio": ("intertwiner.cg_isometries", "repeat_ratio"),
    "intertwiner.cg_isometries.max_product": ("intertwiner.cg_isometries", "observed_max"),
    "schurweyl.ball_sum_projector.calls": ("schurweyl.ball_sum_projector", "calls"),
    "schurweyl.ball_sum_projector.self_s": ("schurweyl.ball_sum_projector", "self_s"),
    "schurweyl.trace_with_tensor_power.calls": ("schurweyl.trace_with_tensor_power", "calls"),
    "schurweyl.trace_with_tensor_power.self_s": ("schurweyl.trace_with_tensor_power", "self_s"),
    "quantumstates.DensityMatrix.calls": ("quantumstates.DensityMatrix.__post_init__", "calls"),
    "quantumstates.DensityMatrix.self_s": ("quantumstates.DensityMatrix.__post_init__", "self_s"),
    "quantumstates.spectra_tuple.calls": ("quantumstates.spectra_tuple", "calls"),
    "quantumstates.spectra_tuple.self_s": ("quantumstates.spectra_tuple", "self_s"),
    "repsym.character.calls": ("repsym.character", "calls"),
    "repsym.character.self_s": ("repsym.character", "self_s"),
    "repsym.character.repeat_ratio": ("repsym.character", "repeat_ratio"),
    "repsym.young_orthogonal_rep.calls": ("repsym.young_orthogonal_rep", "calls"),
    "repsym.young_orthogonal_rep.self_s": ("repsym.young_orthogonal_rep", "self_s"),
    "tensorlinalg.orthonormal_nullspace.calls": ("tensorlinalg.orthonormal_nullspace", "calls"),
    "tensorlinalg.orthonormal_nullspace.self_s": ("tensorlinalg.orthonormal_nullspace", "self_s"),
    "tensorlinalg.hermitian_eigensystem.calls": ("tensorlinalg.hermitian_eigensystem", "calls"),
    "tensorlinalg.hermitian_eigensystem.self_s": ("tensorlinalg.hermitian_eigensystem", "self_s"),
    "tensorlinalg.partial_trace.calls": ("tensorlinalg.partial_trace", "calls"),
    "tensorlinalg.partial_trace.self_s": ("tensorlinalg.partial_trace", "self_s"),
    "combinatorics.check_partition.calls": ("combinatorics.check_partition", "calls"),
    "combinatorics.check_partition.self_s": ("combinatorics.check_partition", "self_s"),
}


def layer_metrics(summary: dict[str, dict]) -> dict[str, float]:
    """Per-layer metric values from one traced run, plus schurweyl.dense_dim_max."""
    out = {name: summary[span][field] for name, (span, field) in LAYER_METRICS.items()}
    out["schurweyl.dense_dim_max"] = max(
        summary["schurweyl.ball_sum_projector"]["observed_max"],
        summary["schurweyl.trace_with_tensor_power"]["observed_max"],
    )
    return out
