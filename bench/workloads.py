"""The benchmark workloads: seeded inputs, the calls, and output checks.

BENCHMARK.json lists unitary_k6 and certificate_k3.  recoupling_scan,
spectrum_k26 and trial_loops stay runnable by name but are not listed: they
spend their time in pure-Python loops and tiny numpy calls, and on a shared
2-vCPU host their run time moved by 11-31% (quartile spread over ten runs)
and by up to 42% between sets of runs an hour apart, against at most 25%
that the benchmark's bounds may allow.

Each workload drives the package the way a user does, through
``snrecoupling.cli.main`` with ``--out`` to a file in the run's work
directory.  The exception is ``unitary_k6``: no subcommand exposes
``full_recoupling_unitary``, so it is called directly.

Every check compares an output with a basis-independent identity or with an
exact reference from :mod:`reference`; a check returns the list of its
violations, empty when the output is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

RESIDUAL_TOL = 1e-8
UNITARY_TOL = 1e-8
GATE_TOL = 1e-9
TRACE_TOL = 1e-9
# The cycle-type sum behind projected_trace cancels terms far larger than the
# tail it returns; against the exact value its double-precision tail is off by
# a few 1e-9 relative at k = 26 and ~7e-8 at k = 30.
TAIL_RTOL = 1e-7
TAIL_BOUND = 1e-3  # cmd_spectrum_estimation's default tail gate, left as it is
SPECTRUM_DIAG = (Fraction(9, 10), Fraction(1, 10))


@dataclass
class Op:
    """One call into the program, its workload items and its output check."""

    name: str
    items: Callable[[], int]  # evaluated after the timed calls
    call: Callable[[], object]
    check: Callable[[object], list[str]]


def _json_lines(path: Path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def _write_state(path: Path, dims, matrix: np.ndarray) -> None:
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in matrix]
    path.write_text(json.dumps({"dims": list(dims), "matrix": entries}))


def _exit_code(expected: int, rc) -> list[str]:
    return [] if rc == expected else [f"exit code {rc!r}, expected {expected}"]


# ---------------------------------------------------------------------------
# recoupling_scan: scan-recoupling, the memo-hit path

def check_scan(text: str, k: int, max_rows: int | None) -> list[str]:
    """Swap residuals vanish and block norms obey unitarity of the recoupling matrix.

    For fixed (alpha, beta, gamma, lam) the mu column blocks of the unitary
    have squared norm sum_mu g(alpha beta mu) g(mu gamma lam).  The scan sees
    the rows of the nu it enumerates, so its sum equals that number when every
    nu with g(beta gamma nu) g(alpha nu lam) > 0 is scanned, and is at most
    that number otherwise.
    """
    parts = ref.partitions(k, max_rows)
    rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    errors = []
    if len(rows) != len(parts) ** 6:
        errors.append(f"{len(rows)} rows, expected {len(parts) ** 6}")
    sums: dict[tuple, float] = {}
    for row in rows:
        for key in ("swap_bl_residual", "swap_ag_residual"):
            if not row[key] <= RESIDUAL_TOL:
                errors.append(f"{key} {row[key]:.3e} at {row['labels']}")
        a, b, c, _, _, lam = (tuple(p) for p in row["labels"])
        sums[(a, b, c, lam)] = sums.get((a, b, c, lam), 0.0) + row["hs"] ** 2
    every = ref.partitions(k)
    for (a, b, c, lam) in product(parts, repeat=4):
        got = sums.get((a, b, c, lam), 0.0)
        want = ref.multiplicity(a, b, c, lam, parts)
        complete = all(
            nu in parts for nu in every
            if ref.kronecker(b, c, nu) * ref.kronecker(a, nu, lam) > 0
        )
        if (abs(got - want) if complete else got - want) > RESIDUAL_TOL * max(1, want):
            errors.append(f"sum of hs^2 {got!r} vs multiplicity {want} at {(a, b, c, lam)}")
    return errors[:20]


def scan_ops(work: Path, seed: int, k: int, max_rows: int | None):
    from snrecoupling import cli

    out = work / "scan.jsonl"
    argv = ["scan-recoupling", "--k", str(k), "--out", str(out)]
    if max_rows is not None:
        argv += ["--max-rows", str(max_rows)]

    def items():
        return len(ref.partitions(k, max_rows)) ** 6

    def check(rc):
        return _exit_code(0, rc) or check_scan(out.read_text(), k, max_rows)

    return [Op("scan-recoupling", items, lambda: cli.main(argv), check)]


# ---------------------------------------------------------------------------
# unitary_k6: full_recoupling_unitary, the memo-miss path

def unitary_blocks(labels) -> tuple[list, list]:
    a, b, c, lam = labels
    every = ref.partitions(sum(lam))
    mus = [m for m in every if ref.kronecker(a, b, m) * ref.kronecker(m, c, lam) > 0]
    nus = [n for n in every if ref.kronecker(b, c, n) * ref.kronecker(a, n, lam) > 0]
    return mus, nus


def check_unitary(matrix: np.ndarray, labels) -> list[str]:
    a, b, c, lam = labels
    size = ref.multiplicity(a, b, c, lam, ref.partitions(sum(lam)))
    matrix = np.asarray(matrix)
    if matrix.shape != (size, size):
        return [f"shape {matrix.shape}, expected {(size, size)}"]
    resid = max(
        np.abs(matrix.T @ matrix - np.eye(size)).max(),
        np.abs(matrix @ matrix.T - np.eye(size)).max(),
    )
    return [] if resid <= UNITARY_TOL else [f"|U^T U - I| = {resid:.3e}"]


def unitary_ops(work: Path, seed: int, labels):
    from snrecoupling import recoupling

    def items():
        mus, nus = unitary_blocks(labels)
        return len(mus) * len(nus)

    return [Op(
        "full_recoupling_unitary",
        items,
        lambda: recoupling.full_recoupling_unitary(*labels),
        lambda result: check_unitary(result.matrix, labels),
    )]


# ---------------------------------------------------------------------------
# certificate: overlap-certificate on an HS-random tripartite state

def hs_random_state(dims, seed) -> np.ndarray:
    """rho = G G^dag / tr for a Ginibre G drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return (m + m.conj().T) / 2


def _marginal_spectrum(matrix: np.ndarray, dims, keep) -> np.ndarray:
    n = len(dims)
    t = matrix.reshape(tuple(dims) * 2)
    col = [n + i if i in keep else i for i in range(n)]
    reduced = np.einsum(t, list(range(n)) + col, list(keep) + [n + i for i in keep])
    side = math.prod(dims[i] for i in keep)
    vals = np.linalg.eigvalsh(reduced.reshape(side, side))
    return np.clip(vals[::-1], 0.0, None)


def certificate_balls(matrix: np.ndarray, dims, k: int, delta: float) -> dict[str, int]:
    """Ball sizes from marginal spectra computed here, not by the package."""
    groups = {"alpha": (0,), "beta": (1,), "gamma": (2,),
              "mu": (0, 1), "nu": (1, 2), "lam": (0, 1, 2)}
    sizes = {}
    for name, keep in groups.items():
        r = _marginal_spectrum(matrix, dims, keep)
        rows = math.prod(dims[i] for i in keep)
        ball = 0
        for lam in ref.partitions(k, rows):
            v = np.zeros(max(len(lam), r.size))
            v[: len(lam)] = np.asarray(lam) / k
            v[: r.size] -= r
            ball += float(np.abs(v).sum()) <= delta
        sizes[name] = ball
    return sizes


def check_certificate(records: list[dict], balls: dict[str, int]) -> list[str]:
    summary = records[-1]
    items = [r for r in records if r.get("record") == "item"]
    t_p, t_q, t_pq = summary["t_p"], summary["t_q"], summary["t_pq_abs"]
    errors = []
    for name, value in (("t_p", t_p), ("t_q", t_q)):
        if not -GATE_TOL <= value <= 1 + GATE_TOL:
            errors.append(f"{name} = {value!r} outside [0, 1]")
    if not summary["sum_hs"] >= t_pq - GATE_TOL:
        errors.append(f"first chain inequality fails: {summary['sum_hs']!r} < {t_pq!r}")
    if not t_pq >= t_p - math.sqrt(max(0.0, 1.0 - t_q)) - GATE_TOL:
        errors.append(f"second chain inequality fails at t_pq = {t_pq!r}")
    if not math.isclose(summary["sum_hs"], sum(r["hs"] for r in items), rel_tol=1e-12, abs_tol=1e-12):
        errors.append("sum_hs is not the sum of the item norms")
    if summary["ball_sizes"] != balls:
        errors.append(f"ball sizes {summary['ball_sizes']}, reference {balls}")
    if summary["ball_tuple_count"] != math.prod(balls.values()):
        errors.append(f"ball_tuple_count {summary['ball_tuple_count']}")
    return errors


def certificate_ops(work: Path, seed: int, dims, k: int, delta: float):
    from snrecoupling import cli

    matrix = hs_random_state(dims, seed)
    state, out = work / "tripartite.json", work / "certificate.jsonl"
    _write_state(state, dims, matrix)
    argv = ["overlap-certificate", "--rho", str(state), "--k", str(k),
            "--delta", str(delta), "--out", str(out)]

    def check(rc):
        balls = certificate_balls(matrix, dims, k, delta)
        return _exit_code(0, rc) or check_certificate(_json_lines(out), balls)

    return [Op("overlap-certificate", lambda: 1, lambda: cli.main(argv), check)]


# ---------------------------------------------------------------------------
# spectrum: spectrum-estimation on a rotated diag(0.9, 0.1)

def rotated_qubit(seed: int) -> np.ndarray:
    """U diag(0.9, 0.1) U^dag for a seeded unitary U: the spectrum, and so
    every projected trace, does not depend on the seed."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    m = q @ np.diag([float(p) for p in SPECTRUM_DIAG]) @ q.conj().T
    return (m + m.conj().T) / 2


def spectrum_reference(k_max: int, delta: Fraction) -> tuple[dict, Fraction]:
    """Exact traces for every (k, lam) and the tail mass at k_max."""
    traces = {
        (k, lam): ref.two_row_trace(lam, SPECTRUM_DIAG[0])
        for k in range(1, k_max + 1) for lam in ref.partitions(k, 2)
    }
    on_edge = [lam for lam in ref.partitions(k_max, 2)
               if ref.l1_distance(lam, SPECTRUM_DIAG) == delta]
    if on_edge:  # the package's float distance could fall on either side
        raise ValueError(f"k_max = {k_max} puts {on_edge} on the ball edge")
    tail = sum(traces[(k_max, lam)] for lam in ref.partitions(k_max, 2)
               if ref.l1_distance(lam, SPECTRUM_DIAG) > delta)
    return traces, tail


def check_spectrum(records: list[dict], k_max: int, delta: Fraction) -> list[str]:
    traces, tail = spectrum_reference(k_max, delta)
    summary = records[-1]
    items = [r for r in records if r.get("record") == "item"]
    errors = []
    if len(items) != len(traces):
        errors.append(f"{len(items)} traces, expected {len(traces)}")
    per_k = {}
    for item in items:
        key = (item["k"], tuple(item["lam"]))
        per_k[item["k"]] = per_k.get(item["k"], 0.0) + item["trace"]
        want = traces.get(key)
        if want is None or not abs(item["trace"] - float(want)) <= TRACE_TOL:
            errors.append(f"trace {item['trace']!r} at {key}, reference {want}")
    for k, total in per_k.items():
        if not abs(total - 1.0) <= TRACE_TOL:
            errors.append(f"traces at k = {k} sum to {total!r}")
    got = summary["tail_at_k_max"]
    if not abs(got - float(tail)) <= TAIL_RTOL * float(tail):
        errors.append(f"tail_at_k_max {got!r}, reference {float(tail)!r}")
    if summary["gate_tail"] != (float(tail) <= TAIL_BOUND):
        errors.append(f"gate_tail {summary['gate_tail']} disagrees with the reference tail")
    return errors[:20]


def spectrum_ops(work: Path, seed: int, k_max: int, delta: str):
    from snrecoupling import cli

    state, out = work / "qubit.json", work / "spectrum.jsonl"
    _write_state(state, (2,), rotated_qubit(seed))
    argv = ["spectrum-estimation", "--rho", str(state), "--k-max", str(k_max),
            "--delta", delta, "--format", "json", "--out", str(out)]

    def items():
        return sum(len(ref.partitions(k, 2)) for k in range(1, k_max + 1))

    def check(rc):
        # The tail gate fails on this input (the known criterion-5 result),
        # so exit code 1 is the expected, correct outcome.
        return _exit_code(1, rc) or check_spectrum(_json_lines(out), k_max, Fraction(delta))

    return [Op("spectrum-estimation", items, lambda: cli.main(argv), check)]


# ---------------------------------------------------------------------------
# trial_loops: ssa-scan and overlap-bound-fuzz

def _entropy_bits(vals: np.ndarray) -> float:
    p = vals[vals > 0]
    return float(-np.sum(p * np.log2(p)))


def ssa_trial_reference(seed: int, trial: int) -> tuple[float, float]:
    """(ssa_gap, weak_mono_gap) of trial i, recomputed from its documented
    stream default_rng((seed, i)) with the marginals taken here."""
    m = hs_random_state((2, 2, 2), (seed, trial))
    h = {keep: _entropy_bits(_marginal_spectrum(m, (2, 2, 2), keep))
         for keep in ((0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2))}
    ssa = h[(0, 1)] + h[(1, 2)] - h[(1,)] - h[(0, 1, 2)]
    weak = h[(0, 1)] + h[(1, 2)] - h[(0,)] - h[(2,)]
    return ssa, weak


def check_ssa(records: list[dict], n: int, seed: int) -> list[str]:
    items = [r for r in records if r.get("record") == "item"]
    errors = []
    if len(items) != n + 1:
        return [f"{len(items)} items, expected {n} trials and the GHZ probe"]
    for key in ("ssa_gap", "weak_mono_gap"):
        low = min(r[key] for r in items)
        if not low >= -GATE_TOL:
            errors.append(f"minimum {key} {low!r} is negative")
    ghz = [r for r in items if r["trial"] == "ghz_probe"]
    if len(ghz) != 1 or not abs(ghz[0]["ssa_gap"] - 1.0) <= GATE_TOL:
        errors.append(f"GHZ probe {ghz}, expected an SSA gap of 1")
    for r in items[:3]:  # a spot check; all n would double each repetition's wall time
        ssa, weak = ssa_trial_reference(seed, r["trial"])
        if not (abs(r["ssa_gap"] - ssa) <= GATE_TOL and abs(r["weak_mono_gap"] - weak) <= GATE_TOL):
            errors.append(f"trial {r['trial']} gaps differ from the recomputed {(ssa, weak)}")
    return errors


def check_fuzz(records: list[dict], n: int) -> list[str]:
    items = [r for r in records if r.get("record") == "item"]
    if len(items) != n:
        return [f"{len(items)} trials, expected {n}"]
    errors = [f"trial {r['trial']} violates the bound, slack {r['slack']!r}"
              for r in items if not r["slack"] >= -GATE_TOL]
    errors += [f"trial {r['trial']} slack is not lhs - rhs"
               for r in items if not abs(r["slack"] - (r["lhs"] - r["rhs"])) <= 1e-12]
    if records[-1]["violations"] != 0:
        errors.append(f"summary reports {records[-1]['violations']} violations")
    return errors[:20]


def trial_seeds(seed: int) -> dict[str, int]:
    ssa_seed, fuzz_seed = np.random.default_rng(seed).integers(0, 2**31, size=2)
    return {"ssa_seed": int(ssa_seed), "fuzz_seed": int(fuzz_seed)}


def trial_ops(work: Path, seed: int, n: int):
    from snrecoupling import cli

    seeds = trial_seeds(seed)
    (work / "trial_seeds.json").write_text(json.dumps(seeds))
    ssa_out, fuzz_out = work / "ssa.jsonl", work / "fuzz.jsonl"
    ssa_argv = ["ssa-scan", "--n", str(n), "--seed", str(seeds["ssa_seed"]), "--out", str(ssa_out)]
    fuzz_argv = ["overlap-bound-fuzz", "--n", str(n), "--seed", str(seeds["fuzz_seed"]),
                 "--out", str(fuzz_out)]
    return [
        Op("ssa-scan", lambda: n, lambda: cli.main(ssa_argv),
           lambda rc: _exit_code(0, rc) or check_ssa(_json_lines(ssa_out), n, seeds["ssa_seed"])),
        Op("overlap-bound-fuzz", lambda: n, lambda: cli.main(fuzz_argv),
           lambda rc: _exit_code(0, rc) or check_fuzz(_json_lines(fuzz_out), n)),
    ]


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    item: str
    build: Callable[..., list[Op]]
    full: dict
    small: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload("recoupling_scan", "six-tuple", scan_ops,
                 full={"k": 4, "max_rows": 3}, small={"k": 3, "max_rows": None}),
        Workload("unitary_k6", "(mu; nu) block", unitary_ops,
                 full={"labels": ((4, 2), (4, 2), (4, 2), (3, 3))},
                 small={"labels": ((2, 1), (2, 1), (2, 1), (2, 1))}),
        Workload("certificate_k3", "certificate", certificate_ops,
                 full={"dims": (2, 2, 3), "k": 3, "delta": 1.0},
                 small={"dims": (2, 2, 2), "k": 2, "delta": 1.0}),
        Workload("spectrum_k26", "(k, lam) trace", spectrum_ops,
                 full={"k_max": 26, "delta": "0.3"}, small={"k_max": 10, "delta": "0.3"}),
        Workload("trial_loops", "trial", trial_ops,
                 full={"n": 1500}, small={"n": 40}),
    )
}
