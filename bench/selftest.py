"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the package's own test run.  They use
the workloads' small sizes, so the whole file takes well under a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-layer metrics that must be non-zero on each workload: the layers it exists to load
EXPECTED_NONZERO = {
    "recoupling_scan": [
        "cli.self_s", "recoupling.recoupling_tensor.calls", "recoupling.recoupling_tensor.self_s",
        "recoupling.recoupling_tensor.repeat_ratio", "intertwiner.kronecker_coefficient.calls",
        "intertwiner.kronecker_coefficient.self_s", "intertwiner.kronecker_coefficient.repeat_ratio",
        "intertwiner.cg_isometries.calls", "repsym.character.calls", "repsym.character.self_s",
        "repsym.character.repeat_ratio", "combinatorics.check_partition.calls",
        "combinatorics.check_partition.self_s",
    ],
    "unitary_k6": [
        "recoupling.full_recoupling_unitary.self_s", "recoupling.recoupling_tensor.calls",
        "recoupling.recoupling_tensor.self_s", "intertwiner.cg_isometries.calls",
        "intertwiner.cg_isometries.self_s", "intertwiner.cg_isometries.repeat_ratio",
        "intertwiner.cg_isometries.max_product", "tensorlinalg.orthonormal_nullspace.calls",
        "tensorlinalg.orthonormal_nullspace.self_s", "repsym.young_orthogonal_rep.calls",
        "repsym.young_orthogonal_rep.self_s", "combinatorics.check_partition.calls",
    ],
    "certificate_k3": [
        "cli.self_s", "experiments.cmd_overlap_certificate.self_s",
        "schurweyl.ball_sum_projector.calls", "schurweyl.ball_sum_projector.self_s",
        "schurweyl.trace_with_tensor_power.calls", "schurweyl.trace_with_tensor_power.self_s",
        "schurweyl.dense_dim_max", "quantumstates.DensityMatrix.calls",
        "quantumstates.spectra_tuple.calls", "combinatorics.check_partition.calls",
    ],
    "spectrum_k26": [
        "cli.self_s", "repsym.character.calls", "repsym.character.self_s",
        "combinatorics.check_partition.calls", "combinatorics.check_partition.self_s",
    ],
    "trial_loops": [
        "cli.self_s", "quantumstates.DensityMatrix.calls", "quantumstates.DensityMatrix.self_s",
        "quantumstates.spectra_tuple.calls", "quantumstates.spectra_tuple.self_s",
        "tensorlinalg.hermitian_eigensystem.calls", "tensorlinalg.hermitian_eigensystem.self_s",
        "tensorlinalg.partial_trace.calls", "tensorlinalg.partial_trace.self_s",
    ],
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT, bench_dir: Path = HERE):
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def worker_outputs(workload: str, work: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "5",
         "--work", str(work), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout.splitlines()[-1])
    assert all(not op["errors"] for op in payload["ops"]), payload["ops"]
    return payload


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the code

def test_benchmark_json_lists_what_the_code_reports():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == [name for name in wl.WORKLOADS if name in listed]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = list(tracing.LAYER_METRICS) + ["schurweyl.dense_dim_max", "trace_overhead_s"]
    assert [m["name"] for m in SPEC["per_layer"]] == layer_names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in SPEC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


# ---------------------------------------------------------------------------
# the references

def test_reference_characters_and_dimensions():
    assert ref.sk_dim((3, 2, 1)) == 16 and ref.sk_dim((4, 2)) == 9
    assert sum(ref.sk_dim(lam) ** 2 for lam in ref.partitions(6)) == 720
    for lam in ref.partitions(5):
        assert ref.character(lam, (1,) * 5) == ref.sk_dim(lam)
    assert ref.character((2, 1), (3,)) == -1 and ref.character((2, 2), (2, 2)) == 2
    assert ref.kronecker((2, 1), (2, 1), (2, 1)) == 1
    assert ref.kronecker((3, 2, 1), (3, 2, 1), (3, 2, 1)) == 5


def test_reference_tail_is_the_known_criterion_5_value():
    _, tail = wl.spectrum_reference(30, Fraction(3, 10))
    assert abs(float(tail) - 5.528223e-3) < 5e-10


# ---------------------------------------------------------------------------
# each output check rejects a corrupted output

def test_scan_check_rejects_residual_and_norm_defects(tmp_path):
    worker_outputs("recoupling_scan", tmp_path)
    size = wl.WORKLOADS["recoupling_scan"].small
    text = (tmp_path / "scan.jsonl").read_text()
    assert wl.check_scan(text, **size) == []
    rows = [json.loads(line) for line in text.splitlines()]
    bad = copy.deepcopy(rows)
    bad[3]["swap_bl_residual"] = 1e-6
    assert wl.check_scan("\n".join(map(json.dumps, bad)), **size)
    bad = copy.deepcopy(rows)
    target = next(r for r in bad if r["hs"] > 0)
    target["hs"] *= 1 + 1e-6
    assert wl.check_scan("\n".join(map(json.dumps, bad)), **size)
    assert wl.check_scan("\n".join(map(json.dumps, rows[:-1])), **size)


def test_scan_check_on_a_restricted_scan_allows_incomplete_rows(tmp_path):
    from snrecoupling.cli import main

    out = tmp_path / "scan.jsonl"
    assert main(["scan-recoupling", "--k", "4", "--max-rows", "2", "--out", str(out)]) == 0
    assert wl.check_scan(out.read_text(), 4, 2) == []


def test_unitary_check_rejects_a_perturbed_or_misshapen_matrix():
    from snrecoupling.recoupling import full_recoupling_unitary

    labels = wl.WORKLOADS["unitary_k6"].small["labels"]
    matrix = full_recoupling_unitary(*labels).matrix
    assert wl.check_unitary(matrix, labels) == []
    bad = matrix.copy()
    bad[0, 0] += 1e-6
    assert wl.check_unitary(bad, labels)
    assert wl.check_unitary(matrix[:-1, :-1], labels)


def test_certificate_check_rejects_broken_traces(tmp_path):
    worker_outputs("certificate_k3", tmp_path)
    size = wl.WORKLOADS["certificate_k3"].small
    records = wl._json_lines(tmp_path / "certificate.jsonl")
    state = json.loads((tmp_path / "tripartite.json").read_text())
    matrix = np.array([[complex(*e) for e in row] for row in state["matrix"]])
    balls = wl.certificate_balls(matrix, size["dims"], size["k"], size["delta"])
    assert wl.check_certificate(records, balls) == []
    for key, value in (("t_p", 1.2), ("t_q", -0.1), ("t_pq_abs", 10.0)):
        bad = copy.deepcopy(records)
        bad[-1][key] = value
        assert wl.check_certificate(bad, balls), key
    bad = copy.deepcopy(records)
    bad[-1]["ball_sizes"]["lam"] += 1
    assert wl.check_certificate(bad, balls)


def test_spectrum_check_rejects_a_perturbed_tail_or_trace(tmp_path):
    worker_outputs("spectrum_k26", tmp_path)
    k_max = wl.WORKLOADS["spectrum_k26"].small["k_max"]
    delta = Fraction(wl.WORKLOADS["spectrum_k26"].small["delta"])
    records = wl._json_lines(tmp_path / "spectrum.jsonl")
    assert wl.check_spectrum(records, k_max, delta) == []
    bad = copy.deepcopy(records)
    bad[-1]["tail_at_k_max"] *= 1 + 1e-6
    assert wl.check_spectrum(bad, k_max, delta)
    bad = copy.deepcopy(records)
    bad[5]["trace"] += 1e-8
    assert wl.check_spectrum(bad, k_max, delta)
    assert wl._exit_code(1, 0)


def test_trial_checks_reject_violations_and_a_wrong_ghz_gap(tmp_path):
    worker_outputs("trial_loops", tmp_path)
    n = wl.WORKLOADS["trial_loops"].small["n"]
    seeds = json.loads((tmp_path / "trial_seeds.json").read_text())
    ssa = wl._json_lines(tmp_path / "ssa.jsonl")
    fuzz = wl._json_lines(tmp_path / "fuzz.jsonl")
    assert wl.check_ssa(ssa, n, seeds["ssa_seed"]) == []
    assert wl.check_fuzz(fuzz, n) == []
    bad = copy.deepcopy(ssa)
    bad[7]["weak_mono_gap"] = -1e-6
    assert wl.check_ssa(bad, n, seeds["ssa_seed"])
    bad = copy.deepcopy(ssa)
    bad[-2]["ssa_gap"] = 0.99
    assert wl.check_ssa(bad, n, seeds["ssa_seed"])
    bad = copy.deepcopy(ssa)
    bad[1]["ssa_gap"] += 1e-6
    assert wl.check_ssa(bad, n, seeds["ssa_seed"])
    bad = copy.deepcopy(fuzz)
    bad[3]["slack"] = -1e-6
    bad[3]["rhs"] = bad[3]["lhs"] + 1e-6
    assert wl.check_fuzz(bad, n)


# ---------------------------------------------------------------------------
# the command

@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_traced_run_emits_every_layer_metric(workload):
    proc = run_bench(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert [n for n in EXPECTED_NONZERO[workload] if not metrics[n]["value"] > 0] == []
    details = json.loads((ROOT / ".bench_work" / f"{workload}-seed5-trace1.json").read_text())
    traced = [r["layers"] for r in details["repetitions"] if r["traced"]]
    calls = [{k: v for k, v in layers.items() if k.endswith(".calls")} for layers in traced]
    assert len(calls) >= 2 and all(c == calls[0] for c in calls)


def test_untraced_run_prints_every_end_to_end_metric():
    proc = run_bench("trial_loops", trace=0)
    assert proc.returncode == 0, proc.stderr
    provenance = json.loads(proc.stdout.splitlines()[-2])["provenance"]
    assert provenance["seed"] == 5 and provenance["numpy_version"] == np.__version__
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in run.END_TO_END_UNITS:
        assert name in proc.stderr


def test_without_the_package_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("trial_loops", trace=0, cwd=tmp_path, bench_dir=tmp_path / "bench")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
