"""Record one point of the benchmark trajectory as BENCH_<date>_<label>.json.

    python3 tools/bench_trajectory.py --label LABEL [--seeds N]

Run from anywhere; it measures the checkout it lives in.  For each workload
in BENCHMARK.json it runs the unchanged ``bench/run.py`` once untraced for
each seed 1..N and once traced (``--trace 1``, seed 1), one after another,
each for the ``run_seconds`` of BENCHMARK.json, so that every point is taken
at the benchmark's own run length.  The file it writes at the root of the checkout holds, per workload:

    end_to_end  each end-to-end metric over the N seeds: its unit, the
                values, their median and quartiles
    per_layer   the traced run's per-layer metrics
    correct     whether every run's output checks passed

plus the provenance line of the first run (git SHA, package and numpy
versions, BLAS and its thread count), ``environment``, the values of
PYTHONDONTWRITEBYTECODE and OPENBLAS_NUM_THREADS that every run inherits
(null when unset), and ``src_lines``, the newline count of
src/snrecoupling/*.py.  Exit code 1 if any run failed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800
# the variables a run inherits that change its timings: whether each run
# compiles the package afresh, and how many threads numpy's BLAS starts
ENVIRONMENT = ("PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS")


def run_environment(env=os.environ) -> dict:
    """The value of each variable of ENVIRONMENT in env, None when unset."""
    return {name: env.get(name) for name in ENVIRONMENT}


def src_lines(root: Path) -> int:
    """Newlines in src/snrecoupling/*.py under root, as ``wc -l`` totals them."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "snrecoupling").glob("*.py"))


def run_once(command: list[str], workload: str, seed: int, seconds: float,
             trace: int, root: Path = ROOT) -> tuple[dict, dict]:
    """One bench/run.py call in the checkout at root: its provenance line
    and its result line."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: no result "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (values[0], values[0]))
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="tag in the output file name")
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    provenance, workloads, correct = None, {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        series: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        ok = True
        for seed in range(1, args.seeds + 1):
            prov, result = run_once(spec["command"], workload, seed, seconds, 0)
            provenance = provenance or prov
            ok &= result["correct"]
            for name, metric in result["metrics"].items():
                series.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: run_s {result['metrics']['run_s']['value']:.4g}",
                  file=sys.stderr)
        _, traced = run_once(spec["command"], workload, 1, seconds, 1)
        ok &= traced["correct"]
        workloads[workload] = {
            "end_to_end": {name: {"unit": units[name], **summarize(v)}
                           for name, v in series.items()},
            "per_layer": traced["metrics"],
            "correct": ok,
        }
        correct &= ok

    date = datetime.date.today().isoformat()
    out = ROOT / f"BENCH_{date}_{args.label}.json"
    out.write_text(json.dumps({
        "date": date, "label": args.label, "seconds": seconds,
        "seeds": list(range(1, args.seeds + 1)), "traced_seed": 1,
        "provenance": provenance, "environment": run_environment(),
        "src_lines": src_lines(ROOT), "workloads": workloads,
    }, indent=1) + "\n")
    print(out, file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
