"""The snrecoupling benchmark: one workload, measured from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition is a fresh interpreter
(``bench/worker.py``) with cold memo caches, because every CLI invocation
pays that cost; repetitions run one after another (a closed loop, one
client) until the next one would end after S seconds, with at least
MIN_REPS of them.  The package runs with its CLI defaults (``--threads 1``)
and OpenBLAS at its default thread count.  To run every workload, loop over
the names in BENCHMARK.json.

``--trace 0`` reports the end-to-end metrics over the repetitions:

    setup_s       interpreter start until the package is imported and the
                  seeded inputs are written (median)
    run_s         wall time of the workload's calls (fastest repetition)
    items_per_s   workload items completed per second (fastest repetition)
    peak_rss_mb   ru_maxrss of the repetition's own process (median)
    ok_ratio      operations that passed their output check / attempted
                  (1 - failed_ratio; the end-to-end metrics are never 0)

Run time is the fastest repetition, not the median, because on a shared
host the speed of a core can drop by a third for several seconds at a time
(measured on a 2-vCPU VM: CPU time tracks wall time, so the work itself runs
slower).  Such noise only ever adds time, so the fastest cold repetition is
the steady estimate of what the workload costs; the median and quartiles are
printed beside it.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of :mod:`tracing` from the fastest traced repetition, plus
``trace_overhead_s``: its ``run_s`` minus that of the fastest untraced one.

The last stdout line is the JSON result; the line before it holds the
provenance.  A readable table goes to stderr, and every repetition's raw
numbers to ``.bench_work/<workload>-seed<N>-trace<T>.json``.  The exit code
is 1 when an output check failed and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

MIN_REPS = 3
MIN_TRACED_REPS = 2
CHILD_TIMEOUT_S = 150

# how each end-to-end series is reduced to the reported value
ESTIMATORS = {
    "setup_s": statistics.median,
    "run_s": min,
    "items_per_s": max,
    "peak_rss_mb": statistics.median,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".repeat_ratio"):
        return "ratio"
    if name.endswith(("max_product", "dense_dim_max")):
        return "dim"
    return "s"


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_rep(workload: str, seed: int, work: Path, traced: bool, small: bool) -> dict:
    """One repetition in a fresh interpreter; adds setup_s and the wall time."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--work", str(work)]
    argv += ["--trace"] * traced + ["--small"] * small
    spawned = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.monotonic() - spawned
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    rep = json.loads(lines[-1])
    rep.update(traced=traced, wall_s=wall, setup_s=rep["ready"] - spawned)
    return rep


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "snrecoupling" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'snrecoupling'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_work"
    work = out_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    kinds = [False, True] if args.trace else [False]
    needed = MIN_TRACED_REPS if args.trace else MIN_REPS

    reps, attempted, failed = [], 0, 0
    start = time.monotonic()
    try:
        while True:
            traced = kinds[len(reps) % len(kinds)]
            try:
                rep = run_rep(args.workload, args.seed, work, traced, args.small)
            except (RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
                print(f"{args.workload}: repetition failed: {exc}", file=sys.stderr)
                attempted, failed = attempted + 1, failed + 1
                break
            reps.append(rep)
            attempted += len(rep["ops"])
            failed += sum(1 for op in rep["ops"] if op["errors"])
            counts = {k: sum(1 for r in reps if r["traced"] == k) for k in kinds}
            if all(counts[k] >= needed for k in kinds) and \
                    time.monotonic() - start + rep["wall_s"] > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    series: dict[str, list[float]] = {}
    if plain:
        series = {
            "setup_s": [r["setup_s"] for r in plain],
            "run_s": [r["run_s"] for r in plain],
            "items_per_s": [
                sum(op["items"] for op in r["ops"] if not op["errors"]) / r["run_s"]
                for r in plain
            ],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
    layers: dict[str, float] = {}
    if traced_reps and plain:
        for name in traced_reps[0]["layers"]:
            values = [r["layers"][name] for r in traced_reps]
            if name.endswith(".calls") and len(set(values)) > 1:
                print(f"{args.workload}: {name} differs between repetitions: {values}",
                      file=sys.stderr)
        fastest = min(traced_reps, key=lambda r: r["run_s"])
        layers = dict(fastest["layers"])
        layers["trace_overhead_s"] = fastest["run_s"] - min(series["run_s"])

    correct = failed == 0 and bool(plain) and (not args.trace or bool(layers))
    if args.trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
    elif plain:
        metrics = {name: {"value": ESTIMATORS[name](v), "unit": END_TO_END_UNITS[name]}
                   for name, v in series.items()}
        metrics["ok_ratio"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}
    else:
        metrics = {}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "item": workload.item,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "repetitions": {"untraced": len(plain), "traced": len(traced_reps)},
        **(reps[0]["provenance"] if reps else {}),
    }
    out_dir.mkdir(exist_ok=True)
    details = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details.write_text(json.dumps(
        {"provenance": provenance, "attempted": attempted, "failed": failed,
         "series": series, "metrics": metrics,
         "repetitions": [{k: v for k, v in r.items() if k != "provenance"} for r in reps]},
        indent=1,
    ))

    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(plain)} untraced, {len(traced_reps)} traced", file=sys.stderr)
    for name, values in series.items():
        lo, hi = quartiles(values)
        print(f"  {name:<12} {ESTIMATORS[name](values):12.6g} {END_TO_END_UNITS[name]:<5} "
              f"({ESTIMATORS[name].__name__} of {len(values)}; median {statistics.median(values):.6g}, "
              f"quartiles {lo:.6g} .. {hi:.6g})", file=sys.stderr)
    print(f"  ok_ratio     {(attempted - failed) / attempted:12.6g} ratio "
          f"(failed_ratio {failed}/{attempted} = {failed / attempted:.6g})", file=sys.stderr)
    if args.trace:
        for name, value in layers.items():
            print(f"  {name:<48} {value:14.6g} {layer_unit(name)}", file=sys.stderr)

    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
