"""One repetition of one workload, in a fresh interpreter with cold memo caches.

    python3 bench/worker.py --workload NAME --seed N --work DIR [--trace] [--small]

Imports the package from ``src/``, writes the seeded inputs into DIR, runs
the workload's calls (optionally under span recording), checks every output
and prints one JSON object on its last stdout line.  ``ready`` is the
CLOCK_MONOTONIC time at which set-up finished, which the parent compares
with the time it started this process.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        info = {"name": None, "version": None}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*")):
        try:
            get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        info["threads"] = get()
    info.setdefault("threads", None)
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np
    import snrecoupling
    from snrecoupling import intertwiner, schurweyl

    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    size = workload.small if args.small else workload.full
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    ops = workload.build(work, args.seed, **size)
    ready = time.monotonic()

    recorder = tracing.Recorder() if args.trace else None
    if recorder:
        recorder.install()
    results = []
    start = time.perf_counter()
    for op in ops:
        try:
            results.append(op.call())
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc()
            results.append(exc)
    run_s = time.perf_counter() - start
    if recorder:
        recorder.uninstall()

    outcomes = []
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            errors = [f"raised {type(result).__name__}: {result}"]
        else:
            try:
                errors = op.check(result)
            except Exception as exc:  # malformed output the check could not read
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        outcomes.append({"op": op.name, "items": op.items(), "errors": errors})
        for error in errors:
            print(f"{workload.name}/{op.name}: {error}", file=sys.stderr)

    payload = {
        "ready": ready,
        "run_s": run_s,
        "ops": outcomes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "provenance": {
            "package_version": snrecoupling.__version__,
            "numpy_version": np.__version__,
            "blas": _blas_info(np),
            "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "caps": {"DEFAULT_PRODUCT_CAP": intertwiner.DEFAULT_PRODUCT_CAP,
                     "DENSE_CAP": schurweyl.DENSE_CAP},
            "size": dict(size),
        },
    }
    if recorder:
        payload["layers"] = tracing.layer_metrics(recorder.summary())
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
