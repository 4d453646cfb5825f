"""Compare the benchmark of a parent commit and this checkout in alternating pairs.

    python3 tools/bench_pairs.py --parent REF --workload NAME [--pairs 10] [--first-seed S]

Run from anywhere; the change side is the working tree of the checkout this
file lives in, as it stands.  Both sides run from like checkouts: REF, and
the commit ``git stash create`` makes of the tree's tracked changes (HEAD
when there are none), are each checked out with ``git worktree add
--detach`` into a temporary directory, which is removed again however the
run ends.  Untracked files under src/ are refused, since the stash commit
would not carry them.  Pair i runs each side's own, unchanged
``bench/run.py --trace 0`` at seed S + i for the ``run_seconds`` of
BENCHMARK.json, the parent first in even pairs and the change first in odd
ones.

For each end-to-end metric of BENCHMARK.json it prints both sides' values,
medians and quartiles and the number of pairs the change wins, ties counting
for neither, and gives the verdict of the pair rule: a gain only when the
change wins at least nine tenths of the pairs and the medians differ, in the
better direction, by more than the distance between the parent's quartiles.
It also flags a change median worse than the parent's by more than the
metric's bound.  With them it prints and records ``src_lines``, the newline
count of src/snrecoupling/*.py (the total of ``wc -l``) on each side, so that
a claim of less code is checked in next to its measurements, and ``src_tree``,
the hash of each side's src/ tree (``git rev-parse <rev>:src``): a run of an
uncommitted tree is thereby tied to the commit that later holds the same
sources.  It also prints and records ``environment``, the values of
PYTHONDONTWRITEBYTECODE and OPENBLAS_NUM_THREADS that every run inherits
(null when unset): the first decides whether each run compiles the package
afresh, the second how many threads numpy's BLAS starts.  Everything goes to
PAIRS_<date>_<workload>_<parent>_<change>.json at the root of the checkout.
Exit code 1 if any run failed its output checks.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_trajectory import ROOT, run_environment, run_once, src_lines, summarize

GAIN_SHARE = 0.9


def git(*args: str, root: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def change_revision(root: Path = ROOT) -> tuple[str, bool]:
    """The commit the change side runs from, and whether the tree has tracked
    changes: ``git stash create`` (which leaves the tree and the stash list as
    they are), or HEAD on a clean tree.  Exits on untracked files under src/."""
    untracked = [line[3:] for line in git("status", "--porcelain", root=root).splitlines()
                 if line.startswith("?? src/")]
    if untracked:
        raise SystemExit(f"untracked files under src/ would not be benchmarked: {untracked}")
    stash = git("stash", "create", root=root)
    return (stash, True) if stash else (git("rev-parse", "HEAD", root=root), False)


def src_tree(rev: str, root: Path = ROOT) -> str:
    """The hash of the src/ tree of revision rev; equal for every commit, stash
    commits included, whose src/ holds the same files."""
    return git("rev-parse", f"{rev}:src", root=root)


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Pair i is parent[i] against change[i]; better is "lower" or "higher",
    bound the largest tolerated relative worsening of the change's median."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    base, after = summarize(parent), summarize(change)
    gain = sign * (base["median"] - after["median"])  # > 0 when the change is better
    return {
        "wins": wins,
        "pairs": len(parent),
        "median_gain": gain,
        "parent_iqr": base["q3"] - base["q1"],
        "gain": wins >= GAIN_SHARE * len(parent) and gain > base["q3"] - base["q1"],
        "worse_than_bound": -gain > bound * abs(base["median"]),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    parent_sha = git("rev-parse", "--short", args.parent)
    change_rev, dirty = change_revision()
    src_hashes = {"parent": src_tree(args.parent), "change": src_tree(change_rev)}
    change = git("rev-parse", "--short", "HEAD") + ("-dirty" if dirty else "")
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    series = {side: {name: [] for name in metrics} for side in ("parent", "change")}
    provenance, correct, order = {}, True, []

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        try:
            for side, rev in (("parent", args.parent), ("change", change_rev)):
                git("worktree", "add", "--detach", str(trees[side]), rev)
            lines = {side: src_lines(tree) for side, tree in trees.items()}
            for i in range(args.pairs):
                seed = args.first_seed + i
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                order.append(list(sides))
                for side in sides:
                    prov, result = run_once(spec["command"], args.workload, seed, seconds,
                                            0, root=trees[side])
                    provenance.setdefault(side, prov)
                    correct &= result["correct"]
                    for name in metrics:
                        series[side][name].append(result["metrics"][name]["value"])
                print(f"pair {i + 1}/{args.pairs} seed {seed}: run_s parent "
                      f"{series['parent']['run_s'][-1]:.6g} change "
                      f"{series['change']['run_s'][-1]:.6g}", file=sys.stderr)
        finally:
            for tree in trees.values():
                if tree.exists():
                    git("worktree", "remove", "--force", str(tree))

    report = {}
    for name, m in metrics.items():
        before, after = series["parent"][name], series["change"][name]
        report[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                        "parent": summarize(before), "change": summarize(after),
                        **verdict(before, after, m["better"], m["bound"])}
        r = report[name]
        print(f"{name:<12} parent {r['parent']['median']:.6g} "
              f"({r['parent']['q1']:.6g} .. {r['parent']['q3']:.6g})  change "
              f"{r['change']['median']:.6g} ({r['change']['q1']:.6g} .. "
              f"{r['change']['q3']:.6g}) {m['unit']}  wins {r['wins']}/{r['pairs']}  "
              f"{'GAIN' if r['gain'] else 'no gain'}"
              f"{'  WORSE THAN BOUND' if r['worse_than_bound'] else ''}")

    print(f"src_lines    parent {lines['parent']}  change {lines['change']}")
    print(f"src_tree     parent {src_hashes['parent']}  change {src_hashes['change']}")
    environment = run_environment()
    print("environment  " + "  ".join(f"{k}={v}" for k, v in environment.items()))
    date = datetime.date.today().isoformat()
    out = ROOT / f"PAIRS_{date}_{args.workload}_{parent_sha}_{change}.json"
    out.write_text(json.dumps({
        "date": date, "workload": args.workload, "parent": parent_sha, "change": change,
        "seconds": seconds, "seeds": list(range(args.first_seed, args.first_seed + args.pairs)),
        "order": order, "correct": correct, "provenance": provenance, "src_lines": lines,
        "src_tree": src_hashes, "environment": environment, "metrics": report,
    }, indent=1) + "\n")
    print(out, file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
