"""The pair verdict of tools/bench_pairs.py, on made-up numbers, the
environment it records, and its choice of the change side's revision, its
source line count and its source tree hash, on a throwaway repository; and
the fields tools/bench_trajectory.py writes (no benchmark runs)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_trajectory  # noqa: E402
from bench_pairs import (  # noqa: E402
    change_revision,
    git,
    run_environment,
    src_lines,
    src_tree,
    verdict,
)

PARENT = [5.6, 5.5, 5.7, 5.6, 5.8, 5.5, 5.6, 5.7, 5.9, 5.6]


def test_clear_gain_on_a_lower_is_better_metric():
    change = [p - 0.4 for p in PARENT]
    v = verdict(PARENT, change, "lower", 0.25)
    assert v["wins"] == 10 and v["pairs"] == 10
    assert v["median_gain"] == pytest.approx(0.4)
    assert v["gain"] and not v["worse_than_bound"]


def test_eight_wins_of_ten_is_no_gain():
    change = [p - 0.4 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
    v = verdict(PARENT, change, "lower", 0.25)
    assert v["wins"] == 8 and not v["gain"]


def test_ties_count_for_neither_side():
    change = [p - 0.4 for p in PARENT[:9]] + [PARENT[9]]
    assert verdict(PARENT, change, "lower", 0.25)["wins"] == 9
    change = [p - 0.4 for p in PARENT[:8]] + PARENT[8:]
    assert not verdict(PARENT, change, "lower", 0.25)["gain"]


def test_every_pair_won_inside_the_parent_spread_is_no_gain():
    # parent quartiles 5.575 .. 5.725: a 0.05 median gain is inside them
    change = [p - 0.05 for p in PARENT]
    v = verdict(PARENT, change, "lower", 0.25)
    assert v["wins"] == 10
    assert v["parent_iqr"] == pytest.approx(0.15)
    assert not v["gain"]


def test_higher_is_better_metric():
    parent = [1.0 / p for p in PARENT]
    v = verdict(parent, [1.0 / (p - 0.4) for p in PARENT], "higher", 0.25)
    assert v["wins"] == 10 and v["gain"]
    v = verdict(parent, [1.0 / (p + 0.4) for p in PARENT], "higher", 0.25)
    assert v["wins"] == 0 and not v["gain"] and not v["worse_than_bound"]


def test_worse_than_bound():
    assert verdict(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25)["worse_than_bound"]
    assert not verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25)["worse_than_bound"]


def test_run_environment_records_both_variables_and_null_when_unset():
    assert run_environment({"PYTHONDONTWRITEBYTECODE": "1", "PATH": "/bin"}) == {
        "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": None}
    assert run_environment({"OPENBLAS_NUM_THREADS": "2"}) == {
        "PYTHONDONTWRITEBYTECODE": None, "OPENBLAS_NUM_THREADS": "2"}


def test_run_environment_reads_the_environment_the_runs_inherit(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert run_environment() == {"PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": None}


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A repository with one commit of src/a.py, isolated from the user's git
    configuration."""
    for var in ("AUTHOR", "COMMITTER"):
        monkeypatch.setenv(f"GIT_{var}_NAME", "bench")
        monkeypatch.setenv(f"GIT_{var}_EMAIL", "bench@example.com")
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", "/dev/null")
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    git("add", "-A", root=tmp_path)
    git("commit", "-q", "-m", "one", root=tmp_path)
    return tmp_path


def test_clean_tree_runs_from_head(repo):
    (repo / "notes.txt").write_text("untracked outside src/ is fine\n")
    assert change_revision(repo) == (git("rev-parse", "HEAD", root=repo), False)


def test_tracked_changes_run_from_a_stash_commit_of_the_tree(repo):
    (repo / "src" / "a.py").write_text("x = 2\n")
    (repo / "src" / "b.py").write_text("y = 3\n")
    git("add", "src/b.py", root=repo)
    rev, dirty = change_revision(repo)
    assert dirty and rev != git("rev-parse", "HEAD", root=repo)
    assert git("show", f"{rev}:src/a.py", root=repo) == "x = 2"
    assert git("show", f"{rev}:src/b.py", root=repo) == "y = 3"
    # the tree, the index and the stash list are left as they were
    assert (repo / "src" / "a.py").read_text() == "x = 2\n"
    assert git("diff", "--name-only", root=repo) == "src/a.py"
    assert git("diff", "--cached", "--name-only", root=repo) == "src/b.py"
    assert git("stash", "list", root=repo) == ""


def test_untracked_file_under_src_is_refused(repo):
    (repo / "src" / "new.py").write_text("z = 4\n")
    with pytest.raises(SystemExit, match="src/new.py"):
        change_revision(repo)


def test_src_lines_counts_the_package_sources_of_a_worktree(repo, tmp_path_factory):
    pkg = repo / "src" / "snrecoupling"
    pkg.mkdir()
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")  # no final newline: wc -l counts none
    (pkg / "notes.txt").write_text("not\ncounted\n")
    git("add", "-A", root=repo)
    git("commit", "-q", "-m", "two", root=repo)
    (pkg / "a.py").write_text("x = 1\n")  # the worktree sees the commit, not this
    tree = tmp_path_factory.mktemp("worktrees") / "change"
    git("worktree", "add", "--detach", str(tree), "HEAD", root=repo)
    try:
        assert src_lines(tree) == 2
    finally:
        git("worktree", "remove", "--force", str(tree), root=repo)
    assert src_lines(repo) == 1


def test_src_tree_of_a_dirty_tree_is_that_of_the_commit_that_holds_it(repo):
    head = src_tree("HEAD", repo)
    (repo / "src" / "a.py").write_text("x = 2\n")
    rev, dirty = change_revision(repo)
    assert dirty and src_tree(rev, repo) != head
    git("add", "src/a.py", root=repo)
    git("commit", "-q", "-m", "two", root=repo)
    assert src_tree("HEAD", repo) == src_tree(rev, repo)
    assert src_tree("HEAD~1", repo) == head


def test_trajectory_point_records_its_environment_and_source_lines(tmp_path, monkeypatch):
    # run_once stubbed: two seeds and one traced run per workload, no subprocess
    spec = {"command": ["run"], "run_seconds": 1, "workloads": [{"name": "w"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    pkg = tmp_path / "src" / "snrecoupling"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    calls = []

    def run_once(command, workload, seed, seconds, trace):
        calls.append((workload, seed, trace))
        metric = {"value": float(seed), "unit": "s"}
        return {"git_sha": "abc"}, {"correct": True, "metrics": {"run_s": metric}}

    monkeypatch.setattr(bench_trajectory, "ROOT", tmp_path)
    monkeypatch.setattr(bench_trajectory, "run_once", run_once)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert bench_trajectory.main(["--label", "t", "--seeds", "2"]) == 0
    assert calls == [("w", 1, 0), ("w", 2, 0), ("w", 1, 1)]
    (out,) = tmp_path.glob("BENCH_*_t.json")
    point = json.loads(out.read_text())
    assert point["environment"] == {"PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": None}
    assert point["src_lines"] == 2
    assert point["provenance"] == {"git_sha": "abc"}
    assert point["workloads"]["w"]["end_to_end"]["run_s"]["values"] == [1.0, 2.0]
