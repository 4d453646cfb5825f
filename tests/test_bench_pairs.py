"""The pair verdict of tools/bench_pairs.py, on made-up numbers (no benchmark runs)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from bench_pairs import verdict  # noqa: E402

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
