"""Malformed labels raise ValidationError at every public entry point.

The kernels below these functions do not re-validate, so each entry point
must reject an empty partition, a zero row, increasing rows and labels of
different k before any work is done.
"""

import ast
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import snrecoupling
from snrecoupling import cli, combinatorics
from snrecoupling.errors import ValidationError
from snrecoupling.experiments import cmd_overlap_certificate
from snrecoupling.intertwiner import cg_isometries, kronecker_coefficient
from snrecoupling.quantumstates import sample_hs_random, state_to_json
from snrecoupling.recoupling import column_swap_check, full_recoupling_unitary, recoupling_tensor
from snrecoupling.repsym import character, young_orthogonal_rep
from snrecoupling.schurweyl import isotypic_projector

SRC = Path(__file__).resolve().parent.parent / "src" / "snrecoupling"
# the label checks, and the public functions that run them
VALIDATING = {"check_labels", "check_partition", "cg_isometries", "young_orthogonal_rep",
              "recoupling_tensor"}

GOOD = (2, 1)
BAD = {"empty": (), "zero row": (2, 1, 0), "increasing": (1, 2), "other k": (2, 2)}
ENTRY_POINTS = {
    kronecker_coefficient: 3,
    cg_isometries: 3,
    character: 2,
    young_orthogonal_rep: 1,
    recoupling_tensor: 6,
    full_recoupling_unitary: 4,
    column_swap_check: 6,
}
CASES = [
    pytest.param(fn, slot, bad, id=f"{fn.__name__}-{slot}-{bad}")
    for fn, arity in ENTRY_POINTS.items()
    for slot in range(arity)
    for bad in BAD
    if arity > 1 or bad != "other k"
]


@pytest.mark.parametrize("fn, slot, bad", CASES)
def test_entry_point_rejects_malformed_label(fn, slot, bad):
    args = [GOOD] * ENTRY_POINTS[fn]
    args[slot] = BAD[bad]
    with pytest.raises(ValidationError):
        fn(*args)


@pytest.mark.parametrize("fn", list(ENTRY_POINTS), ids=lambda fn: fn.__name__)
def test_entry_point_accepts_well_formed_labels(fn):
    fn(*[GOOD] * ENTRY_POINTS[fn])


def count_calls(monkeypatch, name="check_partition") -> Counter:
    """Clear every memo of the package and count calls of the combinatorics
    function `name` by caller."""
    modules = [m for key, m in sys.modules.items() if key.startswith("snrecoupling.")]
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    original = getattr(combinatorics, name)
    callers = Counter()

    def counted(*args):
        callers[sys._getframe(1).f_code.co_name] += 1
        return original(*args)

    for module in modules:
        if vars(module).get(name) is original:
            monkeypatch.setattr(module, name, counted)
    return callers


def test_labels_are_validated_where_they_enter(monkeypatch):
    # A cold full_recoupling_unitary((4,2), (4,2), (4,2), (3,3)) validates
    # its 4 labels once, in check_labels.  Its 12 vertex triples and the
    # representations of its 6 canonical solves are derived from them, so
    # no kernel below the entry point re-validates.
    callers = count_calls(monkeypatch)
    snrecoupling.full_recoupling_unitary((4, 2), (4, 2), (4, 2), (3, 3))
    assert callers == {"check_labels": 4}


def test_a_scan_checks_each_tuple_once_per_public_call(monkeypatch, tmp_path):
    # scan-recoupling --k 3 makes three public calls per six-tuple: the
    # block and the two column swaps, whose four swapped blocks read the
    # kernel with the labels already checked
    callers = count_calls(monkeypatch, "check_labels")
    out = tmp_path / "scan.jsonl"
    assert cli.main(["scan-recoupling", "--k", "3", "--out", str(out)]) == 0
    tuples = len(out.read_text().splitlines())
    assert tuples == 3**6
    assert callers == {"recoupling_tensor": tuples, "column_swap_check": tuples,
                       "column_swap_check_ag": tuples}


def validating_calls(source: str) -> list[tuple[str, str]]:
    """(function, name) for each use of a VALIDATING name, called or passed on,
    inside a function whose name starts with an underscore."""
    return [(fn.name, node.id) for fn in ast.walk(ast.parse(source))
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
            for node in ast.walk(fn)
            if isinstance(node, ast.Name) and node.id in VALIDATING]


@pytest.mark.parametrize("module", ["recoupling.py", "intertwiner.py"])
def test_kernels_call_no_validating_function(module):
    assert validating_calls((SRC / module).read_text()) == []


def test_a_validating_call_in_a_kernel_is_reported():
    source = (
        "def entry(a):\n"
        "    return _kernel(check_labels(a))\n"
        "def _kernel(a):\n"
        "    return [cg_isometries(*a), _solve_cg(*a), *map(check_partition, a)]\n"
    )
    assert validating_calls(source) == [("_kernel", "cg_isometries"),
                                        ("_kernel", "check_partition")]


def test_overlap_checks_its_six_labels_once(monkeypatch, tmp_path):
    # cli checks the labels where they enter; the ball coefficients of the
    # group algebra read them as checked (12 calls when both checked them)
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(state_to_json(sample_hs_random((2, 2, 3), 5))))
    callers = count_calls(monkeypatch)
    argv = ["overlap", "--rho", str(path), "--labels", "2,1/2,1/2,1/2,1/2,1/3",
            "--out", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    assert callers == {"check_labels": 6}


def test_isotypic_projector_checks_its_label_once(monkeypatch):
    # the two dense builders share one private builder of checked labels
    callers = count_calls(monkeypatch)
    isotypic_projector((2, 1), 2)
    assert callers == {"check_labels": 1}


def test_ball_distances_do_not_revalidate(monkeypatch):
    # The l1 distances of a certificate's balls read the canonical partitions
    # of enumerate_partitions as they are.  A cold k = 3 certificate on a
    # (2,2,3) state makes 11 check_partition calls, one per ball label in
    # tripartite_elements, none from normalize (27, 16 of them from
    # normalize, when the distances went through it).
    rho = sample_hs_random((2, 2, 3), 5)
    callers = count_calls(monkeypatch)
    cmd_overlap_certificate(rho, 3, 1.0)
    assert "normalize" not in callers and sum(callers.values()) == 11
