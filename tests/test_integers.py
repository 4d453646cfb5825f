"""Every count and seed the public API reads goes through one check, ``errors.check_int``.

A count is a Python or numpy integer that is not a bool.  Each entry below
gets a float, a whole float, a bool, a numpy bool and a string in place of
one count, and must refuse each with ValidationError before any result; a
numpy integer must give what the same Python int gives.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from snrecoupling.combinatorics import (
    check_partition,
    enumerate_partitions,
    normalize,
    round_spectrum,
    weyl_dimension,
)
from snrecoupling.errors import ValidationError, check_int
from snrecoupling.experiments import (
    cmd_converse_probe,
    cmd_dimension_ratio,
    cmd_overlap_bound_fuzz,
    cmd_overlap_certificate,
    cmd_spectrum_estimation,
    cmd_ssa_scan,
)
from snrecoupling.quantumstates import (
    DensityMatrix,
    maximally_mixed,
    sample_hs_random,
    spectra_tuple,
)
from snrecoupling.schurweyl import (
    ball_sum_projector,
    permutation_index_map,
    permutation_traces,
    tripartite_elements,
)
from snrecoupling.tensorlinalg import partial_trace, tensor_shape

SRC = Path(__file__).resolve().parent.parent / "src" / "snrecoupling"
NOT_INTEGERS = [2.7, 2.0, True, np.bool_(True), "3"]
TRI = sample_hs_random((2, 2, 2), 5)
QUBIT = DensityMatrix(dims=(2,), matrix=np.diag([0.9, 0.1]))
FOUR = np.diag([0.1, 0.2, 0.3, 0.4])

# each entry: a function of the one count it is fed, and a good value for it
ENTRIES = {
    "check_partition": (lambda n: check_partition([n, 1]), 2),
    "tensor_shape": (lambda n: tensor_shape((n, 2)), 2),
    "partial_trace": (lambda n: partial_trace(FOUR, (2, 2), (n,)), 1),
    "weyl_dimension": (lambda n: weyl_dimension((2, 1), n), 3),
    "normalize": (lambda n: normalize((2, 1), n), 3),
    "enumerate_partitions-k": (lambda n: enumerate_partitions(n), 3),
    "enumerate_partitions-max_rows": (lambda n: enumerate_partitions(4, n), 2),
    "round_spectrum": (lambda n: round_spectrum((0.5, 0.5), n), 3),
    "permutation_traces": (lambda n: permutation_traces(TRI, n), 2),
    "tripartite_elements": (lambda n: tripartite_elements(*[[(2,)]] * 6, (2, 2, 2), n).pq, 2),
    "tripartite_elements-dims": (
        lambda n: tripartite_elements(*[[(2,)]] * 6, (n, 2, 2), 2).pq, 2),
    "ball_sum_projector": (lambda n: ball_sum_projector([(2,)], (n,), 2, "A"), 2),
    "permutation_index_map": (lambda n: permutation_index_map((1, 0), (n,), 2, (True,)), 2),
    "cmd_spectrum_estimation": (lambda n: cmd_spectrum_estimation(QUBIT, n).to_json_lines(), 3),
    "cmd_ssa_scan": (lambda n: cmd_ssa_scan(n, 0).to_json_lines(), 2),
    "cmd_overlap_bound_fuzz": (lambda n: cmd_overlap_bound_fuzz(n, 0).to_json_lines(), 2),
    "cmd_ssa_scan-seed": (lambda s: cmd_ssa_scan(1, s).to_json_lines(), 3),
    "cmd_overlap_bound_fuzz-seed": (lambda s: cmd_overlap_bound_fuzz(1, s).to_json_lines(), 3),
    "sample_hs_random-seed": (lambda s: sample_hs_random((2,), s).matrix, 3),
    "cmd_overlap_certificate": (lambda n: cmd_overlap_certificate(TRI, n, 1.0).to_json_lines(),
                                2),
    "cmd_dimension_ratio": (lambda n: cmd_dimension_ratio(TRI, [2, n]).to_json_lines(), 3),
    "cmd_converse_probe": (
        lambda n: cmd_converse_probe(spectra_tuple(TRI), [1, n]).to_json_lines(), 2),
}


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("name", list(ENTRIES))
def test_entry_refuses_a_count_that_is_not_an_integer(name, bad):
    fn, _ = ENTRIES[name]
    with pytest.raises(ValidationError, match="is not an integer"):
        fn(bad)


@pytest.mark.parametrize("name", list(ENTRIES))
def test_entry_takes_a_numpy_integer_as_the_python_int(name):
    fn, good = ENTRIES[name]
    want, got = fn(good), fn(np.int64(good))
    if isinstance(want, np.ndarray):
        assert np.array_equal(want, got)
    else:
        assert want == got


def test_check_int():
    assert check_int(np.int32(3), "n") == 3 and type(check_int(np.int64(3), "n")) is int
    assert check_int(0, "index", 0, 0) == 0
    for value, low, high in [(0, 1, None), (5, 1, 4), (-1, 0, 2)]:
        with pytest.raises(ValidationError, match=f"n: {value} is not an integer"):
            check_int(value, "n", low, high)
    with pytest.raises(ValidationError, match="is not an integer >= 0"):
        check_int(np.bool_(False), "n", 0)


def test_enumerate_partitions_checks_outside_its_memo():
    assert enumerate_partitions(3, 2) == ((3,), (2, 1))
    for k, rows in [(3.0, 2), (3, 2.0), (3, 1.5)]:
        with pytest.raises(ValidationError):
            enumerate_partitions(k, rows)


def test_keep_indices_are_integers_in_range():
    assert partial_trace(FOUR, (2, 2), (0, 0)) == pytest.approx(np.diag([0.3, 0.7]))
    for keep in [(0.7,), (True,), (2,), (-1,)]:
        with pytest.raises(ValidationError, match="keep indices"):
            partial_trace(FOUR, (2, 2), keep)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_round_spectrum_refuses_a_non_finite_entry(bad):
    with pytest.raises(ValidationError, match="NaN or infinite"):
        round_spectrum([bad, 0.5], 4)


def test_the_drivers_refuse_a_zero_count():
    for call in (lambda: cmd_ssa_scan(0, 0), lambda: cmd_spectrum_estimation(QUBIT, 0),
                 lambda: cmd_dimension_ratio(TRI, [1]),
                 lambda: cmd_overlap_certificate(maximally_mixed((2, 2, 2)), 0, 1.0)):
        with pytest.raises(ValidationError, match="0 is not an integer|1 is not an integer"):
            call()


def test_a_negative_seed_and_a_zero_factor_are_refused():
    for call in (lambda: cmd_ssa_scan(1, -1), lambda: cmd_overlap_bound_fuzz(1, -1),
                 lambda: sample_hs_random((2,), -1),
                 lambda: tripartite_elements(*[[(2,)]] * 6, (0, 2, 2), 2)):
        with pytest.raises(ValidationError,
                           match="seed: -1 is not an integer >= 0|factors: 0 is not an integer"):
            call()


def integer_tests(source: str) -> list[int]:
    """Lines outside ``check_int`` that tell an integer apart by hand, through
    ``operator.index`` or ``np.integer``."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "check_int"
              for node in ast.walk(fn)}
    return [node.lineno for node in ast.walk(tree)
            if id(node) not in inside and isinstance(node, ast.Attribute)
            and (getattr(node.value, "id", ""), node.attr) in {("operator", "index"),
                                                                 ("np", "integer")}]


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_check_int_tells_integers_apart(module):
    assert integer_tests(module.read_text()) == []


def test_a_hand_written_integer_test_is_reported():
    source = (
        "def check_int(value):\n"
        "    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)\n"
        "def rows(k):\n"
        "    return operator.index(k)\n"
        "def dims(d):\n"
        "    return isinstance(d, (int, np.integer))\n"
    )
    assert integer_tests(source) == [4, 6]
