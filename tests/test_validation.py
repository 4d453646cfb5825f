"""Malformed labels raise ValidationError at every public entry point.

The kernels below these functions do not re-validate, so each entry point
must reject an empty partition, a zero row, increasing rows and labels of
different k before any work is done.
"""

import sys
from collections import Counter

import pytest

import snrecoupling
from snrecoupling import combinatorics
from snrecoupling.errors import ValidationError
from snrecoupling.experiments import cmd_overlap_certificate
from snrecoupling.intertwiner import cg_isometries, kronecker_coefficient
from snrecoupling.quantumstates import sample_hs_random
from snrecoupling.recoupling import column_swap_check, full_recoupling_unitary, recoupling_tensor
from snrecoupling.repsym import character, young_orthogonal_rep

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


def count_check_partition(monkeypatch) -> Counter:
    """Clear every memo of the package and count check_partition calls by caller."""
    modules = [m for name, m in sys.modules.items() if name.startswith("snrecoupling.")]
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    original = combinatorics.check_partition
    callers = Counter()

    def counted(rows):
        callers[sys._getframe(1).f_code.co_name] += 1
        return original(rows)

    for module in modules:
        if vars(module).get("check_partition") is original:
            monkeypatch.setattr(module, "check_partition", counted)
    return callers


def test_labels_are_validated_where_they_enter(monkeypatch):
    # A cold full_recoupling_unitary((4,2), (4,2), (4,2), (3,3)) validates
    # each label set once, in check_labels: 4 labels and 12 cg_isometries
    # calls of 3, two for the composites of each of its three mu and three
    # nu.  The only other caller is young_orthogonal_rep, three times in each
    # of the 6 canonical solves; no memoized kernel below the entry points
    # re-validates.
    callers = count_check_partition(monkeypatch)
    snrecoupling.full_recoupling_unitary((4, 2), (4, 2), (4, 2), (3, 3))
    assert callers == {"check_labels": 4 + 12 * 3, "young_orthogonal_rep": 18}


def test_ball_distances_do_not_revalidate(monkeypatch):
    # The l1 distances of a certificate's balls read the canonical partitions
    # of enumerate_partitions as they are.  A cold k = 3 certificate on a
    # (2,2,3) state makes 11 check_partition calls, none from normalize (27,
    # 16 of them from normalize, when the distances went through it).
    rho = sample_hs_random((2, 2, 3), 5)
    callers = count_check_partition(monkeypatch)
    cmd_overlap_certificate(rho, 3, 1.0)
    assert "normalize" not in callers and sum(callers.values()) == 11
