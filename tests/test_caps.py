"""Every size cap at its limit and one below it.

At the cap the call succeeds; one below, it raises ResourceLimitError before
anything is built: the memo the call would fill stays empty, the dense
projector is never allocated, and no random state is drawn.  Each cap is a
module constant read at call time, so the tests set it with monkeypatch.
"""

import math
import tracemalloc
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snrecoupling import intertwiner, quantumstates, repsym, schurweyl
from snrecoupling.combinatorics import (
    conjugacy_classes,
    enumerate_partitions,
    partition_counts,
    sk_dimension,
)
from snrecoupling.errors import ResourceLimitError
from snrecoupling.intertwiner import (
    _canonical_orientation,
    _check_full_permutation,
    _kronecker_coefficient,
    _solve_cg,
    cg_isometries,
    kronecker_coefficient,
)
from snrecoupling.quantumstates import SAMPLE_DIM_CAP, maximally_mixed, sample_hs_random
from snrecoupling.recoupling import full_recoupling_unitary, recoupling_tensor
from snrecoupling.repsym import _character_row, _young_orthogonal_rep, young_orthogonal_rep
from snrecoupling.schurweyl import _sk_tables, ball_sum_projector, tripartite_elements

CAP_SETTINGS = settings(max_examples=25, deadline=None)


def labels(k_max, count):
    """`count` partitions of one common k in 1..k_max."""
    return st.integers(1, k_max).flatmap(
        lambda k: st.tuples(*[st.sampled_from(enumerate_partitions(k))] * count)
    )


# (dims, k) at k <= 5 whose dense projector has 256..1024 rows: large enough
# that its allocation (0.5..8 MB) stands far above what a refusal allocates
DENSE_SIZES = [
    (dims, k)
    for k in range(2, 6)
    for n in (1, 2, 3)
    for dims in product(range(1, 5), repeat=n)
    if 256 <= math.prod(dims) ** k <= 1024
]


@CAP_SETTINGS
@given(labels(5, 3))
def test_product_cap(triple):
    # the cap bounds the pair the solver builds, whatever the orientation asked for
    left, right, _ = _canonical_orientation(triple)
    need = (sk_dimension(left) * sk_dimension(right)) ** 2
    _solve_cg.cache_clear()
    _young_orthogonal_rep.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intertwiner, "DEFAULT_PRODUCT_CAP", need - 1)
        with pytest.raises(ResourceLimitError):
            cg_isometries(*triple)
        assert _solve_cg.cache_info().currsize == 0
        assert _young_orthogonal_rep.cache_info().currsize == 0
        mp.setattr(intertwiner, "DEFAULT_PRODUCT_CAP", need)
        assert len(cg_isometries(*triple)) == kronecker_coefficient(*triple)


def test_product_cap_admits_a_pair_above_it_with_a_small_solve():
    # (dim (3,3,2))^2 = 1764^2 is 3.1M, above the cap, but the solve is
    # ((8,), (3,3,2)) -> (3,3,2), with pair product 42
    triple = ((3, 3, 2), (3, 3, 2), (8,))
    assert (sk_dimension(triple[0]) ** 2) ** 2 > intertwiner.DEFAULT_PRODUCT_CAP
    basis = cg_isometries(*triple)
    assert len(basis) == kronecker_coefficient(*triple) == 1
    _check_full_permutation(*triple, basis)


@CAP_SETTINGS
@given(labels(6, 3))
def test_class_count_cap(triple):
    # every entry point that reaches a Kronecker character sum refuses a k
    # with more classes than the cap before it computes any character
    need = len(conjugacy_classes(sum(triple[0])))
    refused = (
        (kronecker_coefficient, triple),
        (cg_isometries, triple),
        (recoupling_tensor, triple * 2),
        (full_recoupling_unitary, triple + triple[:1]),
    )
    _character_row.cache_clear()
    _kronecker_coefficient.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intertwiner, "CLASS_COUNT_CAP", need - 1)
        for fn, args in refused:
            with pytest.raises(ResourceLimitError):
                fn(*args)
        assert _character_row.cache_info().currsize == 0
        mp.setattr(intertwiner, "CLASS_COUNT_CAP", need)
        assert kronecker_coefficient(*triple) >= 0


def test_class_count_cap_at_its_value():
    # p(30) = 5,604 classes are admitted and p(31) = 6,842 are not.  A k = 60
    # sum took 50 s at 1.1 GB; its refusal allocates next to nothing.
    p30, p31 = islice(partition_counts(), 30, 32)
    assert p30 <= intertwiner.CLASS_COUNT_CAP < p31
    assert kronecker_coefficient((29, 1), (29, 1), (30,)) == 1
    tracemalloc.start()
    try:
        for fn in (kronecker_coefficient, cg_isometries):
            with pytest.raises(ResourceLimitError):
                fn((59, 1), (59, 1), (60,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@CAP_SETTINGS
@given(labels(5, 1))
def test_dimension_cap(label):
    (lam,) = label
    _young_orthogonal_rep.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repsym, "DEFAULT_DIMENSION_CAP", sk_dimension(lam) - 1)
        with pytest.raises(ResourceLimitError):
            young_orthogonal_rep(lam)
        assert _young_orthogonal_rep.cache_info().currsize == 0
        mp.setattr(repsym, "DEFAULT_DIMENSION_CAP", sk_dimension(lam))
        assert young_orthogonal_rep(lam).dim == sk_dimension(lam)


@CAP_SETTINGS
@given(st.sampled_from(DENSE_SIZES), st.data())
def test_dense_cap(size, data):
    dims, k = size
    lam = data.draw(st.sampled_from(enumerate_partitions(k)))
    total = math.prod(dims) ** k
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schurweyl, "DENSE_CAP", total - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                ball_sum_projector([lam], dims, k, "ABC"[: len(dims)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < total * total * 8 // 4
        mp.setattr(schurweyl, "DENSE_CAP", total)
        mat = ball_sum_projector([lam], dims, k, "ABC"[: len(dims)])
        assert mat.shape == (total, total)


@CAP_SETTINGS
@given(labels(4, 6), st.tuples(*[st.integers(1, 3)] * 3))
def test_implicit_cap(six, dims):
    # the (k!)^3 arrays at k = 5 take seconds to multiply, so draws stop at 4
    k = sum(six[0])
    need = max(math.factorial(k) ** 3, math.prod(dims) ** k)
    _sk_tables.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schurweyl, "IMPLICIT_CAP", need - 1)
        with pytest.raises(ResourceLimitError):
            tripartite_elements(*([l] for l in six), dims, k)
        assert _sk_tables.cache_info().currsize == 0
        mp.setattr(schurweyl, "IMPLICIT_CAP", need)
        pq = tripartite_elements(*([l] for l in six), dims, k).pq
        assert pq.shape == (math.factorial(k),) * 3


@CAP_SETTINGS
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(0, 2**32))
def test_sample_cap(dims, seed):
    need = math.prod(dims)
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantumstates, "SAMPLE_DIM_CAP", need - 1)
        before = rng.bit_generator.state
        with pytest.raises(ResourceLimitError):
            sample_hs_random(dims, rng)
        assert rng.bit_generator.state == before
        mp.setattr(quantumstates, "SAMPLE_DIM_CAP", need)
        assert sample_hs_random(dims, rng).matrix.shape == (need, need)
        assert rng.bit_generator.state != before


def test_sample_cap_at_its_value():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ResourceLimitError):
        sample_hs_random((SAMPLE_DIM_CAP + 1,), rng)
    assert rng.bit_generator.state == before
    rho = sample_hs_random((2, SAMPLE_DIM_CAP // 2), rng)
    assert rho.matrix.shape == (SAMPLE_DIM_CAP, SAMPLE_DIM_CAP)


@CAP_SETTINGS
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_maximally_mixed_cap(dims):
    need = math.prod(dims)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quantumstates, "SAMPLE_DIM_CAP", need - 1)
        with pytest.raises(ResourceLimitError):
            maximally_mixed(dims)
        mp.setattr(quantumstates, "SAMPLE_DIM_CAP", need)
        assert np.array_equal(maximally_mixed(dims).matrix, np.eye(need) / need)


def test_maximally_mixed_cap_at_its_value():
    # 10^6 x 10^6 floats would be 7.3 TiB; refused before np.eye is called
    for dims in ((SAMPLE_DIM_CAP + 1,), (1000, 1000)):
        with pytest.raises(ResourceLimitError):
            maximally_mixed(dims)
    rho = maximally_mixed((2, SAMPLE_DIM_CAP // 2))
    assert rho.matrix.shape == (SAMPLE_DIM_CAP, SAMPLE_DIM_CAP)
