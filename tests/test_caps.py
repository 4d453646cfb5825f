"""Every size cap at its limit and one below it.

At the cap the call succeeds; one below, it raises ResourceLimitError before
anything is built: the memo the call would fill stays empty, the dense
projector is never allocated, and no random state is drawn.  Each cap is a
module constant read at call time, so the tests set it with monkeypatch.
"""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from snrecoupling import (
    cli,
    combinatorics,
    intertwiner,
    quantumstates,
    recoupling,
    repsym,
    schurweyl,
)
from snrecoupling.combinatorics import (
    conjugacy_classes,
    enumerate_partitions,
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
from snrecoupling.recoupling import (
    _build_tensor,
    column_swap_check,
    full_recoupling_unitary,
    recoupling_tensor,
)
from snrecoupling.repsym import (
    _bead_character,
    _character_row,
    _young_orthogonal_rep,
    character,
    young_orthogonal_rep,
)
from snrecoupling.schurweyl import (
    _perm_classes,
    _sk_tables,
    ball_sum_projector,
    isotypic_projector,
    projected_trace,
    tripartite_elements,
)

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


@pytest.mark.parametrize("fn, args", [
    (full_recoupling_unitary, ((5, 2, 1), (5, 2, 1), (5, 2, 1), (4, 3, 1))),
    (full_recoupling_unitary, ((5, 3), (4, 2, 1, 1), (3, 2, 1, 1, 1), (4, 2, 2))),
    (recoupling_tensor, ((5, 3), (5, 3), (4, 2, 1, 1), (4, 2, 1, 1), (6, 2), (4, 2, 2))),
])
def test_product_cap_of_every_vertex_before_any_solve(fn, args):
    # each has a vertex above the product cap after vertices below it, whose
    # solves (up to 1 GiB for the first) would all come before its refusal
    _solve_cg.cache_clear()
    _build_tensor.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="Jucys-Murphy operator entries"):
            fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _solve_cg.cache_info().currsize == 0
    assert peak < 1024**2


@CAP_SETTINGS
@given(labels(6, 3))
def test_class_count_cap(triple):
    # every entry point that reaches a character sum or recursion refuses a
    # k above the cap before it computes any character
    k = sum(triple[0])
    refused = (
        (kronecker_coefficient, triple),
        (cg_isometries, triple),
        (recoupling_tensor, triple * 2),
        (column_swap_check, triple * 2),
        (full_recoupling_unitary, triple + triple[:1]),
        (character, (triple[0], (1,) * k)),
        (projected_trace, (triple[0], maximally_mixed((2,)))),
    )
    _character_row.cache_clear()
    _bead_character.cache_clear()
    _kronecker_coefficient.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(combinatorics, "K_MAX", k - 1)
        for fn, args in refused:
            with pytest.raises(ResourceLimitError):
                fn(*args)
        assert _character_row.cache_info().currsize == 0
        assert _bead_character.cache_info().currsize == 0
        mp.setattr(combinatorics, "K_MAX", k)
        assert kronecker_coefficient(*triple) >= 0
        assert character(triple[0], (1,) * k) == sk_dimension(triple[0])


def test_class_count_cap_at_its_value():
    # k = 30, with p(30) = 5,604 classes, is admitted and a larger k is not.
    # A k = 60 sum took 50 s at 1.1 GB; its refusal allocates next to nothing.
    assert combinatorics.K_MAX == 30
    assert len(conjugacy_classes(30)) == 5_604
    assert kronecker_coefficient((29, 1), (29, 1), (30,)) == 1
    tracemalloc.start()
    try:
        for fn in (kronecker_coefficient, cg_isometries):
            with pytest.raises(ResourceLimitError):
                fn((59, 1), (59, 1), (60,))
        with pytest.raises(ResourceLimitError):
            character((10,) * 10, (1,) * 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_recoupling_block_holds_no_lam_edge():
    # ((6,6)^3, (12), (12), (6,6)): read at one basis vector of [lam], each
    # composite holds 132^3 floats (18 MB); contracted along the whole lam
    # edge they held 132 times more, 7.0 GB of peak RSS
    _build_tensor.cache_clear()
    _solve_cg.cache_clear()
    tracemalloc.start()
    try:
        block = recoupling_tensor((6, 6), (6, 6), (6, 6), (12,), (12,), (6, 6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.hs == pytest.approx(1 / 132, abs=1e-12)
    assert peak < 100 * 1024**2


@CAP_SETTINGS
@given(labels(5, 4))
def test_composite_cap(quad):
    # a unitary holds every mu's ((alpha beta) gamma) composites and one nu's
    # (alpha (beta gamma)) composites at a time; a block holds its own pair
    alpha, beta, gamma, lam = quad
    parts = enumerate_partitions(sum(lam))
    left = {m: kronecker_coefficient(alpha, beta, m) * kronecker_coefficient(m, gamma, lam)
            for m in parts}
    right = {n: kronecker_coefficient(beta, gamma, n) * kronecker_coefficient(alpha, n, lam)
             for n in parts}
    assume(sum(left.values()) > 0)
    abc = math.prod(map(sk_dimension, (alpha, beta, gamma)))
    mu, nu = max(left, key=left.get), max(right, key=right.get)
    block = (alpha, beta, gamma, mu, nu, lam)
    calls = (
        (full_recoupling_unitary, quad, (sum(left.values()) + right[nu]) * abc),
        (recoupling_tensor, block, (left[mu] + right[nu]) * abc),
    )
    for fn, args, need in calls:
        _build_tensor.cache_clear()
        _solve_cg.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recoupling, "COMPOSITE_FLOAT_CAP", need - 1)
            with pytest.raises(ResourceLimitError):
                fn(*args)
            assert _solve_cg.cache_info().currsize == 0
            assert _build_tensor.cache_info().currsize == 0
            mp.setattr(recoupling, "COMPOSITE_FLOAT_CAP", need)
            fn(*args)


def test_composite_cap_at_its_value(capsys):
    # The trivial-edge family blocks ((4,4,4)^3, (12), (12), (4,4,4)) and
    # ((7,7)^3, (14), (14), (7,7)) hold 2 * 462^3 and 2 * 429^3 floats
    # (1.5 and 1.2 GiB) and fit.  ((4,4,2,1)^3, (11), (11), (4,4,2,1)) passes
    # the class-count and product caps, but its composites would hold
    # 2 * 1320^3 floats (34 GiB); it is refused after the Kronecker
    # coefficients, before any solve.
    cap = recoupling.COMPOSITE_FLOAT_CAP
    assert 2 * sk_dimension((4, 4, 4)) ** 3 <= cap and 2 * sk_dimension((7, 7)) ** 3 <= cap
    label = (4, 4, 2, 1)
    assert 2 * sk_dimension(label) ** 3 > cap
    assert sk_dimension(label) ** 2 <= intertwiner.DEFAULT_PRODUCT_CAP
    text = ",".join(map(str, label))
    _solve_cg.cache_clear()
    tracemalloc.start()
    try:
        code = cli.main(["recoupling", "--labels", "/".join([text] * 3 + ["11", "11", text])])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: ") and "exceeds cap" in captured.err
    assert _solve_cg.cache_info().currsize == 0
    assert peak < 1024**2


@CAP_SETTINGS
@given(labels(5, 1))
def test_dimension_cap(label):
    # the cap bounds the floats of the k - 1 generators, (k - 1) * dim^2
    (lam,) = label
    need = (sum(lam) - 1) * sk_dimension(lam) ** 2
    _young_orthogonal_rep.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repsym, "GENERATOR_FLOAT_CAP", need - 1)
        with pytest.raises(ResourceLimitError):
            young_orthogonal_rep(lam)
        assert _young_orthogonal_rep.cache_info().currsize == 0
        mp.setattr(repsym, "GENERATOR_FLOAT_CAP", need)
        rep = young_orthogonal_rep(lam)
        assert sum(g.size for g in rep.generators) == need


def test_dimension_cap_at_its_value():
    # Every representation cg_isometries can request fits: its product cap
    # keeps dim <= 1,414, at k <= 30.  So does (5,3,2,1), 53.4M floats.
    # (30,3), dim 4,928 with 32 generators, would hold 777M floats (6.2 GB).
    cap = repsym.GENERATOR_FLOAT_CAP
    assert 29 * math.isqrt(intertwiner.DEFAULT_PRODUCT_CAP) ** 2 <= cap
    assert 10 * sk_dimension((5, 3, 2, 1)) ** 2 <= cap < 32 * sk_dimension((30, 3)) ** 2
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            young_orthogonal_rep((30, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


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


@pytest.mark.parametrize("build", [
    isotypic_projector,
    lambda lam, d: ball_sum_projector([lam], (d,), sum(lam), "A"),
], ids=["isotypic_projector", "ball_sum_projector"])
def test_permutation_cap(build):
    # The dense builders walk the k! permutations of S_k, which DENSE_CAP
    # does not bound: 1^10 is 1 and 2^12 is DENSE_CAP.  Above IMPLICIT_CAP
    # they are refused before _perm_classes lists a permutation.  The 10!
    # case comes first: without the cap it fails after 3.6M permutations,
    # before the 479M of 12! are listed.
    misses = _perm_classes.cache_info().misses
    for lam, d in [((10,), 1), ((12,), 2)]:
        with pytest.raises(ResourceLimitError, match=r"k! permutations"):
            build(lam, d)
    assert _perm_classes.cache_info().misses == misses
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schurweyl, "IMPLICIT_CAP", math.factorial(5) - 1)
        with pytest.raises(ResourceLimitError):
            build((3, 2), 1)
        mp.setattr(schurweyl, "IMPLICIT_CAP", math.factorial(5))
        assert build((3, 2), 1).shape == (1, 1)


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
