import math
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest

from snrecoupling.combinatorics import enumerate_partitions, sk_dimension
from snrecoupling.intertwiner import cg_isometries, kronecker_coefficient
from snrecoupling.recoupling import (
    VERTICES,
    _build_tensor,
    _label_permutation,
    _recoupling_tensor,
    _triples,
    column_swap_check,
    column_swap_check_ag,
    full_recoupling_unitary,
    recoupling_tensor,
)
from oracles import conjugate_partition, exact_hs_squared


def sum_rule_expected(alpha, beta, gamma, lam):
    """Oracle: character route to the total squared norm over (mu, nu)."""
    k = sum(lam)
    return sum(
        kronecker_coefficient(alpha, beta, mu) * kronecker_coefficient(mu, gamma, lam)
        for mu in enumerate_partitions(k)
    )


def composite_entries(alpha, beta, gamma, mu, nu, lam):
    """Oracle: entries[k, l, i, j] = tr(right_kl^T left_ij) / dim[lam] from the
    composites left_ij = kron(phi_i, I) phi_j and right_kl = kron(I, phi_k) phi_l."""
    eye_a, eye_g = np.eye(sk_dimension(alpha)), np.eye(sk_dimension(gamma))
    left = [
        np.kron(phi_i, eye_g) @ phi_j
        for phi_i in cg_isometries(alpha, beta, mu)
        for phi_j in cg_isometries(mu, gamma, lam)
    ]
    right = [
        np.kron(eye_a, phi_k) @ phi_l
        for phi_k in cg_isometries(beta, gamma, nu)
        for phi_l in cg_isometries(alpha, nu, lam)
    ]
    shape = tuple(
        kronecker_coefficient(*t)
        for t in ((beta, gamma, nu), (alpha, nu, lam), (alpha, beta, mu), (mu, gamma, lam))
    )
    overlaps = np.array([[np.sum(r * l) for l in left] for r in right])
    return overlaps.reshape(shape) / sk_dimension(lam)


def is_non_empty(labels):
    """All four Kronecker coefficients of the block are non-zero."""
    a, b, c, m, n, lam = labels
    return all(
        kronecker_coefficient(*t) for t in ((b, c, n), (a, n, lam), (a, b, m), (m, c, lam))
    )


# the label permutation of each of the 24 vertex permutations of the tetrahedron
IMAGES = [_label_permutation(vertices) for vertices in permutations(range(4))]


def image(labels, perm):
    return tuple(labels[x] for x in perm)


def worst_image_defect(tuples) -> float:
    """The largest |W(image) - W(labels)| over the 24 images of the non-empty
    tuples, W = hs / sqrt(dim mu dim nu).  The images of a non-empty tuple are
    non-empty, since each vertex keeps its three labels and g is symmetric in
    them, so `tuples` must hold them too: a missing one raises KeyError."""
    w = {labels: _recoupling_tensor(labels).hs
         / math.sqrt(sk_dimension(labels[3]) * sk_dimension(labels[4]))
         for labels in tuples if is_non_empty(labels)}
    return max((abs(w[image(labels, perm)] - value)
                for labels, value in w.items() for perm in IMAGES), default=0.0)


def assert_matches_composites(labels):
    entries, expected = recoupling_tensor(*labels).entries, composite_entries(*labels)
    assert entries.shape == expected.shape, labels
    assert np.abs(entries - expected).max(initial=0.0) < 1e-12, labels


class TestRecouplingTensor:
    def test_all_trivial_pins_prefactor(self):
        t = recoupling_tensor((3,), (3,), (3,), (3,), (3,), (3,))
        assert t.entries.shape == (1, 1, 1, 1)
        assert t.entries[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert t.hs == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [3, 4])
    def test_trivial_gamma_is_identity_coupling(self, k):
        parts = enumerate_partitions(k)
        triv = (k,)
        for alpha, beta in product(parts, repeat=2):
            for mu, nu, lam in product(parts, repeat=3):
                t = recoupling_tensor(alpha, beta, triv, mu, nu, lam)
                if mu == lam and nu == beta:
                    expected = math.sqrt(kronecker_coefficient(alpha, beta, lam))
                else:
                    expected = 0.0
                assert t.hs == pytest.approx(expected, abs=1e-9)

    def test_empty_when_multiplicity_vanishes(self):
        t = recoupling_tensor((2,), (2,), (2,), (1, 1), (2,), (2,))
        assert t.entries.size == 0
        assert t.hs == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_entries_match_composite_oracle(self, k):
        # unitarity, the sum rule and the swap norms all survive an i <-> j or
        # k <-> l relabelling; only an entrywise oracle sees the block layout
        for labels in product(enumerate_partitions(k), repeat=6):
            assert_matches_composites(labels)

    def test_entries_match_composite_oracle_k5_three_rows(self):
        parts = [p for p in enumerate_partitions(5) if len(p) <= 3]
        blocks = [labels for labels in product(parts, repeat=6) if is_non_empty(labels)]
        assert len(blocks) == 3830
        for labels in blocks:
            assert_matches_composites(labels)

    def test_entries_match_composite_oracle_k6(self):
        a = (4, 2)
        for mu, nu in product(enumerate_partitions(6), repeat=2):
            assert_matches_composites((a, a, a, mu, nu, (3, 3)))

    def test_hs_squared_equals_entry_sum(self):
        t = recoupling_tensor((2, 1), (2, 1), (2, 1), (2, 1), (2, 1), (2, 1))
        assert t.hs**2 == pytest.approx(float(np.sum(t.entries**2)), abs=1e-12)

    def test_hs_upper_bound_from_multiplicities(self):
        for labels in product(enumerate_partitions(3), repeat=6):
            t = recoupling_tensor(*labels)
            gk, gl, gi, gj = t.entries.shape
            assert t.hs <= math.sqrt(min(gi * gj, gk * gl)) + 1e-9

    def test_norm_sandwich(self):
        for labels in product(enumerate_partitions(4), repeat=6):
            t = recoupling_tensor(*labels)
            if t.hs < 1e-12:
                continue
            mat = t.as_matrix()
            rank = np.linalg.matrix_rank(mat)
            assert np.linalg.norm(mat, 2) <= t.hs + 1e-9
            assert t.hs <= math.sqrt(rank) * np.linalg.norm(mat, 2) + 1e-9


# every alpha of k <= 8 with at most 3 rows, and (k/2, k/2) for even k <= 12
EXACT_FAMILY_SHAPES = [
    p for k in range(1, 9) for p in enumerate_partitions(k) if len(p) <= 3
] + [(5, 5), (6, 6)]


class TestExactFamilies:
    """Two families of 1x1 blocks whose norm is 1/dim alpha exactly.

    Their spectra tuple has r_A = r_B = r_C = r_ABC = alpha/k and pure r_AB,
    r_BC, so -ln(hs)/k tends to the entropy of alpha/k.
    """

    @pytest.mark.parametrize("alpha", EXACT_FAMILY_SHAPES, ids=str)
    def test_trivial_edges(self, alpha):
        triv = (sum(alpha),)
        t = recoupling_tensor(alpha, alpha, alpha, triv, triv, alpha)
        assert t.block_shape == (1, 1, 1, 1)
        assert abs(t.hs - 1 / sk_dimension(alpha)) < 1e-12

    @pytest.mark.parametrize("alpha", EXACT_FAMILY_SHAPES, ids=str)
    def test_sign_edges(self, alpha):
        sign, conj = (1,) * sum(alpha), conjugate_partition(alpha)
        t = recoupling_tensor(alpha, conj, alpha, sign, sign, conj)
        assert t.block_shape == (1, 1, 1, 1)
        assert abs(t.hs - 1 / sk_dimension(alpha)) < 1e-12


# hs^2 of the nine (nu; mu) blocks of full_recoupling_unitary((4,2), (4,2),
# (4,2), (3,3)): rows nu, columns mu, both in the order of K6_MIDDLE
K6_MIDDLE = [(5, 1), (4, 1, 1), (3, 2, 1)]
K6_HS_SQUARED = [
    [Fraction(1, 9), Fraction(4, 9), Fraction(4, 9)],
    [Fraction(4, 9), Fraction(0), Fraction(5, 9)],
    [Fraction(4, 9), Fraction(5, 9), Fraction(1)],
]


def unitary_blocks(alpha, beta, gamma, lam):
    """{(nu, mu): block} read off full_recoupling_unitary by its row and column
    counts g(beta gamma nu) g(alpha nu lam) and g(alpha beta mu) g(mu gamma lam)."""
    u = full_recoupling_unitary(alpha, beta, gamma, lam)
    rows = [kronecker_coefficient(beta, gamma, nu) * kronecker_coefficient(alpha, nu, lam)
            for nu in u.nu_order]
    cols = [kronecker_coefficient(alpha, beta, mu) * kronecker_coefficient(mu, gamma, lam)
            for mu in u.mu_order]
    assert u.matrix.shape == (sum(rows), sum(cols))
    return {
        (nu, mu): block
        for nu, row in zip(u.nu_order, np.split(u.matrix, np.cumsum(rows)[:-1]))
        for mu, block in zip(u.mu_order, np.split(row, np.cumsum(cols)[:-1], axis=1))
    }


class TestExactNorms:
    """hs^2 against the exact rational of the character sum, to a few ulp."""

    def test_every_k3_tuple(self):
        # and every k = 4 tuple: 25 of the 681 non-empty k = 4 blocks are
        # exactly zero (the contraction leaves hs up to 2.2e-16 on them) and
        # must come back as exact zeros; the smallest non-zero hs is 1/3
        for k in (3, 4):
            for labels in product(enumerate_partitions(k), repeat=6):
                exact = exact_hs_squared(*labels)
                block = recoupling_tensor(*labels)
                if exact == 0:
                    assert block.hs == 0.0 and not block.entries.any(), labels
                else:
                    assert abs(block.hs ** 2 - exact) < 1e-13, labels

    def test_exact_families_k6(self):
        # both families of TestExactFamilies for every alpha of k <= 6: 58 blocks
        for k in range(1, 7):
            triv, sign = (k,), (1,) * k
            for alpha in enumerate_partitions(k):
                want = Fraction(1, sk_dimension(alpha) ** 2)
                conj = conjugate_partition(alpha)
                for labels in ((alpha, alpha, alpha, triv, triv, alpha),
                               (alpha, conj, alpha, sign, sign, conj)):
                    assert exact_hs_squared(*labels) == want, labels
                    assert abs(recoupling_tensor(*labels).hs ** 2 - want) < 1e-13, labels

    def test_unitary_k6_blocks(self):
        for nu, row in zip(K6_MIDDLE, K6_HS_SQUARED):
            for mu, want in zip(K6_MIDDLE, row):
                labels = ((4, 2),) * 3 + (mu, nu, (3, 3))
                assert exact_hs_squared(*labels) == want, labels
                assert abs(recoupling_tensor(*labels).hs ** 2 - want) < 1e-13, labels

    def test_unitary_k6_blocks_of_the_stacked_matrix(self):
        blocks = unitary_blocks((4, 2), (4, 2), (4, 2), (3, 3))
        assert len(blocks) == 9
        for nu, row in zip(K6_MIDDLE, K6_HS_SQUARED):
            for mu, want in zip(K6_MIDDLE, row):
                assert abs(np.sum(blocks[nu, mu] ** 2) - want) < 1e-13, (nu, mu)


class TestSumRuleAndUnitarity:
    def test_sum_rule_k3_standard(self):
        a = b = g = l = (2, 1)
        total = sum(
            recoupling_tensor(a, b, g, mu, nu, l).hs ** 2
            for mu in enumerate_partitions(3)
            for nu in enumerate_partitions(3)
        )
        assert total == pytest.approx(sum_rule_expected(a, b, g, l), abs=1e-8)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sum_rule_exhaustive(self, k):
        parts = enumerate_partitions(k)
        for alpha, beta, gamma, lam in product(parts, repeat=4):
            total = sum(
                recoupling_tensor(alpha, beta, gamma, mu, nu, lam).hs ** 2
                for mu in parts
                for nu in parts
            )
            assert total == pytest.approx(
                sum_rule_expected(alpha, beta, gamma, lam), abs=1e-8
            )

    def test_associativity_count_check(self):
        a = b = g = l = (2, 1)
        n = sum_rule_expected(a, b, g, l)
        assert full_recoupling_unitary(a, b, g, l).matrix.shape == (n, n)

    def test_trivial_gamma_unitary_is_signed_permutation(self):
        u = full_recoupling_unitary((2, 1), (2, 1), (3,), (2, 1)).matrix
        assert np.abs(np.abs(u) - np.eye(u.shape[0])).max() < 1e-9

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_full_unitarity_exhaustive(self, k):
        parts = enumerate_partitions(k)
        for alpha, beta, gamma, lam in product(parts, repeat=4):
            u = full_recoupling_unitary(alpha, beta, gamma, lam).matrix
            n = u.shape[0]
            if n == 0:
                continue
            assert u.shape == (n, n)
            assert np.abs(u.T @ u - np.eye(n)).max() < 1e-8
            assert np.abs(u @ u.T - np.eye(n)).max() < 1e-8


class TestUnitaryBlocks:
    """The unitary and the single blocks share only the composite builders."""

    @staticmethod
    def assert_blocks_match(alpha, beta, gamma, lam):
        for (nu, mu), block in unitary_blocks(alpha, beta, gamma, lam).items():
            want = recoupling_tensor(alpha, beta, gamma, mu, nu, lam).as_matrix()
            assert block.shape == want.shape, (alpha, beta, gamma, mu, nu, lam)
            assert np.abs(block - want).max() < 1e-13, (alpha, beta, gamma, mu, nu, lam)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_quadruple(self, k):
        for quad in product(enumerate_partitions(k), repeat=4):
            self.assert_blocks_match(*quad)

    def test_unitary_k6(self):
        self.assert_blocks_match((4, 2), (4, 2), (4, 2), (3, 3))


class TestColumnSwaps:
    def test_zero_when_multiplicities_vanish(self):
        r = column_swap_check((2,), (2,), (2,), (1, 1), (2,), (2,))
        assert r.lhs_hs == 0.0 and r.rhs_hs == 0.0

    def test_zero_block_with_non_zero_multiplicities(self):
        # every multiplicity of (2,1)^6 is 1, and its block is exactly zero
        # (the contraction leaves hs 5.6e-17)
        for check in (column_swap_check, column_swap_check_ag):
            r = check(*((2, 1),) * 6)
            assert r.lhs_hs == r.rhs_hs == 0.0 and r.residual == 0.0

    def test_k2_all_trivial_labels(self):
        r = column_swap_check((2,), (2,), (2,), (2,), (2,), (2,))
        assert r.predicted_ratio == pytest.approx(1.0)
        assert r.lhs_hs == pytest.approx(r.rhs_hs, abs=1e-12)

    def test_k2_exhaustive_both_relations(self):
        parts = enumerate_partitions(2)
        tuples = list(product(parts, repeat=6))
        for labels in tuples:
            for check in (column_swap_check, column_swap_check_ag):
                r = check(*labels)
                if max(r.lhs_hs, r.rhs_hs) > 0:
                    assert r.residual < 1e-8, (check.__name__, labels, r)
        assert worst_image_defect(tuples) < 1e-14

    def test_k2_sign_grid_ag(self):
        # alpha = gamma = (2), mu = nu = (1,1) sector of the swapped grid
        for beta in enumerate_partitions(2):
            for lam in enumerate_partitions(2):
                r = column_swap_check_ag((2,), beta, (2,), (1, 1), (1, 1), lam)
                if max(r.lhs_hs, r.rhs_hs) > 0:
                    assert r.residual < 1e-8

    @pytest.mark.parametrize("k", [3, 4])
    def test_exhaustive_grid(self, k):
        # the two swaps on every tuple, all 24 images on the non-empty ones
        # (worst |delta W| 2.2e-16 at k = 4)
        worst = 0.0
        tuples = list(product(enumerate_partitions(k), repeat=6))
        for labels in tuples:
            for check in (column_swap_check, column_swap_check_ag):
                r = check(*labels)
                if max(r.lhs_hs, r.rhs_hs) > 0:
                    worst = max(worst, r.residual)
        assert worst < 1e-8
        assert worst_image_defect(tuples) < 1e-14

    def test_k4_scan_memoizes_only_non_empty_blocks(self):
        _build_tensor.cache_clear()
        tuples = list(product(enumerate_partitions(4), repeat=6))
        for labels in tuples:
            column_swap_check(*labels)
        non_empty = sum(map(is_non_empty, tuples))
        assert 0 < non_empty < len(tuples)
        assert _build_tensor.cache_info().currsize == non_empty

    def test_k5_grid_restricted_to_three_rows(self):
        # a label permutation keeps the grid, so every image is in it
        parts = [p for p in enumerate_partitions(5) if len(p) <= 3]
        worst = 0.0
        tuples = list(product(parts, repeat=6))
        for labels in tuples:
            for check in (column_swap_check, column_swap_check_ag):
                worst = max(worst, check(*labels).residual)
        assert worst < 1e-8
        assert worst_image_defect(tuples) < 1e-14


class TestTetrahedron:
    """recoupling.VERTICES, the one table of the tetrahedron of the six labels."""

    def test_vertex_triples_are_the_couplings_of_the_two_trees(self):
        labels = ("alpha", "beta", "gamma", "mu", "nu", "lam")
        assert _triples(labels) == (("alpha", "beta", "mu"), ("mu", "gamma", "lam"),
                                    ("beta", "gamma", "nu"), ("alpha", "nu", "lam"))

    def test_each_label_is_an_edge(self):
        # each label lies on two vertices, and any two vertices share one label
        assert all(sum(x in v for v in VERTICES) == 2 for x in range(6))
        assert all(len(set(v) & set(w)) == 1 for v, w in combinations(VERTICES, 2))
        opposite = {frozenset((x, y)) for x, y in combinations(range(6), 2)
                    if not any({x, y} <= set(v) for v in VERTICES)}
        assert opposite == {frozenset(p) for p in ((0, 2), (1, 5), (3, 4))}

    def test_24_distinct_images_map_vertices_to_vertices(self):
        assert len(set(IMAGES)) == 24 and image(range(6), IMAGES[0]) == tuple(range(6))
        vertex_sets = {frozenset(v) for v in VERTICES}
        for perm in IMAGES:
            assert {frozenset(image(perm, v)) for v in VERTICES} == vertex_sets

    def test_the_column_swaps_are_two_images(self):
        # (beta, lam) <-> (mu, nu) is (j k); (alpha, gamma) <-> (mu, nu) is (j l)
        bl, ag = _label_permutation((0, 2, 1, 3)), _label_permutation((0, 3, 2, 1))
        assert bl == (0, 3, 2, 1, 5, 4) and ag == (3, 1, 4, 0, 2, 5)
        assert {bl, ag} <= set(IMAGES)
