import math
from functools import cache

import numpy as np
import pytest

from snrecoupling.combinatorics import (
    all_permutations,
    class_size,
    conjugate_partition,
    conjugacy_classes,
    enumerate_partitions,
    identity_permutation,
    perm_compose,
    perm_cycle_type,
    random_permutation,
    sk_dimension,
)
from snrecoupling import repsym
from snrecoupling.errors import ResourceLimitError
from snrecoupling.repsym import (
    _character_row,
    character,
    represent,
    young_orthogonal_rep,
)
from snrecoupling.schurweyl import _ball_coefficients

@cache
def beta_set_character(lam, cycle_type):
    """Oracle: the Murnaghan-Nakayama rule on beta-sets held as lists.

    Each border strip of length r = cycle_type[0] is a beta number b with
    b - r free; its sign counts the beta numbers strictly between them.
    """
    if not lam:
        return 1
    strip, rest = cycle_type[0], cycle_type[1:]
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    total = 0
    for i, b in enumerate(beta):
        target = b - strip
        if target < 0 or target in beta:
            continue
        crossings = sum(1 for c in beta if target < c < b)
        new_beta = sorted(beta[:i] + beta[i + 1:] + [target], reverse=True)
        rows = [new_beta[j] - (m - 1 - j) for j in range(m)]
        new_lam = tuple(v for v in rows if v > 0)
        total += (-1) ** crossings * beta_set_character(new_lam, rest)
    return total


# character table of S_3, classes ordered (1,1,1), (2,1), (3)
S3_TABLE = {
    (3,): [1, 1, 1],
    (2, 1): [2, 0, -1],
    (1, 1, 1): [1, -1, 1],
}


class TestYoungOrthogonalForm:
    def test_trivial_rep(self):
        rep = young_orthogonal_rep((4,))
        assert all(np.array_equal(g, np.eye(1)) for g in rep.generators)

    def test_sign_rep(self):
        rep = young_orthogonal_rep((1, 1, 1, 1))
        assert all(np.array_equal(g, -np.eye(1)) for g in rep.generators)

    def test_standard_rep_of_s3(self):
        rep = young_orthogonal_rep((2, 1))
        for g in rep.generators:
            assert g.shape == (2, 2)
            assert np.trace(g) == pytest.approx(0.0, abs=1e-12)
            assert np.abs(g @ g.T - np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize("k", range(2, 7))
    def test_generator_relations(self, k):
        for lam in enumerate_partitions(k):
            rep = young_orthogonal_rep(lam)
            eye = np.eye(rep.dim)
            gens = rep.generators
            for g in gens:
                assert np.abs(g @ g.T - eye).max() < 1e-12
                assert np.abs(g - g.T).max() < 1e-12
                assert np.abs(g @ g - eye).max() < 1e-12
            for i in range(len(gens) - 1):
                lhs = gens[i] @ gens[i + 1] @ gens[i]
                rhs = gens[i + 1] @ gens[i] @ gens[i + 1]
                assert np.abs(lhs - rhs).max() < 1e-12
            for i in range(len(gens)):
                for j in range(i + 2, len(gens)):
                    comm = gens[i] @ gens[j] - gens[j] @ gens[i]
                    assert np.abs(comm).max() < 1e-12

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(repsym, "DEFAULT_DIMENSION_CAP", 100)
        with pytest.raises(ResourceLimitError):
            young_orthogonal_rep((10, 9, 8, 7, 6))


class TestRepresent:
    def test_identity(self):
        rep = young_orthogonal_rep((2, 1))
        assert np.array_equal(represent(rep, identity_permutation(3)), np.eye(2))

    def test_generator_base_case(self):
        rep = young_orthogonal_rep((2, 1))
        s1 = (1, 0, 2)
        assert np.abs(represent(rep, s1) - rep.generators[0]).max() < 1e-15

    def test_three_cycle_trace(self):
        rep = young_orthogonal_rep((2, 1))
        assert np.trace(represent(rep, (1, 2, 0))) == pytest.approx(-1.0, abs=1e-12)

    def test_homomorphism(self):
        rng = np.random.default_rng(3)
        for lam in enumerate_partitions(4):
            rep = young_orthogonal_rep(lam)
            for _ in range(25):
                p = random_permutation(4, rng)
                q = random_permutation(4, rng)
                lhs = represent(rep, p) @ represent(rep, q)
                rhs = represent(rep, perm_compose(p, q))
                assert np.abs(lhs - rhs).max() < 1e-12

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_trace_equals_character(self, k):
        rng = np.random.default_rng(k)
        for lam in enumerate_partitions(k):
            rep = young_orthogonal_rep(lam)
            for _ in range(200):
                p = random_permutation(k, rng)
                tr = np.trace(represent(rep, p))
                assert abs(tr - character(lam, perm_cycle_type(p))) < 1e-9


class TestCharacters:
    def test_s3_table(self):
        classes = [(1, 1, 1), (2, 1), (3,)]
        for lam, row in S3_TABLE.items():
            assert [character(lam, t) for t in classes] == row

    def test_identity_class_gives_dimension(self):
        for k in range(1, 8):
            ident = (1,) * k
            for lam in enumerate_partitions(k):
                assert character(lam, ident) == sk_dimension(lam)

    def test_sign_rep_transposition(self):
        assert character((1, 1), (2,)) == -1
        assert character((1, 1, 1, 1), (2, 1, 1)) == -1

    def test_murnaghan_nakayama_vs_matrix_trace(self):
        # independent oracle: explicit matrix traces over the whole group
        for k in (3, 4):
            for lam in enumerate_partitions(k):
                rep = young_orthogonal_rep(lam)
                for p in all_permutations(k):
                    tr = np.trace(represent(rep, p))
                    assert abs(tr - character(lam, perm_cycle_type(p))) < 1e-9

    @pytest.mark.parametrize("k", range(1, 9))
    def test_column_orthogonality(self, k):
        parts = enumerate_partitions(k)
        for t1, _ in conjugacy_classes(k):
            for t2, _ in conjugacy_classes(k):
                total = sum(character(lam, t1) * character(lam, t2) for lam in parts)
                if t1 == t2:
                    assert total == math.factorial(k) // class_size(t1)
                else:
                    assert total == 0

    @pytest.mark.parametrize("k", range(1, 15))
    def test_bead_recursion_matches_beta_set_lists(self, k):
        classes = [t for t, _ in conjugacy_classes(k)]
        for lam in enumerate_partitions(k):
            expected = [beta_set_character(lam, t) for t in classes]
            assert list(_character_row(lam)) == expected, lam
            assert [character(lam, t) for t in classes] == expected, lam

    @pytest.mark.parametrize("k", range(1, 13))
    def test_row_orthogonality(self, k):
        rows = {lam: _character_row(lam) for lam in enumerate_partitions(k)}
        sizes = [size for _, size in conjugacy_classes(k)]
        for lam, row in rows.items():
            for mu, other in rows.items():
                total = sum(c * a * b for c, a, b in zip(sizes, row, other))
                assert total == (math.factorial(k) if lam == mu else 0), (lam, mu)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_conjugate_label_twists_by_the_sign(self, k):
        for lam in enumerate_partitions(k):
            twisted = _character_row(conjugate_partition(lam))
            for (t, _), chi, chi_conj in zip(conjugacy_classes(k), _character_row(lam), twisted):
                assert chi_conj == (-1) ** (k - len(t)) * chi


class TestBallCoefficients:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_empty_ball_is_zero(self, k):
        coeffs = _ball_coefficients([], k)
        assert coeffs.shape == (math.factorial(k),)
        assert not coeffs.any()

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_every_label_sums_to_the_identity(self, k):
        # sum_lam dim[lam] chi_lam = k! delta_e: the ball of all labels is 1
        coeffs = _ball_coefficients(enumerate_partitions(k), k)
        assert coeffs[0] == 1.0 and not coeffs[1:].any()
