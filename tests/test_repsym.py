import math

import numpy as np
import pytest

from snrecoupling.combinatorics import (
    all_permutations,
    class_size,
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
    character,
    represent,
    young_orthogonal_rep,
)

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
