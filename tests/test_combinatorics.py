import math
from itertools import islice, permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from snrecoupling.combinatorics import (
    ROUND_K_MAX,
    adjacent_transposition,
    adjacent_word,
    all_permutations,
    check_partition,
    class_size,
    conjugacy_classes,
    enumerate_partitions,
    identity_permutation,
    log_sk_dimension,
    normalize,
    partition_counts,
    perm_compose,
    perm_cycle_type,
    perm_inverse,
    round_spectrum,
    sk_dimension,
    standard_tableaux,
    weyl_dimension,
    _addable_contents,
    _tableau_contents,
    _tableau_moves,
)
from snrecoupling.errors import ValidationError


def brute_force_partitions(k, max_rows):
    """Oracle: enumerate by direct recursion independent of the library."""
    if k == 0:
        return [()]
    out = set()

    def rec(remaining, prefix):
        if remaining == 0:
            if len(prefix) <= max_rows:
                out.add(tuple(sorted(prefix, reverse=True)))
            return
        for part in range(1, remaining + 1):
            rec(remaining - part, prefix + (part,))

    rec(k, ())
    return out


def brute_force_syt_count(lam):
    """Oracle: count standard fillings by checking every permutation."""
    k = sum(lam)
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    count = 0
    for perm in permutations(range(1, k + 1)):
        grid = {cell: v for cell, v in zip(cells, perm)}
        ok = True
        for (i, j), v in grid.items():
            if (i, j + 1) in grid and grid[(i, j + 1)] < v:
                ok = False
                break
            if (i + 1, j) in grid and grid[(i + 1, j)] < v:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_force_ssyt_count(lam, d):
    """Oracle: count semistandard fillings with entries in 1..d."""
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]

    def rec(idx, grid):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[(i, j - 1)])
        if i > 0:
            lo = max(lo, grid[(i - 1, j)] + 1)
        total = 0
        for v in range(lo, d + 1):
            grid[(i, j)] = v
            total += rec(idx + 1, grid)
            del grid[(i, j)]
        return total

    return rec(0, {})


partition_strategy = st.integers(1, 8).flatmap(
    lambda k: st.sampled_from(enumerate_partitions(k))
)


class TestEnumeration:
    def test_frozen_k4(self):
        assert enumerate_partitions(4, 4) == (
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
        )

    def test_single_row(self):
        assert enumerate_partitions(3, 1) == ((3,),)

    def test_count_k5_two_rows(self):
        got = enumerate_partitions(5, 2)
        assert got == ((5,), (4, 1), (3, 2))

    @pytest.mark.parametrize("k,max_rows", [(4, 4), (5, 2), (6, 3), (7, 7)])
    def test_matches_brute_force(self, k, max_rows):
        assert set(enumerate_partitions(k, max_rows)) == brute_force_partitions(k, max_rows)

    def test_pentagonal_counts_match_enumeration(self):
        counts = list(islice(partition_counts(), 26))
        assert counts[0] == 1
        assert counts[1:] == [len(enumerate_partitions(k)) for k in range(1, 26)]
        # p(30) and p(100), Hardy-Ramanujan's table
        assert next(islice(partition_counts(), 30, None)) == 5_604
        assert next(islice(partition_counts(), 100, None)) == 190_569_292

    def test_reverse_lexicographic(self):
        parts = enumerate_partitions(6)
        assert list(parts) == sorted(parts, reverse=True)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            enumerate_partitions(0)
        with pytest.raises(ValidationError):
            check_partition((1, 2))
        with pytest.raises(ValidationError):
            check_partition((2, 0))


class TestDimensions:
    def test_trivial_rep(self):
        for k in range(1, 9):
            assert sk_dimension((k,)) == 1

    @pytest.mark.parametrize("lam,expected", [((2, 1), 2), ((3, 1), 3)])
    def test_small_vs_tableau_count(self, lam, expected):
        assert brute_force_syt_count(lam) == expected
        assert sk_dimension(lam) == expected

    def test_matches_brute_force_k5(self):
        for lam in enumerate_partitions(5):
            assert sk_dimension(lam) == brute_force_syt_count(lam)

    def test_sum_of_squares_is_factorial(self):
        for k in range(1, 9):
            total = sum(sk_dimension(lam) ** 2 for lam in enumerate_partitions(k))
            assert total == math.factorial(k)

    def test_log_dimension(self):
        for k in range(1, 31):
            for lam in enumerate_partitions(k):
                assert log_sk_dimension(lam) == pytest.approx(
                    math.log(sk_dimension(lam)), abs=1e-10
                ), lam
        # far beyond exact-float territory, still finite and sane
        big = (1000, 1000)
        assert 0 < log_sk_dimension(big) < 2000 * math.log(2)

    def test_weyl_row_cutoff(self):
        assert weyl_dimension((2, 1, 1), 2) == 0

    @pytest.mark.parametrize("lam,d,expected", [((2, 2), 2, 1), ((2, 1), 2, 2)])
    def test_weyl_small_vs_ssyt_count(self, lam, d, expected):
        assert brute_force_ssyt_count(lam, d) == expected
        assert weyl_dimension(lam, d) == expected

    def test_weyl_matches_brute_force(self):
        for d in (2, 3):
            for lam in enumerate_partitions(4):
                assert weyl_dimension(lam, d) == brute_force_ssyt_count(lam, d)

    def test_schur_weyl_dimension_count(self):
        for d in (2, 3):
            for k in range(1, 7):
                total = sum(
                    sk_dimension(lam) * weyl_dimension(lam, d)
                    for lam in enumerate_partitions(k)
                )
                assert total == d**k


class TestNormalizeAndRound:
    def test_normalize_examples(self):
        assert np.allclose(normalize((2, 2)), [0.5, 0.5])
        assert np.allclose(normalize((5,)), [1.0])
        assert np.allclose(normalize((3, 1)), [0.75, 0.25])
        assert np.allclose(normalize((3, 1), length=4), [0.75, 0.25, 0.0, 0.0])

    def test_normalize_sums_to_one(self):
        for lam in enumerate_partitions(7):
            assert normalize(lam, length=8).sum() == pytest.approx(1.0)

    def test_round_examples(self):
        assert round_spectrum((0.5, 0.5), 4) == (2, 2)
        assert round_spectrum((1.0,), 7) == (7,)
        # by hand: 5*(0.6, 0.4) = (3.0, 2.0), no remainders to assign
        assert round_spectrum((0.6, 0.4), 5) == (3, 2)

    def test_round_largest_remainder_tie_break(self):
        # 3*(0.5, 0.5) = (1.5, 1.5): equal remainders, earlier row wins
        assert round_spectrum((0.5, 0.5), 3) == (2, 1)
        # 5*(0.9, 0.1) rounds to (4.5, 0.5) in floats, a tie; exact rationals
        # would give (4, 1)
        assert round_spectrum((0.9, 0.1), 5) == (5,)

    @pytest.mark.parametrize("r", [(0.5, 0.5), (0.7, 0.2, 0.1), (0.5 + 5e-13, 0.5)])
    def test_round_k_range(self, r):
        for k in (0, -1, ROUND_K_MAX + 1, 10**13, 10**17):
            with pytest.raises(ValidationError, match="k must be in"):
                round_spectrum(r, k)
        for k in (1, ROUND_K_MAX):
            lam = round_spectrum(r, k)
            assert sum(lam) == k and lam == tuple(sorted(lam, reverse=True))

    @pytest.mark.parametrize("k", [2.5, 4.0, True, False, "4", None])
    def test_round_rejects_a_k_that_is_not_an_integer(self, k):
        with pytest.raises(ValidationError, match="k must be an integer"):
            round_spectrum((0.5, 0.5), k)

    def test_round_accepts_numpy_integers(self):
        assert round_spectrum((0.5, 0.5), np.int64(4)) == (2, 2)
        assert round_spectrum((0.6, 0.4), np.uint8(5)) == (3, 2)

    def test_round_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            round_spectrum((0.5, 0.6), 4)  # not non-increasing
        with pytest.raises(ValidationError):
            round_spectrum((0.7, 0.2), 4)  # does not sum to 1
        with pytest.raises(ValidationError):
            round_spectrum((1.2, -0.2), 4)

    @given(partition_strategy)
    def test_round_trip_fixed_point(self, lam):
        k = sum(lam)
        assert round_spectrum(normalize(lam), k) == lam

    @given(st.integers(2, 60), st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5))
    def test_l1_error_bound(self, k, raw):
        r = np.sort(np.asarray(raw))[::-1]
        r = r / r.sum()
        r = r / r.sum()  # kill the last ulp of drift
        lam = round_spectrum(r, k)
        padded = np.zeros(max(len(lam), r.size))
        padded[: len(lam)] = normalize(lam)
        rr = np.zeros_like(padded)
        rr[: r.size] = r
        assert np.abs(padded - rr).sum() <= 2 * r.size / k + 1e-9


class TestConjugacyClasses:
    def test_k3_frozen(self):
        got = {t: s for t, s in conjugacy_classes(3)}
        assert got == {(1, 1, 1): 1, (2, 1): 3, (3,): 2}

    def test_k1(self):
        assert conjugacy_classes(1) == (((1,), 1),)

    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_brute_force(self, k):
        counts = {}
        for p in all_permutations(k):
            t = perm_cycle_type(p)
            counts[t] = counts.get(t, 0) + 1
        assert counts == {t: s for t, s in conjugacy_classes(k)}

    def test_sizes_sum_to_factorial(self):
        for k in range(1, 11):
            assert sum(s for _, s in conjugacy_classes(k)) == math.factorial(k)


class TestTableaux:
    def test_counts_match_dimension(self):
        for k in range(1, 7):
            for lam in enumerate_partitions(k):
                assert len(standard_tableaux(lam)) == sk_dimension(lam)

    def test_entries_increase(self):
        for tab in standard_tableaux((3, 2, 1)):
            for i, row in enumerate(tab):
                assert list(row) == sorted(row)
                if i:
                    for j in range(len(row)):
                        assert tab[i - 1][j] < row[j]

    def test_sorted_by_row_word_with_contents(self):
        # every Young matrix indexes its basis by this order
        for k in range(1, 9):
            for lam in enumerate_partitions(k):
                words = []
                for tab, cont in zip(standard_tableaux(lam), _tableau_contents(lam)):
                    word = [0] * k
                    expected = [0] * (k + 1)
                    for i, row in enumerate(tab):
                        for j, entry in enumerate(row):
                            word[entry - 1] = i
                            expected[entry] = j - i
                    words.append(word)
                    assert list(cont) == expected, (lam, tab)
                assert all(a < b for a, b in zip(words, words[1:])), lam

    def test_moves_match_swapping_entries(self):
        # s_i T is T with the entries i and i+1 exchanged; it is standard
        # exactly when they share neither a row nor a column
        for k in range(1, 7):
            for lam in enumerate_partitions(k):
                tableaux = standard_tableaux(lam)
                for t, tab in enumerate(tableaux):
                    moves = _tableau_moves(lam)[t]
                    assert len(moves) == k and moves[0] == -1
                    for i in range(1, k):
                        swapped = tuple(
                            tuple(i + 1 if e == i else i if e == i + 1 else e for e in row)
                            for row in tab
                        )
                        expected = tableaux.index(swapped) if swapped in tableaux else -1
                        assert moves[i] == expected, (lam, tab, i)

    @pytest.mark.parametrize("mu, contents", [
        ((), (0,)),
        ((1,), (1, -1)),
        ((3, 1), (3, 0, -2)),
        ((2, 2), (2, -2)),
        ((4, 2, 2, 1), (4, 1, -2, -4)),
    ])
    def test_addable_contents(self, mu, contents):
        assert _addable_contents(mu) == contents


class TestPermutations:
    def test_compose_and_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = tuple(int(v) for v in rng.permutation(6))
            q = tuple(int(v) for v in rng.permutation(6))
            pq = perm_compose(p, q)
            assert all(pq[i] == p[q[i]] for i in range(6))
            assert perm_compose(p, perm_inverse(p)) == identity_permutation(6)

    def test_adjacent_word_reconstructs(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = tuple(int(v) for v in rng.permutation(7))
            word = adjacent_word(p)
            rebuilt = identity_permutation(7)
            for i in reversed(word):
                rebuilt = perm_compose(rebuilt, adjacent_transposition(7, i))
            assert rebuilt == p

    def test_cycle_type(self):
        assert perm_cycle_type((1, 2, 0, 3)) == (3, 1)
        assert perm_cycle_type(identity_permutation(4)) == (1, 1, 1, 1)

    def test_class_size_formula(self):
        assert class_size((2, 1)) == 3
        assert class_size((3, 3)) == math.factorial(6) // (3 * 3 * 2)
