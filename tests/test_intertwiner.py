import math
import os
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

from snrecoupling.combinatorics import (
    _addable_contents,
    _tableau_moves,
    all_permutations,
    enumerate_partitions,
    sk_dimension,
    standard_tableaux,
)
from snrecoupling import intertwiner
from snrecoupling.recoupling import _build_tensor, full_recoupling_unitary
from snrecoupling.errors import ResourceLimitError, ValidationError
from snrecoupling.intertwiner import (
    DEFAULT_PRODUCT_CAP,
    _check_full_permutation,
    _kronecker_coefficient,
    _solve_cg,
    cg_isometries,
    kronecker_coefficient,
)
from snrecoupling.repsym import young_orthogonal_rep
from snrecoupling.tensorlinalg import fix_vector_sign, orthonormal_nullspace
import oracles
from oracles import bend_and_compare, represent


def brute_force_kronecker(alpha, beta, lam):
    """Oracle: average of explicit matrix traces over the whole group."""
    k = sum(lam)
    reps = {p: young_orthogonal_rep(p) for p in (alpha, beta, lam)}
    total = 0.0
    for perm in all_permutations(k):
        total += (
            np.trace(represent(reps[alpha], perm))
            * np.trace(represent(reps[beta], perm))
            * np.trace(represent(reps[lam], perm))
        )
    value = total / math.factorial(k)
    assert abs(value - round(value)) < 1e-9
    return int(round(value))


def nullspace_oracle(alpha, beta, lam):
    """Oracle: intertwiners as the joint nullspace of the generator equations.

    Works in the dim[alpha]*dim[beta]*dim[lam] space of linear maps and
    restricts by one adjacent transposition s_i at a time to the solutions
    of (rho_alpha (x) rho_beta)(s_i) x = x rho_lam(s_i).
    """
    da, db, dl = (sk_dimension(p) for p in (alpha, beta, lam))
    rep_a, rep_b, rep_l = (young_orthogonal_rep(p) for p in (alpha, beta, lam))
    basis = np.eye(da * db * dl)
    for gen_a, gen_b, gen_l in zip(rep_a.generators, rep_b.generators, rep_l.generators):
        gen_ab = np.kron(gen_a, gen_b)
        images = np.column_stack([
            (gen_ab @ x - x @ gen_l).reshape(-1)
            for x in basis.T.reshape(-1, da * db, dl)
        ])
        null = orthonormal_nullspace(images)
        if not null:
            return []
        basis = basis @ np.column_stack(null)
    return [math.sqrt(dl) * v.reshape(da * db, dl) for v in basis.T]


def eigh_oracle(alpha, beta, lam):
    """Oracle for k = 6-8, where the nullspace route is too slow: an eigensolver
    route with no exact-content projector and no change of orientation.

    In the orientation asked for, it restricts X_2, ..., X_k on
    [alpha] (x) [beta] (X_{j+1} = G_j X_j G_j + G_j with G_j = s_j (x) s_j)
    to the eigenvalue c_T1(j) one eigh at a time, then carries the images of
    the first tableau T1 to every other tableau by Young's step, swapping
    tableau entries directly.
    """
    rep_a, rep_b, rep_l = (young_orthogonal_rep(p) for p in (alpha, beta, lam))
    k, n = sum(lam), rep_a.dim * rep_b.dim
    gens = [np.kron(a, b) for a, b in zip(rep_a.generators, rep_b.generators)]
    tableaux = rep_l.basis

    def contents(tab):
        return {e: j - i for i, row in enumerate(tab) for j, e in enumerate(row)}

    first = contents(tableaux[0])
    span, x = np.eye(n), np.zeros((n, n))
    for j in range(1, k):
        x = gens[j - 1] @ x @ gens[j - 1] + gens[j - 1]
        vals, vecs = np.linalg.eigh(span.T @ x @ span)
        span = (span @ vecs)[:, np.abs(vals - first[j + 1]) < 0.5]

    images = {tableaux[0]: span}
    queue = [tableaux[0]]
    for tab in queue:
        cont = contents(tab)
        for i in range(1, k):
            d = cont[i + 1] - cont[i]
            nxt = tuple(
                tuple(i + 1 if e == i else i if e == i + 1 else e for e in row) for row in tab
            )
            if abs(d) < 2 or nxt in images:
                continue
            images[nxt] = (gens[i - 1] @ images[tab] - images[tab] / d) / math.sqrt(1 - 1 / d**2)
            queue.append(nxt)
    return [np.column_stack([images[t][:, m] for t in tableaux]) for m in range(span.shape[1])]


def multiplicity_projector(maps):
    """sum_i phi_i phi_i^T: independent of the basis of the multiplicity space."""
    return sum(phi @ phi.T for phi in maps)


class TestKroneckerCoefficient:
    def test_tensoring_with_trivial(self):
        for lam in enumerate_partitions(4):
            for mu in enumerate_partitions(4):
                expected = 1 if lam == mu else 0
                assert kronecker_coefficient(lam, (4,), mu) == expected

    def test_self_duality(self):
        for lam in enumerate_partitions(5):
            assert kronecker_coefficient(lam, lam, (5,)) == 1

    def test_standard_cube_of_s3(self):
        assert brute_force_kronecker((2, 1), (2, 1), (2, 1)) == 1
        assert kronecker_coefficient((2, 1), (2, 1), (2, 1)) == 1

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_matrix_trace_oracle(self, k):
        for alpha, beta, lam in product(enumerate_partitions(k), repeat=3):
            assert kronecker_coefficient(alpha, beta, lam) == brute_force_kronecker(
                alpha, beta, lam
            )

    def test_rejects_mismatched_k(self):
        with pytest.raises(ValidationError):
            kronecker_coefficient((2,), (2, 1), (3,))


class TestCgIsometries:
    def test_one_dimensional_case(self):
        basis = cg_isometries((1, 1), (1, 1), (2,))
        assert len(basis) == 1
        assert np.allclose(np.abs(basis[0]), [[1.0]])

    def test_returns_one_read_only_array(self):
        for k in (1, 2, 3, 4):
            for triple in product(enumerate_partitions(k), repeat=3):
                alpha, beta, lam = triple
                maps = cg_isometries(*triple)
                shape = (kronecker_coefficient(*triple),
                         sk_dimension(alpha) * sk_dimension(beta), sk_dimension(lam))
                assert isinstance(maps, np.ndarray) and maps.shape == shape, triple
                assert maps.flags.c_contiguous and not maps.flags.writeable
                with pytest.raises(ValueError):
                    maps[...] = 0.0

    def test_count_matches_kronecker(self):
        for k in (2, 3, 4, 5):
            for alpha, beta, lam in product(enumerate_partitions(k), repeat=3):
                basis = cg_isometries(alpha, beta, lam)
                assert len(basis) == kronecker_coefficient(alpha, beta, lam)

    def test_orthonormality_with_dimension_scale(self):
        for k in (3, 4):
            for alpha, beta, lam in product(enumerate_partitions(k), repeat=3):
                basis = cg_isometries(alpha, beta, lam)
                dl = sk_dimension(lam)
                for i, phi_i in enumerate(basis):
                    for j, phi_j in enumerate(basis):
                        inner = np.trace(phi_j.T @ phi_i)
                        assert inner == pytest.approx(
                            dl if i == j else 0.0, abs=1e-9
                        )

    def test_each_map_is_an_isometry(self):
        for alpha, beta, lam in product(enumerate_partitions(3), repeat=3):
            for phi in cg_isometries(alpha, beta, lam):
                eye = np.eye(sk_dimension(lam))
                assert np.abs(phi.T @ phi - eye).max() < 1e-9

    def test_equivariance_on_random_permutations(self):
        rng = np.random.default_rng(17)
        for k in (3, 4):
            for alpha, beta, lam in product(enumerate_partitions(k), repeat=3):
                basis = cg_isometries(alpha, beta, lam)
                if not len(basis):
                    continue
                rep_a = young_orthogonal_rep(alpha)
                rep_b = young_orthogonal_rep(beta)
                rep_l = young_orthogonal_rep(lam)
                perm = tuple(rng.permutation(k).tolist())
                big = np.kron(represent(rep_a, perm), represent(rep_b, perm))
                small = represent(rep_l, perm)
                for phi in basis:
                    assert np.abs(big @ phi - phi @ small).max() < 1e-9

    def test_completeness_resolution_of_identity(self):
        # the isometry normalization tr(phi^T phi) = dim[lam] makes each
        # phi phi^T an orthogonal projector, so they resolve the identity
        # with no extra weight
        for k in (2, 3, 4):
            for alpha in enumerate_partitions(k):
                for beta in enumerate_partitions(k):
                    da = sk_dimension(alpha)
                    db = sk_dimension(beta)
                    acc = np.zeros((da * db, da * db))
                    for lam in enumerate_partitions(k):
                        basis = cg_isometries(alpha, beta, lam)
                        for phi in basis:
                            acc += phi @ phi.T
                    assert np.abs(acc - np.eye(da * db)).max() < 1e-8

    def test_resource_cap(self, monkeypatch):
        monkeypatch.setattr(intertwiner, "DEFAULT_PRODUCT_CAP", 10)
        with pytest.raises(ResourceLimitError):
            cg_isometries((3, 2), (3, 2), (3, 2))

    def test_cap_bounds_the_jucys_murphy_operator(self, monkeypatch):
        # dim (3,2) = 5: the operator on [alpha] (x) [beta] has 25^2 entries
        triple = ((3, 2), (3, 2), (2, 2, 1))
        monkeypatch.setattr(intertwiner, "DEFAULT_PRODUCT_CAP", 25**2)
        assert len(cg_isometries(*triple)) == 1
        monkeypatch.setattr(intertwiner, "DEFAULT_PRODUCT_CAP", 25**2 - 1)
        with pytest.raises(ResourceLimitError):
            cg_isometries(*triple)

    def test_every_pair_up_to_k7_fits_the_default_cap(self):
        widest = max(sk_dimension(p) for p in enumerate_partitions(7))
        assert widest == 35
        assert (widest * widest) ** 2 <= DEFAULT_PRODUCT_CAP

    def test_above_cap_rejected_before_solving(self):
        # dim (4,3,2,1) = 768: 768^4 entries would be 2.8 TB; rejection only.
        # At k = 70 even the Kronecker coefficient is out of reach (one at
        # k = 50 takes seconds), so the refusal precedes every character sum.
        for triple in (((4, 3, 2, 1),) * 3, ((35, 35), (35, 35), (70,))):
            cached = _solve_cg.cache_info().currsize
            misses = _kronecker_coefficient.cache_info().misses
            with pytest.raises(ResourceLimitError, match="exceeds cap"):
                cg_isometries(*triple)
            assert _solve_cg.cache_info().currsize == cached
            assert _kronecker_coefficient.cache_info().misses == misses


class TestSelfCheck:
    """The solver's equivariance self-check rejects maps that do not intertwine."""

    def test_k2_map_against_the_wrong_target(self):
        # Every irrep of S_2 is one-dimensional, so a sign flip of a map is
        # still an intertwiner; the trivial map checked against the sign
        # rep is not, and only a non-identity permutation shows it.
        with pytest.raises(AssertionError, match="equivariance violated"):
            _check_full_permutation((2,), (2,), (1, 1), cg_isometries((2,), (2,), (2,)))

    def test_k3_map_with_one_tableau_column_flipped(self):
        triple = ((2, 1), (2, 1), (2, 1))
        phi = cg_isometries(*triple)[0].copy()
        _check_full_permutation(*triple, [phi])
        phi[:, 0] *= -1
        with pytest.raises(AssertionError, match="equivariance violated"):
            _check_full_permutation(*triple, [phi])

    def test_k6_stack_with_only_the_second_map_flipped(self):
        triple = ((4, 2), (4, 2), (3, 2, 1))
        maps = cg_isometries(*triple).copy()
        assert len(maps) == 2
        _check_full_permutation(*triple, maps)
        maps[1, :, 3] *= -1
        with pytest.raises(AssertionError, match="equivariance violated for the 6-cycle"):
            _check_full_permutation(*triple, maps)


def test_projector_pivot_ignores_roundoff_ties():
    # At ((3,2,1),)*3 (g = 5) eight diagonal entries of the exact-content
    # projector tie up to roundoff, so the first pivot must not depend on
    # which of them rounding makes largest.
    triple = ((3, 2, 1),) * 3
    maps = cg_isometries(*triple)
    g = len(maps)
    # the coordinates where X_2 = s_1 (x) s_1 takes T1's content of 2, i.e. +1
    a, b = (young_orthogonal_rep(p).generators[0] for p in triple[:2])
    keep = np.flatnonzero(np.kron(np.diag(a), np.diag(b)) == 1)
    images = maps[:, keep, 0].T  # orthonormal columns spanning the projector
    q = images @ images.T
    cols = intertwiner._projector_columns(q, g)
    diag = np.diag(q)
    tied = np.flatnonzero(diag > diag.max() - 1e-12)
    assert len(tied) == 8
    noise = np.random.default_rng(0).standard_normal(q.shape)
    bumps = [1e-14 * np.diag(np.arange(len(q)) == i) for i in tied]
    for bump in bumps + [1e-14 * (noise + noise.T)]:
        assert np.abs(intertwiner._projector_columns(q + bump, g) - cols).max() < 1e-12


def test_solver_path_does_not_import_numpy_random():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = (
        "import sys\n"
        "from snrecoupling.recoupling import full_recoupling_unitary\n"
        "full_recoupling_unitary((4, 2), (4, 2), (4, 2), (3, 3))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# k = 6 triples where the last generator equation of nullspace_oracle leaves
# a single column of roundoff: a cutoff relative to sigma_max alone counts it
# as rank and finds no intertwiner
ROUNDOFF_ONLY_K6 = [
    ((6,), (3, 3), (3, 3)),
    ((2, 2, 2), (2, 2, 2), (2, 2, 2)),
    ((6,), (2, 2, 2), (2, 2, 2)),
    ((3, 3), (2, 2, 2), (3, 3)),
    ((3, 3), (2, 2, 2), (1, 1, 1, 1, 1, 1)),
    ((3, 3), (1, 1, 1, 1, 1, 1), (2, 2, 2)),
]


class TestRoundoffOnlyConstraints:
    @pytest.mark.parametrize("triple", ROUNDOFF_ONLY_K6)
    def test_k6_triples_the_nullspace_route_misses(self, triple):
        # Both orders are axis permutations of one canonical solve.
        alpha, beta, lam = triple
        for t in {triple, (beta, alpha, lam)}:
            assert len(cg_isometries(*t)) == kronecker_coefficient(*t) == 1
            u = bend_and_compare(*t)
            assert abs(abs(u[0, 0]) - 1.0) < 1e-10


# the distinct cg_isometries triples of full_recoupling_unitary((4,2), (4,2), (4,2), (3,3))
UNITARY_K6_TRIPLES = [
    ((4, 2), (4, 2), (5, 1)),
    ((4, 2), (5, 1), (3, 3)),
    ((5, 1), (4, 2), (3, 3)),
    ((4, 2), (4, 2), (4, 1, 1)),
    ((4, 1, 1), (4, 2), (3, 3)),
    ((4, 2), (4, 2), (3, 2, 1)),
    ((3, 2, 1), (4, 2), (3, 3)),
    ((4, 2), (4, 1, 1), (3, 3)),
    ((4, 2), (3, 2, 1), (3, 3)),
]


def swap_factors(phi, alpha, beta):
    """phi: [lam] -> [alpha] (x) [beta] read as a map into [beta] (x) [alpha]."""
    da, db = sk_dimension(alpha), sk_dimension(beta)
    return phi.reshape(da, db, -1).transpose(1, 0, 2).reshape(da * db, -1)


class TestMirroredTriples:
    """cg_isometries(beta, alpha, lam) is cg_isometries(alpha, beta, lam) with its factors swapped."""

    @pytest.mark.parametrize(
        "triples",
        [pytest.param(list(product(enumerate_partitions(k), repeat=3)), id=f"k{k}")
         for k in (2, 3, 4, 5)] + [pytest.param(UNITARY_K6_TRIPLES, id="unitary_k6")],
    )
    def test_maps_are_axis_swaps_up_to_sign(self, triples):
        for alpha, beta, lam in triples:
            if alpha == beta:
                continue
            straight = cg_isometries(alpha, beta, lam)
            mirrored = cg_isometries(beta, alpha, lam)
            assert len(straight) == len(mirrored) == kronecker_coefficient(alpha, beta, lam)
            for phi, psi in zip(straight, mirrored):
                swapped = swap_factors(phi, alpha, beta)
                assert min(np.abs(psi - swapped).max(), np.abs(psi + swapped).max()) < 1e-12
                assert not psi.flags.writeable
            _check_full_permutation(alpha, beta, lam, straight)
            _check_full_permutation(beta, alpha, lam, mirrored)

    @pytest.mark.parametrize("triple", [((4, 2), (5, 1), (3, 3)), ((3, 2, 1), (4, 2), (4, 2))])
    def test_solver_path_calls_no_kron(self, monkeypatch, triple):
        def no_kron(*args, **kwargs):
            raise AssertionError("np.kron called on the solver path")

        _solve_cg.cache_clear()
        monkeypatch.setattr(np, "kron", no_kron)
        basis = cg_isometries(*triple)
        assert len(basis) == kronecker_coefficient(*triple) >= 1
        mirror = (triple[1], triple[0], triple[2])
        assert _solve_cg.cache_info().currsize == 2  # the triple and its canonical orientation
        assert len(cg_isometries(*mirror)) == len(basis)


def count_solves(monkeypatch):
    """Clear the memo and record the labels of every Jucys-Murphy solve."""
    calls = []
    solve = intertwiner._jucys_murphy_stack

    def counting(rep_a, rep_b, rep_l, g):
        calls.append((rep_a.shape, rep_b.shape, rep_l.shape))
        return solve(rep_a, rep_b, rep_l, g)

    monkeypatch.setattr(intertwiner, "_jucys_murphy_stack", counting)
    _solve_cg.cache_clear()
    return calls


def smallest_pair_product(triple):
    dims = sorted(map(sk_dimension, triple))
    return dims[0] * dims[1]


class TestCanonicalOrientation:
    """One Jucys-Murphy solve per label set, in the orientation with the
    smallest pair product; every other orientation permutes its axes."""

    def test_unitary_k6_makes_six_solves(self, monkeypatch):
        calls = count_solves(monkeypatch)
        _build_tensor.cache_clear()
        full_recoupling_unitary((4, 2), (4, 2), (4, 2), (3, 3))
        assert len(calls) == 6
        assert len({tuple(sorted(c)) for c in calls}) == 6
        products = [sk_dimension(a) * sk_dimension(b) for a, b, _ in calls]
        assert products == [smallest_pair_product(c) for c in calls]
        assert sorted(products) == [25, 45, 45, 45, 81, 81]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_one_solve_per_label_multiset(self, monkeypatch, k):
        calls = count_solves(monkeypatch)
        triples = list(product(enumerate_partitions(k), repeat=3))
        for triple in triples:
            cg_isometries(*triple)
        nonempty = {tuple(sorted(t)) for t in triples if kronecker_coefficient(*t) > 0}
        assert len(calls) == len(nonempty)
        assert {tuple(sorted(c)) for c in calls} == nonempty
        for call in calls:
            assert sk_dimension(call[0]) * sk_dimension(call[1]) == smallest_pair_product(call)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_every_orientation_passes_the_self_check(self, k):
        for triple in product(enumerate_partitions(k), repeat=3):
            g = kronecker_coefficient(*triple)
            for t in set(permutations(triple)):
                maps = cg_isometries(*t)
                assert len(maps) == g
                _check_full_permutation(*t, maps)

    def test_solver_path_calls_no_eigh(self, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called on the solver path")

        _solve_cg.cache_clear()
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        for triple in UNITARY_K6_TRIPLES + [((3, 2, 1),) * 3]:
            assert len(cg_isometries(*triple)) == kronecker_coefficient(*triple)


class TestOneSignedTensor:
    """Only the canonical orientation is signed; every other orientation is
    exactly its axis permutation, scaled, with no sign of its own."""

    @pytest.mark.parametrize(
        "triples",
        [pytest.param(list(product(enumerate_partitions(k), repeat=3)), id=f"k{k}")
         for k in (1, 2, 3, 4, 5)] + [pytest.param(UNITARY_K6_TRIPLES, id="unitary_k6")],
    )
    def test_orientations_permute_the_canonical_tensor_exactly(self, triples):
        for triple in triples:
            g = kronecker_coefficient(*triple)
            if not g:
                continue
            canon = intertwiner._canonical_orientation(triple)
            signed = cg_isometries(*canon)
            rows = signed.reshape(g, -1)
            assert np.array_equal(fix_vector_sign(rows), rows), canon
            # the first axis order, in itertools order, that reads canon as triple
            axes = next(
                p for p in permutations(range(3))
                if all(canon[i] == label for i, label in zip(p, triple))
            )
            dims = [sk_dimension(p) for p in canon]
            dl = sk_dimension(triple[2])
            cube = signed.reshape(g, *dims).transpose(0, *(1 + a for a in axes))
            expected = (cube * math.sqrt(dl / dims[2])).reshape(g, -1, dl)
            assert np.array_equal(cg_isometries(*triple), expected), triple

    def test_cold_unitary_k6_signs_six_solves(self):
        # 13 ordered triples: 6 canonical solves, 7 axis permutations of them
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        code = (
            "from collections import Counter\n"
            "import numpy as np\n"
            "from snrecoupling import intertwiner\n"
            "from snrecoupling.recoupling import full_recoupling_unitary\n"
            "calls = Counter()\n"
            "def wrap(owner, name):\n"
            "    real = getattr(owner, name)\n"
            "    def counted(*args, **kwargs):\n"
            "        calls[name] += 1\n"
            "        return real(*args, **kwargs)\n"
            "    setattr(owner, name, counted)\n"
            "wrap(intertwiner, 'fix_vector_sign')\n"
            "wrap(intertwiner, '_check_full_permutation')\n"
            "wrap(np, 'eye')\n"
            "full_recoupling_unitary((4, 2), (4, 2), (4, 2), (3, 3))\n"
            "print(calls['fix_vector_sign'], calls['_check_full_permutation'], calls['eye'])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["6", "13", "0"]


@pytest.mark.parametrize("k", range(1, 9))
def test_shape_plan_matches_the_tableaux(k):
    for lam in enumerate_partitions(k):
        factors, steps = intertwiner._shape_plan(lam)
        tableaux = standard_tableaux(lam)
        contents = [
            {e: col - row for row, entries in enumerate(tab) for col, e in enumerate(entries)}
            for tab in tableaux
        ]
        moves = _tableau_moves(lam)
        reached = {0}
        for src, dst, i, d, norm in steps:
            assert src in reached and dst not in reached
            assert moves[src][i + 1] == dst
            assert d == contents[src][i + 2] - contents[src][i + 1]
            assert norm == math.sqrt(1.0 - 1.0 / d**2)
            reached.add(dst)
        assert reached == set(range(len(tableaux)))
        first = tableaux[0]
        expected = []
        for j in range(2, k):
            prefix = [m for m in (len([e for e in row if e <= j]) for row in first) if m]
            c = contents[0][j + 1]
            assert c in _addable_contents(prefix)
            expected.append((c, tuple(a for a in _addable_contents(prefix) if a != c)))
        assert factors == tuple(expected)


class TestEighOracle:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_oracle_matches_nullspace_oracle(self, k):
        for triple in product(enumerate_partitions(k), repeat=3):
            expected = nullspace_oracle(*triple)
            maps = eigh_oracle(*triple)
            assert len(maps) == len(expected)
            if maps:
                diff = multiplicity_projector(maps) - multiplicity_projector(expected)
                assert np.abs(diff).max() < 1e-10, triple

    @pytest.mark.parametrize(
        "triple",
        UNITARY_K6_TRIPLES + [
            ((3, 2, 1),) * 3,
            ((3, 2, 1, 1), (3, 2, 1, 1), (4, 2, 1)),
            # k = 8, g = 4, n = 1,400: n^2 is 98% of DEFAULT_PRODUCT_CAP
            ((6, 2), (4, 3, 1), (4, 3, 1)),
        ],
    )
    def test_projector_matches_oracle(self, triple):
        maps = cg_isometries(*triple)
        expected = eigh_oracle(*triple)
        assert len(maps) == len(expected) == kronecker_coefficient(*triple)
        diff = multiplicity_projector(maps) - multiplicity_projector(expected)
        assert np.abs(diff).max() < 1e-12, triple


class TestNullspaceOracle:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_projector_matches_oracle(self, k):
        # every triple up to k = 5, where dim products reach 6^3 = 216
        for alpha, beta, lam in product(enumerate_partitions(k), repeat=3):
            maps = cg_isometries(alpha, beta, lam)
            expected = nullspace_oracle(alpha, beta, lam)
            assert len(maps) == len(expected)
            if not len(maps):
                continue
            diff = multiplicity_projector(maps) - multiplicity_projector(expected)
            assert np.abs(diff).max() < 1e-10, (alpha, beta, lam)

    @pytest.mark.parametrize("triple", ROUNDOFF_ONLY_K6)
    def test_roundoff_only_constraints(self, triple):
        maps = cg_isometries(*triple)
        expected = nullspace_oracle(*triple)
        assert len(maps) == len(expected) == 1
        diff = multiplicity_projector(maps) - multiplicity_projector(expected)
        assert np.abs(diff).max() < 1e-10


class TestReach:
    @pytest.mark.parametrize(
        "triple",
        [((3, 2, 1),) * 3, ((3, 2, 1, 1), (3, 2, 1, 1), (4, 2, 1))],
    )
    def test_orthonormal_and_bends(self, triple):
        basis = cg_isometries(*triple)
        g = kronecker_coefficient(*triple)
        assert g > 1 and len(basis) == g
        dl = sk_dimension(triple[2])
        gram = np.einsum("iab,jab->ij", basis, basis)
        assert np.abs(gram - dl * np.eye(g)).max() < 1e-9
        u = bend_and_compare(*triple)
        assert np.abs(u @ u.T - np.eye(g)).max() < 1e-8


class TestTrivialCoupling:
    """The one map [k] -> [lam] (x) [lam] is the maximally entangled vector."""

    def test_matches_cg_up_to_sign(self):
        for k in (2, 3, 4):
            for lam in enumerate_partitions(k):
                vec = cg_isometries(lam, lam, (k,))[0].reshape(-1)
                d = sk_dimension(lam)
                ref = np.eye(d).reshape(-1) / math.sqrt(d)
                assert min(
                    np.abs(vec - ref).max(), np.abs(vec + ref).max()
                ) < 1e-9

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_teleportation_identity(self, k):
        for lam in enumerate_partitions(k):
            d = sk_dimension(lam)
            phi = cg_isometries(lam, lam, (k,))[0].reshape(d, d)
            # (cap on the left) o (cup on the right) collapses to 1/d times
            # the identity line
            composed = np.einsum("ef,fg->ge", phi, phi)
            assert np.abs(composed - np.eye(d) / d).max() < 1e-10


class TestBendAndCompare:
    def test_one_dimensional_reps(self):
        u = bend_and_compare((1, 1), (1, 1), (2,))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_standard_cube(self):
        u = bend_and_compare((2, 1), (2, 1), (2, 1))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-10

    def test_all_k3_triples(self):
        for alpha, beta, lam in product(enumerate_partitions(3), repeat=3):
            if kronecker_coefficient(alpha, beta, lam) < 1:
                continue
            u = bend_and_compare(alpha, beta, lam)
            g = u.shape[0]
            assert np.abs(u @ u.T.conj() - np.eye(g)).max() < 1e-8

    def test_triple_without_intertwiners_is_rejected(self):
        with pytest.raises(ValidationError):
            bend_and_compare((2,), (2,), (1, 1))  # no intertwiners at all

    @pytest.mark.parametrize("scaled, match", [
        (((2, 1), (2, 1), (3,)), "bent Gram matrix deviates"),
        (((3,), (2, 1), (2, 1)), "not unitary"),
    ])
    def test_scaled_basis_is_caught(self, monkeypatch, scaled, match):
        # doubling the source maps breaks the bent Gram matrix; doubling the
        # maps of the bent orientation leaves it intact but doubles U
        real = oracles.cg_isometries
        monkeypatch.setattr(
            oracles, "cg_isometries",
            lambda *t: real(*t) * (2.0 if t == scaled else 1.0),
        )
        with pytest.raises(AssertionError, match=match):
            bend_and_compare((2, 1), (2, 1), (3,))
