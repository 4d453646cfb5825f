import math
from itertools import product
from typing import NamedTuple

import numpy as np
import pytest

from snrecoupling.combinatorics import (
    all_permutations,
    enumerate_partitions,
    perm_inverse,
    random_permutation,
    sk_dimension,
    weyl_dimension,
)
from snrecoupling.errors import ResourceLimitError, ValidationError
from snrecoupling.experiments import _ball, cmd_overlap_certificate
from snrecoupling.intertwiner import kronecker_coefficient
from snrecoupling.quantumstates import (
    DensityMatrix,
    maximally_mixed,
    pure_state,
    sample_hs_random,
    spectra_tuple,
)
from snrecoupling.recoupling import recoupling_tensor
from snrecoupling.schurweyl import (
    _ball_coefficients,
    _fourier_norms,
    _sk_tables,
    _times_ball,
    ball_sum_projector,
    hs_norm_via_schurweyl,
    isotypic_projector,
    overlap_trace,
    permutation_index_map,
    permutation_traces,
    projected_trace,
    trace_with_tensor_power,
    tripartite_elements,
)
from snrecoupling.tensorlinalg import hs_norm, op_norm


class TripartiteProjectors(NamedTuple):
    p_tilde: np.ndarray
    q_tilde: np.ndarray


def tripartite_projectors(alphas, betas, gammas, mus, nus, lams, dims, k):
    """Oracle: P~ and Q~ for balls of labels as dense operators on (C^{abc})^(x k).

    The products of tripartite_elements, multiplied out from the dense ball
    sums of ball_sum_projector, with abc = S_alpha S_beta S_gamma:

        Q~ = abc S_mu S_gamma S_lam,   P~ = abc S_alpha S_nu S_lam.

    Every S is built just before its first use and dropped after its last,
    so at most five dense matrices are alive at once.
    """
    def ball(labels, group):
        return ball_sum_projector(labels, dims, k, group)

    s_a = ball(alphas, "A")
    s_c = ball(gammas, "C")
    abc = (s_a @ ball(betas, "B")) @ s_c
    p_tilde = abc @ (s_a @ ball(nus, "BC"))
    del s_a
    q_tilde = (abc @ ball(mus, "AB")) @ s_c
    del abc, s_c
    s_l = ball(lams, "ABC")
    return TripartiteProjectors(p_tilde=p_tilde @ s_l, q_tilde=q_tilde @ s_l)


def single(alpha, beta, gamma, mu, nu, lam, dims, k):
    """tripartite_projectors for one label tuple."""
    return tripartite_projectors([alpha], [beta], [gamma], [mu], [nu], [lam], dims, k)


def lift_by_kron_and_reorder(base, dims, k, group):
    """Oracle: embed a grouped projector by kron with identity, then reorder
    the digit axes into the global copy-major convention."""
    a, b, c = dims
    group_dims = {"A": [a], "B": [b], "C": [c], "AB": [a, b], "BC": [b, c]}[group]
    rest_dims = {"A": [b, c], "B": [a, c], "C": [a, b], "AB": [c], "BC": [a]}[group]
    positions = {"A": [0], "B": [1], "C": [2], "AB": [0, 1], "BC": [1, 2]}[group]
    rest_positions = [p for p in range(3) if p not in positions]
    full = np.kron(base, np.eye(int(np.prod(rest_dims)) ** k))
    in_dims = [d for _ in range(k) for d in group_dims] + [
        d for _ in range(k) for d in rest_dims
    ]
    perm = []
    for t in range(k):
        for s in range(3):
            if s in positions:
                perm.append(t * len(group_dims) + positions.index(s))
            else:
                perm.append(k * len(group_dims) + t * len(rest_dims) + rest_positions.index(s))
    tens = full.reshape(in_dims + in_dims)
    axes = perm + [len(in_dims) + p for p in perm]
    total = int(np.prod(in_dims))
    return tens.transpose(axes).reshape(total, total)


class TestIsotypicProjector:
    def test_symmetric_subspace_rank(self):
        p = isotypic_projector((2,), 2, 2)
        assert round(np.trace(p)) == 3  # C(d+k-1, k) = C(3, 2)

    def test_singlet_rank(self):
        p = isotypic_projector((1, 1), 2, 2)
        assert round(np.trace(p)) == 1

    @pytest.mark.parametrize("d,k", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5)])
    def test_rank_equals_schur_weyl_count(self, d, k):
        for lam in enumerate_partitions(k):
            p = isotypic_projector(lam, d, k)
            rank = round(float(np.trace(p)))
            assert rank == sk_dimension(lam) * weyl_dimension(lam, d)

    def test_projector_properties_and_completeness(self):
        total = np.zeros((16, 16))
        for lam in enumerate_partitions(4):
            p = isotypic_projector(lam, 2, 4)
            assert np.abs(p @ p - p).max() < 1e-10
            assert np.abs(p - p.T).max() < 1e-12
            total += p
        assert np.abs(total - np.eye(16)).max() < 1e-10

    def test_commutes_with_permutations_and_diagonal_unitaries(self):
        rng = np.random.default_rng(4)
        p = isotypic_projector((3, 1), 2, 4)
        for _ in range(5):
            perm = random_permutation(4, rng)
            mat = np.zeros((16, 16))
            y = permutation_index_map(perm, (2,), 4, (True,))
            mat[y, np.arange(16)] = 1.0
            assert np.abs(p @ mat - mat @ p).max() < 1e-9
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w, _ = np.linalg.qr(g)
        big = np.eye(1)
        for _ in range(4):
            big = np.kron(big, w)
        assert np.abs(p @ big - big @ p).max() < 1e-9

    def test_resource_refusal(self):
        with pytest.raises(ResourceLimitError):
            isotypic_projector((13,), 3, 13)


class TestProjectedTrace:
    def test_maximally_mixed_qubit(self):
        rho = maximally_mixed(2)
        assert projected_trace((2,), rho, 2) == pytest.approx(3 / 4)
        assert projected_trace((1, 1), rho, 2) == pytest.approx(1 / 4)

    def test_hand_computed_biased_qubit(self):
        rho = DensityMatrix(dims=(2,), matrix=np.diag([2 / 3, 1 / 3]))
        # cycle-type formula by hand: ((tr rho)^2 + tr(rho^2)) / 2 etc.
        assert projected_trace((2,), rho, 2) == pytest.approx(7 / 9)
        assert projected_trace((1, 1), rho, 2) == pytest.approx(2 / 9)

    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_completeness(self, k):
        rho = sample_hs_random(2, seed=13)
        total = sum(projected_trace(lam, rho, k) for lam in enumerate_partitions(k))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_route(self):
        rho = sample_hs_random(2, seed=14)
        for k in (2, 3, 4):
            rho_k = rho.matrix
            for _ in range(k - 1):
                rho_k = np.kron(rho_k, rho.matrix)
            for lam in enumerate_partitions(k):
                dense = float(np.trace(isotypic_projector(lam, 2, k) @ rho_k).real)
                assert projected_trace(lam, rho, k) == pytest.approx(dense, abs=1e-10)


def digit_loop_map(perm, dims, k, active):
    """Reference index map: output digit (t, s) is input digit (perm^-1(t), s)
    on active subsystems, (t, s) otherwise."""
    n = len(dims)
    digits = np.unravel_index(np.arange(int(np.prod(dims)) ** k), dims * k)
    inv = perm_inverse(perm)
    out = [digits[(inv[t] if active[s] else t) * n + s] for t in range(k) for s in range(n)]
    return np.ravel_multi_index(out, dims * k)


class TestGroupedProjectors:
    @pytest.mark.parametrize("dims,k", [((2, 2, 3), 3), ((3,), 4)])
    def test_index_map_matches_digit_loop(self, dims, k):
        masks = list(product((False, True), repeat=len(dims)))
        for perm in all_permutations(k):
            for active in masks:
                got = permutation_index_map(perm, dims, k, active)
                assert np.array_equal(got, digit_loop_map(perm, dims, k, active))
            if len(dims) == 1:
                # U(perm) e_x = e_y[x] is the matrix-free tensor-factor permutation
                v = np.random.default_rng(3).standard_normal(dims[0] ** k)
                moved = np.empty_like(v)
                moved[permutation_index_map(perm, dims, k, (True,))] = v
                factors = v.reshape(dims * k).transpose(perm_inverse(perm)).reshape(-1)
                assert np.array_equal(moved, factors)

    def test_fusing_order_regression(self):
        # independent construction: kron with identity, then digit reorder
        dims, k = (2, 2, 2), 2
        for group, base_dim in (("A", 2), ("B", 2), ("C", 2), ("AB", 4), ("BC", 4)):
            for lam in enumerate_partitions(k):
                base = isotypic_projector(lam, base_dim, k)
                expected = lift_by_kron_and_reorder(base, dims, k, group)
                got = ball_sum_projector([lam], dims, k, group)
                assert np.abs(expected - got).max() < 1e-12, (group, lam)

    def test_ball_sum_matches_individual_sum(self):
        dims, k = (2, 2, 2), 2
        labels = list(enumerate_partitions(2))
        bs = ball_sum_projector(labels, dims, k, "BC")
        direct = sum(ball_sum_projector([l], dims, k, "BC") for l in labels)
        assert np.abs(bs - direct).max() < 1e-12

    def test_k1_all_trivial_gives_identity(self):
        pair = single((1,), (1,), (1,), (1,), (1,), (1,), (2, 2, 2), 1)
        assert np.abs(pair.p_tilde - np.eye(8)).max() < 1e-12
        assert np.abs(pair.q_tilde - np.eye(8)).max() < 1e-12

    def test_q_tilde_projector_properties_k2(self):
        parts = enumerate_partitions(2)
        for alpha, beta, gamma, mu, lam in product(parts, repeat=5):
            q = single(alpha, beta, gamma, mu, (2,), lam, (2, 2, 2), 2).q_tilde
            assert np.abs(q @ q - q).max() < 1e-10
            assert np.abs(q - q.T).max() < 1e-10

    def test_q_tilde_trace_matches_dimension_bookkeeping(self):
        dims = (2, 2, 2)
        parts = enumerate_partitions(2)
        for alpha, beta, gamma, mu, lam in product(parts, repeat=5):
            q = single(alpha, beta, gamma, mu, (2,), lam, dims, 2).q_tilde
            expected = (
                sk_dimension(lam)
                * kronecker_coefficient(mu, gamma, lam)
                * kronecker_coefficient(alpha, beta, mu)
                * weyl_dimension(alpha, 2)
                * weyl_dimension(beta, 2)
                * weyl_dimension(gamma, 2)
            )
            assert np.trace(q) == pytest.approx(expected, abs=1e-8)

    def test_ball_chain_is_the_sum_of_single_tuple_chains(self):
        # lifted projectors within one group are orthogonal and all of them
        # commute, so the ball sums multiply out to sums over label tuples;
        # Q~ does not depend on nu and P~ does not depend on mu
        dims, k = (2, 2, 2), 2
        parts = enumerate_partitions(k)
        got = tripartite_projectors(parts, parts, parts, parts, parts, parts, dims, k)
        p_sum = np.zeros((8**k, 8**k))
        q_sum = np.zeros((8**k, 8**k))
        for alpha, beta, gamma, lam in product(parts, repeat=4):
            for middle in parts:
                q_sum += single(alpha, beta, gamma, middle, parts[0], lam, dims, k).q_tilde
                p_sum += single(alpha, beta, gamma, parts[0], middle, lam, dims, k).p_tilde
        assert np.abs(got.p_tilde - p_sum).max() < 1e-12
        assert np.abs(got.q_tilde - q_sum).max() < 1e-12


class TestCrossRoute:
    def test_all_trivial(self):
        result = hs_norm_via_schurweyl((2,), (2,), (2,), (2,), (2,), (2,), (2, 2, 2), 2)
        assert result.hs == pytest.approx(1.0, abs=1e-10)

    def test_trivial_gamma_gives_sqrt_kronecker(self):
        for alpha, beta in product([p for p in enumerate_partitions(3) if len(p) <= 2], repeat=2):
            for lam in enumerate_partitions(3):
                got = hs_norm_via_schurweyl(
                    alpha, beta, (3,), lam, beta, lam, (2, 2, 2), 3
                )
                expected = math.sqrt(kronecker_coefficient(alpha, beta, lam))
                assert got.hs == pytest.approx(expected, abs=1e-8)

    def test_sample_against_abstract_route(self):
        tuples = [
            ((2, 1), (2, 1), (2, 1), (3,), (3,), (2, 1)),
            ((2, 1), (2, 1), (2, 1), (3,), (2, 1), (2, 1)),
            ((3,), (2, 1), (2, 1), (2, 1), (3,), (2, 1)),
            ((2, 1), (2, 1), (3,), (2, 1), (2, 1), (2, 1)),
        ]
        for labels in tuples:
            sw = hs_norm_via_schurweyl(*labels, (2, 2, 2), 3)
            abstract = recoupling_tensor(*labels).hs
            assert sw.hs == pytest.approx(abstract, abs=1e-8)
            assert sw.op <= abstract + 1e-9

    def test_unequal_dims_against_abstract_route(self):
        # (2, 2, 3): gamma may have three rows, and the Weyl multiplicities
        # on C differ from those on A and B
        tuples = [
            ((2, 1), (2, 1), (1, 1, 1), (2, 1), (2, 1), (2, 1)),
            ((2, 1), (2, 1), (2, 1), (2, 1), (2, 1), (2, 1)),
            ((3,), (2, 1), (2, 1), (2, 1), (2, 1), (2, 1)),
            ((2, 1), (3,), (1, 1, 1), (2, 1), (1, 1, 1), (2, 1)),
            ((2, 1), (2, 1), (3,), (1, 1, 1), (2, 1), (1, 1, 1)),
        ]
        for labels in tuples:
            sw = hs_norm_via_schurweyl(*labels, (2, 2, 3), 3)
            abstract = recoupling_tensor(*labels).hs
            assert sw.hs == pytest.approx(abstract, abs=1e-10), labels
            assert sw.op <= abstract + 1e-10
        assert any(recoupling_tensor(*labels).hs > 0.1 for labels in tuples)

    def test_k4_sample_against_abstract_route(self):
        # a fixed sample of k = 4 tuples with two-row alpha, beta, gamma whose
        # four Kronecker coefficients are nonzero (most others have norm 0)
        parts = enumerate_partitions(4)
        two_row = enumerate_partitions(4, 2)
        admissible = [
            (alpha, beta, gamma, mu, nu, lam)
            for alpha, beta, gamma in product(two_row, repeat=3)
            for mu, nu, lam in product(parts, repeat=3)
            if kronecker_coefficient(alpha, beta, mu) and kronecker_coefficient(mu, gamma, lam)
            and kronecker_coefficient(beta, gamma, nu) and kronecker_coefficient(alpha, nu, lam)
        ]
        rng = np.random.default_rng(4)
        for i in rng.choice(len(admissible), size=10, replace=False):
            labels = admissible[i]
            sw = hs_norm_via_schurweyl(*labels, (2, 2, 2), 4)
            abstract = recoupling_tensor(*labels).hs
            assert sw.hs == pytest.approx(abstract, abs=1e-10), labels
            assert sw.op <= abstract + 1e-10

    def test_row_precondition_enforced(self):
        with pytest.raises(ValidationError):
            hs_norm_via_schurweyl(
                (1, 1, 1), (3,), (3,), (3,), (3,), (3,), (2, 2, 2), 3
            )


EVERY_3 = list(enumerate_partitions(3))


class TestFourierNorms:
    """HS and op norms of P~ Q~ from its Fourier blocks against the dense oracle."""

    def assert_norms_match_dense(self, balls, dims, k):
        got = _fourier_norms(tripartite_elements(*balls, dims, k).pq, dims, k)
        p_op, q_op = tripartite_projectors(*balls, dims, k)
        pq = p_op @ q_op
        assert got[0] == pytest.approx(hs_norm(pq), abs=1e-12), balls
        assert got[1] == pytest.approx(op_norm(pq), abs=1e-12), balls

    def test_every_single_tuple_k2(self):
        for labels in product(enumerate_partitions(2), repeat=6):
            self.assert_norms_match_dense([[l] for l in labels], (2, 2, 2), 2)

    @pytest.mark.parametrize(
        "balls",
        [
            [[(2, 1)], [(2, 1)], [(2, 1)], [(3,)], [(3,)], [(2, 1)]],
            [[(2, 1)], [(2, 1)], [(2, 1)], [(2, 1)], [(2, 1)], [(2, 1)]],
            [[(3,)], [(2, 1)], [(2, 1)], [(2, 1)], [(2, 1)], [(1, 1, 1)]],
            [[(2, 1)], [(3,)], [(2, 1)], [(1, 1, 1)], [(2, 1)], [(2, 1)]],
            # several irrep triples contribute, not one tuple's block
            [EVERY_3, [(2, 1)], EVERY_3, EVERY_3, [(3,), (2, 1)], EVERY_3],
            # (1, 1, 1) on A has no Weyl module on C^2: the operator is 0,
            # though the group-algebra element is not
            [[(1, 1, 1)], [(3,), (2, 1)], EVERY_3, EVERY_3, EVERY_3, EVERY_3],
        ],
    )
    def test_sample_k3(self, balls):
        self.assert_norms_match_dense(balls, (2, 2, 2), 3)


class TestOverlapTraces:
    def test_completeness_over_all_labels(self):
        dims, k = (2, 2, 2), 2
        rho = sample_hs_random(dims, seed=21)
        parts = list(enumerate_partitions(k))
        full = ball_sum_projector(parts, dims, k, "ABC")
        assert trace_with_tensor_power(full, rho.matrix, k).real == pytest.approx(1.0)

    def test_operator_norm_bound_and_cauchy_schwarz(self):
        dims, k = (2, 2, 2), 2
        rng_states = [sample_hs_random(dims, seed=s) for s in range(30, 36)]
        labels = ((2,), (2,), (2,), (2,), (2,), (2,))
        alpha, beta, gamma, mu, nu, lam = labels
        p_op, q_op = single(*labels, dims, k)
        bound = op_norm(p_op @ q_op)
        elements = tripartite_elements(*([l] for l in labels), dims, k)
        for rho in rng_states:
            traces = overlap_trace(elements, rho, k)
            assert abs(traces.t_pq) <= bound + 1e-9
            assert abs(traces.t_pq) <= math.sqrt(max(traces.t_p, 0)) * math.sqrt(
                max(traces.t_q, 0)
            ) + 1e-9

    def test_trace_with_tensor_power_matches_dense(self):
        rng = np.random.default_rng(40)
        rho = sample_hs_random(4, seed=41).matrix
        m = rng.standard_normal((16, 16))
        dense = float(np.trace(m @ np.kron(rho, rho)).real)
        assert trace_with_tensor_power(m, rho, 2).real == pytest.approx(dense, abs=1e-10)


def certificate_balls(rho, k, delta):
    """The six label balls of cmd_overlap_certificate, in chain order."""
    a, b, c = rho.dims
    s = spectra_tuple(rho)
    rows = (a, b, c, a * b, b * c, a * b * c)
    spectra = (s.r_a, s.r_b, s.r_c, s.r_ab, s.r_bc, s.r_abc)
    return [_ball(k, r, delta, m) for r, m in zip(spectra, rows)]


def assert_traces_match_dense_chain(balls, rho, k):
    """overlap_trace against the dense chain and trace_with_tensor_power, to 1e-12."""
    got = overlap_trace(tripartite_elements(*balls, rho.dims, k), rho, k)
    p_op, q_op = tripartite_projectors(*balls, rho.dims, k)
    want = (
        trace_with_tensor_power(p_op @ q_op, rho.matrix, k),
        trace_with_tensor_power(p_op, rho.matrix, k).real,
        trace_with_tensor_power(q_op, rho.matrix, k).real,
    )
    for name, g, w in zip(got._fields, got, want):
        assert abs(g - w) < 1e-12, (name, g, w)


def literal_chain(balls, k):
    """Oracle: P~, Q~ and P~ Q~ multiplied out factor by factor, 15 passes:

        abc = 1 S_alpha S_beta S_gamma,   P~ = abc S_alpha S_nu S_lam,
        Q~ = abc S_mu S_gamma S_lam,      P~ Q~ = P~ S_alpha S_beta S_gamma S_mu S_gamma S_lam.

    A factor on one subsystem moves that axis through the multiplication
    table with np.take; the AB, BC and ABC factors go through _times_ball.
    """
    tables = _sk_tables(k)
    s_a, s_b, s_c, s_mu, s_nu, s_lam = (
        (_ball_coefficients(labels, k), group)
        for labels, group in zip(balls, (0, 1, 2, "AB", "BC", "ABC"))
    )

    def times(x, *factors):
        for coeffs, group in factors:
            if isinstance(group, str):
                x = _times_ball(x, coeffs, group, tables)
                continue
            out = np.zeros_like(x)
            for j in np.flatnonzero(coeffs):
                out += coeffs[j] * np.take(x, tables.mul[:, tables.inv[j]], axis=group)
            x = out
        return x

    n = len(tables.perms)
    identity = np.zeros((n, n, n))
    identity[0, 0, 0] = 1.0  # all_permutations lists the identity first
    abc = times(identity, s_a, s_b, s_c)
    p_tilde = times(abc, s_a, s_nu, s_lam)
    q_tilde = times(abc, s_mu, s_c, s_lam)
    return p_tilde, q_tilde, times(p_tilde, s_a, s_b, s_c, s_mu, s_c, s_lam)


def index_map_of(g, dims, k):
    """Index map of U(g) = U_A(g_A) U_B(g_B) U_C(g_C) for perms g = (g_A, g_B, g_C)."""
    y = np.arange(math.prod(dims) ** k)
    for s, perm in enumerate(g):
        y = permutation_index_map(perm, dims, k, [t == s for t in range(3)])[y]
    return y


class TestGroupAlgebraRoute:
    def test_group_law_matches_index_maps(self):
        # U(pi) U(tau) = U(pi o tau): the permutation matrix of the composed
        # index maps y_pi[y_tau] is the product of the two matrices
        dims, k = (2, 2, 3), 3
        tables = _sk_tables(k)
        perms = tables.perms
        for s in range(3):
            active = [t == s for t in range(3)]
            maps = [permutation_index_map(p, dims, k, active) for p in perms]
            for i, j in product(range(len(perms)), repeat=2):
                assert np.array_equal(maps[i][maps[j]], maps[tables.mul[i, j]])
            for i in range(len(perms)):
                assert np.array_equal(maps[i][maps[tables.inv[i]]], maps[0])
        # and as dense matrices, on the AB pairs of every copy
        dims, k = (2, 2, 3), 2
        total = math.prod(dims) ** k
        perms = _sk_tables(k).perms
        mats = []
        for p in perms:
            m = np.zeros((total, total))
            m[permutation_index_map(p, dims, k, (True, True, False)), np.arange(total)] = 1.0
            mats.append(m)
        for i, j in product(range(len(perms)), repeat=2):
            assert np.array_equal(mats[i] @ mats[j], mats[_sk_tables(k).mul[i, j]])

    @pytest.mark.parametrize(
        "dims,k,seed,delta",
        [((2, 2, 3), 3, 1, 1.0), ((2, 2, 3), 3, 2, 1.0), ((2, 2, 3), 3, 3, 1.0),
         ((2, 2, 2), 2, 0, 1.0), ((2, 2, 2), 3, 0, 1.0)],
    )
    def test_traces_match_dense_chain(self, dims, k, seed, delta):
        rho = sample_hs_random(dims, seed=seed)
        assert_traces_match_dense_chain(certificate_balls(rho, k, delta), rho, k)

    @pytest.mark.parametrize("seed", range(5))
    def test_elements_match_literal_chain_k4(self, seed):
        # k = 4 is beyond the dense oracle; the chain is multiplied out here
        rho = sample_hs_random((2, 2, 2), seed=seed)
        balls = certificate_balls(rho, 4, 1.0)
        got = tripartite_elements(*balls, rho.dims, 4)
        for name, g, w in zip(got._fields, got, literal_chain(balls, 4)):
            assert np.abs(g - w).max() <= 1e-15, name

    def test_repeated_ball_labels_rejected(self):
        # a repeated label makes the ball factor twice a projector, not an idempotent
        with pytest.raises(ValidationError, match="repeat"):
            tripartite_elements([(2,), (2,)], [(2,)], [(2,)], [(2,)], [(2,)], [(2,)], (2, 2, 2), 2)

    def test_traces_match_dense_chain_product_pure_state(self):
        v = np.zeros(8)
        v[0] = 1.0
        rho = pure_state(v, (2, 2, 2))
        assert_traces_match_dense_chain(certificate_balls(rho, 3, 0.5), rho, 3)

    def test_traces_match_dense_chain_every_single_tuple(self):
        dims, k = (2, 2, 2), 2
        rho = sample_hs_random(dims, seed=22)
        parts = enumerate_partitions(k)
        for labels in product(parts, repeat=6):
            assert_traces_match_dense_chain([[l] for l in labels], rho, k)

    def test_orbit_traces_equal_per_element_traces(self):
        # f(g) = tr(U(g) rho^(x k)) = sum_x rho^(x k)[x, y_g(x)], for every g
        dims, k = (2, 2, 3), 3
        rho = sample_hs_random(dims, seed=23)
        power = rho.matrix
        for _ in range(k - 1):
            power = np.kron(power, rho.matrix)
        rows = np.arange(power.shape[0])
        f = permutation_traces(rho, k)
        perms = _sk_tables(k).perms
        for idx in product(range(len(perms)), repeat=3):
            y = index_map_of([perms[i] for i in idx], dims, k)
            assert abs(f[idx] - power[rows, y].sum()) < 1e-14, idx

    def test_cap_rejects_before_building(self):
        before = _sk_tables.cache_info().currsize
        with pytest.raises(ResourceLimitError):
            tripartite_elements([(5,)], [(5,)], [(5,)], [(5,)], [(5,)], [(5,)], (2, 2, 2), 5)
        with pytest.raises(ResourceLimitError):
            permutation_traces(maximally_mixed((2, 2, 2)), 5)
        with pytest.raises(ResourceLimitError):
            cmd_overlap_certificate(maximally_mixed((2, 2, 2)), k=5, delta=1.0)
        assert _sk_tables.cache_info().currsize == before
        # 32^4 = 1,048,576 einsum steps per orbit at k = 4: above the cap too
        with pytest.raises(ResourceLimitError):
            permutation_traces(maximally_mixed((2, 4, 4)), 4)

    def test_labels_must_partition_k(self):
        with pytest.raises(ValidationError, match="not a partition of k = 2"):
            tripartite_elements([(2, 1)], [(2,)], [(2,)], [(2,)], [(2,)], [(2,)], (2, 2, 2), 2)
        for k in (0, -1):
            with pytest.raises(ValidationError, match="k must be >= 1"):
                tripartite_elements([(2,)], [(2,)], [(2,)], [(2,)], [(2,)], [(2,)], (2, 2, 2), k)

    def test_reach_beyond_dense_cap(self):
        # 12^4 = 20736: five times the dense cap
        rho = sample_hs_random((2, 2, 3), seed=1)
        rep = cmd_overlap_certificate(rho, k=4, delta=1.0)
        assert rep.summary["chain_first_holds"] and rep.summary["chain_second_holds"]
        assert rep.passed
