import json
import math
from itertools import product

import numpy as np
import pytest

from snrecoupling import experiments, intertwiner, recoupling
from snrecoupling.combinatorics import enumerate_partitions, normalize, round_spectrum
from snrecoupling.errors import ResourceLimitError, ValidationError
from snrecoupling.recoupling import recoupling_tensor
from snrecoupling.schurweyl import projected_trace
from snrecoupling.experiments import (
    GATE_SLACK,
    LABELS,
    _chain_second,
    cmd_converse_probe,
    cmd_dimension_ratio,
    cmd_overlap_bound_fuzz,
    cmd_spectrum_estimation,
    cmd_ssa_scan,
    cmd_overlap_certificate,
)
from snrecoupling.quantumstates import (
    DensityMatrix,
    SpectraTuple,
    ghz_state,
    maximally_mixed,
    pure_state,
    sample_hs_random,
    spectra_tuple,
)
from oracles import exact_hs_squared, rate_directions


# ball radii both drivers refuse: not finite, or not a real number (a bool, a string, None)
NOT_RADII = [math.nan, math.inf, True, "1.0", None]


def product_pure_tripartite():
    v = np.zeros(8)
    v[0] = 1.0
    return pure_state(v, (2, 2, 2))


class TestOverlapCertificate:
    def test_full_ball_covers_everything(self):
        rep = cmd_overlap_certificate(maximally_mixed((2, 2, 2)), k=2, delta=2.0)
        assert rep.summary["t_p"] == pytest.approx(1.0, abs=1e-10)
        assert rep.summary["t_q"] == pytest.approx(1.0, abs=1e-10)
        assert rep.summary["sum_hs"] >= 1.0
        assert rep.passed

    def test_product_pure_state_single_dominant_tuple(self):
        rep = cmd_overlap_certificate(product_pure_tripartite(), k=3, delta=0.5)
        assert rep.summary["nonzero_tuple_count"] == 1
        assert rep.summary["sum_hs"] >= rep.summary["rhs_lower_bound"] - 1e-9
        assert rep.summary["sum_hs"] == pytest.approx(1.0, abs=1e-9)
        assert rep.summary["t_q"] == pytest.approx(1.0, abs=1e-9)
        assert rep.passed

    def test_chain_holds_with_slack_k3(self):
        rep = cmd_overlap_certificate(maximally_mixed((2, 2, 2)), k=3, delta=1.0)
        s = rep.summary
        assert s["sum_hs"] >= s["t_pq_abs"] - 1e-9
        assert s["t_pq_abs"] >= s["rhs_lower_bound"] - 1e-9
        assert rep.passed

    def test_rejects_negative_delta(self):
        with pytest.raises(ValidationError):
            cmd_overlap_certificate(maximally_mixed((2, 2, 2)), k=2, delta=-0.1)

    def test_chain_gate_ignores_rounding_in_t_q(self):
        # t_q = 1 - 7e-16 is 1 up to rounding; sqrt(7e-16) = 2.6e-8 would
        # lower the bound by far more than GATE_SLACK and pass this t_pq
        t_p = 0.8
        holds, rhs = _chain_second(t_p - 2e-8, t_p, 1 - 7e-16)
        assert rhs == t_p
        assert not holds

    @pytest.mark.parametrize("offset", [-1e-3, -GATE_SLACK, 0.0, 1e-3])
    def test_chain_gate_unchanged_away_from_t_q_one(self, offset):
        t_p, t_q = 0.8, 0.99
        expected_rhs = t_p - math.sqrt(1 - t_q)
        holds, rhs = _chain_second(expected_rhs + offset, t_p, t_q)
        assert rhs == expected_rhs
        assert holds == (offset >= -GATE_SLACK)

    @pytest.mark.parametrize("delta", NOT_RADII, ids=repr)
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValidationError, match="finite"):
            cmd_overlap_certificate(maximally_mixed((2, 2, 2)), k=2, delta=delta)

    @pytest.mark.parametrize(
        "seed,k,delta", [(1, 3, 1.0), (2, 3, 1.0), (3, 3, 1.0), (1, 4, 1.0), (1, 4, 2.0)]
    )
    def test_admissible_tuples_match_the_product_loop(self, seed, k, delta):
        # two routes: the certificate's character sums against recoupling_tensor
        # and the exact oracle over every tuple of the six balls, in product order
        rho = sample_hs_random((2, 2, 3), seed)
        rep = cmd_overlap_certificate(rho, k=k, delta=delta)
        spectra = spectra_tuple(rho)
        radii = (spectra.r_a, spectra.r_b, spectra.r_c, spectra.r_ab, spectra.r_bc,
                 spectra.r_abc)
        rows = (2, 2, 3, 4, 6, 12)
        balls = [experiments._ball(k, r, delta, m) for r, m in zip(radii, rows)]
        names = ("alpha", "beta", "gamma", "mu", "nu", "lam")
        tuples = list(product(*balls))
        kept = [tuple(tuple(item[n]) for n in names) for item in rep.items]
        contracted = {labels: recoupling_tensor(*labels).hs for labels in tuples}
        assert kept == [labels for labels in tuples if contracted[labels] > recoupling.HS_ZERO]
        assert kept == [labels for labels in tuples if exact_hs_squared(*labels) != 0]
        for labels, item in zip(kept, rep.items):
            assert abs(item["hs"] - contracted[labels]) <= 1e-14, labels
        assert rep.summary["sum_hs"] == sum(item["hs"] for item in rep.items)
        assert rep.summary["nonzero_tuple_count"] == len(kept)
        assert rep.summary["ball_tuple_count"] == math.prod(map(len, balls))
        assert list(rep.summary["ball_sizes"].values()) == list(map(len, balls))

    def test_zero_blocks_are_not_items(self):
        # eight blocks of this certificate are exactly zero (the contraction
        # leaves hs of 1.2e-17 to 2.2e-16 on them); the next smallest hs is 1/3
        rho = sample_hs_random((2, 2, 2), np.random.default_rng(1))
        rep = cmd_overlap_certificate(rho, k=4, delta=2.0)
        assert len(rep.items) == rep.summary["nonzero_tuple_count"] == 140
        names = ("alpha", "beta", "gamma", "mu", "nu", "lam")
        kept = [tuple(tuple(item[n]) for n in names) for item in rep.items]
        for labels, item in zip(kept, rep.items):
            exact = exact_hs_squared(*labels)
            assert exact > 0 and abs(exact - item["hs"] ** 2) < 1e-13, labels
        spectra = spectra_tuple(rho)
        radii = (spectra.r_a, spectra.r_b, spectra.r_c, spectra.r_ab, spectra.r_bc,
                 spectra.r_abc)
        rows = (2, 2, 2, 4, 4, 8)
        balls = {n: experiments._ball(4, r, 2.0, m) for n, r, m in zip(names, radii, rows)}
        dropped = set(experiments._admissible_tuples(balls.values())) - set(kept)
        assert [recoupling_tensor(*labels).hs for labels in dropped] == [0.0] * 8
        for labels in dropped:
            assert exact_hs_squared(*labels) == 0, labels

    def test_no_intertwiner_is_solved(self):
        intertwiner._solve_cg.cache_clear()
        recoupling._build_tensor.cache_clear()
        rho = sample_hs_random((2, 2, 2), np.random.default_rng(0))
        for k in (3, 4):
            assert cmd_overlap_certificate(rho, k=k, delta=1.0).items
        assert intertwiner._solve_cg.cache_info().currsize == 0
        assert recoupling._build_tensor.cache_info().currsize == 0

    def test_deterministic(self):
        a = cmd_overlap_certificate(maximally_mixed((2, 2, 2)), k=2, delta=1.0)
        b = cmd_overlap_certificate(maximally_mixed((2, 2, 2)), k=2, delta=1.0)
        assert a.to_json_lines() == b.to_json_lines()


class TestOverlapBoundFuzz:
    def test_no_violations(self):
        rep = cmd_overlap_bound_fuzz(500, seed=0)
        assert rep.summary["violations"] == 0
        assert rep.summary["min_slack"] >= -1e-9
        assert rep.passed

    def test_deterministic(self):
        a = cmd_overlap_bound_fuzz(50, seed=5)
        b = cmd_overlap_bound_fuzz(50, seed=5)
        assert a.to_json_lines() == b.to_json_lines()

    def test_rejects_bad_n(self):
        with pytest.raises(ValidationError):
            cmd_overlap_bound_fuzz(0, seed=0)

    def test_edge_cases_by_direct_evaluation(self):
        # P = Q = identity: 1 >= 1 - 0; Q = 0: 0 >= tr(P sigma) - 1
        sigma = sample_hs_random(4, seed=17).matrix
        eye = np.eye(4)
        lhs = abs(np.trace(eye @ eye @ sigma))
        rhs = np.trace(eye @ sigma).real - np.sqrt(
            max(0.0, np.trace((eye - eye) @ sigma).real)
        )
        assert lhs >= rhs - 1e-12
        zero = np.zeros((4, 4))
        lhs = abs(np.trace(eye @ zero @ sigma))
        rhs = np.trace(eye @ sigma).real - np.sqrt(
            max(0.0, np.trace((eye - zero) @ sigma).real)
        )
        assert lhs >= rhs - 1e-12


def test_l1_distance_is_that_of_the_normalized_partition():
    # _l1_distance reads the canonical partition unchecked; each distance is
    # the exact float of the one through the validating normalize
    rng = np.random.default_rng(0)
    spectra = [np.sort(rng.dirichlet(np.ones(n)))[::-1] for n in (1, 2, 3, 4, 8)]
    spectra.append(np.array([0.9, 0.1]))
    for k in range(1, 9):
        for lam in enumerate_partitions(k):
            for r in spectra:
                padded = normalize(lam, length=max(len(lam), r.size))
                rr = np.zeros(padded.size)
                rr[: r.size] = r
                assert experiments._l1_distance(lam, r) == float(np.abs(padded - rr).sum())


@pytest.fixture(scope="module")
def pure_qubit_report():
    return cmd_spectrum_estimation(DensityMatrix(dims=(2,), matrix=np.diag([1.0, 0.0])), 30)


class TestSpectrumEstimation:
    @pytest.mark.parametrize("delta", NOT_RADII, ids=repr)
    def test_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValidationError, match="finite"):
            cmd_spectrum_estimation(maximally_mixed(2), k_max=2, delta=delta)

    def test_uniform_qubit_first_rows(self):
        rep = cmd_spectrum_estimation(maximally_mixed(2), k_max=2)
        rows = {(item["k"], tuple(item["lam"])): item["trace"] for item in rep.items}
        assert rows[(2, (2,))] == pytest.approx(3 / 4)
        assert rows[(2, (1, 1))] == pytest.approx(1 / 4)

    def test_biased_qubit_rows(self):
        rho = DensityMatrix(dims=(2,), matrix=np.diag([2 / 3, 1 / 3]))
        rep = cmd_spectrum_estimation(rho, k_max=2)
        rows = {(item["k"], tuple(item["lam"])): item["trace"] for item in rep.items}
        assert rows[(2, (2,))] == pytest.approx(7 / 9)
        assert rows[(2, (1, 1))] == pytest.approx(2 / 9)

    def test_rate_gate_on_biased_qubit(self):
        rho = DensityMatrix(dims=(2,), matrix=np.diag([0.9, 0.1]))
        rep = cmd_spectrum_estimation(rho, k_max=20)
        assert rep.summary["gate_rate"]
        for direction in rep.summary["rate_directions"]:
            assert direction["monotone"]
        assert rep.summary["rate_directions"] == rate_directions(rep.items, 20, 2)

    @pytest.mark.parametrize("k_max", [1, 9, 10, 11, 30])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rate_directions_match_the_oracle(self, monkeypatch, d, k_max):
        # traces drawn per diagram, about one in ten non-positive, stand in for
        # projected_trace (which takes 36 s at d = 4, k_max = 30): the gate is
        # read off the items whatever their values
        def trace(lam, rho):
            return float(np.random.default_rng(list(lam)).uniform(-0.1, 1.0))

        monkeypatch.setattr(experiments, "projected_trace", trace)
        rho = DensityMatrix(dims=(d,), matrix=np.diag(np.arange(d, 0, -1) / (d * (d + 1) / 2)))
        rep = cmd_spectrum_estimation(rho, k_max)
        directions = rep.summary["rate_directions"]
        assert directions == rate_directions(rep.items, k_max, d)
        assert [x["direction"] for x in directions] == [
            list(lam) for lam in enumerate_partitions(k_max, d)]

    def test_rate_directions_of_a_pure_qubit_match_the_oracle(self, pure_qubit_report):
        # the traces of diagrams with two rows are (numerically) zero, some
        # of them negative, and are skipped
        rep = pure_qubit_report
        assert any(item["trace"] <= 0 for item in rep.items if item["k"] > 20)
        assert rep.summary["rate_directions"] == rate_directions(rep.items, 30, 2)

    @pytest.mark.xfail(strict=True, reason="the cycle-type sum leaves roundoff of up to "
                       "3e-9 where the traces of diag(1, 0) are exactly 0 (ROADMAP item 12)")
    def test_a_pure_qubit_passes_at_the_default_k_max(self, pure_qubit_report):
        rep = pure_qubit_report
        assert min(item["trace"] for item in rep.items) >= -GATE_SLACK
        assert min(rep.summary["tail_mass"]) >= 0.0
        assert rep.summary["gate_rate"] and rep.passed

    def test_tail_reported_per_k(self):
        rho = DensityMatrix(dims=(2,), matrix=np.diag([0.9, 0.1]))
        rep = cmd_spectrum_estimation(rho, k_max=10)
        assert len(rep.summary["tail_mass"]) == 10
        # mass inside plus outside the ball accounts for everything
        for k in (5, 10):
            total = sum(item["trace"] for item in rep.items if item["k"] == k)
            assert total == pytest.approx(1.0, abs=1e-10)
        # (3k/4, k/4) lies exactly on the sphere of radius 0.3 around
        # (0.9, 0.1), though its float l1 distance is 0.30000000000000004;
        # the closed ball keeps it out of the tail at k = 4 and 8
        tails = rep.summary["tail_mass"]
        assert tails[3] == pytest.approx(0.0162, abs=1e-12)
        assert tails[7] == pytest.approx(0.01949346, abs=1e-12)

    def test_rejects_unsupported_range(self):
        with pytest.raises(ValidationError):
            cmd_spectrum_estimation(maximally_mixed(5), k_max=5)
        with pytest.raises(ValidationError):
            cmd_spectrum_estimation(maximally_mixed(2), k_max=0)
        with pytest.raises(ResourceLimitError, match="conjugacy classes"):
            cmd_spectrum_estimation(maximally_mixed(2), k_max=31)

    def test_far_diagram_below_polynomial_gaussian_envelope(self):
        # the diagram tracking the uniform direction at k = 30 sits at l1
        # distance 0.8 from spec (0.9, 0.1); its mass is far below the
        # Gaussian rate times a generous polynomial factor
        rho = DensityMatrix(dims=(2,), matrix=np.diag([0.9, 0.1]))
        k = 30
        lam = round_spectrum((0.5, 0.5), k)
        assert lam == (15, 15)
        tr = projected_trace(lam, rho)
        assert tr <= math.exp(-k * 0.8**2 / 2) * (k + 1) ** 6


class TestDimensionRatio:
    def test_rejects_a_bare_k(self):
        with pytest.raises(ValidationError, match="non-empty list of k values"):
            cmd_dimension_ratio(maximally_mixed((2, 2, 2)), 64)

    def test_maximally_mixed_matches_zero_gap(self):
        rep = cmd_dimension_ratio(maximally_mixed((2, 2, 2)), [64, 256])
        assert rep.summary["ssa_gap"] == pytest.approx(0.0, abs=1e-9)
        for item in rep.items:
            assert item["abs_error"] <= item["error_bound"]
        assert rep.passed

    def test_ghz_converges_to_unit_gap(self):
        rep = cmd_dimension_ratio(ghz_state(), [2000])
        item = rep.items[0]
        assert item["gap"] == pytest.approx(1.0, abs=1e-9)
        assert abs(item["ratio"] - 1.0) <= 0.05
        assert rep.passed

    def test_error_shrinks_when_k_doubles(self):
        rho = sample_hs_random((2, 2, 2), seed=3)
        ks = [250, 1000, 4000, 16000]
        rep = cmd_dimension_ratio(rho, ks)
        errors = [item["abs_error"] for item in rep.items]
        assert errors[-1] < errors[0]
        assert rep.passed

    def test_bound_is_monotone_on_grid(self):
        rep = cmd_dimension_ratio(ghz_state(), [250, 500, 1000, 2000])
        bounds = [item["error_bound"] for item in rep.items]
        assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))


def demo_pure_tuple():
    """The compatible tuple of demo 08: a random pure (2,2,2) state."""
    rng = np.random.default_rng(1)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return spectra_tuple(pure_state(v, (2, 2, 2)))


class TestConverseProbe:
    def test_vanishing_multiplicity_tuple_gives_zero(self):
        spectra = SpectraTuple(
            r_a=np.array([0.5, 0.5]),
            r_b=np.array([0.5, 0.5]),
            r_c=np.array([1.0, 0.0]),
            r_ab=np.array([0.25] * 4),
            r_bc=np.array([0.5, 0.5, 0.0, 0.0]),
            r_abc=np.array([1.0] + [0.0] * 7),
        )
        rep = cmd_converse_probe(spectra, [2, 3, 4])
        assert rep.summary["hs_sequence"] == [0.0, 0.0, 0.0]

    def test_compatible_pure_state_tuple_stays_bounded(self):
        rep = cmd_converse_probe(demo_pure_tuple(), [2, 3, 4])
        assert all(h >= 0.99 for h in rep.summary["hs_sequence"])

    @pytest.mark.parametrize("spectra, expected", [
        (demo_pure_tuple(), [1.0] * 7),
        (spectra_tuple(sample_hs_random((2, 2, 2), 1)),
         [1.0, 0.0, 0.0, 0.5, 0.6124, 0.7778, 0.9345]),
    ], ids=["pure", "hs_random_seed_1"])
    def test_hs_sequence_is_the_exact_norm_up_to_k7(self, spectra, expected):
        ks = list(range(1, 8))
        rep = cmd_converse_probe(spectra, ks)
        exact = [
            recoupling_tensor(*(experiments._round_marginal(r, k)
                                for r in spectra.as_dict().values())).hs
            for k in ks
        ]
        assert rep.summary["hs_sequence"] == pytest.approx(exact, abs=1e-12)
        assert rep.summary["hs_sequence"] == pytest.approx(expected, abs=1e-4)
        assert [item["k"] for item in rep.items] == ks

    def test_perturbed_tuple_loses_compatibility_at_small_k(self):
        s = demo_pure_tuple()
        r_b = np.sort(np.clip(s.r_b + np.array([0.2, -0.2]), 0, 1))[::-1]
        perturbed = SpectraTuple(
            r_a=s.r_a, r_b=r_b / r_b.sum(), r_c=s.r_c,
            r_ab=s.r_ab, r_bc=s.r_bc, r_abc=s.r_abc,
        )
        rep = cmd_converse_probe(perturbed, [2, 3])
        assert rep.summary["hs_sequence"][0] == 0.0

    def test_dims_come_from_the_spectra(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        spectra = spectra_tuple(pure_state(v, (2, 2, 3)))
        rep = cmd_converse_probe(spectra, [2, 3])
        assert rep.parameters["dims"] == [2, 2, 3]
        assert set(rep.parameters) == {"k_values", "dims", "spectra"}

    @pytest.mark.parametrize("field, length", [("r_ab", 3), ("r_bc", 6), ("r_abc", 4)])
    def test_rejects_inconsistent_spectrum_lengths(self, field, length):
        spectra = spectra_tuple(maximally_mixed((2, 2, 2))).as_dict()
        spectra[field] = [1.0 / length] * length
        with pytest.raises(ValidationError, match="r_ab, r_bc, r_abc"):
            cmd_converse_probe(SpectraTuple(**{f: np.array(r) for f, r in spectra.items()}),
                               [2])

    def test_rejects_a_bare_k(self):
        with pytest.raises(ValidationError, match="non-empty list of k values"):
            cmd_converse_probe(spectra_tuple(maximally_mixed((2, 2, 2))), 3)

    def test_takes_a_numpy_array_of_k_values(self):
        # as cmd_dimension_ratio does; the truth test of the array raised ValueError
        spectra = spectra_tuple(maximally_mixed((2, 2, 2)))
        assert (cmd_converse_probe(spectra, np.array([2, 3])).to_json_lines()
                == cmd_converse_probe(spectra, [2, 3]).to_json_lines())

    def test_rejects_large_k(self):
        # the caps of recoupling_tensor decide which k is too large: k = 8
        # fits them here, and K_MAX refuses every k above 30
        spectra = spectra_tuple(maximally_mixed((2, 2, 2)))
        hs = cmd_converse_probe(spectra, [8]).summary["hs_sequence"]
        assert hs == pytest.approx([1.0], abs=1e-12)
        with pytest.raises(ResourceLimitError, match="conjugacy classes"):
            cmd_converse_probe(spectra, [31])
        with pytest.raises(ValidationError, match="k values"):
            cmd_converse_probe(spectra, [2, 0])


# exactly-zero blocks that the float route leaves at roundoff (a few 1e-17),
# with spectra that round to them at their k
ZERO_BLOCKS = [
    (((2, 1),) * 6, 3, {"r_a": [2, 1], "r_b": [2, 1], "r_c": [2, 1], "r_ab": [2, 1, 0, 0],
                        "r_bc": [2, 1, 0, 0], "r_abc": [2, 1] + [0] * 6}),
    (((4, 2),) * 3 + ((4, 1, 1), (4, 1, 1), (3, 3)), 6,
     {"r_a": [4, 2], "r_b": [4, 2], "r_c": [4, 2], "r_ab": [4, 1, 1, 0],
      "r_bc": [4, 1, 1, 0], "r_abc": [3, 3] + [0] * 6}),
]


@pytest.mark.parametrize("labels, k, weights", ZERO_BLOCKS, ids=["k3", "k6"])
def test_converse_probe_reports_zero_blocks_as_zero(labels, k, weights):
    assert exact_hs_squared(*labels) == 0
    assert recoupling_tensor(*labels).hs <= recoupling.HS_ZERO
    spectra = SpectraTuple(**{f: np.array(w) / k for f, w in weights.items()})
    rep = cmd_converse_probe(spectra, [k])
    (item,) = rep.items
    names = ("alpha", "beta", "gamma", "mu", "nu", "lam")
    assert tuple(tuple(item[name]) for name in names) == labels
    assert item["hs"] == 0.0 and rep.summary["hs_sequence"] == [0.0]


class TestSsaScan:
    def test_seeded_reproducibility(self):
        a = cmd_ssa_scan(10, seed=2)
        b = cmd_ssa_scan(10, seed=2)
        assert a.to_json_lines() == b.to_json_lines()

    def test_ghz_probe_included(self):
        rep = cmd_ssa_scan(5, seed=0)
        assert rep.summary["ghz_ssa_gap"] == pytest.approx(1.0, abs=1e-9)

    def test_no_violations(self):
        rep = cmd_ssa_scan(200, seed=11)
        assert rep.summary["min_ssa_gap"] >= -1e-9
        assert rep.summary["min_weak_mono_gap"] >= -1e-9
        assert rep.passed


class TestReportFormats:
    def test_json_lines_structure(self):
        rep = cmd_ssa_scan(3, seed=1)
        lines = rep.to_json_lines().strip().split("\n")
        header = json.loads(lines[0])
        summary = json.loads(lines[-1])
        assert header["record"] == "header"
        assert header["schema_version"] == 1
        assert summary["record"] == "summary"
        assert len(lines) == 2 + len(rep.items)

    def test_csv_has_item_columns(self):
        rep = cmd_ssa_scan(3, seed=1)
        csv_text = rep.to_csv()
        head = csv_text.splitlines()[0]
        assert "ssa_gap" in head and "weak_mono_gap" in head

    def test_csv_of_a_report_without_items_is_empty(self):
        # CSV carries the items only: no header row of no columns
        rep = cmd_overlap_certificate(sample_hs_random((2, 2, 3), 5), k=2, delta=1.0)
        assert rep.items == [] and rep.summary["ball_tuple_count"] == 0
        assert rep.to_csv() == ""


def test_reports_name_the_labels_in_label_order():
    assert LABELS == ("alpha", "beta", "gamma", "mu", "nu", "lam")
    rep = cmd_overlap_certificate(sample_hs_random((2, 2, 3), 1), k=3, delta=1.0)
    assert rep.items
    assert tuple(rep.summary["ball_sizes"]) == LABELS
    assert all(tuple(item) == (*LABELS, "hs") for item in rep.items)
    assert rep.to_csv().splitlines()[0] == "alpha,beta,gamma,mu,nu,lam,hs"
    probe = cmd_converse_probe(spectra_tuple(maximally_mixed((2, 2, 2))), [1, 2, 3])
    assert all(tuple(item) == ("k", *LABELS, "hs") for item in probe.items)
