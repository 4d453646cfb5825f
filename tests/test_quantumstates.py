import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from snrecoupling.errors import ValidationError
from snrecoupling.quantumstates import (
    EIGENVALUE_FLOOR,
    HERMITICITY_TOL,
    TRACE_TOL,
    DensityMatrix,
    ghz_state,
    load_state,
    maximally_mixed,
    pure_state,
    sample_hs_random,
    save_state,
    spectra_tuple,
    ssa_gap,
    state_from_json,
    state_to_json,
    von_neumann_entropy,
    weak_mono_gap,
)


def random_pure_tripartite(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return pure_state(v, (2, 2, 2))


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix(dims=(2,), matrix=np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(dims=(2,), matrix=np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityMatrix(dims=(2,), matrix=np.diag([1.1, -0.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValidationError, match="NaN or infinite"):
            DensityMatrix(dims=(2,), matrix=np.array([[bad, 0.0], [0.0, 0.5]]))

    @pytest.mark.parametrize("dims", [(-2, -2, 2), (-2, -4), (), (0,), (8, 0)])
    def test_rejects_dims_that_are_not_positive(self, dims):
        # (-2, -2, 2) multiplies to 8, so I/8 matched its shape
        with pytest.raises(ValidationError, match="tensor factors"):
            DensityMatrix(dims=dims, matrix=np.eye(8) / 8)

    def test_clamps_numerical_noise(self):
        rho = DensityMatrix(dims=(2,), matrix=np.diag([1.0 + 5e-11, -5e-11]))
        assert rho.spectrum().min() == 0.0


# Each residual is a fraction of its tolerance, kept 1e-3 away from 1 so that
# the rounding of a 2x2 state (a few ulp of 1, about 1e-6 of 1e-10) cannot
# move it across.
INSIDE = st.floats(0.0, 1.0 - 1e-3)
OUTSIDE = st.floats(1.0 + 1e-3, 100.0)
SPLIT = st.floats(0.2, 0.8)
ANGLE = st.floats(0.0, 2 * math.pi)


def with_hermiticity_residual(p, frac):
    # a lone upper entry e gives ||M - M^H||_HS = sqrt(2) e; the Hermitian
    # part has e / 2 off the diagonal, which moves the spectrum (p, 1 - p)
    # by about e^2, far below every tolerance
    mat = np.diag([p, 1.0 - p]).astype(complex)
    mat[0, 1] = frac * HERMITICITY_TOL / math.sqrt(2)
    return mat


def with_trace_defect(p, defect):
    return np.diag([p + defect, 1.0 - p])


def with_min_eigenvalue(low, angle):
    # diag(1 - low, low) in a rotated real basis
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    return rot @ np.diag([1.0 - low, low]) @ rot.T


class TestDensityMatrixTolerances:
    """Residuals just inside a tolerance are accepted, just outside rejected."""

    @given(SPLIT, INSIDE)
    def test_hermiticity_inside(self, p, frac):
        rho = DensityMatrix(dims=(2,), matrix=with_hermiticity_residual(p, frac))
        # stored as its Hermitian part, which every eigensolver accepts
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        assert rho.spectrum() == pytest.approx([max(p, 1 - p), min(p, 1 - p)], abs=1e-10)

    @given(SPLIT, OUTSIDE)
    def test_hermiticity_outside(self, p, frac):
        with pytest.raises(ValidationError, match="not Hermitian"):
            DensityMatrix(dims=(2,), matrix=with_hermiticity_residual(p, frac))

    @given(SPLIT, INSIDE, st.sampled_from([-1.0, 1.0]))
    def test_trace_inside(self, p, frac, sign):
        DensityMatrix(dims=(2,), matrix=with_trace_defect(p, sign * frac * TRACE_TOL))

    @given(SPLIT, OUTSIDE, st.sampled_from([-1.0, 1.0]))
    def test_trace_outside(self, p, frac, sign):
        with pytest.raises(ValidationError, match="trace differs"):
            DensityMatrix(dims=(2,), matrix=with_trace_defect(p, sign * frac * TRACE_TOL))

    @given(INSIDE, ANGLE)
    def test_min_eigenvalue_inside(self, frac, angle):
        rho = DensityMatrix(dims=(2,), matrix=with_min_eigenvalue(frac * EIGENVALUE_FLOOR, angle))
        assert 0.0 <= rho.spectrum().min() < 1e-15  # clamped, up to rotation roundoff

    @given(OUTSIDE, ANGLE)
    def test_min_eigenvalue_outside(self, frac, angle):
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            DensityMatrix(dims=(2,), matrix=with_min_eigenvalue(frac * EIGENVALUE_FLOOR, angle))


class TestSpectraTuple:
    def test_fully_mixed_product(self):
        rho = maximally_mixed((2, 2, 2))
        s = spectra_tuple(rho)
        assert np.allclose(s.r_a, [0.5, 0.5])
        assert np.allclose(s.r_ab, [0.25] * 4)
        assert np.allclose(s.r_abc, [0.125] * 8)

    def test_ghz_frozen_values(self):
        s = spectra_tuple(ghz_state())
        assert np.allclose(s.r_abc, [1.0] + [0.0] * 7, atol=1e-12)
        assert np.allclose(s.r_ab, [0.5, 0.5, 0.0, 0.0], atol=1e-12)
        assert np.allclose(s.r_b, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pure_state_schmidt_pairings(self, seed):
        s = spectra_tuple(random_pure_tripartite(seed))
        assert np.allclose(np.sort(s.r_ab)[::-1][:2], np.sort(s.r_c)[::-1], atol=1e-10)
        assert np.allclose(np.sort(s.r_bc)[::-1][:2], np.sort(s.r_a)[::-1], atol=1e-10)
        assert s.r_abc[0] == pytest.approx(1.0, abs=1e-10)

    def test_each_spectrum_sums_to_one_and_sorted(self):
        s = spectra_tuple(sample_hs_random((2, 2, 2), seed=9))
        for vec in (s.r_a, s.r_b, s.r_c, s.r_ab, s.r_bc, s.r_abc):
            assert vec.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(np.diff(vec) <= 1e-12)


class TestEntropy:
    def test_frozen_values(self):
        assert von_neumann_entropy([1.0, 0.0]) == 0.0
        assert von_neumann_entropy([0.5, 0.5]) == pytest.approx(1.0)
        # closed form: log2(3) - 2/3
        assert von_neumann_entropy([2 / 3, 1 / 3]) == pytest.approx(
            math.log2(3) - 2 / 3
        )
        assert von_neumann_entropy([2 / 3, 1 / 3]) == pytest.approx(0.9182958340544896)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(12)
        rho = sample_hs_random(4, seed=13)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w, _ = np.linalg.qr(g)
        rotated = DensityMatrix(dims=(4,), matrix=w @ rho.matrix @ w.conj().T)
        assert von_neumann_entropy(rotated.spectrum()) == pytest.approx(
            von_neumann_entropy(rho.spectrum()), abs=1e-10
        )


class TestEntropyInequalities:
    def test_product_pure_state(self):
        v = np.zeros(8)
        v[0] = 1.0
        rho = pure_state(v, (2, 2, 2))
        assert ssa_gap(rho) == pytest.approx(0.0, abs=1e-9)
        assert weak_mono_gap(rho) == pytest.approx(0.0, abs=1e-9)

    def test_ghz_gap(self):
        assert ssa_gap(ghz_state()) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed_additivity(self):
        assert ssa_gap(maximally_mixed((2, 2, 2))) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_states_nonnegative(self, seed):
        rho = sample_hs_random((2, 2, 2), seed=seed)
        assert ssa_gap(rho) >= -1e-9
        assert weak_mono_gap(rho) >= -1e-9


class TestSampling:
    def test_invariants_hold(self):
        rho = sample_hs_random((2, 2, 2), seed=0)
        assert rho.dims == (2, 2, 2)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        a = sample_hs_random(4, seed=123)
        b = sample_hs_random(4, seed=123)
        assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("dims", [(-2, -2), 0, (2, 0), (), -3])
    def test_rejects_dims_that_are_not_positive(self, dims):
        with pytest.raises(ValidationError, match="tensor factors"):
            sample_hs_random(dims, 1)

    def test_mean_approaches_maximally_mixed(self):
        rng = np.random.default_rng(99)
        n = 10_000
        acc = np.zeros((2, 2), dtype=complex)
        for _ in range(n):
            acc += sample_hs_random(2, rng).matrix
        mean = acc / n
        # HS measure is unitarily invariant, so the mean is I/d; entry
        # fluctuations scale like 1/sqrt(n * d^2 + ...): allow 3 sigma
        sigma = 0.2 / math.sqrt(n)
        assert np.abs(mean - np.eye(2) / 2).max() < 3 * sigma + 1e-3


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        rho = sample_hs_random((2, 2, 2), seed=5)
        path = tmp_path / "state.json"
        save_state(rho, path)
        loaded = load_state(path)
        assert loaded.dims == rho.dims
        assert np.abs(loaded.matrix - rho.matrix).max() < 1e-15

    def test_complex_entries_as_pairs(self):
        rho = sample_hs_random(2, seed=6)
        payload = state_to_json(rho)
        entry = payload["matrix"][0][1]
        assert isinstance(entry, list) and len(entry) == 2
        again = state_from_json(payload)
        assert np.abs(again.matrix - rho.matrix).max() < 1e-15

    def test_malformed_file_rejected(self):
        with pytest.raises(ValidationError):
            state_from_json({"dims": [2]})
