import numpy as np
import pytest

from snrecoupling.errors import ValidationError
from snrecoupling.tensorlinalg import (
    fix_vector_sign,
    hermitian_eigensystem,
    hs_norm,
    orthonormal_nullspace,
    partial_trace,
    tensor_shape,
)


class TestNullspace:
    def test_identity_has_trivial_nullspace(self):
        assert orthonormal_nullspace(np.eye(4)) == []

    def test_zero_matrix(self):
        basis = orthonormal_nullspace(np.zeros((3, 3)))
        assert len(basis) == 3
        mat = np.column_stack(basis)
        assert np.abs(mat.conj().T @ mat - np.eye(3)).max() < 1e-14

    def test_roundoff_matrix_has_a_full_nullspace(self):
        # every singular value is ~1e-16: a cutoff relative to sigma_max alone
        # would count them all as rank
        a = np.full((4, 1), 1e-16)
        basis = orthonormal_nullspace(a)
        assert len(basis) == 1 and basis[0][0] == 1.0

    def test_rank_one_projector_complement(self):
        # analytic 2x2 case: null(|v><v|) is spanned by the orthogonal vector
        v = np.array([3.0, 4.0]) / 5.0
        a = np.outer(v, v)
        basis = orthonormal_nullspace(a)
        assert len(basis) == 1
        x = basis[0]
        assert np.linalg.norm(a @ x) < 1e-12
        assert abs(abs(x @ np.array([-0.8, 0.6])) - 1.0) < 1e-12

    def test_deterministic_and_sign_fixed(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 6))
        b1 = orthonormal_nullspace(a)
        b2 = orthonormal_nullspace(a.copy())
        for x, y in zip(b1, b2):
            assert np.array_equal(x, y)
            assert x[np.argmax(np.abs(x))] > 0


class TestEigensystem:
    def test_identity(self):
        vals, vecs = hermitian_eigensystem(np.eye(3))
        assert np.allclose(vals, [1, 1, 1])
        assert np.abs(vecs.conj().T @ vecs - np.eye(3)).max() < 1e-12

    def test_sorting_contract(self):
        vals, _ = hermitian_eigensystem(np.diag([0.2, 0.8]))
        assert np.allclose(vals, [0.8, 0.2])

    def test_pauli_x(self):
        # characteristic polynomial x^2 - 1 has roots +-1
        vals, vecs = hermitian_eigensystem(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(vals, [1.0, -1.0])
        h = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.abs(h - np.array([[0, 1], [1, 0]])).max() < 1e-12

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = (g + g.conj().T) / 2
        vals, vecs = hermitian_eigensystem(h)
        assert np.all(np.diff(vals) <= 1e-12)
        assert hs_norm(vecs @ np.diag(vals) @ vecs.conj().T - h) < 1e-10 * hs_norm(h)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPartialTrace:
    def test_product_state(self):
        rho = np.array([[0.7, 0.1], [0.1, 0.3]])
        sigma = np.array([[0.5, 0.2j], [-0.2j, 0.5]])
        joint = np.kron(rho, sigma)
        assert np.abs(partial_trace(joint, (2, 2), (0,)) - rho).max() < 1e-14
        assert np.abs(partial_trace(joint, (2, 2), (1,)) - sigma).max() < 1e-14

    def test_maximally_entangled(self):
        v = np.zeros(4)
        v[0] = v[3] = 1 / np.sqrt(2)
        rho = np.outer(v, v)
        for keep in ((0,), (1,)):
            assert np.abs(partial_trace(rho, (2, 2), keep) - np.eye(2) / 2).max() < 1e-14

    def test_ghz_keep_ab(self):
        v = np.zeros(8)
        v[0] = v[7] = 1 / np.sqrt(2)
        rho = np.outer(v, v)
        reduced = partial_trace(rho, (2, 2, 2), (0, 1))
        assert np.abs(reduced - np.diag([0.5, 0, 0, 0.5])).max() < 1e-14

    def test_composition(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        one_step = partial_trace(rho, (2, 2, 2), (0,))
        two_step = partial_trace(
            partial_trace(rho, (2, 2, 2), (0, 1)), (2, 2), (0,)
        )
        assert np.abs(one_step - two_step).max() < 1e-12

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        red = partial_trace(rho, (3, 4), (1,))
        assert np.trace(red) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(red - red.conj().T).max() < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            partial_trace(np.eye(4), (2, 2), (2,))


class TestNorms:
    def test_hs_norm_identity(self):
        for n in (1, 3, 7):
            assert hs_norm(np.eye(n)) == pytest.approx(np.sqrt(n))

    def test_hs_multiplicative_under_kron(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            assert hs_norm(np.kron(a, b)) == pytest.approx(hs_norm(a) * hs_norm(b))

    def test_norm_sandwich(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.standard_normal((5, 7))
            rank = np.linalg.matrix_rank(a)
            assert np.linalg.norm(a, 2) <= hs_norm(a) + 1e-12
            assert hs_norm(a) <= np.sqrt(rank) * np.linalg.norm(a, 2) + 1e-12

    def test_kron_convention_left_factor_slowest(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([10.0, 20.0])
        assert np.array_equal(np.diag(np.kron(a, b)), [10, 20, 20, 40])


class TestShapeAndSign:
    def test_tensor_shape_validation(self):
        assert tensor_shape((2, 3)) == (2, 3)
        with pytest.raises(ValidationError):
            tensor_shape((2, 0))

    def test_tensor_shape_takes_integers_only(self):
        assert tensor_shape(3) == (3,)
        shape = tensor_shape([np.int64(2), np.int32(3)])
        assert shape == (2, 3) and all(type(d) is int for d in shape)
        for dims in ([2.7], [2.0], ["2"], "2", [True, 2], True, [], 2.0, None):
            with pytest.raises(ValidationError, match="tensor factors"):
                tensor_shape(dims)

    def test_fix_vector_sign(self):
        v = np.array([0.1, -0.9, 0.3])
        assert fix_vector_sign(v)[1] > 0
        w = np.array([0.1 + 0.0j, 0.0 + 0.9j])
        fixed = fix_vector_sign(w)
        assert abs(fixed[1].imag) < 1e-15 and fixed[1].real > 0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_fix_vector_sign_row_wise(self, dtype):
        rows = np.array([[0.1, -0.9, 0.3], [0.0, 0.0, 0.0], [0.5, 0.2, -0.5],
                         [-0.3, 0.1, 0.2]], dtype=dtype)
        if dtype is complex:
            rows[0] *= 1j
        fixed = fix_vector_sign(rows)
        assert fixed.shape == rows.shape
        for row, got in zip(rows, fixed):
            assert np.array_equal(got, fix_vector_sign(row))
        assert np.array_equal(fixed[1], rows[1])
        stack = np.stack([rows, -rows[::-1]])  # (2, 4, 3): every row alone
        fixed = fix_vector_sign(stack)
        assert fixed.shape == stack.shape
        for row, got in zip(stack.reshape(-1, 3), fixed.reshape(-1, 3)):
            assert np.array_equal(got, fix_vector_sign(row))

    @pytest.mark.parametrize("x", [0.5, 1 / 3, 0.7071067811865476])
    def test_fix_vector_sign_ignores_one_ulp(self, x):
        # two opposite-sign entries equal to 1 ulp: the first is the pivot
        # whichever of the two is larger, so roundoff cannot flip the sign
        up = np.nextafter(x, 1.0)
        for v in (np.array([0.1, x, -up]), np.array([0.1, up, -x])):
            assert fix_vector_sign(v)[1] > 0
            assert fix_vector_sign(-v)[1] > 0
