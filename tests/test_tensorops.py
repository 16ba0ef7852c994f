"""Small linear-algebra kernels: the designer's shift matrices, and the
dense kernels under the tests' oracles (the Kronecker pilot embedding and
its adjoint, the block partial trace, and the Hermitian solve)."""

import numpy as np
import numpy.testing as npt
import pytest

from oracles import adjoint_embed, embed_pilot, hermitian_solve
from zczpilot.designer import shift_matrix


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestEmbedPilot:
    def test_scalar_pilot_gives_identity(self):
        npt.assert_array_equal(embed_pilot(np.array([[1.0]]), 2), np.eye(2))

    def test_single_receive_antenna_is_identity_embedding(self):
        p = np.ones((2, 1))
        npt.assert_array_equal(embed_pilot(p, 1), p)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_kron_with_identity(self, seed):
        rng = np.random.default_rng(seed)
        p = crandn(rng, 3, 2)
        npt.assert_array_equal(embed_pilot(p, 2), np.kron(p, np.eye(2)))


class TestAdjointEmbed:
    @pytest.mark.parametrize("n_r", [1, 2, 3])
    def test_identity_input(self, n_r):
        npt.assert_array_equal(adjoint_embed(np.eye(2 * n_r), n_r), n_r * np.eye(2))

    @pytest.mark.parametrize("seed,b,n_t,n_r", [(0, 2, 2, 2), (1, 4, 3, 2), (2, 3, 1, 3)])
    def test_adjoint_identity(self, seed, b, n_t, n_r):
        # <embed(P), Z> = <P, adjoint_embed(Z)> with <A,B> = trace(A^H B)
        rng = np.random.default_rng(seed)
        p = crandn(rng, b, n_t)
        z = crandn(rng, b * n_r, n_t * n_r)
        lhs = np.trace(embed_pilot(p, n_r).conj().T @ z)
        rhs = np.trace(p.conj().T @ adjoint_embed(z, n_r))
        assert abs(lhs - rhs) <= 1e-10 * (np.linalg.norm(p) * np.linalg.norm(z))

    def test_compose_with_embedding(self):
        rng = np.random.default_rng(5)
        p = crandn(rng, 3, 2)
        npt.assert_allclose(adjoint_embed(embed_pilot(p, 3), 3), 3 * p, rtol=1e-14)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adjoint_embed(np.eye(3), 2)


class TestShiftMatrix:
    def test_lag_zero_is_identity(self):
        npt.assert_array_equal(shift_matrix(3, 0), np.eye(3))

    def test_lag_one_superdiagonal(self):
        expected = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
        npt.assert_array_equal(shift_matrix(3, 1), expected)

    def test_negative_lag_is_transpose(self):
        npt.assert_array_equal(shift_matrix(3, -1), shift_matrix(3, 1).T)

    @pytest.mark.parametrize("i,j", [(0, 0), (1, 1), (1, 2), (2, 1), (0, 3)])
    def test_composition_adds_lags(self, i, j):
        b = 5
        assert i + j < b
        npt.assert_array_equal(
            shift_matrix(b, i) @ shift_matrix(b, j), shift_matrix(b, i + j)
        )

    @pytest.mark.parametrize("i", [3, -3, 4])
    def test_out_of_range_lag_rejected(self, i):
        with pytest.raises(ValueError):
            shift_matrix(3, i)


class TestHermitianSolve:
    def test_identity_system(self):
        rng = np.random.default_rng(20)
        b = crandn(rng, 4, 2)
        npt.assert_allclose(hermitian_solve(np.eye(4), b), b, rtol=1e-14)

    def test_scaled_identity(self):
        npt.assert_allclose(
            hermitian_solve(2.0 * np.eye(3), np.eye(3)), 0.5 * np.eye(3), rtol=1e-14
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_on_random_hpd(self, seed):
        rng = np.random.default_rng(seed)
        f = crandn(rng, 5, 5)
        a = f @ f.conj().T + np.eye(5)
        b = crandn(rng, 5, 3)
        x = hermitian_solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_singular_with_jitter_recovers(self):
        # trace > 0 makes the retry jitter positive, so the solve goes through
        a = np.diag([1.0, 0.0])
        x = hermitian_solve(a, np.array([[1.0], [0.0]]))
        assert np.isfinite(x).all()

    def test_hard_singular_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            hermitian_solve(np.zeros((2, 2)), np.eye(2))
