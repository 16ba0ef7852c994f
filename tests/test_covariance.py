"""Exponential covariance model and Kronecker-structured scenarios."""

import numpy as np
import numpy.testing as npt
import pytest

from oracles import chan_cov, noise_cov
from zczpilot.covariance import (
    DEFAULT_RHO_MT,
    DEFAULT_RHO_RR,
    DEFAULT_RHO_RT,
    ChannelScenario,
    build_scenario,
    exponential_covariance,
    reciprocal_scenario,
)


class TestExponentialCovariance:
    def test_uncorrelated(self):
        npt.assert_array_equal(exponential_covariance(2, 0.0), np.eye(2))

    def test_real_half(self):
        npt.assert_allclose(
            exponential_covariance(2, 0.5),
            np.array([[1.0, 0.5], [0.5, 1.0]]),
            rtol=0,
            atol=0,
        )

    def test_complex_entries_and_psd(self):
        rho = 0.9 * np.exp(1j * 0.8349 * np.pi)
        c = exponential_covariance(3, rho)
        npt.assert_allclose(c[0, 2], rho**2, rtol=1e-14)
        npt.assert_allclose(c[2, 0], np.conj(rho**2), rtol=1e-14)
        assert np.linalg.eigvalsh(c).min() >= -1e-12

    @pytest.mark.parametrize("mag", [0.0, 0.3, 0.65, 0.9, 0.99])
    @pytest.mark.parametrize("phase", [0.0, -0.4289, 0.8349])
    def test_hermitian_unit_diagonal_psd_grid(self, mag, phase):
        rho = mag * np.exp(1j * np.pi * phase)
        n = 6
        c = exponential_covariance(n, rho)
        npt.assert_allclose(c, c.conj().T, rtol=0, atol=1e-15)
        npt.assert_allclose(np.diag(c), np.ones(n), rtol=0, atol=0)
        assert np.linalg.eigvalsh(c).min() >= -1e-12 * n

    @pytest.mark.parametrize("rho", [1.0, -1.2, 1.0 + 0.1j])
    def test_magnitude_at_least_one_rejected(self, rho):
        with pytest.raises(ValueError):
            exponential_covariance(3, rho)


class TestBuildScenario:
    def test_scalar_limit(self):
        s = build_scenario(1, 1, 1, rho_rt=0.0, rho_rr=0.0, rho_mt=0.0)
        npt.assert_array_equal(chan_cov(s), np.eye(1))
        npt.assert_array_equal(noise_cov(s), np.eye(1))
        assert s.gamma == 1.0

    def test_reference_dims_and_traces(self):
        s = build_scenario(4, 4, 8)
        assert chan_cov(s).shape == (16, 16)
        assert noise_cov(s).shape == (32, 32)
        assert s.gamma == 32.0
        assert abs(np.trace(chan_cov(s)) - 1.0) <= 1e-10
        assert abs(np.trace(noise_cov(s)) - 1.0) <= 1e-10
        for c in (s.r_tx, s.r_rx, s.m_time, s.m_rx):
            assert abs(np.trace(c) - 1.0) <= 1e-15

    def test_default_correlation_parameters(self):
        npt.assert_allclose(DEFAULT_RHO_RT, 0.9 * np.exp(-1j * 0.8349 * np.pi))
        npt.assert_allclose(DEFAULT_RHO_RR, 0.65 * np.exp(-1j * 0.4289 * np.pi))
        npt.assert_allclose(DEFAULT_RHO_MT, 0.8 * np.exp(-1j * 0.5361 * np.pi))

    def test_kronecker_eigenvalue_structure(self):
        s = build_scenario(2, 3, 2)
        r_t = exponential_covariance(2, DEFAULT_RHO_RT)
        r_r = exponential_covariance(3, DEFAULT_RHO_RR)
        scale = np.trace(r_t).real * np.trace(r_r).real
        pairwise = np.sort(
            np.outer(np.linalg.eigvalsh(r_t.T), np.linalg.eigvalsh(r_r)).ravel()
        ) / scale
        npt.assert_allclose(np.linalg.eigvalsh(chan_cov(s)), pairwise, atol=1e-8)

    def test_gamma_override(self):
        s = build_scenario(2, 2, 4, gamma=10.0)
        assert s.gamma == 10.0

    def test_invalid_rho_rejected(self):
        with pytest.raises(ValueError):
            build_scenario(2, 2, 4, rho_rt=1.0)

    def test_scenario_validation_rejects_non_hermitian(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="r_tx is not Hermitian"):
            ChannelScenario(
                r_tx=bad, r_rx=np.eye(2) / 2.0, m_time=np.eye(2) / 2.0,
                m_rx=np.eye(2) / 2.0, gamma=4.0,
            )

    # In a 1 x 1 x 1 scenario the channel and noise covariances are r_tx
    # and m_time.
    @pytest.mark.parametrize(
        "chan_cov, noise_cov, match",
        [
            (-np.eye(1), np.eye(1), "r_tx is not positive semidefinite"),
            (np.array([[np.nan]]), np.eye(1), "r_tx has a non-finite"),
            (np.eye(1), np.array([[np.inf]]), "m_time has a non-finite"),
            (np.eye(1), np.array([[-1e-3]]), "m_time is not positive semidefinite"),
        ],
    )
    def test_scenario_validation_rejects_bad_entries(self, chan_cov, noise_cov, match):
        with pytest.raises(ValueError, match=match):
            ChannelScenario(
                r_tx=chan_cov, r_rx=np.eye(1), m_time=noise_cov, m_rx=np.eye(1),
                gamma=1.0,
            )

    @pytest.mark.parametrize("name", ["r_tx", "r_rx", "m_time", "m_rx"])
    def test_scenario_validation_rejects_indefinite_factor(self, name):
        # Hermitian with a non-negative diagonal, but eigenvalues 3 and -1
        factors = dict.fromkeys(["r_tx", "r_rx", "m_time", "m_rx"], np.eye(2) / 2.0)
        factors[name] = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match=f"{name} is not positive semidefinite"):
            ChannelScenario(**factors, gamma=1.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_scenario_validation_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            ChannelScenario(
                r_tx=np.eye(1), r_rx=np.eye(1), m_time=np.eye(1), m_rx=np.eye(1),
                gamma=gamma,
            )

    def test_rank_deficient_prior_accepted(self):
        # a singular factor is PSD up to rounding: eigenvalues of order
        # -1e-17 must not count as indefinite
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        s = ChannelScenario(
            r_tx=np.diag([1.0, 0.0]), r_rx=np.eye(1), m_time=a @ a.conj().T,
            m_rx=np.eye(1), gamma=1.0,
        )
        assert (s.n_t, s.n_r, s.b) == (2, 1, 4)
        assert s.rho_rr is None

    def test_scenario_validation_rejects_bad_shape(self):
        for shapes in [(2, 2, 3, 3), (2, 2, 0, 2), ((2, 3), 2, 2, 2)]:
            factors = [
                np.eye(*n) if isinstance(n, tuple) else np.eye(n) for n in shapes
            ]
            with pytest.raises(ValueError, match="shape"):
                ChannelScenario(*factors, gamma=6.0)

    def test_scenario_is_immutable_and_hashable(self):
        s = build_scenario(2, 2, 4)
        t = build_scenario(2, 2, 4)
        assert s == s and s != t
        assert len({s, t, s}) == 2
        with pytest.raises(ValueError, match="read-only"):
            s.r_tx[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            s.m_rx[0, 0] = 2.0

    def test_factors_are_copied(self):
        r = np.eye(2) / 2.0
        s = ChannelScenario(r_tx=r, r_rx=r, m_time=r, m_rx=r, gamma=1.0)
        r[0, 0] = 5.0
        npt.assert_array_equal(chan_cov(s), np.eye(4) / 4.0)


class TestKroneckerFactors:
    @pytest.mark.parametrize("n_t,n_r", [(2, 3), (3, 1), (4, 4)])
    def test_factors_rebuild_both_links(self, n_t, n_r):
        s = build_scenario(n_t, n_r, 4, rho_rt=0.6 + 0.3j, rho_rr=-0.3 + 0.5j)
        assert s.r_tx.shape == (n_t, n_t) and s.r_rx.shape == (n_r, n_r)
        u = reciprocal_scenario(s)
        npt.assert_array_equal(u.r_tx, s.r_rx)
        npt.assert_array_equal(u.r_rx, s.r_tx)
        npt.assert_array_equal(u.m_time, s.m_time)


class TestReciprocalScenario:
    def test_symmetric_dims_unchanged(self):
        s = build_scenario(3, 3, 4)
        u = reciprocal_scenario(s)
        assert (u.n_t, u.n_r, u.b) == (3, 3, 4)
        assert chan_cov(u).shape == chan_cov(s).shape

    def test_role_swap_and_gamma(self):
        s = build_scenario(2, 3, 4)
        u = reciprocal_scenario(s)
        assert (u.n_t, u.n_r) == (3, 2)
        assert u.gamma == 4 * 3
        assert noise_cov(u).shape == (4 * 2, 4 * 2)
        assert abs(np.trace(noise_cov(u)) - 1.0) <= 1e-10
        npt.assert_allclose(
            u.m_rx, exponential_covariance(2, DEFAULT_RHO_RR) / 2.0, rtol=0, atol=0
        )

    def test_permutation_preserves_spectrum(self):
        s = build_scenario(2, 1, 3)
        u = reciprocal_scenario(s)
        npt.assert_allclose(
            np.linalg.eigvalsh(chan_cov(u)),
            np.linalg.eigvalsh(chan_cov(s)),
            atol=1e-12,
        )

    @pytest.mark.parametrize("n_t,n_r", [(2, 3), (4, 4), (8, 8), (1, 2), (3, 1)])
    def test_channel_is_commutation_conjugate(self, n_t, n_r):
        # K vec(H) = vec(H^T) for the n_r x n_t channel H, so the uplink
        # covariance is K R K^T; the factors are random PSD matrices
        rng = np.random.default_rng(n_t * 10 + n_r)

        def random_psd(m):
            a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            return a @ a.conj().T

        s = ChannelScenario(
            r_tx=random_psd(n_t), r_rx=random_psd(n_r), m_time=np.eye(2),
            m_rx=np.eye(n_r), gamma=1.0, rho_rr=DEFAULT_RHO_RR,
        )
        n = n_t * n_r
        k = np.zeros((n, n))
        for c in range(n_t):
            for row in range(n_r):
                k[row * n_t + c, c * n_r + row] = 1.0
        npt.assert_allclose(
            chan_cov(reciprocal_scenario(s)), k @ chan_cov(s) @ k.T, rtol=1e-14, atol=0
        )

    @pytest.mark.parametrize("missing", ["rho_rr"])
    def test_missing_noise_coefficient_named(self, missing):
        # a white downlink noise says nothing about the uplink noise
        eye = np.eye(2) / 2.0
        s = ChannelScenario(r_tx=eye, r_rx=eye, m_time=eye, m_rx=eye, gamma=4.0)
        with pytest.raises(ValueError, match=missing):
            reciprocal_scenario(s)

    def test_given_coefficients_build_uplink_noise(self):
        s = ChannelScenario(
            r_tx=np.eye(2) / 2.0, r_rx=np.eye(3) / 3.0, m_time=np.eye(2) / 2.0,
            m_rx=np.eye(3) / 3.0, gamma=4.0, rho_rr=0.0,
        )
        npt.assert_array_equal(noise_cov(reciprocal_scenario(s)), np.eye(4) / 4.0)

    @pytest.mark.parametrize("n_t,n_r,b", [(2, 3, 4), (1, 2, 3), (4, 4, 8)])
    def test_involution_recovers_original(self, n_t, n_r, b):
        s = build_scenario(n_t, n_r, b)
        back = reciprocal_scenario(reciprocal_scenario(s))
        npt.assert_array_equal(chan_cov(back), chan_cov(s))
        npt.assert_array_equal(noise_cov(back), noise_cov(s))
        assert back.gamma == s.gamma
