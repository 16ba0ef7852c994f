"""Exponential covariance model and Kronecker-structured scenarios."""

import numpy as np
import numpy.testing as npt
import pytest

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
        npt.assert_array_equal(s.chan_cov, np.eye(1))
        npt.assert_array_equal(s.noise_cov, np.eye(1))
        assert s.gamma == 1.0

    def test_reference_dims_and_traces(self):
        s = build_scenario(4, 4, 8)
        assert s.chan_cov.shape == (16, 16)
        assert s.noise_cov.shape == (32, 32)
        assert s.gamma == 32.0
        assert abs(np.trace(s.chan_cov) - 1.0) <= 1e-10
        assert abs(np.trace(s.noise_cov) - 1.0) <= 1e-10

    def test_default_correlation_parameters(self):
        npt.assert_allclose(DEFAULT_RHO_RT, 0.9 * np.exp(-1j * 0.8349 * np.pi))
        npt.assert_allclose(DEFAULT_RHO_RR, 0.65 * np.exp(-1j * 0.4289 * np.pi))
        npt.assert_allclose(DEFAULT_RHO_MT, 0.8 * np.exp(-1j * 0.5361 * np.pi))

    def test_kronecker_eigenvalue_structure(self):
        s = build_scenario(2, 3, 2)
        r_t = exponential_covariance(2, s.rho_rt)
        r_r = exponential_covariance(3, s.rho_rr)
        scale = np.trace(r_t).real * np.trace(r_r).real
        pairwise = np.sort(
            np.outer(np.linalg.eigvalsh(r_t.T), np.linalg.eigvalsh(r_r)).ravel()
        ) / scale
        npt.assert_allclose(np.linalg.eigvalsh(s.chan_cov), pairwise, atol=1e-8)

    def test_gamma_override(self):
        s = build_scenario(2, 2, 4, gamma=10.0)
        assert s.gamma == 10.0

    def test_invalid_rho_rejected(self):
        with pytest.raises(ValueError):
            build_scenario(2, 2, 4, rho_rt=1.0)

    def test_scenario_validation_rejects_non_hermitian(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            ChannelScenario(
                n_t=2, n_r=2, b=2, chan_cov=bad, noise_cov=np.eye(4) / 4.0, gamma=4.0
            )

    @pytest.mark.parametrize(
        "chan_cov, noise_cov, match",
        [
            (-np.eye(1), np.eye(1), "chan_cov has a negative diagonal"),
            (np.array([[np.nan]]), np.eye(1), "chan_cov has a non-finite"),
            (np.eye(1), np.array([[np.inf]]), "noise_cov has a non-finite"),
            (np.eye(1), np.array([[-1e-3]]), "noise_cov has a negative diagonal"),
        ],
    )
    def test_scenario_validation_rejects_bad_entries(self, chan_cov, noise_cov, match):
        with pytest.raises(ValueError, match=match):
            ChannelScenario(
                n_t=1, n_r=1, b=1, chan_cov=chan_cov, noise_cov=noise_cov, gamma=1.0
            )

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_scenario_validation_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            ChannelScenario(
                n_t=1, n_r=1, b=1, chan_cov=np.eye(1), noise_cov=np.eye(1), gamma=gamma
            )

    def test_rank_deficient_prior_accepted(self):
        s = ChannelScenario(
            n_t=2, n_r=1, b=1, chan_cov=np.diag([1.0, 0.0]), noise_cov=np.eye(1),
            gamma=1.0,
        )
        assert s.rho_rt is None and s.rho_rr is None and s.rho_mt is None

    def test_scenario_validation_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ChannelScenario(
                n_t=2, n_r=2, b=3, chan_cov=np.eye(4) / 4.0,
                noise_cov=np.eye(4) / 4.0, gamma=6.0,
            )


class TestKroneckerFactors:
    @pytest.mark.parametrize("n_t,n_r", [(2, 3), (3, 1), (4, 4)])
    def test_factors_rebuild_both_links(self, n_t, n_r):
        s = build_scenario(n_t, n_r, 4, rho_rt=0.6 + 0.3j, rho_rr=-0.3 + 0.5j)
        a, b, tau = s.chan_factors
        assert a.shape == (n_t, n_t) and b.shape == (n_r, n_r)
        assert tau == pytest.approx(1.0)
        npt.assert_allclose(np.kron(a, b) / tau, s.chan_cov, rtol=0, atol=1e-15)
        a_ul, b_ul, tau_ul = reciprocal_scenario(s).chan_factors
        npt.assert_allclose(a_ul, b, rtol=0, atol=1e-15)
        npt.assert_allclose(b_ul, a, rtol=0, atol=1e-15)
        assert tau_ul == pytest.approx(tau, rel=1e-15)

    def test_generic_covariance_rejected(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        s = ChannelScenario(
            n_t=2, n_r=3, b=2, chan_cov=a @ a.conj().T, noise_cov=np.eye(6),
            gamma=1.0,
        )
        with pytest.raises(ValueError, match="chan_cov is not a Kronecker product"):
            s.chan_factors


class TestReciprocalScenario:
    def test_symmetric_dims_unchanged(self):
        s = build_scenario(3, 3, 4)
        u = reciprocal_scenario(s)
        assert (u.n_t, u.n_r, u.b) == (3, 3, 4)
        assert u.chan_cov.shape == s.chan_cov.shape

    def test_role_swap_and_gamma(self):
        s = build_scenario(2, 3, 4)
        u = reciprocal_scenario(s)
        assert (u.n_t, u.n_r) == (3, 2)
        assert u.gamma == 4 * 3
        assert u.noise_cov.shape == (4 * 2, 4 * 2)
        assert abs(np.trace(u.noise_cov) - 1.0) <= 1e-10

    def test_permutation_preserves_spectrum(self):
        s = build_scenario(2, 1, 3)
        u = reciprocal_scenario(s)
        npt.assert_allclose(
            np.linalg.eigvalsh(u.chan_cov),
            np.linalg.eigvalsh(s.chan_cov),
            atol=1e-12,
        )

    @pytest.mark.parametrize("n_t,n_r", [(2, 3), (4, 4), (8, 8), (1, 2), (3, 1)])
    def test_channel_is_commutation_conjugate(self, n_t, n_r):
        # K vec(H) = vec(H^T) for the n_r x n_t channel H, so the uplink
        # covariance is K R K^T; R is a generic (not Kronecker) covariance
        rng = np.random.default_rng(n_t * 10 + n_r)
        n = n_t * n_r
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        r = a @ a.conj().T
        s = ChannelScenario(
            n_t=n_t, n_r=n_r, b=2, chan_cov=r, noise_cov=np.eye(2 * n_r),
            gamma=1.0, rho_rr=DEFAULT_RHO_RR, rho_mt=DEFAULT_RHO_MT,
        )
        k = np.zeros((n, n))
        for c in range(n_t):
            for row in range(n_r):
                k[row * n_t + c, c * n_r + row] = 1.0
        npt.assert_array_equal(reciprocal_scenario(s).chan_cov, k @ r @ k.T)

    @pytest.mark.parametrize("missing", ["rho_rr", "rho_mt"])
    def test_missing_noise_coefficient_named(self, missing):
        # a white downlink noise says nothing about the uplink noise
        rho = {"rho_rr": 0.0, "rho_mt": 0.0}
        del rho[missing]
        s = ChannelScenario(
            n_t=2, n_r=2, b=2, chan_cov=np.eye(4) / 4.0, noise_cov=np.eye(4) / 4.0,
            gamma=4.0, **rho,
        )
        with pytest.raises(ValueError, match=missing):
            reciprocal_scenario(s)

    def test_given_coefficients_build_uplink_noise(self):
        s = ChannelScenario(
            n_t=2, n_r=3, b=2, chan_cov=np.eye(6) / 6.0, noise_cov=np.eye(6) / 6.0,
            gamma=4.0, rho_rr=0.0, rho_mt=0.0,
        )
        npt.assert_array_equal(reciprocal_scenario(s).noise_cov, np.eye(4) / 4.0)

    @pytest.mark.parametrize("n_t,n_r,b", [(2, 3, 4), (1, 2, 3), (4, 4, 8)])
    def test_involution_recovers_original(self, n_t, n_r, b):
        s = build_scenario(n_t, n_r, b)
        back = reciprocal_scenario(reciprocal_scenario(s))
        npt.assert_array_equal(back.chan_cov, s.chan_cov)
        npt.assert_array_equal(back.noise_cov, s.noise_cov)
        assert back.gamma == s.gamma
