"""MSE objective algebra, auxiliary-variable identities, and the
training simulator / MMSE estimator pair used for empirical checks."""

import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from oracles import (
    AuxiliaryV,
    build_Q,
    chan_cov,
    channel_mse_direct,
    dense_v,
    embed_pilot,
    hermitian_solve,
    mmse_estimate,
    noise_cov,
    optimal_V,
    simulate_training,
    surrogate_F,
)
from zczpilot import cli
from zczpilot.covariance import (
    ChannelScenario,
    build_scenario,
    exponential_covariance,
    reciprocal_scenario,
)
from zczpilot.designer import DesignConfig, design_pilots
from zczpilot.estimation import (
    _TRIAL_BLOCK,
    channel_mse_lemma,
    mmse_squared_errors,
    mse_and_optimal_V,
)


ROOT = Path(__file__).parents[1]
REFERENCE_CONFIG = ROOT / "configs" / "mimo4x4_b8.ini"


def refuse_kron(a, b):
    raise AssertionError(f"Kronecker product of {np.shape(a)} and {np.shape(b)}")


LINALG_FACTORS = (
    "solve", "cholesky", "inv", "eigh", "eigvalsh", "svd", "pinv",
    "qr", "lstsq", "eig", "eigvals", "det", "slogdet", "matrix_rank",
)


def record_factor_sizes(monkeypatch, names=LINALG_FACTORS):
    """Record the larger side of every matrix that the named numpy.linalg
    functions factor or solve with, in the returned list."""
    sizes = []

    def recording(fn):
        def wrapped(a, *args, **kwargs):
            sizes.append(max(np.shape(a)[-2:]))
            return fn(a, *args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    return sizes


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def scalar_scenario(gamma):
    one = np.eye(1)
    return ChannelScenario(r_tx=one, r_rx=one, m_time=one, m_rx=one, gamma=gamma)


def random_pilot(rng, s, energy=None):
    p = crandn(rng, s.b, s.n_t)
    if energy is not None:
        p *= np.sqrt(energy) / np.linalg.norm(p)
    return p


def least_squares_scenario():
    sigma2 = 1e6
    return ChannelScenario(
        r_tx=sigma2 * np.eye(2), r_rx=np.eye(2),
        m_time=np.eye(4) / 4.0, m_rx=np.eye(2) / 2.0,
        gamma=1.0,
    )


DIM_GRID = [
    (n_t, n_r, b)
    for n_t in (1, 2, 4)
    for n_r in (1, 2, 4)
    for b in (2, 4, 8)
]


class TestMseForms:
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    def test_scalar_closed_form(self, gamma):
        s = scalar_scenario(gamma)
        p = np.array([[np.sqrt(gamma)]], dtype=complex)
        expected = 1.0 / (1.0 + gamma)
        assert channel_mse_direct(p, s) == pytest.approx(expected, abs=1e-12)
        assert channel_mse_lemma(p, s) == pytest.approx(expected, abs=1e-12)

    def test_zero_pilot_returns_prior_trace(self):
        s = build_scenario(2, 2, 4)
        p = np.zeros((4, 2))
        assert channel_mse_lemma(p, s) == pytest.approx(1.0, abs=1e-12)
        assert channel_mse_direct(p, s) == pytest.approx(1.0, rel=1e-6)

    def test_well_trained_link_keeps_its_digits(self):
        # the MSE is a sum of nonnegative terms, not trace[R] minus a
        # correction that cancels all but the last few of its digits
        s = build_scenario(8, 8, 64, gamma=1e6)
        p = random_pilot(np.random.default_rng(0), s, energy=s.gamma)
        direct = channel_mse_direct(p, s)
        assert direct < 1e-4
        assert abs(channel_mse_lemma(p, s) - direct) <= 1e-13 * direct

    @pytest.mark.parametrize("n_t,n_r,b", DIM_GRID)
    def test_direct_equals_lemma(self, n_t, n_r, b):
        rng = np.random.default_rng(n_t * 100 + n_r * 10 + b)
        s = build_scenario(n_t, n_r, b)
        for _ in range(3):
            p = random_pilot(rng, s, energy=s.gamma)
            d = channel_mse_direct(p, s)
            l = channel_mse_lemma(p, s)
            assert abs(d - l) <= 1e-8 * d

    def test_rank_deficient_prior_is_fine_for_lemma(self):
        s = ChannelScenario(
            r_tx=np.diag([1.0, 0.0]), r_rx=np.eye(1),
            m_time=np.eye(2) / 2.0, m_rx=np.eye(1),
            gamma=4.0,
        )
        rng = np.random.default_rng(0)
        p = random_pilot(rng, s, energy=s.gamma)
        val = channel_mse_lemma(p, s)
        assert np.isfinite(val) and 0 < val < 1.0
        # the direct form needs the jitter fallback but still completes
        assert np.isfinite(channel_mse_direct(p, s))

    @pytest.mark.parametrize("seed", range(5))
    def test_mse_bounds(self, seed):
        rng = np.random.default_rng(seed)
        s = build_scenario(2, 2, 4)
        p = random_pilot(rng, s)
        val = channel_mse_lemma(p, s)
        assert 0 < val <= 1.0 + 1e-10

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 10.0])
    def test_energy_monotonicity(self, alpha):
        rng = np.random.default_rng(3)
        s = build_scenario(2, 2, 4)
        p = random_pilot(rng, s, energy=s.gamma)
        assert channel_mse_lemma(alpha * p, s) <= channel_mse_lemma(p, s) + 1e-10


class TestFusedMseAndV:
    @pytest.mark.parametrize("n_t,n_r,b", [(3, 2, 5), (2, 3, 4), (1, 4, 8), (4, 1, 2)])
    def test_agrees_with_wrappers_and_direct_form(self, n_t, n_r, b):
        rng = np.random.default_rng(n_t * 100 + n_r * 10 + b)
        s = build_scenario(
            n_t, n_r, b, rho_rt=0.5 + 0.3j, rho_rr=-0.4 + 0.2j, rho_mt=0.1 - 0.6j
        )
        p = random_pilot(rng, s, energy=s.gamma)
        mse, v = mse_and_optimal_V(p, s)
        assert abs(mse - channel_mse_lemma(p, s)) <= 1e-14 * mse
        v, v_ref = dense_v(v, s), dense_v(optimal_V(p, s), s)
        npt.assert_allclose(v.v1, v_ref.v1, rtol=0, atol=1e-14)
        npt.assert_allclose(v.v2, v_ref.v2, rtol=0, atol=1e-14 * np.abs(v_ref.v2).max())
        # criterion 2's tolerance for the lemma against the information form
        assert abs(mse - channel_mse_direct(p, s)) <= 1e-8 * mse

    @pytest.mark.parametrize("n_t,n_r,b", [(3, 2, 5), (4, 4, 8), (8, 8, 64)])
    def test_zero_pilot_scores_as_its_prior(self, n_t, n_r, b):
        # a zero pilot's Gram is 0, whose eigendecomposition is d = 0 and
        # U = I exactly: its score is the prior trace, with V* = (0, ones,
        # F^H) bit for bit
        s = build_scenario(
            n_t, n_r, b, rho_rt=0.5 + 0.3j, rho_rr=-0.4 + 0.2j, rho_mt=0.1 - 0.6j
        )
        p = np.zeros((b, n_t))
        direct = channel_mse_direct(p, s)
        mse, (phi, c, psi) = mse_and_optimal_V(p, s)
        npt.assert_array_equal(phi, np.zeros((b, n_t)))
        npt.assert_array_equal(c, np.ones((n_r, n_t)))
        npt.assert_array_equal(psi, s.transmit_eig[0].conj().T)
        assert abs(mse - direct) <= 1e-8 * mse
        assert mse == pytest.approx(np.trace(chan_cov(s)).real, rel=1e-12)


def dense_mse_and_v2(p, s):
    """Oracle: the lemma MSE and V2 from one dense (B n_r)^2 Gram solve."""
    pt = embed_pilot(p, s.n_r)
    w = pt @ chan_cov(s)
    z = hermitian_solve(noise_cov(s) + w @ pt.conj().T, w)
    return float(np.trace(chan_cov(s)).real - np.vdot(w, z).real), -z


# Exponential coefficients up to |rho| = 0.95 on every factor.
RHO_SETS = {
    "default": {},
    "strong": {"rho_rt": 0.95j, "rho_rr": -0.95, "rho_mt": 0.95 * np.exp(0.7j)},
}


class TestFactoredSolve:
    """mse_and_optimal_V reads n_r Gram blocks of size B x B from their
    Woodbury factors; the dense Gram solve and the information form are
    its oracles."""

    @pytest.mark.parametrize("rho", RHO_SETS)
    @pytest.mark.parametrize("link", ["downlink", "uplink"])
    @pytest.mark.parametrize("n_t,n_r,b", DIM_GRID)
    def test_matches_dense_gram_and_direct_form(self, n_t, n_r, b, link, rho):
        s = build_scenario(n_t, n_r, b, **RHO_SETS[rho])
        if link == "uplink":
            # its noise receive factor is not its channel receive factor
            s = reciprocal_scenario(s)
        rng = np.random.default_rng(n_t * 100 + n_r * 10 + b)
        p = random_pilot(rng, s, energy=s.gamma)
        mse, v = mse_and_optimal_V(p, s)
        mse_ref, v2_ref = dense_mse_and_v2(p, s)
        v = dense_v(v, s)
        npt.assert_allclose(v.v2, v2_ref, rtol=0, atol=1e-10 * np.abs(v2_ref).max())
        npt.assert_array_equal(v.v1, np.eye(s.n_t * s.n_r))
        assert abs(mse - mse_ref) <= 1e-8 * mse_ref
        direct = channel_mse_direct(p, s)
        assert abs(mse - direct) <= 1e-8 * direct

    @pytest.mark.parametrize(
        "r_tx, r_rx",
        [
            (np.diag([1.0, 0.0]), np.diag([1.0, 0.0])),
            (np.eye(2), np.diag([0.5, 0.0])),
        ],
        ids=["rank-one", "singular-receive-factor"],
    )
    def test_rank_deficient_prior(self, r_tx, r_rx):
        s = ChannelScenario(
            r_tx=r_tx, r_rx=r_rx, m_time=np.eye(3) / 3.0, m_rx=np.eye(2) / 2.0,
            gamma=6.0,
        )
        p = random_pilot(np.random.default_rng(1), s, energy=s.gamma)
        mse, v = mse_and_optimal_V(p, s)
        mse_ref, v2_ref = dense_mse_and_v2(p, s)
        npt.assert_allclose(
            dense_v(v, s).v2, v2_ref, rtol=0, atol=1e-10 * np.abs(v2_ref).max()
        )
        assert abs(mse - mse_ref) <= 1e-8 * mse_ref

    @pytest.mark.parametrize("link", ["downlink", "uplink"])
    def test_covariances_off_unit_trace(self, link):
        # built scenarios have unit-trace factors; rescaling the transmit
        # and temporal factors makes a misplaced normalization visible
        s = build_scenario(2, 3, 4, rho_rt=0.5 + 0.3j, rho_mt=0.1 - 0.6j)
        if link == "uplink":
            s = reciprocal_scenario(s)
        s = ChannelScenario(
            r_tx=2.5 * s.r_tx, r_rx=s.r_rx, m_time=0.3 * s.m_time, m_rx=s.m_rx,
            gamma=s.gamma,
        )
        p = random_pilot(np.random.default_rng(3), s, energy=s.gamma)
        mse, v = mse_and_optimal_V(p, s)
        mse_ref, v2_ref = dense_mse_and_v2(p, s)
        npt.assert_allclose(
            dense_v(v, s).v2, v2_ref, rtol=0, atol=1e-10 * np.abs(v2_ref).max()
        )
        assert abs(mse - mse_ref) <= 1e-8 * mse_ref

    def test_singular_noise_receive_factor_raises(self):
        s = ChannelScenario(
            r_tx=np.eye(2) / 2.0, r_rx=np.eye(2) / 2.0,
            m_time=np.eye(3) / 3.0, m_rx=np.diag([1.0, 0.0]),
            gamma=6.0,
        )
        with pytest.raises(np.linalg.LinAlgError, match="m_rx: .*positive definite"):
            mse_and_optimal_V(np.ones((3, 2)), s)

    def test_singular_temporal_noise_factor_raises(self):
        # a singular block could still be solved; the factored form needs
        # M_time = L L^H and says so
        s = ChannelScenario(
            r_tx=np.eye(2) / 2.0, r_rx=np.eye(2) / 2.0,
            m_time=np.diag([1.0, 1.0, 0.0]), m_rx=np.eye(2) / 2.0,
            gamma=6.0,
        )
        with pytest.raises(np.linalg.LinAlgError, match="m_time: .*positive definite"):
            mse_and_optimal_V(np.ones((3, 2)), s)

    def test_factors_split_lazily_and_once(self, monkeypatch):
        # the receive eigenbasis, the transmit eigenbasis and the temporal
        # whitener are computed on first use and kept, and the solve never
        # forms a Kronecker product: past the first call, only the n_t x n_t
        # Gram of the pilot is factored
        factored = []

        def counting(name):
            fn = getattr(np.linalg, name)

            def wrapped(a, *args, **kwargs):
                factored.append((name, a.shape))
                return fn(a, *args, **kwargs)
            return wrapped

        for name in ("cholesky", "inv", "eigh"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        monkeypatch.setattr(np, "kron", refuse_kron)
        s = build_scenario(2, 3, 4)
        assert not factored
        mse_and_optimal_V(np.ones((4, 2)), s)
        assert sorted(factored) == [
            ("cholesky", (3, 3)), ("cholesky", (4, 4)),
            ("eigh", (2, 2)), ("eigh", (2, 2)), ("eigh", (3, 3)),
            ("inv", (3, 3)), ("inv", (4, 4)),
        ]
        factored.clear()
        for _ in range(2):
            mse_and_optimal_V(np.ones((4, 2)), s)
        assert factored == [("eigh", (2, 2))] * 2

    def test_no_factored_matrix_exceeds_training_length(self, monkeypatch, capsys):
        # a 4x4, B = 16 design and a 4x4, B = 8 validate factor nothing of
        # the (B n_r)-dimensional Gram or noise covariance, nor, with
        # n_t n_r = 16 > B = 8, of the channel covariance
        sizes = record_factor_sizes(monkeypatch)
        dl = build_scenario(4, 4, 16)
        ul = reciprocal_scenario(dl)
        _, trace = design_pilots(dl, ul, DesignConfig(k=2, max_outer=3, seed=0))
        assert trace.outer_iterations == 3
        assert sizes and max(sizes) <= 16
        sizes.clear()
        rc = cli.main(["validate", "--config", str(REFERENCE_CONFIG), "--trials", "50"])
        capsys.readouterr()
        assert rc == cli.EXIT_OK
        assert sizes and max(sizes) <= 8


class TestBlockMatrixQ:
    def test_zero_pilot_block_diagonal(self):
        s = build_scenario(2, 2, 3)
        q = build_Q(np.zeros((3, 2)), s)
        n = s.n_t * s.n_r
        npt.assert_allclose(q[:n, :n], chan_cov(s), rtol=0, atol=0)
        npt.assert_allclose(q[n:, n:], noise_cov(s), rtol=0, atol=0)
        assert np.abs(q[:n, n:]).max() == 0.0

    def test_hermitian(self):
        rng = np.random.default_rng(4)
        s = build_scenario(2, 2, 4)
        q = build_Q(random_pilot(rng, s), s)
        assert np.linalg.norm(q - q.conj().T) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_schur_identity_recovers_mse(self, seed):
        # U = [I; 0] picks the top-left block of Q^{-1}, whose inverse has
        # the error-covariance trace.
        rng = np.random.default_rng(seed)
        s = build_scenario(2, 2, 4)
        p = random_pilot(rng, s, energy=s.gamma)
        q = build_Q(p, s)
        n = s.n_t * s.n_r
        u = np.vstack([np.eye(n), np.zeros((s.b * s.n_r, n))])
        top = u.conj().T @ np.linalg.solve(q, u)
        mse = channel_mse_direct(p, s)
        assert np.trace(np.linalg.inv(top)).real == pytest.approx(mse, rel=1e-7)


class TestAuxiliaryVariable:
    def test_zero_pilot_optimum(self):
        s = build_scenario(2, 2, 3)
        v = dense_v(optimal_V(np.zeros((3, 2)), s), s)
        n = s.n_t * s.n_r
        npt.assert_array_equal(v.v1, np.eye(n))
        assert np.abs(v.v2).max() == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_f_at_optimum_equals_mse(self, seed):
        rng = np.random.default_rng(seed)
        s = build_scenario(2, 2, 4)
        p = random_pilot(rng, s, energy=s.gamma)
        v = optimal_V(p, s)
        mse = channel_mse_direct(p, s)
        assert abs(surrogate_F(v, p, s) - mse) <= 1e-8 * mse

    def test_minimizer_property_over_v2(self):
        rng = np.random.default_rng(9)
        s = build_scenario(2, 2, 4)
        p = random_pilot(rng, s, energy=s.gamma)
        v = dense_v(optimal_V(p, s), s)
        base = surrogate_F(v, p, s)
        for _ in range(100):
            delta = 10.0 ** rng.uniform(-4, 0) * crandn(rng, *v.v2.shape)
            perturbed = AuxiliaryV(v1=v.v1, v2=v.v2 + delta)
            assert surrogate_F(perturbed, p, s) >= base - 1e-10

    def test_zero_v_gives_zero(self):
        s = build_scenario(2, 1, 3)
        n = s.n_t * s.n_r
        v = AuxiliaryV(v1=np.zeros((n, n)), v2=np.zeros((s.b * s.n_r, n)))
        assert surrogate_F(v, np.ones((3, 2)), s) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_blockwise_matches_dense_quadratic_form(self, seed):
        rng = np.random.default_rng(seed)
        s = build_scenario(2, 2, 4)
        p = random_pilot(rng, s)
        n = s.n_t * s.n_r
        v = AuxiliaryV(v1=crandn(rng, n, n), v2=crandn(rng, s.b * s.n_r, n))
        dense = np.trace(v.stacked().conj().T @ build_Q(p, s) @ v.stacked()).real
        assert surrogate_F(v, p, s) == pytest.approx(dense, abs=1e-9 * max(1, dense))

    def test_partition_dims_validated(self):
        s = build_scenario(2, 2, 4)
        with pytest.raises(ValueError):
            AuxiliaryV(v1=np.eye(3), v2=np.zeros((8, 4)))


def assert_coloured_draw(seed):
    """simulate_training(seed) is the row of default_rng(seed), coloured by
    the dense Cholesky factors of the covariances."""
    s = build_scenario(2, 3, 4, rho_rt=0.5 + 0.3j, rho_mt=0.1 - 0.6j)
    rng = np.random.default_rng(seed)
    white = [rng.standard_normal(k) for k in (6, 6, 12, 12)]
    h = np.linalg.cholesky(chan_cov(s)) @ (white[0] + 1j * white[1])
    n = np.linalg.cholesky(noise_cov(s)) @ (white[2] + 1j * white[3])
    real = simulate_training(np.ones((4, 2)), s, seed=seed)
    npt.assert_allclose(real.h.reshape(-1, order="F"), h / np.sqrt(2.0),
                        rtol=1e-14, atol=1e-15)
    npt.assert_allclose(real.noise.reshape(-1, order="F"), n / np.sqrt(2.0),
                        rtol=1e-14, atol=1e-15)


class TestSimulator:
    def test_received_signal_identity(self):
        rng = np.random.default_rng(2)
        s = build_scenario(2, 3, 4)
        p = random_pilot(rng, s)
        real = simulate_training(p, s, seed=5)
        npt.assert_allclose(real.yrx, real.h @ p.T + real.noise, rtol=0, atol=0)

    def test_shape_checked_without_lifting(self):
        # a draw on an 8x8, B = 64 link allocates less than half the
        # 0.5 MB of the lifted pilot P (x) I, (B n_r) x (n_t n_r) complex
        # (a first draw on a scalar link takes numpy's one-time set-up)
        simulate_training(np.ones((2, 1)), build_scenario(1, 1, 2), seed=0)
        s = build_scenario(8, 8, 64)
        tracemalloc.start()
        try:
            real = simulate_training(np.ones((64, 8)), s, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert real.yrx.shape == (8, 64)
        assert peak < 64 * 8 * 8 * 8 * 16 / 2
        with pytest.raises(ValueError, match="pilot shape"):
            simulate_training(np.ones((3, 8)), s, seed=3)

    def test_seed_determinism(self):
        s = build_scenario(2, 2, 4)
        p = np.ones((4, 2))
        a = simulate_training(p, s, seed=77)
        b = simulate_training(p, s, seed=77)
        npt.assert_array_equal(a.h, b.h)
        npt.assert_array_equal(a.noise, b.noise)
        npt.assert_array_equal(a.yrx, b.yrx)

    def test_draw_order(self):
        # one row of default_rng(seed): channel real, channel imaginary,
        # noise real, noise imaginary, each coloured by its Cholesky factor
        assert_coloured_draw(21)

    def test_seed_past_2_64(self):
        # seeds follow numpy's own rule: any integer >= 0 seeds default_rng
        assert_coloured_draw(2**64)

    def test_noise_coloured_by_dense_factor_off_unit_trace(self):
        # the factor-wise colouring L_time W L_rx^T equals the Cholesky
        # factor of the whole noise covariance, whatever its trace
        s = reciprocal_scenario(build_scenario(3, 2, 4, rho_mt=0.1 - 0.6j))
        s = ChannelScenario(
            r_tx=s.r_tx, r_rx=s.r_rx, m_time=0.3 * s.m_time, m_rx=s.m_rx,
            gamma=s.gamma,
        )
        f_n = np.linalg.cholesky(noise_cov(s))
        n_h, n_m = s.n_t * s.n_r, s.b * s.n_r
        for seed in (3, 17):
            white = np.random.default_rng(seed).standard_normal(2 * (n_h + n_m))
            w = white[2 * n_h:2 * n_h + n_m] + 1j * white[2 * n_h + n_m:]
            noise = simulate_training(np.ones((s.b, s.n_t)), s, seed).noise
            npt.assert_allclose(noise.reshape(-1, order="F"), f_n @ w / np.sqrt(2.0),
                                rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("case", ["positive-definite", "singular-r_tx",
                                      "singular-r_rx"])
    def test_colouring_factors_give_the_covariances(self, case):
        # with test_draw_order, which pins the draws to the dense Cholesky
        # factor, this fixes the law of the draws exactly: vec(H) and vec(N)
        # are (F_a (x) F_b) w for white w
        s = build_scenario(3, 3, 5, rho_rt=0.5 + 0.3j, rho_mt=0.1 - 0.6j)
        if case != "positive-definite":
            s = replace(s, **{case.removeprefix("singular-"): singular_factor(3)})
        for (f_a, f_b), cov in zip(s.colouring, (chan_cov(s), noise_cov(s))):
            f = np.kron(f_a, f_b)
            npt.assert_allclose(f @ f.conj().T, cov, rtol=1e-13, atol=1e-15)


class TestMmseEstimator:
    def test_zero_observation(self):
        s = build_scenario(2, 2, 4)
        p = np.ones((4, 2))
        est = mmse_estimate(np.zeros((2, 4)), p, s)
        assert np.abs(est).max() == 0.0

    def test_least_squares_limit(self):
        # huge prior variance and no noise turn MMSE into pilot inversion
        s = least_squares_scenario()
        rng = np.random.default_rng(8)
        p = crandn(rng, 4, 2)
        p /= np.linalg.norm(p)
        h = simulate_training(p, s, seed=3).h
        est = mmse_estimate(h @ p.T, p, s)
        err = np.linalg.norm(est - h) / np.linalg.norm(h)
        assert err <= 1e-3

    @pytest.mark.parametrize("case", ["correlated", "kron-sized", "least-squares"])
    def test_matches_dense_formula(self, case):
        if case == "least-squares":
            s = least_squares_scenario()
        else:
            dims = (2, 3, 4) if case == "correlated" else (8, 8, 64)
            s = build_scenario(
                *dims, rho_rt=0.5 + 0.3j, rho_rr=-0.4 + 0.2j, rho_mt=0.1 - 0.6j
            )
        rng = np.random.default_rng(12)
        p = random_pilot(rng, s, energy=s.gamma)
        pt = embed_pilot(p, s.n_r)
        gram = noise_cov(s) + pt @ chan_cov(s) @ pt.conj().T
        yrx = simulate_training(p, s, seed=4).yrx
        want = chan_cov(s) @ pt.conj().T @ np.linalg.solve(
            gram, yrx.reshape(-1, order="F")
        )
        got = mmse_estimate(yrx, p, s).reshape(-1, order="F")
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_estimator_unbiased_shrinkage(self):
        # estimates shrink toward zero, never amplifying the observation
        rng = np.random.default_rng(10)
        s = build_scenario(2, 2, 4)
        p = random_pilot(rng, s, energy=s.gamma)
        real = simulate_training(p, s, seed=11)
        est = mmse_estimate(real.yrx, p, s)
        assert est.shape == real.h.shape
        assert np.isfinite(est).all()


def singular_factor(n):
    """Rank n - 1 exponential factor: its last row and column are zero, so
    Cholesky fails and the colouring takes the eigen fallback."""
    c = np.zeros((n, n), dtype=complex)
    c[:-1, :-1] = exponential_covariance(n - 1, 0.6 - 0.3j)
    return c


def squared_error_case(name):
    """(scenario, trials, seed) of a TestSquaredErrors case."""
    if name == "n_t2-n_r3-b4":
        s = build_scenario(2, 3, 4, rho_rr=-0.4 + 0.2j, rho_mt=0.1 - 0.6j)
        return s, 4, 9
    if name == "n_t4-n_r2-b6":
        # the uplink: its noise receive factor is not its channel's
        return reciprocal_scenario(build_scenario(2, 4, 6, rho_mt=0.1 - 0.6j)), 2, 0
    if name == "n_t3-n_r3-b2":
        return build_scenario(3, 3, 2, rho_rt=0.5 + 0.3j), 2, 3
    if name.startswith("singular-"):
        factor = {name.removeprefix("singular-"): singular_factor(3)}
        return replace(build_scenario(3, 3, 5, rho_mt=0.1 - 0.6j), **factor), 3, 1
    assert name == "across-blocks"
    return build_scenario(2, 2, 4), _TRIAL_BLOCK + 3, 5


class TestSquaredErrors:
    # n_t < n_r, n_t > n_r, b < n_t, each singular channel factor (the
    # eigen fallback of the colouring) and trials across a block boundary
    @pytest.mark.parametrize("case", ["n_t2-n_r3-b4", "n_t4-n_r2-b6", "n_t3-n_r3-b2",
                                      "singular-r_tx", "singular-r_rx",
                                      "across-blocks"])
    def test_matches_simulator_and_estimator_per_seed(self, case):
        # trial t is the t-th simulate_training row of one generator
        s, trials, seed = squared_error_case(case)
        p = random_pilot(np.random.default_rng(13), s, energy=s.gamma)
        gen = np.random.default_rng(seed)
        want = []
        for _ in range(trials):
            real = simulate_training(p, s, gen)
            want.append(np.linalg.norm(mmse_estimate(real.yrx, p, s) - real.h) ** 2)
        mse, errs = mmse_squared_errors(p, s, trials, seed)
        npt.assert_allclose(errs, want, rtol=1e-12)
        assert mse == channel_mse_lemma(p, s)

    def test_more_trials_extend_fewer(self):
        # a call draws the first rows of a longer call's stream, whether or
        # not it ends inside a block
        s = build_scenario(2, 3, 4, rho_rt=0.5 + 0.3j, rho_mt=0.1 - 0.6j)
        p = random_pilot(np.random.default_rng(6), s, energy=s.gamma)
        _, errs = mmse_squared_errors(p, s, 2 * _TRIAL_BLOCK - 19, 5)
        for n1 in (1, _TRIAL_BLOCK, _TRIAL_BLOCK + 5):
            _, first = mmse_squared_errors(p, s, n1, 5)
            npt.assert_allclose(first, errs[:n1], rtol=1e-13)

    def test_peak_memory_on_kron_scenario(self):
        # the benchmark's 8x8, B = 64 link: the complex error map is 1.2 MB
        # and a block of 64 white draws 0.6 MB, with no second copy of the map
        s = build_scenario(8, 8, 64)
        p = random_pilot(np.random.default_rng(4), s, energy=s.gamma)
        mmse_squared_errors(p, s, _TRIAL_BLOCK, 0)
        tracemalloc.start()
        try:
            mmse_squared_errors(p, s, _TRIAL_BLOCK, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_pilot_shape_checked(self):
        s = build_scenario(2, 2, 4)
        with pytest.raises(ValueError):
            mmse_squared_errors(np.ones((3, 2)), s, 1, 0)


def test_setup_does_not_import_numpy_random():
    # Building the scenarios needs no generator; numpy.random loads on the
    # first draw (and costs about 13 ms of a set-up).
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import numpy\n"
        "bare = 'numpy.random' in sys.modules\n"
        "import zczpilot\n"
        "from zczpilot.config import load_config\n"
        "from zczpilot.covariance import reciprocal_scenario\n"
        "reciprocal_scenario(load_config(sys.argv[2]).downlink())\n"
        "print(bare, 'numpy.random' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(REFERENCE_CONFIG)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    bare, loaded = out.stdout.split()
    if bare == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert loaded == "False"
