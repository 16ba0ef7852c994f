"""Correlation reporting, Monte Carlo aggregation, empirical MSE
validation, and the CSV emitters."""

import csv
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from oracles import chan_cov, embed_pilot, noise_cov
from zczpilot.analysis import (
    DB_FLOOR,
    correlation_report,
    correlation_rows,
    empirical_mse,
    monte_carlo_design,
    write_correlation_csv,
    write_montecarlo_csv,
    write_trace_csv,
)
from zczpilot.covariance import build_scenario, reciprocal_scenario
from zczpilot.designer import DesignConfig, design_pilots, shift_matrix
from zczpilot.estimation import _TRIAL_BLOCK, channel_mse_lemma, simulate_training


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestCorrelationReport:
    def test_unit_impulse_autocorrelation(self):
        x = np.zeros((4, 1), dtype=complex)
        x[0, 0] = 1.0
        rep = correlation_report(x, np.zeros((4, 1)), max_lag=3)
        zero = np.flatnonzero(rep.lags == 0)[0]
        assert rep.autocorr[0, zero] == pytest.approx(1.0)
        assert rep.autocorr_db[0, zero] == pytest.approx(0.0, abs=1e-12)
        off = np.delete(rep.autocorr[0], zero)
        npt.assert_array_equal(off, 0.0)
        assert np.all(np.delete(rep.autocorr_db[0], zero) == DB_FLOOR)

    def test_orthogonal_columns_hit_db_floor(self):
        x = np.zeros((4, 1), dtype=complex)
        y = np.zeros((4, 1), dtype=complex)
        x[0, 0] = 1.0
        y[2, 0] = 1.0
        rep = correlation_report(x, y, max_lag=0)
        assert rep.crosscorr[0, 0, 0] == 0.0
        assert rep.crosscorr_db[0, 0, 0] == DB_FLOOR

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(0)
        x = crandn(rng, 6, 2)
        y = crandn(rng, 6, 3)
        rep = correlation_report(x, y)
        assert rep.lags.tolist() == list(range(-5, 6))
        for j, lag in enumerate(rep.lags):
            jm = shift_matrix(6, int(lag))
            for q in range(2):
                want = x[:, q].conj() @ jm @ x[:, q]
                assert abs(rep.autocorr[q, j] - want) <= 1e-12
                for l in range(3):
                    want = x[:, q].conj() @ jm @ y[:, l]
                    assert abs(rep.crosscorr[q, l, j] - want) <= 1e-12

    def test_autocorrelation_conjugate_symmetry(self):
        rng = np.random.default_rng(1)
        x = crandn(rng, 8, 2)
        rep = correlation_report(x, crandn(rng, 8, 1), max_lag=7)
        npt.assert_allclose(
            rep.autocorr[:, ::-1], rep.autocorr.conj(), rtol=0, atol=1e-12
        )

    def test_zero_lag_equals_column_energy(self):
        rng = np.random.default_rng(2)
        x = crandn(rng, 5, 3)
        rep = correlation_report(x, crandn(rng, 5, 1), max_lag=0)
        npt.assert_allclose(
            rep.autocorr[:, 0],
            np.sum(np.abs(x) ** 2, axis=0),
            rtol=1e-13,
        )

    def test_literal_transpose_convention(self):
        rng = np.random.default_rng(3)
        x = crandn(rng, 5, 1)
        y = crandn(rng, 5, 1)
        rep = correlation_report(x, y, max_lag=1, literal_transpose=True)
        j1 = np.flatnonzero(rep.lags == 1)[0]
        want = x[:, 0] @ shift_matrix(5, 1) @ y[:, 0]
        assert abs(rep.crosscorr[0, 0, j1] - want) <= 1e-12
        assert rep.literal_transpose

    @pytest.mark.parametrize("bad", [-1, 4, 10])
    def test_max_lag_out_of_range(self, bad):
        x = np.zeros((4, 1), dtype=complex)
        with pytest.raises(ValueError):
            correlation_report(x, x, max_lag=bad)

    @pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(1.0)])
    def test_max_lag_must_be_an_integer(self, bad):
        # a float lag would label shifts it does not take
        x = np.zeros((4, 1), dtype=complex)
        with pytest.raises(TypeError):
            correlation_report(x, x, max_lag=bad)
        rep = correlation_report(x, x, max_lag=np.int64(2))
        npt.assert_array_equal(rep.lags, [-2, -1, 0, 1, 2])

    def test_training_length_mismatch(self):
        with pytest.raises(ValueError):
            correlation_report(np.zeros((4, 1)), np.zeros((5, 1)))


@pytest.fixture(scope="module")
def scenario():
    dl = build_scenario(2, 2, 4)
    return dl, reciprocal_scenario(dl)


class TestMonteCarlo:
    def test_single_run_matches_designer(self, scenario):
        dl, ul = scenario
        cfg = DesignConfig(k=1, max_outer=10, seed=7)
        _, trace = design_pilots(dl, ul, cfg)
        summary = monte_carlo_design(dl, ul, cfg, runs=1)
        npt.assert_array_equal(summary.mse_mean, np.asarray(trace.mse))
        npt.assert_array_equal(summary.mse_std, np.zeros(len(trace.mse)))
        assert summary.final_mse.tolist() == [trace.mse[-1]]
        assert summary.seeds == (7,)
        assert summary.converged_runs == int(trace.converged)
        assert summary.failed_runs == 0

    def test_reproducible_across_calls(self, scenario):
        dl, ul = scenario
        cfg = DesignConfig(k=1, max_outer=8, seed=0)
        a = monte_carlo_design(dl, ul, replace(cfg, seed=5), runs=3)
        b = monte_carlo_design(dl, ul, replace(cfg, seed=5), runs=3)
        npt.assert_array_equal(a.mse_mean, b.mse_mean)
        npt.assert_array_equal(a.final_mse, b.final_mse)

    def test_aggregate_shapes_and_counts(self, scenario):
        dl, ul = scenario
        cfg = DesignConfig(k=1, max_outer=15, seed=0)
        summary = monte_carlo_design(dl, ul, cfg, runs=4)
        assert summary.iterations.shape == summary.mse_mean.shape
        assert summary.mse_std.shape == summary.mse_mean.shape
        assert summary.final_mse.size == 4
        assert summary.seeds == (0, 1, 2, 3)
        assert 0 <= summary.converged_runs <= 4
        assert summary.failed_runs == 0
        assert np.all(np.isfinite(summary.mse_mean))
        assert np.all(summary.mse_std >= 0.0)

    def test_padding_with_final_value(self, scenario):
        # eta loose enough that different seeds stop at different lengths
        dl, ul = scenario
        cfg = DesignConfig(k=1, max_outer=60, eta=1e-3, seed=0)
        finals = {}
        lengths = {}
        for seed in range(4):
            _, tr = design_pilots(dl, ul, DesignConfig(k=1, max_outer=60, eta=1e-3, seed=seed))
            finals[seed] = tr.mse[-1]
            lengths[seed] = len(tr.mse)
        summary = monte_carlo_design(dl, ul, cfg, runs=4)
        assert summary.iterations.size == max(lengths.values())
        want_tail = np.mean([finals[s] for s in range(4)])
        assert summary.mse_mean[-1] == pytest.approx(want_tail, rel=1e-12)

    def test_zero_runs_rejected(self, scenario):
        dl, ul = scenario
        with pytest.raises(ValueError):
            monte_carlo_design(dl, ul, DesignConfig(k=1), runs=0)

    def test_failed_seeds_keep_their_cause(self, scenario, monkeypatch):
        import zczpilot.analysis as analysis

        def stub(dl, ul, cfg):
            if cfg.seed == 1:
                raise np.linalg.LinAlgError("singular noise receive factor")
            if cfg.seed == 2:
                raise np.linalg.LinAlgError("singular Gram")
            return design_pilots(dl, ul, cfg)

        monkeypatch.setattr(analysis, "design_pilots", stub)
        dl, ul = scenario
        summary = monte_carlo_design(dl, ul, DesignConfig(k=1, max_outer=5), runs=4)
        assert summary.failures == (
            (1, "LinAlgError", "singular noise receive factor"),
            (2, "LinAlgError", "singular Gram"),
        )
        assert summary.failed_runs == 2
        assert summary.final_mse.size == 2

    def test_seeds_across_2_63_stay_exact(self, scenario, monkeypatch):
        import zczpilot.analysis as analysis

        designed = []

        def stub(dl, ul, cfg):
            designed.append(cfg.seed)
            return design_pilots(dl, ul, cfg)

        monkeypatch.setattr(analysis, "design_pilots", stub)
        dl, ul = scenario
        cfg = DesignConfig(k=1, max_outer=5, seed=2**63 - 1)
        summary = monte_carlo_design(dl, ul, cfg, runs=3)
        seeds = (2**63 - 1, 2**63, 2**63 + 1)
        assert summary.seeds == seeds
        assert tuple(designed) == seeds

    def test_programming_error_propagates(self, scenario, monkeypatch):
        import zczpilot.analysis as analysis

        def stub(dl, ul, cfg):
            if cfg.seed == 0:
                raise np.linalg.LinAlgError("singular Gram")
            if cfg.seed == 1:
                raise TypeError("bad argument")
            return design_pilots(dl, ul, cfg)

        monkeypatch.setattr(analysis, "design_pilots", stub)
        dl, ul = scenario
        with pytest.raises(TypeError, match="bad argument"):
            monte_carlo_design(dl, ul, DesignConfig(k=1, max_outer=5), runs=3)

    def test_all_failed_names_a_cause(self, scenario, monkeypatch):
        # the first run's own exception comes back, with its chain
        import zczpilot.analysis as analysis
        raised = []

        def stub(dl, ul, cfg):
            try:
                raise ValueError(f"factor of seed {cfg.seed}")
            except ValueError as err:
                exc = np.linalg.LinAlgError(f"seed {cfg.seed} singular Gram")
                raised.append(exc)
                raise exc from err

        monkeypatch.setattr(analysis, "design_pilots", stub)
        dl, ul = scenario
        with pytest.raises(np.linalg.LinAlgError) as info:
            monte_carlo_design(dl, ul, DesignConfig(k=1), runs=2)
        assert len(raised) == 2
        assert info.value is raised[0]
        assert str(info.value) == "seed 0 singular Gram"
        assert str(info.value.__cause__) == "factor of seed 0"


class TestEmpiricalMse:
    def test_single_trial_has_no_stderr(self):
        s = build_scenario(1, 1, 2)
        p = np.ones((2, 1), dtype=complex)
        out = empirical_mse(p, s, trials=1)
        assert out.trials == 1
        assert out.stderr == 0.0
        assert not out.stderr_defined

    def test_consistent_with_analytic_value(self):
        s = build_scenario(2, 2, 4)
        rng = np.random.default_rng(0)
        p = crandn(rng, 4, 2)
        p *= np.sqrt(s.gamma) / np.linalg.norm(p)
        out = empirical_mse(p, s, trials=3000, seed=10)
        assert out.analytic == channel_mse_lemma(p, s)
        gap = abs(out.mean - out.analytic)
        assert out.stderr_defined
        assert gap <= 3.0 * out.stderr

    def test_batches_split_and_merge(self):
        s = build_scenario(1, 1, 2)
        p = np.ones((2, 1), dtype=complex)
        whole = empirical_mse(p, s, trials=40, seed=0)
        gen = np.random.default_rng(0)
        first = empirical_mse(p, s, trials=25, seed=gen)
        second = empirical_mse(p, s, trials=15, seed=gen)
        merged = (25 * first.mean + 15 * second.mean) / 40
        assert whole.mean == pytest.approx(merged, rel=1e-12)

    def test_more_pilot_energy_reduces_error(self):
        s = build_scenario(2, 2, 4)
        rng = np.random.default_rng(1)
        p = crandn(rng, 4, 2)
        low = empirical_mse(p, s, trials=500, seed=3)
        high = empirical_mse(10.0 * p, s, trials=500, seed=3)
        assert high.mean < low.mean

    def test_zero_trials_rejected(self):
        s = build_scenario(1, 1, 2)
        with pytest.raises(ValueError):
            empirical_mse(np.ones((2, 1)), s, trials=0)

    def test_batches_split_and_merge_across_block_boundary(self):
        # a Generator seed draws the next rows of its stream, so two calls
        # on one generator, the first ending inside a block, are one call
        s = build_scenario(1, 1, 2)
        p = np.ones((2, 1), dtype=complex)
        n1, n2 = _TRIAL_BLOCK + 5, 40
        whole = empirical_mse(p, s, trials=n1 + n2, seed=3)
        gen = np.random.default_rng(3)
        first = empirical_mse(p, s, trials=n1, seed=gen)
        second = empirical_mse(p, s, trials=n2, seed=gen)
        merged = (n1 * first.mean + n2 * second.mean) / (n1 + n2)
        assert whole.mean == pytest.approx(merged, rel=1e-12)

    @pytest.mark.parametrize("n_t,n_r,b", [(1, 1, 2), (2, 3, 4), (8, 8, 64)])
    def test_equals_per_trial_loop(self, n_t, n_r, b):
        s = build_scenario(
            n_t, n_r, b, rho_rt=0.5 + 0.3j, rho_rr=-0.4 + 0.2j, rho_mt=0.1 - 0.6j
        )
        rng = np.random.default_rng(b)
        p = crandn(rng, b, n_t)
        p *= np.sqrt(s.gamma) / np.linalg.norm(p)
        pt = embed_pilot(p, n_r)
        gram = noise_cov(s) + pt @ chan_cov(s) @ pt.conj().T
        estimator = chan_cov(s) @ pt.conj().T @ np.linalg.inv(gram)
        seed = 11
        gen = np.random.default_rng(seed)
        errs = []
        for _ in range(_TRIAL_BLOCK + 7):
            real = simulate_training(p, s, gen)
            h_hat = estimator @ real.yrx.reshape(-1, order="F")
            errs.append(np.linalg.norm(h_hat - real.h.reshape(-1, order="F")) ** 2)
        for trials in (1, _TRIAL_BLOCK - 1, _TRIAL_BLOCK, _TRIAL_BLOCK + 7):
            out = empirical_mse(p, s, trials=trials, seed=seed)
            want = errs[:trials]
            assert out.trials == trials
            assert out.mean == pytest.approx(np.mean(want), rel=1e-12)
            if trials > 1:
                stderr = np.std(want, ddof=1) / np.sqrt(trials)
                assert out.stderr == pytest.approx(stderr, rel=1e-10)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestCsvEmitters:
    def test_correlation_csv_layout(self, tmp_path):
        rng = np.random.default_rng(0)
        x = crandn(rng, 4, 2)
        y = crandn(rng, 4, 3)
        rep = correlation_report(x, y, max_lag=2)
        path = tmp_path / "corr.csv"
        write_correlation_csv(rep, path)
        header, rows = read_csv_rows(path)
        assert header == ["kind", "q", "l", "lag", "re", "im", "mag_db"]
        n_lags = 5
        assert len(rows) == 2 * n_lags + 2 * 3 * n_lags
        assert sum(r[0] == "auto" for r in rows) == 2 * n_lags
        auto0 = [r for r in rows if r[0] == "auto" and r[1] == "0"]
        assert [r[3] for r in auto0] == ["-2", "-1", "0", "1", "2"]
        assert all(r[2] == "" for r in rows if r[0] == "auto")

    def test_correlation_csv_round_trips_exactly(self, tmp_path):
        rng = np.random.default_rng(1)
        x = crandn(rng, 4, 1)
        y = crandn(rng, 4, 1)
        rep = correlation_report(x, y, max_lag=1)
        path = tmp_path / "corr.csv"
        write_correlation_csv(rep, path)
        _, rows = read_csv_rows(path)
        cross = {int(r[3]): complex(float(r[4]), float(r[5]))
                 for r in rows if r[0] == "cross"}
        for j, lag in enumerate(rep.lags):
            assert cross[int(lag)] == rep.crosscorr[0, 0, j]

    def test_correlation_csv_reads_back_as_rows(self, tmp_path):
        rng = np.random.default_rng(5)
        x = crandn(rng, 6, 2)
        y = crandn(rng, 6, 3)
        x[:, 1] = 0.0  # zero correlations hit the dB floor
        rep = correlation_report(x, y, max_lag=3)
        path = tmp_path / "corr.csv"
        write_correlation_csv(rep, path)
        header, csv_rows = read_csv_rows(path)
        dict_rows = correlation_rows(rep)
        assert header == list(dict_rows[0])
        assert len(csv_rows) == len(dict_rows)
        for got, want in zip(csv_rows, dict_rows):
            assert got[0] == want["kind"]
            assert int(got[1]) == want["q"]
            assert (got[2] == "") if want["l"] is None else int(got[2]) == want["l"]
            assert int(got[3]) == want["lag"]
            assert float(got[4]) == want["re"]
            assert float(got[5]) == want["im"]
            assert float(got[6]) == want["mag_db"]

    def test_correlation_csv_bytes(self, tmp_path):
        x = np.array([[1.0], [0.0]], dtype=complex)
        y = np.array([[0.0], [0.5j]])
        path = tmp_path / "corr.csv"
        write_correlation_csv(correlation_report(x, y, max_lag=1), path)
        assert path.read_bytes() == (
            b"kind,q,l,lag,re,im,mag_db\r\n"
            b"auto,0,,-1,0,0,-300\r\n"
            b"auto,0,,0,1,0,0\r\n"
            b"auto,0,,1,0,0,-300\r\n"
            b"cross,0,0,-1,0,0,-300\r\n"
            b"cross,0,0,0,0,0,-300\r\n"
            b"cross,0,0,1,0,0.5,-6.0205999132796242\r\n"
        )

    def test_montecarlo_csv(self, tmp_path):
        dl = build_scenario(2, 2, 4)
        ul = reciprocal_scenario(dl)
        summary = monte_carlo_design(dl, ul, DesignConfig(k=1, max_outer=6), runs=2)
        path = tmp_path / "mc.csv"
        write_montecarlo_csv(summary, path)
        header, rows = read_csv_rows(path)
        assert header == ["iteration", "mean_mse", "std_mse"]
        assert len(rows) == summary.iterations.size
        assert [int(r[0]) for r in rows] == list(range(len(rows)))
        assert float(rows[3][1]) == summary.mse_mean[3]

    def test_trace_csv(self, tmp_path):
        dl = build_scenario(2, 2, 4)
        ul = reciprocal_scenario(dl)
        _, trace = design_pilots(dl, ul, DesignConfig(k=1, max_outer=6, seed=1))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        header, rows = read_csv_rows(path)
        assert header == [
            "iteration", "mse", "max_cross", "max_auto", "max_power", "mse_dl", "mse_ul",
            "restore_steps",
        ]
        assert len(rows) == len(trace.mse)
        assert [int(r[7]) for r in rows] == trace.restore_steps
        assert float(rows[-1][5]) == trace.mse_dl[-1]
        assert float(rows[-1][6]) == trace.mse_ul[-1]
        assert float(rows[0][1]) == trace.mse[0]
        assert float(rows[-1][4]) == trace.max_power[-1]

    def test_rows_mirror_csv(self, tmp_path):
        rng = np.random.default_rng(2)
        x = crandn(rng, 4, 2)
        y = crandn(rng, 4, 1)
        rep = correlation_report(x, y, max_lag=2)
        path = tmp_path / "corr.csv"
        write_correlation_csv(rep, path)
        _, csv_rows = read_csv_rows(path)
        dict_rows = correlation_rows(rep)
        assert len(dict_rows) == len(csv_rows)
        for got, want in zip(dict_rows, csv_rows):
            assert got["kind"] == want[0]
            assert str(got["q"]) == want[1]
            assert ("" if got["l"] is None else str(got["l"])) == want[2]
            assert got["lag"] == int(want[3])
            assert got["re"] == float(want[4])
            assert got["mag_db"] == float(want[6])
