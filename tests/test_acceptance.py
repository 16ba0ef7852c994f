"""Acceptance suite: one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured numbers
(straight to the terminal, bypassing capture) and then asserts, so a red
run still shows every measurement.
"""

import csv
import json
import re
import time

import numpy as np
import pytest

from oracles import build_Q, channel_mse_direct, mm_model as _mm_model, surrogate_F
from zczpilot.analysis import correlation_report, empirical_mse
from zczpilot.archive import without_timestamp
from zczpilot.cli import main
from zczpilot.covariance import ChannelScenario, build_scenario, reciprocal_scenario
from zczpilot.designer import (
    DesignConfig,
    build_sigma_target,
    design_pilots,
    shift_matrix,
    x_step,
    y_step,
)
from zczpilot.estimation import channel_mse_lemma, optimal_V

# Tolerance the projections are held to on re-projection of their own
# output (criterion 7 allows twice it).
INNER_TOL = 1e-8


def announce(capsys, ok, criterion, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_scenario(rng, n_t, n_r, b):
    def rho():
        return rng.uniform(0.0, 0.95) * np.exp(1j * np.pi * rng.uniform(-1, 1))

    return build_scenario(
        n_t, n_r, b,
        rho_rt=rho(), rho_rr=rho(), rho_mt=rho(),
        gamma=float(rng.uniform(0.5, 40.0)),
    )


def test_criterion_1_sensing_range(tmp_path, capsys):
    cfg = tmp_path / "timing.ini"
    cfg.write_text(
        "[timing]\n"
        "d_user_m = 25000\n"
        "symbol_time_s = 25e-6\n"
        "processing_symbols = 1\n"
    )
    assert main(["range", "--config", str(cfg), "--format", "json"]) == 0
    values = json.loads(capsys.readouterr().out)
    got = values["max_object_range_m"]
    rel = abs(got - 43_750.0) / 43_750.0
    ok = rel <= 1e-12
    announce(capsys, ok, 1, f"range command reports {got} m (rel err {rel:.2e})")
    assert ok


def test_criterion_2_mse_identities(capsys):
    rng = np.random.default_rng(20)
    worst_lemma = worst_f = worst_schur = 0.0
    count = 0
    for n_t in (1, 2, 4):
        for n_r in (1, 2, 4):
            for b in (2, 4, 8):
                for _ in range(4):
                    s = random_scenario(rng, n_t, n_r, b)
                    p = crandn(rng, b, n_t)
                    mse_direct = channel_mse_direct(p, s)
                    mse_lemma = channel_mse_lemma(p, s)
                    worst_lemma = max(
                        worst_lemma, abs(mse_direct - mse_lemma) / mse_lemma
                    )

                    v = optimal_V(p, s)
                    worst_f = max(
                        worst_f, abs(surrogate_F(v, p, s) - mse_lemma) / mse_lemma
                    )

                    q = build_Q(p, s)
                    n = n_t * n_r
                    u = np.zeros((q.shape[0], n))
                    u[:n, :n] = np.eye(n)
                    inner = u.conj().T @ np.linalg.inv(q) @ u
                    schur = float(np.real(np.trace(np.linalg.inv(inner))))
                    worst_schur = max(
                        worst_schur, abs(schur - mse_lemma) / mse_lemma
                    )
                    count += 1
    ok = count >= 100 and worst_lemma <= 1e-8 and worst_f <= 1e-8 and worst_schur <= 1e-7
    announce(
        capsys, ok, 2,
        f"{count} instances; rel err lemma {worst_lemma:.2e} (<=1e-8), "
        f"F(V*) {worst_f:.2e} (<=1e-8), Schur {worst_schur:.2e} (<=1e-7)",
    )
    assert ok


def test_criterion_3_scalar_closed_form(capsys):
    worst = 0.0
    for gamma in (0.1, 1.0, 10.0):
        s = ChannelScenario(
            r_tx=np.eye(1), r_rx=np.eye(1), m_time=np.eye(1), m_rx=np.eye(1),
            gamma=gamma,
        )
        p = np.array([[np.sqrt(gamma)]], dtype=complex)
        want = 1.0 / (1.0 + gamma)
        for form in (channel_mse_direct, channel_mse_lemma):
            worst = max(worst, abs(form(p, s) - want))
    ok = worst <= 1e-12
    announce(capsys, ok, 3, f"MSE = 1/(1+gamma), max abs err {worst:.2e} (<=1e-12)")
    assert ok


def test_criterion_4_empirical_validation(capsys):
    s = build_scenario(2, 2, 4)
    rng = np.random.default_rng(4)
    p = crandn(rng, 4, 2)
    p *= np.sqrt(s.gamma) / np.linalg.norm(p)
    analytic = channel_mse_lemma(p, s)
    emp = empirical_mse(p, s, trials=10_000, seed=44)
    gap = abs(emp.mean - analytic)
    rel = gap / analytic
    ok = gap <= 3.0 * emp.stderr and rel <= 0.02
    announce(
        capsys, ok, 4,
        f"empirical {emp.mean:.6f} vs analytic {analytic:.6f}: "
        f"|gap| {gap:.2e} <= 3*stderr {3 * emp.stderr:.2e}, rel {rel:.4f} <= 0.02",
    )
    assert ok


@pytest.fixture(scope="module")
def reference_runs():
    dl = build_scenario(4, 4, 8)
    ul = reciprocal_scenario(dl)
    cfg = DesignConfig(k=4, epsilon=1e-5, eta=1e-5)
    runs = []
    t0 = time.perf_counter()
    for seed in range(50):
        pair, trace = design_pilots(
            dl, ul, DesignConfig(k=4, epsilon=1e-5, eta=1e-5, seed=seed)
        )
        runs.append((pair, trace))
    elapsed = time.perf_counter() - t0
    return runs, elapsed, cfg


def test_criterion_5a_monotone_trace(reference_runs, capsys):
    runs, elapsed, _ = reference_runs
    worst_step = -np.inf
    for _, trace in runs:
        worst_step = max(worst_step, float(np.diff(trace.mse).max()))
    ok = worst_step <= 1e-6 and elapsed < 300.0
    announce(
        capsys, ok, "5a",
        f"50 seeds in {elapsed:.0f} s (<300); worst MSE increase per outer "
        f"step {worst_step:.2e} (<=1e-6)",
    )
    assert ok


def test_criterion_5b_cross_correlation_zone(reference_runs, capsys):
    runs, _, _ = reference_runs
    worst_ratio = 0.0
    for pair, _ in runs:
        lag0 = float(np.max(np.sum(np.abs(pair.x) ** 2, axis=0)))
        worst_ratio = max(worst_ratio, pair.max_cross_corr / lag0)
    ok = worst_ratio <= 1e-5
    announce(
        capsys, ok, "5b",
        f"max |cross-corr| / max lag-0 autocorr = {worst_ratio:.2e} (<=1e-5)",
    )
    assert ok


def test_reference_uplinks_train(reference_runs):
    # 5b holds with both links active: the row-split start gives every
    # seed a nonzero Y whose uplink MSE ends below the prior trace(R),
    # the MSE of a zero pilot
    runs, _, _ = reference_runs
    ul = reciprocal_scenario(build_scenario(4, 4, 8))
    prior = channel_mse_lemma(np.zeros((ul.b, ul.n_t)), ul)
    assert [seed for seed, (pair, trace) in enumerate(runs)
            if not (pair.y.any() and trace.mse_ul[-1] < prior)] == []


def test_criterion_5c_autocorrelation_suppression(reference_runs, capsys):
    runs, _, cfg = reference_runs
    hits = 0
    gaps = []
    for pair, _ in runs:
        rep = correlation_report(pair.x, pair.y, max_lag=cfg.k)
        zero = np.flatnonzero(rep.lags == 0)[0]
        inside = np.flatnonzero((rep.lags >= 1) & (rep.lags <= cfg.k))
        gap = float(rep.autocorr_db[:, zero].max() - rep.autocorr_db[:, inside].max())
        gaps.append(gap)
        hits += gap >= 30.0
    share = hits / len(runs)
    ok = share >= 0.8
    announce(
        capsys, ok, "5c",
        f"lag 1..{cfg.k} suppression >=30 dB on {hits}/{len(runs)} runs "
        f"({share:.0%}, need >=80%); median gap {np.median(gaps):.1f} dB, "
        f"worst {min(gaps):.1f} dB",
    )
    assert ok


def test_criterion_6_mm_descent(capsys):
    rng = np.random.default_rng(6)
    worst_descent = -np.inf
    worst_tight = 0.0
    for i in range(100):
        n_t, n_r = rng.choice([1, 2]), rng.choice([1, 2])
        b = int(rng.choice([4, 6]))
        k = int(rng.integers(0, 3))
        s = random_scenario(rng, int(n_t), int(n_r), b)
        cfg = DesignConfig(k=k, p=float(s.gamma) / s.n_t)
        y_fixed = crandn(rng, b, 1) * 0.5
        p0 = x_step(crandn(rng, b, int(n_t)), y_fixed, cfg)
        v = optimal_V(crandn(rng, b, int(n_t)), s)

        # quadratic model evaluated through its pieces must match the
        # blockwise form at p0 (majorizer tightness)
        k_mat, a_mat, g = _mm_model(v, s)
        const = surrogate_F(v, np.zeros_like(p0), s)
        quad = (
            const
            + 2.0 * np.real(np.sum(p0.conj() * g))
            + np.real(np.sum(p0.conj() * (k_mat @ p0 @ a_mat)))
        )
        f0 = surrogate_F(v, p0, s)
        worst_tight = max(worst_tight, abs(quad - f0) / max(1.0, abs(f0)))

        p_sigma = build_sigma_target(v, p0, s)
        p1 = x_step(p_sigma, y_fixed, cfg)
        worst_descent = max(worst_descent, surrogate_F(v, p1, s) - f0)
    ok = worst_descent <= 1e-8 and worst_tight <= 1e-9
    announce(
        capsys, ok, 6,
        f"100 instances; worst F increase {worst_descent:.2e} (<=1e-8), "
        f"majorizer mismatch {worst_tight:.2e} (<=1e-9)",
    )
    assert ok


def test_criterion_7_projection_correctness(capsys):
    rng = np.random.default_rng(7)
    worst_move = 0.0
    worst_power = -np.inf
    worst_ellipsoid = -np.inf
    worst_cross = 0.0
    cfg = DesignConfig(k=2, p=1.5)
    for _ in range(10):
        b = 7
        y = crandn(rng, b, 1) * 0.6
        x = x_step(crandn(rng, b, 2) * 2.0, y, cfg)
        worst_move = max(worst_move, np.linalg.norm(x_step(x, y, cfg) - x))
        worst_power = max(
            worst_power, float(np.real(np.sum(x.conj() * x, axis=0)).max()) - cfg.p
        )
        for m in range(1, cfg.k + 1):
            a = shift_matrix(b, m)
            a = a.T + a + 2.0 * np.eye(b)
            val = np.real(np.einsum("bq,bc,cq->q", x.conj(), a, x)).max()
            worst_ellipsoid = max(worst_ellipsoid, float(val) - 2.0 * cfg.p)
        for m in range(0, cfg.k + 1):
            worst_cross = max(
                worst_cross, float(np.abs(x.conj().T @ shift_matrix(b, m) @ y).max())
            )
        yy = y_step(crandn(rng, b, 2) * 2.0, x, cfg)
        worst_move = max(worst_move, np.linalg.norm(y_step(yy, x, cfg) - yy))

    # single-constraint closed forms
    t = crandn(rng, 5, 1)
    t *= 2.0 / np.linalg.norm(t)
    ball = y_step(t, np.zeros((5, 0)), DesignConfig(k=0, p=1.0))
    ball_err = np.linalg.norm(ball - t / 2.0)
    a = crandn(rng, 5, 1)
    t2 = crandn(rng, 5, 1)
    sub = x_step(t2, a, DesignConfig(k=0, p=100.0))
    want = t2[:, 0] - a[:, 0] * (a[:, 0].conj() @ t2[:, 0]) / np.real(
        a[:, 0].conj() @ a[:, 0]
    )
    sub_err = np.linalg.norm(sub[:, 0] - want)

    ok = (
        worst_move <= 2.0 * INNER_TOL
        and worst_power <= 1e-9
        and worst_ellipsoid <= 1e-9
        and worst_cross <= 1e-9
        and ball_err <= 1e-10
        and sub_err <= 1e-10
    )
    announce(
        capsys, ok, 7,
        f"re-projection move {worst_move:.2e} (<=2*inner_tol "
        f"{2 * INNER_TOL:.0e}); residual excess power {worst_power:.2e}, "
        f"ellipsoid {worst_ellipsoid:.2e}, cross {worst_cross:.2e}; closed "
        f"forms ball {ball_err:.2e}, subspace {sub_err:.2e} (<=1e-10)",
    )
    assert ok


def test_criterion_8_determinism(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[scenario]\nn_t = 1\nn_r = 1\nb = 4\n\n"
        "[design]\nk = 1\neta = 1e-4\nmax_outer = 300\nseed = 0\n"
    )
    pairs = []
    for tag in ("a", "b"):
        out = tmp_path / f"design_{tag}"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["montecarlo", "--config", str(cfg), "--out", str(out),
                     "--runs", "3"]) == 0
        capsys.readouterr()
        pairs.append(out)
    arch = [
        without_timestamp(json.loads((p / "pilot_archive.json").read_text()))
        for p in pairs
    ]
    traces = [(p / "design_trace.csv").read_bytes() for p in pairs]
    mc = [(p / "mc_summary.csv").read_bytes() for p in pairs]
    ok = arch[0] == arch[1] and traces[0] == traces[1] and mc[0] == mc[1]
    announce(
        capsys, ok, 8,
        "design archive (modulo created_utc), trace CSV and montecarlo CSV "
        "byte-identical across two invocations"
        if ok
        else "outputs differ between invocations",
    )
    assert ok
