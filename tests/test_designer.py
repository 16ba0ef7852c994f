"""Constrained projection steps, majorization targets, and the full
cyclic pilot design loop."""


import numpy as np
import numpy.testing as npt
import pytest

from oracles import (
    adjoint_embed,
    alternate_until_stable,
    chan_cov,
    dense_v,
    embed_pilot,
    mm_model,
    surrogate_F,
)
from test_estimation import DIM_GRID, LINALG_FACTORS, RHO_SETS, record_factor_sizes
from zczpilot.covariance import ChannelScenario, build_scenario, reciprocal_scenario
from zczpilot import designer
from zczpilot.designer import (
    SIDELOBE_DELTA,
    DegenerateConstraintWarning,
    DesignConfig,
    HeldColumnWarning,
    _cross_vectors,
    _nullspace,
    _restore_sidelobes,
    _shifted,
    _shrink_into_sets,
    build_sigma_target,
    design_pilots,
    inner_cycle,
    shift_matrix,
    x_step,
    y_step,
)
from zczpilot.estimation import channel_mse_lemma, optimal_V

# Tolerance x_step and y_step are held to on re-projection of their own
# output.
INNER_TOL = 1e-8


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def cross_residual(x, y, k, literal=False, lags_from_one=False):
    b = x.shape[0]
    xc = x if literal else x.conj()
    worst = 0.0
    for m in range(1 if lags_from_one else 0, k + 1):
        c = xc.T @ shift_matrix(b, m) @ y
        if c.size:
            worst = max(worst, float(np.abs(c).max()))
    return worst


def ellipsoid_values(x, k):
    b = x.shape[0]
    vals = []
    for m in range(1, k + 1):
        a = shift_matrix(b, m)
        a = a.T + a + 2.0 * np.eye(b)
        vals.append(np.real(np.einsum("bq,bc,cq->q", x.conj(), a, x)))
    return np.array(vals) if vals else np.zeros((0, x.shape[1]))


class TestXStep:
    def test_feasible_target_unchanged(self):
        rng = np.random.default_rng(0)
        cfg = DesignConfig(k=2, p=4.0)
        b = 6
        y = np.zeros((b, 0))
        t = 0.1 * crandn(rng, b, 2)
        out = x_step(t, y, cfg)
        assert np.linalg.norm(out - t) <= INNER_TOL

    def test_ball_only_closed_form(self):
        rng = np.random.default_rng(1)
        cfg = DesignConfig(k=0, p=2.0, lags_from_one=True)
        t = crandn(rng, 5, 3) * 3.0
        out = x_step(t, np.zeros((5, 1)), cfg)
        norms = np.sqrt(np.real(np.sum(t.conj() * t, axis=0)))
        expected = t * np.minimum(1.0, np.sqrt(cfg.p) / norms)
        npt.assert_allclose(out, expected, atol=1e-10)

    def test_single_equality_constraint_closed_form(self):
        rng = np.random.default_rng(2)
        cfg = DesignConfig(k=0, p=100.0)
        b = 6
        y = crandn(rng, b, 1)
        t = crandn(rng, b, 1)
        out = x_step(t, y, cfg)
        a = y[:, 0]
        expected = t[:, 0] - a * (a.conj() @ t[:, 0]) / np.real(a.conj() @ a)
        npt.assert_allclose(out[:, 0], expected, atol=1e-10)

    def test_literal_transpose_constraint_direction(self):
        rng = np.random.default_rng(3)
        cfg = DesignConfig(k=0, p=100.0, literal_transpose=True)
        b = 5
        y = crandn(rng, b, 1)
        out = x_step(crandn(rng, b, 2), y, cfg)
        assert np.abs(out.T @ y).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_fixed_point_and_feasibility(self, seed):
        rng = np.random.default_rng(seed)
        cfg = DesignConfig(k=3, p=1.0)
        b = 8
        y = crandn(rng, b, 1) * 0.4
        out = x_step(crandn(rng, b, 3) * 2.0, y, cfg)
        again = x_step(out, y, cfg)
        assert np.linalg.norm(again - out) <= 2.0 * INNER_TOL
        powers = np.real(np.sum(out.conj() * out, axis=0))
        assert powers.max() <= cfg.p + 1e-9
        assert ellipsoid_values(out, cfg.k).max() <= 2.0 * cfg.p + 1e-9
        assert cross_residual(out, y, cfg.k) <= 1e-10

    def test_literal_transpose_zone_with_lags(self):
        rng = np.random.default_rng(4)
        cfg = DesignConfig(k=2, p=1.5, literal_transpose=True)
        y = crandn(rng, 7, 1) * 0.7
        out = x_step(crandn(rng, 7, 2) * 2.0, y, cfg)
        assert np.abs(out.T @ y).max() <= 1e-10
        assert cross_residual(out, y, cfg.k, literal=True) <= 1e-10

    def test_degenerate_constraints_zero_with_warning(self):
        rng = np.random.default_rng(6)
        cfg = DesignConfig(k=2, p=1.0)
        b = 3
        y = crandn(rng, b, 1)
        with pytest.warns(DegenerateConstraintWarning):
            out = x_step(crandn(rng, b, 2), y, cfg)
        assert np.abs(out).max() == 0.0

    def test_lag_window_too_deep_rejected(self):
        cfg = DesignConfig(k=4, p=1.0)
        with pytest.raises(ValueError):
            x_step(np.ones((4, 1)), np.zeros((4, 0)), cfg)

    @pytest.mark.parametrize("step", [x_step, y_step], ids=["x_step", "y_step"])
    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_non_finite_power_bound_rejected(self, step, p):
        # a NaN bound used to pass through uncapped: top > nan is false
        cfg = DesignConfig(k=1)
        with pytest.raises(ValueError, match="p must be positive and finite"):
            step(3.0 * np.ones((4, 1)), np.zeros((4, 0)), cfg, p=p)


def eigen_shrink(x, k, p):
    """Shrink into the ball and ellipsoids through eigendecompositions of
    J_m + J_m^T + 2I (the reference form of _shrink_into_sets)."""
    b = x.shape[0]
    n2 = np.real(np.sum(x.conj() * x, axis=0))
    scale2 = np.where(n2 > p, p / n2, 1.0)
    for m in range(1, k + 1):
        j = shift_matrix(b, m)
        w, u = np.linalg.eigh(j + j.T + 2.0 * np.eye(b))
        val = (w[:, None] * np.abs(u.T @ x) ** 2).sum(axis=0)
        scale2 = np.minimum(scale2, np.where(val > 2.0 * p, 2.0 * p / val, 1.0))
    return x * np.sqrt(scale2)


class TestShifted:
    @pytest.mark.parametrize("back", [False, True], ids=["forward", "back"])
    @pytest.mark.parametrize("k", [0, 3, 7, 9])
    def test_matches_shift_matrices(self, k, back):
        # one slice per lag is the dense J_m x (J_m^T x with back); lags at
        # or past the training length shift every row out
        rng = np.random.default_rng(3)
        b = 8
        x = crandn(rng, b, 3)
        out = _shifted(x, k, back)
        assert out.shape == (k + 1, b, 3)
        for m in range(k + 1):
            j = shift_matrix(b, m) if m < b else np.zeros((b, b))
            npt.assert_array_equal(out[m], (j.T if back else j) @ x)


class TestShrink:
    def test_matches_eigendecomposition_form(self):
        rng = np.random.default_rng(10)
        b, k, p = 8, 4, 1.0
        x = crandn(rng, b, 12) * rng.uniform(0.1, 1.5, 12)
        out = _shrink_into_sets(x, k, p)
        assert not np.array_equal(out, x)
        npt.assert_allclose(out, eigen_shrink(x, k, p), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("literal", [False, True])
    def test_restoration_shrinks_like_eigendecomposition_form(self, literal):
        # the ellipsoids use x^H under either correlation convention
        rng = np.random.default_rng(11)
        b, k, p = 8, 4, 1.0
        cfg = DesignConfig(k=k, p=p, literal_transpose=literal)
        null = np.eye(b, dtype=complex)
        # columns restored without a power cap meet the restoration level,
        # so after rescaling the second call only shrinks them
        x, worst = _restore_sidelobes(crandn(rng, b, 8), null, 1e6, cfg)
        x = x[:, worst <= designer._RESTORE_DONE]
        assert x.shape[1] >= 4
        x *= rng.uniform(0.5, 2.0, x.shape[1]) / np.linalg.norm(x, axis=0)
        out, _ = _restore_sidelobes(x, null, p, cfg)
        assert not np.array_equal(out, x)
        npt.assert_allclose(out, eigen_shrink(x, k, p), rtol=1e-12, atol=0)


class TestYStep:
    def test_feasible_target_unchanged(self):
        rng = np.random.default_rng(0)
        cfg = DesignConfig(k=1, p=5.0)
        t = 0.2 * crandn(rng, 6, 2)
        out = y_step(t, np.zeros((6, 0)), cfg)
        assert np.linalg.norm(out - t) <= INNER_TOL

    def test_pure_ball_scaling(self):
        rng = np.random.default_rng(1)
        cfg = DesignConfig(k=0, p=1.0)
        t = crandn(rng, 5, 1)
        t *= 2.0 / np.linalg.norm(t)  # norm^2 = 4p
        out = y_step(t, np.zeros((5, 0)), cfg)
        assert np.real(np.vdot(out, out)) == pytest.approx(cfg.p, rel=1e-12)
        cos = np.abs(np.vdot(out, t)) / (np.linalg.norm(out) * np.linalg.norm(t))
        assert cos == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_cross_residual_after_projection(self, seed):
        rng = np.random.default_rng(seed)
        cfg = DesignConfig(k=1, p=2.0)
        b = 8
        x = crandn(rng, b, 2)
        out = y_step(crandn(rng, b, 2), x, cfg)
        assert cross_residual(x, out, cfg.k) <= 1e-10

    def test_fixed_point(self):
        rng = np.random.default_rng(9)
        cfg = DesignConfig(k=1, p=1.0)
        x = crandn(rng, 8, 2)
        out = y_step(crandn(rng, 8, 2) * 3.0, x, cfg)
        again = y_step(out, x, cfg)
        assert np.linalg.norm(again - out) <= 2.0 * INNER_TOL

    def test_degenerate_constraints_zero_with_warning(self):
        rng = np.random.default_rng(5)
        cfg = DesignConfig(k=3, p=1.0)
        x = crandn(rng, 4, 2)  # 8 constraint vectors in C^4
        with pytest.warns(DegenerateConstraintWarning):
            out = y_step(crandn(rng, 4, 2), x, cfg)
        assert np.abs(out).max() == 0.0


def count_calls(monkeypatch, *names):
    """Wrap the named designer functions so that each call is counted."""
    calls = dict.fromkeys(names, 0)

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(designer, name, counted(name, getattr(designer, name)))
    return calls


def record_rounds(monkeypatch):
    """Wrap designer.inner_cycle so that each call's positional arguments,
    keyword arguments and result are kept, in call order."""
    rounds = []
    cycle = designer.inner_cycle

    def recorded(*args, **kwargs):
        rounds.append((args, kwargs, cycle(*args, **kwargs)))
        return rounds[-1][2]

    monkeypatch.setattr(designer, "inner_cycle", recorded)
    return rounds


class TestInnerCycle:
    def test_jointly_feasible_targets_converge_immediately(self, monkeypatch):
        calls = count_calls(monkeypatch, "_restore_sidelobes")
        b, p = 6, 1.0
        cfg = DesignConfig(k=1, p=p)
        x_sigma = np.zeros((b, 1), dtype=complex)
        y_sigma = np.zeros((b, 1), dtype=complex)
        x_sigma[0, 0] = np.sqrt(p)
        y_sigma[4, 0] = np.sqrt(p)
        x0, y0 = np.zeros_like(x_sigma), np.zeros_like(y_sigma)
        x, y = inner_cycle(x_sigma, y_sigma, x0, y0, cfg)
        npt.assert_allclose(x, x_sigma, atol=1e-9)
        npt.assert_allclose(y, y_sigma, atol=1e-9)
        npt.assert_array_equal(x, x_step(x_sigma, y0, cfg))
        assert calls == {"_restore_sidelobes": 1}

    @pytest.mark.parametrize("seed", range(3))
    def test_objective_non_increasing_across_rounds(self, seed):
        # k = 0: both steps are exact projections, so alternating them is
        # block-coordinate descent (at k >= 1 the X step is a feasible
        # point, not the projection, and inner_cycle holds every column
        # that cannot improve)
        rng = np.random.default_rng(seed)
        cfg = DesignConfig(k=0, p=1.0)
        b = 8
        x_sigma = crandn(rng, b, 2)
        y_sigma = crandn(rng, b, 2)
        x = x_step(crandn(rng, b, 2), np.zeros((b, 0)), cfg)
        y = y_step(crandn(rng, b, 2), x, cfg)
        g_prev = np.inf
        for _ in range(6):
            x = x_step(x_sigma, y, cfg)
            y = y_step(y_sigma, x, cfg)
            g = (
                np.linalg.norm(x - x_sigma) ** 2
                + np.linalg.norm(y - y_sigma) ** 2
            )
            # the projections are exact up to INNER_TOL, so allow that slack
            assert g <= g_prev + 1e-6
            g_prev = g

    @pytest.mark.parametrize("seed", range(3))
    def test_each_block_no_farther_than_start(self, seed):
        # k = 0: each block is an exact projection; k = 2: x0 is restored
        # into the bound first, and every column of X is held no farther
        # from its target than x0's
        for k in (0, 2):
            rng = np.random.default_rng(seed)
            cfg = DesignConfig(k=k, p=1.0)
            x0 = x_step(crandn(rng, 8, 2), np.zeros((8, 0)), cfg)
            if k:
                x0, worst = _restore_sidelobes(x0, np.eye(8), cfg.p, cfg)
                assert worst.max() <= SIDELOBE_DELTA
            y0 = y_step(crandn(rng, 8, 2), x0, cfg)
            x_sigma, y_sigma = crandn(rng, 8, 2), crandn(rng, 8, 2)
            x, y = inner_cycle(x_sigma, y_sigma, x0, y0, cfg)
            assert np.linalg.norm(x - x_sigma) <= np.linalg.norm(x0 - x_sigma) + 1e-12
            assert np.linalg.norm(y - y_sigma) <= np.linalg.norm(y0 - y_sigma) + 1e-12
            assert cross_residual(x, y, cfg.k) <= 1e-12
            assert np.all(
                np.linalg.norm(x - x_sigma, axis=0)
                <= np.linalg.norm(x0 - x_sigma, axis=0) + 1e-12
            )

    def test_no_violation_is_plain_x_step(self, monkeypatch):
        # impulses have no sidelobes, and a collapsed Y leaves them in zone:
        # the restoration runs and takes no step
        calls = count_calls(monkeypatch, "_restore_sidelobes")
        cfg = DesignConfig(k=2, p=1.0)
        x_sigma = np.zeros((8, 2), dtype=complex)
        x_sigma[1, 0], x_sigma[5, 1] = 0.5, 2.0j
        y0 = np.zeros((8, 1), dtype=complex)
        y_sigma = crandn(np.random.default_rng(0), 8, 1)
        x, _ = inner_cycle(x_sigma, y_sigma, np.zeros_like(x_sigma), y0, cfg)
        npt.assert_array_equal(x, x_step(x_sigma, y0, cfg))
        assert calls == {"_restore_sidelobes": 1}

    @pytest.mark.parametrize("literal", [False, True])
    def test_restored_x_in_zone_and_bound(self, literal):
        rng = np.random.default_rng(13)
        cfg = DesignConfig(k=2, p=1.0, literal_transpose=literal)
        y0 = y_step(crandn(rng, 8, 1), np.zeros((8, 0)), cfg)
        x_sigma = crandn(rng, 8, 3) * 2.0
        assert sidelobe_ratios(x_step(x_sigma, y0, cfg), cfg.k, literal).max() > (
            SIDELOBE_DELTA
        )
        x0 = np.zeros_like(x_sigma)
        x, y = inner_cycle(x_sigma, crandn(rng, 8, 1), x0, y0, cfg)
        assert sidelobe_ratios(x, cfg.k, literal).max() <= SIDELOBE_DELTA
        assert cross_residual(x, y0, cfg.k, literal) <= 1e-12
        assert cross_residual(x, y, cfg.k, literal) <= 1e-12
        assert np.sum(np.abs(x) ** 2, axis=0).max() <= cfg.p * (1 + 1e-12)

    @pytest.mark.parametrize("k", [0, 2])
    def test_y_is_y_step_of_new_x(self, k):
        # y0 meets the zone against any X that lies in y0's zone, so it is a
        # candidate of the Y step whether or not X was restored; y0's one
        # column leaves a 5-dimensional zone, inside which the restoration
        # meets the bound, so Y is projected against a nonzero X
        rng = np.random.default_rng(14)
        cfg = DesignConfig(k=k, p=1.0)
        y0 = y_step(crandn(rng, 8, 1), np.zeros((8, 0)), cfg)
        x_sigma, y_sigma = crandn(rng, 8, 2) * 2.0, crandn(rng, 8, 1)
        x, y = inner_cycle(x_sigma, y_sigma, np.zeros_like(x_sigma), y0, cfg)
        assert np.all(np.linalg.norm(x, axis=0) > 0.1)
        npt.assert_array_equal(y, y_step(y_sigma, x, cfg))
        assert np.linalg.norm(y - y_sigma) <= np.linalg.norm(y0 - y_sigma) + 1e-12

    def test_unrestorable_columns_keep_current_value(self):
        # y0's two columns leave a 2-dimensional zone, in which the
        # restoration leaves both columns over the bound: both keep x0's
        # (zero) column under a warning, and Y is projected against that X
        rng = np.random.default_rng(14)
        cfg = DesignConfig(k=2, p=1.0)
        y0 = y_step(crandn(rng, 8, 2), np.zeros((8, 0)), cfg)
        x_sigma, y_sigma = crandn(rng, 8, 2) * 2.0, crandn(rng, 8, 2)
        x0 = np.zeros_like(x_sigma)
        with pytest.warns(RuntimeWarning, match="keeps its current value"):
            x, y = inner_cycle(x_sigma, y_sigma, x0, y0, cfg)
        npt.assert_array_equal(x, x0)
        npt.assert_array_equal(y, y_step(y_sigma, x, cfg))

    def test_one_round(self, monkeypatch):
        # one zone projection per block, and one nullspace basis per block:
        # the X step's basis is the restoration's too
        calls = count_calls(monkeypatch, "_project_zone", "_nullspace", "y_step")
        rng = np.random.default_rng(0)
        cfg = DesignConfig(k=1, p=1.0)
        y0 = np.zeros((8, 2), dtype=complex)
        x_sigma, y_sigma = crandn(rng, 8, 2), crandn(rng, 8, 2)
        x, y = inner_cycle(x_sigma, y_sigma, np.zeros_like(x_sigma), y0, cfg)
        assert calls == {"_project_zone": 2, "_nullspace": 2, "y_step": 1}
        npt.assert_array_equal(y, y_step(y_sigma, x, cfg))

        # A design: the start's round, then one per outer iteration.
        calls.update(_project_zone=0, _nullspace=0, y_step=0)
        dl = build_scenario(4, 4, 16)
        _, trace = design_pilots(
            dl, reciprocal_scenario(dl), DesignConfig(k=2, max_outer=5)
        )
        rounds = trace.outer_iterations + 1
        assert calls == {"_project_zone": 2 * rounds, "_nullspace": 2 * rounds,
                         "y_step": rounds}

    def test_farther_column_keeps_current_value(self, monkeypatch):
        # Every downlink zone projection negates column 0.  The sets are
        # symmetric, so the column stays feasible, but it ends far from its
        # target: each round holds x0's column and projects Y against the
        # held X, and the run goes on.
        project = designer._project_zone

        def negated(target, null, p, k):
            out = project(target, null, p, k)
            if k:
                out[:, 0] *= -1.0
            return out

        monkeypatch.setattr(designer, "_project_zone", negated)
        rounds = record_rounds(monkeypatch)
        dl = build_scenario(2, 2, 8)
        cfg = DesignConfig(k=2, max_outer=4)
        _, trace = design_pilots(dl, reciprocal_scenario(dl), cfg)
        assert trace.outer_iterations == 4 and trace.stop_reason == "max_outer"
        assert len(rounds) == 5
        for (x_sigma, y_sigma, x0, _, _), kwargs, (x, y) in rounds[1:]:
            npt.assert_array_equal(x[:, 0], x0[:, 0])
            npt.assert_array_equal(y, y_step(y_sigma, x, cfg, p=kwargs["p_y"]))
        assert trace.mse[-1] < trace.mse[0]
        assert np.diff(trace.mse).max() <= 0.0

    def test_restored_design_takes_one_y_step_per_round(self, monkeypatch):
        # zcz-sized (4x4, B = 16, k = 2): the restoration fires in every
        # round, and Y is still projected once per round, not again after it
        calls = count_calls(monkeypatch, "inner_cycle", "y_step", "_restore_sidelobes")
        dl = build_scenario(4, 4, 16)
        _, trace = design_pilots(
            dl, reciprocal_scenario(dl), DesignConfig(k=2, max_outer=6)
        )
        rounds = trace.outer_iterations + 1
        assert trace.outer_iterations == 6
        assert calls == dict.fromkeys(calls, rounds)

    def test_design_matches_alternation_until_stable(self, monkeypatch):
        # zcz-sized (4x4, B = 16, k = 2): both links stay active, so the
        # reference alternation runs a second, confirming round, and
        # restores X against the Y it ends with.
        dl = build_scenario(4, 4, 16)
        ul = reciprocal_scenario(dl)
        cfg = DesignConfig(k=2, max_outer=20, seed=0)
        _, one = design_pilots(dl, ul, cfg)
        calls = count_calls(monkeypatch, "x_step")
        monkeypatch.setattr(designer, "inner_cycle", alternate_until_stable)
        _, ref = design_pilots(dl, ul, cfg)
        assert calls["x_step"] > ref.outer_iterations + 1
        assert one.outer_iterations == ref.outer_iterations
        assert one.converged == ref.converged
        assert one.stop_reason == ref.stop_reason
        assert one.warnings == ref.warnings
        npt.assert_allclose(one.mse, ref.mse, rtol=1e-10, atol=0.0)


def mm_curvature(v, s):
    """(apply_t, G) of the MM quadratic: T(P) = K P A from the designer's
    factored curvature (oracles.mm_model)."""
    k, a, g = mm_model(v, s)
    return (lambda q: k @ q @ a), g


class TestSigmaTarget:
    def test_zero_v2_returns_current(self, monkeypatch):
        rng = np.random.default_rng(0)
        s = build_scenario(2, 2, 4)
        p0 = crandn(rng, 4, 2)
        v = optimal_V(np.zeros((4, 2)), s)  # v2 = 0
        assert not np.any(v[0])
        # F is constant in P: no eigenvalue problem is solved
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, None)
        out = build_sigma_target(v, p0, s)
        npt.assert_array_equal(out, p0)

    @pytest.mark.parametrize("seed", range(5))
    def test_majorizer_tight_and_dominating(self, seed):
        rng = np.random.default_rng(seed)
        s = build_scenario(2, 2, 4)
        p0 = crandn(rng, 4, 2)
        v = optimal_V(crandn(rng, 4, 2), s)
        apply_t, g = mm_curvature(v, s)
        grad = apply_t(p0) + g
        f0 = surrogate_F(v, p0, s)

        lam_true = _dense_opnorm(apply_t, (4, 2))
        lam = 1.1 * lam_true

        def majorizer(p):
            d = p - p0
            lin = 2.0 * np.real(np.sum(d.conj() * grad))
            return f0 + lin + lam * np.linalg.norm(d) ** 2

        assert majorizer(p0) == pytest.approx(f0, abs=1e-9)
        for _ in range(20):
            p = p0 + crandn(rng, 4, 2) * 10.0 ** rng.uniform(-3, 1)
            assert surrogate_F(v, p, s) <= majorizer(p) + 1e-9 * max(1.0, f0)

    def test_step_size_covers_operator_norm(self):
        rng = np.random.default_rng(7)
        s = build_scenario(2, 2, 4)
        v = optimal_V(crandn(rng, 4, 2), s)
        apply_t, _ = mm_curvature(v, s)
        lam = _step_size(v, crandn(rng, 4, 2), s)
        assert lam == pytest.approx(1.1 * _dense_opnorm(apply_t, (4, 2)), rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_projected_step_descends(self, seed):
        rng = np.random.default_rng(seed)
        s = build_scenario(2, 2, 6)
        cfg = DesignConfig(k=2, p=float(s.gamma) / s.n_t)
        y_fixed = crandn(rng, 6, 1) * 0.5
        p0 = x_step(crandn(rng, 6, 2), y_fixed, cfg)
        v = optimal_V(p0, s)
        p_sigma = build_sigma_target(v, p0, s)
        p1 = x_step(p_sigma, y_fixed, cfg)
        assert surrogate_F(v, p1, s) <= surrogate_F(v, p0, s) + 1e-8

    def test_shape_mismatch_rejected(self):
        s = build_scenario(2, 2, 4)
        v = optimal_V(np.zeros((4, 2)), s)
        with pytest.raises(ValueError):
            build_sigma_target(v, np.zeros((3, 2)), s)


def _step_size(v, p0, s):
    """The step size build_sigma_target used: P_sigma = P0 - (T(P0)+G)/lam."""
    apply_t, g = mm_curvature(v, s)
    p_sigma = build_sigma_target(v, p0, s)
    return np.linalg.norm(apply_t(p0) + g) / np.linalg.norm(p0 - p_sigma)


def _dense_opnorm(apply_t, shape):
    b, n = shape
    cols = []
    for idx in range(b * n):
        e = np.zeros(b * n)
        e[idx] = 1.0
        cols.append(apply_t(e.reshape(shape)).ravel())
    dense = np.column_stack(cols)
    return float(np.linalg.eigvalsh((dense + dense.conj().T) / 2.0)[-1])


class TestCurvatureMatrix:
    # Non-square links (n_t != n_r, b distinct from both), so that a wrong
    # index regrouping in the GEMM cannot cancel out.
    @pytest.fixture(params=["downlink", "uplink"])
    def link(self, request):
        dl = build_scenario(
            3, 2, 5, rho_rt=0.6 + 0.3j, rho_rr=-0.3 + 0.5j, rho_mt=0.2 - 0.7j
        )
        s = dl if request.param == "downlink" else reciprocal_scenario(dl)
        rng = np.random.default_rng(21)
        return s, optimal_V(crandn(rng, s.b, s.n_t), s), rng

    def test_matches_embedding_oracle(self, link):
        s, v, rng = link
        apply_t, _ = mm_curvature(v, s)
        v2 = dense_v(v, s).v2
        w2 = v2 @ v2.conj().T
        for _ in range(4):
            p = crandn(rng, s.b, s.n_t)
            want = adjoint_embed(w2 @ embed_pilot(p, s.n_r) @ chan_cov(s), s.n_r)
            npt.assert_allclose(
                apply_t(p), want, rtol=0, atol=1e-12 * np.abs(want).max()
            )

    def test_step_size_matches_dense_norm(self, link):
        # the step size is 1.1 times the exact norm of T
        s, v, rng = link
        apply_t, _ = mm_curvature(v, s)
        lam = _step_size(v, crandn(rng, s.b, s.n_t), s)
        want = 1.1 * _dense_opnorm(apply_t, (s.b, s.n_t))
        assert lam == pytest.approx(want, rel=1e-12)


def dense_mm_model(v, s):
    """The MM pieces (K, R_tx, G) from the dense V2: K from one GEMM of V2
    against R_rx V2, each regrouped as b x (n_r n), and G the block partial
    trace of V2 V1^H R."""
    v = dense_v(v, s)
    v2 = v.v2.reshape(s.b, s.n_r, -1)
    k = v2.reshape(s.b, -1) @ (s.r_rx @ v2).reshape(s.b, -1).conj().T
    g = adjoint_embed(v.v2 @ v.v1.conj().T @ chan_cov(s), s.n_r)
    return k, s.r_tx, g


def _link(n_t, n_r, b, link, rho, scale=(1.0, 1.0)):
    """A built downlink or its reciprocal uplink, with its transmit and
    receive channel factors scaled by scale."""
    s = build_scenario(n_t, n_r, b, **RHO_SETS[rho])
    if link == "uplink":
        s = reciprocal_scenario(s)
    return ChannelScenario(
        r_tx=scale[0] * s.r_tx, r_rx=scale[1] * s.r_rx, m_time=s.m_time,
        m_rx=s.m_rx, gamma=s.gamma,
    )


class TestBlockMmModel:
    """K, G and the step size of the MM target come from the factors of
    V*; the dense V2 with the block partial trace is their oracle."""

    @staticmethod
    def check(s, seed):
        rng = np.random.default_rng(seed)
        v = optimal_V(crandn(rng, s.b, s.n_t), s)
        k, a, g = mm_model(v, s)
        k_ref, a_ref, g_ref = dense_mm_model(v, s)
        npt.assert_array_equal(a, a_ref)
        for got, want in ((k, k_ref), (g, g_ref)):
            npt.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        p0 = crandn(rng, s.b, s.n_t)
        lam_ref = 1.1 * np.linalg.eigvalsh(k_ref)[-1] * np.linalg.eigvalsh(a_ref)[-1]
        want = p0 - (k_ref @ p0 @ a_ref + g_ref) / lam_ref
        got = build_sigma_target(v, p0, s)
        npt.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        assert _step_size(v, p0, s) == pytest.approx(lam_ref, rel=1e-12)

    @pytest.mark.parametrize("scale", [(1.0, 1.0), (2.5, 0.4)], ids=["unit", "scaled"])
    @pytest.mark.parametrize("rho", RHO_SETS)
    @pytest.mark.parametrize("link", ["downlink", "uplink"])
    @pytest.mark.parametrize("n_t,n_r,b", DIM_GRID)
    def test_matches_dense_oracle(self, n_t, n_r, b, link, rho, scale):
        self.check(_link(n_t, n_r, b, link, rho, scale), n_t * 100 + n_r * 10 + b)

    @pytest.mark.parametrize("link", ["downlink", "uplink"])
    def test_rank_one_receive_factor(self, link):
        # lam_i = 0 for all but one receive mode; the noise receive factor
        # is correlated, so S is not unitary
        dims = (3, 4) if link == "downlink" else (4, 3)
        s = _link(*dims, 6, link, "strong")
        rng = np.random.default_rng(4)
        u = crandn(rng, 4, 1)
        s = ChannelScenario(
            r_tx=s.r_tx, r_rx=u @ u.conj().T, m_time=s.m_time, m_rx=s.m_rx,
            gamma=s.gamma,
        )
        assert np.sum(np.abs(s.receive_eig[0]) > 1e-12) == 1
        self.check(s, 5)

    @pytest.mark.parametrize("link", ["downlink", "uplink"])
    def test_singular_transmit_factor(self, link):
        # a rank-two transmit factor: two transmit modes carry no channel,
        # so F (r_tx = F F^H) has zero columns
        s = _link(4, 3, 6, link, "strong")
        rng = np.random.default_rng(6)
        u = crandn(rng, s.n_t, 2)
        s = ChannelScenario(
            r_tx=u @ u.conj().T, r_rx=s.r_rx, m_time=s.m_time, m_rx=s.m_rx,
            gamma=s.gamma,
        )
        assert np.sum(s.transmit_eig[1] > 1e-12) == 2
        self.check(s, 7)


class TestFactorizationReuse:
    """design_pilots factors each link's Gram blocks once per iterate: the
    MSE that scores it and the V* of the next MM target come from the
    same factors."""

    @pytest.mark.parametrize("k", [0, 2])
    def test_one_factorization_per_link_and_iterate(self, k, monkeypatch):
        dl = build_scenario(2, 3, 6)
        ul = reciprocal_scenario(dl)
        factored = {dl: 0, ul: 0}
        fused = designer.mse_and_optimal_V

        def counting(p, s):
            factored[s] += 1
            return fused(p, s)

        restored = count_calls(monkeypatch, "_restore_sidelobes")
        monkeypatch.setattr(designer, "mse_and_optimal_V", counting)
        _, trace = design_pilots(dl, ul, DesignConfig(k=k, max_outer=8, seed=0))
        assert trace.outer_iterations == 8
        # With k = 2 the start and every iteration restored X, and each
        # pair was scored once (no extra trial factorings).
        rounds = trace.outer_iterations + 1
        assert restored["_restore_sidelobes"] == (rounds if k else 0)
        assert list(factored.values()) == [rounds] * 2

    def test_per_iterate_factors_are_n_t_sized(self, monkeypatch):
        # An 8x8, B = 64, k = 0 design: past the zone's nullspace SVD, every
        # numpy.linalg call of an iterate is on an n_t x n_t matrix, and the
        # B-sized ones (m_time's Cholesky factor and its inverse) are made
        # once per scenario, so three iterations make no more of them than
        # one.
        names = tuple(name for name in LINALG_FACTORS if name != "svd")
        b_sized = []
        for max_outer in (1, 3):
            dl = build_scenario(8, 8, 64)
            ul = reciprocal_scenario(dl)
            sizes = record_factor_sizes(monkeypatch, names)
            cfg = DesignConfig(k=0, eta=1e-12, max_outer=max_outer)
            _, trace = design_pilots(dl, ul, cfg)
            monkeypatch.undo()
            assert trace.outer_iterations == max_outer
            assert sizes.count(8) >= 4 * (max_outer + 1)
            b_sized.append([size for size in sizes if size > 8])
        assert b_sized[0] == b_sized[1] == [64] * 4


class TestDesignPilots:
    def test_unconstrained_improves_on_initialization(self):
        dl = build_scenario(4, 4, 8)
        ul = reciprocal_scenario(dl)
        cfg = DesignConfig(k=0, p=1e6, max_outer=30, seed=1)
        _, trace = design_pilots(dl, ul, cfg)
        assert trace.mse[-1] < trace.mse[0]

    def test_trace_non_increasing(self):
        dl = build_scenario(2, 2, 4)
        ul = reciprocal_scenario(dl)
        for k in (1, 2):
            cfg = DesignConfig(k=k, max_outer=40, seed=3)
            _, trace = design_pilots(dl, ul, cfg)
            steps = np.diff(np.asarray(trace.mse))
            assert steps.max() <= 1e-6

    @pytest.mark.parametrize("k", [0, 1])
    def test_per_link_mse_adds_to_total(self, k):
        dl = build_scenario(2, 3, 6)
        ul = reciprocal_scenario(dl)
        pair, trace = design_pilots(dl, ul, DesignConfig(k=k, max_outer=5, seed=2))
        assert len(trace.mse_dl) == len(trace.mse_ul) == len(trace.mse)
        for total, down, up in zip(trace.mse, trace.mse_dl, trace.mse_ul):
            assert down > 0.0 and up > 0.0
            assert down + up == pytest.approx(total, rel=1e-15)
        # the returned pair is the last iterate; its links are not swapped
        for got, p, s in ((trace.mse_dl, pair.x, dl), (trace.mse_ul, pair.y, ul)):
            assert got[-1] == pytest.approx(channel_mse_lemma(p, s), rel=1e-14)

    def test_seed_determinism_bitwise(self):
        dl = build_scenario(2, 2, 4)
        ul = reciprocal_scenario(dl)
        cfg = DesignConfig(k=1, max_outer=10, seed=11)
        a, trace_a = design_pilots(dl, ul, cfg)
        b, trace_b = design_pilots(dl, ul, cfg)
        npt.assert_array_equal(a.x, b.x)
        npt.assert_array_equal(a.y, b.y)
        assert trace_a.mse == trace_b.mse

    def test_exit_feasibility_residuals(self):
        dl = build_scenario(2, 2, 4)
        ul = reciprocal_scenario(dl)
        cfg = DesignConfig(k=1, max_outer=25, seed=5)
        pair, _ = design_pilots(dl, ul, cfg)
        p_x = dl.gamma / dl.n_t
        assert pair.max_column_power <= p_x + 1e-9
        assert pair.max_cross_corr <= cfg.epsilon
        assert ellipsoid_values(pair.x, cfg.k).max() <= 2.0 * p_x + 1e-9

    def test_residuals_match_analysis_report(self):
        from zczpilot.analysis import correlation_report

        dl = build_scenario(2, 2, 4)
        ul = reciprocal_scenario(dl)
        cfg = DesignConfig(k=1, max_outer=15, seed=2)
        pair, _ = design_pilots(dl, ul, cfg)
        rep = correlation_report(pair.x, pair.y, max_lag=dl.b - 1)
        lag_index = {lag: j for j, lag in enumerate(rep.lags)}
        cross_lags = [lag_index[m] for m in range(0, cfg.k + 1)]
        report_cross = np.abs(rep.crosscorr[:, :, cross_lags]).max()
        auto_lags = [lag_index[m] for m in range(1, cfg.k + 1)]
        report_auto = np.abs(rep.autocorr[:, auto_lags]).max()
        assert abs(report_cross - pair.max_cross_corr) <= 1e-12
        assert abs(report_auto - pair.max_auto_corr) <= 1e-12

    def test_degenerate_uplink_recorded(self):
        dl = build_scenario(4, 4, 8)
        ul = reciprocal_scenario(dl)
        cfg = DesignConfig(k=4, max_outer=3, seed=0)
        pair, trace = design_pilots(dl, ul, cfg)
        assert np.abs(pair.y).max() == 0.0
        assert any("span" in w for w in trace.warnings)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numpy_warning_inside_design_raises(self, monkeypatch):
        # the design records its own warnings (held columns, a collapsed
        # zone) in the trace, and leaves every other one to the caller's
        # filters: an overflow must not end up as a trace string
        residuals = designer._pair_residuals

        def overflowing(x, y, cfg):
            np.exp(np.array(1e3))
            return residuals(x, y, cfg)

        monkeypatch.setattr(designer, "_pair_residuals", overflowing)
        dl = build_scenario(2, 2, 4)
        cfg = DesignConfig(k=1, max_outer=3)
        with pytest.raises(RuntimeWarning, match="overflow"):
            design_pilots(dl, reciprocal_scenario(dl), cfg)

    def test_training_length_mismatch_rejected(self):
        dl = build_scenario(2, 2, 4)
        ul = build_scenario(2, 2, 6)
        with pytest.raises(ValueError):
            design_pilots(dl, ul, DesignConfig(k=1))

    def test_lag_window_vs_training_length(self):
        dl = build_scenario(2, 2, 4)
        ul = reciprocal_scenario(dl)
        with pytest.raises(ValueError):
            design_pilots(dl, ul, DesignConfig(k=4))


class TestStopReason:
    def test_eta(self):
        dl = build_scenario(1, 1, 4)
        cfg = DesignConfig(k=1, eta=1e-4, max_outer=300)
        _, trace = design_pilots(dl, reciprocal_scenario(dl), cfg)
        assert trace.converged
        assert trace.stop_reason == "eta"
        assert trace.outer_iterations < cfg.max_outer

    def test_max_outer(self):
        dl = build_scenario(2, 2, 4)
        cfg = DesignConfig(k=1, max_outer=3, seed=3)
        _, trace = design_pilots(dl, reciprocal_scenario(dl), cfg)
        assert not trace.converged
        assert trace.stop_reason == "max_outer"
        assert trace.outer_iterations == cfg.max_outer

def sidelobe_ratios(x, k, literal=False):
    """max over lags 1..k of |r_m(x_q)| / ||x_q||^2, one value per column."""
    from zczpilot.analysis import correlation_report

    rep = correlation_report(x, x, max_lag=k, literal_transpose=literal)
    inside = (rep.lags >= 1) & (rep.lags <= k)
    return np.abs(rep.autocorr[:, inside]).max(axis=1) / np.sum(
        np.abs(x) ** 2, axis=0
    )


class TestSidelobeBound:
    @pytest.mark.parametrize(
        "n_t, b, kwargs",
        [
            (2, 6, {"k": 2, "seed": 1}),
            (1, 4, {"k": 1, "seed": 2, "eta": 1e-4}),
            (2, 5, {"k": 1, "seed": 0, "literal_transpose": True}),
            (2, 6, {"k": 2, "seed": 4, "lags_from_one": True}),
        ],
    )
    def test_returned_pair_meets_every_bound(self, n_t, b, kwargs):
        dl = build_scenario(n_t, n_t, b)
        ul = reciprocal_scenario(dl)
        cfg = DesignConfig(max_outer=30, **kwargs)
        pair, trace = design_pilots(dl, ul, cfg)
        p_x = dl.gamma / dl.n_t
        ratios = sidelobe_ratios(pair.x, cfg.k, cfg.literal_transpose)
        assert ratios.max() <= SIDELOBE_DELTA
        assert SIDELOBE_DELTA == pytest.approx(10.0 ** -1.5)
        assert pair.max_column_power <= max(p_x, ul.gamma / ul.n_t) + 1e-9
        assert ellipsoid_values(pair.x, cfg.k).max() <= 2.0 * p_x + 1e-9
        lag0 = np.sum(np.abs(pair.x) ** 2, axis=0).max()
        assert pair.max_cross_corr / lag0 <= cfg.epsilon
        assert np.diff(trace.mse).max() <= 1e-6

    def test_restoration_keeps_nullspace_and_caps_power(self):
        rng = np.random.default_rng(9)
        cfg = DesignConfig(k=2, p=2.0)
        y = crandn(rng, 8, 1)
        null = _nullspace(_cross_vectors(y, cfg, False), 8)
        x, worst = _restore_sidelobes(crandn(rng, 8, 3) * 3.0, null, cfg.p, cfg)
        assert worst.max() <= SIDELOBE_DELTA
        assert sidelobe_ratios(x, cfg.k).max() <= SIDELOBE_DELTA
        assert cross_residual(x, y, cfg.k) <= 1e-12
        assert np.sum(np.abs(x) ** 2, axis=0).max() <= cfg.p * (1 + 1e-12)
        assert ellipsoid_values(x, cfg.k).max() <= 2.0 * cfg.p * (1 + 1e-12)

    def test_k0_runs_no_restoration(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("restoration ran with k = 0")

        monkeypatch.setattr(designer, "_restore_sidelobes", fail)
        dl = build_scenario(2, 2, 4)
        design_pilots(dl, reciprocal_scenario(dl), DesignConfig(k=0, max_outer=5))

    def test_unrestorable_start_keeps_impulses(self, monkeypatch):
        # No Gauss-Newton steps: the start's random columns stay over the
        # bound, so iteration 0 holds each at its start impulse of power
        # p_x (column q at row q), with one warning per held column, and the
        # run goes on from that feasible pair.
        monkeypatch.setattr(designer, "_RESTORE_MAX_STEPS", 0)
        rounds = record_rounds(monkeypatch)
        dl = build_scenario(2, 2, 6)
        cfg = DesignConfig(k=2, max_outer=5)
        pair, trace = design_pilots(dl, reciprocal_scenario(dl), cfg)
        args, kwargs, (x, _) = rounds[0]
        x_sigma, _, x0, y0, _ = args
        impulses = np.sqrt(dl.gamma / dl.n_t) * np.eye(6, 2)
        npt.assert_array_equal(x0, impulses)
        assert not np.any(y0)
        npt.assert_array_equal(x, impulses)
        _, worst = _restore_sidelobes(
            x_step(x_sigma, y0, cfg, p=kwargs["p_x"]), np.eye(6), kwargs["p_x"], cfg
        )
        assert (worst > SIDELOBE_DELTA).all()
        with pytest.warns(RuntimeWarning, match="keeps its current value") as held:
            inner_cycle(*args, **kwargs)
        want = [
            f"column {q} keeps its current value: its sidelobe restoration "
            f"ended at residual {r:.3g} > {SIDELOBE_DELTA:.3g}"
            for q, r in enumerate(worst)
        ]
        assert [str(w.message) for w in held] == want == trace.warnings[:2]
        assert {w.category for w in held} == {HeldColumnWarning}
        assert trace.outer_iterations == 5
        assert sidelobe_ratios(pair.x, cfg.k).max() <= SIDELOBE_DELTA
        assert np.diff(trace.mse).max() <= 0.0

    def test_over_bound_restoration_holds_column(self, monkeypatch):
        # the restoration of outer iteration 1 reports column 1 over the
        # bound: that column keeps its value, a warning names it with its
        # residual, and the run goes on
        restore = designer._restore_sidelobes
        seen = []

        def over_bound(*args):
            x, worst = restore(*args)
            seen.append(x)
            if len(seen) == 2:
                worst = worst.copy()
                worst[1] = 0.04
            return x, worst

        monkeypatch.setattr(designer, "_restore_sidelobes", over_bound)
        rounds = record_rounds(monkeypatch)
        dl = build_scenario(2, 2, 6)
        _, trace = design_pilots(
            dl, reciprocal_scenario(dl), DesignConfig(k=2, max_outer=5)
        )
        assert trace.outer_iterations == 5 and trace.stop_reason == "max_outer"
        (_, _, x0, _, _), _, (x, _) = rounds[1]
        npt.assert_array_equal(x[:, 1], x0[:, 1])
        assert not np.array_equal(x[:, 0], x0[:, 0])
        (warning,) = [w for w in trace.warnings if "column 1" in w]
        assert "residual 0.04 >" in warning
        assert np.diff(trace.mse).max() <= 0.0

def restore_column_loop(x, null, k, literal):
    """Reference restoration of one column: Gauss-Newton into
    |r_m(x)| <= _RESTORE_LEVEL ||x||^2 with one least-squares solve per
    step on the lags above _RESTORE_ACTIVE, the band just below the level,
    no power cap."""
    shifts = np.stack([shift_matrix(x.size, m) for m in range(1, k + 1)])
    proj = null @ null.conj().T
    for _ in range(designer._RESTORE_MAX_STEPS):
        s = float(np.vdot(x, x).real)
        jx, jtx = shifts @ x, shifts.transpose(0, 2, 1) @ x
        h = ((x if literal else x.conj()) @ jx.T) / s
        mag = np.abs(h)
        if mag.max() <= designer._RESTORE_DONE:
            break
        act = mag > designer._RESTORE_ACTIVE
        ha, ma = h[act, None], mag[act, None]
        if literal:
            grad = ha * (jx[act] + jtx[act]).conj()
        else:
            grad = ha * jtx[act] + ha.conj() * jx[act]
        grad = proj @ ((grad - 2.0 * ma**2 * x) / (ma * s)).T
        gram = np.real(grad.conj().T @ grad)
        x = x + grad @ np.linalg.lstsq(gram, designer._RESTORE_LEVEL - ma[:, 0])[0]
    return x


class TestBatchedRestoration:
    @pytest.mark.parametrize("literal", [False, True])
    def test_matches_per_column_loop(self, literal):
        rng = np.random.default_rng(20)
        b, n = 10, 6
        cfg = DesignConfig(k=3, literal_transpose=literal)
        null = _nullspace(_cross_vectors(crandn(rng, b, 1), cfg, False), b)
        x = null @ crandn(rng, null.shape[1], n)
        out, _ = _restore_sidelobes(x, null, 1e6, cfg)
        for q in range(n):
            ref = restore_column_loop(x[:, q], null, cfg.k, literal)
            # the two sidelobe formulas round differently, so a column that
            # lands between _RESTORE_LEVEL and _RESTORE_DONE (1e-9 apart)
            # may take one more step in one of them: a move of ~1e-11 ||x||
            npt.assert_allclose(
                out[:, q], ref, rtol=0, atol=1e-9 * np.linalg.norm(ref)
            )

    @pytest.mark.parametrize("literal", [False, True])
    def test_matrix_equals_columns_alone(self, literal):
        # the Gauss-Newton steps of all violating columns are taken together;
        # no column's path may depend on the others
        rng = np.random.default_rng(21)
        b, n = 12, 8
        cfg = DesignConfig(k=3, p=2.0, literal_transpose=literal)
        y = crandn(rng, b, 1)
        null = _nullspace(_cross_vectors(y, cfg, False), b)
        assert 0 < null.shape[1] < b
        x = crandn(rng, b, n)
        assert (sidelobe_ratios(x, cfg.k, literal) > SIDELOBE_DELTA).sum() >= n - 1
        out, worst = _restore_sidelobes(x, null, cfg.p, cfg)
        assert worst.max() <= SIDELOBE_DELTA
        for q in range(n):
            col, w = _restore_sidelobes(x[:, [q]], null, cfg.p, cfg)
            npt.assert_allclose(out[:, q], col[:, 0], rtol=0, atol=1e-12)
            assert worst[q] == pytest.approx(w[0], rel=1e-12)

    def test_column_inside_bound_untouched(self):
        rng = np.random.default_rng(22)
        b = 8
        cfg = DesignConfig(k=4)
        null = np.eye(b, dtype=complex)
        inside, w = _restore_sidelobes(crandn(rng, b, 1), null, 1e6, cfg)
        assert designer._RESTORE_LEVEL < w[0] <= designer._RESTORE_DONE
        x = np.concatenate([crandn(rng, b, 2), inside, crandn(rng, b, 2)], axis=1)
        out, worst = _restore_sidelobes(x, null, 1e6, cfg)
        npt.assert_array_equal(out[:, 2], x[:, 2])
        assert worst[2] == w[0]
        others = [0, 1, 3, 4]
        assert (sidelobe_ratios(x[:, others], cfg.k) > SIDELOBE_DELTA).all()
        assert sidelobe_ratios(out[:, others], cfg.k).max() <= SIDELOBE_DELTA


    def test_lags_near_the_level_do_not_chatter(self, monkeypatch):
        # A column that the zone projection of a reference design (4x4,
        # B = 8, k = 4, Y = 0) left over the bound.  Two of its lags end
        # near the level; counted active only above it, they took turns for
        # 24 Gauss-Newton steps.  Held at the level from the band below it,
        # the column is restored in 3.
        x = np.array([
            -0.01213659947260193 - 0.013723344975859907j,
            0.6055663092296809 - 0.04856712114422433j,
            -0.7902238413083693 + 1.7769963809355656j,
            -0.22356750045277923 - 0.05284859409419439j,
            -0.6496840877609293 + 0.7667128570818464j,
            0.44866427838749795 + 0.844600809185992j,
            0.3117912813771073 + 0.004222345996962205j,
            -0.42143563970910275 - 1.1836715853966517j,
        ])[:, None]
        cfg = DesignConfig(k=4)
        steps = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(
            np.linalg, "pinv", lambda a: steps.append(a.shape[0]) or pinv(a)
        )
        _, worst = _restore_sidelobes(x, np.eye(8), 8.0, cfg)
        assert worst[0] <= designer._RESTORE_DONE
        assert len(steps) <= 5
        steps.clear()
        monkeypatch.setattr(designer, "_RESTORE_ACTIVE", designer._RESTORE_LEVEL)
        _restore_sidelobes(x, np.eye(8), 8.0, cfg)
        assert len(steps) >= 17


class TestDesignConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": -1},
            {"p": 0.0},
            {"p": -2.0},
            {"epsilon": 0.0},
            {"eta": 0.0},
            {"epsilon": -1.0},
            {"max_outer": 0},
            {"seed": -1},
            {"p": float("nan")},
            {"p": float("inf")},
            {"epsilon": float("nan")},
            {"eta": float("nan")},
            {"eta": float("inf")},
            {"epsilon": float("inf")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DesignConfig(**kwargs)

    def test_defaults(self):
        cfg = DesignConfig()
        assert cfg.k == 4
        assert cfg.epsilon == 1e-5
        assert cfg.eta == 1e-5
        assert cfg.max_outer == 200
        # the inner-round knobs are gone: the designer takes one round
        assert not hasattr(cfg, "inner_tol") and not hasattr(cfg, "mu")
        assert not cfg.lags_from_one
        assert not cfg.literal_transpose
