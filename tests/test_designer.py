"""Constrained projection steps, majorization targets, and the full
cyclic pilot design loop."""


import dataclasses
import inspect
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

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
    zone_bases,
)
from test_estimation import DIM_GRID, LINALG_FACTORS, RHO_SETS, record_factor_sizes
from zczpilot.covariance import ChannelScenario, build_scenario, reciprocal_scenario
from zczpilot import designer
from zczpilot.designer import (
    SIDELOBE_DELTA,
    DesignConfig,
    _column_power,
    _cross_vectors,
    _in_zone,
    _restore_sidelobes,
    _shifted,
    _descend,
    _start,
    _zone_basis,
    build_sigma_target,
    column_power_bound,
    design_pilots,
    inner_cycle,
    shift_matrix,
    x_step,
    y_step,
)
from zczpilot.estimation import channel_mse_lemma, mse_and_optimal_V, optimal_V

# Tolerance x_step and y_step are held to on re-projection of their own
# output.
INNER_TOL = 1e-8

# The round's note for a link whose zone is {0}.
COLLAPSED = ("{} cross-correlation constraints span the whole space; "
             "returning zero columns")


def held_note(q, residual):
    """The round's note for column q of X held over the sidelobe bound."""
    return (f"column {q} keeps its current value: its sidelobe restoration "
            f"ended at residual {residual:.3g} > {SIDELOBE_DELTA:.3g}")


def ball_cap(t, p):
    """Each column of t scaled down to power p if it is over it."""
    power = _column_power(t)
    return t * np.sqrt(np.where(power > p, p / np.maximum(power, p), 1.0))


def held(step, current, target):
    """step with each column that is farther from its target than
    current's replaced by current's."""
    far = _column_power(step - target) > _column_power(current - target)
    return np.where(far, current, step)


def uplink_step(y_sigma, y0, x, cfg, p):
    """A round's Y written out: the zone projection of y_sigma against x,
    or for k >= 1 of its move from y0 at the move's rank rule, capped to
    the ball and held against y0."""
    span = _zone_basis(x, len(y_sigma), cfg, True, cfg.k > 0)
    return held(ball_cap(_in_zone(span, y_sigma, y0 if cfg.k else None), p), y0, y_sigma)


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
        # the step returns zero columns without raising a warning; the
        # round against that Y notes the collapse as its warning
        rng = np.random.default_rng(6)
        cfg = DesignConfig(k=2, p=1.0)
        b = 3
        y = crandn(rng, b, 1)
        t = crandn(rng, b, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = x_step(t, y, cfg)
            x, _, notes, _ = inner_cycle(t, crandn(rng, b, 1), np.zeros_like(t), y, cfg)
        assert np.abs(out).max() == 0.0
        assert not x.any()
        assert notes == [COLLAPSED.format("downlink")]

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
    J_m + J_m^T + 2I (the reference form of _cap_into_sets)."""
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
        # one slice per lag is the dense J_m x; lags at or past the training
        # length shift every row out.  Back is the row-flip identity that
        # the uplink's cross vectors and the restoration use: R J_m R x =
        # J_m^T x with R the row flip
        rng = np.random.default_rng(3)
        b = 8
        x = crandn(rng, b, 3)
        out = _shifted(x[::-1], k)[:, ::-1] if back else _shifted(x, k)
        assert out.shape == (k + 1, b, 3)
        for m in range(k + 1):
            j = shift_matrix(b, m) if m < b else np.zeros((b, b))
            npt.assert_array_equal(out[m], (j.T if back else j) @ x)


class TestZoneBasis:
    @pytest.mark.parametrize("lags_from_one", [False, True])
    @pytest.mark.parametrize("literal", [False, True])
    @pytest.mark.parametrize("k", [0, 2])
    def test_projection_matches_pseudo_inverse(self, k, literal, lags_from_one):
        # t - U U^H t is (I - A A^+) t for the cross vectors A of either
        # step, on random, repeated (rank-deficient), zero and empty fixed
        # blocks; the zone collapses exactly when A has rank b, and then
        # the basis has b columns and the projection and the step give zero
        # columns, without a warning
        rng = np.random.default_rng(30)
        b = 6
        cfg = DesignConfig(k=k, literal_transpose=literal, lags_from_one=lags_from_one)
        f = crandn(rng, b, 1)
        blocks = [f, crandn(rng, b, 3), np.hstack([f, 2j * f, f]),
                  np.zeros((b, 2)), np.zeros((b, 0))]
        for fixed in blocks:
            for transpose_shift in (False, True):
                a = _cross_vectors(fixed, cfg, transpose_shift)
                rank = np.linalg.matrix_rank(a) if a.size else 0
                t = crandn(rng, b, 3)
                step = y_step if transpose_shift else x_step
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    span = _zone_basis(fixed, b, cfg, transpose_shift)
                    out = step(t, fixed, cfg, p=1e6)
                collapsed = rank == b
                assert span.shape == (b, rank)
                want = t - a @ (np.linalg.pinv(a, rcond=1e-10) @ t)
                npt.assert_allclose(_in_zone(span, t), want, rtol=0, atol=1e-12)
                if not a.any():
                    assert _in_zone(span, t) is t
                if collapsed:
                    assert not _in_zone(span, t).any()
                    assert not out.any()

    @pytest.mark.parametrize("fixed_shape", [(4, 4), (8,), (2, 8, 1)])
    @pytest.mark.parametrize(
        "step", ["x_step", "y_step", "y_step_zero_target", "inner_cycle"]
    )
    def test_fixed_block_of_another_length_rejected(self, step, fixed_shape):
        # a fixed block must be a matrix with the target's b rows; one whose
        # size merely divides by b is not re-read as b rows, and a zero
        # target is checked all the same
        rng = np.random.default_rng(31)
        cfg = DesignConfig(k=1)
        target, fixed = crandn(rng, 8, 2), crandn(rng, *fixed_shape)
        calls = {
            "x_step": lambda: x_step(target, fixed, cfg, p=1.0),
            "y_step": lambda: y_step(target, fixed, cfg, p=1.0),
            "y_step_zero_target": lambda: y_step(np.zeros((8, 2)), fixed, cfg, p=1.0),
            "inner_cycle": lambda: inner_cycle(target, target, np.zeros((8, 2)),
                                               fixed, cfg, p_x=1.0, p_y=1.0),
        }
        shape = re.escape(str(fixed_shape))
        with pytest.raises(ValueError, match=f"shape {shape} .* 8 rows"):
            calls[step]()


class TestShrink:
    def test_matches_eigendecomposition_form(self):
        rng = np.random.default_rng(10)
        b, k, p = 8, 4, 1.0
        x = crandn(rng, b, 12) * rng.uniform(0.1, 1.5, 12)
        # with no fixed columns the zone is C^b, and x_step only caps
        out = x_step(x, np.zeros((b, 0)), DesignConfig(k=k, p=p))
        assert not np.array_equal(out, x)
        npt.assert_allclose(out, eigen_shrink(x, k, p), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("literal", [False, True])
    def test_restoration_shrinks_like_eigendecomposition_form(self, literal):
        # the ellipsoids use x^H under either correlation convention
        rng = np.random.default_rng(11)
        b, k, p = 8, 4, 1.0
        span = np.zeros((b, 0), dtype=complex)
        # columns restored without a power cap meet the restoration level,
        # so after rescaling the second call only shrinks them
        x, worst, _ = _restore_sidelobes(crandn(rng, b, 8), span, 1e6, k, literal)
        x = x[:, worst <= designer._RESTORE_DONE]
        assert x.shape[1] >= 4
        x *= rng.uniform(0.5, 2.0, x.shape[1]) / np.linalg.norm(x, axis=0)
        out, _, _ = _restore_sidelobes(x, span, p, k, literal)
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
        # the step returns zero columns without raising a warning; a round
        # whose X spans C^4 with its shifts notes the collapse as its warning
        rng = np.random.default_rng(5)
        cfg = DesignConfig(k=3, p=1.0)
        x = crandn(rng, 4, 2)  # 8 constraint vectors in C^4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = y_step(crandn(rng, 4, 2), x, cfg)
        assert np.abs(out).max() == 0.0
        cfg = DesignConfig(k=1, p=1.0)
        x_sigma, y_sigma = 0.5 * crandn(rng, 4, 2), crandn(rng, 4, 1)
        x0, y0 = np.zeros_like(x_sigma), np.zeros_like(y_sigma)
        x, y, notes, _ = inner_cycle(x_sigma, y_sigma, x0, y0, cfg)
        assert _zone_basis(x, 4, cfg, True, True).shape[1] == 4
        assert not y.any()
        assert notes == [COLLAPSED.format("uplink")]
        # the note reads the zone, as the downlink's does, not the target:
        # a zero target in a zone of {0} is noted too
        assert inner_cycle(x_sigma, y0, x0, y0, cfg)[2] == [COLLAPSED.format("uplink")]

    def test_move_keeps_the_residual_current_meets(self):
        # X's two columns e0 and e0 + 1e-13 e5 give, at lags 0 and 1,
        # constraint directions e0, e1 and e5, e6, the last two at 5e-14
        # of the largest singular value: the projection of a target drops
        # them (the 1e-10 rule) and keeps the target's e5, a residual of
        # 1e-13; a k >= 1 round moves Y from a current y0 that meets the
        # zone, which keeps y0's e5 (zero) and so its residual.  The round
        # keeps X, which meets y0's zone, the bound and the ball, and Y is
        # the move, cap and hold written out.
        cfg = DesignConfig(k=1, p=10.0)
        x = np.zeros((8, 2), dtype=complex)
        x[0], x[5, 1] = 1.0, 1e-13
        y0 = np.zeros((8, 1), dtype=complex)
        y0[2] = 0.5
        y_sigma = np.zeros((8, 1), dtype=complex)
        y_sigma[2] = y_sigma[5] = 1.0
        x_new, y, notes, steps = inner_cycle(x, y_sigma, x, y0, cfg)
        assert (notes, steps) == ([], 0)
        npt.assert_array_equal(x_new, x)
        npt.assert_array_equal(y, uplink_step(y_sigma, y0, x, cfg, cfg.p))
        assert cross_residual(x, y_step(y_sigma, x, cfg), 1) == pytest.approx(
            1e-13, rel=1e-6)
        assert cross_residual(x, y, 1) <= 1e-16
        npt.assert_allclose(y[:, 0], np.eye(8)[2], rtol=0.0, atol=1e-15)
        assert np.linalg.norm(y - y_sigma) <= np.linalg.norm(y0 - y_sigma)
        with pytest.raises(ValueError, match=re.escape("shape (8, 2) does not match")):
            inner_cycle(x, y_sigma, x, np.zeros((8, 2)), cfg)

    def test_zero_target_projects_to_zero(self):
        # a zero pilot's MM target is zero (its V* is zero), and a zero
        # target projects to zero columns
        cfg = DesignConfig(k=3, p=1.0)
        x = crandn(np.random.default_rng(8), 8, 2)
        target = np.zeros((8, 3))
        out = y_step(target, x, cfg)
        assert out.dtype == np.complex128 and out.shape == (8, 3)
        assert not out.any()
        npt.assert_array_equal(out, _in_zone(_zone_basis(x, 8, cfg, True), target))
        with pytest.raises(ValueError, match="no per-column power bound"):
            y_step(target, x, DesignConfig(k=3))
        with pytest.raises(ValueError, match="smaller than the training length"):
            y_step(target, x, DesignConfig(k=8, p=1.0))


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
    """Wrap designer.inner_cycle so that each call's arguments, by name
    whether passed by position or keyword (defaults filled in), and its
    result are kept, in call order."""
    rounds = []
    cycle = designer.inner_cycle
    signature = inspect.signature(cycle)

    def recorded(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        rounds.append((bound.arguments, cycle(*args, **kwargs)))
        return rounds[-1][1]

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
        x, y, notes, _ = inner_cycle(x_sigma, y_sigma, x0, y0, cfg)
        assert notes == []
        npt.assert_allclose(x, x_sigma, atol=1e-9)
        npt.assert_allclose(y, y_sigma, atol=1e-9)
        npt.assert_array_equal(x, x_step(x_sigma, y0, cfg))
        assert calls == {"_restore_sidelobes": 2}

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
        # x0 is restored into the bound for k >= 1, and y0 lies in its
        # zone.  Each link step holds every column that ends farther from
        # its target than the current one, for both links at every k, so
        # no column of X or Y is farther, without slack.  A current column
        # that is its own target is kept, bit for bit.
        for k in (0, 1, 2):
            rng = np.random.default_rng(seed)
            cfg = DesignConfig(k=k, p=1.0)
            x0 = x_step(crandn(rng, 8, 2), np.zeros((8, 0)), cfg)
            x0, worst, _ = _restore_sidelobes(x0, np.zeros((8, 0)), cfg.p, k, False)
            assert worst.max(initial=0.0) <= SIDELOBE_DELTA
            y0 = y_step(crandn(rng, 8, 2), x0, cfg)
            x_sigma, y_sigma = crandn(rng, 8, 2), crandn(rng, 8, 2)
            x, y, _, _ = inner_cycle(x_sigma, y_sigma, x0, y0, cfg)
            assert (_column_power(x - x_sigma) <= _column_power(x0 - x_sigma)).all()
            assert (_column_power(y - y_sigma) <= _column_power(y0 - y_sigma)).all()
            assert cross_residual(x, y, cfg.k) <= 1e-12
            x0[:, 1], y0[:, 1] = x_sigma[:, 1], y_sigma[:, 1]
            x, y, _, _ = inner_cycle(x_sigma, y_sigma, x0, y0, cfg)
            npt.assert_array_equal(x[:, 1], x_sigma[:, 1])
            npt.assert_array_equal(y[:, 1], y_sigma[:, 1])

    def test_one_dimensional_zone_holds_column(self):
        # every column of a one-dimensional zone is a multiple of one
        # vector, whose sidelobes no scaling changes: the restoration cannot
        # move the column, and inner_cycle holds it at x0, finite
        rng = np.random.default_rng(3)
        cfg = DesignConfig(k=6, p=1.0)
        y0 = crandn(rng, 8, 1)
        _, null = zone_bases(_cross_vectors(y0, cfg, False), 8)
        assert null.shape[1] == 1
        x0 = null * 0.5
        x, y, notes, _ = inner_cycle(crandn(rng, 8, 1), y0, x0, y0, cfg,
                                     p_x=1.0, p_y=1.0)
        (note,) = notes
        assert note.startswith("column 0 keeps its current value: ")
        npt.assert_array_equal(x, x0)
        assert np.isfinite(y).all()

    def test_no_violation_is_plain_x_step(self, monkeypatch):
        # impulses have no sidelobes, and a collapsed Y leaves them in zone:
        # the restoration runs and takes no step
        calls = count_calls(monkeypatch, "_restore_sidelobes")
        cfg = DesignConfig(k=2, p=1.0)
        x_sigma = np.zeros((8, 2), dtype=complex)
        x_sigma[1, 0], x_sigma[5, 1] = 0.5, 2.0j
        y0 = np.zeros((8, 1), dtype=complex)
        y_sigma = crandn(np.random.default_rng(0), 8, 1)
        x, _, notes, _ = inner_cycle(x_sigma, y_sigma, np.zeros_like(x_sigma), y0, cfg)
        npt.assert_array_equal(x, x_step(x_sigma, y0, cfg))
        assert notes == []
        assert calls == {"_restore_sidelobes": 2}

    @pytest.mark.parametrize("x0_shape", [(8, 1), (8, 3), (4, 2), (16,)])
    def test_current_pilot_of_another_shape_rejected(self, x0_shape):
        # a held column is x0's own column: an x0 that does not match the
        # target is not broadcast into X
        rng = np.random.default_rng(32)
        cfg = DesignConfig(k=1, p=1.0)
        x_sigma, y0 = crandn(rng, 8, 2), np.zeros((8, 1))
        shapes = re.escape(f"{x0_shape} does not match its target of shape (8, 2)")
        with pytest.raises(ValueError, match=shapes):
            inner_cycle(x_sigma, x_sigma[:, :1], np.zeros(x0_shape), y0, cfg)

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
        x, y, _, _ = inner_cycle(x_sigma, crandn(rng, 8, 1), x0, y0, cfg)
        assert sidelobe_ratios(x, cfg.k, literal).max() <= SIDELOBE_DELTA
        assert cross_residual(x, y0, cfg.k, literal) <= 1e-12
        assert cross_residual(x, y, cfg.k, literal) <= 1e-12
        assert np.sum(np.abs(x) ** 2, axis=0).max() <= cfg.p * (1 + 1e-12)

    @pytest.mark.parametrize("k", [0, 2])
    def test_y_is_y_step_of_new_x(self, k):
        # y0 meets the zone against any X that lies in y0's zone, so it is a
        # candidate of the Y step whether or not X was restored; y0's one
        # column leaves a 5-dimensional zone, inside which the restoration
        # meets the bound, so Y steps against a nonzero X.  Y is the zone
        # projection, for k >= 1 of the move from y0, capped to the ball
        # and held against y0, as written out in uplink_step.
        rng = np.random.default_rng(14)
        cfg = DesignConfig(k=k, p=1.0)
        y0 = y_step(crandn(rng, 8, 1), np.zeros((8, 0)), cfg)
        x_sigma, y_sigma = crandn(rng, 8, 2) * 2.0, crandn(rng, 8, 1)
        x, y, notes, _ = inner_cycle(x_sigma, y_sigma, np.zeros_like(x_sigma), y0, cfg)
        assert notes == []
        assert np.all(np.linalg.norm(x, axis=0) > 0.1)
        npt.assert_array_equal(y, uplink_step(y_sigma, y0, x, cfg, cfg.p))
        assert np.linalg.norm(y - y_sigma) <= np.linalg.norm(y0 - y_sigma) + 1e-12

    def test_unrestorable_columns_keep_current_value(self):
        # y0's two columns leave a 2-dimensional zone, in which the
        # restoration leaves both columns over the bound: both keep x0's
        # (zero) column, each named with its residual in a note, and Y is
        # projected against that X
        rng = np.random.default_rng(14)
        cfg = DesignConfig(k=2, p=1.0)
        y0 = y_step(crandn(rng, 8, 2), np.zeros((8, 0)), cfg)
        x_sigma, y_sigma = crandn(rng, 8, 2) * 2.0, crandn(rng, 8, 2)
        x0 = np.zeros_like(x_sigma)
        x, y, notes, _ = inner_cycle(x_sigma, y_sigma, x0, y0, cfg)
        span = _zone_basis(y0, 8, cfg, False)
        _, worst, _ = _restore_sidelobes(x_step(x_sigma, y0, cfg), span, cfg.p, 2, False)
        assert (worst > SIDELOBE_DELTA).all()
        assert notes == [held_note(q, r) for q, r in enumerate(worst)]
        npt.assert_array_equal(x, x0)
        npt.assert_array_equal(y, y_step(y_sigma, x, cfg))

    def test_one_round(self, monkeypatch):
        # one link step per pilot, each with one zone basis, which is its
        # restoration's too; each pilot goes from its zone projection
        # straight into the restoration, whose last cap is its only one
        calls = count_calls(monkeypatch, "_link_step", "_zone_basis", "_restore_sidelobes")
        rng = np.random.default_rng(0)
        cfg = DesignConfig(k=1, p=1.0)
        y0 = np.zeros((8, 2), dtype=complex)
        x_sigma, y_sigma = crandn(rng, 8, 2), crandn(rng, 8, 2)
        x, y, _, _ = inner_cycle(x_sigma, y_sigma, np.zeros_like(x_sigma), y0, cfg)
        assert calls == dict.fromkeys(calls, 2)
        npt.assert_array_equal(y, uplink_step(y_sigma, y0, x, cfg, cfg.p))

        # A design: the start's round, then max_outer more, each an MM or
        # an extrapolation round.
        calls.update(dict.fromkeys(calls, 0))
        rounds = count_calls(monkeypatch, "inner_cycle")
        dl = build_scenario(4, 4, 16)
        design_pilots(dl, reciprocal_scenario(dl), DesignConfig(k=2, max_outer=5))
        assert rounds == {"inner_cycle": 6}
        assert calls == dict.fromkeys(calls, 12)

    def test_farther_column_keeps_current_value(self, monkeypatch):
        # Every sidelobe restoration of X (the one with lags) negates
        # column 0.  The sets are symmetric, so the column stays feasible,
        # but it ends far from its target: each round holds x0's column
        # and moves Y from y0 against the held X, and the run goes on.
        restore = designer._restore_sidelobes

        def negated(x, span, p, k, literal):
            out, worst, steps = restore(x, span, p, k, literal)
            if k:
                out[:, 0] *= -1.0
            return out, worst, steps

        monkeypatch.setattr(designer, "_restore_sidelobes", negated)
        rounds = record_rounds(monkeypatch)
        dl = build_scenario(2, 2, 8)
        cfg = DesignConfig(k=2, max_outer=4)
        _, trace = design_pilots(dl, reciprocal_scenario(dl), cfg)
        assert trace.outer_iterations == 4 and trace.stop_reason == "max_outer"
        assert len(rounds) == 5
        for args, (x, y, _, _) in rounds[1:]:
            npt.assert_array_equal(x[:, 0], args["x0"][:, 0])
            npt.assert_array_equal(y, uplink_step(args["y_sigma"], args["y0"], x, cfg,
                                                  args["p_y"]))
        assert trace.mse[-1] < trace.mse[0]
        assert np.diff(trace.mse).max() <= 0.0

    def test_restored_design_takes_one_y_step_per_round(self, monkeypatch):
        # zcz-sized (4x4, B = 16, k = 2): the restoration fires in every
        # round, and each round takes two link steps, X's and then one
        # for Y, each with one restoration, and no more after them
        calls = count_calls(monkeypatch, "inner_cycle", "_link_step", "_restore_sidelobes")
        dl = build_scenario(4, 4, 16)
        _, trace = design_pilots(
            dl, reciprocal_scenario(dl), DesignConfig(k=2, max_outer=6)
        )
        assert trace.stop_reason == "max_outer"
        assert calls == {"inner_cycle": 7, "_link_step": 14, "_restore_sidelobes": 14}

    def test_design_matches_alternation_until_stable(self, monkeypatch):
        # zcz-sized (4x4, B = 16, k = 2), from the generic (k = 0) start:
        # both links stay active, so the reference alternation runs a
        # second, confirming round, and restores X against the Y it ends
        # with.  Every round of the design, MM and extrapolation rounds
        # alike, is fed from its recorded inputs to the alternation, which
        # must give the same notes, solves and per-link MSEs.  Round by
        # round, since over a whole trace the extrapolations multiply the
        # 1e-14 differences of single rounds by alpha^2, to 4e-7.
        dl = build_scenario(4, 4, 16)
        ul = reciprocal_scenario(dl)
        cfg = DesignConfig(k=2, max_outer=20, seed=0)
        p_x, p_y = column_power_bound(cfg, dl), column_power_bound(cfg, ul)
        start = _start(dl, ul, dataclasses.replace(cfg, k=0), p_x, p_y)
        rounds = record_rounds(monkeypatch)
        _, trace = _descend(dl, ul, cfg, *start, p_x, p_y)
        monkeypatch.undo()
        assert len(rounds) == cfg.max_outer + 1 and sum(trace.extrapolated) > 0
        calls = count_calls(monkeypatch, "x_step")
        for args, (x, y, notes, steps) in rounds:
            ref_x, ref_y, ref_notes, ref_steps = alternate_until_stable(**args)
            assert (notes, steps) == (ref_notes, ref_steps)
            npt.assert_allclose(
                [channel_mse_lemma(x, dl), channel_mse_lemma(y, ul)],
                [channel_mse_lemma(ref_x, dl), channel_mse_lemma(ref_y, ul)],
                rtol=1e-10, atol=0.0)
        assert len(rounds) < calls["x_step"] <= 2 * len(rounds)


def mm_curvature(v, s):
    """(apply_t, G) of the MM quadratic: T(P) = K P A from the designer's
    factored curvature (oracles.mm_model)."""
    k, a, g = mm_model(v, s)
    return (lambda q: k @ q @ a), g


class TestSigmaTarget:
    def test_zero_v2_returns_current(self):
        rng = np.random.default_rng(0)
        s = build_scenario(2, 2, 4)
        p0 = crandn(rng, 4, 2)
        v = optimal_V(np.zeros((4, 2)), s)  # v2 = 0
        assert not np.any(v[0])
        # F is constant in P: the step's curvature norm is 0
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

        # the step build_sigma_target takes, the exact norm: the tightest
        # majorizer, which must still dominate
        lam = _dense_opnorm(apply_t, (4, 2))

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
        assert lam == pytest.approx(_dense_opnorm(apply_t, (4, 2)), rel=1e-12)

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
        # the step size is the exact norm of T
        s, v, rng = link
        apply_t, _ = mm_curvature(v, s)
        lam = _step_size(v, crandn(rng, s.b, s.n_t), s)
        want = _dense_opnorm(apply_t, (s.b, s.n_t))
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
        lam_ref = np.linalg.eigvalsh(k_ref)[-1] * np.linalg.eigvalsh(a_ref)[-1]
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

        calls = count_calls(monkeypatch, "_restore_sidelobes", "inner_cycle")
        monkeypatch.setattr(designer, "mse_and_optimal_V", counting)
        _, trace = design_pilots(dl, ul, DesignConfig(k=k, max_outer=8, seed=0))
        # Every round, the start's and each extrapolation's included, is
        # scored once (no extra trial factorings) and restores both
        # pilots, one link step each; the k >= 1 start takes one more V* per link, for its own MM
        # targets.  A rejected extrapolation is a round without a trace
        # row: for k = 2 one of the two is, and the 9 rounds give 8 rows.
        rounds = calls["inner_cycle"]
        assert rounds == 9
        assert trace.rejected_extrapolations == (1 if k else 0)
        assert len(trace.mse) + trace.rejected_extrapolations == rounds
        assert calls["_restore_sidelobes"] == 2 * rounds
        assert list(factored.values()) == [rounds + (k > 0)] * 2

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
    def test_phase_seconds(self):
        # the four phases of the loop, each summed over the run, fit in it
        dl = build_scenario(4, 4, 16)
        _, trace = design_pilots(dl, reciprocal_scenario(dl),
                                 DesignConfig(k=2, max_outer=5))
        assert list(trace.phase_seconds) == ["rounds", "targets", "scoring",
                                             "residuals"]
        assert all(sec >= 0.0 for sec in trace.phase_seconds.values())
        assert sum(trace.phase_seconds.values()) <= trace.wall_time

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
        # k = 0 with n_t = B = 4: iteration 0's X spans C^4, so the uplink
        # zone is {0}.  The reference (B = 8, k = 4) starts from the row
        # split, which gives Y rows of its own: no collapse.
        dl = build_scenario(4, 4, 4)
        ul = reciprocal_scenario(dl)
        cfg = DesignConfig(k=0, max_outer=3, seed=0)
        pair, trace = design_pilots(dl, ul, cfg)
        assert np.abs(pair.y).max() == 0.0
        assert trace.warnings == ["iteration 0: " + COLLAPSED.format("uplink")]
        dl = build_scenario(4, 4, 8, gamma=32.0)
        pair, trace = design_pilots(dl, reciprocal_scenario(dl),
                                    DesignConfig(k=4, max_outer=3, seed=0))
        assert pair.y.any() and trace.warnings == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numpy_warning_inside_design_raises(self, monkeypatch):
        # the design returns its own events (held columns, a collapsed
        # zone) as trace records and catches no warning: an overflow
        # reaches the caller's filters and must not end up as a trace string
        residuals = designer._pair_residuals

        def overflowing(x, y, cfg):
            np.exp(np.array(1e3))
            return residuals(x, y, cfg)

        monkeypatch.setattr(designer, "_pair_residuals", overflowing)
        dl = build_scenario(2, 2, 4)
        cfg = DesignConfig(k=1, max_outer=3)
        with pytest.raises(RuntimeWarning, match="overflow"):
            design_pilots(dl, reciprocal_scenario(dl), cfg)

    def test_numpy_warning_goes_on_to_the_caller(self, monkeypatch):
        # under a "default" filter the caller sees the overflow once, and
        # the trace keeps only the design's own records
        residuals = designer._pair_residuals

        def overflowing(x, y, cfg):
            np.exp(np.array(1e3))
            return residuals(x, y, cfg)

        monkeypatch.setattr(designer, "_pair_residuals", overflowing)
        dl = build_scenario(2, 2, 4)
        cfg = DesignConfig(k=1, max_outer=3)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("default")
            _, trace = design_pilots(dl, reciprocal_scenario(dl), cfg)
        assert [str(w.message) for w in shown] == ["overflow encountered in exp"]
        assert {w.category for w in shown} == {RuntimeWarning}
        assert not any("overflow" in w for w in trace.warnings)

    def test_designs_in_threads_leave_the_warning_state_alone(self):
        # four k = 0 designs with n_t = B = 4 (uplink collapse at
        # iteration 0) run in threads return what they return one at a
        # time, records included; the process's filters stay as they were,
        # and a later warning still reaches the handler that was installed
        # before them
        dl = build_scenario(4, 4, 4, gamma=32.0)
        ul = reciprocal_scenario(dl)

        def run(seed):
            cfg = DesignConfig(k=0, max_outer=30, seed=seed)
            pair, trace = design_pilots(dl, ul, cfg)
            return pair.x, pair.y, dataclasses.replace(trace, wall_time=0.0)

        serial = [run(seed) for seed in range(4)]
        interval = sys.getswitchinterval()
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            filters = list(warnings.filters)
            sys.setswitchinterval(1e-5)  # switch threads often
            try:
                with ThreadPoolExecutor(4) as pool:
                    threaded = list(pool.map(run, range(4), timeout=120))
            finally:
                sys.setswitchinterval(interval)
            assert warnings.filters == filters
            warnings.warn("after the designs")
        assert [str(w.message) for w in shown] == ["after the designs"]
        for (x, y, trace), (x_t, y_t, trace_t) in zip(serial, threaded):
            assert trace.warnings == ["iteration 0: " + COLLAPSED.format("uplink")]
            assert trace_t == trace
            npt.assert_array_equal(x_t, x)
            npt.assert_array_equal(y_t, y)

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
        # B = 1 leaves the row split no rows for Y: the start says why
        dl = build_scenario(1, 1, 1)
        with pytest.raises(ValueError, match="smaller than the training length"):
            design_pilots(dl, reciprocal_scenario(dl), DesignConfig(k=1))


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

    @pytest.mark.parametrize("scale, converged", [(0.5, True), (2.0, False)])
    def test_epsilon_bounds_residual_over_lag0(self, monkeypatch, scale, converged):
        # p = 0.25 keeps every lag-0 power <= 0.25, so a cross residual of
        # 2 epsilon lag0 is still below epsilon: only its ratio to the
        # largest lag-0 power (criterion 5b) says that it misses the bound
        residuals = designer._pair_residuals

        def forced(x, y, cfg):
            power, _, auto = residuals(x, y, cfg)
            lag0 = np.max(np.sum(np.abs(x) ** 2, axis=0))
            return power, scale * cfg.epsilon * lag0, auto

        monkeypatch.setattr(designer, "_pair_residuals", forced)
        dl = build_scenario(2, 2, 4)
        cfg = DesignConfig(k=1, p=0.25, eta=1e3, max_outer=5)
        pair, trace = design_pilots(dl, reciprocal_scenario(dl), cfg)
        assert trace.stop_reason == "eta"
        assert pair.max_cross_corr < cfg.epsilon
        assert trace.converged == converged
        assert any("exceeds epsilon" in w for w in trace.warnings) != converged

    def test_zero_x_not_converged(self, monkeypatch):
        # a zero X has no lag-0 power to hold the residual against
        monkeypatch.setattr(
            designer, "inner_cycle",
            lambda x_sigma, y_sigma, x0, y0, cfg, p_x, p_y: (0 * x0, 0 * y0, [], 0),
        )
        dl = build_scenario(2, 2, 4)
        pair, trace = design_pilots(dl, reciprocal_scenario(dl), DesignConfig(k=1))
        assert trace.stop_reason == "eta"
        assert pair.max_cross_corr == 0.0
        assert not trace.converged

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
        span = _zone_basis(y, 8, cfg, False)
        x, worst, _ = _restore_sidelobes(
            _in_zone(span, crandn(rng, 8, 3) * 3.0), span, cfg.p, 2, False
        )
        assert worst.max() <= SIDELOBE_DELTA
        assert sidelobe_ratios(x, cfg.k).max() <= SIDELOBE_DELTA
        assert cross_residual(x, y, cfg.k) <= 1e-12
        assert np.sum(np.abs(x) ** 2, axis=0).max() <= cfg.p * (1 + 1e-12)
        assert ellipsoid_values(x, cfg.k).max() <= 2.0 * cfg.p * (1 + 1e-12)

    def test_k0_runs_no_restoration(self, monkeypatch):
        # k = 0 has no lags: every restoration, X's and Y's, takes no step
        # and holds no column, and its cap is the ball's, so each pilot is
        # the zone projection of its target, capped to the ball, with the
        # hold.  On n_t = B = 4 the uplink collapses, and the rounds score
        # Y = 0.
        restore = designer._restore_sidelobes
        restored = []
        monkeypatch.setattr(designer, "_restore_sidelobes",
                            lambda *args: restored.append(restore(*args)) or restored[-1])
        rounds = record_rounds(monkeypatch)
        cfg = DesignConfig(k=0, max_outer=5)

        def projected_capped_held(x_sigma, x0, y0, p_x):
            x = ball_cap(_in_zone(_zone_basis(y0, 4, cfg, False), x_sigma), p_x)
            return held(x, x0, x_sigma)

        for n_t in (2, 4):
            restored.clear()
            rounds.clear()
            dl = build_scenario(n_t, n_t, 4)
            ul = reciprocal_scenario(dl)
            p_x, p_y = column_power_bound(cfg, dl), column_power_bound(cfg, ul)
            pair, trace = design_pilots(dl, ul, cfg)
            assert len(restored) == 2 * len(rounds) == 12
            for _, worst, steps in restored:
                assert steps == 0 and not worst.any()
            assert trace.restore_steps == [0] * 6
            assert pair.y.any() == (n_t < 4)
            for args, (x, y, *_) in rounds:
                want = projected_capped_held(args["x_sigma"], args["x0"], args["y0"], p_x)
                assert x.tobytes() == want.tobytes()
                want = uplink_step(args["y_sigma"], args["y0"], x, cfg, p_y)
                assert y.tobytes() == want.tobytes()
            # from a current X whose columns 1.. are their own targets,
            # those are held and column 0 moves from zero
            args = rounds[1][0]
            x_sigma, y0 = args["x_sigma"], args["y0"]
            x0 = x_sigma.copy()
            x0[:, 0] = 0.0
            x = inner_cycle(x_sigma, args["y_sigma"], x0, y0, cfg, p_x=p_x, p_y=p_y)[0]
            assert x.tobytes() == projected_capped_held(x_sigma, x0, y0, p_x).tobytes()
            npt.assert_array_equal(x[:, 1:], x_sigma[:, 1:])
            assert x[:, 0].any()

    def test_unrestorable_start_keeps_impulses(self, monkeypatch):
        # No Gauss-Newton steps, and random iteration-0 targets for X in
        # place of the start's own MM targets (which meet the bound): the
        # targets' zone projections stay over the bound, so iteration 0
        # holds each column at its start impulse of power p_x (column q at
        # row s_y + q = 3 + q, with its seeded phase), with one note per
        # held column, which the trace records at iteration 0, and the run
        # goes on from that feasible pair.
        monkeypatch.setattr(designer, "_RESTORE_MAX_STEPS", 0)
        rounds = record_rounds(monkeypatch)
        dl = build_scenario(2, 2, 6)
        ul = reciprocal_scenario(dl)
        cfg = DesignConfig(k=2, max_outer=5)
        p_x, p_y = column_power_bound(cfg, dl), column_power_bound(cfg, ul)
        x0, y0, _, y_sigma = _start(dl, ul, cfg, p_x, p_y)
        x_sigma = crandn(np.random.default_rng(3), 6, 2)
        pair, trace = _descend(dl, ul, cfg, x0, y0, x_sigma, y_sigma, p_x, p_y)
        args, (x, _, notes, _) = rounds[0]
        npt.assert_array_equal(args["x0"], x0)
        npt.assert_allclose(np.abs(x0), np.sqrt(p_x) * np.eye(6, 2, -3), rtol=1e-15)
        npt.assert_array_equal(x, x0)
        span = _zone_basis(y0, 6, cfg, False)
        _, worst, _ = _restore_sidelobes(_in_zone(span, x_sigma), span, p_x, 2, False)
        assert (worst > SIDELOBE_DELTA).all()
        want = [held_note(q, r) for q, r in enumerate(worst)]
        assert notes == want
        assert trace.warnings[:2] == [f"iteration 0: {note}" for note in want]
        assert trace.outer_iterations == 5
        assert sidelobe_ratios(pair.x, cfg.k).max() <= SIDELOBE_DELTA
        assert np.diff(trace.mse).max() <= 0.0

    def test_over_bound_restoration_holds_column(self, monkeypatch):
        # X's restoration (the one with lags) of outer iteration 1 reports
        # column 1 over the bound: that column keeps its value, a note
        # names it with its residual and the trace records it at iteration
        # 1, and the run goes on
        restore = designer._restore_sidelobes
        seen = []

        def over_bound(x, span, p, k, literal):
            x, worst, steps = restore(x, span, p, k, literal)
            if k:
                seen.append(x)
                if len(seen) == 2:
                    worst = worst.copy()
                    worst[1] = 0.04
            return x, worst, steps

        monkeypatch.setattr(designer, "_restore_sidelobes", over_bound)
        rounds = record_rounds(monkeypatch)
        dl = build_scenario(2, 2, 6)
        _, trace = design_pilots(
            dl, reciprocal_scenario(dl), DesignConfig(k=2, max_outer=5)
        )
        assert trace.outer_iterations == 5 and trace.stop_reason == "max_outer"
        args, (x, _, notes, _) = rounds[1]
        npt.assert_array_equal(x[:, 1], args["x0"][:, 1])
        assert not np.array_equal(x[:, 0], args["x0"][:, 0])
        assert notes == [held_note(1, 0.04)]
        (warning,) = [w for w in trace.warnings if "column 1" in w]
        assert warning == f"iteration 1: {held_note(1, 0.04)}"
        assert np.diff(trace.mse).max() <= 0.0

def restore_column_loop(x, null, k, literal):
    """Reference restoration of one column: Gauss-Newton into
    |r_m(x)| <= _RESTORE_LEVEL ||x||^2 with one least-squares solve per
    step on the lags above _RESTORE_ACTIVE, the band just below the level,
    each step cut to the column's length, no power cap."""
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
        dx = grad @ np.linalg.lstsq(gram, designer._RESTORE_LEVEL - ma[:, 0])[0]
        x = x + dx * (np.sqrt(s) / max(np.linalg.norm(dx), np.sqrt(s)))
    return x


class TestBatchedRestoration:
    @pytest.mark.parametrize("literal", [False, True])
    def test_matches_per_column_loop(self, literal):
        rng = np.random.default_rng(20)
        b, n = 10, 6
        cfg = DesignConfig(k=3, literal_transpose=literal)
        span, null = zone_bases(_cross_vectors(crandn(rng, b, 1), cfg, False), b)
        x = null @ crandn(rng, null.shape[1], n)
        out, _, _ = _restore_sidelobes(x, span, 1e6, 3, literal)
        for q in range(n):
            ref = restore_column_loop(x[:, q], null, cfg.k, literal)
            # the two sidelobe formulas and solvers round differently; here
            # every column takes the same steps in both, and they agree to
            # ~2e-12 ||x||
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
        span = _zone_basis(y, b, cfg, False)
        assert 0 < span.shape[1] < b
        x = _in_zone(span, crandn(rng, b, n))
        assert (sidelobe_ratios(x, cfg.k, literal) > SIDELOBE_DELTA).sum() >= n - 1
        out, worst, _ = _restore_sidelobes(x, span, cfg.p, 3, literal)
        assert worst.max() <= SIDELOBE_DELTA
        for q in range(n):
            col, w, _ = _restore_sidelobes(x[:, [q]], span, cfg.p, 3, literal)
            npt.assert_allclose(out[:, q], col[:, 0], rtol=0, atol=1e-12)
            assert worst[q] == pytest.approx(w[0], rel=1e-12)

    def test_column_inside_bound_untouched(self):
        rng = np.random.default_rng(22)
        b = 8
        cfg = DesignConfig(k=4)
        span = np.zeros((b, 0), dtype=complex)
        inside, w, _ = _restore_sidelobes(crandn(rng, b, 1), span, 1e6, 4, False)
        assert designer._RESTORE_LEVEL < w[0] <= designer._RESTORE_DONE
        x = np.concatenate([crandn(rng, b, 2), inside, crandn(rng, b, 2)], axis=1)
        out, worst, _ = _restore_sidelobes(x, span, 1e6, 4, False)
        npt.assert_array_equal(out[:, 2], x[:, 2])
        assert worst[2] == w[0]
        others = [0, 1, 3, 4]
        assert (sidelobe_ratios(x[:, others], cfg.k) > SIDELOBE_DELTA).all()
        assert sidelobe_ratios(out[:, others], cfg.k).max() <= SIDELOBE_DELTA


    def test_lags_near_the_level_do_not_chatter(self, monkeypatch):
        # A column that the zone projection of a reference design (4x4,
        # B = 8, k = 4, Y = 0) left over the bound.  Two of its lags end
        # near the level.  The restoration stops a tenth of the way into
        # its margin after 2 Gauss-Newton steps, each one batched solve.
        # The band shows at a stop just above the level, level * (1 +
        # 1e-9): held at the level from the band below it, the column is
        # restored in 3 steps; counted active only above it, the two lags
        # take turns for 18.
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
        steps = []
        solve = np.linalg.solve
        monkeypatch.setattr(
            np.linalg, "solve", lambda a, b: steps.append(a.shape[0]) or solve(a, b)
        )
        _, worst, count = _restore_sidelobes(x, np.zeros((8, 0)), 8.0, 4, False)
        assert worst[0] <= designer._RESTORE_DONE
        assert len(steps) == count <= 2
        monkeypatch.setattr(
            designer, "_RESTORE_DONE", designer._RESTORE_LEVEL * (1.0 + 1e-9)
        )
        steps.clear()
        _restore_sidelobes(x, np.zeros((8, 0)), 8.0, 4, False)
        assert len(steps) <= 5
        steps.clear()
        monkeypatch.setattr(designer, "_RESTORE_ACTIVE", designer._RESTORE_LEVEL)
        _restore_sidelobes(x, np.zeros((8, 0)), 8.0, 4, False)
        assert len(steps) >= 17

    def test_singular_gram_takes_a_finite_step(self):
        # [1, 1] maximizes its lag-1 sidelobe ratio (1/2): the gradient is
        # exactly zero and the Gram singular, and the step exactly zero
        x = np.ones((2, 1), dtype=complex)
        out, worst, _ = _restore_sidelobes(x, np.zeros((2, 0)), 1e6, 1, False)
        npt.assert_array_equal(out, x)
        assert worst[0] == 0.5
        # in a one-dimensional zone no step changes the ratios (they are
        # invariant under complex scaling): the columns stay finite and on
        # the zone's line, over the bound
        rng = np.random.default_rng(24)
        cfg = DesignConfig(k=6)
        span, null = zone_bases(_cross_vectors(crandn(rng, 8, 1), cfg, False), 8)
        assert null.shape[1] == 1
        x = null @ crandn(rng, 1, 3)
        out, worst, _ = _restore_sidelobes(x, span, 1e6, 6, False)
        assert np.isfinite(out).all()
        npt.assert_allclose(
            np.abs(null.conj().T @ out)[0], np.linalg.norm(out, axis=0), rtol=1e-12
        )
        npt.assert_allclose(worst, sidelobe_ratios(x, cfg.k), rtol=1e-9)
        assert (worst > SIDELOBE_DELTA).all()

    def test_steps_stay_finite_in_small_zones(self):
        # Small-integer columns in the full zone or in zones of 2-4
        # dimensions.  With steps longer than the column, four of these
        # inputs (all in 2-dimensional zones) grew a column until it
        # overflowed, with overflow and invalid-value warnings on the way.
        rng = np.random.default_rng(0)
        nonfinite = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for _ in range(1000):
                b = int(rng.integers(3, 12))
                k = int(rng.integers(1, min(4, b - 1) + 1))
                n = int(rng.integers(1, 3))
                x = rng.integers(-2, 3, (b, n)) + 1j * rng.integers(-1, 2, (b, n))
                if rng.random() < 0.5:
                    span = np.zeros((b, 0), dtype=complex)
                else:
                    d = int(rng.integers(2, min(4, b - 1) + 1))
                    vectors = rng.integers(-1, 2, (b, b - d)).astype(complex)
                    span, _ = zone_bases(vectors, b)
                out, _, _ = _restore_sidelobes(_in_zone(span, x), span, 1e6, k, False)
                nonfinite += not np.isfinite(out).all()
        assert nonfinite == 0

    @pytest.mark.parametrize("literal", [False, True])
    def test_steps_use_no_pseudo_inverse_or_svd(self, literal, monkeypatch):
        rng = np.random.default_rng(23)
        cfg = DesignConfig(k=3, literal_transpose=literal)
        span = _zone_basis(crandn(rng, 10, 1), 10, cfg, False)
        x = _in_zone(span, crandn(rng, 10, 4))
        assert (sidelobe_ratios(x, cfg.k, literal) > SIDELOBE_DELTA).any()

        def fail(*args, **kwargs):
            raise AssertionError("the restoration called pinv or svd")

        for name in ("pinv", "svd"):
            monkeypatch.setattr(np.linalg, name, fail)
        _, worst, _ = _restore_sidelobes(x, span, 1e6, 3, literal)
        assert worst.max() <= SIDELOBE_DELTA


class TestRestorationScaling:
    @pytest.mark.parametrize("literal", [False, True])
    @pytest.mark.parametrize("b, k", [(8, 2), (8, 4), (16, 2), (16, 4)])
    def test_scale_equivariant(self, b, k, literal):
        # Every Gauss-Newton step and stop reads only |h_m| = |r_m| / ||x||^2
        # and moves x by a step that scales with it, so the restoration of
        # a x is a times that of x until its last cap, which takes both to
        # one point: a cap of the zone projection before it is redundant.
        rng = np.random.default_rng(100 * b + 10 * k + literal)
        span = np.linalg.qr(crandn(rng, b, 2))[0]  # a zone of dimension b - 2
        x = _in_zone(span, crandn(rng, b, 6))
        p = 1e-6 * _column_power(x).min()  # a cap that binds on every column
        out, worst, steps = _restore_sidelobes(x, span, p, k, literal)
        assert steps >= 1
        assert (_column_power(out) <= p * (1 + 1e-12)).all()
        for a in (3.0, 1e3):
            out_a, worst_a, steps_a = _restore_sidelobes(a * x, span, p, k, literal)
            npt.assert_allclose(out_a, out, rtol=1e-12, atol=1e-12 * np.abs(out).max())
            npt.assert_allclose(worst_a, worst, rtol=1e-12)
            assert steps_a == steps


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

    @pytest.mark.parametrize("kwargs", [{"k": 2.5}, {"max_outer": 3.5}, {"k": 2.0}])
    def test_non_integer_counts_rejected(self, kwargs):
        with pytest.raises(TypeError):
            DesignConfig(**kwargs)

    def test_integer_fields_stored_as_ints(self):
        cfg = DesignConfig(k=np.int64(2), max_outer=np.uint8(7), seed=np.int32(3))
        assert (cfg.k, cfg.max_outer, cfg.seed) == (2, 7, 3)
        assert all(type(v) is int for v in (cfg.k, cfg.max_outer, cfg.seed))

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


class TestWorkloadTrajectories:
    # Seed 0 of the three benchmark workloads, built from their settings:
    # the shipped reference (4x4, B = 8, gamma = 32, k = 4), the zone that
    # keeps both links (B = 16, k = 2) and the large Kronecker case (8x8,
    # B = 64, k = 0, eta = 1e-9, max_outer = 40).  The MSE at iterations
    # 0, 1, 10 and the last, and the stop, pin each trajectory; a change
    # that means to move one updates it here.  ref and zcz start from the
    # row split, which keeps both links active, take SQUAREM cycles and
    # stop by eta; kron (k = 0) starts from the generic impulses, takes
    # plain MM rounds and runs to max_outer.

    @pytest.mark.parametrize(
        "dims, cfg, mse, stop",
        [
            ((4, 4, 8, 32.0), DesignConfig(k=4),
             (0.03897336944197968, 0.03891525896419888, 0.03653095016902409,
              0.03595181903713524), (26, "eta")),
            ((4, 4, 16, 32.0), DesignConfig(k=2),
             (0.01603636376913512, 0.015981637728308982, 0.01239532041568558,
              0.01116339823593437), (23, "eta")),
            ((8, 8, 64, None), DesignConfig(k=0, eta=1e-9, max_outer=40),
             (0.0009709616111532183, 0.0009708714784540272,
              0.000970062078731099, 0.000967387157933936), (40, "max_outer")),
        ],
        ids=["ref-4x4-b8-k4", "zcz-4x4-b16-k2", "kron-8x8-b64-k0"],
    )
    def test_seed_zero(self, dims, cfg, mse, stop):
        n_t, n_r, b, gamma = dims
        dl = build_scenario(n_t, n_r, b, gamma=gamma)
        pair, trace = design_pilots(dl, reciprocal_scenario(dl), cfg)
        assert (trace.outer_iterations, trace.stop_reason) == stop
        assert trace.converged == (stop[1] == "eta")
        assert trace.warnings == [] and pair.y.any()
        npt.assert_allclose([trace.mse[i] for i in (0, 1, 10, -1)], mse,
                            rtol=1e-9, atol=0)

    @pytest.mark.parametrize(
        "dims, cfg",
        [((4, 4, 8, 32.0), DesignConfig(k=4)), ((4, 4, 16, 32.0), DesignConfig(k=2)),
         ((8, 8, 64, None), DesignConfig(k=0, eta=1e-9, max_outer=40))],
        ids=["ref-4x4-b8-k4", "zcz-4x4-b16-k2", "kron-8x8-b64-k0"],
    )
    def test_restoration_solves_per_round(self, dims, cfg, monkeypatch):
        # The restoration stops a tenth of the way into its margin, after
        # 1.07 (ref) and 1.04 (zcz) Gauss-Newton solves per round, against
        # 0.91 and 0.88 from plain MM rounds (the extrapolation rounds
        # restore more); a stop just above the level, level * (1 + 1e-9),
        # took 1.69 and 0.96 there.  kron (k = 0) never restores.  The
        # trace's restore_steps counts the solves of the rounds it has a
        # row for, every round but a rejected extrapolation.
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(
            np.linalg, "solve", lambda a, b: solves.append(a.shape) or solve(a, b)
        )
        rounds = record_rounds(monkeypatch)
        n_t, n_r, b, gamma = dims
        dl = build_scenario(n_t, n_r, b, gamma=gamma)
        _, trace = design_pilots(dl, reciprocal_scenario(dl), cfg)
        steps = [out[3] for _, out in rounds]
        assert len(trace.restore_steps) == trace.outer_iterations + 1
        assert len(rounds) == len(trace.mse) + trace.rejected_extrapolations
        assert sum(steps) == len(solves) >= sum(trace.restore_steps)
        assert len(solves) <= (2.0 * len(rounds) if cfg.k else 0)


def split_start(dl, ul, cfg, s_y):
    """The design's k >= 1 start at any s_y and without its phases: Y's
    impulses on rows [0, s_y) and X's on rows [s_y, B), so that no lag
    m >= 0 correlates them, and iteration-0 targets that are each block's
    own MM target."""
    p_x, p_y = column_power_bound(cfg, dl), column_power_bound(cfg, ul)
    x = np.zeros((dl.b, dl.n_t), dtype=np.complex128)
    x[s_y + np.arange(dl.n_t) % (dl.b - s_y), np.arange(dl.n_t)] = np.sqrt(p_x)
    y = np.zeros((ul.b, ul.n_t), dtype=np.complex128)
    y[np.arange(ul.n_t) % s_y, np.arange(ul.n_t)] = np.sqrt(p_y)
    x_sigma = build_sigma_target(mse_and_optimal_V(x, dl)[1], x, dl)
    y_sigma = build_sigma_target(mse_and_optimal_V(y, ul)[1], y, ul)
    return x, y, x_sigma, y_sigma, p_x, p_y


class TestStartAndDescend:
    # design_pilots is _descend from _start: the start owns the seeded
    # draws and the impulse pair, and the rounds run from any feasible pair

    def test_start_is_seeded_impulses(self):
        # k >= 1, B = 4: the row split at s_y = 2, X's 3 columns on rows
        # 2, 3, 2 and Y's 3 on rows 0, 1, 0, each with a phase drawn from
        # default_rng(seed).random, X's first, and each block aimed at its
        # own MM target
        dl = build_scenario(3, 3, 4)
        ul = reciprocal_scenario(dl)
        x, y, x_sigma, y_sigma = _start(dl, ul, DesignConfig(k=1, seed=5), 0.7, 0.3)
        rng = np.random.default_rng(5)
        for block, sigma, s, p, rows in ((x, x_sigma, dl, 0.7, [2, 3, 2]),
                                         (y, y_sigma, ul, 0.3, [0, 1, 0])):
            want = np.zeros((4, 3), dtype=np.complex128)
            want[rows, [0, 1, 2]] = np.sqrt(p) * np.exp(2j * np.pi * rng.random(3))
            npt.assert_allclose(block, want, rtol=1e-15, atol=0.0)
            npt.assert_array_equal(
                sigma, build_sigma_target(mse_and_optimal_V(block, s)[1], block, s))
        assert x.dtype == y.dtype == np.complex128

    def test_k0_start_is_generic(self):
        # 3 columns on B = 2 rows put column 2 back on row 0; the uplink
        # has 2 columns, so a swapped draw order changes the shapes drawn
        dl = build_scenario(3, 2, 2)
        ul = reciprocal_scenario(dl)
        x, y, x_sigma, y_sigma = _start(dl, ul, DesignConfig(k=0, seed=5), 0.7, 0.3)
        rng = np.random.default_rng(5)
        draws = [rng.standard_normal(shape)
                 for shape in ((2, 3), (2, 3), (2, 2), (2, 2))]
        npt.assert_array_equal(x_sigma, draws[0] + 1j * draws[1])
        npt.assert_array_equal(y_sigma, draws[2] + 1j * draws[3])
        want = np.zeros((2, 3), dtype=np.complex128)
        want[[0, 1, 0], [0, 1, 2]] = np.sqrt(0.7)
        npt.assert_array_equal(x, want)
        npt.assert_array_equal(y, np.zeros((2, 2)))
        assert x.dtype == y.dtype == np.complex128

    @pytest.mark.parametrize("b, k, s_y", [(8, 4, 4), (16, 2, 9)],
                             ids=["ref-4x4-b8-k4", "zcz-4x4-b16-k2"])
    def test_descend_from_split_start(self, b, k, s_y):
        # ref stops by eta after 21 rounds at 0.0430 (the generic k = 0
        # start gives 1.0203 at this max_outer, its uplink collapsed); zcz
        # reaches 0.0151 in 30 rounds against the generic start's 0.0258
        dl = build_scenario(4, 4, b, gamma=32.0)
        ul = reciprocal_scenario(dl)
        cfg = DesignConfig(k=k, max_outer=30)
        start = split_start(dl, ul, cfg, s_y)
        pair, trace = _descend(dl, ul, cfg, *start)
        if b == 8:
            assert trace.stop_reason == "eta" and trace.converged
            assert trace.mse[-1] < 0.05
        else:
            generic = _start(dl, ul, dataclasses.replace(cfg, k=0), *start[-2:])
            _, from_generic = _descend(dl, ul, cfg, *generic, *start[-2:])
            assert trace.mse[-1] < from_generic.mse[-1]
        assert pair.y.any() and trace.mse_ul[-1] < 0.1
        assert len(trace.mse) == trace.outer_iterations + 1
        assert np.diff(trace.mse).max() <= 0.0
        lag0 = np.max(np.sum(np.abs(pair.x) ** 2, axis=0))
        assert pair.max_cross_corr <= 1e-14 * lag0
        assert sidelobe_ratios(pair.x, k).max() <= SIDELOBE_DELTA
        for block, p in zip((pair.x, pair.y), start[-2:]):
            assert _column_power(block).max() <= p * (1 + 1e-12)
        assert trace.warnings == []


def plain_mm(dl, ul, cfg, x, y, x_sigma, y_sigma, p_x, p_y):
    """One MM round after another from a start, each aimed at the last
    round's MM targets, until a round moves the total MSE by less than eta
    or max_outer rounds after the start's have run: (x, y, mse, stop)."""
    rows = []
    for it in range(cfg.max_outer + 1):
        if it:
            x_sigma = build_sigma_target(links[0][1], x, dl)
            y_sigma = build_sigma_target(links[1][1], y, ul)
        x, y, _, _ = inner_cycle(x_sigma, y_sigma, x, y, cfg, p_x=p_x, p_y=p_y)
        links = mse_and_optimal_V(x, dl), mse_and_optimal_V(y, ul)
        rows.append(links[0][0] + links[1][0])
        if it and abs(rows[-2] - rows[-1]) < cfg.eta:
            return x, y, rows, "eta"
    return x, y, rows, "max_outer"


class TestSquarem:
    # k >= 1 designs run SQUAREM cycles (_descend): two MM rounds, then
    # one round toward the extrapolated pair from the second, kept only if
    # it does not raise the total MSE; k = 0 runs plain MM rounds

    @pytest.mark.parametrize(
        "dims, k, seed, mse, rounds",
        [((4, 4, 8, 32.0), 4, 0, 0.0373185, 81),
         ((4, 4, 8, 32.0), 4, 1, 0.0395956, 122),
         ((4, 4, 8, 32.0), 4, 2, 0.0394079, 136),
         ((4, 4, 8, 32.0), 4, 3, 0.0370391, 104),
         ((4, 4, 16, 32.0), 2, 0, 0.0123405, 163),
         ((4, 4, 16, 32.0), 2, 1, 0.0124657, 173)],
        ids=["ref-0", "ref-1", "ref-2", "ref-3", "zcz-0", "zcz-1"],
    )
    def test_benchmark_panels_end_lower_in_fewer_rounds(self, dims, k, seed, mse,
                                                        rounds, monkeypatch):
        # the benchmark's panel seeds, against the final MSE and the round
        # count that plain MM rounds, the k >= 1 loop before SQUAREM,
        # reached from the same start
        calls = count_calls(monkeypatch, "inner_cycle")
        n_t, n_r, b, gamma = dims
        dl = build_scenario(n_t, n_r, b, gamma=gamma)
        pair, trace = design_pilots(dl, reciprocal_scenario(dl),
                                    DesignConfig(k=k, seed=seed))
        assert trace.stop_reason == "eta" and trace.converged
        assert trace.mse[-1] <= mse
        assert calls["inner_cycle"] < rounds
        assert sum(trace.extrapolated) > 0
        assert np.diff(trace.mse).max() <= 0.0

    def test_rejected_extrapolation_keeps_theta2(self, monkeypatch):
        # Every extrapolation round, the one round not aimed at fresh MM
        # targets, is scored 1 higher on the downlink: each is rejected and
        # adds no row, and the next MM round starts from the pair before it
        built = [0]
        build = designer.build_sigma_target
        extrapolating = []  # per round: whether it is an extrapolation

        def counted(*args):
            built[0] += 1
            return build(*args)

        rounds = record_rounds(monkeypatch)
        cycle = designer.inner_cycle

        def tagged(*args, **kwargs):
            extrapolating.append(bool(extrapolating) and not built[0])
            built[0] = 0
            return cycle(*args, **kwargs)

        fused = designer.mse_and_optimal_V

        def scored(p, s):
            mse, v = fused(p, s)
            return (mse + 1.0 if extrapolating and extrapolating[-1] and s is dl
                    else mse), v

        monkeypatch.setattr(designer, "build_sigma_target", counted)
        monkeypatch.setattr(designer, "inner_cycle", tagged)
        monkeypatch.setattr(designer, "mse_and_optimal_V", scored)
        dl = build_scenario(4, 4, 8, gamma=32.0)
        ul = reciprocal_scenario(dl)
        pair, trace = design_pilots(dl, ul, DesignConfig(k=4, max_outer=12))
        jumps = np.flatnonzero(extrapolating)
        assert len(jumps) >= 2 and trace.rejected_extrapolations == len(jumps)
        assert trace.extrapolated == [0] * len(trace.mse)
        assert len(trace.mse) == len(rounds) - len(jumps)
        kept = [out for j, (_, out) in enumerate(rounds) if j not in jumps]
        assert trace.mse == [channel_mse_lemma(x, dl) + channel_mse_lemma(y, ul)
                             for x, y, _, _ in kept]
        for j in jumps:
            before = rounds[j - 1][1]
            for args, _ in rounds[j : j + 2]:
                npt.assert_array_equal(args["x0"], before[0])
                npt.assert_array_equal(args["y0"], before[1])
        npt.assert_array_equal(pair.x, kept[-1][0])
        npt.assert_array_equal(pair.y, kept[-1][1])

    @pytest.mark.parametrize("max_outer", range(1, 9))
    def test_rounds_within_max_outer(self, max_outer, monkeypatch):
        # max_outer caps the rounds after the start's, extrapolations
        # included; a run that it stops has used them all
        calls = count_calls(monkeypatch, "inner_cycle")
        dl = build_scenario(4, 4, 8, gamma=32.0)
        _, trace = design_pilots(dl, reciprocal_scenario(dl),
                                 DesignConfig(k=4, max_outer=max_outer, eta=1e-12))
        assert trace.stop_reason == "max_outer"
        assert calls["inner_cycle"] == max_outer + 1
        assert trace.outer_iterations == len(trace.mse) - 1 <= max_outer

    @pytest.mark.parametrize(
        "dims, cfg",
        [((8, 8, 64, None), DesignConfig(k=0, eta=1e-9, max_outer=40)),
         ((2, 3, 6, None), DesignConfig(k=0, seed=4))],
        ids=["kron-8x8-b64-k0", "2x3-b6-k0"],
    )
    def test_k0_is_plain_mm(self, dims, cfg):
        n_t, n_r, b, gamma = dims
        dl = build_scenario(n_t, n_r, b, gamma=gamma)
        ul = reciprocal_scenario(dl)
        p_x, p_y = column_power_bound(cfg, dl), column_power_bound(cfg, ul)
        start = _start(dl, ul, cfg, p_x, p_y)
        pair, trace = _descend(dl, ul, cfg, *start, p_x, p_y)
        x, y, mse, stop = plain_mm(dl, ul, cfg, *start, p_x, p_y)
        assert trace.mse == mse and trace.stop_reason == stop
        assert trace.extrapolated == [0] * len(mse)
        assert trace.rejected_extrapolations == 0
        npt.assert_array_equal(pair.x, x)
        npt.assert_array_equal(pair.y, y)
