"""Symbol-unit delay bookkeeping and the sensing range bound."""

import numpy as np
import pytest

from zczpilot.timing import (
    SensingFeasibility,
    TimingScenario,
    delay_symbols,
    is_sensing_feasible,
    max_object_range,
)


def reference_scenario(**kwargs):
    base = dict(d_user=25_000.0, symbol_time=25e-6, t_pr=1.0, k=4)
    base.update(kwargs)
    return TimingScenario(**base)


class TestDelaySymbols:
    def test_one_symbol_distance(self):
        s = TimingScenario(d_user=1.0, symbol_time=1.0, nu=1.0)
        assert delay_symbols(1.0, s) == 1.0

    def test_reference_user_delay(self):
        s = reference_scenario()
        assert delay_symbols(s.d_user, s) == pytest.approx(10.0 / 3.0, rel=1e-15)

    def test_scales_linearly(self):
        s = reference_scenario()
        assert delay_symbols(2 * s.d_user, s) == pytest.approx(
            2 * delay_symbols(s.d_user, s), rel=1e-15
        )

    def test_nonpositive_distance_rejected(self):
        s = reference_scenario()
        with pytest.raises(ValueError):
            delay_symbols(0.0, s)
        with pytest.raises(ValueError):
            delay_symbols(-5.0, s)


class TestMaxObjectRange:
    def test_reference_value(self):
        # 25 km + 3e8 * 25e-6 * (1 + 4) / 2 = 43750 m
        d = max_object_range(reference_scenario())
        assert abs(d - 43_750.0) <= 1e-12 * 43_750.0

    def test_no_guard_window_collapses_to_user_range(self):
        s = reference_scenario(t_pr=0.0, k=0)
        assert max_object_range(s) == s.d_user

    def test_second_worked_case(self):
        s = TimingScenario(d_user=10_000.0, symbol_time=10e-6, t_pr=2.0, k=2)
        assert max_object_range(s) == pytest.approx(16_000.0, rel=1e-15)

    def test_monotone_in_window_parameters(self):
        base = max_object_range(reference_scenario())
        assert max_object_range(reference_scenario(t_pr=2.0)) > base
        assert max_object_range(reference_scenario(k=5)) > base

    def test_slower_medium_shrinks_range(self):
        fast = max_object_range(reference_scenario())
        slow = max_object_range(reference_scenario(nu=1.5e8))
        assert slow < fast
        assert slow == pytest.approx(25_000.0 + 1.5e8 * 25e-6 * 2.5, rel=1e-15)


class TestSensingFeasibility:
    def test_object_at_user_range(self):
        s = reference_scenario(d_object=25_000.0)
        out = is_sensing_feasible(s)
        assert isinstance(out, SensingFeasibility)
        assert out.feasible
        assert out.slack_symbols == pytest.approx(2.5, rel=1e-15)

    def test_boundary_object_has_zero_slack(self):
        s = reference_scenario(d_object=max_object_range(reference_scenario()))
        out = is_sensing_feasible(s)
        assert out.feasible
        assert abs(out.slack_symbols) <= 1e-12

    def test_far_object_infeasible(self):
        out = is_sensing_feasible(reference_scenario(d_object=50_000.0))
        assert not out.feasible
        assert out.slack_symbols < 0

    def test_printed_direction_reverses_gap(self):
        s = reference_scenario(d_object=50_000.0)
        default = is_sensing_feasible(s)
        flipped = is_sensing_feasible(s, printed_direction=True)
        window = (s.t_pr + s.k) / 2.0
        assert default.slack_symbols + flipped.slack_symbols == pytest.approx(
            2 * window, rel=1e-12
        )
        assert flipped.feasible

    def test_missing_object_distance_rejected(self):
        with pytest.raises(ValueError):
            is_sensing_feasible(reference_scenario())

    def test_consistent_with_range_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            s = TimingScenario(
                d_user=float(rng.uniform(10.0, 1e5)),
                symbol_time=float(rng.uniform(1e-7, 1e-3)),
                t_pr=float(rng.uniform(0.0, 4.0)),
                k=int(rng.integers(0, 8)),
                d_object=float(rng.uniform(10.0, 2e5)),
            )
            out = is_sensing_feasible(s)
            # guard the comparison against ties at the boundary
            margin = s.d_object - max_object_range(s)
            if abs(margin) > 1e-6:
                assert out.feasible == (margin < 0)

    def test_slack_in_symbol_units(self):
        s = TimingScenario(
            d_user=1_000.0, symbol_time=1e-5, t_pr=1.0, k=1, d_object=2_000.0
        )
        want = 1.0 - (1_000.0 / (3.0e8 * 1e-5))
        assert is_sensing_feasible(s).slack_symbols == pytest.approx(want, rel=1e-12)


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d_user": 0.0},
            {"d_user": -1.0},
            {"symbol_time": 0.0},
            {"nu": 0.0},
            {"t_pr": -0.5},
            {"k": -1},
            {"d_object": 0.0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        base = dict(d_user=100.0, symbol_time=1e-6)
        base.update(kwargs)
        with pytest.raises(ValueError):
            TimingScenario(**base)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field, named",
        [("d_user", "d_user"), ("symbol_time", "symbol_time"), ("nu", "speed"),
         ("t_pr", "t_pr"), ("d_object", "d_object")],
    )
    def test_non_finite_rejected(self, field, named, value):
        base = dict(d_user=100.0, symbol_time=1e-6)
        base[field] = value
        with pytest.raises(ValueError, match=f"{named} must be .*finite"):
            TimingScenario(**base)

    @pytest.mark.parametrize("k", [2.5, float("nan")])
    def test_non_integer_k_rejected(self, k):
        # a NaN k passed k < 0 and made max_object_range NaN
        with pytest.raises(TypeError):
            TimingScenario(d_user=100.0, symbol_time=1e-6, k=k)

    def test_integer_k_stored_as_int(self):
        s = TimingScenario(d_user=100.0, symbol_time=1e-6, k=np.int64(3))
        assert type(s.k) is int and s.k == 3
