"""Properties of every design over seeded random scenarios.

The acceptance criteria run on the shipped scenario, and the pinned
trajectories on three more.  This suite draws SCENARIOS scenarios from
one seeded generator (sizes, energy budget, complex correlations, both
correlation conventions) and runs ROUNDS outer iterations of each, then
checks the guarantees of design_pilots on every one: the descent, the
power of every iterate, the feasibility of the final pair, the form of
the trace's notes and, for k >= 1 (the row-split start), an uplink pilot
Y that is not zero.  The seed and the size stay fixed: a failing draw is
a fault of the designer.
"""

import re

import numpy as np
import pytest

from zczpilot.analysis import correlation_report
from zczpilot.covariance import build_scenario, reciprocal_scenario
from zczpilot.designer import (
    SIDELOBE_DELTA,
    DesignConfig,
    column_power_bound,
    design_pilots,
)

SEED = 20171
SCENARIOS = 40
ROUNDS = 10
# Criterion 5a's tolerance on a rise of the total MSE between iterates.
DESCENT_TOL = 1e-6
# Relative slack of the power bounds and of the 30 dB bound.
SLACK = 1e-9


def draw_design(rng):
    """One random scenario pair and design knobs: n_t 1-4, n_r 1-3, B 3-16,
    k 0..min(4, B-1), gamma log-uniform on [1e-1, 1e4], complex rho of
    magnitude <= 0.95 and both convention flags at random."""
    n_t, n_r, b = (int(rng.integers(lo, hi + 1))
                   for lo, hi in ((1, 4), (1, 3), (3, 16)))
    rho = 0.95 * rng.uniform(size=3) * np.exp(2j * np.pi * rng.uniform(size=3))
    dl = build_scenario(n_t, n_r, b, *rho, gamma=10.0 ** rng.uniform(-1.0, 4.0))
    cfg = DesignConfig(
        k=int(rng.integers(0, min(4, b - 1) + 1)),
        max_outer=ROUNDS,
        seed=int(rng.integers(2**32)),
        lags_from_one=bool(rng.integers(2)),
        literal_transpose=bool(rng.integers(2)),
    )
    return dl, reciprocal_scenario(dl), cfg


@pytest.fixture(scope="module")
def designs():
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(SCENARIOS):
        dl, ul, cfg = draw_design(rng)
        pair, trace = design_pilots(dl, ul, cfg)
        out.append((dl, ul, cfg, pair, trace))
    return out


def failing(designs, holds):
    """Indices of the designs for which holds(*design) is false."""
    return [i for i, d in enumerate(designs) if not holds(*d)]


def test_descent(designs):
    def holds(dl, ul, cfg, pair, trace):
        return np.diff(trace.mse).max(initial=-np.inf) <= DESCENT_TOL

    assert failing(designs, holds) == []


def test_every_iterate_within_power(designs):
    def holds(dl, ul, cfg, pair, trace):
        p = max(column_power_bound(cfg, dl), column_power_bound(cfg, ul))
        return max(trace.max_power) <= p * (1 + SLACK)

    assert failing(designs, holds) == []


def final_pair_misses(dl, ul, cfg, pair):
    """What the final pair misses of its guarantees, read off correlation
    reports: the cross residual over the zone in the design's convention
    over the largest lag-0 power (<= epsilon), the powers, the ellipsoids
    (on x^H J_m x in either convention) and, for k >= 1, the 30 dB bound
    on every column in the design's convention."""
    x, y, k = pair.x, pair.y, cfg.k
    p_x, p_y = column_power_bound(cfg, dl), column_power_bound(cfg, ul)
    window = max(k, 1)
    own = correlation_report(x, y, max_lag=window,
                             literal_transpose=cfg.literal_transpose)
    conj = correlation_report(x, y, max_lag=window)
    lags = own.lags
    power = np.sum(np.abs(x) ** 2, axis=0)
    misses = []
    if power.max() > p_x * (1 + SLACK) or np.sum(np.abs(y) ** 2, axis=0).max(
            initial=0.0) > p_y * (1 + SLACK):
        misses.append("power")
    zone = np.isin(lags, np.arange(1 if cfg.lags_from_one else 0, k + 1))
    cross = np.abs(own.crosscorr[:, :, zone]).max(initial=0.0)
    if not cross <= cfg.epsilon * power.max():
        misses.append(f"cross {cross:.3g} of lag-0 power {power.max():.3g}")
    for m in range(1, k + 1):
        sides = conj.autocorr[:, lags == m] + conj.autocorr[:, lags == -m]
        if (sides.real[:, 0] + 2.0 * power).max() > 2.0 * p_x * (1 + SLACK):
            misses.append(f"ellipsoid {m}")
        if (np.abs(own.autocorr[:, lags == m][:, 0])
                > SIDELOBE_DELTA * power * (1 + SLACK)).any():
            misses.append(f"30 dB bound at lag {m}")
    return misses


def test_final_pair_feasible(designs):
    misses = {i: final_pair_misses(dl, ul, cfg, pair)
              for i, (dl, ul, cfg, pair, _) in enumerate(designs)}
    assert {i: m for i, m in misses.items() if m} == {}


def test_only_iteration_notes(designs):
    def holds(dl, ul, cfg, pair, trace):
        return all(re.match(r"iteration \d+: ", w) for w in trace.warnings)

    assert failing(designs, holds) == []


def test_collapsed_uplinks_counted(designs, capsys):
    # a k >= 1 design starts from the row split, which gives Y rows of its
    # own, and must end with Y != 0; at k = 0 the generic start can
    # collapse the uplink zone, and those are counted
    collapsed = sum(not pair.y.any() for _, _, _, pair, _ in designs)
    with capsys.disabled():
        print(f"\n[INFO] random scenarios: {collapsed} of {len(designs)} "
              f"designs end with Y = 0")
    assert failing(designs, lambda dl, ul, cfg, pair, trace:
                   cfg.k == 0 or pair.y.any()) == []
