"""Round-trip timing feasibility for sensing during TDD training.

While the terminal's answer travels back, the transmitter can listen for
radar echoes.  An object echo is usable when it arrives within the guard
window opened by the processing time and the correlation-zone depth, all
measured in training symbol units.
"""

import math
import operator
from dataclasses import dataclass

_SLACK_TOL = 1e-12


@dataclass(frozen=True)
class TimingScenario:
    """Link geometry and symbol-time bookkeeping (distances in meters).

    t_pr and k are in symbol units; k is stored as an exact int
    (operator.index: a float, NaN included, raises TypeError), as
    DesignConfig stores it.
    """

    d_user: float
    symbol_time: float
    t_pr: float = 1.0
    k: int = 4
    nu: float = 3.0e8
    d_object: float | None = None

    def __post_init__(self):
        # Written as 0 < x < inf so that a NaN fails every check.
        if not 0 < self.d_user < math.inf:
            raise ValueError("d_user must be positive and finite")
        if not 0 < self.symbol_time < math.inf:
            raise ValueError("symbol_time must be positive and finite")
        if not 0 < self.nu < math.inf:
            raise ValueError("propagation speed must be positive and finite")
        if not 0 <= self.t_pr < math.inf:
            raise ValueError("t_pr must be >= 0 and finite")
        object.__setattr__(self, "k", operator.index(self.k))
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.d_object is not None and not 0 < self.d_object < math.inf:
            raise ValueError("d_object must be positive and finite")


def delay_symbols(d, s):
    """One-way propagation delay of distance d, in training symbols."""
    if d <= 0:
        raise ValueError("distance must be positive")
    return d / (s.nu * s.symbol_time)


def max_object_range(s):
    """Largest object distance whose echo still lands in the guard window.

    d_max = d_user + nu * T_s * (t_pr + k) / 2.
    """
    return s.d_user + s.nu * s.symbol_time * (s.t_pr + s.k) / 2.0


@dataclass(frozen=True)
class SensingFeasibility:
    feasible: bool
    slack_symbols: float


def is_sensing_feasible(s, printed_direction=False):
    """Whether the scenario's object echo is usable, plus slack in symbols.

    Default bound: t_obj - t_user <= (t_pr + k)/2, the direction
    consistent with the range formula.  printed_direction=True evaluates
    the reversed inequality t_user - t_obj <= (t_pr + k)/2 instead, for
    literal replication of the original statement.
    """
    if s.d_object is None:
        raise ValueError("scenario has no d_object")
    gap = delay_symbols(s.d_object, s) - delay_symbols(s.d_user, s)
    if printed_direction:
        gap = -gap
    slack = (s.t_pr + s.k) / 2.0 - gap
    return SensingFeasibility(feasible=slack >= -_SLACK_TOL, slack_symbols=slack)
