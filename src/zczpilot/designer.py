"""Cyclic MMSE design of paired downlink/uplink pilot matrices.

Each MM step refreshes the closed-form auxiliary minimizers for both
link directions, builds majorize-minimize targets for the two pilot
blocks, and then takes one round (inner_cycle) toward the constraint
sets: per-column power balls, zero cross-correlation between the two
pilots over a lag window, and on the downlink (sensing) pilot the
convexified low-autocorrelation ellipsoids and a 30 dB sidelobe bound.
A round is one link step (_link_step) taken twice, X against the current
Y and then Y against the new X.  _start builds the start (k >= 1: Y's
closed-form transmit-eigenmode pilot and X's phased impulses on disjoint
rows, which no lag of the zone correlates, so that both links train;
k = 0: unit impulses, Y0 = 0 and seeded random targets), and _descend
runs the rounds from any feasible pair: for k = 0 one MM step after
another, for k >= 1 SQUAREM cycles of two MM steps and one extrapolated
round, kept only when it lowers the MSE.

The channel covariance of either link is the Kronecker product
R = R_tx (x) R_rx of the scenario's factors, so the curvature of the MM
quadratic is T(P) = K P R_tx with a b x b PSD matrix K, and the step size
is the exact norm lam_max(K) lam_max(R_tx) of T.
estimation.mse_and_optimal_V scores each iterate and returns V* as the
factors (Phi, c, Psi) of its solved blocks, from which _curvature takes
the next MM target: K = Phi core Phi^H has rank <= n_t, so no b x b
eigenvalue problem, dense V2 or channel covariance is formed.

Both pilots see one zero-correlation zone, the orthogonal complement of
its constraint vectors: the fixed pilot shifted by each lag, one slice
per lag (_shifted; the uplink's J_m^T x is R J_m R x, R the row flip).
One thin SVD and a rank rule turn them into an orthonormal basis U of
their span (_zone_basis); U of rank b means the zone is {0}, which the
link step notes.  A link step projects its target into the zone, t -
U U^H t (_in_zone: t itself for U without columns, zero for U of rank
b), or for k >= 1 only the move from the current pilot, in a zone whose
rank rule keeps far weaker directions (_MOVE_RANK), so that a pair keeps
the cross residual it meets.  The projection goes straight into the
sidelobe restoration (_restore_sidelobes) inside the same zone, with the
link's lags, 1..k for X and none for Y; its final cap into the ball and
the ellipsoids is the step's only one.  With no lags it takes no step
and caps to the ball, the exact projection.  The link step is the
designer's one step: acceptance criteria 6 and 7 check its descent and
feasibility, beside the plain projections x_step and y_step that
tests/oracles.py keeps as their reference.

The ellipsoids only bound Re r_m <= p - ||x||^2 for the sidelobe
r_m(x) = x^H J_m x, so for k >= 1 X's step holds every column of the
sensing pilot to the 30 dB bound |r_m(x_q)| <= 10^(-1.5) ||x_q||^2,
m = 1..k: Gauss-Newton minimum-norm steps inside the zone of the current
Y, taken by all violating columns together (one batched solve per step),
and a power cap restore X before Y steps against it.  A column of either
pilot that then ends farther from its MM target than the current
column, or not inside the bound, keeps the current column, which is
feasible: x0 lies in y0's zone, and y0 in the new X's, since each column
of X is x0's or lies in y0's zone and the zone is symmetric.  The MM
majorizer is separable by column, so every round is a descent step and
every iterate is feasible (as in the constraint-handling MM of Sun, Babu
& Palomar, IEEE TSP 2017): the total estimation MSE of the two links is
non-increasing across the accepted iterates for every k.
"""

import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .estimation import _checked, mse_and_optimal_V

_TINY = 1e-300

# Sensing-pilot sidelobe bound: |x_q^H J_m x_q| <= SIDELOBE_DELTA ||x_q||^2
# for m = 1..k, i.e. lags 1..k at least 30 dB below lag 0.
SIDELOBE_BOUND_DB = 30.0
SIDELOBE_DELTA = 10.0 ** (-SIDELOBE_BOUND_DB / 20.0)
# Restoration aims at a level 1% inside the bound, so that a column it has
# restored is not moved again by the next restoration, and rounding cannot
# put the design a hair outside 30 dB.  It stops a tenth of the way into
# that margin (every lag >= 30.078 dB down), which one or two steps reach.
_RESTORE_LEVEL = 0.99 * SIDELOBE_DELTA
_RESTORE_DONE = _RESTORE_LEVEL + 0.1 * (SIDELOBE_DELTA - _RESTORE_LEVEL)
# Lags within this band below the level are held at it too: with only the
# lags above it active, two lags near it take turns, each step pushing one
# back and letting the other rise: without the band a ref design takes 30%
# more solves, and 2.3 times as many at a stop just above the level.
_RESTORE_ACTIVE = _RESTORE_LEVEL * (1.0 - 1e-6)
_RESTORE_MAX_STEPS = 50

# The rank rule of a k >= 1 round's zones (_zone_basis), which project the
# move from the current pilot (_in_zone), relative to the largest singular
# value: along every direction above it the pilot keeps its coordinates,
# and so the cross residual it meets.  The leaks of converged zcz pilots
# (B = 16, k = 2) into each other's rows give directions from 3.9e-14 up;
# the rounding of a pilot's zero entries gives ones of 2e-15, which a move
# of the pilot's own length along them turns into a residual of that order
# only.
_MOVE_RANK = 5e-15

# A round's notes for a downlink and an uplink zone of {0}, indexed by
# transpose_shift: only zero columns are feasible.
_COLLAPSE_NOTES = tuple(f"{link} cross-correlation constraints span the whole space; "
                        "returning zero columns" for link in ("downlink", "uplink"))


@dataclass(frozen=True)
class DesignConfig:
    """Designer knobs.

    k is the correlation zone depth (lags 1..k of every downlink column's
    autocorrelation are held 30 dB below lag 0, SIDELOBE_BOUND_DB).  The
    zone is one-sided: it zeroes x_q^H J_m y_l for m = 0..k, or 1..k with
    lags_from_one, where J_m advances y_l by m samples (shift_matrix), and
    leaves the negative lags unconstrained.  p is the per-column power
    bound; leave None to derive gamma/n_columns per link.  eta stops the
    design once a cycle moves the total MSE by less than it: one MM round
    for k = 0, one SQUAREM cycle (two MM rounds and an extrapolation) for
    k >= 1.  max_outer caps the rounds after the start's, extrapolation
    rounds included (_descend).  k, max_outer and seed are stored as exact
    ints (operator.index: a float raises TypeError), which the archive
    writes as JSON integers.
    literal_transpose switches correlations from the conjugated form
    x^H J y to the plain transpose.
    epsilon bounds the cross residual max |x_q^H J_m y_l| over the zone
    (max_cross_corr) over the largest lag-0 power max_q ||x_q||^2, as in
    acceptance criterion 5b: a design whose MSE settles counts as
    converged only when that ratio is <= epsilon (a zero X never does).
    """

    k: int = 4
    p: float | None = None
    epsilon: float = 1e-5
    eta: float = 1e-5
    max_outer: int = 200
    seed: int = 0
    lags_from_one: bool = False
    literal_transpose: bool = False

    def __post_init__(self):
        for name in ("k", "max_outer", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.p is not None and not 0 < self.p < np.inf:
            raise ValueError("p must be positive and finite")
        if not all(0 < t < np.inf for t in (self.epsilon, self.eta)):
            raise ValueError("tolerances must be positive and finite")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def shift_matrix(b, i):
    """Shift (lag) matrix J_i of size b x b.

    Entry (a, c) equals 1 when c - a = i, so J_i x advances x by i
    samples with zero fill and J_{-i} = J_i^T.  Raises ValueError unless
    b >= 1 and |i| < b.
    """
    if b < 1:
        raise ValueError("b must be positive")
    if abs(i) >= b:
        raise ValueError(f"lag {i} out of range for size {b}")
    return np.eye(b, k=i)


def _shifted(x, k):
    """J_m x for m = 0..k as a (k+1, b, n) stack, one slice per lag: J_m x
    advances the columns by m rows with zero fill; lags m >= b give zeros.
    J_m^T x, which delays them, is R J_m R x with R the row flip."""
    b = x.shape[0]
    out = np.zeros((k + 1,) + x.shape, dtype=x.dtype)
    for m in range(min(k, b - 1) + 1):
        out[m, : b - m] = x[m:]
    return out


def _cross_vectors(fixed, cfg, transpose_shift):
    """Constraint vectors a with a^H x = 0 zeroing correlation against `fixed`.

    For the downlink step the vectors are J_m y_l; for the uplink step
    J_m^T x_q = R J_m R x_q (R the row flip, _shifted); m runs over 0..k,
    or 1..k with lags_from_one, lag-major.  Under the literal-transpose
    convention the constraint is on x^T J y, i.e. the conjugated vectors.
    """
    fixed = np.asarray(fixed, dtype=np.complex128)
    flip = slice(None, None, -1) if transpose_shift else slice(None)
    a = _shifted(fixed[flip], cfg.k)[1 if cfg.lags_from_one else 0 :, flip]
    a = a.transpose(1, 0, 2).reshape(fixed.shape[0], -1)
    return a.conj() if cfg.literal_transpose else a


def _column_power(t):
    return np.einsum("ij,ij->j", t.conj(), t).real


def _autocorr(x, k, literal):
    """r[m-1, q] = x_q^H J_m x_q, m = 1..k (x_q^T J_m x_q under literal)."""
    return np.einsum("bq,mbq->mq", x if literal else x.conj(), _shifted(x, k)[1:])


def _cap_into_sets(x, n2, r, p):
    """Scale each column of x down until the ball and the ellipsoids hold,
    from its power n2 = ||x||^2 and its sidelobes r_m = x^H J_m x, m = 1..k.

    The ellipsoid value is x^H (J_m + J_m^T + 2I) x = 2(n2 + Re r_m) (J_m
    is real), so the ellipsoid m holds iff n2 + Re r_m <= p.  A stack of
    no lags adds +0.0 to n2: the plain cap to the ball, bit for bit.
    """
    top = n2 + r.real.max(axis=0, initial=0.0)
    return x * np.sqrt(np.where(top > p, p / np.maximum(top, _TINY), 1.0))


def _in_zone(span, t, current=None):
    """t - U U^H t, t's columns projected onto the zone of basis U.  U
    without columns returns t itself, so an unconstrained step keeps its
    values and layout, and the summation order of the BLAS calls after;
    U of rank b (the zone is {0}) returns zero columns.  Otherwise, with a
    current matrix, only the move from it is projected: current + d -
    U U^H d for d = t - current, which keeps current's coordinates along
    U."""
    if not span.shape[1]:
        return t
    if span.shape[1] == span.shape[0]:
        return np.zeros_like(t)
    if current is not None:
        return current + _in_zone(span, t - current)
    return t - span @ (span.conj().T @ t)


def _resolve_p(cfg, p):
    p = cfg.p if p is None else p
    if p is None:
        raise ValueError("no per-column power bound: set cfg.p or pass p")
    if not 0 < p < np.inf:
        raise ValueError("p must be positive and finite")
    return float(p)


def _check_fixed(fixed, b, cfg):
    """Raise ValueError unless k < b and fixed is a matrix of b rows, the
    target's."""
    if cfg.k >= b:
        raise ValueError(f"k={cfg.k} must be smaller than the training length {b}")
    if np.ndim(fixed) != 2 or len(fixed) != b:
        raise ValueError(f"fixed pilot of shape {np.shape(fixed)} does not share "
                         f"the training length of a target of {b} rows")


def _zone_basis(fixed, b, cfg, transpose_shift, move=False):
    """Orthonormal basis U of the span of the cross vectors against `fixed`
    (_cross_vectors), whose orthogonal complement in C^b is the zone: one
    thin SVD's left singular vectors to the rank counted at 1e-10 times the
    largest singular value, or with move at _MOVE_RANK times it, the basis
    that a move from a current pilot is projected with (_in_zone).  No
    columns when every vector is zero (the zone is C^b); b columns when the
    zone is {0}, as only zero columns are then feasible.  fixed must be a
    matrix of b rows (_check_fixed)."""
    _check_fixed(fixed, b, cfg)
    a = _cross_vectors(fixed, cfg, transpose_shift)
    if not a.any():
        return np.zeros((b, 0), dtype=np.complex128)
    u, sv, _ = np.linalg.svd(a, full_matrices=False)
    tol = _MOVE_RANK if move else 1e-10
    return u[:, : np.count_nonzero(sv > tol * sv[0])]


def _link_step(target, current, fixed, cfg, p, lags, transpose_shift):
    """One link's step of a round, from its current pilot toward its MM
    target, against the other link's pilot `fixed` (transpose_shift picks
    the uplink's cross vectors, _cross_vectors).

    The zone basis against fixed (_zone_basis, at _MOVE_RANK for k >= 1);
    the target's zone projection, or for k >= 1 only its move from current
    (_in_zone); the sidelobe restoration of lags 1..lags inside the same
    zone, whose final cap is the step's only one (_restore_sidelobes; with
    no lags no step and the ball cap); and the hold: a column that ends
    farther from its target than current's, or over the bound, keeps
    current's.  Returns (pilot, notes, steps): one note for a zone of {0}
    and one per column held over the bound, with its residual, and the
    restoration's Gauss-Newton solves.  current must have the target's
    shape; a ValueError names both otherwise.

    A move keeps the pilot's coordinates along the constraint directions,
    so that a k >= 1 pair keeps the cross residual it has.  Converged zcz
    pilots (B = 16, k = 2) leak into each other's rows by 1e-12 and less,
    which gives constraint directions with singular values of 1e-14 to
    1e-10 of the largest, along which both pilots have coordinates of
    order one.  A projection of the target drops those directions (the
    1e-10 rule) and leaves a cross residual of up to 1e-12 of the lag-0
    power after an extrapolated target (_descend); one that keeps them
    would move the pilot by its own length.
    """
    target = np.asarray(target, dtype=np.complex128)
    if np.shape(current) != target.shape:
        raise ValueError(f"current pilot of shape {np.shape(current)} does not match "
                         f"its target of shape {target.shape}")
    p, b, moves = _resolve_p(cfg, p), target.shape[0], cfg.k > 0
    span = _zone_basis(fixed, b, cfg, transpose_shift, moves)
    notes = [_COLLAPSE_NOTES[transpose_shift]] if span.shape[1] == b else []
    step = _in_zone(span, target, current if moves else None)
    step, worst, steps = _restore_sidelobes(step, span, p, lags, cfg.literal_transpose)
    over = ~(worst <= SIDELOBE_DELTA)
    notes += [f"column {q} keeps its current value: its sidelobe restoration "
              f"ended at residual {worst[q]:.3g} > {SIDELOBE_DELTA:.3g}"
              for q in np.flatnonzero(over)]
    far = _column_power(step - target) > _column_power(current - target)
    return np.where(over | far, current, step), notes, steps


def inner_cycle(x_sigma, y_sigma, x0, y0, cfg, p_x=None, p_y=None):
    """One round toward the MM targets from the current pair (x0, y0): the
    link step (_link_step) of X from x0 against y0, with lags 1..k, then
    that of Y from y0 against the new X, with no lags.  Returns (X, Y,
    notes, steps): notes has one string per event of the round (a link
    whose zone is {0}, each column held for the bound with its residual),
    and steps counts the restorations' Gauss-Newton solves (0 for k = 0).

    x0 lies in y0's zone, the ball, the ellipsoids and the bound, so every
    column of X does too, and none is farther from its target than x0's:
    the MM majorizer is separable by column, so X does not raise it.  The
    zone is symmetric, so y0 lies in the new X's zone, and Y, held the
    same way, does not raise its majorizer either.  The round is a
    descent step for every k.
    """
    x, notes, steps = _link_step(x_sigma, x0, y0, cfg, p_x, cfg.k, False)
    y, y_notes, y_steps = _link_step(y_sigma, y0, x, cfg, p_y, 0, True)
    return x, y, notes + y_notes, steps + y_steps


def _curvature(v, s):
    """Quadratic model pieces (core, D) of F(V, .) at fixed V = V*, from
    its factors (Phi, c, Psi) (mse_and_optimal_V) and the receive
    eigenvalues lam and mode traces t of the scenario s.

    F(V, P) = <L(P), W2 L(P) R> + 2 Re <L(P), V2 V1^H R> + const with L
    the pilot embedding and W2 = V2 V2^H, so the (self-adjoint, PSD)
    curvature operator is T(P) = adj(W2 L(P) R) and the linear term is
    G = adj(V2 V1^H R), adj the block partial trace.  T is the two-sided
    product T(P) = K P R_tx.

    With V2 = -sum_i lam_i Y_i (x) S[:, i] S^-1[i, :] and
    S^H R_rx S = diag(lam), the cross terms i != j of the partial traces
    vanish, so K = sum_i lam_i w_i Y_i Y_i^H and G = -(sum_i w_i Y_i) R_tx
    with w_i = lam_i t_i.  With Y_i = Phi diag(c_i) Psi, K = Phi core Phi^H
    with core = (sum_i lam_i w_i c_i c_i^T) o (Psi Psi^H), o entrywise,
    and G = -Phi D R_tx with D = diag(sum_i w_i c_i) Psi (a singular R_rx
    can give a rounding-negative lam_i w_i, clipped to 0).
    """
    _, c, psi = v
    lam = s.receive_eig[0]
    w = lam * s.mse_weights
    core = ((c.T * np.maximum(lam * w, 0.0)) @ c) * (psi @ psi.conj().T)
    return core, (w @ c)[:, None] * psi


def build_sigma_target(v, p_current, s):
    """Majorize-minimize target for one pilot block at V = V*.

    With lam >= opnorm(T), F(V, P) <= F(V, P0) + 2<P-P0, T(P0)+G> +
    lam ||P-P0||^2, whose constrained minimizer is the projection of
    P_sigma = P0 - (T(P0)+G)/lam.  T(P) = K P R_tx is a Kronecker operator
    with PSD factors, so lam is its norm lam_max(K) lam_max(R_tx), the
    smallest valid one and so the longest step.
    v is the link's V*, its factors (Phi, c, Psi): K = Phi core Phi^H and
    G = -Phi D R_tx (_curvature), so T(P0) + G = Phi (core Phi^H P0 - D)
    R_tx, and with Phi^H Phi = A^H A, lam_max(K) = lam_max(A core A^H),
    both n_t x n_t.  A comes from the Gram of Phi's columns scaled to unit
    norm, so that its rounding is relative to each column.  A lam that is
    not positive and finite returns P0: so does a zero Phi (V2 = 0), which
    makes F constant in P and lam 0.
    """
    p_current = _checked(p_current, s)
    phi = v[0]
    if phi.shape != (s.b, s.n_t) or v[1].shape != (s.n_r, s.n_t):
        raise ValueError("auxiliary variable does not conform with the scenario")
    core, lin = _curvature(v, s)
    norms = np.linalg.norm(phi, axis=0) + _TINY
    unit = phi / norms
    gram, u = np.linalg.eigh(unit.conj().T @ unit)
    root = (np.sqrt(np.maximum(gram, 0.0))[:, None] * u.conj().T) * norms
    lam = np.linalg.eigvalsh(root @ core @ root.conj().T)[-1] * s.transmit_eig[1][-1]
    if not np.isfinite(lam) or lam <= 0.0:
        return p_current.copy()
    return p_current - phi @ (core @ (phi.conj().T @ p_current) - lin) @ s.r_tx / lam


@dataclass(frozen=True)
class PilotPair:
    """Designed pilot matrices and their feasibility residuals."""

    x: np.ndarray
    y: np.ndarray
    max_column_power: float
    max_cross_corr: float
    max_auto_corr: float


# The per-iterate lists of a DesignTrace, in the trace CSV's column order.
TRACE_COLUMNS = ("mse", "max_cross", "max_auto", "max_power", "mse_dl", "mse_ul",
                 "restore_steps", "extrapolated")


@dataclass
class DesignTrace:
    """Progress per accepted iterate (entry 0 is the start's round, and
    outer_iterations is the number of entries after it); the total MSE is
    mse = mse_dl + mse_ul, the two links' estimation MSE, restore_steps
    counts each round's restoration solves (inner_cycle) and extrapolated
    is 1 on an entry made by an accepted SQUAREM extrapolation (_descend).
    rejected_extrapolations counts the extrapolation rounds that would
    have raised the MSE, which add no entry.  stop_reason says what ended
    the loop: "eta" (a cycle moved the MSE by less than eta) or
    "max_outer".  warnings holds each distinct note of the rounds
    (inner_cycle) once, as "iteration i: note" for the first entry i that
    made it, and then a converged design's cross residual over epsilon,
    if any.  phase_seconds sums the seconds of the rounds, MM targets,
    scoring and residuals over the run; the archive, the trace CSV and
    trace equality leave it out, and the archive leaves out
    rejected_extrapolations too."""

    mse: list[float] = field(default_factory=list)
    mse_dl: list[float] = field(default_factory=list)
    mse_ul: list[float] = field(default_factory=list)
    max_cross: list[float] = field(default_factory=list)
    max_auto: list[float] = field(default_factory=list)
    max_power: list[float] = field(default_factory=list)
    restore_steps: list[int] = field(default_factory=list)
    extrapolated: list[int] = field(default_factory=list)
    rejected_extrapolations: int = 0
    converged: bool = False
    stop_reason: str = "max_outer"
    outer_iterations: int = 0
    wall_time: float = 0.0
    warnings: list[str] = field(default_factory=list)
    phase_seconds: dict[str, float] = field(compare=False, default_factory=lambda: (
        dict.fromkeys(("rounds", "targets", "scoring", "residuals"), 0.0)))


def _restore_sidelobes(x, span, p, k, literal):
    """Move every column of x inside the sidelobe bound of lags 1..k, then
    cap its power; literal takes the sidelobes as x^T J_m x.

    x must lie in the zone of the basis U = span, as a link step's zone
    projection (_in_zone) leaves it.  Every column with max_m |h_m| >
    _RESTORE_DONE, h_m = r_m / ||x||^2, a tenth of the way from the level
    into the bound, takes Gauss-Newton steps, all together, at most
    _RESTORE_MAX_STEPS: the minimum-norm real step in the zone that sets
    the linearized |h_m| of each lag above _RESTORE_ACTIVE (just below
    _RESTORE_LEVEL) to the level, from one batched solve of the columns'
    k x k real Grams, with the identity on inactive lags (zero right side,
    zero step) and a ridge of 1e-12 / ||x||^2 on active ones, both added
    in place on the diagonals.  |h_m| is invariant under complex scaling,
    so a d-dimensional zone leaves 2d - 2 real directions that move it;
    with more active lags the Gram is singular, and the ridge keeps the
    step finite.  The step is projected onto the zone, and cut to the
    column's length, keeping its direction, so that steps in a small zone
    cannot grow a column until it overflows.  Each pass measures ||x||^2
    and r_m from one stack of J_m x, m = 0..k, and one that steps builds
    J_m^T x too.  Steps and stops read only |h_m|, and a step scales with
    x, so the restoration is scale-equivariant: its final cap
    (_cap_into_sets), from the last pass's measures, is the only cap a
    column needs, and keeps the zone and every |h_m|.  For k = 0 there are
    no lags: no column steps, every max_m |h_m| is 0 and the cap is the
    ball's, bit for bit.  Returns the matrix, each column's max_m |h_m|
    and the number of steps (batched solves).
    """
    for step in range(_RESTORE_MAX_STEPS + 1):
        lags = _shifted(x, k)
        r = np.einsum("bq,mbq->mq", x.conj(), lags)  # lag 0 is ||x||^2
        n2, jx = r[0].real, lags[1:]
        s = np.maximum(n2, _TINY)
        h = (np.einsum("bq,mbq->mq", x, jx) if literal else r[1:]) / s
        mag = np.abs(h)
        worst = mag.max(axis=0, initial=0.0)
        act = (mag > _RESTORE_ACTIVE) & (worst > _RESTORE_DONE)
        if step == _RESTORE_MAX_STEPS or not act.any():
            break
        jtx = _shifted(x[::-1], k)[1:, ::-1]  # J_m^T x = R J_m R x, R the row flip
        # Real gradient of |h_m| packed as Re + i Im, so that
        # d|h_m| = Re(grad^H dx); inactive lags get none.
        if literal:
            grad = h[:, None] * (jx + jtx).conj()
        else:
            grad = h[:, None] * jtx + h.conj()[:, None] * jx
        norm = np.where(act, mag * s, np.inf)[:, None]
        grad = (grad - 2.0 * (mag**2)[:, None] * x) / norm
        grad = _in_zone(span, grad.transpose(2, 1, 0))
        gram = (grad.conj().transpose(0, 2, 1) @ grad).real.copy()
        gram.reshape(len(gram), -1)[:, :: k + 1] += np.where(act, 1e-12 / s, 1.0).T
        rhs = np.where(act, _RESTORE_LEVEL - mag, 0.0).T[:, :, None]
        # projected again, since the ridge can blow up rounding off the zone
        dx = _in_zone(span, (grad @ np.linalg.solve(gram, rhs))[:, :, 0].T)
        # where(||dx||^2 > s, s / ||dx||^2, 1), dividing by no zero step
        x = x + dx * np.sqrt(s / np.maximum(_column_power(dx), s))
    # the ellipsoids take x^H J_m x under either convention
    return _cap_into_sets(x, n2, r[1:], p), worst, step


def _pair_residuals(x, y, cfg):
    """Max power, max |cross-corr| over the lag set and max |autocorr| of x
    at lags 1..k (0 for k = 0).  The cross-correlation is |a^H x_q| over
    the constraint vectors a = J_m y_l that the projections zero."""
    a = _cross_vectors(y, cfg, False)
    max_cross = float(np.abs(a.conj().T @ x).max(initial=0.0))
    r = _autocorr(x, cfg.k, cfg.literal_transpose)
    max_auto = float(np.abs(r).max(initial=0.0))
    power = max(float(_column_power(m).max(initial=0.0)) for m in (x, y))
    return power, max_cross, max_auto


def column_power_bound(cfg, s):
    """Per-column power bound of the pilot for link s: cfg.p, or else the
    link's energy budget spread over its columns, gamma / n_t."""
    return cfg.p if cfg.p is not None else s.gamma / s.n_t


def _start(dl, ul, cfg, p_x, p_y):
    """The start (x, y, x_sigma, y_sigma).  k = 0: impulses of power p_x
    (column q at row q mod B), Y0 = 0 and seeded targets: dl re, dl im,
    ul re, ul im.  k >= 1: the guard-free row split, s_y = B // 2: X
    column q an impulse of power p_x at row s_y + q mod (B - s_y), with a
    seeded phase, and Y the uplink's equal-power transmit-eigenmode pilot
    on rows [0, s_y) (Kotecha & Sayeed, IEEE TSP 2004; Biguesh &
    Gershman, IEEE TSP 2006), Y_S = sqrt(p_y) W V^H: W holds the top
    min(n_t, s_y) eigenvectors of (M_time^-1)_SS = L^-1[:, S]^H L^-1[:, S]
    (time_whitener, S the rows), V as many of R_tx's, largest paired with
    largest, and each eigenvector is rotated so that its first entry is
    real and >= 0, so Y depends on neither the seed nor the signs that
    eigh returns.  No lag of the zone couples Y's rows to X's, so the
    start is feasible whatever either block does on its own rows; every
    column of Y has power p_y when n_t <= s_y, and at most p_y otherwise.
    Each block aims at its own MM target."""
    rng = np.random.default_rng(cfg.seed)
    x = np.zeros((dl.b, dl.n_t), dtype=np.complex128)
    y = np.zeros((ul.b, ul.n_t), dtype=np.complex128)
    xq = np.arange(dl.n_t)
    if not cfg.k:
        x[xq % dl.b, xq] = np.sqrt(p_x)
        return x, y, *(rng.standard_normal((s.b, s.n_t))
                       + 1j * rng.standard_normal((s.b, s.n_t)) for s in (dl, ul))
    _check_fixed(x, dl.b, cfg)  # k < B, so both blocks get rows
    s_y, phase = dl.b // 2, np.exp(2j * np.pi * rng.random(dl.n_t))
    x[s_y + xq % (dl.b - s_y), xq] = np.sqrt(p_x) * phase
    top, low_inv = min(ul.n_t, s_y), ul.time_whitener[0][:, :s_y]
    grams = (low_inv.conj().T @ low_inv, ul.r_tx)  # (M_time^-1)_SS and R_tx
    modes = (np.linalg.eigh(a)[1][:, ::-1][:, :top] for a in grams)  # largest first
    w, v = (e * np.exp(-1j * np.angle(e[:1])) for e in modes)  # first entries real, >= 0
    y[:s_y] = np.sqrt(p_y) * w @ v.conj().T
    return x, y, *(build_sigma_target(mse_and_optimal_V(m, s)[1], m, s)
                   for m, s in ((x, dl), (y, ul)))


def _descend(dl, ul, cfg, x, y, x_sigma, y_sigma, p_x, p_y):
    """Rounds from a feasible pair (x, y) and its iteration-0 targets, as
    design_pilots says; returns (PilotPair, DesignTrace) but no wall time.

    A round is one inner_cycle, scored at once; an iterate is a round's
    (x, y, links, mse, notes, steps), links the two links' (MSE, V*).  The
    MM map F takes both MM targets from an iterate's V* and runs a round
    from it.  For k = 0 a cycle is one F.  For k >= 1 it is one SQUAREM
    cycle (Varadhan & Roland, Scand. J. Stat. 2008) from the accepted pair
    theta0: theta1 = F(theta0) and theta2 = F(theta1), then r = theta1 -
    theta0 and v = theta2 - 2 theta1 + theta0 over both pilots together,
    alpha = min(-||r|| / ||v||, -1) (-1 for v = 0), and for alpha < -1 one
    round toward theta0 - 2 alpha r + alpha^2 v from theta2, which makes
    the extrapolation feasible.  That round is accepted only if its total
    MSE is no larger than theta2's; a rejected one leaves theta2 and adds
    no trace row.  The trace has one row per accepted iterate, so it never
    rises.  eta compares the total MSE at the ends of two consecutive
    cycles, and max_outer caps the rounds after the start's, feasibility
    rounds included: a cycle cut short by it stops with "max_outer".

    k = 0 keeps plain MM: SQUAREM there halved kron's MSE (8x8, B = 64)
    but took its lag-1 autocorrelation gap, which no constraint holds at
    k = 0, from 13.7 dB to 0.9 dB.
    """
    trace = DesignTrace()
    first = {}  # each distinct note -> the first row that holds it

    def timed(phase, func):
        start = time.perf_counter()
        out = func()
        trace.phase_seconds[phase] += time.perf_counter() - start
        return out

    def scored_round(x_sigma, y_sigma, x0, y0):
        x, y, notes, steps = timed("rounds", lambda: inner_cycle(
            x_sigma, y_sigma, x0, y0, cfg, p_x=p_x, p_y=p_y))
        links = timed("scoring", lambda: (mse_and_optimal_V(x, dl),
                                          mse_and_optimal_V(y, ul)))
        return x, y, links, links[0][0] + links[1][0], notes, steps

    def mm(it):
        x, y, links = it[:3]
        targets = timed("targets", lambda: (build_sigma_target(links[0][1], x, dl),
                                            build_sigma_target(links[1][1], y, ul)))
        return scored_round(*targets, x, y)

    def record(it, extrapolated=0):
        x, y, links, mse, notes, steps = it
        power, cross, auto = timed("residuals", lambda: _pair_residuals(x, y, cfg))
        for note in notes:
            first.setdefault(note, len(trace.mse))
        row = (mse, cross, auto, power, links[0][0], links[1][0], steps, extrapolated)
        for name, value in zip(TRACE_COLUMNS, row):
            getattr(trace, name).append(value)
        return it

    now = record(scored_round(x_sigma, y_sigma, x, y))
    rounds = cfg.max_outer  # left after the start's
    while rounds:
        theta0, now = now, record(mm(now))
        rounds -= 1
        if cfg.k:
            if not rounds:
                break
            theta1, now = now, record(mm(now))
            rounds -= 1
            t0, t1, t2 = (np.hstack(it[:2]) for it in (theta0, theta1, now))
            r, v = t1 - t0, t2 - 2.0 * t1 + t0
            norm_r, norm_v = np.linalg.norm(r), np.linalg.norm(v)
            if norm_r > norm_v > 0.0:  # alpha < -1
                if not rounds:
                    break
                rounds -= 1
                alpha = -norm_r / norm_v
                target = t0 - 2.0 * alpha * r + alpha**2 * v
                jump = scored_round(target[:, : dl.n_t], target[:, dl.n_t :], *now[:2])
                if jump[3] <= now[3]:
                    now = record(jump, 1)
                else:
                    trace.rejected_extrapolations += 1
        if abs(theta0[3] - now[3]) < cfg.eta:
            trace.converged, trace.stop_reason = True, "eta"
            break

    x = now[0]
    trace.outer_iterations = len(trace.mse) - 1
    trace.warnings = [f"iteration {i}: {note}" for note, i in first.items()]
    # A successful design guarantees the cross-correlation residual relative
    # to the largest lag-0 power; an MSE plateau alone does not count.
    lag0 = float(np.max(np.sum(np.abs(x) ** 2, axis=0)))
    ratio = trace.max_cross[-1] / lag0 if lag0 else np.inf
    if trace.converged and not ratio <= cfg.epsilon:
        trace.converged = False
        trace.warnings.append(f"cross-correlation residual {ratio:.3g} of the "
                              f"lag-0 power exceeds epsilon={cfg.epsilon}")
    return PilotPair(x, now[1], trace.max_power[-1], trace.max_cross[-1],
                     trace.max_auto[-1]), trace


def design_pilots(dl, ul, cfg):
    """Run the full cyclic design; returns (PilotPair, DesignTrace).

    dl/ul are the two link scenarios sharing the training length B; the
    downlink pilot X is B x dl.n_t and the uplink pilot Y is B x ul.n_t.
    For k >= 1 every returned X meets |x_q^H J_m x_q| <= 10^(-1.5)
    ||x_q||^2 (30 dB) for all columns and m = 1..k, besides power <= p,
    the ellipsoids and the cross-correlation zone; k = 0 has no sidelobe
    bound.  Every round is one inner_cycle from the current pair
    (_descend); round 0 goes from the start (_start): for k >= 1 the row
    split, Y's eigenmode pilot above X's seeded impulses, toward its own
    MM targets, so that Y != 0; for k = 0 impulses and Y = 0 toward seeded
    random targets.  Every later round aims at the MM targets of the last
    iterate, or for k >= 1 at a SQUAREM extrapolation, which is kept only
    if it lowers the total MSE.  A column that cannot improve keeps its
    current value, so every MM round is a descent step, the total MSE is
    non-increasing over the trace and the returned pair is the last
    iterate.  Stops when a cycle (one MM round for k = 0) moves the total
    MSE by less than eta, or flags non-convergence once max_outer rounds
    after the start's have run.
    """
    if dl.b != ul.b:
        raise ValueError("link scenarios must share the training length")
    p_x, p_y = column_power_bound(cfg, dl), column_power_bound(cfg, ul)
    t0 = time.perf_counter()
    pair, trace = _descend(dl, ul, cfg, *_start(dl, ul, cfg, p_x, p_y), p_x, p_y)
    trace.wall_time = time.perf_counter() - t0
    return pair, trace
