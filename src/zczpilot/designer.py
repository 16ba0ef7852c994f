"""Cyclic MMSE design of paired downlink/uplink pilot matrices.

Each outer iteration refreshes the closed-form auxiliary minimizers for
both link directions, builds majorize-minimize targets for the two pilot
blocks, and then takes one round (inner_cycle) toward the constraint
sets, X first and then Y against the new X: per-column power balls, zero
cross-correlation between the two pilots over a lag window, and the
convexified low-autocorrelation ellipsoids on the downlink (sensing)
pilot.  The start is iteration 0 of the same loop: the round from random
targets, taken from the feasible pair of unit impulses X0 and Y0 = 0.

The channel covariance of either link is the Kronecker product
R = R_tx (x) R_rx of the scenario's factors, so the curvature of the MM
quadratic is T(P) = K P R_tx with a b x b PSD matrix K, and the step size
is the exact norm lam_max(K) lam_max(R_tx) of T, with a 10% margin.
estimation.mse_and_optimal_V scores each iterate and returns V* as the
factors (Phi, c, Psi) of its solved blocks, from which _curvature takes
the next MM target: K = Phi core Phi^H has rank <= n_t, so no b x b
eigenvalue problem, dense V2 or channel covariance is formed.

Both pilots see one zero-correlation zone.  Its constraint vectors are
the fixed pilot shifted by each lag, one slice per lag (_shifted), and
one SVD rank rule turns them into an orthonormal nullspace basis C
(_nullspace).  Both steps are the same zone projection: C C^H t, then
the shrink into the ball and, for the downlink, the ellipsoids
(_shrink_into_sets).  For the uplink (no ellipsoids) that is the exact
projection; for the downlink with k >= 1 it is a feasible point near the
target.  A round builds the downlink C once, and the restoration below
works inside it.

The ellipsoids only bound Re r_m <= p - ||x||^2 for the sidelobe
r_m(x) = x^H J_m x, so for k >= 1 every round holds every column of the
sensing pilot to the 30 dB bound |r_m(x_q)| <= 10^(-1.5) ||x_q||^2,
m = 1..k, between its two steps: Gauss-Newton minimum-norm steps inside
the cross-correlation nullspace of the current Y, taken by all violating
columns together (one batched solve per step), and a power cap restore X
before Y is projected against it.  A column of X that then ends farther
from its MM target than the current column, or over the bound, keeps
the current column, which is feasible.  The MM majorizer is separable by
column, and the current Y is a candidate of the exact Y step, so every
round is a descent step and every iterate is feasible (as in the
constraint-handling MM of Sun, Babu & Palomar, IEEE TSP 2017): the total
estimation MSE of the two links is non-increasing across outer
iterations for every k.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .estimation import mse_and_optimal_V

_TINY = 1e-300

# Safety margin of the MM step size over the operator norm of the curvature.
_OPNORM_MARGIN = 1.1

# Sensing-pilot sidelobe bound: |x_q^H J_m x_q| <= SIDELOBE_DELTA ||x_q||^2
# for m = 1..k, i.e. lags 1..k at least 30 dB below lag 0.
SIDELOBE_BOUND_DB = 30.0
SIDELOBE_DELTA = 10.0 ** (-SIDELOBE_BOUND_DB / 20.0)
# Restoration works to a level just inside the bound, so that a column it
# has restored is not moved again by the next restoration, and rounding
# cannot put the design a hair outside 30 dB.
_RESTORE_LEVEL = 0.99 * SIDELOBE_DELTA
_RESTORE_DONE = _RESTORE_LEVEL * (1.0 + 1e-9)
# Lags within this band below the level are held at it too: with only the
# lags above it active, two lags near it take turns, each step pushing one
# back and letting the other rise, for 17-26 steps where 3 do.
_RESTORE_ACTIVE = _RESTORE_LEVEL * (1.0 - 1e-6)
_RESTORE_MAX_STEPS = 50


class DegenerateConstraintWarning(UserWarning):
    """Cross-correlation constraints admit only the zero column."""


class HeldColumnWarning(RuntimeWarning):
    """A column of X kept its value: its restoration ended over the bound."""


class DesignError(RuntimeError):
    """Every run of a Monte-Carlo design failed (monte_carlo_design)."""


@dataclass(frozen=True)
class DesignConfig:
    """Designer knobs.

    k is the correlation zone depth (lags 1..k of every downlink column's
    autocorrelation are held 30 dB below lag 0, SIDELOBE_BOUND_DB;
    cross-correlation is zeroed on lags 0..k, or 1..k with
    lags_from_one).  p is the per-column power bound; leave
    None to derive gamma/n_columns per link.  literal_transpose switches
    correlations from the conjugated form x^H J y to the plain transpose.
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


def _shifted(x, k, back=False):
    """J_m x for m = 0..k as a (k+1, b, n) stack, J_m^T x with back.

    One slice per lag: J_m x advances the columns by m rows with zero
    fill, J_m^T x delays them; lags m >= b give zeros."""
    b = x.shape[0]
    out = np.zeros((k + 1,) + x.shape, dtype=x.dtype)
    for m in range(min(k, b - 1) + 1):
        if back:
            out[m, m:] = x[: b - m]
        else:
            out[m, : b - m] = x[m:]
    return out


def _cross_vectors(fixed, cfg, transpose_shift):
    """Constraint vectors a with a^H x = 0 zeroing correlation against `fixed`.

    For the downlink step the vectors are J_m y_l; for the uplink step
    J_m^T x_q; m runs over 0..k, or 1..k with lags_from_one, lag-major.
    Under the literal-transpose convention the constraint is on x^T J y,
    i.e. the conjugated vectors.
    """
    fixed = np.asarray(fixed, dtype=np.complex128)
    a = _shifted(fixed, cfg.k, transpose_shift)[1 if cfg.lags_from_one else 0 :]
    a = a.transpose(1, 0, 2).reshape(fixed.shape[0], -1)
    return a.conj() if cfg.literal_transpose else a


def _column_power(t):
    return np.einsum("ij,ij->j", t.real, t.real) + np.einsum(
        "ij,ij->j", t.imag, t.imag
    )


def _autocorr(x, k, literal):
    """r[m-1, q] = x_q^H J_m x_q, m = 1..k (x_q^T J_m x_q under literal)."""
    return np.einsum("bq,mbq->mq", x if literal else x.conj(), _shifted(x, k)[1:])


def _shrink_into_sets(x, k, p):
    """Scale each column of x down until the ball and the ellipsoids hold.

    The ellipsoid value is x^H (J_m + J_m^T + 2I) x = 2(||x||^2 + Re x^H J_m x)
    (J_m is real), so the ellipsoid m holds iff ||x||^2 + Re r_m <= p.  With
    k = 0 this is the shrink into the ball; the initial 0 of the
    reduction is below ||x||^2 and leaves the maximum unchanged.
    """
    n2 = _column_power(x)
    top = np.maximum(
        n2, (n2 + _autocorr(x, k, False).real).max(axis=0, initial=0.0)
    )
    return x * np.sqrt(np.where(top > p, p / np.maximum(top, _TINY), 1.0))


def _nullspace(vectors, b):
    """Orthonormal basis C of span(vectors)^perp.

    The trailing left singular vectors of one full SVD, past the rank
    counted at 1e-10 times the largest singular value; the identity when
    there are no vectors or all of them are zero.  No columns means that
    only the zero vector meets the constraints.
    """
    if not vectors.any():
        return np.eye(b, dtype=np.complex128)
    u, sv, _ = np.linalg.svd(vectors)
    return u[:, int(np.count_nonzero(sv > 1e-10 * sv[0])):]


def _in_nullspace(null, t):
    """C C^H t, the projection of t's columns onto span(C).

    C = I (no constraint) returns t itself, so an unconstrained step keeps
    its values and memory layout, and with them the summation order of
    the BLAS calls that follow.
    """
    return t if null.shape[1] == null.shape[0] else null @ (null.conj().T @ t)


def _resolve_p(cfg, p):
    p = cfg.p if p is None else p
    if p is None:
        raise ValueError("no per-column power bound: set cfg.p or pass p")
    if not 0 < p < np.inf:
        raise ValueError("p must be positive and finite")
    return float(p)


def _zone_basis(fixed, b, cfg, transpose_shift):
    """Orthonormal basis C of the zone against `fixed`: the nullspace of
    its cross vectors (_cross_vectors) in C^b."""
    if cfg.k >= b:
        raise ValueError(f"k={cfg.k} must be smaller than the training length {b}")
    fixed = np.asarray(fixed, dtype=np.complex128).reshape(b, -1)
    return _nullspace(_cross_vectors(fixed, cfg, transpose_shift), b)


def _project_zone(target, null, p, k):
    """Move each target column into {||t||^2 <= p} ∩ {t^H (J_m^T + J_m +
    2I) t <= 2p, m = 1..k} ∩ span(null), null a zone basis C.

    The columns are projected onto the zone (C C^H t) and then shrunk
    into the ball and the ellipsoids (_shrink_into_sets).  With k = 0
    this is the exact projection; with k >= 1 it is a feasible point, not
    the nearest one.  If C has no columns only t = 0 is feasible; the
    columns are then zeroed under a DegenerateConstraintWarning.
    """
    if not null.shape[1]:
        warnings.warn(
            "cross-correlation constraints span the whole space; "
            "returning zero columns",
            DegenerateConstraintWarning,
            stacklevel=3,
        )
        return np.zeros_like(target)
    return _shrink_into_sets(_in_nullspace(null, target), k, p)


def x_step(x_target, y_fixed, cfg, p=None):
    """Move each target column into the downlink constraint set.

    The set per column is {||x||^2 <= p} ∩ {x^H J_m y_l = 0 for all fixed
    columns y_l and lags m} ∩ {x^H (J_m^T + J_m + 2I) x <= 2p, m = 1..k}
    (_project_zone): the zone projection, then the shrink into the ball
    and the ellipsoids.
    """
    x_target = np.asarray(x_target, dtype=np.complex128)
    null = _zone_basis(y_fixed, x_target.shape[0], cfg, False)
    return _project_zone(x_target, null, _resolve_p(cfg, p), cfg.k)


def y_step(y_target, x_fixed, cfg, p=None):
    """Project each target column onto the uplink constraint set (exact).

    The set is {||y||^2 <= p} ∩ {x_q^H J_m y = 0 for all fixed columns and
    lags}: the k = 0 case of the downlink step, with the transposed
    shifts J_m^T x_q as cross vectors.
    """
    y_target = np.asarray(y_target, dtype=np.complex128)
    null = _zone_basis(x_fixed, y_target.shape[0], cfg, True)
    return _project_zone(y_target, null, _resolve_p(cfg, p), 0)


def inner_cycle(x_sigma, y_sigma, x0, y0, cfg, p_x=None, p_y=None):
    """One round toward the MM targets from the current pair (x0, y0).

    X is the zone projection of x_sigma against y0; for k >= 1 it is then
    restored into the sidelobe bound inside the same zone basis
    (_restore_sidelobes; a column already inside takes no step).  A column
    that ends farther from its target than x0's, or over the bound (a
    HeldColumnWarning names it), keeps x0's column.  Y = y_step(y_sigma)
    against that X.  Returns (X, Y).

    x0 lies in y0's zone, the ball, the ellipsoids and the bound, so every
    column of X does too, and none is farther from its target than x0's:
    the MM majorizer is separable by column, so X does not raise it.  The
    zone is symmetric, so y0 is a candidate of the exact Y step, and Y
    does not raise its majorizer either.  The round is a descent step for
    every k.
    """
    x_sigma = np.asarray(x_sigma, dtype=np.complex128)
    p_x = _resolve_p(cfg, p_x)
    null = _zone_basis(y0, x_sigma.shape[0], cfg, False)
    x = _project_zone(x_sigma, null, p_x, cfg.k)
    over = np.zeros(x.shape[1], dtype=bool)
    if cfg.k:
        x, worst = _restore_sidelobes(x, null, p_x, cfg)
        over = worst > SIDELOBE_DELTA
        for q in np.flatnonzero(over):
            warnings.warn(
                f"column {q} keeps its current value: its sidelobe "
                f"restoration ended at residual {worst[q]:.3g} > "
                f"{SIDELOBE_DELTA:.3g}",
                HeldColumnWarning,
                stacklevel=2,
            )
    far = _column_power(x - x_sigma) > _column_power(x0 - x_sigma)
    x = np.where(over | far, x0, x)
    return x, y_step(y_sigma, x, cfg, p=p_y)


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
    with PSD factors, so its norm is exactly lam_max(K) lam_max(R_tx), with
    lam_max(R_tx) cached on the scenario; lam adds a 10% safety margin.
    v is the link's V*, its factors (Phi, c, Psi): K = Phi core Phi^H and
    G = -Phi D R_tx (_curvature), so T(P0) + G = Phi (core Phi^H P0 - D)
    R_tx, and with Phi^H Phi = A^H A, lam_max(K) = lam_max(A core A^H),
    both n_t x n_t.  A comes from the Gram of Phi's columns scaled to unit
    norm, so that its rounding is relative to each column.  A zero Phi
    (V2 = 0) makes F constant in P and returns P0, without an eigenvalue
    solve.
    """
    p_current = np.asarray(p_current, dtype=np.complex128)
    if p_current.shape != (s.b, s.n_t):
        raise ValueError(
            f"pilot shape {p_current.shape}, scenario expects {(s.b, s.n_t)}"
        )
    phi = v[0]
    if phi.shape != (s.b, s.n_t) or v[1].shape != (s.n_r, s.n_t):
        raise ValueError("auxiliary variable does not conform with the scenario")
    if not phi.any():
        return p_current.copy()
    core, lin = _curvature(v, s)
    norms = np.linalg.norm(phi, axis=0) + _TINY
    unit = phi / norms
    gram, u = np.linalg.eigh(unit.conj().T @ unit)
    root = (np.sqrt(np.maximum(gram, 0.0))[:, None] * u.conj().T) * norms
    lam = np.linalg.eigvalsh(root @ core @ root.conj().T)[-1]
    lam *= _OPNORM_MARGIN * s.r_tx_max_eig
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


@dataclass
class DesignTrace:
    """Per-outer-iteration progress (entry 0 is the initialization); the
    total MSE is mse = mse_dl + mse_ul, the two links' estimation MSE.
    stop_reason says what ended the outer loop: "eta" (the MSE moved by
    less than eta) or "max_outer"."""

    mse: list[float] = field(default_factory=list)
    mse_dl: list[float] = field(default_factory=list)
    mse_ul: list[float] = field(default_factory=list)
    max_cross: list[float] = field(default_factory=list)
    max_auto: list[float] = field(default_factory=list)
    max_power: list[float] = field(default_factory=list)
    converged: bool = False
    stop_reason: str = "max_outer"
    outer_iterations: int = 0
    wall_time: float = 0.0
    warnings: list[str] = field(default_factory=list)


def _record(trace, mse, links, residuals):
    """Append an iterate's total and per-link MSE (the links of a score)
    and its residuals (_pair_residuals) to the trace."""
    trace.mse.append(mse)
    trace.mse_dl.append(links[0][0])
    trace.mse_ul.append(links[1][0])
    trace.max_power.append(residuals[0])
    trace.max_cross.append(residuals[1])
    trace.max_auto.append(residuals[2])


def _sidelobes(x, k, literal):
    """Normalized sidelobes h[m-1, q] = r_m(x_q) / ||x_q||^2, 0 for zero columns."""
    r = _autocorr(x, k, literal)
    s = _column_power(x)
    return r / np.where(s > 0.0, s, 1.0)


def _restore_sidelobes(x, null, p, cfg):
    """Move every column of x inside the sidelobe bound, then cap its power.

    Columns are projected onto span(null), null the cross-correlation
    nullspace basis C.  Every column with max_m |h_m| > _RESTORE_DONE,
    h_m = r_m / ||x||^2, then takes Gauss-Newton steps, all together: the
    minimum-norm real step in span(C) that sets the linearized |h_m| of
    each lag above _RESTORE_ACTIVE (just below _RESTORE_LEVEL) to the
    level, from a batched pseudo-inverse of each column's k x k real
    Gram; under the mask a finished column has no active lag and takes an
    exact zero step.  The final scaling into the ball and the ellipsoids
    keeps the nullspace and every |h_m|.  Returns the matrix and each
    column's max_m |h_m|.
    """
    x = _in_nullspace(null, x)
    for step in range(_RESTORE_MAX_STEPS + 1):
        h = _sidelobes(x, cfg.k, cfg.literal_transpose)
        mag = np.abs(h)
        worst = mag.max(axis=0)
        on = worst > _RESTORE_DONE
        if step == _RESTORE_MAX_STEPS or not on.any():
            break
        jx, jtx = _shifted(x, cfg.k)[1:], _shifted(x, cfg.k, back=True)[1:]
        # Real gradient of |h_m| packed as Re + i Im, so that
        # d|h_m| = Re(grad^H dx); lags below the active band get none.
        if cfg.literal_transpose:
            grad = h[:, None] * (jx + jtx).conj()
        else:
            grad = h[:, None] * jtx + h.conj()[:, None] * jx
        act = (mag > _RESTORE_ACTIVE) & on
        norm = np.where(act, mag * _column_power(x), np.inf)[:, None]
        grad = (grad - 2.0 * (mag**2)[:, None] * x) / norm
        grad = _in_nullspace(null, grad.transpose(2, 1, 0))
        gram = np.real(grad.conj().transpose(0, 2, 1) @ grad)
        rhs = np.where(act, _RESTORE_LEVEL - mag, 0.0).T[:, :, None]
        x = x + (grad @ (np.linalg.pinv(gram) @ rhs))[:, :, 0].T
    return _shrink_into_sets(x, cfg.k, p), worst


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


def design_pilots(dl, ul, cfg):
    """Run the full cyclic design; returns (PilotPair, DesignTrace).

    dl/ul are the two link scenarios sharing the training length B; the
    downlink pilot X is B x dl.n_t and the uplink pilot Y is B x ul.n_t.
    For k >= 1 every returned X meets |x_q^H J_m x_q| <= 10^(-1.5)
    ||x_q||^2 (30 dB) for all columns and m = 1..k, besides power <= p,
    the ellipsoids and the cross-correlation zone; k = 0 has no sidelobe
    bound.  Every iteration is one inner_cycle from the current pair toward
    its MM targets; iteration 0 goes from the feasible X0 = unit impulses
    of power p_x (column q at row q mod B; no sidelobes) and Y0 = 0 toward
    seeded random targets.  A column that cannot improve keeps its current
    value, so every round is a descent step, the total MSE is
    non-increasing and the returned pair is the last iterate.  Stops when
    an outer iteration moves the total MSE by less than eta, or flags
    non-convergence at max_outer.
    """
    if dl.b != ul.b:
        raise ValueError("link scenarios must share the training length")
    p_x, p_y = column_power_bound(cfg, dl), column_power_bound(cfg, ul)

    def score(x, y):
        """Total MSE of a pair and each link's (mse, V*): one factoring
        of the Gram blocks per link, reused for the next MM target."""
        links = (mse_and_optimal_V(x, dl), mse_and_optimal_V(y, ul))
        return links[0][0] + links[1][0], links

    t0 = time.perf_counter()
    trace = DesignTrace()
    rng = np.random.default_rng(cfg.seed)
    x_sigma = rng.standard_normal((dl.b, dl.n_t)) + 1j * rng.standard_normal(
        (dl.b, dl.n_t)
    )
    y_sigma = rng.standard_normal((ul.b, ul.n_t)) + 1j * rng.standard_normal(
        (ul.b, ul.n_t)
    )
    x = np.zeros((dl.b, dl.n_t), dtype=np.complex128)
    x[np.arange(dl.n_t) % dl.b, np.arange(dl.n_t)] = np.sqrt(p_x)
    y = np.zeros((ul.b, ul.n_t), dtype=np.complex128)
    mse = np.inf  # so that iteration 0 cannot stop by eta

    with warnings.catch_warnings(record=True) as caught:
        for kind in (HeldColumnWarning, DegenerateConstraintWarning):
            warnings.simplefilter("always", kind)
        for it in range(cfg.max_outer + 1):
            if it:
                x_sigma = build_sigma_target(links[0][1], x, dl)
                y_sigma = build_sigma_target(links[1][1], y, ul)
            x, y = inner_cycle(x_sigma, y_sigma, x, y, cfg, p_x=p_x, p_y=p_y)
            prev = mse
            mse, links = score(x, y)
            _record(trace, mse, links, _pair_residuals(x, y, cfg))
            trace.outer_iterations = it
            if abs(prev - mse) < cfg.eta:
                trace.converged = True
                trace.stop_reason = "eta"
                break

    trace.warnings = list(dict.fromkeys(str(w.message) for w in caught))
    pair = PilotPair(
        x=x,
        y=y,
        max_column_power=trace.max_power[-1],
        max_cross_corr=trace.max_cross[-1],
        max_auto_corr=trace.max_auto[-1],
    )
    # A successful design guarantees the cross-correlation residual; an
    # MSE plateau alone does not count.
    if trace.converged and pair.max_cross_corr > cfg.epsilon:
        trace.converged = False
        trace.warnings.append(
            f"cross-correlation residual {pair.max_cross_corr:.3g} exceeds "
            f"epsilon={cfg.epsilon}"
        )
    trace.wall_time = time.perf_counter() - t0
    return pair, trace
