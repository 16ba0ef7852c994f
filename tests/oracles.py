"""Dense reference forms that the package does not use, kept as the
tests' oracles: the covariances R = R_tx (x) R_rx and M = M_time (x) M_rx,
the lifted pilot Pt = P (x) I, the information form of the MSE, the block
matrix Q, the solved Gram blocks and the dense auxiliary variable
V* = [I; V2], the dense MM curvature and the quadratic form
F(V, P) = trace[V^H Q V]; the full-SVD zone bases; and the reference
iteration and restoration of the designer."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from zczpilot import designer
from zczpilot.estimation import _checked


def chan_cov(s):
    """Dense channel covariance r_tx (x) r_rx of scenario s."""
    return np.kron(s.r_tx, s.r_rx)


def noise_cov(s):
    """Dense noise covariance m_time (x) m_rx of scenario s."""
    return np.kron(s.m_time, s.m_rx)


def embed_pilot(p, n_r):
    """Lift a pilot matrix to the operator acting on vectorized channels.

    For P of shape (B, n_T) returns P (x) I_{n_R} of shape
    (B*n_R, n_T*n_R) without calling a general Kronecker routine.
    """
    p = np.asarray(p, dtype=np.complex128)
    if p.ndim != 2:
        raise ValueError("pilot matrix must be 2-D")
    if n_r < 1:
        raise ValueError("n_r must be positive")
    b, n_t = p.shape
    out = np.zeros((b, n_r, n_t, n_r), dtype=np.complex128)
    rr = np.arange(n_r)
    out[:, rr, :, rr] = p[None, :, :]
    return out.reshape(b * n_r, n_t * n_r)


def hermitian_solve(a, rhs):
    """Solve A X = RHS for Hermitian positive definite A via Cholesky.

    A single diagonal jitter of 1e-12 * trace(A)/n is added if the first
    factorization fails; a second failure raises LinAlgError.
    """
    a = np.asarray(a, dtype=np.complex128)
    rhs = np.asarray(rhs, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("a must be square")
    if rhs.shape[0] != a.shape[0]:
        raise ValueError("rhs does not conform with a")
    try:
        c, low = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        jitter = 1e-12 * float(np.trace(a).real) / a.shape[0]
        a_j = a + jitter * np.eye(a.shape[0])
        try:
            c, low = scipy.linalg.cho_factor(a_j, lower=True, check_finite=False)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as err:
            raise np.linalg.LinAlgError(
                "matrix is singular even after diagonal jitter"
            ) from err
    return scipy.linalg.cho_solve((c, low), rhs, check_finite=False)


def _lifted(p, s):
    return embed_pilot(_checked(p, s), s.n_r)


def channel_mse_direct(p, s):
    """Estimation MSE in the information form (inverts the prior)."""
    pt = _lifted(p, s)
    n = s.n_t * s.n_r
    r_inv = hermitian_solve(chan_cov(s), np.eye(n))
    inner = r_inv + pt.conj().T @ hermitian_solve(noise_cov(s), pt)
    theta = hermitian_solve(inner, np.eye(n))
    return float(np.trace(theta).real)


def build_Q(p, s):
    """Auxiliary block matrix [[R, (Pt R)^H], [Pt R, M + Pt R Pt^H]].

    Positive definite whenever R and M are; its inverse's leading block is
    the inverse of the error covariance, which ties the quadratic form
    trace[V^H Q V] to the estimation MSE.
    """
    pt = _lifted(p, s)
    r = chan_cov(s)
    w = pt @ r
    top = np.hstack([r, w.conj().T])
    bottom = np.hstack([w, noise_cov(s) + w @ pt.conj().T])
    return np.vstack([top, bottom])


@dataclass(frozen=True)
class AuxiliaryV:
    """Stacked auxiliary variable V = [v1; v2] with square top block."""

    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        if self.v1.ndim != 2 or self.v1.shape[0] != self.v1.shape[1]:
            raise ValueError("v1 must be square")
        if self.v2.ndim != 2 or self.v2.shape[1] != self.v1.shape[1]:
            raise ValueError("v2 must have the same column count as v1")

    def stacked(self):
        return np.vstack([self.v1, self.v2])


def solved_blocks(v):
    """The n_r solved Gram blocks Y_i = Phi diag(c_i) Psi of the factors
    v = (Phi, c, Psi) of V* (mse_and_optimal_V), an (n_r, B, n_t) array."""
    phi, c, psi = v
    return (phi * c[:, None, :]) @ psi


def dense_v(v, s):
    """The dense V* = [I; V2] of the factors v (mse_and_optimal_V) of
    scenario s, with V2 = -sum_i lam_i Y_i (x) S[:, i] S^-1[i, :]."""
    # -Z regrouped as rows (b, t) and columns (r, r'): one GEMM of the
    # stacked Y_i against -lam_i S[r, i] S^-1[i, r'].
    y = solved_blocks(v)
    n_r, b, n_t = y.shape
    lam, basis, basis_inv = s.receive_eig
    mix = -lam[:, None, None] * basis.T[:, :, None] * basis_inv[:, None, :]
    v2 = y.reshape(n_r, -1).T @ mix.reshape(n_r, -1)
    v2 = v2.reshape(b, n_t, n_r, n_r).transpose(0, 2, 1, 3).reshape(b * n_r, -1)
    return AuxiliaryV(v1=np.eye(n_t * n_r, dtype=np.complex128), v2=v2)


def mm_model(v, s):
    """The MM quadratic pieces (K, R_tx, G) of the designer's factors, with
    the b x b curvature K = Phi core Phi^H formed densely
    (designer._curvature), so that T(P) = K P R_tx."""
    core, lin = designer._curvature(v, s)
    phi = v[0]
    return phi @ core @ phi.conj().T, s.r_tx, -phi @ lin @ s.r_tx


def surrogate_F(v, p, s):
    """Quadratic form F(V, P) = trace[V^H Q(P) V], evaluated blockwise.

    v is an AuxiliaryV, or the factors of V* taken as their dense_v.  Expanded as
    trace[V1^H R V1] + 2 Re trace[V2^H Pt R V1] + trace[V2^H M V2]
    + trace[(Pt^H V2)^H R (Pt^H V2)] so the big block matrix is never
    formed.
    """
    if not isinstance(v, AuxiliaryV):
        v = dense_v(v, s)
    pt = _lifted(p, s)
    r = chan_cov(s)
    e = pt.conj().T @ v.v2
    term1 = np.einsum("ij,ij->", v.v1.conj(), r @ v.v1)
    term2 = 2.0 * np.einsum("ij,ij->", e.conj(), r @ v.v1).real
    term3 = np.einsum("ij,ij->", v.v2.conj(), noise_cov(s) @ v.v2)
    term4 = np.einsum("ij,ij->", e.conj(), r @ e)
    return float(term1.real + term2 + term3.real + term4.real)


def adjoint_embed(z, n_r):
    """Adjoint of embed_pilot: the block partial trace.

    Satisfies <embed_pilot(P, n_r), Z> = <P, adjoint_embed(Z, n_r)> for
    the trace inner product <A, B> = trace(A^H B); the (b, t) entry is the
    trace of the (b, t) block of z, a (B n_r) x (n_T n_r) matrix.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 2 or z.shape[0] % n_r or z.shape[1] % n_r:
        raise ValueError(f"shape {z.shape} is not divisible into {n_r}x{n_r} blocks")
    b, n_t = z.shape[0] // n_r, z.shape[1] // n_r
    return np.einsum("irjr->ij", z.reshape(b, n_r, n_t, n_r))


def zone_bases(vectors, b):
    """Orthonormal bases (U, C) of span(vectors) and of its orthogonal
    complement in C^b, the zone: the leading and trailing left singular
    vectors of one full SVD, split at the rank counted at 1e-10 times the
    largest singular value.  With no vectors, or only zero ones, U has no
    columns and C is the identity; C without columns means that only the
    zero vector lies in the zone."""
    if not vectors.any():
        return np.zeros((b, 0), dtype=np.complex128), np.eye(b, dtype=np.complex128)
    u, sv, _ = np.linalg.svd(vectors)
    rank = int(np.count_nonzero(sv > 1e-10 * sv[0]))
    return u[:, :rank], u[:, rank:]


def _restored_against(x, y, cfg, p):
    """X restored into the sidelobe bound inside the cross-correlation
    zone of y, with each column's worst sidelobe ratio and the number of
    restoration steps; for k = 0, X, zero ratios and no steps."""
    if not cfg.k:
        return x, np.zeros(x.shape[1]), 0
    span = designer._zone_basis(y, x.shape[0], cfg, False)
    return designer._restore_sidelobes(designer._in_zone(span, x), span,
                                       designer._resolve_p(cfg, p), cfg.k,
                                       cfg.literal_transpose)


def alternate_until_stable(x_sigma, y_sigma, x0, y0, cfg, p_x=None, p_y=None,
                           mu=50, inner_tol=1e-8):
    """Reference outer iteration in the order the designer once took, a
    drop-in for zczpilot.designer.inner_cycle: alternate x_step/y_step
    toward the targets for at most mu rounds, stopping once a round moves
    the pair by at most inner_tol; then, for k >= 1, restore X from the
    zone projection of x_sigma against the final Y; hold every column of X
    that ends farther from its target than x0's, or over the sidelobe
    bound, at x0's column; project Y against that X and hold every column
    of Y that ends farther from its target than y0's at y0's.  Returns
    (X, Y, notes, steps) like inner_cycle, with its note texts: a downlink
    zone of {0} against the final Y, each held column with its residual,
    and an uplink zone of {0} against the held X; steps counts the solves
    of the one restoration.

    The start is recognised by a zero y0 (the designer starts from Y = 0):
    there is no Y to alternate with yet, so X is restored and held right
    after its first step, which is also what the designer's start does.
    """
    x = designer.x_step(x_sigma, y0, cfg, p=p_x)
    y = y0
    if np.any(y0):
        y = designer.y_step(y_sigma, x, cfg, p=p_y)
        for _ in range(mu - 1):
            x_new = designer.x_step(x_sigma, y, cfg, p=p_x)
            y_new = designer.y_step(y_sigma, x_new, cfg, p=p_y)
            move = max(np.linalg.norm(x_new - x), np.linalg.norm(y_new - y))
            x, y = x_new, y_new
            if move <= inner_tol:
                break
    # at k >= 1 the restoration starts from the zone projection of x_sigma
    # against the final Y, without x_step's cap: its last cap is the only one
    x, worst, steps = _restored_against(x_sigma if cfg.k else x, y, cfg, p_x)
    over = worst > designer.SIDELOBE_DELTA
    collapsed = ("{} cross-correlation constraints span the whole space; "
                 "returning zero columns")
    b = x.shape[0]

    def collapses(fixed, transpose_shift):
        return designer._zone_basis(fixed, b, cfg, transpose_shift).shape[1] == b

    notes = [collapsed.format("downlink")] if collapses(y, False) else []
    notes += [
        f"column {q} keeps its current value: its sidelobe restoration "
        f"ended at residual {worst[q]:.3g} > {designer.SIDELOBE_DELTA:.3g}"
        for q in np.flatnonzero(over)
    ]
    far = np.linalg.norm(x - x_sigma, axis=0) > np.linalg.norm(x0 - x_sigma, axis=0)
    x = np.where(over | far, x0, x)
    y = designer.y_step(y_sigma, x, cfg, p=p_y)
    far = np.linalg.norm(y - y_sigma, axis=0) > np.linalg.norm(y0 - y_sigma, axis=0)
    y = np.where(far, y0, y)
    if collapses(x, True):
        notes.append(collapsed.format("uplink"))
    return x, y, notes, steps
