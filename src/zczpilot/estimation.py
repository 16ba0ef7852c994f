"""MMSE channel estimation for a pilot-trained MIMO link.

The training model is Yrx = H P^T + N with H the n_r x n_t channel, P the
B x n_t pilot matrix and N temporally correlated noise.  Vectorizing gives
vec(Yrx) = (P (x) I) vec(H) + vec(N), and the Bayesian estimator error is

    mse = trace[(R^-1 + Pt^H M^-1 Pt)^-1],    Pt = P (x) I_{n_r}.

The matrix inversion lemma turns this into trace[R] minus a correction
that never inverts R, which is the form used in hot loops and for
rank-deficient priors.  A scenario holds both covariances as Kronecker
factors, R = R_tx (x) R_rx and M = M_time (x) M_rx, so the
(B n_r)-dimensional Gram of that correction splits into n_r blocks of size
B x B in the joint eigenbasis of the two receive factors
(ChannelScenario.receive_eig; Kotecha & Sayeed, IEEE TSP 2004), and the
training noise is coloured through its factors.  The noise receive factor
must be positive definite.  The dense forms (channel_mse_direct, build_Q,
surrogate_F) remain as references.  The
auxiliary-variable machinery (block matrix Q, minimizer V*, surrogate F)
restates the same quantity as a quadratic form that is linear
algebra-friendly for the pilot designer.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensorops import embed_pilot, hermitian_solve


def _checked(p, s):
    p = np.asarray(p, dtype=np.complex128)
    if p.shape != (s.b, s.n_t):
        raise ValueError(f"pilot shape {p.shape}, scenario expects {(s.b, s.n_t)}")
    return p


def _lifted(p, s):
    return embed_pilot(_checked(p, s), s.n_r)


def channel_mse_direct(p, s):
    """Estimation MSE in the information form (inverts the prior).

    Reference implementation used for cross-checks; prefer
    :func:`channel_mse_lemma` in loops and for singular priors.
    """
    pt = _lifted(p, s)
    n = s.n_t * s.n_r
    r_inv = hermitian_solve(s.chan_cov, np.eye(n))
    inner = r_inv + pt.conj().T @ hermitian_solve(s.noise_cov, pt)
    theta = hermitian_solve(inner, np.eye(n))
    return float(np.trace(theta).real)


def channel_mse_lemma(p, s):
    """Estimation MSE via the matrix inversion lemma.

    Computes trace[R] - trace[(Pt R)^H (M + Pt R Pt^H)^-1 (Pt R)] through
    the n_r Gram blocks of :func:`mse_and_optimal_V`; R may be singular.
    """
    return mse_and_optimal_V(p, s)[0]


def build_Q(p, s):
    """Auxiliary block matrix [[R, (Pt R)^H], [Pt R, M + Pt R Pt^H]].

    Positive definite whenever R and M are; its inverse's leading block is
    the inverse of the error covariance, which ties the quadratic form
    trace[V^H Q V] to the estimation MSE.
    """
    pt = _lifted(p, s)
    w = pt @ s.chan_cov
    top = np.hstack([s.chan_cov, w.conj().T])
    bottom = np.hstack([w, s.noise_cov + w @ pt.conj().T])
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


@dataclass(frozen=True, eq=False)
class FactoredV:
    """V* = [I; V2] held as the solved Gram blocks of mse_and_optimal_V:
    y[i] = G_i^-1 Q (n_r x B x n_t), lam, basis = S and basis_inv = S^-1
    of ChannelScenario.receive_eig, and the MSE weights
    weights[i] = lam_i^2 ||S^-1[i, :]||^2.  The dense v1 = I and
    v2 = -sum_i lam_i Y_i (x) S[:, i] S^-1[i, :] are built on first read."""

    y: np.ndarray
    lam: np.ndarray
    weights: np.ndarray
    basis: np.ndarray
    basis_inv: np.ndarray

    @cached_property
    def v1(self):
        return np.eye(self.y.shape[2] * self.y.shape[0], dtype=np.complex128)

    @cached_property
    def v2(self):
        # -Z regrouped as rows (b, t) and columns (r, r'): one GEMM of the
        # stacked Y_i against -lam_i S[r, i] S^-1[i, r'].
        n_r, b, n_t = self.y.shape
        s, s_inv = self.basis, self.basis_inv
        mix = -self.lam[:, None, None] * s.T[:, :, None] * s_inv[:, None, :]
        v2 = self.y.reshape(n_r, -1).T @ mix.reshape(n_r, -1)
        return v2.reshape(b, n_t, n_r, n_r).transpose(0, 2, 1, 3).reshape(b * n_r, -1)


def mse_and_optimal_V(p, s):
    """Lemma MSE and the minimizer V* from the Kronecker factors of the Gram.

    With W = Pt R and G = M + W Pt^H, Z = G^-1 W gives both
    mse = trace[R] - Re trace[W^H Z] and V* = [I; -Z].  For
    R = R_tx (x) R_rx and M = M_time (x) M_rx, W is Q (x) R_rx with
    Q = P R_tx, and G = A1 (x) R_rx + M_time (x) M_rx with A1 = Q P^H.  The
    receive basis S of the scenario (S^H M_rx S = I,
    S^H R_rx S = diag(lam)) turns G into n_r blocks
    G_i = lam_i A1 + M_time of size B x B, so one batched solve
    Y_i = G_i^-1 Q gives Z = sum_i lam_i Y_i (x) S[:, i] S^-1[i, :] and
    mse = trace[R] - sum_i w_i Re trace[Q^H Y_i], w_i = lam_i^2
    ||S^-1[i, :]||^2.  V* is returned as those blocks (FactoredV), from
    which the designer builds its MM target.  Raises LinAlgError when M_rx
    or a block is singular.
    """
    p = _checked(p, s)
    lam, basis, basis_inv = s.receive_eig
    q = p @ s.r_tx
    blocks = lam[:, None, None] * (q @ p.conj().T)
    blocks += s.m_time
    y = np.linalg.solve(blocks, q)
    n_r = y.shape[0]
    # Re trace[Q^H Y_i] for every block i at once.
    fits = (y.reshape(n_r, -1) @ q.conj().ravel()).real
    weights = lam**2 * np.linalg.norm(basis_inv, axis=1) ** 2
    mse = float(np.trace(s.r_tx).real * np.trace(s.r_rx).real - weights @ fits)
    return mse, FactoredV(y, lam, weights, basis, basis_inv)


def optimal_V(p, s):
    """Minimizer of trace[V^H Q V] over V with fixed top block I.

    V* = [I; -(M + Pt R Pt^H)^-1 Pt R]; at this point the quadratic form
    equals the estimation MSE.
    """
    return mse_and_optimal_V(p, s)[1]


def surrogate_F(v, p, s):
    """Quadratic form F(V, P) = trace[V^H Q(P) V], evaluated blockwise.

    Expanded as trace[V1^H R V1] + 2 Re trace[V2^H Pt R V1]
    + trace[V2^H M V2] + trace[(Pt^H V2)^H R (Pt^H V2)] so the big block
    matrix is never formed.
    """
    pt = _lifted(p, s)
    r = s.chan_cov
    e = pt.conj().T @ v.v2
    term1 = np.einsum("ij,ij->", v.v1.conj(), r @ v.v1)
    term2 = 2.0 * np.einsum("ij,ij->", e.conj(), r @ v.v1).real
    term3 = np.einsum("ij,ij->", v.v2.conj(), s.noise_cov @ v.v2)
    term4 = np.einsum("ij,ij->", e.conj(), r @ e)
    return float(term1.real + term2 + term3.real + term4.real)


@dataclass(frozen=True)
class TrainingRealization:
    """One draw of channel, noise and received training block."""

    h: np.ndarray
    noise: np.ndarray
    yrx: np.ndarray


def _covariance_factor(c):
    """Factor F with F F^H = C; Cholesky when possible, eigen fallback."""
    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        w, u = np.linalg.eigh(c)
        return u * np.sqrt(np.clip(w, 0.0, None))[None, :]


def _circular_gaussian(z):
    """CN(0, I) rows from N(0, 1) rows laid out as [real parts, imaginary parts]."""
    k = z.shape[-1] // 2
    return (z[:, :k] + 1j * z[:, k:]) / np.sqrt(2.0)


# Seeds per block of _white_blocks.  A block's white draws and estimation
# errors are held at once, so this bounds the simulator's memory for any
# trial count: the white draws of 64 trials on an 8x8, B = 64 link are
# 0.6 MB.  Larger blocks are no faster, since a trial's cost is mostly
# its generator's set-up.
_TRIAL_BLOCK = 64


def _white_blocks(s, seeds):
    """Yield the real white draws of each block of seeds, row j for the
    j-th seed of the block: the real then imaginary parts of the channel's
    white vector, then those of the noise's, from the seed's own
    generator, so a seed reproduces its realization in any block."""
    width = 2 * (s.n_t + s.b) * s.n_r
    for start in range(0, len(seeds), _TRIAL_BLOCK):
        block = seeds[start:start + _TRIAL_BLOCK]
        white = np.empty((len(block), width))
        for row, seed in zip(white, block):
            np.random.default_rng(seed).standard_normal(out=row)
        yield white


def _colouring(s):
    """(F_h, F_time, F_rx) with vec(H) = F_h w and vec(N) = (F_time (x)
    F_rx) w for white w: the noise factor is taken from the Kronecker
    factors, since the Cholesky factor of M_time (x) M_rx is
    L_time (x) L_rx."""
    return (
        _covariance_factor(s.chan_cov),
        _covariance_factor(s.m_time),
        _covariance_factor(s.m_rx),
    )


def _training_draws(s, seeds):
    """Yield (h, noise) blocks with row j holding vec(H) ~ CN(0, R) and
    vec(N) ~ CN(0, M) for the j-th seed of the block (_white_blocks).

    The noise factor acts on the b x n_r view W of each white vector as
    F_time W F_rx^T.
    """
    f_h, f_time, f_rx = _colouring(s)
    n_h = 2 * s.n_t * s.n_r
    for white in _white_blocks(s, seeds):
        h = _circular_gaussian(white[:, :n_h]) @ f_h.T
        w = _circular_gaussian(white[:, n_h:]).reshape(len(white), s.b, s.n_r)
        yield h, (f_time @ w @ f_rx.T).reshape(len(white), -1)


def simulate_training(p, s, seed, noise_scale=1.0):
    """Draw H ~ CN(0, R), N ~ CN(0, M) and form Yrx = H P^T + noise_scale*N.

    The channel is drawn before the noise from a single generator, so a
    fixed seed reproduces the realization bit for bit.  noise_scale=0
    gives the noiseless received block exactly.
    """
    p = _checked(p, s)
    h_vec, n_vec = next(_training_draws(s, [seed]))
    h = h_vec[0].reshape((s.n_r, s.n_t), order="F")
    noise = noise_scale * n_vec[0].reshape((s.n_r, s.b), order="F")
    return TrainingRealization(h=h, noise=noise, yrx=h @ p.T + noise)


def _estimator(p, s):
    """The lemma MSE and the MMSE estimator W^H G^-1 = Z^H, both from the
    solve Z = G^-1 W behind V* = [I; -Z] in :func:`mse_and_optimal_V`
    (G and R are Hermitian)."""
    mse, v = mse_and_optimal_V(p, s)
    return mse, -v.v2.conj().T


def mmse_estimate(yrx, p, s):
    """Bayesian channel estimate vec(H^) = R Pt^H (M + Pt R Pt^H)^-1 vec(Yrx)."""
    yrx = np.asarray(yrx, dtype=np.complex128)
    if yrx.shape != (s.n_r, s.b):
        raise ValueError(f"yrx shape {yrx.shape}, expected {(s.n_r, s.b)}")
    h_vec = _estimator(p, s)[1] @ yrx.reshape(-1, order="F")
    return h_vec.reshape((s.n_r, s.n_t), order="F")


def mmse_squared_errors(p, s, seeds):
    """The lemma MSE of p and ||H^ - H||_F^2 of the MMSE estimate for each
    seed's training draw.

    Draw for draw the same as simulate_training followed by mmse_estimate
    per seed, to rounding.  The error E (Pt vec(H) + vec(N)) - vec(H) of
    the estimator E is linear in the white draws, (E Pt - I) F_h w_h +
    E (F_time (x) F_rx) w_n, so its map is built once per call (the noise
    part factor-wise on the b x n_r view of E's rows) and each block of
    seeds costs one real matrix product.  The MSE comes from the same
    block solve as the estimator.
    """
    pt = _lifted(p, s)
    mse, est = _estimator(p, s)
    f_h, f_time, f_rx = _colouring(s)
    n = s.n_t * s.n_r
    gain_h = (est @ pt - np.eye(n)) @ f_h
    gain_n = (f_time.T @ est.reshape(n, s.b, s.n_r) @ f_rx).reshape(n, -1)
    # Rows in the layout of the white draws: real, imaginary parts of the
    # channel's, then of the noise's; columns the real, imaginary parts of
    # the error.
    gain = np.vstack([gain_h.T, 1j * gain_h.T, gain_n.T, 1j * gain_n.T])
    gain = np.hstack([gain.real, gain.imag]) / np.sqrt(2.0)
    errs = np.empty(len(seeds))
    done = 0
    for white in _white_blocks(s, seeds):
        err = white @ gain
        errs[done:done + len(err)] = np.einsum("ij,ij->i", err, err)
        done += len(err)
    return mse, errs
