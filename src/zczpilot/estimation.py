"""MMSE channel estimation for a pilot-trained MIMO link.

The training model is Yrx = H P^T + N with H the n_r x n_t channel, P the
B x n_t pilot matrix and N temporally correlated noise.  Vectorizing gives
vec(Yrx) = (P (x) I) vec(H) + vec(N), and the Bayesian estimator error is

    mse = trace[(R^-1 + Pt^H M^-1 Pt)^-1],    Pt = P (x) I_{n_r}.

The matrix inversion lemma turns this into trace[R] minus a correction
that never inverts R, so rank-deficient priors are fine.  A scenario holds
both covariances as Kronecker factors, R = R_tx (x) R_rx and
M = M_time (x) M_rx, so the (B n_r)-dimensional Gram of that correction
splits into n_r blocks of size B x B in the joint eigenbasis of the two
receive factors (ChannelScenario.receive_eig; Kotecha & Sayeed, IEEE TSP
2004).  The noise receive factor must be positive definite.  Those solved
blocks, an (n_r, B, n_t) array, are the one form of the minimizer V* of
the auxiliary quadratic form trace[V^H Q V]: the MSE, the designer's MM
target, the MMSE estimator and the simulator's error maps are all read
from them and the scenario's cached constants, and the channel and the
training noise are coloured through their factors.  No dense
covariance, lifted pilot or dense V* is formed.
"""

from dataclasses import dataclass

import numpy as np


def _checked(p, s):
    p = np.asarray(p, dtype=np.complex128)
    if p.shape != (s.b, s.n_t):
        raise ValueError(f"pilot shape {p.shape}, scenario expects {(s.b, s.n_t)}")
    return p


def channel_mse_lemma(p, s):
    """Estimation MSE via the matrix inversion lemma.

    Computes trace[R] - trace[(Pt R)^H (M + Pt R Pt^H)^-1 (Pt R)] through
    the n_r Gram blocks of :func:`mse_and_optimal_V`; R may be singular.
    """
    return mse_and_optimal_V(p, s)[0]


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
    ||S^-1[i, :]||^2 (ChannelScenario.mse_weights).  V* is returned as
    those blocks, the (n_r, B, n_t) array of the Y_i, from which the
    designer builds its MM target.  Raises LinAlgError when M_rx or a
    block is singular.
    """
    p = _checked(p, s)
    lam = s.receive_eig[0]
    q = p @ s.r_tx
    blocks = lam[:, None, None] * (q @ p.conj().T)
    blocks += s.m_time
    y = np.linalg.solve(blocks, q)
    n_r = y.shape[0]
    # Re trace[Q^H Y_i] for every block i at once.
    fits = (y.reshape(n_r, -1) @ q.conj().ravel()).real
    mse = float(np.trace(s.r_tx).real * np.trace(s.r_rx).real - s.mse_weights @ fits)
    return mse, y


def optimal_V(p, s):
    """Minimizer of trace[V^H Q V] over V with fixed top block I.

    V* = [I; -(M + Pt R Pt^H)^-1 Pt R], as its n_r solved blocks; at this
    point the quadratic form equals the estimation MSE.
    """
    return mse_and_optimal_V(p, s)[1]


@dataclass(frozen=True)
class TrainingRealization:
    """One draw of channel, noise and received training block."""

    h: np.ndarray
    noise: np.ndarray
    yrx: np.ndarray


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


def _training_draws(s, seeds):
    """Yield (h, noise) blocks with row j holding vec(H) ~ CN(0, R) and
    vec(N) ~ CN(0, M) for the j-th seed of the block (_white_blocks).

    A factor pair (F_a, F_b) acts on the matrix view W of its white
    vector, n_t x n_r for the channel and b x n_r for the noise, as
    F_a W F_b^T.
    """
    factors = s.colouring
    n_h = 2 * s.n_t * s.n_r
    for white in _white_blocks(s, seeds):
        n = len(white)
        views = (
            _circular_gaussian(white[:, :n_h]).reshape(n, s.n_t, s.n_r),
            _circular_gaussian(white[:, n_h:]).reshape(n, s.b, s.n_r),
        )
        h, noise = ((f_a @ w @ f_b.T).reshape(n, -1)
                    for (f_a, f_b), w in zip(factors, views))
        yield h, noise


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


def mmse_estimate(yrx, p, s):
    """Bayesian channel estimate vec(H^) = R Pt^H (M + Pt R Pt^H)^-1 vec(Yrx).

    The estimator is Z^H (G and R are Hermitian), applied from the solved
    blocks of V* (mse_and_optimal_V):
    H^ = S^-H [lam_i (S^H Yrx)[i, :] conj(Y_i)]_i, row i for receive mode i.
    """
    yrx = np.asarray(yrx, dtype=np.complex128)
    if yrx.shape != (s.n_r, s.b):
        raise ValueError(f"yrx shape {yrx.shape}, expected {(s.n_r, s.b)}")
    lam, basis, basis_inv = s.receive_eig
    modes = np.einsum("ib,ibt->it", basis.conj().T @ yrx, optimal_V(p, s).conj())
    return basis_inv.conj().T @ (lam[:, None] * modes)


def _kron_sum_t(c, d):
    """(sum_i c[i] (x) d[i])^T for stacks c (m x q) and d (n x n): one
    GEMM over i, regrouped to rows (q, n) and columns (m, n)."""
    k, m, q = c.shape
    n = d.shape[1]
    out = c.reshape(k, -1).T @ d.reshape(k, -1)
    return out.reshape(m, q, n, n).transpose(1, 3, 0, 2).reshape(q * n, m * n)


def mmse_squared_errors(p, s, seeds):
    """The lemma MSE of p and ||H^ - H||_F^2 of the MMSE estimate for each
    seed's training draw.

    Draw for draw the same as simulate_training followed by mmse_estimate
    per seed, to rounding.  The error E (Pt vec(H) + vec(N)) - vec(H) of
    the estimator E = Z^H is linear in the white draws,
    (E Pt - I)(F_tx (x) F_rx) w_h + E (F_time (x) F_n) w_n, and with
    E = sum_i lam_i Y_i^H (x) S^-H[:, i] S[:, i]^H both maps are sums of
    Kronecker products over the receive modes i:
    sum_i lam_i (Y_i^H P F_tx) (x) D_i - F_tx (x) F_rx and
    sum_i lam_i (Y_i^H F_time) (x) D_i with D_i = S^-H[:, i] S[:, i]^H F_rx
    for the channel and with F_n in place of F_rx for the noise.  They are
    built once per call, from the same block solve as the MSE, and each
    block of seeds costs one real matrix product.
    """
    p = _checked(p, s)
    mse, y = mse_and_optimal_V(p, s)
    lam, basis, basis_inv = s.receive_eig
    (f_tx, f_rx), (f_time, f_n) = s.colouring
    yh = lam[:, None, None] * y.conj().transpose(0, 2, 1)

    def receive(f):
        # the stack of D_i = S^-H[:, i] S[:, i]^H f
        return basis_inv.conj()[:, :, None] * (basis.conj().T @ f)[:, None, :]

    gain_h = _kron_sum_t(
        np.concatenate([yh @ (p @ f_tx), -f_tx[None]]),
        np.concatenate([receive(f_rx), f_rx[None]]),
    )
    gain_n = _kron_sum_t(yh @ f_time, receive(f_n))
    # Rows in the layout of the white draws: real, imaginary parts of the
    # channel's, then of the noise's; columns the real, imaginary parts of
    # the error.
    gain = np.vstack([gain_h, 1j * gain_h, gain_n, 1j * gain_n])
    gain = np.hstack([gain.real, gain.imag]) / np.sqrt(2.0)
    errs = np.empty(len(seeds))
    done = 0
    for white in _white_blocks(s, seeds):
        err = white @ gain
        errs[done:done + len(err)] = np.einsum("ij,ij->i", err, err)
        done += len(err)
    return mse, errs
