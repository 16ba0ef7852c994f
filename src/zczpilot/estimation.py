"""MMSE channel estimation for a pilot-trained MIMO link.

The training model is Yrx = H P^T + N with H the n_r x n_t channel, P the
B x n_t pilot matrix and N temporally correlated noise.  Vectorizing gives
vec(Yrx) = (P (x) I) vec(H) + vec(N), and the Bayesian estimator error is

    mse = trace[(R^-1 + Pt^H M^-1 Pt)^-1],    Pt = P (x) I_{n_r}.

A scenario holds both covariances as Kronecker factors, R = R_tx (x) R_rx
and M = M_time (x) M_rx, so the (B n_r)-dimensional Gram M + Pt R Pt^H
splits into n_r blocks G_i = lam_i P R_tx P^H + M_time in the joint
eigenbasis of the two receive factors (ChannelScenario.receive_eig).  Each
block is a rank-n_t update of M_time, so the transmit-eigenmode
(Woodbury) form of Kronecker MMSE training (Kotecha & Sayeed, IEEE TSP
2004; Biguesh & Gershman, IEEE TSP 2006) gives all of them from one
n_t x n_t eigendecomposition per pilot, and the MSE as a sum of
nonnegative terms: no cancellation against trace[R], no inverse of R
(rank-deficient priors are fine), and no B x B solve.  M_time and M_rx
must be positive definite.  The factors (Phi, c, Psi) of the solved
blocks are the one form of the minimizer V* of the auxiliary quadratic
form trace[V^H Q V]: the designer's MM target, the MMSE estimator and the
simulator's error maps are all read from them and the scenario's cached
constants, and the channel and the training noise are coloured through
their factors.  Receive mode i enters the estimator through a rank-one
S^-H[:, i] S[:, i]^H, so the error maps are one small mode core times the
whitened pilot.  No dense covariance, lifted pilot or dense V* is formed.
A simulated trial draws one row of np.random.default_rng(seed), and a
call of mmse_squared_errors draws its trials as consecutive rows of one
such generator.  numpy.random is imported on the first draw, since
building a scenario does not need it.
"""

from dataclasses import dataclass

import numpy as np


def _checked(p, s):
    p = np.asarray(p, dtype=np.complex128)
    if p.shape != (s.b, s.n_t):
        raise ValueError(f"pilot shape {p.shape}, scenario expects {(s.b, s.n_t)}")
    return p


def channel_mse_lemma(p, s):
    """Estimation MSE trace[(R^-1 + Pt^H M^-1 Pt)^-1] from the factored
    Gram blocks of :func:`mse_and_optimal_V`; R may be singular."""
    return mse_and_optimal_V(p, s)[0]


def mse_and_optimal_V(p, s):
    """Estimation MSE and the minimizer V* from the Kronecker factors.

    With W = Pt R and G = M + W Pt^H, V* = [I; -G^-1 W].  In the receive
    basis S (S^H M_rx S = I, S^H R_rx S = diag(lam)), G splits into n_r
    blocks G_i = lam_i P R_tx P^H + M_time, and
    G^-1 W = sum_i lam_i Y_i (x) S[:, i] S^-1[i, :] with
    Y_i = G_i^-1 P R_tx.  With M_time = L L^H, R_tx = F F^H
    (ChannelScenario.time_whitener, transmit_eig), B = L^-1 P F and
    B^H B = U diag(d) U^H, Woodbury gives Y_i = Phi diag(c_i) Psi with
    Phi = L^-H B U, Psi = U^H F^H and c_ij = 1 / (1 + lam_i d_j).  Mode
    i's error covariance is lam_i F U diag(c_i) U^H F^H, so
    mse = sum_i t_i sum_j ||F U[:, j]||^2 c_ij with the mode traces
    t_i = lam_i ||S^-1[i, :]||^2 (ChannelScenario.mse_weights).  V* is
    returned as (Phi, c, Psi), of shapes (B, n_t), (n_r, n_t) and
    (n_t, n_t).  A zero pilot's Gram is 0, whose eigendecomposition is
    d = 0 and U = I: its MSE is the prior trace and V* is (0, ones, F^H).
    Raises LinAlgError when M_time or M_rx is not positive definite.
    """
    p = _checked(p, s)
    f = s.transmit_eig[0]
    low_inv, low_inv_h = s.time_whitener
    white = low_inv @ (p @ f)
    d, u = np.linalg.eigh(white.conj().T @ white)
    fu, phi = f @ u, low_inv_h @ (white @ u)
    c = 1.0 / (1.0 + s.receive_eig[0][:, None] * d)
    mse = float(s.mse_weights @ (c @ (abs(fu) ** 2).sum(axis=0)))
    return mse, (phi, c, fu.conj().T)


def optimal_V(p, s):
    """Minimizer of trace[V^H Q V] over V with fixed top block I.

    V* = [I; -(M + Pt R Pt^H)^-1 Pt R], as its factors (Phi, c, Psi)
    (mse_and_optimal_V); at this point the quadratic form equals the
    estimation MSE.
    """
    return mse_and_optimal_V(p, s)[1]


@dataclass(frozen=True)
class TrainingRealization:
    """One draw of channel, noise and received training block."""

    h: np.ndarray
    noise: np.ndarray
    yrx: np.ndarray


# Trials per block of mmse_squared_errors.  A block's white draws and
# estimation errors are held at once, so this bounds the simulator's
# memory for any trial count: the white draws of 64 trials on an 8x8,
# B = 64 link are 0.6 MB.
_TRIAL_BLOCK = 64


def simulate_training(p, s, seed):
    """Draw H ~ CN(0, R), N ~ CN(0, M) and form Yrx = H P^T + N.

    One row of N(0, 1) draws from np.random.default_rng(seed) holds the
    real then imaginary parts of the channel's white vector, then those of
    the noise's, so a fixed seed reproduces the realization bit for bit,
    and a Generator gives its next row.  A factor pair (F_a, F_b) of
    s.colouring acts on the matrix view W of its white vector, n_t x n_r
    for the channel and b x n_r for the noise, as F_a W F_b^T, the
    transpose of H or N.
    """
    p = _checked(p, s)
    n_h = s.n_t * s.n_r
    white = np.random.default_rng(seed).standard_normal(2 * (n_h + s.b * s.n_r))
    draws = []
    for (f_a, f_b), w in zip(s.colouring, (white[:2 * n_h], white[2 * n_h:])):
        k = len(w) // 2
        w = ((w[:k] + 1j * w[k:]) / np.sqrt(2.0)).reshape(len(f_a), -1)
        draws.append((f_a @ w @ f_b.T).T)
    h, noise = draws
    return TrainingRealization(h=h, noise=noise, yrx=h @ p.T + noise)


def mmse_estimate(yrx, p, s):
    """Bayesian channel estimate vec(H^) = R Pt^H (M + Pt R Pt^H)^-1 vec(Yrx).

    The estimator is Z^H (G and R are Hermitian), applied from the factors
    of V* (mse_and_optimal_V), Y_i = Phi diag(c_i) Psi:
    H^ = S^-H [lam_i (S^H Yrx)[i, :] conj(Y_i)]_i, row i for receive mode i.
    """
    yrx = np.asarray(yrx, dtype=np.complex128)
    if yrx.shape != (s.n_r, s.b):
        raise ValueError(f"yrx shape {yrx.shape}, expected {(s.n_r, s.b)}")
    lam, basis, basis_inv = s.receive_eig
    phi, c, psi = optimal_V(p, s)
    modes = ((basis.conj().T @ yrx @ phi.conj()) * (lam[:, None] * c)) @ psi.conj()
    return basis_inv.conj().T @ modes


def mmse_squared_errors(p, s, trials, seed):
    """The lemma MSE of p and ||H^ - H||_F^2 of the MMSE estimate for each
    of trials training draws from one np.random.default_rng(seed).

    Draw for draw the same as simulate_training followed by mmse_estimate
    per trial on that one generator, to rounding.  The error
    E (Pt vec(H) + vec(N)) - vec(H) of
    E = Z^H = sum_i lam_i Y_i^H (x) S^-H[:, i] S[:, i]^H is linear in the
    white draws, (E Pt - I)(F_tx (x) F_rx) w_h + E (F_time (x) F_n) w_n.
    Each mode's S^-H[:, i] S[:, i]^H has rank one, so both maps come from
    the mode core M[i, (j, t, a)] = lam_i c_ij Psi^H[t, j] S^-H[a, i] and
    T_F[j, (c, t, a)] = sum_i (S^H F)[i, c] M[i, (j, t, a)]: transposed to
    rows (input) by columns (error), they are G_n = (Phi^H F_time)^T T_Fn
    and G_h = (Phi^H P F_tx)^T T_Frx - F_tx^T (x) F_rx^T.  The map
    [G_h; i G_h; G_n; i G_n] / sqrt(2) is built once per call, its rows in
    the layout of the white draws, and each block of trials costs one real
    product with its float64 view (its columns interleave the error's real
    and imaginary parts, which the squared norm does not mind).  Row t of
    the draws is simulate_training's white row for trial t, so a call with
    more trials extends one with fewer.
    """
    p = _checked(p, s)
    mse, (phi, c, psi) = mse_and_optimal_V(p, s)
    lam, basis, basis_inv = s.receive_eig
    (f_tx, f_rx), (f_time, f_n) = s.colouring
    n_t, n_r = s.n_t, s.n_r
    n_h, n_n = n_t * n_r, s.b * n_r
    # M / sqrt(2), since w = (real + i imag) / sqrt(2) (simulate_training)
    core = ((np.sqrt(0.5) * lam[:, None] * c)[:, :, None, None]
            * psi.conj()[None, :, :, None]
            * basis_inv.conj()[:, None, None, :]).reshape(n_r, -1)
    gain = np.empty((2 * (n_h + n_n), n_h), dtype=np.complex128)
    g_h, ig_h, g_n, ig_n = np.split(gain, [n_h, 2 * n_h, 2 * n_h + n_n])
    for g, left, f in ((g_h, phi.conj().T @ (p @ f_tx), f_rx),
                       (g_n, phi.conj().T @ f_time, f_n)):
        t = ((basis.conj().T @ f).T @ core).reshape(n_r, n_t, -1)
        np.matmul(left.T, t.transpose(1, 0, 2).reshape(n_t, -1),
                  out=g.reshape(left.shape[1], -1))
    g_h.reshape(n_t, n_r, n_t, n_r)[...] -= (
        np.sqrt(0.5) * f_tx.T[:, None, :, None] * f_rx.T[None, :, None, :])
    np.multiply(g_h, 1j, out=ig_h)
    np.multiply(g_n, 1j, out=ig_n)
    gain = gain.view(np.float64)
    rng = np.random.default_rng(seed)
    white = np.empty((min(_TRIAL_BLOCK, trials), len(gain)))
    errs = np.empty(trials)
    for start in range(0, trials, _TRIAL_BLOCK):
        err = rng.standard_normal(out=white[:trials - start]) @ gain
        errs[start:start + len(err)] = np.einsum("ij,ij->i", err, err)
    return mse, errs
