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
Every simulated trial draws from its own seed's stream, that of
np.random.default_rng(seed), with the seed hashing done for many seeds
in one vectorized pass (zczpilot._seeding).
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
    (n_t, n_t).  Raises LinAlgError when M_time or M_rx is not positive
    definite.
    """
    p = _checked(p, s)
    f = s.transmit_eig[0]
    low_inv, low_inv_h = s.time_whitener
    white = low_inv @ (p @ f)
    d, u = np.linalg.eigh(white.conj().T @ white)
    c = 1.0 / (1.0 + s.receive_eig[0][:, None] * d)
    fu = f @ u
    mse = float(s.mse_weights @ (c @ (abs(fu) ** 2).sum(axis=0)))
    return mse, (low_inv_h @ (white @ u), c, fu.conj().T)


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


def _circular_gaussian(z):
    """CN(0, I) rows from N(0, 1) rows laid out as [real parts, imaginary parts]."""
    k = z.shape[-1] // 2
    return (z[:, :k] + 1j * z[:, k:]) / np.sqrt(2.0)


# Seeds per block of _white_blocks.  A block's white draws and estimation
# errors are held at once, so this bounds the simulator's memory for any
# trial count: the white draws of 64 trials on an 8x8, B = 64 link are
# 0.6 MB.  Larger blocks are no faster, since a trial's cost is mostly
# building its generator and drawing from it.
_TRIAL_BLOCK = 64


def _white_blocks(s, seeds):
    """Yield the real white draws of each block of seeds, row j for the
    j-th seed of the block: the real then imaginary parts of the channel's
    white vector, then those of the noise's, from the seed's own
    generator, so a seed reproduces its realization in any block.

    Each generator is the stream of np.random.default_rng(seed), with the
    SeedSequence hash of its seed taken for many seeds at once
    (zczpilot._seeding); seeds are integers in [0, 2**64), and one outside
    raises ValueError.  numpy.random is imported here, on the first draw,
    because building a scenario does not need it.
    """
    from ._seeding import generators

    width = 2 * (s.n_t + s.b) * s.n_r
    gens = generators(seeds)
    for start in range(0, len(seeds), _TRIAL_BLOCK):
        white = np.empty((min(_TRIAL_BLOCK, len(seeds) - start), width))
        for row, gen in zip(white, gens):
            gen.standard_normal(out=row)
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

    The channel is drawn before the noise from a single generator, that
    of np.random.default_rng(seed) for an integer 0 <= seed < 2**64, so a
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


def mmse_squared_errors(p, s, seeds):
    """The lemma MSE of p and ||H^ - H||_F^2 of the MMSE estimate for each
    seed's training draw.

    Draw for draw the same as simulate_training followed by mmse_estimate
    per seed, to rounding.  The error E (Pt vec(H) + vec(N)) - vec(H) of
    E = Z^H = sum_i lam_i Y_i^H (x) S^-H[:, i] S[:, i]^H is linear in the
    white draws, (E Pt - I)(F_tx (x) F_rx) w_h + E (F_time (x) F_n) w_n.
    Each mode's S^-H[:, i] S[:, i]^H has rank one, so both maps come from
    the mode core M[i, (j, t, a)] = lam_i c_ij Psi^H[t, j] S^-H[a, i] and
    T_F[j, (c, t, a)] = sum_i (S^H F)[i, c] M[i, (j, t, a)]: transposed to
    rows (input) by columns (error), they are G_n = (Phi^H F_time)^T T_Fn
    and G_h = (Phi^H P F_tx)^T T_Frx - F_tx^T (x) F_rx^T.  The map
    [G_h; i G_h; G_n; i G_n] / sqrt(2) is built once per call, its rows in
    the layout of the white draws, and each block of seeds costs one real
    product with its float64 view (its columns interleave the error's real
    and imaginary parts, which the squared norm does not mind).
    """
    p = _checked(p, s)
    mse, (phi, c, psi) = mse_and_optimal_V(p, s)
    lam, basis, basis_inv = s.receive_eig
    (f_tx, f_rx), (f_time, f_n) = s.colouring
    n_t, n_r = s.n_t, s.n_r
    n_h, n_n = n_t * n_r, s.b * n_r
    # M / sqrt(2), since w = (real + i imag) / sqrt(2) (_circular_gaussian)
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
    errs = np.empty(len(seeds))
    done = 0
    for white in _white_blocks(s, seeds):
        err = white @ gain
        errs[done:done + len(err)] = np.einsum("ij,ij->i", err, err)
        done += len(err)
    return mse, errs
