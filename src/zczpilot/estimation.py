"""MMSE channel estimation for a pilot-trained MIMO link.

The training model is Yrx = H P^T + N with H the n_r x n_t channel, P the
B x n_t pilot matrix and N temporally correlated noise.  Vectorizing gives
vec(Yrx) = (P (x) I) vec(H) + vec(N), and the Bayesian estimator error is

    mse = trace[(R^-1 + Pt^H M^-1 Pt)^-1],    Pt = P (x) I_{n_r}.

The matrix inversion lemma turns this into trace[R] minus a correction
that never inverts R, which is the form used in hot loops and for
rank-deficient priors.  The auxiliary-variable machinery (block matrix Q,
minimizer V*, surrogate F) restates the same quantity as a quadratic form
that is linear algebra-friendly for the pilot designer.
"""

from dataclasses import dataclass

import numpy as np

from .tensorops import adjoint_embed, embed_pilot, hermitian_solve


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

    Computes trace[R] - trace[(Pt R)^H (M + Pt R Pt^H)^-1 (Pt R)] with a
    single Hermitian solve in the data domain; R may be singular.
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


def mse_and_optimal_V(p, s):
    """Lemma MSE and the minimizer V* from one factorization of the Gram.

    With W = Pt R and G = M + W Pt^H, the single Hermitian solve
    Z = G^-1 W gives both mse = trace[R] - Re trace[W^H Z] and
    V* = [I; -Z].  The designer scores an iterate and builds its next MM
    target from this one call.
    """
    pt = _lifted(p, s)
    w = pt @ s.chan_cov
    gram = w @ pt.conj().T
    gram += s.noise_cov
    z = hermitian_solve(gram, w)
    # The Gram is dead once factored; dropping it before V is built, and
    # negating Z in place, keeps the peak resident memory of large links
    # (512-dimensional Gram matrices) from growing with the fused call.
    del gram
    correction = np.einsum("ij,ij->", w.conj(), z)
    mse = float(np.trace(s.chan_cov).real - correction.real)
    v2 = np.negative(z, out=z)
    return mse, AuxiliaryV(v1=np.eye(s.n_t * s.n_r, dtype=np.complex128), v2=v2)


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


# Seeds per block of _training_draws.  A block's white draws, channels,
# noise and estimation errors are held at once, so this bounds the
# simulator's memory for any trial count: the noise of 64 trials on an
# 8x8, B = 64 link is 0.5 MB.  Larger blocks are no faster, since a
# trial's cost is mostly its generator's set-up.
_TRIAL_BLOCK = 64


def _training_draws(s, seeds):
    """Yield (h, noise) blocks with row j holding vec(H) ~ CN(0, R) and
    vec(N) ~ CN(0, M) for the j-th seed of the block.

    Each seed's generator draws the real then imaginary parts of the
    channel's white vector, then those of the noise's, so a seed
    reproduces its realization in any block.  The covariance factors are
    computed once per call.
    """
    f_h = _covariance_factor(s.chan_cov).T
    f_n = _covariance_factor(s.noise_cov).T
    n_h = 2 * s.n_t * s.n_r
    width = n_h + 2 * s.b * s.n_r
    for start in range(0, len(seeds), _TRIAL_BLOCK):
        block = seeds[start:start + _TRIAL_BLOCK]
        white = np.empty((len(block), width))
        for row, seed in zip(white, block):
            np.random.default_rng(seed).standard_normal(out=row)
        h = _circular_gaussian(white[:, :n_h]) @ f_h
        yield h, _circular_gaussian(white[:, n_h:]) @ f_n


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
    per seed, but the Gram and the covariances are factored once and the
    seeds run in blocks as matrix products.  The MSE comes from the same
    Gram factorization as the estimator.
    """
    pt = _lifted(p, s)
    mse, est = _estimator(p, s)
    errs = np.empty(len(seeds))
    done = 0
    for h, y in _training_draws(s, seeds):
        y += h @ pt.T  # the noise block becomes the received block in place
        err = y @ est.T
        err -= h
        errs[done:done + len(h)] = np.linalg.norm(err, axis=1) ** 2
        done += len(h)
    return mse, errs
