"""Dense matrix and operator kernels for the pilot design stack.

All routines work on complex128 ndarrays.  A pilot matrix is B x n
(training length by transmit antennas); acting on vectorized channels
lifts it by a Kronecker identity block (embed_pilot).  The shift
matrices express correlation lags, and a Cholesky solve serves Hermitian
systems.
"""

import numpy as np
import scipy.linalg


def embed_pilot(p, n_r):
    """Lift a pilot matrix to the operator acting on vectorized channels.

    For P of shape (B, n_T) returns P (x) I_{n_R} of shape
    (B*n_R, n_T*n_R) without calling a general Kronecker routine.

    Parameters
    ----------
    p : ndarray
        Pilot matrix, B x n_T.
    n_r : int
        Number of receive antennas.

    Returns
    -------
    ndarray
        The embedded operator, complex128.
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


def shift_matrix(b, i):
    """Shift (lag) matrix J_i of size b x b.

    Entry (a, c) equals 1 when c - a = i, so J_i x advances x by i
    samples with zero fill and J_{-i} = J_i().T.

    Parameters
    ----------
    b : int
        Matrix size (training length).
    i : int
        Lag, |i| < b.

    Returns
    -------
    ndarray
        Real float64 shift matrix.
    """
    if b < 1:
        raise ValueError("b must be positive")
    if abs(i) >= b:
        raise ValueError(f"lag {i} out of range for size {b}")
    return np.eye(b, k=i)


def hermitian_solve(a, rhs):
    """Solve A X = RHS for Hermitian positive definite A via Cholesky.

    A single diagonal jitter of 1e-12 * trace(A)/n is added if the first
    factorization fails; a second failure raises.

    Parameters
    ----------
    a : ndarray
        Hermitian positive (semi)definite matrix.
    rhs : ndarray
        Right-hand side, vector or matrix.

    Returns
    -------
    ndarray
        Solution with the shape of rhs.
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
