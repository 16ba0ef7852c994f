"""Channel and noise covariance models for one MIMO link direction.

Spatial and temporal correlation both follow the exponential model: entry
(k, l) of the matrix is rho^(l-k) for k <= l and the Hermitian mirror below
the diagonal.  A link scenario combines transmit/receive spatial factors
with a temporal noise factor through Kronecker products, normalized to unit
trace so that the training energy budget gamma is the only scale knob.
Each scenario splits both covariances back into their Kronecker factors
(kronecker_split), lazily and once: the channel into transmit and
receive factors, the noise into temporal and receive factors.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Default correlation coefficients of the transmit side, the receive side
# and the temporal noise factor, as (magnitude, phase in units of pi); the
# configuration file gives them in this form.
DEFAULT_RHO_POLAR = {
    "rho_rt": (0.9, -0.8349),
    "rho_rr": (0.65, -0.4289),
    "rho_mt": (0.8, -0.5361),
}
DEFAULT_RHO_RT, DEFAULT_RHO_RR, DEFAULT_RHO_MT = (
    mag * np.exp(1j * np.pi * phase) for mag, phase in DEFAULT_RHO_POLAR.values()
)

_HERM_TOL = 1e-10
# Largest entry of C - (A (x) B) / tau, relative to C's largest, that still
# counts as a Kronecker product.
_KRON_TOL = 1e-10


def exponential_covariance(n, rho):
    """n x n exponential (Kac-Murdock-Szego) covariance with ratio rho.

    Entry (k, l) is rho^(l-k) for k <= l; the matrix is Hermitian and,
    for |rho| < 1, positive definite with unit diagonal.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rho = complex(rho)
    if abs(rho) >= 1.0:
        raise ValueError(f"|rho| must be < 1, got {abs(rho)}")
    idx = np.arange(n)
    d = idx[None, :] - idx[:, None]
    # |rho|^|d| e^{j arg(rho) d} equals rho^d above the diagonal and
    # conj(rho)^{-d} below it.
    return np.abs(rho) ** np.abs(d) * np.exp(1j * np.angle(rho) * d)


@dataclass(frozen=True)
class ChannelScenario:
    """Covariance description of one link direction.

    chan_cov is the n_t*n_r covariance of the vectorized channel and
    noise_cov the b*n_r covariance of the vectorized training noise.
    Scenarios produced by :func:`build_scenario` have unit trace on both;
    directly constructed instances need Hermitian PSD matrices of
    consistent shape.  Construction checks shapes, finite entries,
    Hermitian symmetry and a non-negative diagonal, not the full PSD
    property (an eigendecomposition of a large noise covariance would
    dominate set-up).  gamma is the training energy budget ||P||_F^2.  The
    rho_* fields are the exponential coefficients of a built scenario
    (None unless given); reciprocal_scenario needs rho_rr and rho_mt.

    Both covariances must be Kronecker products: chan_factors and
    noise_factors split them on first use (ValueError "not a Kronecker
    product" otherwise) and keep the split.  The estimation layer also
    needs the noise receive factor to be positive definite.
    """

    n_t: int
    n_r: int
    b: int
    chan_cov: np.ndarray
    noise_cov: np.ndarray
    gamma: float
    rho_rt: complex | None = None
    rho_rr: complex | None = None
    rho_mt: complex | None = None

    def __post_init__(self):
        if min(self.n_t, self.n_r, self.b) < 1:
            raise ValueError("dimensions must be positive")
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        n = self.n_t * self.n_r
        m = self.b * self.n_r
        if self.chan_cov.shape != (n, n):
            raise ValueError(
                f"chan_cov shape {self.chan_cov.shape}, expected {(n, n)}"
            )
        if self.noise_cov.shape != (m, m):
            raise ValueError(
                f"noise_cov shape {self.noise_cov.shape}, expected {(m, m)}"
            )
        for name, c in (("chan_cov", self.chan_cov), ("noise_cov", self.noise_cov)):
            if not np.isfinite(c).all():
                raise ValueError(f"{name} has a non-finite entry")
            dev = np.abs(c - c.conj().T).max()
            if dev > _HERM_TOL * max(1.0, np.abs(c).max()):
                raise ValueError(f"{name} is not Hermitian (deviation {dev:.3e})")
            if np.diagonal(c).real.min() < 0.0:
                raise ValueError(f"{name} has a negative diagonal entry")

    @cached_property
    def chan_factors(self):
        """(R_tx, R_rx, tau) with chan_cov = (R_tx (x) R_rx) / tau; the
        uplink of reciprocal_scenario gives the swapped pair."""
        return kronecker_split(self.chan_cov, self.n_t, self.n_r, "chan_cov")

    @cached_property
    def noise_factors(self):
        """(M_time, M_rx, tau) with noise_cov = (M_time (x) M_rx) / tau."""
        return kronecker_split(self.noise_cov, self.b, self.n_r, "noise_cov")

    @cached_property
    def receive_eig(self):
        """(lam, S, S^-1) with S^H M_rx S = I and S^H R_rx S = diag(lam).

        The generalized eigendecomposition of the receive factors of the
        channel and the noise (R_rx, M_rx), which diagonalizes both at
        once: with M_rx = L L^H and L^-1 R_rx L^-H = U diag(lam) U^H,
        S = L^-H U.  Raises LinAlgError when M_rx is not positive definite.
        """
        low = np.linalg.cholesky(self.noise_factors[1])
        low_inv = np.linalg.inv(low)
        lam, u = np.linalg.eigh(low_inv @ self.chan_factors[1] @ low_inv.conj().T)
        return lam, low_inv.conj().T @ u, u.conj().T @ low.conj().T


def _unit_trace(c):
    return c / np.trace(c).real


def build_scenario(
    n_t,
    n_r,
    b,
    rho_rt=DEFAULT_RHO_RT,
    rho_rr=DEFAULT_RHO_RR,
    rho_mt=DEFAULT_RHO_MT,
    gamma=None,
):
    """Assemble the downlink scenario from exponential factors.

    The channel covariance is R_T^T (x) R_R and the noise covariance
    M_T^T (x) R_R with M_T the b x b temporal factor; both are normalized
    to unit trace after the Kronecker product.  gamma defaults to b * n_t.
    """
    r_t = exponential_covariance(n_t, rho_rt)
    r_r = exponential_covariance(n_r, rho_rr)
    m_t = exponential_covariance(b, rho_mt)
    if gamma is None:
        gamma = float(b * n_t)
    return ChannelScenario(
        n_t=n_t,
        n_r=n_r,
        b=b,
        chan_cov=_unit_trace(np.kron(r_t.T, r_r)),
        noise_cov=_unit_trace(np.kron(m_t.T, r_r)),
        gamma=float(gamma),
        rho_rt=complex(rho_rt),
        rho_rr=complex(rho_rr),
        rho_mt=complex(rho_mt),
    )


def reciprocal_scenario(s):
    """Uplink scenario for a TDD-reciprocal channel.

    The uplink channel is the transpose of the downlink one, so its
    covariance is the downlink chan_cov conjugated by the vec-transpose
    permutation K (eigenvalues are preserved exactly): entry ((r, t),
    (r', t')) of K R K^T is entry ((t, r), (t', r')) of R, one axis swap
    on each side of the 4-index view of R.  The uplink noise
    covariance is rebuilt from the scenario's exponential parameters at
    the swapped dimensions, and gamma defaults to b times the new
    transmit antenna count.  Applying this twice returns a scenario
    identical to the result of building the original with defaults.
    Raises ValueError when the scenario has no rho_rr or rho_mt (a
    directly built one that was not given them).
    """
    for name in ("rho_rr", "rho_mt"):
        if getattr(s, name) is None:
            raise ValueError(f"the uplink noise needs the scenario's {name}")
    n = s.n_t * s.n_r
    r4 = s.chan_cov.reshape(s.n_t, s.n_r, s.n_t, s.n_r)
    chan_ul = r4.transpose(1, 0, 3, 2).reshape(n, n)
    m_t = exponential_covariance(s.b, s.rho_mt)
    m_r = exponential_covariance(s.n_t, s.rho_rr)
    return ChannelScenario(
        n_t=s.n_r,
        n_r=s.n_t,
        b=s.b,
        chan_cov=chan_ul,
        noise_cov=_unit_trace(np.kron(m_t.T, m_r)),
        gamma=float(s.b * s.n_r),
        rho_rt=s.rho_rt,
        rho_rr=s.rho_rr,
        rho_mt=s.rho_mt,
    )


def kronecker_split(c, outer, inner, name):
    """Factors (A, B, tau) with c = (A (x) B) / tau, A outer x outer.

    A and B are the partial traces of c over the inner and the outer
    index, and tau = tr c.  They hold for every Kronecker c, whatever its
    scaling.  The factors are read-only.  Raises ValueError naming c when
    it has no positive trace or is not a Kronecker product.
    """
    c4 = c.reshape(outer, inner, outer, inner)
    a = np.einsum("isjs->ij", c4)
    b = np.einsum("titj->ij", c4)
    tau = float(np.trace(a).real)
    if tau <= 0.0:
        raise ValueError(f"{name} has no positive trace")
    dev = np.abs(c4 - a[:, None, :, None] * b[None, :, None, :] / tau).max()
    if dev > _KRON_TOL * np.abs(c4).max():
        raise ValueError(f"{name} is not a Kronecker product (deviation {dev:.3e})")
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b, tau
