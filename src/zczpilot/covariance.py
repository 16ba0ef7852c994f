"""Channel and noise covariance models for one MIMO link direction.

Spatial and temporal correlation both follow the exponential model: entry
(k, l) of the matrix is rho^(l-k) for k <= l and the Hermitian mirror below
the diagonal.  A link scenario holds the Kronecker factors of its two
covariances: the channel covariance is R_tx (x) R_rx (transmit and receive
factors) and the noise covariance M_time (x) M_rx (temporal and receive
factors).  Built scenarios have unit-trace factors, so the training energy
budget gamma is the only scale knob.  The dense covariances are never
formed: estimation works on the factors.
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
# Smallest eigenvalue of a factor, relative to its largest magnitude, that
# still counts as positive semidefinite (a singular factor's rounding).
_PSD_TOL = 1e-10


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


@dataclass(frozen=True, eq=False)
class ChannelScenario:
    """Covariance description of one link direction by Kronecker factors.

    The vectorized channel has covariance R = r_tx (x) r_rx and the
    vectorized training noise M = m_time (x) m_rx.  n_t, n_r and b
    are the sizes of r_tx, r_rx and m_time; m_rx is n_r x n_r.  Each factor
    is kept as a read-only complex copy and must be Hermitian positive
    semidefinite with finite entries (a singular factor is accepted; the
    estimation layer needs m_rx positive definite).  Scenarios from
    :func:`build_scenario` have unit-trace factors.  gamma is the training
    energy budget ||P||_F^2.  rho_rr is the receive-side exponential
    coefficient of a built scenario (None unless given), from which
    reciprocal_scenario builds the uplink noise.  Scenarios compare and
    hash by identity.
    """

    r_tx: np.ndarray
    r_rx: np.ndarray
    m_time: np.ndarray
    m_rx: np.ndarray
    gamma: float
    rho_rr: complex | None = None

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        for name in ("r_tx", "r_rx", "m_time", "m_rx"):
            c = np.array(getattr(self, name), dtype=np.complex128)
            if c.ndim != 2 or c.shape[0] != c.shape[1] or c.size == 0:
                raise ValueError(f"{name} shape {c.shape}, expected a square matrix")
            if not np.isfinite(c).all():
                raise ValueError(f"{name} has a non-finite entry")
            dev = np.abs(c - c.conj().T).max()
            if dev > _HERM_TOL * max(1.0, np.abs(c).max()):
                raise ValueError(f"{name} is not Hermitian (deviation {dev:.3e})")
            eig = np.linalg.eigvalsh(c)
            if eig[0] < -_PSD_TOL * np.abs(eig).max():
                raise ValueError(
                    f"{name} is not positive semidefinite (eigenvalue {eig[0]:.3e})"
                )
            object.__setattr__(self, name, _read_only(c))
        if self.m_rx.shape != self.r_rx.shape:
            raise ValueError(
                f"m_rx shape {self.m_rx.shape}, expected {self.r_rx.shape}"
            )

    @property
    def n_t(self):
        return self.r_tx.shape[0]

    @property
    def n_r(self):
        return self.r_rx.shape[0]

    @property
    def b(self):
        return self.m_time.shape[0]

    @cached_property
    def receive_eig(self):
        """(lam, S, S^-1) with S^H m_rx S = I and S^H r_rx S = diag(lam).

        The generalized eigendecomposition of the receive factors of the
        channel and the noise, which diagonalizes both at once: with
        m_rx = L L^H and L^-1 r_rx L^-H = U diag(lam) U^H, S = L^-H U.
        Raises LinAlgError when m_rx is not positive definite.
        """
        low = np.linalg.cholesky(self.m_rx)
        low_inv = np.linalg.inv(low)
        lam, u = np.linalg.eigh(low_inv @ self.r_rx @ low_inv.conj().T)
        return lam, low_inv.conj().T @ u, u.conj().T @ low.conj().T

    @cached_property
    def mse_weights(self):
        """w_i = lam_i^2 ||S^-1[i, :]||^2 from receive_eig: the weight of
        receive mode i in the lemma MSE and in the MM target."""
        lam, _, basis_inv = self.receive_eig
        return lam**2 * np.linalg.norm(basis_inv, axis=1) ** 2

    @cached_property
    def colouring(self):
        """Factor pairs ((F_tx, F_rx), (F_time, F_n)) with vec(H) =
        (F_tx (x) F_rx) w and vec(N) = (F_time (x) F_n) w for white w, since
        the Cholesky factor of A (x) B is L_A (x) L_B."""
        return (
            (_covariance_factor(self.r_tx), _covariance_factor(self.r_rx)),
            (_covariance_factor(self.m_time), _covariance_factor(self.m_rx)),
        )

    @cached_property
    def r_tx_max_eig(self):
        """lam_max(r_tx), the transmit factor of the MM step size."""
        return np.linalg.eigvalsh(self.r_tx)[-1]


def _covariance_factor(c):
    """Factor F with F F^H = C; Cholesky when possible, eigen fallback."""
    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        w, u = np.linalg.eigh(c)
        return u * np.sqrt(np.clip(w, 0.0, None))[None, :]


def _read_only(c):
    c.setflags(write=False)
    return c


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
    M_T^T (x) R_R with M_T the b x b temporal factor; each factor is
    normalized to unit trace, so both covariances have unit trace.  gamma
    defaults to b * n_t.
    """
    r_r = _unit_trace(exponential_covariance(n_r, rho_rr))
    if gamma is None:
        gamma = float(b * n_t)
    return ChannelScenario(
        r_tx=_unit_trace(exponential_covariance(n_t, rho_rt).T),
        r_rx=r_r,
        m_time=_unit_trace(exponential_covariance(b, rho_mt).T),
        m_rx=r_r,
        gamma=float(gamma),
        rho_rr=complex(rho_rr),
    )


def reciprocal_scenario(s):
    """Uplink scenario for a TDD-reciprocal channel.

    The uplink channel is the transpose of the downlink one, so its
    covariance has the swapped factors r_rx (x) r_tx (the downlink
    covariance conjugated by the vec-transpose permutation).  The uplink
    noise keeps the temporal factor and takes as receive factor the
    unit-trace exponential covariance of rho_rr at the n_t uplink receive
    antennas; gamma is b times the new transmit antenna count.  Applying
    this twice to a built scenario returns its factors and the default
    gamma.  Raises ValueError when the scenario has no rho_rr (a directly
    built one that was not given it).
    """
    if s.rho_rr is None:
        raise ValueError("the uplink noise needs the scenario's rho_rr")
    return ChannelScenario(
        r_tx=s.r_rx,
        r_rx=s.r_tx,
        m_time=s.m_time,
        m_rx=_unit_trace(exponential_covariance(s.n_t, s.rho_rr)),
        gamma=float(s.b * s.n_r),
        rho_rr=s.rho_rr,
    )
