"""Dense reference kernels that the package no longer needs, kept for the
tests' oracles."""

import numpy as np

from zczpilot import designer


def adjoint_embed(z, n_r):
    """Adjoint of zczpilot.tensorops.embed_pilot: the block partial trace.

    Satisfies <embed_pilot(P, n_r), Z> = <P, adjoint_embed(Z, n_r)> for
    the trace inner product <A, B> = trace(A^H B); the (b, t) entry is the
    trace of the (b, t) block of z, a (B n_r) x (n_T n_r) matrix.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 2 or z.shape[0] % n_r or z.shape[1] % n_r:
        raise ValueError(f"shape {z.shape} is not divisible into {n_r}x{n_r} blocks")
    b, n_t = z.shape[0] // n_r, z.shape[1] // n_r
    return np.einsum("irjr->ij", z.reshape(b, n_r, n_t, n_r))


def alternate_until_stable(x_sigma, y_sigma, x0, y0, cfg, p_x=None, p_y=None,
                           mu=50, inner_tol=1e-8):
    """Reference inner cycle: alternate x_step/y_step toward the targets
    for at most mu rounds, stopping once a round moves the pair by at
    most inner_tol; a drop-in for zczpilot.designer.inner_cycle.

    The targets are fixed for the whole cycle and each step is a
    deterministic function of (target, other block), so a step whose
    other block did not move since its last run is skipped.
    """
    x, y = x0, y0
    x_seen = y_seen = None
    for _ in range(mu):
        if x_seen is None or not np.array_equal(y, x_seen):
            x_new = designer.x_step(x_sigma, y, cfg, p=p_x)
            x_seen = y
        else:
            x_new = x
        if y_seen is None or not np.array_equal(x_new, y_seen):
            y_new = designer.y_step(y_sigma, x_new, cfg, p=p_y)
            y_seen = x_new
        else:
            y_new = y
        move = max(
            np.linalg.norm(x_new - x) if x.size else 0.0,
            np.linalg.norm(y_new - y) if y.size else 0.0,
        )
        x, y = x_new, y_new
        if move <= inner_tol:
            break
    g = float(np.linalg.norm(x - x_sigma) ** 2 + np.linalg.norm(y - y_sigma) ** 2)
    return x, y, g
