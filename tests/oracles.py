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


def _restored_against(x, y, cfg, p):
    """X restored into the sidelobe bound inside the cross-correlation
    nullspace of y, with the columns left over the bound; for k = 0, X and
    no such column."""
    if not cfg.k:
        return x, np.zeros(x.shape[1], dtype=bool)
    null = designer._nullspace(designer._cross_vectors(y, cfg, False), x.shape[0])
    x, worst = designer._restore_sidelobes(x, null, designer._resolve_p(cfg, p), cfg)
    return x, worst > designer.SIDELOBE_DELTA


def alternate_until_stable(x_sigma, y_sigma, x0, y0, cfg, p_x=None, p_y=None,
                           mu=50, inner_tol=1e-8):
    """Reference outer iteration in the order the designer once took, a
    drop-in for zczpilot.designer.inner_cycle: alternate x_step/y_step
    toward the targets for at most mu rounds, stopping once a round moves
    the pair by at most inner_tol; then, for k >= 1, restore X inside the
    cross-correlation nullspace of the final Y; hold every column of X
    that ends farther from its target than x0's, or over the sidelobe
    bound, at x0's column; and project Y against that X.  Returns (X, Y)
    like inner_cycle.

    The start (x0 None, y0 with no columns) has no Y to alternate with and
    no X to hold at, so it takes one round with the restoration between
    the two steps, which is also what the designer's start does; it
    assumes a restorable start.
    """
    x = designer.x_step(x_sigma, y0, cfg, p=p_x)
    if x0 is None:
        x, _ = _restored_against(x, y0, cfg, p_x)
        return x, designer.y_step(y_sigma, x, cfg, p=p_y)
    y = designer.y_step(y_sigma, x, cfg, p=p_y)
    for _ in range(mu - 1):
        x_new = designer.x_step(x_sigma, y, cfg, p=p_x)
        y_new = designer.y_step(y_sigma, x_new, cfg, p=p_y)
        move = max(np.linalg.norm(x_new - x), np.linalg.norm(y_new - y))
        x, y = x_new, y_new
        if move <= inner_tol:
            break
    x, over = _restored_against(x, y, cfg, p_x)
    far = np.linalg.norm(x - x_sigma, axis=0) > np.linalg.norm(x0 - x_sigma, axis=0)
    x = np.where(over | far, x0, x)
    return x, designer.y_step(y_sigma, x, cfg, p=p_y)
