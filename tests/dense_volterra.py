"""Dense references for the blocked scans of ``volterra.gripenberg_check``.

Both build the whole n x n kernel triangle, so they serve only as test
oracles on small grids: ``dense_resolvent`` solves (I + L) R = L with one
triangular solve, and ``dense_triangle_scans`` reads the minimum, the sampled
column increases, w(t) and the sliding-tail masses off ``np.tril`` of the
full kernel matrix.
"""

import numpy as np
from scipy.linalg import solve_triangular

from nltransport.volterra import VolterraProblem, _kernel_block


def dense_operator(prob: VolterraProblem) -> np.ndarray:
    """The quadrature operator L with (Lu)_i ~ int_0^{t_i} K u, as an n x n array."""
    idx = np.arange(len(prob.forcing))
    L = np.tril(_kernel_block(prob, idx, idx)) * prob.dt
    L[idx, idx] *= 0.5
    L[:, 0] *= 0.5
    L[0, :] = 0.0
    return L


def dense_resolvent(prob: VolterraProblem) -> tuple[np.ndarray, np.ndarray]:
    """Discrete resolvent R = (I + L)^{-1} L with u = g - R g; returns (t, R)."""
    t = prob.grid
    L = dense_operator(prob)
    return t, solve_triangular(np.eye(len(t)) + L, L, lower=True)


def dense_triangle_scans(prob: VolterraProblem, T0_scan) -> tuple:
    """(min, max column increase, w values, tail masses) from the full triangle."""
    n = len(prob.forcing)
    dt = prob.dt
    idx = np.arange(n)
    tri = np.tril(_kernel_block(prob, idx, idx))
    col_incr = 0.0
    for j in range(0, n - 1, max(1, n // 64)):
        col = tri[j:, j]
        if len(col) > 1:
            col_incr = max(col_incr, float(np.max(np.diff(col))))
    w_vals = dt * (tri.sum(axis=1) - 0.5 * (tri[:, 0] + np.diagonal(tri)))
    cum = np.cumsum(tri, axis=1)
    tail = {}
    for T0 in T0_scan:
        m = int(round(T0 / dt))
        i = np.arange(m + 1, n)
        masses = dt * (cum[i, i - m] - 0.5 * (tri[i, 0] + tri[i, i - m]))
        tail[float(T0)] = float(np.max(masses, initial=0.0))
    return float(np.min(tri)), col_incr, w_vals, tail
