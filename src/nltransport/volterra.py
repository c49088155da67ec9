"""Second-kind Volterra machinery and the associated linear delay equation.

Product-trapezoidal discretization of

    u(t) + int_0^t K(t,s) u(s) ds = g(t)

on the uniform grid t_m = m dt, for translation-invariant (K = K(t-s)) and
general kernels.  A ``VolterraProblem`` is its samples on that grid: the
forcing g at the n + 1 nodes, whose length fixes the grid, and either the
array of K(t_m) at the same nodes (a convolution kernel) or a function
kernel(i, j) of node indices (a general kernel).  No solver reads a
coefficient off the nodes.  A convolution kernel makes the system
lower-triangular Toeplitz, which ``solve`` substitutes forward by blocks of
rows; a general kernel is solved row by row.  For convolution kernels, the
resolvent series solves r + K*r = K, and the reconstruction u = g - r*g
applies the resolvent in its discrete-operator form (one forward
substitution with the convolved forcing), which keeps the identity exact at
the discrete level.  A convolution of the sampled r series would carry an
O(dt^2) boundary-weight mismatch and is only second-order consistent.

``gripenberg_check`` reports the boundedness criterion for non-translation
invariant kernels: monotonicity of t -> K(t,s), the limit of
w(t) = int_0^t K(t,s) ds, the sliding-tail masses sup_t int_0^{t-T0} K ds,
and the resolvent metric sup_t int_0^t |r(t,s)| ds.  It evaluates the kernel
triangle block by block as it is needed and forms no n x n array, so its
memory is O(n BLOCK) for n nodes; the module needs no scipy.

``linear_dde_solve`` integrates

    I'(t) + a(t) I(t) + int_0^t k(t,s) [I(t) - I(s)] ds = f(t)

with trapezoidal memory.  A ``LinearDDEProblem`` samples a and f at the
nodes and reads k(i, j) by node index.  Setting u = I' turns it into the
Volterra problem with kernel K(t,s) = a(t) + int_0^s k(t,s') ds', which the
report solves as an independent cross-check.  The two discretizations are different second-order
schemes: they agree to rounding for a = 0 and k = e^{-(t-s)}, but differ at
O(dt^2) in general (for a(t) = 0.1 + 0.05 sin t, k = 0.5 e^{-(t-s)}/(1+s) and
f = e^{-t} on [0, 8], the gap falls by a factor of 4.00 per halving of dt).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError
from .quadrature import cumtrapz, trapz_weights

MAX_RESOLVENT_NODES = 4096
# nodes per row block of the kernel triangle in ``gripenberg_check``: its
# memory is O(n BLOCK) for n nodes.  The resolvent's column blocks are twice as
# wide, which halves its kernel evaluations and matmul calls.  A convolution
# kernel's solve substitutes forward by blocks of BLOCK rows.
BLOCK = 64


@dataclass(frozen=True)
class VolterraProblem:
    """u + int_0^t K(t,s) u(s) ds = g(t), sampled on the nodes t_m = m dt.

    ``forcing`` holds g at the n + 1 nodes, and its length fixes the grid.
    ``kernel`` is the array of K(t_m) at the same nodes (a convolution kernel)
    or a function kernel(i, j) of broadcastable node indices returning
    K(t_i, t_j) in their broadcast shape (a general kernel).
    """
    kernel: np.ndarray | Callable
    forcing: np.ndarray
    dt: float

    def __post_init__(self):
        general = callable(self.kernel)
        _store_node_samples(self, ("forcing",) if general else ("forcing", "kernel"))

    @property
    def grid(self) -> np.ndarray:
        return uniform_grid((len(self.forcing) - 1) * self.dt, self.dt)


def uniform_grid(T: float, dt: float) -> np.ndarray:
    """Nodes 0, dt, ..., n dt with n = round(T/dt)."""
    n = int(round(T / dt))
    return np.linspace(0.0, n * dt, n + 1)


def _store_node_samples(prob, names) -> None:
    """Store the named fields of a frozen problem as float arrays, after
    checking that they are 1-D, of one nonzero length, and that dt > 0."""
    if not prob.dt > 0:
        raise DomainError("dt must be positive")
    arrays = [np.asarray(getattr(prob, name), dtype=float) for name in names]
    if any(x.ndim != 1 for x in arrays) or len({len(x) for x in arrays}) != 1 \
            or len(arrays[0]) == 0:
        raise DomainError(f"{', '.join(names)} must be 1-D node samples of one nonzero "
                          f"length, got shapes {[x.shape for x in arrays]}")
    for name, x in zip(names, arrays):
        object.__setattr__(prob, name, x)


def solve(prob: VolterraProblem) -> tuple[np.ndarray, np.ndarray]:
    """Product-trapezoidal solution; returns (t, u)."""
    t, g, dt = prob.grid, prob.forcing, prob.dt
    if not callable(prob.kernel):
        return t, _solve_toeplitz(prob.kernel, g, dt)
    u = np.empty(len(t))
    u[0] = g[0]
    for i in range(1, len(t)):
        Ki = np.asarray(prob.kernel(i, np.arange(i + 1)), dtype=float)  # K(t_i, t_j), j <= i
        acc = 0.5 * Ki[0] * u[0]
        if i > 1:
            acc += Ki[1:i] @ u[1:i]
        diag = 1.0 + 0.5 * dt * Ki[i]
        if abs(diag) < 1e-12:
            raise NumericalError("singular discrete Volterra system")
        u[i] = (g[i] - dt * acc) / diag
    return t, u


def _solve_toeplitz(K: np.ndarray, g: np.ndarray, dt: float) -> np.ndarray:
    """The trapezoid system of a convolution kernel with values K(t_m), by blocks.

    u_0 = g_0, and u[1:] solves the lower-triangular Toeplitz system with
    diagonal 1 + dt K_0 / 2, lag-m entries dt K_m and right-hand side
    g[1:] - dt K[1:] g_0 / 2.  Its forward substitution runs over blocks of
    BLOCK rows.  Every diagonal block is the same, so it is inverted once;
    the lags that reach back past a block are one correlation of dt K with
    the unknowns found so far, so memory is O(n).
    """
    n = len(g) - 1
    u = np.empty(n + 1)
    u[0] = g[0]
    if n == 0:
        return u
    b = min(BLOCK, n)
    lag = np.subtract.outer(np.arange(b), np.arange(b))
    D = np.where(lag > 0, dt * K[np.maximum(lag, 0)], 0.0)
    D[np.diag_indices(b)] = 1.0 + 0.5 * dt * K[0]
    D_inv = _lower_inverse(D)
    dtK = dt * K[1:]  # dtK[m] = dt K_{m+1}
    v = u[1:]
    rhs = g[1:] - 0.5 * dtK * g[0]
    for r0 in range(0, n, b):
        r1 = min(r0 + b, n)
        block = rhs[r0:r1]
        if r0:
            # row r0 + a takes sum_l dt K_{a+1+l} v_{r0-1-l}
            block = block - np.correlate(dtK[:r1 - 1], v[r0 - 1::-1], "valid")
        v[r0:r1] = D_inv[:r1 - r0, :r1 - r0] @ block
    return u


def resolvent(prob: VolterraProblem) -> tuple[np.ndarray, np.ndarray]:
    """Resolvent kernel series r(t) solving r + K*r = K (translation-invariant)."""
    if callable(prob.kernel):
        raise DomainError("series resolvent is defined for convolution kernels; "
                          "use resolvent_row_l1 for the metric of general kernels")
    return prob.grid, _solve_toeplitz(prob.kernel, prob.kernel, prob.dt)


def reconstruct(prob: VolterraProblem) -> np.ndarray:
    """u = g - r*g with the resolvent applied as the discrete operator.

    Computes m solving m + K*m = K*g (forward substitution) and returns g - m;
    this is the exact discrete action of the resolvent kernel on g.  Like
    ``resolvent``, it is defined for convolution kernels only.
    """
    if callable(prob.kernel):
        raise DomainError("the reconstruction is defined for convolution kernels")
    K, g = prob.kernel, prob.forcing
    n = len(g)
    # trapezoid on [0, t_i]: dt * (full sum - half of both end terms)
    Kg = np.zeros(n)
    Kg[1:] = prob.dt * (np.convolve(K, g)[1:n] - 0.5 * (K[1:] * g[0] + K[0] * g[1:]))
    return g - _solve_toeplitz(K, Kg, prob.dt)


def _kernel_block(prob: VolterraProblem, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """K(t_i, t_j) for the node indices rows x cols as a (possibly broadcast,
    read-only) array.

    A convolution kernel is read at the lag max(i - j, 0), so the entries
    right of the diagonal repeat K(0); only the lower triangle is used.
    """
    if callable(prob.kernel):
        K = prob.kernel(rows[:, None], cols[None, :])
    else:
        K = prob.kernel[np.maximum(rows[:, None] - cols[None, :], 0)]
    return np.broadcast_to(np.asarray(K, dtype=float), (len(rows), len(cols)))


def _blocks(n: int, size: int) -> list[tuple[int, int]]:
    """Consecutive index ranges [lo, hi) of at most ``size`` nodes covering 0..n-1."""
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _operator_block(prob: VolterraProblem, rows: tuple[int, int],
                    cols: tuple[int, int]) -> np.ndarray:
    """Block L[r0:r1, c0:c1] of the lower-triangular quadrature operator L.

    (Lu)_i ~ int_0^{t_i} K u by the trapezoid: weight dt, halved on the
    diagonal and in column 0, and a zero row 0.
    """
    (r0, r1), (c0, c1) = rows, cols
    K = _kernel_block(prob, np.arange(r0, r1), np.arange(c0, c1))
    if c1 > r0 + 1:  # the block reaches right of the diagonal
        K = np.tril(K, r0 - c0)
    L = K * prob.dt
    d = np.arange(max(r0, c0), min(r1, c1))
    L[d - r0, d - c0] *= 0.5
    if c0 == 0:
        L[:, 0] *= 0.5
    if r0 == 0:
        L[0, :] = 0.0
    return L


def _lower_inverse(D: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix, by forward substitution row by row."""
    if np.min(np.abs(np.diagonal(D))) < 1e-12:
        raise NumericalError("singular discrete Volterra system")
    Y = np.zeros_like(D)
    for i in range(len(D)):
        Y[i] = -(D[i, :i] @ Y[:i])
        Y[i, i] += 1.0
        Y[i] /= D[i, i]
    return Y


def resolvent_row_l1(prob: VolterraProblem) -> tuple[np.ndarray, np.ndarray]:
    """Row l1 norms of the discrete resolvent R = (I + L)^{-1} L, u = g - R g.

    Returns (t, rows); rows approximate int_0^t |r(t,s)| ds.  R is never
    formed: each column block of R (2 BLOCK wide) comes from a forward
    substitution over row blocks (BLOCK high), with the diagonal blocks of
    I + L inverted once and the blocks of L generated from the kernel as they
    are needed, so memory is O(n BLOCK).
    """
    t = prob.grid
    n = len(t)
    if n > MAX_RESOLVENT_NODES:
        raise NumericalError(
            f"resolvent needs {n} nodes > cap {MAX_RESOLVENT_NODES}; increase dt")
    blocks = _blocks(n, BLOCK)
    inverses = [_lower_inverse(np.eye(hi - lo) + _operator_block(prob, (lo, hi), (lo, hi)))
                for lo, hi in blocks]
    rows = np.zeros(n)
    for c0, c1 in _blocks(n, 2 * BLOCK):
        X = np.empty((n - c0, c1 - c0))  # rows c0.. of R's columns c0..c1-1
        for I in range(c0 // BLOCK, len(blocks)):
            r0, r1 = blocks[I]
            # S's first c1 - c0 columns are the right-hand side L[r0:r1, c0:c1];
            # its first r0 - c0 multiply the rows of X found so far
            S = _operator_block(prob, (r0, r1), (c0, max(c1, r0)))
            rhs = S[:, :c1 - c0] - S[:, :r0 - c0] @ X[:r0 - c0]
            X[r0 - c0:r1 - c0] = inverses[I] @ rhs
            rows[r0:r1] += np.abs(X[r0 - c0:r1 - c0]).sum(axis=1)
    return t, rows


def _triangle_scans(prob: VolterraProblem, T0_scan) -> tuple:
    """Scans of the kernel triangle K(t_i, t_j), j <= i, one row block at a time.

    Returns the minimum, the largest increase down the sampled columns, the
    trapezoid row integrals w(t_i) and the sliding-tail masses per T0.
    """
    n = len(prob.forcing)
    nodes = np.arange(n)
    dt = prob.dt
    kmin = np.inf
    # decrease of t -> K(t,s) down every (n // 64)-th column of the triangle
    col_incr = 0.0
    for j in range(0, n - 1, max(1, n // 64)):
        col = _kernel_block(prob, nodes[j:], nodes[j:j + 1])[:, 0]
        col_incr = max(col_incr, float(np.max(np.diff(col))))
    w_vals = np.empty(n)
    tail = {float(T0): 0.0 for T0 in T0_scan}
    for r0, r1 in _blocks(n, BLOCK):
        tri = np.tril(_kernel_block(prob, nodes[r0:r1], nodes), r0)  # zero right of the diagonal
        kmin = float(np.min(tri, initial=kmin))
        d = np.arange(r1 - r0)
        # w(t) = int_0^t K(t,s) ds: trapezoid row sums
        w_vals[r0:r1] = dt * (tri.sum(axis=1) - 0.5 * (tri[:, 0] + tri[d, d + r0]))
        # sliding-tail masses int_0^{t-T0} K(t,s) ds: the cumulative trapezoid
        # along row i, read at column i - m
        cum = np.cumsum(tri, axis=1)
        for T0 in T0_scan:
            m = int(round(T0 / dt))
            i = np.arange(max(r0, m + 1), r1)
            masses = dt * (cum[i - r0, i - m] - 0.5 * (tri[i - r0, 0] + tri[i - r0, i - m]))
            tail[float(T0)] = float(np.max(masses, initial=tail[float(T0)]))
    return kmin, col_incr, w_vals, tail


def gripenberg_check(prob: VolterraProblem, T0_scan=(1.0, 2.0, 5.0, 10.0)) -> dict:
    """Boundedness report for continuous nonnegative kernels.

    Monitors (report-only): decrease of t -> K(t,s), convergence of
    w(t) = int_0^t K ds, the sliding-tail masses for each T0 in the scan, and
    the resolvent metric sup_t int |r(t,s)| ds with its stability over the
    trailing half of the horizon.  No n x n array is formed.
    """
    t, row_l1 = resolvent_row_l1(prob)  # first: it enforces the node cap
    n = len(t)
    kmin, col_incr, w_vals, tail = _triangle_scans(prob, T0_scan)
    report: dict = {"hypothesis_flags": []}
    if kmin < 0:
        report["hypothesis_flags"].append("kernel takes negative values")
    report["max_column_increase"] = col_incr
    if col_incr > 1e-10:
        report["hypothesis_flags"].append("t -> K(t,s) is not decreasing")
    report["w_late"] = float(w_vals[-1])
    report["w_drift_last_decade"] = float(np.max(w_vals[int(0.9 * n):])
                                          - np.min(w_vals[int(0.9 * n):]))
    report["tail_mass"] = tail
    if tail and min(tail.values()) >= 1.0:
        report["hypothesis_flags"].append(
            "sliding-tail kernel mass does not drop below 1")
    report["sup_resolvent_l1"] = float(np.max(row_l1))
    half = row_l1[n // 2:]
    report["resolvent_l1_late_relvar"] = float(
        (np.max(half) - np.min(half)) / max(np.max(row_l1), 1e-300))
    return report


# -- linear delay equation -------------------------------------------------------


@dataclass(frozen=True)
class LinearDDEProblem:
    """I' + a I + int_0^t k(t,s) [I(t) - I(s)] ds = f, sampled on t_m = m dt.

    ``a`` and ``f`` hold their values at the n + 1 nodes, and their common
    length fixes the grid; k(i, j) >= 0 takes broadcastable node indices
    j <= i and returns k(t_i, t_j) in their broadcast shape.
    """
    a: np.ndarray
    k: Callable
    f: np.ndarray
    I0: float
    dt: float

    def __post_init__(self):
        _store_node_samples(self, ("a", "f"))

    @property
    def grid(self) -> np.ndarray:
        return uniform_grid((len(self.a) - 1) * self.dt, self.dt)


def linear_dde_solve(prob: LinearDDEProblem, cross_check: bool = True) -> dict:
    """Integrate the delay equation with trapezoidal memory.

    Implicit-trapezoid stepping: the nodal derivative relation

        I'_j = f_j - a_j I_j - sum_w k(t_j, s)(I_j - I_s)

    is closed against I_{j+1} (linear), and I is the cumulative trapezoid of
    I'.  The report carries sup |I|, the tail oscillation on [0.9 T, T] and
    the Volterra cross-check residual.

    Both the march and the cross-check cost O(n^2) for n = T/dt steps, with
    one ``k`` call per step: the cross-check builds each kernel row
    K(t_i, .) from one cumulative trapezoid of k(t_i, .) and solves it on the
    general (non-convolution) Volterra path.
    """
    t, a, f, dt = prob.grid, prob.a, prob.f, prob.dt
    n = len(t) - 1
    I = np.empty(n + 1)
    dI = np.empty(n + 1)
    I[0] = prob.I0
    dI[0] = f[0] - a[0] * I[0]
    for j in range(1, n + 1):
        kj = np.asarray(prob.k(j, np.arange(j + 1)), dtype=float)
        w = trapz_weights(j + 1, dt)
        S = float(kj[:j] @ w[:j])  # the s = t_j term vanishes identically
        hist = float((kj[:j] * w[:j]) @ I[:j])
        # I_j [1 + dt/2 (a_j + S)] = I_{j-1} + dt/2 I'_{j-1} + dt/2 (f_j + hist)
        num = I[j - 1] + 0.5 * dt * dI[j - 1] + 0.5 * dt * (f[j] + hist)
        den = 1.0 + 0.5 * dt * (a[j] + S)
        I[j] = num / den
        dI[j] = f[j] - a[j] * I[j] - (S * I[j] - hist)
    tail = I[int(0.9 * n):]
    out = {
        "t": t, "I": I, "dI": dI,
        "sup_abs_I": float(np.max(np.abs(I))),
        "tail_oscillation": float(np.max(tail) - np.min(tail)),
        "I_final": float(I[-1]),
    }
    if cross_check:
        def K_equiv(i, j):
            # one k call per row i: the inner integrals over [0, t_j] are the
            # cumulative trapezoid of k(t_i, .) read at the nodes j
            top = int(np.max(j))
            return a[i] + cumtrapz(prob.k(i, np.arange(top + 1)), dx=dt)[j]

        vp = VolterraProblem(kernel=K_equiv, forcing=f - a * prob.I0, dt=dt)
        _, u = solve(vp)
        I_vol = prob.I0 + cumtrapz(u, dx=dt)
        out["cross_check_residual"] = float(np.max(np.abs(I_vol - I)))
    return out
