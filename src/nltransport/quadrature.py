"""Gauss-Legendre quadrature for integrals over half-lines [a, inf), and the
trapezoid rule on uniform grids.

The substitution y = a + u/(1-u) maps [0,1) onto [a, inf); integrands with
algebraic tails become smooth on the unit interval, so a fixed Gauss-Legendre
rule converges fast.  ``HalfLineRule`` is the functionals' fixed rule.
``tail_integral_refined`` doubles the node count until the relative change
falls below ``rtol`` (cap ``nmax``).  No source needs it, since every
equilibrium tail in ``sources`` has a closed form; it is the independent
quadrature that the tests check those closed forms against.  The unit
Gauss-Legendre nodes also serve the profile reconstruction's and the Laplace
transform's panels, and ``cumtrapz`` and ``trapz_weights`` the time grids
of the delay, linear and Volterra routes.  The control payoffs take none of
these: they are closed forms (``control.PayoffG.ride``).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

DEFAULT_RTOL = 1e-10
DEFAULT_N0 = 128
DEFAULT_NMAX = 1024


def unit_gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped from [-1,1] to [0,1]."""
    if n not in _NODE_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _NODE_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _NODE_CACHE[n]


class HalfLineRule:
    """Frozen quadrature rule for [a, inf) with n mapped Gauss nodes."""

    def __init__(self, a: float, n: int = DEFAULT_N0):
        u, w = unit_gauss_nodes(n)
        self.a = float(a)
        self.n = int(n)
        self.y = a + u / (1.0 - u)
        self.w = w / (1.0 - u) ** 2

    def integrate_values(self, values: np.ndarray) -> float:
        """Integral from values sampled at ``self.y`` (last axis)."""
        return np.asarray(values) @ self.w


def tail_integral_values(f, a, n: int = DEFAULT_N0, scale=None) -> np.ndarray:
    """Vectorized integrals of ``f`` over [a_i, inf) for an array of lower ends.

    The substitution y = a + s*u/(1-u) uses a per-endpoint length scale
    (default 1 + a) so that tails starting far out are still resolved.
    ``f`` must accept arrays of any shape; returns an array shaped like ``a``.
    """
    a = np.asarray(a, dtype=float)
    s = 1.0 + a if scale is None else np.broadcast_to(np.asarray(scale, float), a.shape)
    u, w = unit_gauss_nodes(n)
    y = a[..., None] + s[..., None] * u / (1.0 - u)
    wy = w / (1.0 - u) ** 2
    return (f(y) * s[..., None]) @ wy


def tail_integral_refined(f, a, rtol=DEFAULT_RTOL, n0=DEFAULT_N0,
                          nmax=DEFAULT_NMAX, scale=None) -> np.ndarray:
    """Refinement-controlled version of :func:`tail_integral_values`.

    Doubles the node count until the largest relative change is below
    ``rtol`` (cap ``nmax``).  A last doubling that still moves some end by
    more than 1e-4 (relative) raises NumericalError: the integrand diverges or
    is not resolved, and the last value would be wrong.
    """
    val = tail_integral_values(f, a, n0, scale=scale)
    n, change = n0, 0.0
    while n < nmax:
        n *= 2
        nxt = tail_integral_values(f, a, n, scale=scale)
        change = np.max(np.abs(nxt - val) / np.maximum(1.0, np.abs(nxt)))
        if change <= rtol:
            return nxt
        val = nxt
    if change > 1e-4:
        raise NumericalError(
            f"tail integral did not stabilize under refinement "
            f"(last change {change:.3e} at {nmax} nodes)")
    return val


def cumtrapz(y: np.ndarray, dx: float | None = None, x: np.ndarray | None = None) -> np.ndarray:
    """Cumulative trapezoid with a leading zero (same length as input)."""
    y = np.asarray(y, dtype=float)
    if x is not None:
        seg = 0.5 * (y[1:] + y[:-1]) * np.diff(np.asarray(x, dtype=float))
    else:
        seg = 0.5 * (y[1:] + y[:-1]) * dx
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(seg, out=out[1:])
    return out


def trapz_weights(n: int, dx: float) -> np.ndarray:
    """Trapezoid weights for n uniformly spaced nodes."""
    w = np.full(n, dx)
    w[0] = w[-1] = 0.5 * dx
    if n == 1:
        w[0] = 0.0
    return w

