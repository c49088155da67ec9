"""Source functions h(y) for the transport model.

A source is positive, nonincreasing, tends to a positive limit ``h_inf`` at
infinity and may blow up (integrably) at the origin.  Two kernel
parametrizations are supported besides plain constants and tables:

* ``kernel_p``:   h(y) = h_inf + int_y^inf (1 + p/y') k(y') dy',
                  so h'(y) = -(1 + p/y) k(y);
* ``kernel_inf``: h(y) = h_inf + int_y^inf k(y')/y' dy',
                  so h'(y) = -k(y)/y  (the p -> inf limit of kernel_p).

Derivatives of kernel-backed sources are always computed from k and k' in
closed form, never by differencing.  Named kernels carry closed-form tail
integrals so that evaluation in hot loops is pure vector arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DomainError
from .quadrature import tail_integral_refined


@dataclass(frozen=True)
class Kernel:
    """C^1 nonnegative decreasing kernel k with optional closed-form tails.

    ``tail_inf(y)`` is int_y^inf k(u)/u du and ``tail_p(y, p)`` is
    int_y^inf (1 + p/u) k(u) du; both fall back to mapped quadrature.
    """

    name: str
    k: Callable[[np.ndarray], np.ndarray]
    kprime: Callable[[np.ndarray], np.ndarray]
    convex: bool = False
    tail_inf: Callable[[np.ndarray], np.ndarray] | None = None
    tail_p: Callable[[np.ndarray, float], np.ndarray] | None = None

    def tail_over_y(self, y):
        if self.tail_inf is not None:
            return self.tail_inf(y)
        return tail_integral_refined(lambda u: self.k(u) / u, y,
                                     scale=1.0 + np.asarray(y, dtype=float))

    def tail_with_p(self, y, p):
        if self.tail_p is not None:
            return self.tail_p(y, p)
        return tail_integral_refined(lambda u: (1.0 + p / u) * self.k(u), y,
                                     scale=1.0 + np.asarray(y, dtype=float))


def log_kernel() -> Kernel:
    """k(y) = 1/(1+y); with kind=kernel_inf gives h(y) = h_inf + log(1 + 1/y)."""
    return Kernel(
        name="log",
        k=lambda y: 1.0 / (1.0 + y),
        kprime=lambda y: -1.0 / (1.0 + y) ** 2,
        convex=True,
        # int_y^inf du/(u(1+u)) = log(1 + 1/y)
        tail_inf=lambda y: np.log1p(1.0 / y),
    )


def compact_kernel(cutoff: float = 1.0) -> Kernel:
    """k(y) = (1 - y/c)_+^2, compactly supported on [0, c], C^1 and convex."""
    c = float(cutoff)

    def k(y):
        return np.clip(1.0 - y / c, 0.0, None) ** 2

    def kprime(y):
        return -2.0 / c * np.clip(1.0 - y / c, 0.0, None)

    def tail_inf(y):
        # int_y^c (1-u/c)^2/u du = -3/2 + log(c/y) + 2y/c - y^2/(2c^2), y <= c
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        inside = y < c
        yi = y[inside] if y.ndim else y
        val = -1.5 + np.log(c / yi) + 2.0 * yi / c - 0.5 * (yi / c) ** 2
        if y.ndim:
            out[inside] = val
            return out
        return val if inside else 0.0

    return Kernel(name=f"compact({c:g})", k=k, kprime=kprime, convex=True,
                  tail_inf=tail_inf)


def inv_square_kernel() -> Kernel:
    """k(y) = 1/(1+y)^2, integrable at infinity (usable with kind=kernel_p)."""

    def tail_p(y, p):
        # int_y^inf (1 + p/u)/(1+u)^2 du = 1/(1+y) + p [log(1+1/y) - 1/(1+y)]
        return 1.0 / (1.0 + y) + p * (np.log1p(1.0 / y) - 1.0 / (1.0 + y))

    return Kernel(
        name="inv_square",
        k=lambda y: 1.0 / (1.0 + y) ** 2,
        kprime=lambda y: -2.0 / (1.0 + y) ** 3,
        convex=True,
        tail_inf=lambda y: np.log1p(1.0 / y) - 1.0 / (1.0 + y),
        tail_p=tail_p,
    )


NAMED_KERNELS = {
    "log": log_kernel,
    "compact": compact_kernel,
    "inv_square": inv_square_kernel,
}


@dataclass(frozen=True)
class SourceFn:
    """The source h(.) with analytic first and second derivatives.

    kind is one of ``constant``, ``kernel_p``, ``kernel_inf``, ``tabulated``.
    """

    kind: str
    h_inf: float
    kernel: Kernel | None = None
    p: float | None = None
    table: tuple[np.ndarray, np.ndarray] | None = None
    _interp: PchipInterpolator | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.h_inf <= 0:
            raise DomainError("h_inf must be positive")
        if self.kind in ("kernel_p", "kernel_inf") and self.kernel is None:
            raise DomainError(f"kind={self.kind} requires a kernel")
        if self.kind == "kernel_p" and (self.p is None or self.p <= 0):
            raise DomainError("kind=kernel_p requires p > 0")
        if self.kind == "tabulated":
            if self.table is None:
                raise DomainError("kind=tabulated requires a table")
            ys, hs = self.table
            object.__setattr__(self, "_interp", PchipInterpolator(ys, hs))
        elif self.kind not in ("constant", "kernel_p", "kernel_inf"):
            raise DomainError(f"unknown source kind {self.kind!r}")

    def __call__(self, y, order: int = 0):
        return self.eval(y, order)

    def eval(self, y, order: int = 0):
        """h(y), h'(y) or h''(y); y may be an array of positive reals."""
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0.0):
            raise DomainError("source evaluated at y <= 0")
        if order not in (0, 1, 2):
            raise DomainError(f"derivative order {order} unsupported (max 2)")
        if self.kind == "constant":
            if order == 0:
                return np.full_like(y, self.h_inf) if y.ndim else self.h_inf
            return np.zeros_like(y) if y.ndim else 0.0
        if self.kind == "kernel_inf":
            if order == 0:
                return self.h_inf + self.kernel.tail_over_y(y)
            if order == 1:
                return -self.kernel.k(y) / y
            return -self.kernel.kprime(y) / y + self.kernel.k(y) / y ** 2
        if self.kind == "kernel_p":
            p = self.p
            if order == 0:
                return self.h_inf + self.kernel.tail_with_p(y, p)
            if order == 1:
                return -(1.0 + p / y) * self.kernel.k(y)
            return -(1.0 + p / y) * self.kernel.kprime(y) + p / y ** 2 * self.kernel.k(y)
        # tabulated
        lo, hi = self.table[0][0], self.table[0][-1]
        if np.any(y < lo) or np.any(y > hi):
            raise DomainError("tabulated source evaluated outside table range")
        return self._interp(y, nu=order)

    def validate(self, grid: np.ndarray | None = None, tol: float = 1e-9,
                 derivative_cap: float = 1e6, check_m1: bool | None = None) -> dict:
        """Check structural invariants on a grid; raises DomainError on failure.

        Returns a report with the observed bounds (sup y|h'|, sup y^2|h''|,
        the limit mismatch at large y, and the convexity-condition margins).
        """
        if grid is None:
            grid = np.geomspace(1e-6, 1e6, 2000)
        h = self.eval(grid, 0)
        h1 = self.eval(grid, 1)
        h2 = self.eval(grid, 2)
        if np.any(h <= 0.0):
            raise DomainError("source must be positive")
        if np.any(np.diff(h) > tol * np.maximum(1.0, np.abs(h[:-1]))):
            raise DomainError("source must be nonincreasing")
        limit_gap = abs(float(self.eval(1e6, 0)) - self.h_inf)
        if limit_gap >= 1e-4 * max(1.0, self.h_inf):
            raise DomainError("source does not approach h_inf at large y")
        sup_yh1 = float(np.max(grid * np.abs(h1)))
        sup_y2h2 = float(np.max(grid ** 2 * np.abs(h2)))
        if sup_yh1 > derivative_cap or sup_y2h2 > derivative_cap:
            raise DomainError("weighted derivative bounds exceed the cap")
        report = {
            "limit_gap_at_1e6": limit_gap,
            "sup_y_h1": sup_yh1,
            "sup_y2_h2": sup_y2h2,
        }
        # y*h(y) -> 0 along the small-y end of a log grid
        small = np.geomspace(1e-12, 1e-4, 9)
        try:
            yh = small * self.eval(small, 0)
            report["yh_smallest"] = float(yh[0])
            report["yh_to_zero"] = bool(yh[0] < 1e-3)
        except DomainError:
            report["yh_to_zero"] = None
        if check_m1 is None:
            check_m1 = self.kind == "kernel_inf" and self.kernel.convex
        if check_m1:
            m1a = grid * h2 + h1
            y2h2 = grid ** 2 * h2
            report["m1_min_yh2_plus_h1"] = float(np.min(m1a))
            report["m1_max_increase_y2h2"] = float(np.max(np.diff(y2h2)))
            if np.min(m1a) < -tol:
                raise DomainError("convexity condition y h'' + h' >= 0 violated")
            if np.max(np.diff(y2h2)) > tol:
                raise DomainError("monotonicity of y^2 h'' violated")
        return report


def constant_source(h_inf: float = 1.0) -> SourceFn:
    return SourceFn(kind="constant", h_inf=h_inf)


def log_source(h_inf: float = 1.0) -> SourceFn:
    """Canonical test source: h(y) = h_inf + log(1 + 1/y)."""
    return SourceFn(kind="kernel_inf", h_inf=h_inf, kernel=log_kernel())


def compact_source(h_inf: float = 1.0, cutoff: float = 1.0) -> SourceFn:
    return SourceFn(kind="kernel_inf", h_inf=h_inf, kernel=compact_kernel(cutoff))


def inv_square_p_source(h_inf: float = 1.0, p: float = 2.0) -> SourceFn:
    return SourceFn(kind="kernel_p", h_inf=h_inf, kernel=inv_square_kernel(), p=p)
