"""Source functions h(y) for the transport model.

A source is positive, nonincreasing, tends to a positive limit ``h_inf`` at
infinity and may blow up (integrably) at the origin.  Two kernel
parametrizations are supported besides plain constants:

* ``kernel_p``:   h(y) = h_inf + int_y^inf (1 + p/y') k(y') dy',
                  so h'(y) = -(1 + p/y) k(y);
* ``kernel_inf``: h(y) = h_inf + int_y^inf k(y')/y' dy',
                  so h'(y) = -k(y)/y  (the p -> inf limit of kernel_p).

Derivatives of kernel-backed sources are always computed from k and k' in
closed form, never by differencing.  Every kernel carries closed-form tail
integrals, so that evaluation in hot loops is pure vector arithmetic, and
``SourceFn.eval_orders`` evaluates h, h' and h'' together into the caller's
buffers for the profile reconstruction's large arrays.  Every named kernel
also carries an antiderivative of log k, from which
``SourceFn.log_slope_integral`` gives int log(-h') in closed form: the
control level map needs no table.

The equilibrium of the model with parameter p is built on the tail

    J(y) = int_y^inf p h(u)/(p+u)^2 du = p h_inf/(p+y) + G(y),
    G(y) = p/(p+y) int_y^inf phi(u) (u - y)/(p+u) du,   phi = -h',

which follows from h - h_inf = int_u^inf phi by exchanging the order of
integration.  For every named kernel phi is rational, so G reduces to the
positive integrals ``rational_tail`` and, for the compact kernel, to
finite-interval analogues; ``SourceFn.equilibrium_tail`` uses these closed
forms and no quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

# Below this relative spread of the poles a divided difference of logarithms
# cancels; its positive power series then converges by at least this ratio.
SERIES_RATIO = 0.1
# finite-interval expansions in powers of the distance to the cutoff
CUTOFF_SERIES_RATIO = 0.5


@lru_cache(maxsize=256)
def _series_coefficients(bases: tuple, first: int, factors: int,
                         bound: float) -> np.ndarray:
    """c_k = h_k(bases) / prod_{i < factors} (first + k + i), k < L.

    h_k is the complete homogeneous symmetric polynomial of degree k.  L is
    the first length with C(L+m-1, m-1) bound^L <= 1e-17 (m bases), which
    bounds the remainder of sum_k c_k x^k, relative to its first term, for
    bases in [0, 1] and every x up to ``bound``.
    """
    m = len(bases)
    length = 1
    while comb(length + m - 1, m - 1) * bound ** length > 1e-17:
        length += 1
    partial = [1.0] * m
    coeffs = np.empty(length)
    for k in range(length):
        if k:
            prev = 0.0
            for j, b in enumerate(bases):
                partial[j] = prev + b * partial[j]
                prev = partial[j]
        coeffs[k] = partial[-1] / np.prod([first + k + i for i in range(factors)])
    coeffs.flags.writeable = False
    return coeffs


def _power_series(x, bases: tuple, first: int, factors: int, bound: float):
    """sum_k c_k x^k (see ``_series_coefficients``) for 0 <= x <= bound < 1.

    Every term is positive, so nothing cancels, and the length depends only
    on the bound, so each element's value is independent of the others.
    """
    coeffs = _series_coefficients(bases, first, factors, bound)
    acc = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= x
        acc += c
    return acc


def rational_tail(offsets, y):
    """int_y^inf du / prod_i (a_i + u) for offsets a_0 <= ... <= a_m, m >= 1.

    With X_i = a_i + y this is (-1)^(m+1) times the m-th divided difference
    of log over the X_i.  Where the relative spread r = (a_m - a_0)/X_m
    exceeds ``SERIES_RATIO`` the divided differences are formed recursively
    from the first one, log1p((a_1 - a_0)/X_0)/(a_1 - a_0), which has no
    cancellation; below it the positive series
    X_m^-m sum_k h_k(d) r^k/(m+k), d_i = (a_m - a_i)/(a_m - a_0), is summed.
    Differences of offsets are taken before adding y, so poles that nearly
    coincide (p -> 1) or that y dwarfs keep their full relative accuracy.
    """
    a = [float(v) for v in offsets]
    y = np.asarray(y, dtype=float)
    if y.ndim == 0:
        return rational_tail(a, y.reshape(1))[0]
    m = len(a) - 1
    spread = a[-1] - a[0]
    top = a[-1] + y
    if spread == 0.0:
        return 1.0 / (m * top ** m)
    if m == 1:
        return np.log1p(spread / (a[0] + y)) / spread
    ratio = spread / top
    series = ratio <= SERIES_RATIO
    out = np.empty_like(top)
    if series.any():
        bases = tuple((a[-1] - ai) / spread for ai in a[:-1])
        out[series] = (_power_series(ratio[series], bases, m, 1, SERIES_RATIO)
                       / top[series] ** m)
    rest = ~series  # the recursion only where the series does not apply
    if rest.any():
        y = y[rest]
        out[rest] = (rational_tail(a[:-1], y) - rational_tail(a[1:], y)) / spread
    return out


def _log_tail_remainder(z, w):
    """-log(w) - z - z^2/2 = sum_{n>=3} z^n/n for 0 <= z < 1 and w = 1 - z.

    The caller passes w as well, formed without the rounding of 1 - z, so
    the logarithm keeps its accuracy as z -> 1.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        return _log_tail_remainder(z.reshape(1), np.reshape(w, 1))[0]
    out = -np.log(w) - z - 0.5 * z * z
    small = z <= 0.3
    if small.any():
        zs = z[small]
        out[small] = zs ** 3 * _power_series(zs, (1.0,), 3, 1, 0.3)
    return out


@dataclass(frozen=True)
class Kernel:
    """C^1 nonnegative decreasing kernel k with its closed-form tails.

    ``tail_inf(y)`` is int_y^inf k(u)/u du and ``eq_tail_inf(y, p)`` the
    equilibrium tail G(y) = int_y^inf p (h - h_inf)(u)/(p+u)^2 du of the
    kernel_inf source.  A kernel integrable at infinity may also give
    ``tail_p(y, p)`` = int_y^inf (1 + p/u) k(u) du and ``eq_tail_p(y, p, kp)``,
    the same tails of the kernel_p source (kernel parameter kp); without them
    it cannot build one.  ``orders_inf(y, out)`` writes h - h_inf, h' and,
    given a third buffer, h'' of the kernel_inf source into ``out`` in place,
    with no temporaries (see ``SourceFn.eval_orders``).  ``log_integral(y)``
    is an antiderivative of log k on the kernel's support; without it a
    source has no closed-form level map (see ``SourceFn.log_slope_integral``).
    ``support`` is sup{y : k(y) > 0}, where the sources' h' stops being
    negative.
    """

    name: str
    k: Callable[[np.ndarray], np.ndarray]
    kprime: Callable[[np.ndarray], np.ndarray]
    tail_inf: Callable[[np.ndarray], np.ndarray]
    eq_tail_inf: Callable[[np.ndarray, float], np.ndarray]
    tail_p: Callable[[np.ndarray, float], np.ndarray] | None = None
    eq_tail_p: Callable[[np.ndarray, float, float], np.ndarray] | None = None
    orders_inf: Callable[[np.ndarray, Sequence[np.ndarray]], None] | None = None
    log_integral: Callable[[np.ndarray], np.ndarray] | None = None
    support: float = np.inf


def log_kernel() -> Kernel:
    """k(y) = 1/(1+y); with kind=kernel_inf gives h(y) = h_inf + log(1 + 1/y)."""

    def eq_tail_inf(y, p):
        # phi = 1/(u(1+u)); (u - y)/u = 1 - y/u
        y = np.asarray(y, dtype=float)
        return p / (p + y) * (rational_tail(sorted((1.0, p)), y)
                              - y * rational_tail(sorted((0.0, 1.0, p)), y))

    def orders_inf(y, out):
        # with r = 1/y: h - h_inf = log1p(r), h' = r/(-1-y) = -1/(y(1+y)) and
        # h'' = 1/(y(1+y)^2) + 1/(y^2(1+y)) = (2y+1) h'^2
        tail, d1 = out[0], out[1]
        np.divide(1.0, y, out=tail)
        np.subtract(-1.0, y, out=d1)
        np.divide(tail, d1, out=d1)
        np.log1p(tail, out=tail)
        if len(out) > 2:
            d2 = out[2]
            np.multiply(y, 2.0, out=d2)
            d2 += 1.0
            d2 *= d1
            d2 *= d1

    return Kernel(
        name="log",
        k=lambda y: 1.0 / (1.0 + y),
        kprime=lambda y: -1.0 / (1.0 + y) ** 2,
        # int_y^inf du/(u(1+u)) = log(1 + 1/y)
        tail_inf=lambda y: np.log1p(1.0 / y),
        eq_tail_inf=eq_tail_inf,
        orders_inf=orders_inf,
        # int_0^y log k = -int_0^y log1p = -[(1+y) log1p(y) - y]
        log_integral=lambda y: y - (1.0 + y) * np.log1p(y),
    )


def compact_kernel(cutoff: float = 1.0) -> Kernel:
    """k(y) = (1 - y/c)_+^2, compactly supported on [0, c], C^1 and convex.

    The equilibrium tails vanish for y >= c.  Below the cutoff, with t = y/c,
    q = p/c and e = 1 - t, they need

        Q(t) = int_t^1 (1-v)^2 (v-t) / (v (q+v)) dv,
        K(t) = int_t^1 (1-v)^2 (v-t) / (q+v) dv.

    Near the cutoff (e <= ``CUTOFF_SERIES_RATIO``) both are positive power
    series in e.  Further out they are closed forms in
    E(z) = -log(1-z) - z - z^2/2, which is also the tail of h; the form of Q
    is chosen by q, because the poles v = 0 and v = -q that it separates
    nearly meet for small q.
    """
    c = float(cutoff)

    def k(y):
        return np.clip(1.0 - y / c, 0.0, None) ** 2

    def kprime(y):
        return -2.0 / c * np.clip(1.0 - y / c, 0.0, None)

    def tail_inf(y):
        # int_y^c (1-u/c)^2/u du = E(1 - y/c), zero beyond the cutoff
        y = np.minimum(np.asarray(y, dtype=float), c)
        return _log_tail_remainder((c - y) / c, y / c)

    def tail_p(y, p):
        # int_y^c (1-u/c)^2 du = (c-y)^3/(3c^2)
        y = np.asarray(y, dtype=float)
        return np.clip(c - y, 0.0, None) ** 3 / (3.0 * c * c) + p * tail_inf(y)

    def q_and_k(y, p):
        # Q and K vanish at and beyond the cutoff; a NaN y goes on inside
        y = np.asarray(y, dtype=float)
        q = p / c
        Q, K = np.zeros_like(y), np.zeros_like(y)
        inside = ~(y >= c)
        if inside.any():
            Q[inside], K[inside] = q_and_k_inside(y[inside], q)
        return q / (q + y / c), Q, K

    def q_and_k_inside(y, q):
        big = 1.0 + q
        t = y / c
        e = (c - y) / c
        # int_t^1 (1-v)^2/(q+v) dv
        first = big ** 2 * _log_tail_remainder(e / big, (q + t) / big)
        K = e ** 3 / 3.0 - (q + t) * first
        if q >= 0.5:
            # 1/(v(q+v)) = (1/v - 1/(q+v))/q, int_t^1 (1-v)^2/v dv = E(e)
            Q = ((q + t) * first - t * _log_tail_remainder(e, t)) / q
        else:
            # int_t^1 (1-v)^2/(v(q+v)) dv without the 1/q partial fractions
            Q = first - t * (e - (2.0 + q) * np.log1p(e / (q + t))
                             + rational_tail((0.0, q), t)
                             - rational_tail((0.0, q), np.ones_like(t)))
        # near the cutoff: int_0^e w^(k+2) (e - w) dw = e^(k+4)/((k+3)(k+4))
        near = e <= CUTOFF_SERIES_RATIO
        if near.any():
            en = e[near]
            Q[near] = en ** 4 / big * _power_series(
                en, (1.0, 1.0 / big), 3, 2, CUTOFF_SERIES_RATIO)
            K[near] = en ** 4 / big * _power_series(
                en / big, (1.0,), 3, 2, CUTOFF_SERIES_RATIO)
        return Q, K

    def eq_tail_inf(y, p):
        scale, Q, _ = q_and_k(y, p)
        return scale * Q

    def eq_tail_p(y, p, kp):
        scale, Q, K = q_and_k(y, p)
        return scale * (c * K + kp * Q)

    def log_integral(y):
        # int_0^y 2 log(1 - u/c) du = -2 (c e log e + y), e = 1 - y/c, for
        # y < c; log1p keeps the small-y end accurate, (c - y)/c the cutoff
        y = np.asarray(y, dtype=float)
        e = (c - y) / c
        log_e = np.where(y <= 0.5 * c, np.log1p(-y / c), np.log(e))
        return -2.0 * (c * e * log_e + y)

    return Kernel(name=f"compact({c:g})", k=k, kprime=kprime,
                  tail_inf=tail_inf, tail_p=tail_p, eq_tail_inf=eq_tail_inf,
                  eq_tail_p=eq_tail_p, log_integral=log_integral, support=c)


def inv_square_kernel() -> Kernel:
    """k(y) = 1/(1+y)^2, integrable at infinity (usable with kind=kernel_p)."""

    def tail_p(y, p):
        # int_y^inf (1 + p/u)/(1+u)^2 du = 1/(1+y) + p [log(1+1/y) - 1/(1+y)]
        return 1.0 / (1.0 + y) + p * (np.log1p(1.0 / y) - 1.0 / (1.0 + y))

    def eq_tail_inf(y, p):
        # phi = 1/(u(1+u)^2)
        y = np.asarray(y, dtype=float)
        return p / (p + y) * (rational_tail(sorted((1.0, 1.0, p)), y)
                              - y * rational_tail(sorted((0.0, 1.0, 1.0, p)), y))

    def eq_tail_p(y, p, kp):
        # phi = 1/(1+u)^2 + kp/(u(1+u)^2); u - y = (1+u) - (1+y)
        y = np.asarray(y, dtype=float)
        own = (rational_tail(sorted((1.0, p)), y)
               - (1.0 + y) * rational_tail(sorted((1.0, 1.0, p)), y))
        return p / (p + y) * own + kp * eq_tail_inf(y, p)

    return Kernel(
        name="inv_square",
        k=lambda y: 1.0 / (1.0 + y) ** 2,
        kprime=lambda y: -2.0 / (1.0 + y) ** 3,
        tail_inf=lambda y: np.log1p(1.0 / y) - 1.0 / (1.0 + y),
        tail_p=tail_p,
        eq_tail_inf=eq_tail_inf,
        eq_tail_p=eq_tail_p,
        # log k is twice the log kernel's
        log_integral=lambda y: 2.0 * (y - (1.0 + y) * np.log1p(y)),
    )


NAMED_KERNELS = {
    "log": log_kernel,
    "compact": compact_kernel,
    "inv_square": inv_square_kernel,
}


@dataclass(frozen=True)
class SourceFn:
    """The source h(.) with analytic first and second derivatives.

    kind is one of ``constant``, ``kernel_p``, ``kernel_inf``.
    """

    kind: str
    h_inf: float
    kernel: Kernel | None = None
    p: float | None = None

    def __post_init__(self):
        if self.h_inf <= 0:
            raise DomainError("h_inf must be positive")
        if self.kind not in ("constant", "kernel_p", "kernel_inf"):
            raise DomainError(f"unknown source kind {self.kind!r}")
        if self.kind != "constant" and self.kernel is None:
            raise DomainError(f"kind={self.kind} requires a kernel")
        if self.kind == "kernel_p":
            if self.p is None or self.p <= 0:
                raise DomainError("kind=kernel_p requires p > 0")
            if self.kernel.tail_p is None or self.kernel.eq_tail_p is None:
                raise DomainError(f"kernel {self.kernel.name} has no kernel_p "
                                  "tails (tail_p, eq_tail_p)")

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
                return self.h_inf + self.kernel.tail_inf(y)
            if order == 1:
                return -self.kernel.k(y) / y
            return -self.kernel.kprime(y) / y + self.kernel.k(y) / y ** 2
        p = self.p
        if order == 0:
            return self.h_inf + self.kernel.tail_p(y, p)
        if order == 1:
            return -(1.0 + p / y) * self.kernel.k(y)
        return -(1.0 + p / y) * self.kernel.kprime(y) + p / y ** 2 * self.kernel.k(y)

    def eval_orders(self, y: np.ndarray, out: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
        """h, h' and, given a third buffer, h'' at the array y, written into ``out``.

        The constant source and a ``kernel_inf`` source whose kernel has
        ``orders_inf`` (the log kernel) write in place with no temporaries,
        under one positivity check for all orders; the compact and
        inv_square sources take ``eval`` once per order.  Few-point callers
        keep ``eval``, whose per-call overhead is lower.
        """
        # fmin skips NaN, as eval's any(y <= 0) does, and allocates nothing
        if y.size and np.fmin.reduce(y, axis=None) <= 0.0:
            raise DomainError("source evaluated at y <= 0")
        if self.kind == "constant":
            out[0].fill(self.h_inf)
            for buf in out[1:]:
                buf.fill(0.0)
            return out
        if self.kind == "kernel_inf" and self.kernel.orders_inf is not None:
            self.kernel.orders_inf(y, out)
            np.add(out[0], self.h_inf, out=out[0])
            return out
        for order, buf in enumerate(out):
            buf[...] = self.eval(y, order)
        return out

    def log_slope_integral(self, y):
        """Phi(y) = int_0^y log(-h'(u)) du in closed form.

        From the kernel's ``log_integral``, int_0^y log k: -h' = k/y gives
        Phi = int_0^y log k - (y log y - y), and -h' = (1 + p/y) k (kernel
        parameter p) gives Phi = int_0^y log k + y log1p(p/y) + p log1p(y/p),
        whose two added terms are positive.  Phi(0) = 0 keeps the rounding
        of Phi, and of the level map F = -y log(-h') + Phi, relative to y.
        """
        if self.kind == "constant" or self.kernel.log_integral is None:
            raise DomainError(f"source {self.kind} has no closed-form int log(-h')")
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0.0):
            raise DomainError("source evaluated at y <= 0")
        phi = self.kernel.log_integral(y)
        if self.kind == "kernel_inf":
            return phi - y * (np.log(y) - 1.0)
        return phi + y * np.log1p(self.p / y) + self.p * np.log1p(y / self.p)

    def equilibrium_tail(self, y, p: float):
        """J(y) = int_y^inf p h(u)/(p+u)^2 du, in closed form."""
        y = np.asarray(y, dtype=float)
        if y.ndim == 0:
            return self.equilibrium_tail(y.reshape(1), p)[0]
        base = p * self.h_inf / (p + y)
        if self.kind == "constant":
            return base
        if self.kind == "kernel_inf":
            return base + self.kernel.eq_tail_inf(y, p)
        return base + self.kernel.eq_tail_p(y, p, self.p)


def constant_source(h_inf: float = 1.0) -> SourceFn:
    return SourceFn(kind="constant", h_inf=h_inf)


def log_source(h_inf: float = 1.0) -> SourceFn:
    """Canonical test source: h(y) = h_inf + log(1 + 1/y)."""
    return SourceFn(kind="kernel_inf", h_inf=h_inf, kernel=log_kernel())


def compact_source(h_inf: float = 1.0, cutoff: float = 1.0) -> SourceFn:
    return SourceFn(kind="kernel_inf", h_inf=h_inf, kernel=compact_kernel(cutoff))


def inv_square_p_source(h_inf: float = 1.0, p: float = 2.0) -> SourceFn:
    return SourceFn(kind="kernel_p", h_inf=h_inf, kernel=inv_square_kernel(), p=p)
