"""Profiles, the functional family I and the weighted sup norms.

The functional is I(zeta) = int_{eps0}^inf a(y) / [b(y) + zeta(y)]^q dy.  Its
gradient is the closed form dI(zeta)(y) = -q a(y)/[b(y)+zeta(y)]^{q+1} on
[eps0, inf) and zero below the cutoff, so the gradient is nonpositive and
supported away from the origin.  All pairings <dI(zeta), phi> use the same
frozen mapped Gauss rule as the functional itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError
from .quadrature import HalfLineRule
from .sources import SourceFn


@dataclass(frozen=True)
class Profile:
    """A nonnegative C^1 (optionally C^2) profile with analytic derivatives.

    ``pair`` is an optional fast path returning (value, derivative) in one
    call; reconstruction loops use it when present.
    """

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    second: Callable[[np.ndarray], np.ndarray] | None = None
    descriptor: str = ""
    pair: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __call__(self, y):
        return self.value(np.asarray(y, dtype=float))

    def d(self, y):
        return self.deriv(np.asarray(y, dtype=float))

    def pair_eval(self, y):
        y = np.asarray(y, dtype=float)
        if self.pair is not None:
            return self.pair(y)
        return self.value(y), self.deriv(y)

    def d2(self, y):
        """Second derivative; central differences (step 1e-4*y) when no analytic form."""
        y = np.asarray(y, dtype=float)
        if self.second is not None:
            return self.second(y)
        hstep = 1e-4 * y
        return (self.deriv(y + hstep) - self.deriv(y - hstep)) / (2.0 * hstep)

    @staticmethod
    def constant(c: float, descriptor: str = "constant") -> "Profile":
        return Profile(
            value=lambda y: np.full_like(np.asarray(y, dtype=float), c),
            deriv=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
            second=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
            descriptor=descriptor,
        )

    def scaled(self, c: float) -> "Profile":
        pair = None
        if self.pair is not None:
            def pair(y, _p=self.pair):
                v, d = _p(y)
                return c * v, c * d
        return Profile(
            value=lambda y: c * self.value(y),
            deriv=lambda y: c * self.deriv(y),
            second=None if self.second is None else (lambda y: c * self.second(y)),
            descriptor=f"{c:g}*{self.descriptor}",
            pair=pair,
        )


class FunctionalSpec:
    """Exponent q, cutoff eps0 and weights a(.), b(.) of the functional family.

    The quadrature rule on [eps0, inf) is frozen at construction: the node
    count doubles until the three integrability integrals a/b^r, r = q, q+1,
    q+2 are stable to ``rtol``, which simultaneously certifies the side
    conditions on a and b.
    """

    def __init__(self, q: float, eps0: float, a: Callable, b: Callable,
                 n0: int = 128, nmax: int = 1024, rtol: float = 1e-10):
        if q <= 0 or eps0 <= 0:
            raise DomainError("q and eps0 must be positive")
        self.q = float(q)
        self.eps0 = float(eps0)
        self.a = a
        self.b = b
        n = n0
        rule = HalfLineRule(eps0, n)
        ref = self._integrability_values(rule)
        while n < nmax:
            n *= 2
            rule2 = HalfLineRule(eps0, n)
            nxt = self._integrability_values(rule2)
            if np.max(np.abs(nxt - ref) / np.maximum(1.0, np.abs(nxt))) <= rtol:
                rule = rule2
                break
            ref, rule = nxt, rule2
        else:
            raise NumericalError(
                "integrability integrals a/b^r did not stabilize under refinement")
        self.rule = rule
        self.nodes = rule.y
        self.weights = rule.w
        self.a_nodes = np.asarray(a(rule.y), dtype=float)
        self.b_nodes = np.asarray(b(rule.y), dtype=float)
        if np.any(self.a_nodes < 0) or np.any(self.b_nodes < 0):
            raise DomainError("a and b must be nonnegative on [eps0, inf)")

    def _integrability_values(self, rule):
        a = np.asarray(self.a(rule.y), dtype=float)
        b = np.asarray(self.b(rule.y), dtype=float)
        return np.array([rule.integrate_values(a / b ** r)
                         for r in (self.q, self.q + 1, self.q + 2)])

    # -- evaluation on the frozen rule ------------------------------------

    def value_from_samples(self, zeta_nodes: np.ndarray) -> float:
        """I(zeta) from samples of zeta at ``self.nodes``."""
        return float(np.dot(self.weights,
                            self.a_nodes / (self.b_nodes + zeta_nodes) ** self.q))

    def gradient_from_samples(self, zeta_nodes: np.ndarray) -> np.ndarray:
        """dI(zeta) sampled at ``self.nodes`` (nonpositive)."""
        return -self.q * self.a_nodes / (self.b_nodes + zeta_nodes) ** (self.q + 1)

    def pair_from_samples(self, grad_nodes: np.ndarray, phi_nodes: np.ndarray) -> float:
        """<dI, phi> with both factors sampled at the rule nodes."""
        return float(np.dot(self.weights, grad_nodes * phi_nodes))

    # -- profile-facing API -------------------------------------------------

    def value(self, prof: Profile) -> float:
        zeta = np.asarray(prof(self.nodes), dtype=float)
        if np.any(self.b_nodes + zeta <= 0):
            raise DomainError("b + zeta must stay positive on [eps0, inf)")
        val = self.value_from_samples(zeta)
        if not np.isfinite(val) or val <= 0:
            raise NumericalError("functional value not finite and positive")
        return val

    def gradient(self, prof: Profile, y) -> np.ndarray | float:
        """Pointwise dI(zeta)(y): closed form above eps0, zero below."""
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        y = np.atleast_1d(y)
        if np.any(y <= 0):
            raise DomainError("gradient evaluated at y <= 0")
        out = np.zeros_like(y)
        mask = y >= self.eps0
        if np.any(mask):
            ym = y[mask]
            out[mask] = -self.q * np.asarray(self.a(ym), dtype=float) / (
                np.asarray(self.b(ym), dtype=float) + prof(ym)) ** (self.q + 1)
        return float(out[0]) if scalar else out

    def pair_gradient(self, prof: Profile, phi: Callable) -> float:
        """<dI(prof), phi> by the frozen rule."""
        zeta = np.asarray(prof(self.nodes), dtype=float)
        return self.pair_from_samples(self.gradient_from_samples(zeta),
                                      np.asarray(phi(self.nodes), dtype=float))

    def check_dominates(self, source: SourceFn, tol: float = 1e-12) -> None:
        """Require b(y) >= q h(y) on the node grid."""
        h = source.eval(self.nodes, 0)
        worst = float(np.min(self.b_nodes - self.q * h))
        if worst < -tol:
            raise DomainError(
                f"weight b must dominate q*h on [eps0, inf); worst margin {worst:.3e}")


# the weights a(y) a scenario names
WEIGHTS = {
    "inverse_square": lambda y: y ** -2.0,
    "exponential": lambda y: np.exp(-y),
}


def canonical_functional(source: SourceFn, q: float = 1.0, eps0: float = 1.0,
                         a: str = "inverse_square", b: float | None = None,
                         b_scale: float = 1.0) -> FunctionalSpec:
    """Weight ``WEIGHTS[a]`` and constant b: ``b``, or else q h(eps0) b_scale.

    The defaults give the canonical q=1, eps0=1, a(y)=y^-2 and b = h(eps0),
    which dominates q*h on [eps0, inf) since h decreases; every b is checked.
    """
    b0 = float(source.eval(eps0, 0)) * q * b_scale if b is None else float(b)
    spec = FunctionalSpec(q=q, eps0=eps0, a=WEIGHTS[a],
                          b=lambda y: np.full_like(np.asarray(y, float), b0))
    spec.check_dominates(source)
    return spec


DEFAULT_NORM_GRID = np.geomspace(1e-3, 1e4, 600)


def weighted_norm(prof: Profile, m: int = 1, grid: np.ndarray | None = None) -> float:
    """sup over the grid of sum_k y^k |d^k prof|, k <= m.

    The grid sup is a lower approximation of the true sup; the default grid
    spans [1e-3, 1e4] logarithmically, wide enough for every profile family
    shipped here.
    """
    if m not in (1, 2):
        raise DomainError("weighted norm implemented for m in {1, 2}")
    y = DEFAULT_NORM_GRID if grid is None else np.asarray(grid, dtype=float)
    total = np.abs(prof(y)) + y * np.abs(prof.d(y))
    if m == 2:
        total = total + y ** 2 * np.abs(prof.d2(y))
    return float(np.max(total))


def weighted_norm_from_samples(values, derivs, grid, seconds=None) -> float:
    total = np.abs(values) + grid * np.abs(derivs)
    if seconds is not None:
        total = total + grid ** 2 * np.abs(seconds)
    return float(np.max(total))
