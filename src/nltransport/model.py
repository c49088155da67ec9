"""Model core: equilibrium profile, the operators A and B, and the rho functional.

For the transport coefficient rho the model couples a source h, a functional
spec and the equilibrium parameter p > 0:

    rho(zeta) = [I(zeta) + <dI(zeta), h + zeta'>]
                / [p I(zeta) + <dI(zeta), zeta - y zeta'>].

The denominator must stay positive (the admissibility condition); a
configurable floor converts near-zero denominators into explicit errors.
The stationary profile solving the equilibrium ODE with rho = 1/p is

    xi_p(y) = (p + y) int_y^inf p h(y') / (p + y')^2 dy',

whose derivatives close analytically:

    xi_p'(y)  = J(y) - p h(y)/(p+y),      J(y) = int_y^inf p h/(p+y')^2 dy'
    xi_p''(y) = -p h'(y)/(p+y)
    A xi_p(y) = p [J(y) + y h(y)/(p+y)].

Every one of these reads the same J from ``SourceFn.equilibrium_tail``, a
closed form for every source.  ``backward_state`` is the frozen flow
e^{d/p} x + v p (e^{d/p} - 1) of dx/ds = -x/p - v, in the expm1 form that
keeps full relative accuracy as d -> 0: at v = 1 the linearization's foot
points Y_d(x), and the control problems' states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelViolationError
from .functionals import FunctionalSpec, Profile
from .sources import SourceFn

ADMISSIBILITY_FLOOR = 1e-8


def backward_state(d, x, p: float, v=1.0):
    """The state a time d before the point where it is x, under dx/ds = -x/p - v."""
    return np.exp(d / p) * x + v * p * np.expm1(d / p)


@dataclass(frozen=True)
class RhoResult:
    rho: float
    numerator: float
    denominator: float
    I_value: float = float("nan")


def apply_AB(prof: Profile, p: float, y) -> tuple[np.ndarray, np.ndarray]:
    """A zeta = zeta - y zeta',  B zeta = zeta/p - (1 + y/p) zeta'."""
    y = np.asarray(y, dtype=float)
    z = prof(y)
    dz = prof.d(y)
    return z - y * dz, z / p - (1.0 + y / p) * dz


class Model:
    """Source + functional + p, with cached equilibrium data on the quad rule."""

    def __init__(self, source: SourceFn, functional: FunctionalSpec, p: float,
                 admissibility_floor: float = ADMISSIBILITY_FLOOR):
        if p <= 0:
            raise DomainError("p must be positive")
        self.source = source
        self.functional = functional
        self.p = float(p)
        self.admissibility_floor = float(admissibility_floor)
        functional.check_dominates(source)
        y = functional.nodes
        self.h_nodes = np.asarray(source.eval(y, 0), dtype=float)
        self.xi_p_nodes = self.equilibrium_values(y)
        self.dxi_p_nodes = self.equilibrium_values(y, order=1)

    # -- equilibrium ---------------------------------------------------------

    def _tail(self, y):
        """J(y) = int_y^inf p h(u)/(p+u)^2 du, vectorized."""
        return self.source.equilibrium_tail(y, self.p)

    def equilibrium_values(self, y, order: int = 0):
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0):
            raise DomainError("equilibrium evaluated at y <= 0")
        p = self.p
        if order == 0:
            return (p + y) * self._tail(y)
        if order == 1:
            return self._tail(y) - p * self.source.eval(y, 0) / (p + y)
        if order == 2:
            return -p * self.source.eval(y, 1) / (p + y)
        raise DomainError("equilibrium derivative order must be 0, 1 or 2")

    def equilibrium_pair(self, y):
        """(xi_p, xi_p') with the tail integral computed once."""
        y = np.asarray(y, dtype=float)
        J = self._tail(y)
        hy = self.source.eval(y, 0)
        return (self.p + y) * J, J - self.p * hy / (self.p + y)

    def equilibrium_profile(self) -> Profile:
        return Profile(
            value=lambda y: self.equilibrium_values(y, 0),
            deriv=lambda y: self.equilibrium_values(y, 1),
            second=lambda y: self.equilibrium_values(y, 2),
            descriptor=f"equilibrium(p={self.p:g})",
            pair=self.equilibrium_pair,
        )

    def equilibrium_A(self, y):
        """A xi_p(y) = p [J(y) + y h(y)/(p+y)], positive and bounded."""
        y = np.asarray(y, dtype=float)
        p = self.p
        return p * (self._tail(y) + y * self.source.eval(y, 0) / (p + y))

    # -- rho -----------------------------------------------------------------

    def pairing(self, xi, dxi) -> tuple[float, np.ndarray, float]:
        """(I, dI, p I + <dI, zeta - y zeta'>) from samples at the functional's nodes.

        The one place the admissibility denominator is formed and checked:
        at or below the floor ``admissibility_floor * p * I`` it raises
        ModelViolationError.
        """
        spec = self.functional
        I_val = spec.value_from_samples(xi)
        grad = spec.gradient_from_samples(xi)
        den = self.p * I_val + spec.pair_from_samples(grad, xi - spec.nodes * dxi)
        if den <= self.admissibility_floor * self.p * I_val:
            raise ModelViolationError(
                "admissibility failed: denominator p*I + <dI, zeta - y zeta'> "
                f"= {den:.6e} is at or below the positivity floor")
        return I_val, grad, den

    def rho_from_samples(self, xi, dxi) -> RhoResult:
        """rho from profile samples at the functional's quadrature nodes."""
        I_val, grad, den = self.pairing(xi, dxi)
        num = I_val + self.functional.pair_from_samples(grad, self.h_nodes + dxi)
        return RhoResult(rho=num / den, numerator=num, denominator=den,
                         I_value=I_val)

    def rho(self, prof: Profile) -> RhoResult:
        y = self.functional.nodes
        return self.rho_from_samples(np.asarray(prof(y), dtype=float),
                                     np.asarray(prof.d(y), dtype=float))

    def check_admissible(self, prof: Profile) -> float:
        """The admissibility denominator of ``prof``, floor-checked by ``pairing``
        after ``FunctionalSpec.value`` has checked b + zeta > 0 and I > 0."""
        self.functional.value(prof)
        y = self.functional.nodes
        return self.pairing(np.asarray(prof(y), dtype=float),
                            np.asarray(prof.d(y), dtype=float))[2]

    # -- diagnostics -----------------------------------------------------------

    def equilibrium_identity_gap(self) -> float:
        """|rho(xi_p) - 1/p|, which vanishes up to quadrature error."""
        res = self.rho_from_samples(self.xi_p_nodes, self.dxi_p_nodes)
        return abs(res.rho - 1.0 / self.p)

    def equilibrium_residual(self, y) -> np.ndarray:
        """Residual of the stationarity ODE  -h - xi' + (1/p)(xi - y xi') = 0."""
        y = np.asarray(y, dtype=float)
        xi, dxi = self.equilibrium_pair(y)
        return (-self.source.eval(y, 0) - dxi + (xi - y * dxi) / self.p)
