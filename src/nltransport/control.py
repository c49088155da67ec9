"""Closed-form values for four control problems and their certificates.

The controlled state runs backward from a pinned terminal point:

    dx/ds = -x/p - v(s),  s < T,  x(T) = y,
    x(s)  = e^{(T-s)/p} y + int_s^T e^{(s'-s)/p} v(s') ds'.

Four payoffs are handled, two unweighted and two discounted:

    max over 0 < v <= 1   of  int_t^T g(x/v) ds                  ("max01")
    min over v >= 1       of  int_t^T g(x/v) ds                  ("min1inf")
    max over 0 <= v <= 1  of  int_t^T g(x/v) e^{-(T-s)/p} v ds   ("max01w")
    min over v >= 1       of  int_t^T g(x/v) e^{-(T-s)/p} v ds   ("min1infw")

The reachable sets are  e^{(T-t)/p} y < x < x_p(t)  for the max problems and
x > x_p(t)  for the min problems, with x_p(s) = e^{(T-s)/p}(y+p) - p the
v = 1 trajectory.  The max values are attained by bang-bang controls that
coast (v -> 0) until hitting x_p and ride it afterwards; the switching time
solves  e^{tau/p} = e^{T/p}(1 + y/p) - (x/p) e^{t/p}.  The min values follow
characteristics on which x/v is frozen (unweighted) or slides along the
level map

    F(z) = -z log(-g'(z)) + int_{z0}^z log(-g'(z')) dz',

which is strictly increasing with F(z2) - F(z1) >= z2 - z1 below
z_inf = sup{z : g'(z) < 0} and diverges there; all roots are bracketed by
these inequalities.  A characteristic F(z(s)) = F(z1) + t1 - s has
ds/z = d log(-g'), so its state and its payoff integral close in form and
need only its start z(t): one level-map inversion per characteristic.
Level-map inversions take safeguarded Newton steps from a tabulated start,
and the ratio and merge-time roots take Brent steps, inside those brackets.
The module needs no scipy: the level map's tables are not-a-knot cubic
splines solved by one tridiagonal sweep (``_Spline``), and ``_brent`` is a
port of scipy's ``brentq``.

Each closed-form piece has one home: ``_edge_states`` runs the backward state
recursion of a piecewise-constant control, ``_ride`` integrates the payoff
along x_p, ``_char_start`` inverts a level-map characteristic's start, from
which ``_char_state`` and ``_char_payoff`` follow it in closed form, and
``value`` answers flat payoffs (z_inf <= 0), whose values need no control.

``verification_certificate`` checks the closed forms against sampled
controls, and ``extremal_history_certificate`` checks the delay functional F
against sampled histories on both sides of the flat history.  The tests'
independent oracle, backward-induction dynamic programming in reversed time,
is ``brute_force`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .dde import F_of_path
from .errors import DomainError, ModelViolationError, NumericalError
from .quadrature import gauss_panels, unit_gauss_nodes
from .sources import SourceFn

VARIANTS = ("max01", "min1inf", "max01w", "min1infw")
BISECT_ITERS = 60
MIN_CONTROL_CEILING = 8.0


class PayoffG:
    """Payoff density g with its derivative, its limit at infinity and z_inf."""

    def __init__(self, g: Callable, gprime: Callable, g_inf: float, z_inf: float,
                 name: str = ""):
        self.g = g
        self.gprime = gprime
        self.g_inf = float(g_inf)
        self.z_inf = float(z_inf)
        self.name = name

    def __call__(self, z):
        return self.g(np.asarray(z, dtype=float))

    def d(self, z):
        return self.gprime(np.asarray(z, dtype=float))

    @property
    def degenerate(self) -> bool:
        return self.z_inf <= 0.0

    @cached_property
    def char_map(self) -> "CharMap":
        return CharMap(self)

    @staticmethod
    def constant(g0: float) -> "PayoffG":
        return PayoffG(g=lambda z: np.full_like(np.asarray(z, float), g0),
                       gprime=lambda z: np.zeros_like(np.asarray(z, float)),
                       g_inf=g0, z_inf=0.0, name=f"const({g0:g})")

    @staticmethod
    def from_source_unweighted(source: SourceFn, p: float, y: float) -> "PayoffG":
        """g(z) = -(1 + y/p) h'(z): the derivative part of the delay functional."""
        c = 1.0 + y / p
        z_inf = _slope_support(source)
        return PayoffG(g=lambda z: -c * source.eval(z, 1),
                       gprime=lambda z: -c * source.eval(z, 2),
                       g_inf=0.0, z_inf=z_inf, name="-(1+y/p) h'")

    @staticmethod
    def from_source_weighted(source: SourceFn, p: float) -> "PayoffG":
        """g(z) = h(z)/p: the discounted part of the delay functional."""
        z_inf = _slope_support(source)
        return PayoffG(g=lambda z: source.eval(z, 0) / p,
                       gprime=lambda z: source.eval(z, 1) / p,
                       g_inf=source.h_inf / p, z_inf=z_inf, name="h/p")


def _slope_support(source: SourceFn) -> float:
    """sup{z : h'(z) < 0}; infinity for strictly decreasing sources."""
    if source.kind == "constant":
        return 0.0
    probes = np.geomspace(1e-3, 1e8, 100)
    slopes = source.eval(probes, 1)
    neg = probes[slopes < -1e-300]
    if len(neg) == len(probes):
        return np.inf
    if len(neg) == 0:
        return 0.0
    return _bisect(lambda z: source.eval(z, 1) < -1e-300,
                   neg[-1], probes[np.searchsorted(probes, neg[-1]) + 1])


def _bisect(below, lo: float, hi: float) -> float:
    """The midpoint of [lo, hi] after BISECT_ITERS halvings that keep below(lo)
    true and below(hi) false."""
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ControlProblem:
    variant: str
    g: PayoffG
    p: float
    y: float
    T: float
    t: float

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}")
        if self.y <= 0 or self.p <= 0 or self.t >= self.T:
            raise DomainError("need y > 0, p > 0 and t < T")

    @property
    def horizon(self) -> float:
        return self.T - self.t

    @property
    def is_max(self) -> bool:
        return self.variant in ("max01", "max01w")

    @property
    def weighted(self) -> bool:
        return self.variant in ("max01w", "min1infw")

    def x_p(self, s):
        """The v = 1 trajectory through (y, T)."""
        return np.exp((self.T - np.asarray(s, dtype=float)) / self.p) \
            * (self.y + self.p) - self.p

    def reachable_bounds(self) -> tuple[float, float]:
        lo = np.exp(self.horizon / self.p) * self.y
        hi = float(self.x_p(self.t))
        if self.is_max:
            return lo, hi
        return hi, np.inf

    def check_state(self, x: float) -> None:
        lo, hi = self.reachable_bounds()
        if not (lo < x < hi):
            raise DomainError(
                f"state x={x:.6g} outside the reachable set ({lo:.6g}, {hi:.6g}) "
                f"for variant {self.variant}")

    def hypothesis_report(self) -> dict:
        """Check of the shape condition required by the variant, to 1e-9, on
        400 geometric points from 1e-3 to min(z_inf, 1e4)."""
        hi = self.g.z_inf if np.isfinite(self.g.z_inf) and self.g.z_inf > 0 else 1e4
        grid = np.geomspace(1e-3, hi * (1 - 1e-9) if hi < 1e4 else 1e4, 400)
        key, label, quantity = _HYPOTHESES[self.variant]
        margin = float(np.max(np.diff(quantity(self.g, grid))))
        if not margin <= 1e-9:
            raise ModelViolationError(f"payoff hypothesis violated: {label}")
        return {key: margin, "ok": True}


# per variant: (report key, message, the quantity of g on z that must decrease)
_HYPOTHESES = {
    "max01": ("x_times_excess_decreasing_margin", "x [g(x) - g(inf)] must be decreasing",
              lambda g, z: z * (g(z) - g.g_inf)),
    "min1inf": ("neg_z2_gprime_decreasing_margin", "-z^2 g'(z) must be decreasing",
                lambda g, z: -z ** 2 * g.d(z)),
    "max01w": ("g_decreasing_margin", "g must be decreasing", lambda g, z: g(z)),
    "min1infw": ("neg_z_gprime_decreasing_margin", "-z g'(z) must be decreasing",
                 lambda g, z: -z * g.d(z)),
}


@dataclass(frozen=True)
class PiecewiseControl:
    """Piecewise-constant control on [t, T]: values[i] on [edges[i], edges[i+1])."""

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.edges) != len(self.values) + 1:
            raise DomainError("need one more edge than segment values")
        if np.any(np.diff(self.edges) <= 0):
            raise DomainError("edges must increase")

    def check_admissible(self, variant: str) -> None:
        v = self.values
        if variant in ("max01", "max01w"):
            if np.any(v <= 0) or np.any(v > 1.0 + 1e-12):
                raise DomainError("max variants need 0 < v <= 1")
        elif np.any(v < 1.0 - 1e-12):
            raise DomainError("min variants need v >= 1")


def _backward(x_end, v, d, p: float):
    """The state a time d before the point where it is x_end, under control v."""
    e = np.exp(d / p)
    return e * x_end + v * p * (e - 1.0)


def _edge_states(prob: ControlProblem, control: PiecewiseControl) -> np.ndarray:
    """The state at the segment edges of an admissible control spanning [t, T],
    backward from x(T) = y."""
    control.check_admissible(prob.variant)
    edges = control.edges
    if abs(edges[0] - prob.t) > 1e-12 or abs(edges[-1] - prob.T) > 1e-12:
        raise DomainError("control must span [t, T]")
    xe = np.empty(len(edges))
    xe[-1] = prob.y
    for i in range(len(control.values) - 1, -1, -1):
        xe[i] = _backward(xe[i + 1], control.values[i], edges[i + 1] - edges[i], prob.p)
    return xe


def trajectory_x(prob: ControlProblem, control: PiecewiseControl, s):
    """Exact state along the piecewise-constant control, backward from (y, T)."""
    xe = _edge_states(prob, control)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any((s_arr < prob.t - 1e-12) | (s_arr > prob.T + 1e-12)):
        raise DomainError("s outside [t, T]")
    edges = control.edges
    i = np.minimum(np.searchsorted(edges, s_arr, side="right") - 1,
                   len(control.values) - 1)
    out = _backward(xe[i + 1], control.values[i], edges[i + 1] - s_arr, prob.p)
    return float(out[0]) if np.ndim(s) == 0 else out


def start_state(prob: ControlProblem, control: PiecewiseControl) -> float:
    return trajectory_x(prob, control, prob.t)


def payoff(prob: ControlProblem, control: PiecewiseControl) -> float:
    """16-point Gauss quadrature per segment of the payoff along the exact
    trajectory."""
    p = prob.p
    u, w = unit_gauss_nodes(16)
    edges = control.edges
    xe = _edge_states(prob, control)
    total = 0.0
    for i, v in enumerate(control.values):
        a, b = edges[i], edges[i + 1]
        s = a + (b - a) * u
        d = b - s
        x = np.exp(d / p) * xe[i + 1] + v * p * np.expm1(d / p)
        vals = prob.g(x / v)
        if prob.weighted:
            vals = vals * np.exp(-(prob.T - s) / p) * v
        total += (b - a) * float(np.dot(w, vals))
    return total


# -- closed-form values ------------------------------------------------------------


def _switch_time(prob: ControlProblem, x: float) -> float:
    """Bang-bang switching time of a reachable x:
    e^{tau/p} = e^{T/p}(1 + y/p) - (x/p) e^{t/p}."""
    prob.check_state(x)
    p, y, T, t = prob.p, prob.y, prob.T, prob.t
    val = np.exp(T / p) * (1.0 + y / p) - x / p * np.exp(t / p)
    if val <= 0:
        raise DomainError("switching time undefined: state outside reachable set")
    tau = p * np.log(val)
    if not (t < tau < T):
        raise DomainError("switching time escaped (t, T); state on the boundary")
    return float(tau)


def _gauss_integral(f, a: float, b: float) -> float:
    """Composite Gauss rule, 24 panels of 12 nodes, on [a, b]; 0 when b <= a."""
    if b <= a:
        return 0.0
    s, ws = gauss_panels(a, b, 24, 12)
    return float(np.dot(ws, f(s)))


def _ride(prob: ControlProblem, a: float) -> float:
    """The payoff of riding x_p from a to T: int_a^T g(x_p(s)) ds, with the
    discount e^{-(T-s)/p} in the weighted problems."""
    def density(s):
        vals = prob.g(prob.x_p(s))
        return vals * np.exp(-(prob.T - s) / prob.p) if prob.weighted else vals

    return _gauss_integral(density, a, prob.T)


def value_max01(prob: ControlProblem, x: float) -> tuple[float, float]:
    """Closed-form value and switching time for the unweighted max problem."""
    tau = _switch_time(prob, x)
    return (tau - prob.t) * prob.g.g_inf + _ride(prob, tau), tau


def value_max01w(prob: ControlProblem, x: float) -> tuple[float, float]:
    """Closed-form value and switching time for the discounted max problem."""
    tau = _switch_time(prob, x)
    return _ride(prob, tau), tau


def value_min1inf(prob: ControlProblem, x: float) -> tuple[float, dict]:
    """Closed-form value for the unweighted min problem.

    Below the frozen-ratio boundary x_p(t, T) = y e^{(1/p + 1/y)(T-t)} the
    optimal characteristic merges with x_p at a time found by bisection;
    above it the ratio lambda solves the single exponential relation.
    """
    prob.check_state(x)
    p, y, T, t = prob.p, prob.y, prob.T, prob.t
    boundary = y * np.exp((1.0 / p + 1.0 / y) * (T - t))
    info = {"boundary_x": float(boundary),
            "near_boundary": bool(abs(x - boundary) <= 1e-9 * max(1.0, x))}
    if x >= boundary:
        lam = 1.0 / (np.log(x / y) / (T - t) - 1.0 / p)
        info["branch"] = "ratio"
        info["lambda"] = float(lam)
        return (T - t) * float(prob.g(lam)), info

    def merged_state(tau):
        xp_tau = prob.x_p(tau)
        return xp_tau * np.exp((1.0 / p + 1.0 / xp_tau) * (tau - t))

    tau = _bisect(lambda tau: merged_state(tau) < x, t, T)
    info["branch"] = "merge"
    info["tau"] = float(tau)
    return (tau - t) * float(prob.g(prob.x_p(tau))) + _ride(prob, tau), info


class _Spline:
    """Not-a-knot cubic spline through (x, y) on a uniform grid x.

    The knot slopes solve the tridiagonal system that scipy's ``CubicSpline``
    solves for not-a-knot ends, by one Thomas sweep without pivoting: the
    interior rows are diagonally dominant and the pivots of the two end rows
    stay positive and of the order of the spacing.  Between knots the cubic
    Hermite form is evaluated in its power basis, in scipy's order of
    operations; outside the grid the end cubics extrapolate.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # row i: lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]
        lower = np.concatenate([[0.0], dx[1:], [x[-1] - x[-3]]])
        diag = np.concatenate([[dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]])
        upper = np.concatenate([[x[2] - x[0]], dx[:-1], [0.0]])
        rhs = np.empty(len(x))
        rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        s = _thomas(lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist())
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        self.x, self.y = x, y
        self._c3 = t / dx
        self._c2 = (slope - s[:-1]) / dx - t
        self._c1 = s[:-1]
        self._c0 = y[:-1]

    def __call__(self, x, nu: int = 0):
        """The spline (nu = 0) or its first derivative (nu = 1) at x."""
        i = np.minimum(np.maximum(np.searchsorted(self.x, x, side="right") - 1, 0),
                       len(self.x) - 2)
        h = x - self.x[i]
        if nu == 0:
            return self._c0[i] + self._c1[i] * h + self._c2[i] * (h * h) \
                + self._c3[i] * (h * h * h)
        return self._c1[i] + self._c2[i] * h * 2 + self._c3[i] * (h * h) * 3


def _thomas(lower: list, diag: list, upper: list, rhs: list) -> np.ndarray:
    """Solve a tridiagonal system: forward elimination, back substitution."""
    for i in range(1, len(diag)):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    x = rhs
    x[-1] /= diag[-1]
    for i in range(len(diag) - 2, -1, -1):
        x[i] = (x[i] - upper[i] * x[i + 1]) / diag[i]
    return np.array(x)


def _exprel(x: np.ndarray) -> np.ndarray:
    """expm1(x)/x, with its limit 1 at x = 0."""
    zero = x == 0.0
    x = np.where(zero, 1.0, x)
    return np.where(zero, 1.0, np.expm1(x) / x)


class CharMap:
    """The level map F(z) = -z log(-g'(z)) + int_{z0}^z log(-g'(z')) dz'.

    Both tables run over w = log z - log(1 - z/z_inf) (w = log z for infinite
    z_inf), which stretches the approach to a finite z_inf, where log(-g')
    has a logarithmic singularity that no grid in log z resolves; in w the
    antiderivative's integrand log(-g') dz/dw decays to 0 there.  The
    antiderivative Phi is tabulated once on PHI_NODES points of a uniform w
    grid over [Z_LO, z_hi] with cumulative Simpson and a not-a-knot cubic
    spline; z_hi is Z_HI or just below a finite z_inf.  F at those knots
    starts each inversion.  A spline of log(-g') on SLOPE_NODES points gives
    the slope F'(z) = -z g''/g' = -d log(-g') / d log z without g''.  F is
    strictly increasing on (0, z_inf) with slope >= 1 and diverges at z_inf,
    which brackets every inversion.
    """

    Z0 = 1.0
    Z_LO = 1e-8
    Z_HI = 1e6
    PHI_NODES = 16001
    # Newton needs the slope to ~1e-6, far less than F's accuracy
    SLOPE_NODES = 2001

    def __init__(self, g: PayoffG):
        if g.degenerate:
            raise DomainError("level map undefined for flat payoffs")
        self.g = g
        cap = g.z_inf * (1.0 - 1e-12) if np.isfinite(g.z_inf) else np.inf
        self.z_hi = min(cap, self.Z_HI)
        self._inv_z_inf = 1.0 / g.z_inf
        ends = self._w(np.array([self.Z_LO, self.z_hi]))
        w = np.linspace(*ends, self.PHI_NODES)
        z = self._z(w)
        zl = np.log(-g.d(z)) * z
        vals = zl * (1.0 - z * self._inv_z_inf)  # d Phi / dw = L dz/dw
        # cumulative Simpson on the uniform w grid
        dw = w[1] - w[0]
        seg = (vals[:-2:2] + 4.0 * vals[1:-1:2] + vals[2::2]) * dw / 3.0
        phi = np.empty_like(w)
        phi[0] = 0.0
        np.cumsum(seg, out=phi[2::2])
        # odd nodes by local Simpson-consistent half-panels (trapezoid suffices
        # at O(dw^2) locally; upgrade with a 3-point rule)
        phi[1::2] = phi[:-1:2] + dw / 12.0 * (5.0 * vals[:-1:2]
                                              + 8.0 * vals[1::2] - vals[2::2])
        # Phi(Z0) = 0, or Phi(z_hi) = 0 when z_inf <= Z0
        phi -= np.interp(self._w(min(self.Z0, self.z_hi)), w, phi)
        # F at the knots, F(z_k) = -z_k L_k + Phi_k: the start of each inversion
        self._F_knots = phi - zl
        # freed before the spline's tridiagonal sweep, the peak of the set-up
        del z, zl, vals, seg
        self._phi = _Spline(w, phi)
        w = np.linspace(*ends, self.SLOPE_NODES)
        self._log_slope = _Spline(w, np.log(-g.d(self._z(w))))

    def _w(self, z):
        return np.log(z) - np.log1p(-z * self._inv_z_inf)

    def _z(self, w):
        """The inverse of w(z): z = e^w / (1 + e^w / z_inf)."""
        ew = np.exp(w)
        return ew / (1.0 + ew * self._inv_z_inf)

    def F(self, z):
        z = np.asarray(z, dtype=float)
        log_slope, phi = self._terms(z)
        return -z * log_slope + phi

    def _terms(self, z: np.ndarray):
        """The two terms of F = -z L + Phi at z: L = log(-g'(z)) and
        Phi(z) = int_{Z0}^z L."""
        if ((z <= self.Z_LO) | (z > self.z_hi * (1 + 1e-12))).any():
            raise DomainError("level map evaluated outside its tabulated range")
        return np.log(-self.g.d(z)), self._phi(self._w(z))

    def _slope(self, z):
        """F'(z) from the table, floored at its lower bound 1."""
        z = np.minimum(z, self.z_hi)
        dw_du = 1.0 / (1.0 - z * self._inv_z_inf)
        return np.maximum(-self._log_slope(self._w(z), 1) * dw_du, 1.0)

    def invert(self, c, lo):
        """Solve F(z) = c for z >= lo elementwise (safeguarded Newton).

        lo is first raised to the highest Phi knot z_k whose tabulated
        F(z_k) <= c, one knot below the root (0.2% in z for infinite z_inf).
        F(z2) - F(z1) >= z2 - z1 then certifies the bracket
        [lo, lo + (c - F(lo))], and every evaluation of F narrows it.  Newton
        steps start from lo with the tabulated slope and are taken in
        v = -z_inf log(1 - z/z_inf) (v = z for infinite z_inf), in which F
        stays close to linear up to its singularity at z_inf; a step that
        leaves the bracket is replaced by the bracket's midpoint.  An element
        stops when its step falls below 1e-15 z, or when a step below
        1e-12 z + 1e-15 |c| fails to halve: steps shrink quadratically until
        they reach the rounding noise of F, which exceeds 1e-15 z for small z.
        After BISECT_ITERS steps the last iterate, which lies in the bracket,
        is returned.
        """
        c = np.atleast_1d(np.asarray(c, dtype=float))
        knot = np.maximum(np.searchsorted(self._F_knots, c, side="right") - 1, 0)
        lo = np.maximum(lo, self._z(self._phi.x[knot]))
        resid = self.F(lo) - c
        if np.any(resid > 1e-9):
            raise NumericalError("inversion bracket failed: F(lo) > target")
        hi = np.minimum(lo - np.minimum(resid, 0.0), self.z_hi)
        z = lo.copy()
        prev = np.full(c.shape, np.inf)
        live = np.flatnonzero(resid < 0.0)
        for _ in range(BISECT_ITERS):
            zl, lol, hil = z[live], lo[live], hi[live]
            step = -resid[live] / self._slope(zl)
            # the Newton step in v mapped back to z; it stops short of z_inf
            new = zl + step * _exprel(-step / (self.g.z_inf - zl))
            new = np.where((new >= lol) & (new <= hil), new, 0.5 * (lol + hil))
            step = np.abs(new - zl)
            z[live] = new
            done = (step <= 1e-15 * new) | (
                (step > 0.5 * prev[live])
                & (step <= 1e-12 * new + 1e-15 * np.abs(c[live])))
            prev[live] = step
            live = live[~done]
            if live.size == 0:
                break
            resid[live] = self.F(z[live]) - c[live]
            below = resid[live] < 0.0
            lo[live[below]] = z[live[below]]
            hi[live[~below]] = z[live[~below]]
        return z


def _brent(f, a: float, b: float, fa: float, fb: float) -> float:
    """Brent's root of f between a and b, to 4 eps relative.

    A line-for-line port of scipy's ``brentq`` (Brent 1973, ch. 4) with
    xtol the smallest normal float and rtol = 4 eps, so it returns the same
    root after the same evaluations.  fa and fb are certified limits or
    values the caller already has: f runs only inside the bracket, whose
    ends may be singular.  A NaN value, ends of one sign or more than
    4 BISECT_ITERS evaluations raise NumericalError.
    """
    xtol, rtol = np.finfo(float).tiny, 4.0 * np.finfo(float).eps
    xpre, xcur, fpre, fcur = float(a), float(b), float(fa), float(fb)
    if np.isnan(fpre) or np.isnan(fcur):
        raise NumericalError("Brent bracket has a NaN end value")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericalError("Brent bracket ends have one sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(4 * BISECT_ITERS):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:  # inverse quadratic step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num = -fcur * (fblk * dblk - fpre * dpre)
                den = dblk * dpre * (fblk - fpre)
            # a zero denominator is an infinite or NaN step, which bisects
            if den != 0.0:
                stry = num / den
                if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                    spre, scur = scur, stry
                    bisect = False
        if bisect:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))
        if np.isnan(fcur):
            raise NumericalError(f"Brent step reached a NaN value at {xcur!r}")
    raise NumericalError(f"Brent root not converged after {4 * BISECT_ITERS} "
                         f"evaluations; last iterate {xcur!r}")


def value_min1infw(prob: ControlProblem, x: float) -> tuple[float, dict]:
    """Closed-form value for the discounted min problem (three regions).

    Region "ratio": characteristics y_p(s, lambda) built from the level map;
    region "flat": beyond z_inf the payoff slope is pinned at g(z_inf) and the
    value is linear in x; region "merge": characteristics that join the v = 1
    curve.  The ratio lambda and the merge time are Brent roots on brackets
    whose end values are known limits.  Each evaluation follows one
    characteristic in closed form (``_char_state``, ``_char_payoff``) from a
    single level-map inversion at its start.
    """
    prob.check_state(x)
    if prob.g.degenerate:
        raise DomainError("a flat payoff has no level map; value() answers it")
    p, y, T, t = prob.p, prob.y, prob.T, prob.t
    z_inf = prob.g.z_inf
    lam_max = min(z_inf, y)

    # region-1 boundary: lambda -> lam_max
    if z_inf <= y:
        boundary1 = y * np.exp((1.0 / p + 1.0 / z_inf) * (T - t))
    else:
        boundary1 = _char_state(prob, y * (1.0 - 1e-12), y, T)
    info = {"boundary_ratio_region": float(boundary1),
            "near_boundary": bool(abs(x - boundary1) <= 1e-9 * max(1.0, x))}
    if x >= boundary1:
        # ratio region: find lambda with y_p(t, lambda) = x; y_p decreases in
        # lambda and reaches boundary1 at lam_hi
        lam_hi = lam_max * (1.0 - 1e-12)
        lam_lo = lam_hi / 2.0
        for _ in range(200):
            x_lo = _char_state(prob, lam_lo, y, T)
            if x_lo >= x:
                break
            lam_lo /= 2.0
            if lam_lo < 1e-12:
                raise NumericalError("ratio-region bracket failed")
        lam = _brent(lambda lam: _char_state(prob, lam, y, T) - x,
                     lam_lo, lam_hi, x_lo - x, boundary1 - x)
        info["region"] = "ratio"
        info["lambda"] = float(lam)
        return _char_payoff(prob, lam, y, T), info

    # below the ratio region: flat region (z_inf finite) or merge region
    x_tau_lo = x_t = float(prob.x_p(t))
    if np.isfinite(z_inf):
        T_inf = T if z_inf < y else T - p * np.log((z_inf + p) / (y + p))
        info["T_inf"] = float(T_inf)
        in_flat = False
        if t < T_inf:
            B = z_inf * np.exp((1.0 / p + 1.0 / z_inf) * (T_inf - t)) \
                if z_inf >= y else boundary1
            info["boundary_flat_region"] = float(B)
            in_flat = x <= B
            x_tau_lo = float(B)
        if in_flat:
            val = _ride(prob, T_inf) + float(prob.g(z_inf)) * (
                np.exp(-(T - t) / p) * x - y - p * (1.0 - np.exp(-(T - T_inf) / p)))
            info["region"] = "flat"
            return val, info
        tau_lo = max(t, T_inf)
    else:
        tau_lo = t
    # merge region: x_p(t, tau) = x with tau in (tau_lo, T); the merged state
    # increases in tau from x_tau_lo (x_p(t), or B at the singular T_inf) to
    # boundary1
    def merge_gap(tau):
        xp_tau = float(prob.x_p(tau))
        return (_char_state(prob, xp_tau, xp_tau, tau) if tau > t + 1e-14 else x_t) - x

    tau = _brent(merge_gap, tau_lo, T, x_tau_lo - x, boundary1 - x)
    info["region"] = "merge"
    info["tau"] = float(tau)
    xp_tau = float(prob.x_p(tau))
    part1 = _char_payoff(prob, xp_tau, xp_tau, tau) if tau > t + 1e-13 else 0.0
    return part1 + _ride(prob, tau), info


def _char_start(prob: ControlProblem, z1: float, t1: float) -> tuple[float, float]:
    """The start z0 = z(t) of the level-map characteristic that ends at z1 at
    time t1, F(z(s)) = F(z1) + t1 - s, and ell = int_t^t1 ds/z along it.

    F' = -z g''/g' makes ds/z = dL with L = log(-g'), so ell = L(z1) - L(z0).
    With F = -z L + Phi and Delta = t1 - t this is
    ell = (Delta - [Phi(z0) - Phi(z1) - (z0 - z1) L(z1)]) / z0, which reads g'
    only at z1.  Next to a finite z_inf, z0 stops at the table's end z_hi,
    and this form still integrates ds/z along the z(s) the inversion returns;
    the ratio form log(g'(z1)/g'(z0)) would not.
    """
    cm = prob.g.char_map
    delta = t1 - prob.t
    (log_slope,), (phi1,) = cm._terms(np.array([z1]))
    z0 = float(cm.invert(-z1 * log_slope + phi1 + delta, z1)[0])
    gap = float(cm._phi(cm._w(z0))) - phi1 - (z0 - z1) * log_slope
    return z0, (delta - gap) / z0


def _char_state(prob: ControlProblem, z1: float, x1: float, t1: float) -> float:
    """The state at t on the characteristic through z1 and the state x1 at t1:
    x1 exp(int_t^t1 (1/p + 1/z) ds) = x1 exp((t1 - t)/p + ell)."""
    _, ell = _char_start(prob, z1, t1)
    return float(x1 * np.exp((t1 - prob.t) / prob.p + ell))


def _char_payoff(prob: ControlProblem, z1: float, x1: float, t1: float) -> float:
    """int_t^t1 g(z) e^{-(T-s)/p} x/z ds along the characteristic through z1
    and x1 at t1.

    The discounted state is x(s) e^{-(T-s)/p} = x1 e^{(t1-T)/p} g'(z1)/g'(z(s))
    and ds/z = g''/g' dz, so the integral is x1 e^{(t1-T)/p} g'(z1) times
    int_{z0}^{z1} g g''/g'^2 dz, which integrates by parts to
    x1 e^{(t1-T)/p} [g(z0) e^ell - g(z1) + g'(z1)(z1 - z0)].
    """
    z0, ell = _char_start(prob, z1, t1)
    g = prob.g
    bracket = g(z0) * np.exp(ell) - g(z1) + g.d(z1) * (z1 - z0)
    return float(x1 * np.exp((t1 - prob.T) / prob.p) * bracket)


def value(prob: ControlProblem, x: float):
    """Dispatch to the closed form for the problem's variant.

    A flat payoff g makes every control equally good: the unweighted value is
    (T - t) g, and the discounted one telescopes to g (e^{-(T-t)/p} x - y).
    """
    if prob.g.degenerate:
        prob.check_state(x)
        g = prob.g.g_inf
        if prob.weighted:
            return g * (np.exp(-prob.horizon / prob.p) * x - prob.y), {"degenerate": True}
        return prob.horizon * g, {"degenerate": True}
    if prob.is_max:
        v, tau = (value_max01w if prob.weighted else value_max01)(prob, x)
        return v, {"switch_time": tau}
    return (value_min1infw if prob.weighted else value_min1inf)(prob, x)


# -- sampled-control verification -----------------------------------------------


def sample_controls(prob: ControlProblem, n_samples: int, seed: int):
    """Random admissible controls: 20 equal segments, values log-uniform on
    [1e-3, 1] (max variants) or [1, MIN_CONTROL_CEILING] (min variants)."""
    n_segments = 20
    rng = np.random.default_rng(seed)
    edges = np.linspace(prob.t, prob.T, n_segments + 1)
    out = []
    for _ in range(n_samples):
        if prob.is_max:
            vals = np.exp(rng.uniform(np.log(1e-3), 0.0, n_segments))
        else:
            vals = np.exp(rng.uniform(0.0, np.log(MIN_CONTROL_CEILING), n_segments))
        out.append(PiecewiseControl(edges=edges, values=vals))
    return out


def verification_certificate(prob: ControlProblem, n_samples: int = 500,
                             seed: int = 0) -> dict:
    """Check that no sampled control beats the closed form on its side."""
    controls = sample_controls(prob, n_samples, seed)
    worst = -np.inf
    for ctrl in controls:
        x0 = start_state(prob, ctrl)
        val, _ = value(prob, x0)
        pay = payoff(prob, ctrl)
        margin = (pay - val) if prob.is_max else (val - pay)
        worst = max(worst, margin)
    return {"variant": prob.variant, "payoff": prob.g.name,
            "n_samples": n_samples, "seed": seed,
            "worst_margin": float(worst)}


# -- stationarity at the flat control ----------------------------------------------


def stationarity_check(prob: ControlProblem) -> dict:
    """The closed-form payoff gradient at v = 1 keeps one sign on (t, T), to
    1e-10 at 200 interior points.

    Unweighted:  dq(tau) = [-x_p(1 + x_p/p) g'(x_p) - g(x_p) + g(x_p(t))]
                           / (1 + x_p/p), evaluated at x_p = x_p(tau);
    weighted:    e^{(T-tau)/p} dq(tau) = -x_p g'(x_p) + g(x_p)
                           + int_t^tau g'(x_p(s)) ds.
    Both must be nonnegative for conforming payoffs.
    """
    p, t, T = prob.p, prob.t, prob.T
    taus = np.linspace(t, T, 202)[1:-1]
    xp = prob.x_p(taus)
    g = prob.g
    if not prob.weighted:
        grad = (-xp * (1.0 + xp / p) * g.d(xp) - g(xp) + g(prob.x_p(t))) \
            / (1.0 + xp / p)
        # hypothesis: x(1 + x/p) g'(x) + g(x) - g(inf) <= 0
        hyp = xp * (1.0 + xp / p) * g.d(xp) + g(xp) - g.g_inf
        hyp_worst = float(np.max(hyp))
        if hyp_worst > 1e-9:
            raise ModelViolationError(
                "payoff fails x(1+x/p) g' + g - g(inf) <= 0; worst margin "
                f"{hyp_worst:.3e}")
    else:
        grad = np.empty_like(taus)
        for i, tau in enumerate(taus):
            inner = _gauss_integral(lambda s: g.d(prob.x_p(s)), t, tau)
            grad[i] = -xp[i] * g.d(xp[i]) + g(xp[i]) + inner
        hyp_worst = float(np.max(np.diff(g(xp[::-1]))))  # g decreasing along xp
    worst = float(np.min(grad))
    return {"variant": prob.variant, "min_gradient": worst,
            "passes": bool(worst >= -1e-10), "hypothesis_margin": hyp_worst}


# -- the delay-functional extremality certificate -----------------------------------


def check_extremal_hypotheses(source: SourceFn) -> None:
    """Check of the source conditions behind the extremality claim, to 1e-9,
    on 500 geometric points from 1e-3 to 1e4."""
    tol = 1e-9
    grid = np.geomspace(1e-3, 1e4, 500)
    h0 = source.eval(grid, 0)
    h1 = source.eval(grid, 1)
    h2 = source.eval(grid, 2)
    checks = {
        "h nonnegative": np.min(h0) >= -tol,
        "h decreasing": np.max(np.diff(h0)) <= tol,
        "h convex": np.min(h2) >= -tol,
        "y h'' + h' >= 0": np.min(grid * h2 + h1) >= -tol,
        "y^2 h'' decreasing": np.max(np.diff(grid ** 2 * h2)) <= tol,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise ModelViolationError(
            "source fails extremality hypotheses: " + "; ".join(failed))


def extremal_history_certificate(source: SourceFn, p: float, t: float, y: float,
                                 n_samples: int = 200, seed: int = 0,
                                 side: str = "below") -> dict:
    """Sampled histories never beat the flat history in the delay functional F.

    ``side="below"`` samples 0.05 <= v <= 1 and certifies F(v) <= F(1) + tol;
    ``side="above"`` samples 1 <= v <= 4 and certifies F(v) >= F(1) - tol, with
    tol = 1e-8.  The histories are piecewise linear with 16 equally spaced
    knots, values log-uniform, on a 2001-point s grid, and F(1) is evaluated
    with the same quadrature so discretization errors cancel in the margin.
    """
    n_nodes, n_grid, tol = 16, 2001, 1e-8
    check_extremal_hypotheses(source)
    rng = np.random.default_rng(seed)
    s_grid = np.linspace(0.0, t, n_grid)
    knots = np.linspace(0.0, t, n_nodes)
    F_flat = F_of_path(source, p, t, y, s_grid, np.ones(n_grid))
    worst = -np.inf
    for _ in range(n_samples):
        if side == "below":
            kv = np.exp(rng.uniform(np.log(0.05), 0.0, n_nodes))
        elif side == "above":
            kv = np.exp(rng.uniform(0.0, np.log(4.0), n_nodes))
        else:
            raise DomainError("side must be 'below' or 'above'")
        v = np.interp(s_grid, knots, kv)
        Fv = F_of_path(source, p, t, y, s_grid, v)
        margin = (Fv - F_flat) if side == "below" else (F_flat - Fv)
        worst = max(worst, margin)
    return {"side": side, "n_samples": n_samples, "seed": seed,
            "F_flat": float(F_flat), "worst_margin": float(worst),
            "passes": bool(worst <= tol)}
