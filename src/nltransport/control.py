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

    F(z) = -z log(-g'(z)) + int log(-g'(z)) dz,

which is strictly increasing with F(z2) - F(z1) >= z2 - z1 below
z_inf = sup{z : g'(z) < 0} and diverges there; all roots are bracketed by
these inequalities.  For the discounted payoff g = h/p every source's
int log(-h') is elementary (``SourceFn.log_slope_integral``), so F is a
closed form with no table and no range of its own beyond 0 < z < z_inf.
A characteristic F(z(s)) = F(z1) + t1 - s has ds/z = d log(-g'), so its
state and its payoff integral close in form and need only its start z(t):
one level-map inversion per characteristic.  Level-map inversions take
safeguarded Newton steps from the characteristic's end, and the ratio and
merge-time roots of both min problems take Brent steps, inside those
brackets.  The module needs no scipy and no quadrature: ``_brent`` is a port
of scipy's ``brentq``, and every payoff integral is a closed form.

Each closed-form piece has one home: ``model.backward_state`` is the state
under a constant control v, so x_p, the edge states ``_edge_states`` of a
piecewise-constant control and ``trajectory_x`` all read it; as x/v follows
the v = 1 flow, ``PayoffG.ride`` integrates g along it from h and the
equilibrium tail J at its two ends, for ``_ride`` along x_p and for
``payoff`` per segment; ``_ratio_state`` follows a characteristic with a frozen ratio
x/v = z; ``_char_start`` inverts a level-map characteristic's start
(memoized per problem and end point), from which ``_char_state`` and
``_char_payoff`` follow it in closed form; and ``value`` answers flat
payoffs (z_inf <= 0), whose values need no control.

``verification_certificate`` checks the closed forms against sampled
controls, and ``extremal_history_certificate`` checks the delay functional F
against sampled histories on both sides of the flat history.  The tests'
independent oracle, backward-induction dynamic programming in reversed time,
is ``brute_force`` in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .dde import F_of_path
from .errors import DomainError, ModelViolationError, NumericalError
from .model import backward_state
from .sources import SourceFn

VARIANTS = ("max01", "min1inf", "max01w", "min1infw")
BISECT_ITERS = 60
MIN_CONTROL_CEILING = 8.0
CHAR_MEMO_SIZE = 1024  # level-map characteristics memoized by _char_start


class PayoffG:
    """Payoff density g with its derivative, its limit at infinity and z_inf.

    ``ride(u1, width, discounted)`` integrates g(u(sigma)), times e^{-sigma/p}
    when discounted, over 0 <= sigma <= width along the v = 1 flow
    u = backward_state(sigma, u1, p), where d sigma = p du/(u + p).  Each
    constructor supplies its closed form; other pairings raise DomainError.
    ``level_source`` is the source h of the discounted payoff g = h/p, whose
    level map ``char_map`` has a closed form; it is None for other payoffs.
    """

    def __init__(self, g: Callable, gprime: Callable, g_inf: float, z_inf: float,
                 name: str = "", level_source: SourceFn | None = None,
                 ride: Callable | None = None):
        self.g = g
        self.gprime = gprime
        self.g_inf = float(g_inf)
        self.z_inf = float(z_inf)
        self.name = name
        self.level_source = level_source
        self._ride_form = ride

    def __call__(self, z):
        return self.g(np.asarray(z, dtype=float))

    def d(self, z):
        return self.gprime(np.asarray(z, dtype=float))

    def ride(self, u1, width, discounted: bool):
        if self._ride_form is None:
            raise DomainError(f"payoff {self.name} has no closed-form ride")
        return self._ride_form(u1, width, discounted)

    @property
    def degenerate(self) -> bool:
        return self.z_inf <= 0.0

    @cached_property
    def char_map(self) -> "CharMap":
        return CharMap(self)

    @staticmethod
    def from_source_unweighted(source: SourceFn, p: float, y: float) -> "PayoffG":
        """g(z) = -(1 + y/p) h'(z): the derivative part of the delay functional.
        Its ride to U = backward_state(width, u1, p) is, by parts,
        (1 + y/p) [E(u1) - E(U)] with E = ``_slope_tail``."""
        c = 1.0 + y / p

        def ride(u1, width, discounted):
            if discounted:
                raise DomainError("-(1+y/p) h' has no closed-form discounted ride")
            return c * (_slope_tail(source, u1, p)
                        - _slope_tail(source, backward_state(width, u1, p), p))

        return PayoffG(g=lambda z: -c * source.eval(z, 1),
                       gprime=lambda z: -c * source.eval(z, 2),
                       g_inf=0.0, z_inf=_slope_support(source), name="-(1+y/p) h'",
                       ride=ride)

    @staticmethod
    def from_source_weighted(source: SourceFn, p: float) -> "PayoffG":
        """g(z) = h(z)/p: the discounted part of the delay functional.  Its
        discounted ride to U = backward_state(width, u1, p) is
        (u1 + p)/p [J(u1) - J(U)], as e^{-sigma/p} = (u1 + p)/(u + p)."""
        J = source.equilibrium_tail

        def ride(u1, width, discounted):
            if not discounted:
                raise DomainError("h/p has no closed-form undiscounted ride")
            return (u1 + p) / p * (J(u1, p) - J(backward_state(width, u1, p), p))

        return PayoffG(g=lambda z: source.eval(z, 0) / p,
                       gprime=lambda z: source.eval(z, 1) / p,
                       g_inf=source.h_inf / p, z_inf=_slope_support(source), name="h/p",
                       level_source=source, ride=ride)


def _slope_support(source: SourceFn) -> float:
    """sup{z : h'(z) < 0}: the kernel's support, 0 for the constant source."""
    return 0.0 if source.kind == "constant" else float(source.kernel.support)


def _slope_tail(source: SourceFn, u, p: float):
    """E(u) = p h(u)/(p+u) - J(u) = int_u^inf p (-h'(w))/(p+w) dw, J the
    equilibrium tail: by parts, since dJ/du = -p h/(p+u)^2."""
    return p * source.eval(u) / (p + u) - source.equilibrium_tail(u, p)


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
        return backward_state(self.T - np.asarray(s, dtype=float), self.y, self.p)

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
        400 geometric points from 1e-3 min(1, top) to top = min(z_inf, 1e4)."""
        top = self.g.z_inf * (1 - 1e-9) if 0 < self.g.z_inf < 1e4 else 1e4
        grid = np.geomspace(1e-3 * min(1.0, top), top, 400)
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
        xe[i] = backward_state(edges[i + 1] - edges[i], xe[i + 1], prob.p,
                               control.values[i])
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
    out = backward_state(edges[i + 1] - s_arr, xe[i + 1], prob.p, control.values[i])
    return float(out[0]) if np.ndim(s) == 0 else out


def start_state(prob: ControlProblem, control: PiecewiseControl) -> float:
    return trajectory_x(prob, control, prob.t)


def payoff(prob: ControlProblem, control: PiecewiseControl) -> float:
    """The payoff along the exact trajectory, in closed form: on segment i
    the ratio x/v_i follows the v = 1 flow back from x_{i+1}/v_i, so the
    segment pays g's ride over its width, times v_i e^{-(T - edges[i+1])/p}
    in the weighted problems."""
    xe = _edge_states(prob, control)
    v, edges = control.values, control.edges
    rides = prob.g.ride(xe[1:] / v, np.diff(edges), prob.weighted)
    if prob.weighted:
        rides = rides * v * np.exp(-(prob.T - edges[1:]) / prob.p)
    return float(np.sum(rides))


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


def _ride(prob: ControlProblem, a: float) -> float:
    """The payoff of riding x_p from a to T: int_a^T g(x_p(s)) ds, with the
    discount e^{-(T-s)/p} in the weighted problems.  x_p is the v = 1 flow
    back from y, so this is g's ride from y over T - a."""
    return float(prob.g.ride(prob.y, prob.T - a, prob.weighted))


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
    optimal characteristic merges with x_p at the Brent root tau in [t, T]
    of the merged state less x, from x_p(t) - x < 0 to boundary - x > 0;
    above it the ratio lambda solves the single exponential relation.
    """
    prob.check_state(x)
    p, y, T, t = prob.p, prob.y, prob.T, prob.t
    boundary = _ratio_state(prob, y, y, T)
    info = {"boundary_x": float(boundary),
            "near_boundary": bool(abs(x - boundary) <= 1e-9 * max(1.0, x))}
    if x >= boundary:
        lam = 1.0 / (np.log(x / y) / (T - t) - 1.0 / p)
        info["branch"] = "ratio"
        info["lambda"] = float(lam)
        return (T - t) * float(prob.g(lam)), info

    def merge_gap(tau):
        xp_tau = float(prob.x_p(tau))
        return _ratio_state(prob, xp_tau, xp_tau, tau) - x

    tau = _brent(merge_gap, t, T, float(prob.x_p(t)) - x, boundary - x)
    info["branch"] = "merge"
    info["tau"] = float(tau)
    return (tau - t) * float(prob.g(prob.x_p(tau))) + _ride(prob, tau), info


class CharMap:
    """The level map F(z) = -z L(z) + Phi(z) of the discounted payoff g = h/p,
    with L = log(-h'(z)) and Phi(z) = int log(-h'), both in closed form from
    the source (``SourceFn.log_slope_integral``).

    With L and Phi of g itself, L = log(-h') - log p and Phi gains
    -z log p, which cancel in F: the source's terms give the same map.  F is
    strictly increasing on 0 < z < z_inf with slope F'(z) = -z h''/h' >= 1
    and diverges at z_inf, which brackets every inversion.  Only the
    discounted payoff, the one ``value_min1infw`` reads, has this closed
    form; the map of any other payoff raises DomainError when evaluated.
    """

    def __init__(self, g: PayoffG):
        if g.degenerate:
            raise DomainError("level map undefined for flat payoffs")
        self.g = g
        self.source = g.level_source
        # inversions stay below z_inf, where L = log(-h') is singular
        self.z_hi = g.z_inf * (1.0 - 1e-12) if np.isfinite(g.z_inf) else np.inf

    def F(self, z):
        z = np.asarray(z, dtype=float)
        log_slope, phi = self._terms(z)
        return -z * log_slope + phi

    def _terms(self, z):
        """The two terms of F = -z L + Phi at z: L = log(-h'(z)) and Phi(z)."""
        if self.source is None:
            raise DomainError(f"payoff {self.g.name} has no closed-form level map")
        if np.any(z >= self.g.z_inf):
            raise DomainError("level map evaluated at or beyond z_inf")
        return np.log(-self.source.eval(z, 1)), self.source.log_slope_integral(z)

    def _slope(self, z: float) -> float:
        """F'(z) = -z h''/h', floored at its lower bound 1."""
        return max(float(-z * self.source.eval(z, 2) / self.source.eval(z, 1)), 1.0)

    def invert(self, c: float, lo: float, f_lo: float | None = None) -> float:
        """Solve F(z) = c for z >= lo (safeguarded Newton).

        ``f_lo`` is F(lo) when the caller has it, which saves evaluating it.
        F(z2) - F(z1) >= z2 - z1 certifies the bracket [lo, lo + (c - F(lo))],
        cut at z_hi, and every evaluation of F narrows it.  Newton steps
        start from lo and are taken in v = -z_inf log(1 - z/z_inf) (v = z for
        infinite z_inf), in which F stays close to linear up to its
        singularity at z_inf; a step that leaves the bracket is replaced by
        the bracket's midpoint.  The iteration stops when its step s_k falls
        below 1e-15 z; when the next step that quadratic convergence
        predicts, s_k^3/s_{k-1}^2, does, once s_{k-1} <= 1e-3 z puts the
        iterate in the quadratic regime; or when a step below
        1e-12 z + 1e-15 |c| fails to halve: steps shrink quadratically until
        they reach the rounding noise of F, which exceeds 1e-15 z for small
        z.  After BISECT_ITERS steps the last iterate, which lies in the
        bracket, is returned.
        """
        resid = (float(self.F(lo)) if f_lo is None else f_lo) - c
        if resid > 1e-9:
            raise NumericalError("inversion bracket failed: F(lo) > target")
        if resid >= 0.0:
            return lo
        hi = min(lo - resid, self.z_hi)
        z, prev = lo, np.inf
        for _ in range(BISECT_ITERS):
            step = -resid / self._slope(z)
            # the Newton step in v mapped back to z by expm1(r)/r, which stops
            # short of z_inf
            r = -step / (self.g.z_inf - z)
            new = z + step * (math.expm1(r) / r if r else 1.0)
            if not lo <= new <= hi:
                new = 0.5 * (lo + hi)
            step, z = abs(new - z), new
            if (step <= 1e-15 * z
                    or (step ** 3 <= 1e-15 * z * prev ** 2 and prev <= 1e-3 * z)
                    or (step > 0.5 * prev and step <= 1e-12 * z + 1e-15 * abs(c))):
                break
            prev = step
            resid = float(self.F(z)) - c
            if resid < 0.0:
                lo = z
            else:
                hi = z
        return z


def _brent(f, a: float, b: float, fa: float, fb: float) -> float:
    """Brent's root of f between a and b, to 4 eps relative.

    A line-for-line port of scipy's ``brentq`` (Brent 1973, ch. 4) with
    xtol the smallest normal float and rtol = 4 eps, so it returns the same
    root after the same evaluations.  fa and fb are certified limits or
    values the caller already has: f runs only inside the bracket, whose
    ends may be singular.  An infinite value (an overflowed state) keeps its
    sign; Python floats take it without warnings and the interpolation steps
    it spoils fall back to bisection.  A NaN value, ends of one sign or more
    than 4 BISECT_ITERS evaluations raise NumericalError.
    """
    xtol, rtol = float(np.finfo(float).tiny), 4.0 * float(np.finfo(float).eps)
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
        boundary1 = _ratio_state(prob, z_inf, y, T)
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
            B = _ratio_state(prob, z_inf, z_inf, T_inf) if z_inf >= y else boundary1
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


@lru_cache(maxsize=CHAR_MEMO_SIZE)
def _char_start(prob: ControlProblem, z1: float, t1: float) -> tuple[float, float]:
    """The start z0 = z(t) of the level-map characteristic that ends at z1 at
    time t1, F(z(s)) = F(z1) + t1 - s, and ell = int_t^t1 ds/z along it.

    F' = -z g''/g' makes ds/z = dL with L = log(-g'), so ell = L(z1) - L(z0).
    With F = -z L + Phi and Delta = t1 - t this is
    ell = (Delta - [Phi(z0) - Phi(z1) - (z0 - z1) L(z1)]) / z0, which reads g'
    only at z1; L and Phi are the source's, as in ``CharMap``, since the
    log p that g = h/p adds to them cancels here too.  Next to a finite
    z_inf, z0 stops at the inversion's cap z_hi, and this form still
    integrates ds/z along the z(s) the inversion returns; the ratio form
    log(g'(z1)/g'(z0)) would not.  Memoized: every value call follows the
    ratio boundary and first bracket end, and Brent's root twice.
    """
    cm = prob.g.char_map
    delta = t1 - prob.t
    log_slope, phi1 = (float(term) for term in cm._terms(z1))
    f1 = -z1 * log_slope + phi1
    z0 = cm.invert(f1 + delta, z1, f1)
    gap = float(cm.source.log_slope_integral(z0)) - phi1 - (z0 - z1) * log_slope
    return z0, (delta - gap) / z0


def _ratio_state(prob: ControlProblem, z: float, x1: float, t1: float) -> float:
    """The state at t on the characteristic with the frozen ratio z through
    the state x1 at t1: x1 exp((1/p + 1/z)(t1 - t)), infinite where it
    overflows (small z): the region such a state bounds is empty."""
    with np.errstate(over="ignore"):
        return float(x1 * np.exp((1.0 / prob.p + 1.0 / z) * (t1 - prob.t)))


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
    Both must be nonnegative for conforming payoffs.  For g = h/p the
    integral is (E(x_p(t)) - E(x_p(tau)))/p with E = ``_slope_tail``, since
    ds = -p du/(u + p) along x_p; other weighted payoffs raise DomainError.
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
        source = g.level_source
        if source is None:
            raise DomainError(f"payoff {g.name} has no closed-form stationarity integral")
        inner = (_slope_tail(source, float(prob.x_p(t)), p)
                 - _slope_tail(source, xp, p)) / p
        grad = -xp * g.d(xp) + g(xp) + inner
        hyp_worst = float(np.max(np.diff(g(xp[::-1]))))  # g decreasing along xp
    worst = float(np.min(grad))
    return {"variant": prob.variant, "min_gradient": worst,
            "passes": bool(worst >= -1e-10), "hypothesis_margin": hyp_worst}


# -- the delay-functional extremality certificate -----------------------------------


def check_extremal_hypotheses(source: SourceFn) -> None:
    """Check of the source conditions behind the extremality claim, to 1e-9,
    on 500 geometric points from 1e-3 min(1, support) to 1e4 (from 1e-3 for a
    constant source, whose support is empty)."""
    tol = 1e-9
    grid = np.geomspace(1e-3 * min(1.0, _slope_support(source) or 1.0), 1e4, 500)
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
