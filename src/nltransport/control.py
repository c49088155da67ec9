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
these inequalities.  Level-map inversions take safeguarded Newton steps,
and the ratio and merge-time roots take Brent steps, inside those brackets.

``brute_force`` runs backward-induction dynamic programming in reversed time
(so the pinned endpoint becomes an initial condition) as an independent
oracle, and ``extremal_history_certificate`` checks the delay functional F
against sampled histories on both sides of the flat history.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .dde import F_of_path
from .errors import DomainError, ModelViolationError, NumericalError
from .quadrature import cumtrapz, gauss_panels, simpson_integrate, unit_gauss_nodes
from .sources import SourceFn

VARIANTS = ("max01", "min1inf", "max01w", "min1infw")
BISECT_ITERS = 60
MIN_CONTROL_CEILING = 8.0


class PayoffG:
    """Payoff density g with derivatives, its limit at infinity and z_inf."""

    def __init__(self, g: Callable, gprime: Callable, gsecond: Callable | None,
                 g_inf: float, z_inf: float, name: str = ""):
        self.g = g
        self.gprime = gprime
        self.gsecond = gsecond
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
                       gsecond=lambda z: np.zeros_like(np.asarray(z, float)),
                       g_inf=g0, z_inf=0.0, name=f"const({g0:g})")

    @staticmethod
    def from_source_unweighted(source: SourceFn, p: float, y: float) -> "PayoffG":
        """g(z) = -(1 + y/p) h'(z): the derivative part of the delay functional."""
        c = 1.0 + y / p
        z_inf = _slope_support(source)
        return PayoffG(g=lambda z: -c * source.eval(z, 1),
                       gprime=lambda z: -c * source.eval(z, 2),
                       gsecond=None, g_inf=0.0, z_inf=z_inf,
                       name="-(1+y/p) h'")

    @staticmethod
    def from_source_weighted(source: SourceFn, p: float) -> "PayoffG":
        """g(z) = h(z)/p: the discounted part of the delay functional."""
        z_inf = _slope_support(source)
        return PayoffG(g=lambda z: source.eval(z, 0) / p,
                       gprime=lambda z: source.eval(z, 1) / p,
                       gsecond=lambda z: source.eval(z, 2) / p,
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
    lo, hi = neg[-1], probes[np.searchsorted(probes, neg[-1]) + 1]
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if source.eval(mid, 1) < -1e-300:
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
    x: float | None = None

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

    def reachable_bounds(self, t: float | None = None) -> tuple[float, float]:
        t = self.t if t is None else t
        lo = np.exp((self.T - t) / self.p) * self.y
        hi = float(self.x_p(t))
        if self.is_max:
            return lo, hi
        return hi, np.inf

    def check_state(self, x: float) -> None:
        lo, hi = self.reachable_bounds()
        if not (lo < x < hi):
            raise DomainError(
                f"state x={x:.6g} outside the reachable set ({lo:.6g}, {hi:.6g}) "
                f"for variant {self.variant}")

    def with_x(self, x: float) -> "ControlProblem":
        return replace(self, x=float(x))

    def hypothesis_report(self, grid: np.ndarray | None = None,
                          tol: float = 1e-9) -> dict:
        """Grid-check of the shape condition required by the variant."""
        if grid is None:
            hi = self.g.z_inf if np.isfinite(self.g.z_inf) and self.g.z_inf > 0 else 1e4
            grid = np.geomspace(1e-3, hi * (1 - 1e-9) if hi < 1e4 else 1e4, 400)
        g = self.g
        vals = {}
        if self.variant == "max01":
            q = grid * (g(grid) - g.g_inf)
            vals["x_times_excess_decreasing_margin"] = float(np.max(np.diff(q)))
            ok = vals["x_times_excess_decreasing_margin"] <= tol
            label = "x [g(x) - g(inf)] must be decreasing"
        elif self.variant == "min1inf":
            q = -grid ** 2 * g.d(grid)
            vals["neg_z2_gprime_decreasing_margin"] = float(np.max(np.diff(q)))
            ok = vals["neg_z2_gprime_decreasing_margin"] <= tol
            label = "-z^2 g'(z) must be decreasing"
        elif self.variant == "max01w":
            vals["g_decreasing_margin"] = float(np.max(np.diff(g(grid))))
            ok = vals["g_decreasing_margin"] <= tol
            label = "g must be decreasing"
        else:
            q = -grid * g.d(grid)
            vals["neg_z_gprime_decreasing_margin"] = float(np.max(np.diff(q)))
            ok = vals["neg_z_gprime_decreasing_margin"] <= tol
            label = "-z g'(z) must be decreasing"
        vals["ok"] = bool(ok)
        if not ok:
            raise ModelViolationError(f"payoff hypothesis violated: {label}")
        return vals


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
        else:
            if np.any(v < 1.0 - 1e-12):
                raise DomainError("min variants need v >= 1")


def _edge_states(prob: ControlProblem, control: PiecewiseControl) -> np.ndarray:
    """The state at the segment edges, backward from x(T) = y."""
    edges, p = control.edges, prob.p
    xe = np.empty(len(edges))
    xe[-1] = prob.y
    for i in range(len(control.values) - 1, -1, -1):
        d = edges[i + 1] - edges[i]
        e = np.exp(d / p)
        xe[i] = e * xe[i + 1] + control.values[i] * p * (e - 1.0)
    return xe


def trajectory_x(prob: ControlProblem, control: PiecewiseControl, s):
    """Exact state along the piecewise-constant control, backward from (y, T)."""
    control.check_admissible(prob.variant)
    edges = control.edges
    if abs(edges[0] - prob.t) > 1e-12 or abs(edges[-1] - prob.T) > 1e-12:
        raise DomainError("control must span [t, T]")
    p = prob.p
    xe = _edge_states(prob, control)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.empty_like(s_arr)
    for j, sj in enumerate(s_arr):
        if sj < prob.t - 1e-12 or sj > prob.T + 1e-12:
            raise DomainError("s outside [t, T]")
        i = min(int(np.searchsorted(edges, sj, side="right") - 1),
                len(control.values) - 1)
        d = edges[i + 1] - sj
        e = np.exp(d / p)
        out[j] = e * xe[i + 1] + control.values[i] * p * (e - 1.0)
    return float(out[0]) if np.ndim(s) == 0 else out


def payoff(prob: ControlProblem, control: PiecewiseControl,
           nodes_per_segment: int = 16) -> float:
    """Gauss quadrature of the payoff along the exact trajectory."""
    control.check_admissible(prob.variant)
    p = prob.p
    u, w = unit_gauss_nodes(nodes_per_segment)
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


def start_state(prob: ControlProblem, control: PiecewiseControl) -> float:
    return float(trajectory_x(prob, control, prob.t))


# -- closed-form values ------------------------------------------------------------


def _switch_time(prob: ControlProblem, x: float) -> float:
    """Bang-bang switching time: e^{tau/p} = e^{T/p}(1 + y/p) - (x/p) e^{t/p}."""
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


def value_max01(prob: ControlProblem, x: float | None = None) -> tuple[float, float]:
    """Closed-form value and switching time for the unweighted max problem."""
    x = prob.x if x is None else x
    prob.check_state(x)
    tau = _switch_time(prob, x)
    val = (tau - prob.t) * prob.g.g_inf + _gauss_integral(
        lambda s: prob.g(prob.x_p(s)), tau, prob.T)
    return val, tau


def value_max01w(prob: ControlProblem, x: float | None = None) -> tuple[float, float]:
    """Closed-form value and switching time for the discounted max problem."""
    x = prob.x if x is None else x
    prob.check_state(x)
    tau = _switch_time(prob, x)
    val = _gauss_integral(
        lambda s: prob.g(prob.x_p(s)) * np.exp(-(prob.T - s) / prob.p),
        tau, prob.T)
    return val, tau


def value_min1inf(prob: ControlProblem, x: float | None = None) -> tuple[float, dict]:
    """Closed-form value for the unweighted min problem.

    Below the frozen-ratio boundary x_p(t, T) = y e^{(1/p + 1/y)(T-t)} the
    optimal characteristic merges with x_p at a time found by bisection;
    above it the ratio lambda solves the single exponential relation.
    """
    x = prob.x if x is None else x
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

    lo, hi = t, T
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if merged_state(mid) < x:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    info["branch"] = "merge"
    info["tau"] = float(tau)
    val = (tau - t) * float(prob.g(prob.x_p(tau))) + _gauss_integral(
        lambda s: prob.g(prob.x_p(s)), tau, T)
    return val, info


class CharMap:
    """The level map F(z) = -z log(-g'(z)) + int_{z0}^z log(-g'(z')) dz'.

    The antiderivative is tabulated once on a dense logarithmic grid (the
    integrand is smooth in log z) with cumulative Simpson and a cubic spline.
    Next to it a cubic spline of log(-g') gives the slope
    F'(z) = -z g''/g' = -d log(-g') / d log z without g''.  That spline runs
    over w = log z - log(1 - z/z_inf), which stretches the approach to a
    finite z_inf, where log(-g') has a logarithmic singularity that no grid
    in log z resolves.  F is strictly increasing on (0, z_inf) with slope
    >= 1 and diverges at z_inf, which brackets every inversion.
    """

    Z0 = 1.0
    # Newton needs the slope to ~1e-6, far less than F's accuracy
    SLOPE_NODES = 2001

    def __init__(self, g: PayoffG, z_lo: float = 1e-8, z_hi: float | None = None,
                 n: int = 16001):
        from scipy.interpolate import CubicSpline

        if g.degenerate:
            raise DomainError("level map undefined for flat payoffs")
        self.g = g
        cap = g.z_inf * (1.0 - 1e-12) if np.isfinite(g.z_inf) else np.inf
        self.z_hi = min(cap, 1e6 if z_hi is None else z_hi)
        self.z_lo = z_lo
        u = np.linspace(np.log(self.z_lo), np.log(self.z_hi), n)
        z = np.exp(u)
        vals = np.log(-g.d(z)) * z  # d Phi / du with u = log z
        # cumulative Simpson on the uniform u grid
        du = u[1] - u[0]
        seg = (vals[:-2:2] + 4.0 * vals[1:-1:2] + vals[2::2]) * du / 3.0
        phi_even = np.concatenate([[0.0], np.cumsum(seg)])
        phi = np.empty_like(u)
        phi[::2] = phi_even
        # odd nodes by local Simpson-consistent half-panels (trapezoid suffices
        # at O(du^2) locally; upgrade with a 3-point rule)
        phi[1::2] = phi[:-1:2] + du / 12.0 * (5.0 * vals[:-1:2]
                                              + 8.0 * vals[1::2] - vals[2::2])
        base = np.interp(np.log(self.Z0), u, phi)
        self._phi = CubicSpline(u, phi - base)
        self._u_range = (u[0], u[-1])
        # log(-g') over w; z = e^w / (1 + e^w / z_inf) inverts w(z)
        self._inv_z_inf = 1.0 / g.z_inf
        w = np.linspace(*self._w(np.array([self.z_lo, self.z_hi])), self.SLOPE_NODES)
        zw = np.exp(w) / (1.0 + np.exp(w) * self._inv_z_inf)
        self._log_slope = CubicSpline(w, np.log(-g.d(zw)))

    def _w(self, z):
        return np.log(z) - np.log1p(-z * self._inv_z_inf)

    def F(self, z):
        z = np.asarray(z, dtype=float)
        if np.any(z <= self.z_lo) or np.any(z > self.z_hi * (1 + 1e-12)):
            raise DomainError("level map evaluated outside its tabulated range")
        lz = np.log(z)
        return -z * np.log(-self.g.d(z)) + self._phi(lz)

    def _slope(self, z):
        """F'(z) from the table, floored at its lower bound 1."""
        z = np.minimum(z, self.z_hi)
        dw_du = 1.0 / (1.0 - z * self._inv_z_inf)
        return np.maximum(-self._log_slope(self._w(z), 1) * dw_du, 1.0)

    def invert(self, c, lo):
        """Solve F(z) = c for z >= lo elementwise (safeguarded Newton).

        F(z2) - F(z1) >= z2 - z1 certifies the bracket [lo, lo + (c - F(lo))],
        and every evaluation of F narrows it.  Newton steps start from lo with
        the tabulated slope and are taken in v = -z_inf log(1 - z/z_inf)
        (v = z for infinite z_inf), in which F stays close to linear up to its
        singularity at z_inf; a step that leaves the bracket is replaced by
        the bracket's midpoint.  An element stops when its step falls below
        1e-15 z, or when a step below 1e-12 z + 1e-15 |c| fails to halve:
        steps shrink quadratically until they reach the rounding noise of F,
        which exceeds 1e-15 z for small z.  After BISECT_ITERS steps the last
        iterate, which lies in the bracket, is returned.
        """
        from scipy.special import exprel

        c = np.atleast_1d(np.asarray(c, dtype=float))
        lo = np.broadcast_to(np.atleast_1d(np.asarray(lo, dtype=float)), c.shape).copy()
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
            new = zl + step * exprel(-step / (self.g.z_inf - zl))
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
    """Brent's root of f between a and b, 4 eps relative, from known end values.

    fa and fb are certified limits or values the caller already has; brentq
    reads them instead of calling f, so f runs only inside the bracket, whose
    ends may be singular.
    """
    from scipy.optimize import brentq

    ends = {a: fa, b: fb}
    return brentq(lambda v: ends[v] if v in ends else f(v), a, b,
                  xtol=np.finfo(float).tiny, rtol=4.0 * np.finfo(float).eps,
                  maxiter=4 * BISECT_ITERS)


def value_min1infw(prob: ControlProblem, x: float | None = None,
                   n_s: int = 401) -> tuple[float, dict]:
    """Closed-form value for the discounted min problem (three regions).

    Region "ratio": characteristics y_p(s, lambda) built from the level map;
    region "flat": beyond z_inf the payoff slope is pinned at g(z_inf) and the
    value is linear in x; region "merge": characteristics that join the v = 1
    curve.  The ratio lambda and the merge time are Brent roots on brackets
    whose end values are known limits.  The value integrals use cumulative
    Simpson on a uniform s grid.
    """
    x = prob.x if x is None else x
    prob.check_state(x)
    g = prob.g
    p, y, T, t = prob.p, prob.y, prob.T, prob.t
    if g.degenerate:
        return float(g(1.0)) * (np.exp(-(T - t) / p) * x - y), {"region": "flat-all"}
    cm = g.char_map
    z_inf = g.z_inf
    lam_max = min(z_inf, y)

    # region-1 boundary: lambda -> lam_max
    if z_inf <= y:
        boundary1 = y * np.exp((1.0 / p + 1.0 / z_inf) * (T - t))
    else:
        boundary1 = _y_p_state(prob, cm, t, y * (1.0 - 1e-12), n_s)
    info = {"boundary_ratio_region": float(boundary1)}
    info["near_boundary"] = bool(abs(x - boundary1) <= 1e-9 * max(1.0, x))
    if x >= boundary1:
        # ratio region: find lambda with y_p(t, lambda) = x; y_p decreases in
        # lambda and reaches boundary1 at lam_hi
        lam_hi = lam_max * (1.0 - 1e-12)
        lam_lo = lam_hi / 2.0
        for _ in range(200):
            x_lo = _y_p_state(prob, cm, t, lam_lo, n_s)
            if x_lo >= x:
                break
            lam_lo /= 2.0
            if lam_lo < 1e-12:
                raise NumericalError("ratio-region bracket failed")
        lam = _brent(lambda lam: _y_p_state(prob, cm, t, lam, n_s) - x,
                     lam_lo, lam_hi, x_lo - x, boundary1 - x)
        s = np.linspace(t, T, n_s)
        zp = cm.invert(cm.F(np.array([lam])) + (T - s), np.full(n_s, lam))
        integ = cumtrapz(1.0 / p + 1.0 / zp, x=s)
        yp = y * np.exp(integ[-1] - integ)
        vals = g(zp) / zp * yp * np.exp(-(T - s) / p)
        info["region"] = "ratio"
        info["lambda"] = float(lam)
        return simpson_integrate(vals, s[1] - s[0]), info

    # below the ratio region: flat region (z_inf finite) or merge region
    x_tau_lo = float(prob.x_p(t))
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
            tail = _gauss_integral(
                lambda s: g(prob.x_p(s)) * np.exp(-(T - s) / p), T_inf, T)
            val = tail + float(g(z_inf)) * (
                np.exp(-(T - t) / p) * x - y - p * (1.0 - np.exp(-(T - T_inf) / p)))
            info["region"] = "flat"
            return val, info
        tau_lo = max(t, T_inf)
    else:
        tau_lo = t
    # merge region: x_p(t, tau) = x with tau in (tau_lo, T); the merged state
    # increases in tau from x_tau_lo (x_p(t), or B at the singular T_inf) to
    # boundary1
    tau = _brent(lambda tau: _merge_state(prob, cm, t, tau, n_s) - x,
                 tau_lo, T, x_tau_lo - x, boundary1 - x)
    info["region"] = "merge"
    info["tau"] = float(tau)
    s = np.linspace(t, tau, n_s)
    xp_tau = float(prob.x_p(tau))
    zt = cm.invert(cm.F(np.array([xp_tau])) + (tau - s), np.full(n_s, xp_tau))
    integ = cumtrapz(1.0 / p + 1.0 / zt, x=s)
    xp_s = xp_tau * np.exp(integ[-1] - integ)
    vals = g(zt) / zt * xp_s * np.exp(-(T - s) / p)
    part1 = simpson_integrate(vals, s[1] - s[0]) if tau > t + 1e-13 else 0.0
    part2 = _gauss_integral(lambda u: g(prob.x_p(u)) * np.exp(-(T - u) / p), tau, T)
    return part1 + part2, info


def _y_p_state(prob: ControlProblem, cm: CharMap, tq: float, lam: float,
               n_s: int) -> float:
    s = np.linspace(tq, prob.T, n_s)
    zp = cm.invert(cm.F(np.array([lam])) + (prob.T - s), np.full(n_s, lam))
    integ = simpson_integrate(1.0 / prob.p + 1.0 / zp, s[1] - s[0])
    return float(prob.y * np.exp(integ))


def _merge_state(prob: ControlProblem, cm: CharMap, tq: float, tau: float,
                 n_s: int) -> float:
    if tau <= tq + 1e-14:
        return float(prob.x_p(tq))
    s = np.linspace(tq, tau, n_s)
    xp_tau = float(prob.x_p(tau))
    zt = cm.invert(cm.F(np.array([xp_tau])) + (tau - s), np.full(n_s, xp_tau))
    integ = simpson_integrate(1.0 / prob.p + 1.0 / zt, s[1] - s[0])
    return xp_tau * np.exp(integ)


def value(prob: ControlProblem, x: float | None = None):
    """Dispatch to the closed form for the problem's variant."""
    x = prob.x if x is None else x
    if prob.variant == "max01":
        if prob.g.degenerate:
            prob.check_state(x)
            return prob.horizon * prob.g.g_inf, {"degenerate": True}
        v, tau = value_max01(prob, x)
        return v, {"switch_time": tau}
    if prob.variant == "max01w":
        if prob.g.degenerate:
            prob.check_state(x)
            return float(prob.g(1.0)) * (np.exp(-prob.horizon / prob.p) * x - prob.y), \
                {"degenerate": True}
        v, tau = value_max01w(prob, x)
        return v, {"switch_time": tau}
    if prob.variant == "min1inf":
        if prob.g.degenerate:
            prob.check_state(x)
            return prob.horizon * prob.g.g_inf, {"degenerate": True}
        return value_min1inf(prob, x)
    return value_min1infw(prob, x)


def value_x_derivative(prob: ControlProblem, x: float, rel_step: float = 1e-6):
    """Centered finite difference of the closed-form value in x."""
    h = rel_step * max(abs(x), 1.0)
    v_hi, _ = value(prob, x + h)
    v_lo, _ = value(prob, x - h)
    return (v_hi - v_lo) / (2.0 * h)


# -- sampled-control verification -----------------------------------------------


def sample_controls(prob: ControlProblem, n_samples: int, seed: int,
                    n_segments: int = 20, v_floor: float = 1e-3,
                    v_ceiling: float = MIN_CONTROL_CEILING):
    """Random admissible piecewise-constant controls, log-uniform values."""
    rng = np.random.default_rng(seed)
    edges = np.linspace(prob.t, prob.T, n_segments + 1)
    out = []
    for _ in range(n_samples):
        if prob.is_max:
            vals = np.exp(rng.uniform(np.log(v_floor), 0.0, n_segments))
        else:
            vals = np.exp(rng.uniform(0.0, np.log(v_ceiling), n_segments))
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


# -- dynamic-programming oracle ----------------------------------------------------


def brute_force(prob: ControlProblem, n_steps: int = 64, x_nodes: int = 512,
                v_levels: int = 9) -> dict:
    """Backward-induction oracle on the reversed-time state.

    In reversed time sigma = T - s the pinned endpoint becomes the initial
    state u(0) = y with du/dsigma = u/p + v, so accumulated payoff propagates
    forward over a log-spaced state grid per stage with exact state updates.
    Restricted controls bound the true value from the correct side, up to
    linear-interpolation error (reported via refinement of the caller).
    """
    if n_steps > 256:
        raise DomainError("oracle capped at 256 steps")
    p = prob.p
    S = prob.horizon
    dsig = S / n_steps
    if prob.is_max:
        levels = np.concatenate([[0.0], np.linspace(1.0 / (v_levels - 1), 1.0,
                                                    v_levels - 1)])
    else:
        levels = np.geomspace(1.0, MIN_CONTROL_CEILING, v_levels)
    u_gl, w_gl = unit_gauss_nodes(4)

    def stage_grid(k: int):
        sig = k * dsig
        lo = prob.y * np.exp(sig / p)
        hi = (prob.y + p) * np.exp(sig / p) - p
        if prob.is_max:
            pad = 1e-9 * (hi - lo)
            return np.geomspace(lo + pad, hi - pad, x_nodes)
        hi_min = (prob.y + MIN_CONTROL_CEILING * p) * np.exp(sig / p) \
            - MIN_CONTROL_CEILING * p
        if hi_min <= hi:
            return np.geomspace(hi * (1 + 1e-9), hi * 2.0, x_nodes)
        pad = 1e-9 * (hi_min - hi)
        return np.geomspace(hi + pad, hi_min - pad, x_nodes)

    def segment_payoff(pred, v, sig0):
        """Per-node payoff over [sig0, sig0 + dsig] with constant control v."""
        sig_nodes = sig0 + dsig * u_gl
        v_arr = np.broadcast_to(np.asarray(v, dtype=float), pred.shape)
        useg = (pred[:, None] * np.exp((sig_nodes - sig0) / p)[None, :]
                + v_arr[:, None] * p * np.expm1((sig_nodes - sig0) / p)[None, :])
        flat = v_arr <= 0.0
        ratio = useg / np.where(v_arr[:, None] > 0.0, v_arr[:, None], 1.0)
        gv = np.where(flat[:, None], prob.g.g_inf, prob.g(ratio))
        if prob.weighted:
            gv = gv * np.exp(-sig_nodes / p)[None, :] * v_arr[:, None]
        return dsig * (gv @ w_gl)

    # the stage-0 tube is the single point y, so the first stage is exact:
    # each node of stage 1 is reached by one continuous control value
    grid = stage_grid(1)
    e1 = np.exp(dsig / p)
    v_first = (grid - e1 * prob.y) / (p * (e1 - 1.0))
    J = segment_payoff(np.full(x_nodes, prob.y), v_first, 0.0)
    clipped = False
    policy_counts = np.zeros(len(levels), dtype=int)
    for k in range(2, n_steps + 1):
        new_grid = stage_grid(k)
        sig0 = (k - 1) * dsig
        best = np.full(x_nodes, -np.inf if prob.is_max else np.inf)
        best_lvl = np.zeros(x_nodes, dtype=int)
        span = grid[-1] - grid[0]
        slack = 1e-7 * max(span, 1e-12)
        for li, v in enumerate(levels):
            # predecessor state: u' = e^{dsig/p} u + v p (e^{dsig/p} - 1)
            pred = np.exp(-dsig / p) * new_grid - v * p * (1.0 - np.exp(-dsig / p))
            # predecessors outside the previous reachable tube are infeasible;
            # clipping them would fabricate better-than-optimal paths
            feasible = (pred >= grid[0] - slack) & (pred <= grid[-1] + slack)
            if np.any((pred < grid[0]) | (pred > grid[-1])):
                clipped = True
            pred_c = np.clip(pred, grid[0], grid[-1])
            Jv = np.interp(pred_c, grid, J)
            if v == 0.0 and prob.weighted:
                seg = np.zeros(x_nodes)
            else:
                seg = segment_payoff(pred_c, v, sig0)
            cand = Jv + seg
            cand = np.where(feasible, cand, -np.inf if prob.is_max else np.inf)
            if prob.is_max:
                take = cand > best
            else:
                take = cand < best
            best = np.where(take, cand, best)
            best_lvl = np.where(take, li, best_lvl)
        # the switching curve rides the upper tube boundary; count the policy
        # away from it (lower 3/4 of the tube in log position)
        pos = (np.log(new_grid) - np.log(new_grid[0])) \
            / (np.log(new_grid[-1]) - np.log(new_grid[0]))
        away = pos <= 0.75
        counts = np.bincount(best_lvl[away], minlength=len(levels))
        policy_counts += counts
        grid, J = new_grid, best
    x_query = prob.x
    if x_query is None:
        raise DomainError("oracle needs the problem's state x")
    est = float(np.interp(x_query, grid, J))
    bang = (policy_counts[0] + policy_counts[-1]) / max(policy_counts.sum(), 1)
    return {
        "estimate": est,
        "clipped": clipped,
        "policy_counts": policy_counts.tolist(),
        "bang_bang_fraction": float(bang if prob.is_max else np.nan),
        "ceiling_fraction": float(policy_counts[-1] / max(policy_counts.sum(), 1)),
        "levels": levels.tolist(),
    }


# -- stationarity at the flat control ----------------------------------------------


def stationarity_check(prob: ControlProblem, n_tau: int = 200,
                       tol: float = 1e-10) -> dict:
    """The closed-form payoff gradient at v = 1 keeps one sign on (t, T).

    Unweighted:  dq(tau) = [-x_p(1 + x_p/p) g'(x_p) - g(x_p) + g(x_p(t))]
                           / (1 + x_p/p), evaluated at x_p = x_p(tau);
    weighted:    e^{(T-tau)/p} dq(tau) = -x_p g'(x_p) + g(x_p)
                           + int_t^tau g'(x_p(s)) ds.
    Both must be nonnegative for conforming payoffs.
    """
    p, t, T = prob.p, prob.t, prob.T
    taus = np.linspace(t, T, n_tau + 2)[1:-1]
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
            "passes": bool(worst >= -tol), "hypothesis_margin": hyp_worst}


# -- the delay-functional extremality certificate -----------------------------------


def check_extremal_hypotheses(source: SourceFn, tol: float = 1e-9,
                              grid: np.ndarray | None = None) -> None:
    """Grid-check of the source conditions behind the extremality claim."""
    if grid is None:
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
                                 side: str = "below", v_floor: float = 0.05,
                                 v_ceiling: float = 4.0, n_nodes: int = 16,
                                 n_grid: int = 2001, tol: float = 1e-8) -> dict:
    """Sampled histories never beat the flat history in the delay functional F.

    ``side="below"`` samples 0 < v <= 1 and certifies F(v) <= F(1) + tol;
    ``side="above"`` samples v >= 1 and certifies F(v) >= F(1) - tol.  The
    histories are piecewise linear with ``n_nodes`` knots, values log-uniform,
    and F(1) is evaluated with the same quadrature so discretization errors
    cancel in the margin.
    """
    check_extremal_hypotheses(source)
    rng = np.random.default_rng(seed)
    s_grid = np.linspace(0.0, t, n_grid)
    knots = np.linspace(0.0, t, n_nodes)
    F_flat = F_of_path(source, p, t, y, s_grid, np.ones(n_grid))
    worst = -np.inf
    for _ in range(n_samples):
        if side == "below":
            kv = np.exp(rng.uniform(np.log(v_floor), 0.0, n_nodes))
        elif side == "above":
            kv = np.exp(rng.uniform(0.0, np.log(v_ceiling), n_nodes))
        else:
            raise DomainError("side must be 'below' or 'above'")
        v = np.interp(s_grid, knots, kv)
        Fv = F_of_path(source, p, t, y, s_grid, v)
        margin = (Fv - F_flat) if side == "below" else (F_flat - Fv)
        worst = max(worst, margin)
    return {"side": side, "n_samples": n_samples, "seed": seed,
            "F_flat": float(F_flat), "worst_margin": float(worst),
            "passes": bool(worst <= tol)}
