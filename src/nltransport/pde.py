"""Exact-characteristics evolution of the transport equation.

With R(t) = int_0^t rho the characteristic through (y, t) is

    y(s) = e^{R(t)-R(s)} y + int_s^t e^{R(s')-R(s)} ds',

and the solution is reconstructed from the initial data and the source:

    xi(y,t) = [xi0(y(0)) + int_0^t h(y(s)) e^{R(s)} ds] / e^{R(t)}.

Differentiating in y, the chain rule gives d y(s)/d y = e^{R(t)-R(s)}, so in

    d xi/d y = e^{-R(t)} xi0'(y(0)) e^{R(t)-R(0)}
               + int_0^t h'(y(s)) e^{R(t)-R(s)} e^{-(R(t)-R(s))} ds

every exponential cancels (R(0) = 0) and the derivative collapses to

    d xi/d y (y,t) = xi0'(y(0)) + int_0^t h'(y(s)) ds,
    d2 xi/d y2     = e^{R(t)} xi0''(y(0)) + int_0^t h''(y(s)) e^{R(t)-R(s)} ds.

Between nodes R is taken linear, so e^R is piecewise exponential and the
cumulative C(s) = int_0^s e^{R} has a closed form on each interval; the
characteristic evaluation stays second order without substepping.

``LagrangianState`` is the one stepping engine of both routes.  It owns the
node buffers, e^R and C at each node (C grows one interval per step), node
lookup by time, the reconstruction ``reconstruct_profile`` at a node, the one
fixed-point loop ``step`` and the one run loop ``evolve``.  It also owns the
``Workspace`` in which each reconstruction forms its N_y x N_tau arrays (the
characteristic feet and h, h', h'' there, from one ``SourceFn.eval_orders``
pass), so with the log or the constant source a step allocates nothing of
that size; ``evolve`` releases it when the run is done.  Each step solves
the scalar self-consistency rho = rho(xi(.,t+dt; rho)) on the residual
r(g) = rho(xi(.; g)) - g.  It starts from the linear extrapolation of the
last two committed rho and takes a Newton step with the secant slope carried
over from the previous step (r's slope, about -1, barely moves between
steps), then secant steps on its own evaluations; the first step of a run,
with no slope yet, starts at rho(0) with a plain fixed-point step.  A step
records its evaluation count and accepted |r|, which ``evolve`` reduces to
the run's solver telemetry.  How a trial rho fills the new node is the route's
own: here rho is interpolated piecewise linearly, with R its exact trapezoid,
and I at the node is the functional's value.  ``dde.IHistory`` subclasses it
to interpolate log I instead, with I = exp(log I).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericalError, StepError
from .functionals import DEFAULT_NORM_GRID, Profile, weighted_norm_from_samples
from .model import Model
from .quadrature import cumtrapz, unit_gauss_nodes
from .trajectory import Trajectory

MAX_FIXED_POINT_ITERS = 50
DEFAULT_TOL = 1e-12
TAU_PANEL_NODES = 12  # Gauss nodes per backward-time panel of reconstruct_profile


def _tau_panel_edges(t_total: float, y_min: float, dt: float, p: float) -> np.ndarray:
    """Backward-time panel edges, geometrically refined toward tau = 0.

    Near the terminal point of a characteristic the source argument is
    y + O(tau); for small y the integrand varies on the scale of tau itself,
    so panels double away from zero and are capped at p/2 where the
    exponential weight sets the scale.
    """
    t_total, p = float(t_total), float(p)  # Python floats keep the loop cheap
    tau1 = min(float(dt), max(y_min, 1e-8))
    edges = [0.0, min(tau1, t_total)]
    width = tau1
    while edges[-1] < t_total:
        width = min(2.0 * width, 0.5 * p)
        edges.append(min(edges[-1] + width, t_total))
    return np.array(edges)


def _exp_segment(E0, rate, width):
    """int_0^width E0 e^{rate s} ds, the cumulative of e^R over one interval, for arrays."""
    seg = np.multiply(E0, width)  # the rate -> 0 limit
    return np.divide(E0 * np.expm1(rate * width), rate, out=seg,
                     where=np.abs(rate) > 1e-12)


class Workspace:
    """Grow-only buffers for the N_y x N_tau arrays of ``reconstruct_profile``.

    A stepping state owns one, so the feet and the source values of every
    call reuse memory instead of mapping and faulting in fresh arrays (each
    is above glibc's mmap threshold from small t on).  ``release`` frees the
    buffers; the next call grows them again.
    """

    def __init__(self):
        self._flat = np.empty(0)

    def arrays(self, count: int, shape: tuple[int, int]) -> list[np.ndarray]:
        """``count`` C-contiguous arrays of ``shape``, valid until the next call."""
        size = shape[0] * shape[1]
        if self._flat.size < count * size:
            self._flat = np.empty(max(count * size, 2 * self._flat.size))
        return [self._flat[i * size:(i + 1) * size].reshape(shape) for i in range(count)]

    def release(self) -> None:
        self._flat = np.empty(0)


def reconstruct_profile(source, xi0: Profile, t_nodes: np.ndarray, R_nodes: np.ndarray,
                        yq: np.ndarray, p: float, need_second: bool = False, *,
                        C_nodes: np.ndarray, workspace: Workspace):
    """Interpolant-exact reconstruction of (xi, dxi[, d2xi]) at the final time.

    Treats R as piecewise linear between the committed nodes (so e^R is
    piecewise exponential with closed-form cumulative) and integrates the
    source terms on graded backward-time panels, which stay accurate near the
    origin where the source is unbounded.  Both stepping routes and their
    diagnostics reconstruct through it.

    ``C_nodes`` is the cumulative C(t_j) = int_0^{t_j} e^R at the nodes that a
    stepping state carries, so a call costs O(N_y N_tau) source evaluations
    plus O(N_tau log k) to locate the N_tau panel nodes among the k intervals.

    The N_y x N_tau arrays are the characteristic feet
    ys = yq E_k/E_s + (C_k - C_s)/E_s and h, h' (and h'') there, evaluated in
    one pass by ``SourceFn.eval_orders``.  They live in ``workspace``, which a
    stepping state owns.  E_s and 1/E_s are folded into the tau weights, so
    the products h E_s and h''/E_s are never formed.
    """
    yq = np.asarray(yq, dtype=float)
    k = len(t_nodes) - 1
    if k == 0:
        out = [xi0(yq), xi0.d(yq)]
        if need_second:
            out.append(xi0.d2(yq))
        return tuple(out)
    t_k = t_nodes[-1]
    dt = t_nodes[1] - t_nodes[0]

    edges = _tau_panel_edges(t_k, float(np.min(yq)), dt, p)
    u, gw = unit_gauss_nodes(TAU_PANEL_NODES)
    widths = np.diff(edges)
    tau = (edges[:-1, None] + widths[:, None] * u).ravel()
    w_tau = (widths[:, None] * gw).ravel()

    s = t_k - tau
    # tau <= t_k keeps j >= 0; s rounds up to t_k only where tau is below its ulp
    j = np.searchsorted(t_nodes, s, side="right") - 1
    np.minimum(j, k - 1, out=j)
    t_j, R_j, C_j = t_nodes[j], R_nodes[j], C_nodes[j]
    j += 1
    rates = (R_nodes[j] - R_j) / (t_nodes[j] - t_j)
    ds = s - t_j
    E_s = np.exp(R_j + rates * ds)
    C_s = C_j + _exp_segment(np.exp(R_j), rates, ds)
    E_k = np.exp(R_nodes[-1])
    C_k = C_nodes[-1]

    ys, *h = workspace.arrays(4 if need_second else 3, (len(yq), len(tau)))
    # one rank-2 product, a single BLAS pass; multiply.outer plus a broadcast
    # add costs ~5x more through numpy's per-row loop overhead
    np.matmul(np.column_stack((yq, np.ones_like(yq))),
              np.stack((E_k / E_s, (C_k - C_s) / E_s)), out=ys)
    source.eval_orders(ys, h)
    y0 = E_k * yq + C_k  # s = 0: E = 1, C = 0
    xi0_val, xi0_d = xi0.pair_eval(y0)
    xi = (xi0_val + h[0] @ (w_tau * E_s)) / E_k
    dxi = xi0_d + h[1] @ w_tau
    if not need_second:
        return xi, dxi
    d2 = (xi0.d2(y0) + h[2] @ (w_tau / E_s)) * E_k
    return xi, dxi, d2


class LagrangianState:
    """The stepping engine, evolving rho: initial profile plus committed nodes.

    A subclass interpolating another scalar adds its ``_BUFFERS`` and
    overrides ``_set_node`` (trial rho -> R at the new node) and ``_commit_I``
    (I at a committed node).
    """

    _BUFFERS = ("_t", "_rho", "_R", "_E", "_C", "_I", "_den", "_evals", "_resid")

    def __init__(self, model: Model, xi0: Profile):
        self.model = model
        self.xi0 = xi0
        # the admissibility checks: b + zeta > 0 and I > 0 here, the
        # denominator's floor inside model.rho
        model.functional.value(xi0)
        for name in self._BUFFERS:
            setattr(self, name, np.zeros(256))  # doubled by _grow
        self._E[0] = 1.0
        self.workspace = Workspace()
        # dr/dg of the last secant, the first update's slope in the next step
        self.secant_slope = None
        self.n = 1
        res = model.rho(xi0)
        self._rho[0] = res.rho
        self._I[0] = res.I_value
        self._den[0] = res.denominator

    # -- views --------------------------------------------------------------

    @property
    def t(self):
        return self._t[:self.n]

    @property
    def rho_values(self):
        return self._rho[:self.n]

    @property
    def I(self):
        return self._I[:self.n]

    def _grow(self):
        if self.n >= len(self._t):
            for name in self._BUFFERS:
                old = getattr(self, name)
                new = np.zeros(2 * len(old))
                new[:len(old)] = old
                setattr(self, name, new)

    def node_index(self, t: float) -> int:
        """Index of the committed node at time t; DomainError off the nodes."""
        k = int(round(t / (self._t[1] - self._t[0]))) if self.n > 1 else 0
        if k < 0 or k >= self.n or abs(self._t[k] - t) > 1e-9 * max(1.0, abs(t)):
            raise DomainError(f"t={t} is not a committed history node")
        return k

    # -- reconstruction -------------------------------------------------------

    def refined_samples(self, k: int, yq: np.ndarray, need_second: bool = False):
        """Diagnostic-quality reconstruction at node k (graded panels)."""
        return reconstruct_profile(self.model.source, self.xi0,
                                   self._t[:k + 1], self._R[:k + 1],
                                   np.asarray(yq, dtype=float), self.model.p,
                                   need_second=need_second, C_nodes=self._C[:k + 1],
                                   workspace=self.workspace)

    # -- stepping ---------------------------------------------------------------

    def _open_node(self, dt: float) -> int:
        """Index k of a new node at t + dt, with room for it in the buffers."""
        if dt <= 0:
            raise DomainError("dt must be positive")
        self._grow()
        k = self.n
        self._t[k] = self._t[k - 1] + dt
        return k

    def _set_exp(self, k: int) -> None:
        """e^R at node k, and C grown by the interval ending at node k."""
        km = k - 1
        self._E[k] = np.exp(self._R[k])
        width = self._t[k] - self._t[km]
        rate = (self._R[k] - self._R[km]) / width
        E = self._E[km]
        self._C[k] = self._C[km] + (E * np.expm1(rate * width) / rate
                                    if abs(rate) > 1e-12 else E * width)

    def _set_node(self, k: int, dt: float, rho: float) -> None:
        """Fill node k from a trial rho."""
        self._rho[k] = rho
        self._R[k] = self._R[k - 1] + 0.5 * dt * (self._rho[k - 1] + rho)
        self._set_exp(k)

    def _commit_I(self, k: int, res) -> None:
        """I at the committed node k: the functional's value."""
        self._I[k] = res.I_value

    def step(self, dt: float, tol: float = DEFAULT_TOL) -> "LagrangianState":
        """Append t+dt with the self-consistent rho; returns self.

        Solves r(g) = rho(xi(.; g)) - g = 0 and accepts the first evaluation
        with |r| < tol.  The first evaluation is at the linear extrapolation of
        the last two committed rho, and the first update is a Newton step with
        the secant slope carried over from the previous step; later updates
        are secant steps on the step's own evaluations, keeping the last slope
        where a secant is undefined.  The first step of a run starts at rho(0)
        with a plain fixed-point step.
        """
        k = self._open_node(dt)
        nodes = self.model.functional.nodes
        guess = self._rho[k - 1]
        if k > 1:
            guess += (guess - self._rho[k - 2]) * dt / (self._t[k - 1] - self._t[k - 2])
        slope = self.secant_slope  # None on the first step of a run
        prev = None
        for evals in range(1, MAX_FIXED_POINT_ITERS + 1):
            self._set_node(k, dt, guess)
            xi, dxi = self.refined_samples(k, nodes)
            res = self.model.rho_from_samples(xi, dxi)
            r = res.rho - guess
            if prev is not None and guess != prev[0]:
                secant = (r - prev[1]) / (guess - prev[0])
                if secant != 0.0 and np.isfinite(secant):
                    slope = self.secant_slope = secant
            if abs(r) < tol:
                break
            prev = (guess, r)
            guess = res.rho if slope is None else guess - r / slope
        else:
            raise StepError(
                f"rho fixed point did not converge at t={self._t[k]:.6g}; "
                f"try a smaller dt", MAX_FIXED_POINT_ITERS, abs(r))
        self._set_node(k, dt, res.rho)
        self._commit_I(k, res)
        self._den[k] = res.denominator
        self._evals[k] = evals
        self._resid[k] = abs(r)
        self.n = k + 1
        return self


def evolve(state: LagrangianState, T: float, dt: float, stride: int = 1,
           norms: bool = True) -> Trajectory:
    """Step ``state`` to time T and sample it every ``stride`` steps and at T.

    The one run loop of both routes.  ``norms=False`` skips the profile-norm
    diagnostics (the dist1inf and norm2inf columns are zero-filled), which
    makes stride-1 sampling cheap.  The monitors read every committed step,
    not the samples: the step solver's telemetry (the mean and largest number
    of evaluations and the largest accepted residual), and the extremes of I
    and of the admissibility denominator.
    """
    if T <= 0 or dt <= 0:
        raise DomainError("T and dt must be positive")
    model = state.model
    n_steps = int(round(T / dt))
    grid = DEFAULT_NORM_GRID
    if norms:
        xi_p, dxi_p = model.equilibrium_pair(grid)

    rows = {name: [] for name in ("t", "rho", "I", "dist1inf", "norm2inf", "denomL1")}
    sup_inf_ratio = []
    # xi(eps0)/xi(1e6) rides along with the norm-grid reconstruction
    query = np.concatenate([grid, [model.functional.eps0, 1e6]])

    def sample(k: int):
        rows["t"].append(state._t[k])
        rows["rho"].append(state._rho[k])
        rows["I"].append(state._I[k])
        rows["denomL1"].append(state._den[k])
        if not norms:
            rows["dist1inf"].append(0.0)
            rows["norm2inf"].append(0.0)
            return
        xi, dxi, d2 = state.refined_samples(k, query, need_second=True)
        tail = xi[-2:]
        xi, dxi, d2 = xi[:-2], dxi[:-2], d2[:-2]
        if np.min(xi) < -1e-12:
            raise NumericalError("profile lost nonnegativity during run")
        rows["dist1inf"].append(weighted_norm_from_samples(xi - xi_p, dxi - dxi_p, grid))
        rows["norm2inf"].append(weighted_norm_from_samples(xi, dxi, grid, seconds=d2))
        sup_inf_ratio.append(float(tail[0] / max(tail[1], 1e-300)))

    sample(0)
    for k in range(1, n_steps + 1):
        state.step(dt)
        if k % stride == 0 or k == n_steps:
            sample(k)
    # the trajectory keeps the state; a later run must not find its buffers held
    state.workspace.release()

    traj = Trajectory(**{name: np.asarray(vals) for name, vals in rows.items()})
    evals = state._evals[1:state.n]
    traj.monitors = {
        "sup_inf_ratio_max": float(np.max(sup_inf_ratio)) if sup_inf_ratio else np.nan,
        "fixed_point_evals_mean": float(np.sum(evals) / max(len(evals), 1)),
        "fixed_point_evals_max": int(np.max(evals, initial=0)),
        "fixed_point_residual_max": float(np.max(state._resid[1:state.n], initial=0.0)),
        "I_min": float(np.min(state.I)),
        "I_max": float(np.max(state.I)),
        "denom_min": float(np.min(state._den[:state.n])),
        "I_zero_profile": float(model.functional.value(Profile.constant(0.0))),
        "state": state,
    }
    return traj


def run(model: Model, xi0: Profile, T: float, dt: float, stride: int = 1,
        norms: bool = True) -> Trajectory:
    """Evolve the transport route to time T; see :func:`evolve`."""
    return evolve(LagrangianState(model, xi0), T, dt, stride, norms)


def consistency_residual(traj: Trajectory) -> float:
    """max over interior committed steps of |d/dt log I - (p rho - 1)| / p.

    Reads every committed step of the run's state (either route), not the
    strided samples.  The derivative uses centered differences, so the
    residual is O(dt^2) for smooth runs; a state stepped by hand with steps of
    different length raises DomainError.
    """
    state = traj.monitors["state"]
    t = state.t
    if len(t) < 3:
        raise DomainError("need at least 3 committed nodes")
    dt = t[1] - t[0]
    if np.max(np.abs(np.diff(t) - dt)) > 1e-9 * dt:
        raise DomainError("consistency residual needs uniform steps")
    logI = np.log(state.I)
    dlog = (logI[2:] - logI[:-2]) / (2.0 * dt)
    p = state.model.p
    resid = np.abs(dlog - (p * state.rho_values[1:-1] - 1.0)) / p
    return float(np.max(resid))


def cumulative_rho_bound_gap(traj: Trajectory) -> float:
    """Slack in |int_s^t (rho - 1/p)| <= (1/p) log(I_max/I_min) along the run.

    Integrates over every committed step of the run's state, not over the
    strided samples, so the slack does not depend on ``stride``.  It measures
    the transport route's O(dt^2) gap between rho and I.  The delay route
    does not report it: there log I is the trapezoid of d log I/dt and
    rho = (d log I/dt + 1)/p, so the trapezoid of rho - 1/p is
    (log I - log I(0))/p and the slack is 0 up to rounding by construction.
    """
    state = traj.monitors["state"]
    p = state.model.p
    t, excess, I = state.t, state.rho_values - 1.0 / p, state.I
    U = cumtrapz(excess, x=t)
    spread = float(np.max(U) - np.min(U))
    bound = float(np.log(np.max(I) / np.min(I)) / p)
    return bound - spread
