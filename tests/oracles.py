"""Independent routes that the tests check the package against.

Each helper here recomputes a quantity the package computes another way, so
that a test compares two derivations rather than one algebra twice:

- the transport route's backward characteristics by the plain trapezoid of
  e^R over the committed nodes (``RhoHistory``, ``characteristic``), and the
  carried cumulative C = int e^R rebuilt in one batch (``exp_cumulative``);
- the delay route's history ratio v_t(s) from the log I interpolant, the
  drift z by a fine trapezoid (``v_and_z``), and the history functionals F
  and G by direct quadrature in s (``F_eval``, ``G_eval``, ``F_flat_closed``);
- the control values by backward-induction dynamic programming
  (``brute_force``) and their slope in x by centered differences
  (``value_x_derivative``);
- a level-map characteristic's state and payoff by quadrature over uniform
  s nodes, each node its own inversion (``characteristic_by_quadrature``,
  with the composite Simpson rule ``simpson_integrate``);
- the linearization's semigroup, B^2 A xi_p and its two closure functionals
  (``semigroup``, ``B2A_xi_p``, ``perturbation_deltas``), and the sampled
  floor of I + <dI, h> over a profile family (``gradient_floor_report``);
- the structural conditions on a source, sampled on a grid
  (``validate_source``).

Methods of package classes are written here as functions of the instance.
"""

from dataclasses import dataclass

import numpy as np

from nltransport.control import MIN_CONTROL_CEILING, ControlProblem, value
from nltransport.dde import F_of_path, IHistory
from nltransport.errors import DomainError, ModelViolationError
from nltransport.functionals import Profile
from nltransport.linstab import Linearization
from nltransport.model import Model
from nltransport.pde import LagrangianState, _exp_segment
from nltransport.quadrature import cumtrapz, unit_gauss_nodes
from nltransport.sources import SourceFn


# -- the transport route's characteristics -----------------------------------------


def exp_cumulative(t_nodes: np.ndarray, R_nodes: np.ndarray) -> np.ndarray:
    """C(t_k) = int_0^{t_k} e^R at every node, R linear between nodes."""
    widths = np.diff(t_nodes)
    seg = _exp_segment(np.exp(R_nodes[:-1]), np.diff(R_nodes) / widths, widths)
    return np.concatenate([[0.0], np.cumsum(seg)])


@dataclass
class RhoHistory:
    """Committed times, rho samples and their exact cumulative integrals."""

    t: np.ndarray
    rho: np.ndarray
    R: np.ndarray  # int_0^t rho, exact for the piecewise-linear interpolant

    def _locate(self, s: float) -> tuple[int, float]:
        if s < self.t[0] - 1e-12 or s > self.t[-1] + 1e-12:
            raise DomainError(f"time {s} outside committed history")
        s = min(max(s, self.t[0]), self.t[-1])
        j = int(np.searchsorted(self.t, s, side="right") - 1)
        j = min(j, len(self.t) - 2) if len(self.t) > 1 else 0
        return j, s

    def rho_at(self, s: float) -> float:
        j, s = self._locate(s)
        if len(self.t) == 1:
            return float(self.rho[0])
        t0, t1 = self.t[j], self.t[j + 1]
        lam = (s - t0) / (t1 - t0)
        return float((1 - lam) * self.rho[j] + lam * self.rho[j + 1])

    def R_at(self, s: float) -> float:
        j, s = self._locate(s)
        if len(self.t) == 1:
            return float(self.R[0])
        dt = s - self.t[j]
        return float(self.R[j] + 0.5 * dt * (self.rho[j] + self.rho_at(s)))


def characteristic(hist: RhoHistory, t: float, y, s: float):
    """Backward characteristic position y(s) for the curve ending at (y, t)."""
    if s > t + 1e-12:
        raise DomainError("need s <= t on a backward characteristic")
    s = min(s, t)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise DomainError("characteristic requires y > 0")
    R_t = hist.R_at(t)
    R_s = hist.R_at(s)
    inner = [s] + [float(u) for u in hist.t if s < u < t] + [t]
    nodes = np.array(inner)
    E = np.exp([hist.R_at(u) for u in nodes])
    drift = np.trapezoid(E, nodes) / np.exp(R_s)
    return np.exp(R_t - R_s) * y + drift


def rho_history(state: LagrangianState) -> RhoHistory:
    """The committed times, rho and R of a stepping state."""
    return RhoHistory(t=state.t.copy(), rho=state.rho_values.copy(),
                      R=state._R[:state.n].copy())


# -- the delay route's history functionals ------------------------------------------


def logI_at(hist: IHistory, s):
    """Piecewise-linear interpolant of log I."""
    return np.interp(s, hist.t, hist._logI[:hist.n])


def history_ratio(hist: IHistory, t: float, s):
    """History ratio v_t(s) = (I(s)/I(t))^{1/p}."""
    return np.exp((logI_at(hist, s) - logI_at(hist, t)) / hist.model.p)


def v_and_z(hist: IHistory, p: float, t: float, s, y: float):
    """(v_t(s), z(s)) for the history; z solves the ratio-weighted drift ODE."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr > t + 1e-12):
        raise DomainError("need s <= t")
    if y <= 0:
        raise DomainError("need y > 0")
    v = history_ratio(hist, t, s_arr)
    # z(s) = e^{(t-s)/p} y + int_s^t e^{(s'-s)/p} v_t(s') ds'  via fine trapezoid
    z = np.empty_like(s_arr)
    for i, si in enumerate(s_arr):
        sg = np.linspace(si, t, 4001)
        integrand = np.exp((sg - si) / p) * history_ratio(hist, t, sg)
        z[i] = np.exp((t - si) / p) * y + np.trapezoid(integrand, sg)
    if np.ndim(s) == 0:
        return float(v[0]), float(z[0])
    return v, z


def F_flat_closed(source, p: float, t: float, y):
    """F(t, y, 1) = h(y) - e^{-t/p} h(y_p(0)) in closed form."""
    y = np.asarray(y, dtype=float)
    y_p0 = np.expm1(t / p) * (y + p) + y
    return source.eval(y, 0) - np.exp(-t / p) * source.eval(y_p0, 0)


def F_eval(model: Model, hist: IHistory, t: float, y, n_points: int | None = None):
    """F(t, y, v_t(.)) with the history taken from ``hist`` (direct quadrature)."""
    k = hist.node_index(t)
    n = max(2 * k, 2) + 1 if n_points is None else int(n_points)
    s_grid = np.linspace(0.0, t, n)
    v_vals = history_ratio(hist, t, s_grid)
    return F_of_path(model.source, model.p, t, y, s_grid, v_vals)


def G_eval(model: Model, hist: IHistory, t: float, y, xi0: Profile | None = None):
    """Initial-data remainder G(t, y, v_t(.))."""
    xi0 = hist.xi0 if xi0 is None else xi0
    p = model.p
    y = np.asarray(y, dtype=float)
    v0 = float(history_ratio(hist, t, 0.0))
    s_grid = np.linspace(0.0, t, 4001)
    P = cumtrapz(np.exp(s_grid / p) * history_ratio(hist, t, s_grid), x=s_grid)
    z0 = np.exp(t / p) * y + P[-1]
    y_p0 = np.expm1(t / p) * (y + p) + y
    return (v0 * xi0(z0 / v0) / p * np.exp(-t / p)
            - (1.0 + y / p) * xi0.d(z0 / v0)
            - np.exp(-t / p) * model.source.eval(y_p0, 0))


# -- the control values ------------------------------------------------------------------


def value_x_derivative(prob: ControlProblem, x: float, rel_step: float = 1e-6):
    """Centered finite difference of the closed-form value in x."""
    h = rel_step * max(abs(x), 1.0)
    v_hi, _ = value(prob, x + h)
    v_lo, _ = value(prob, x - h)
    return (v_hi - v_lo) / (2.0 * h)


def simpson_integrate(values: np.ndarray, dx: float) -> float:
    """Composite Simpson on a uniform grid (odd node count required)."""
    n = len(values)
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of nodes >= 3")
    return float(dx / 3.0 * (values[0] + values[-1]
                             + 4.0 * values[1:-1:2].sum()
                             + 2.0 * values[2:-1:2].sum()))


def characteristic_by_quadrature(prob: ControlProblem, z1: float, x1: float,
                                 t1: float, n_nodes: int) -> tuple[float, float]:
    """The state at t and the payoff int_t^t1 g(z) e^{-(T-s)/p} x/z ds along
    the level-map characteristic through z1 and the state x1 at t1.

    z(s) solves F(z(s)) = F(z1) + t1 - s at each of n_nodes uniform s nodes
    on [t, t1].  The state x1 exp(int_t^t1 (1/p + 1/z) ds) is Simpson, x(s)
    along the way a cumulative trapezoid, and the payoff Simpson: both
    converge at O(h^2) or better to what the closed forms give.
    """
    cm = prob.g.char_map
    s = np.linspace(prob.t, t1, n_nodes)
    z = cm.invert(cm.F(np.array([z1])) + (t1 - s), np.full(n_nodes, z1))
    rate = 1.0 / prob.p + 1.0 / z
    state = float(x1 * np.exp(simpson_integrate(rate, s[1] - s[0])))
    integ = cumtrapz(rate, x=s)
    xs = x1 * np.exp(integ[-1] - integ)
    return state, simpson_integrate(prob.g(z) / z * xs * np.exp(-(prob.T - s) / prob.p),
                                    s[1] - s[0])


def brute_force(prob: ControlProblem, x: float, n_steps: int = 64,
                x_nodes: int = 512, v_levels: int = 9) -> dict:
    """Backward-induction oracle for the value at state x.

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
    est = float(np.interp(x, grid, J))
    bang = (policy_counts[0] + policy_counts[-1]) / max(policy_counts.sum(), 1)
    return {
        "estimate": est,
        "clipped": clipped,
        "policy_counts": policy_counts.tolist(),
        "bang_bang_fraction": float(bang if prob.is_max else np.nan),
        "ceiling_fraction": float(policy_counts[-1] / max(policy_counts.sum(), 1)),
        "levels": levels.tolist(),
    }


# -- the linearization and the model -------------------------------------------------


def semigroup(prof: Profile, p: float, t: float, y):
    """(e^{-Bt} prof)(y)."""
    if t < 0:
        raise DomainError("semigroup defined for t >= 0")
    y = np.asarray(y, dtype=float)
    Y = np.exp(t / p) * y + p * np.expm1(t / p)
    return np.exp(-t / p) * prof(Y)


def B2A_xi_p(lin: Linearization, y):
    """(B^2 A xi_p)(y) = (1/p) BA xi_p + h' + (1 + y/p) y h''."""
    y = np.asarray(y, dtype=float)
    src = lin.model.source
    return (lin.BA_xi_p(y) / lin.p + src.eval(y, 1)
            + (1.0 + y / lin.p) * y * src.eval(y, 2))


def perturbation_at(lin: Linearization, xi0_tilde: Profile, tgrid, u, idx: int, yq):
    """(xi_tilde, D xi_tilde) at time tgrid[idx] on query points, through
    ``linear_evolve``'s own reconstruction tables."""
    yq = np.asarray(yq, dtype=float)
    tabs = lin._reconstruction_tables(tgrid[:idx + 1], yq)
    return lin._perturbation_from_tab(xi0_tilde, tgrid, u, idx, yq, *tabs)


def perturbation_deltas(lin: Linearization, zeta_tilde: Profile) -> tuple[float, float]:
    """The two closure functionals of the perturbed flow; both vanish at 0.

    delta1 is the rho shift itself; delta2 collects the quadratic
    remainder of the gradient pairing against the linearized one.
    """
    spec = lin.model.functional
    y = lin.nodes
    xi = lin.model.xi_p_nodes + zeta_tilde(y)
    dxi = lin.model.dxi_p_nodes + zeta_tilde.d(y)
    if np.any(xi < 0):
        raise ModelViolationError("perturbed profile lost nonnegativity")
    grad = spec.gradient_from_samples(xi)
    Bz = zeta_tilde(y) / lin.p - (1.0 + y / lin.p) * zeta_tilde.d(y)
    den = lin.p * spec.value_from_samples(xi) + spec.pair_from_samples(
        grad, xi - y * dxi)
    if den <= 0:
        raise ModelViolationError("perturbed admissibility denominator <= 0")
    pair_pert = spec.pair_from_samples(grad, Bz)
    pair_lin = spec.pair_from_samples(lin.dI_p, Bz)
    delta1 = -pair_pert / den
    delta2 = pair_pert * lin.denom / den - pair_lin
    return float(delta1), float(delta2)


def gradient_floor_report(model: Model, profiles) -> dict:
    """Sampled infimum of I(zeta) + <dI(zeta), h> over a profile family.

    The model requires this combination to stay positive; no closed-form
    constant is available, so the report flags any nonpositive sample.
    """
    vals = []
    for prof in profiles:
        spec = model.functional
        zeta = np.asarray(prof(spec.nodes), dtype=float)
        I_val = spec.value_from_samples(zeta)
        pairing = spec.pair_from_samples(spec.gradient_from_samples(zeta),
                                         model.h_nodes)
        vals.append(I_val + pairing)
    vals = np.asarray(vals)
    return {
        "sampled_infimum": float(vals.min()),
        "n_profiles": len(vals),
        "nonpositive": bool(np.any(vals <= 0.0)),
    }


# -- the source conditions -------------------------------------------------------------


def validate_source(source: SourceFn, grid: np.ndarray | None = None, tol: float = 1e-9,
                    derivative_cap: float = 1e6, convex: bool = False) -> dict:
    """Check a source's structural invariants on a grid; raises DomainError on failure.

    Returns a report with the observed bounds (sup y|h'|, sup y^2|h''|, the
    limit mismatch at large y and, for a kernel_inf source whose kernel the
    caller declares ``convex``, the convexity-condition margins).
    """
    if grid is None:
        grid = np.geomspace(1e-6, 1e6, 2000)
    h = source.eval(grid, 0)
    h1 = source.eval(grid, 1)
    h2 = source.eval(grid, 2)
    if np.any(h <= 0.0):
        raise DomainError("source must be positive")
    if np.any(np.diff(h) > tol * np.maximum(1.0, np.abs(h[:-1]))):
        raise DomainError("source must be nonincreasing")
    limit_gap = abs(float(source.eval(1e6, 0)) - source.h_inf)
    if limit_gap >= 1e-4 * max(1.0, source.h_inf):
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
        yh = small * source.eval(small, 0)
        report["yh_smallest"] = float(yh[0])
        report["yh_to_zero"] = bool(yh[0] < 1e-3)
    except DomainError:
        report["yh_to_zero"] = None
    if convex and source.kind == "kernel_inf":
        m1a = grid * h2 + h1
        y2h2 = grid ** 2 * h2
        report["m1_min_yh2_plus_h1"] = float(np.min(m1a))
        report["m1_max_increase_y2h2"] = float(np.max(np.diff(y2h2)))
        if np.min(m1a) < -tol:
            raise DomainError("convexity condition y h'' + h' >= 0 violated")
        if np.max(np.diff(y2h2)) > tol:
            raise DomainError("monotonicity of y^2 h'' violated")
    return report
