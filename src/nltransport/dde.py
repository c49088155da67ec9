"""Scalar delay-equation route for the evolution of I(t).

The functional value I(t) determines the transport through the history ratio
v_t(s) = (I(s)/I(t))^{1/p}: with

    z(s) = e^{(t-s)/p} y + int_s^t e^{(s'-s)/p} v_t(s') ds',

the characteristic is y(s) = z(s)/v_t(s), and log I evolves by

    (1/p) d log I / dt = -f(t, v_t(.)) + g(t, v_t(.)),

where f pairs the functional gradient with the history-dependent part

    F(t,y,v_t(.)) = (1/p) int_0^t h(z/v) e^{-(t-s)/p} v ds
                    - (1 + y/p) int_0^t h'(z/v) ds,

recentered by its value at the flat history (F(t,y,1) = h(y) - e^{-t/p} h(y_p(0))
with y_p(s) = e^{(t-s)/p} y + p[e^{(t-s)/p}-1]), and g pairs it with the
initial-data remainder

    G(t,y,v_t(.)) = (1/p) e^{-t/p} v_t(0) xi0(z(0)/v_t(0))
                    - (1 + y/p) xi0'(z(0)/v_t(0)) - e^{-t/p} h(y_p(0)).

log I is the evolved variable and is interpolated piecewise linearly, which
makes e^{R} (R(s) = s/p + [log I(s) - log I(0)]/p) piecewise exponential --
exactly the structure the shared characteristic reconstruction assumes, so
the delay route and the transport route are algebraically identical step by
step.  Each step solves the scalar fixed point for the new history ratio.

The module also carries the constant-source reduction: when h is constant the
pair I1 = (I/I(0))^{1/p}, I2 = (1/p) int_0^t e^{-(t-s)/p} I1(s) ds closes into
a planar ODE system integrated with classical RK4.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ModelViolationError, NumericalError, StepError
from .functionals import DEFAULT_NORM_GRID, Profile, weighted_norm_from_samples
from .model import Model
from .pde import (DAMPING_AFTER, DEFAULT_TOL, MAX_FIXED_POINT_ITERS,
                  reconstruct_profile)
from .quadrature import cumtrapz, trapz_weights
from .trajectory import Trajectory


class IHistory:
    """Committed times, log I samples and nodal derivatives of log I."""

    def __init__(self, model: Model, xi0: Profile, I0: float | None = None,
                 capacity: int = 256, check_admissible: bool = True):
        if check_admissible:
            model.check_admissible(xi0)
        self.model = model
        self.xi0 = xi0
        self._t = np.zeros(capacity)
        self._logI = np.zeros(capacity)
        self._dlogI = np.zeros(capacity)
        self._R = np.zeros(capacity)
        self._den = np.zeros(capacity)
        self.n = 1
        I0 = model.functional.value(xi0) if I0 is None else float(I0)
        if I0 <= 0:
            raise DomainError("I(0) must be positive")
        self._logI[0] = np.log(I0)
        res = model.rho(xi0)
        self._dlogI[0] = model.p * res.rho - 1.0
        self._den[0] = res.denominator
        self.last_rho_result = res

    @property
    def t(self):
        return self._t[:self.n]

    @property
    def logI(self):
        return self._logI[:self.n]

    @property
    def I(self):
        return np.exp(self.logI)

    @property
    def dlogI(self):
        return self._dlogI[:self.n]

    def _grow(self):
        if self.n >= len(self._t):
            for name in ("_t", "_logI", "_dlogI", "_R", "_den"):
                old = getattr(self, name)
                new = np.zeros(2 * len(old))
                new[:len(old)] = old
                setattr(self, name, new)

    # -- history interpolation ------------------------------------------------

    def logI_at(self, s):
        """Piecewise-linear interpolant of log I."""
        return np.interp(s, self.t, self.logI)

    def v(self, t: float, s):
        """History ratio v_t(s) = (I(s)/I(t))^{1/p}."""
        return np.exp((self.logI_at(s) - self.logI_at(t)) / self.model.p)

    def _R_nodes(self, k: int):
        return self._R[:k + 1]

    def rho_values(self):
        return (self.dlogI + 1.0) / self.model.p

    # -- reconstruction ---------------------------------------------------------

    def profile_samples(self, k: int, yq, need_second: bool = False):
        return reconstruct_profile(self.model.source, self.xi0,
                                   self._t[:k + 1], self._R[:k + 1],
                                   np.asarray(yq, dtype=float), self.model.p,
                                   need_second=need_second)

    def fg_at(self, k: int) -> tuple[float, float]:
        """(f, g) at node k from the committed reconstruction.

        Uses the pointwise identity F(v) - F(1) + G = B xi - h, splitting the
        reconstructed B xi into the history part and the initial-data part, so
        -f + g equals rho - 1/p exactly on the discrete grid.
        """
        model = self.model
        p = model.p
        spec = model.functional
        y = spec.nodes
        t_k = self._t[k]
        xi, dxi = self.profile_samples(k, y)
        E_t = np.exp(self._R[k])
        y0 = E_t * y + self._C_at(k)
        xi0_val, xi0_d = self.xi0.pair_eval(y0)
        init_terms = xi0_val / (p * E_t) - (1.0 + y / p) * xi0_d
        e_tp = np.exp(-t_k / p)
        y_p0 = np.expm1(t_k / p) * (y + p) + y
        F1 = model.h_nodes - e_tp * model.source.eval(y_p0, 0)
        Bxi = xi / p - (1.0 + y / p) * dxi
        Fv_minus_F1 = Bxi - init_terms - F1
        G = init_terms - e_tp * model.source.eval(y_p0, 0)
        grad = spec.gradient_from_samples(xi)
        den = p * spec.value_from_samples(xi) + spec.pair_from_samples(grad, xi - y * dxi)
        f = spec.pair_from_samples(grad, Fv_minus_F1) / den
        g = -spec.pair_from_samples(grad, G) / den
        return f, g

    def _C_at(self, k: int) -> float:
        """Exact cumulative of the piecewise-exponential e^R up to node k."""
        if k == 0:
            return 0.0
        t = self._t[:k + 1]
        R = self._R[:k + 1]
        rates = np.diff(R) / np.diff(t)
        E = np.exp(R[:-1])
        seg = np.where(np.abs(rates) > 1e-12,
                       E * np.expm1(rates * np.diff(t)) / np.where(
                           np.abs(rates) > 1e-12, rates, 1.0),
                       E * np.diff(t))
        return float(np.sum(seg))

    # -- stepping -----------------------------------------------------------------

    def step(self, dt: float, tol: float = DEFAULT_TOL) -> "IHistory":
        """Append t+dt solving the fixed point for the new history ratio."""
        if dt <= 0:
            raise DomainError("dt must be positive")
        self._grow()
        k = self.n
        km = k - 1
        p = self.model.p
        self._t[k] = self._t[km] + dt
        nodes = self.model.functional.nodes
        D = self._dlogI[km]
        chi_prev = None
        res = None
        for it in range(MAX_FIXED_POINT_ITERS):
            self._logI[k] = self._logI[km] + 0.5 * dt * (self._dlogI[km] + D)
            self._R[k] = self._t[k] / p + (self._logI[k] - self._logI[0]) / p
            self.n = k + 1
            xi, dxi = self.profile_samples(k, nodes)
            self.n = k
            res = self.model.rho_from_samples(xi, dxi)
            D_new = p * res.rho - 1.0
            chi = np.exp(-0.5 * dt * (self._dlogI[km] + D_new) / p)
            if chi_prev is not None and abs(chi - chi_prev) < tol:
                D = D_new
                break
            chi_prev = chi
            D = 0.5 * (D + D_new) if it >= DAMPING_AFTER else D_new
        else:
            raise StepError(
                f"history-ratio fixed point did not converge in "
                f"{MAX_FIXED_POINT_ITERS} iterations at t={self._t[k]:.6g}; "
                f"try a smaller dt")
        self._dlogI[k] = D
        self._logI[k] = self._logI[km] + 0.5 * dt * (self._dlogI[km] + D)
        self._R[k] = self._t[k] / p + (self._logI[k] - self._logI[0]) / p
        self._den[k] = res.denominator
        if not np.isfinite(self._logI[k]):
            raise ModelViolationError("I(t) lost positivity during stepping")
        self.n = k + 1
        self.last_rho_result = res
        return self


def v_and_z(hist: IHistory, p: float, t: float, s, y: float):
    """(v_t(s), z(s)) for the history; z solves the ratio-weighted drift ODE."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr > t + 1e-12):
        raise DomainError("need s <= t")
    if y <= 0:
        raise DomainError("need y > 0")
    v = hist.v(t, s_arr)
    # z(s) = e^{(t-s)/p} y + int_s^t e^{(s'-s)/p} v_t(s') ds'  via fine trapezoid
    z = np.empty_like(s_arr)
    for i, si in enumerate(s_arr):
        sg = np.linspace(si, t, 4001)
        integrand = np.exp((sg - si) / p) * hist.v(t, sg)
        z[i] = np.exp((t - si) / p) * y + np.trapezoid(integrand, sg)
    if np.ndim(s) == 0:
        return float(v[0]), float(z[0])
    return v, z


# -- the history functional F and its gradient ---------------------------------


def F_of_path(source, p: float, t: float, y, s_grid: np.ndarray, v_vals: np.ndarray):
    """F(t, y, v) for a sampled positive history path on a uniform s grid.

    Trapezoid in s with the cumulative drift computed from the same samples;
    vectorized over an array of y.
    """
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    s = np.asarray(s_grid, dtype=float)
    v = np.asarray(v_vals, dtype=float)
    if np.any(v <= 0):
        raise DomainError("history path must stay positive")
    P = cumtrapz(np.exp(s / p) * v, x=s)
    z = (np.exp((t - s) / p)[None, :] * y_arr[:, None]
         + np.exp(-s / p)[None, :] * (P[-1] - P)[None, :])
    arg = z / v[None, :]
    w = trapz_weights(len(s), s[1] - s[0])
    part1 = (source.eval(arg, 0) * (np.exp(-(t - s) / p) * v)[None, :]) @ w / p
    part2 = source.eval(arg, 1) @ w
    out = part1 - (1.0 + y_arr / p) * part2
    return float(out[0]) if np.ndim(y) == 0 else out


def F_flat_closed(source, p: float, t: float, y):
    """F(t, y, 1) = h(y) - e^{-t/p} h(y_p(0)) in closed form."""
    y = np.asarray(y, dtype=float)
    y_p0 = np.expm1(t / p) * (y + p) + y
    return source.eval(y, 0) - np.exp(-t / p) * source.eval(y_p0, 0)


def F_eval(model: Model, hist: IHistory, t: float, y, n_points: int | None = None):
    """F(t, y, v_t(.)) with the history taken from ``hist`` (direct quadrature)."""
    k = _node_index(hist, t)
    n = max(2 * k, 2) + 1 if n_points is None else int(n_points)
    s_grid = np.linspace(0.0, t, n)
    v_vals = hist.v(t, s_grid)
    return F_of_path(model.source, model.p, t, y, s_grid, v_vals)


def G_eval(model: Model, hist: IHistory, t: float, y, xi0: Profile | None = None):
    """Initial-data remainder G(t, y, v_t(.))."""
    xi0 = hist.xi0 if xi0 is None else xi0
    p = model.p
    y = np.asarray(y, dtype=float)
    v0 = float(hist.v(t, 0.0))
    s_grid = np.linspace(0.0, t, 4001)
    P = cumtrapz(np.exp(s_grid / p) * hist.v(t, s_grid), x=s_grid)
    z0 = np.exp(t / p) * y + P[-1]
    y_p0 = np.expm1(t / p) * (y + p) + y
    return (v0 * xi0(z0 / v0) / p * np.exp(-t / p)
            - (1.0 + y / p) * xi0.d(z0 / v0)
            - np.exp(-t / p) * model.source.eval(y_p0, 0))


def _node_index(hist: IHistory, t: float) -> int:
    if hist.n == 1:
        if abs(t - hist._t[0]) > 1e-9:
            raise DomainError("t outside committed history")
        return 0
    dt = hist._t[1] - hist._t[0]
    k = int(round(t / dt))
    if k < 0 or k >= hist.n or abs(hist._t[k] - t) > 1e-9 * max(1.0, t):
        raise DomainError(f"t={t} is not a committed history node")
    return k


def dF_gradient(source, p: float, t: float, y: float, s_grid: np.ndarray,
                v_vals: np.ndarray, tau: float):
    """Directional gradient of F in the history at position tau in (0, t).

    A bump of the history at tau moves z(s) for s <= tau with weight
    e^{(tau-s)/p}; collecting terms gives

        dF(tau) = (1/p) h(z/v)|_tau e^{-(t-tau)/p}
                  - (z/(p v)) h'(z/v)|_tau e^{-(t-tau)/p}
                  + (e^{(tau-t)/p}/p) int_0^tau h'(z/v) ds
                  + (1+y/p) (z/v^2) h''(z/v)|_tau
                  - (1+y/p) int_0^tau (1/v) h''(z/v) e^{(tau-s)/p} ds.
    """
    if not (0.0 < tau < t):
        raise DomainError("need 0 < tau < t")
    s = np.asarray(s_grid, dtype=float)
    v = np.asarray(v_vals, dtype=float)
    P = cumtrapz(np.exp(s / p) * v, x=s)
    z = np.exp((t - s) / p) * y + np.exp(-s / p) * (P[-1] - P)
    arg = z / v
    v_tau = np.interp(tau, s, v)
    z_tau = np.interp(tau, s, z)
    arg_tau = z_tau / v_tau
    e_fac = np.exp(-(t - tau) / p)
    h1 = source.eval(arg, 1)
    h2 = source.eval(arg, 2)
    # partial integrals over [0, tau] on the grid, trapezoid with a cut node
    mask = s <= tau
    s_cut = np.concatenate([s[mask], [tau]])
    int_h1 = np.trapezoid(np.concatenate([h1[mask], [source.eval(arg_tau, 1)]]), s_cut)
    integrand2 = np.concatenate([h2[mask] / v[mask] * np.exp((tau - s[mask]) / p),
                                 [source.eval(arg_tau, 2) / v_tau]])
    int_h2 = np.trapezoid(integrand2, s_cut)
    return (source.eval(arg_tau, 0) * e_fac / p
            - z_tau / (p * v_tau) * source.eval(arg_tau, 1) * e_fac
            + np.exp((tau - t) / p) / p * int_h1
            + (1.0 + y / p) * z_tau / v_tau ** 2 * source.eval(arg_tau, 2)
            - (1.0 + y / p) * int_h2)


# -- runs --------------------------------------------------------------------


def run(model: Model, xi0: Profile, T: float, dt: float, stride: int = 1,
        tol: float = DEFAULT_TOL, norm_grid: np.ndarray | None = None,
        I0: float | None = None, norms: bool = True):
    """Evolve the delay route to time T; returns (Trajectory, series dict).

    ``norms=False`` zero-fills the profile-norm columns for cheap sampling.
    """
    if T <= 0 or dt <= 0:
        raise DomainError("T and dt must be positive")
    n_steps = int(round(T / dt))
    grid = DEFAULT_NORM_GRID if norm_grid is None else np.asarray(norm_grid, float)
    if norms:
        xi_p = model.equilibrium_values(grid, 0)
        dxi_p = model.equilibrium_values(grid, 1)
    hist = IHistory(model, xi0, I0=I0, capacity=n_steps + 2)

    rows = {name: [] for name in ("t", "rho", "I", "dist1inf", "norm2inf", "denomL1")}
    fg = {"t": [], "I": [], "dlogIdt": [], "f": [], "g": []}
    sup_inf_ratio = []
    # xi(eps0)/xi(1e6) rides along with the norm-grid reconstruction
    query = np.concatenate([grid, [model.functional.eps0, 1e6]])

    def sample(k: int):
        rows["t"].append(hist._t[k])
        rows["rho"].append((hist._dlogI[k] + 1.0) / model.p)
        rows["I"].append(float(np.exp(hist._logI[k])))
        rows["denomL1"].append(hist._den[k])
        f, g = hist.fg_at(k)
        fg["t"].append(hist._t[k])
        fg["I"].append(float(np.exp(hist._logI[k])))
        fg["dlogIdt"].append(float(hist._dlogI[k]))
        fg["f"].append(f)
        fg["g"].append(g)
        if not norms:
            rows["dist1inf"].append(0.0)
            rows["norm2inf"].append(0.0)
            return
        xi, dxi, d2 = hist.profile_samples(k, query, need_second=True)
        tail = xi[-2:]
        xi, dxi, d2 = xi[:-2], dxi[:-2], d2[:-2]
        if np.min(xi) < -1e-12:
            raise NumericalError("profile lost nonnegativity during delay run")
        sup_inf_ratio.append(float(tail[0] / max(tail[1], 1e-300)))
        rows["dist1inf"].append(weighted_norm_from_samples(xi - xi_p, dxi - dxi_p, grid))
        rows["norm2inf"].append(weighted_norm_from_samples(xi, dxi, grid, seconds=d2))

    sample(0)
    for k in range(1, n_steps + 1):
        hist.step(dt, tol=tol)
        if k % stride == 0 or k == n_steps:
            sample(k)

    traj = Trajectory(**{name: np.asarray(v) for name, v in rows.items()})
    traj.monitors = {
        "state": hist,
        "dlogI_l1": float(np.sum(np.abs(hist.dlogI[:-1] + hist.dlogI[1:]) * 0.5 * dt)),
        "I_min": float(np.min(traj.I)),
        "I_max": float(np.max(traj.I)),
        "I_zero_profile": float(model.functional.value(Profile.constant(0.0))),
        "sup_inf_ratio_max": float(np.max(sup_inf_ratio)) if sup_inf_ratio else np.nan,
    }
    return traj, {key: np.asarray(v) for key, v in fg.items()}


# -- constant-source reduction to a planar ODE ---------------------------------


def const_h_ode(model: Model, xi0: Profile, T: float, dt: float):
    """Integrate the (I1, I2) system for constant sources with classical RK4.

    Returns a dict of series: t, I1, I2, J = I1 - I2, alpha, beta, and the
    reconstructed I(t) = I(0) * I1(t)^p.
    """
    if model.source.kind != "constant":
        raise DomainError("the planar reduction requires a constant source")
    p = model.p
    h_inf = model.source.h_inf
    spec = model.functional
    y = spec.nodes
    model.check_admissible(xi0)

    def rhs(t, I1, I2):
        Z = np.exp(t / p) * (I1 * y + p * I2)
        xi0_val, xi0_d = xi0.pair_eval(Z)
        xi = np.exp(-t / p) * xi0_val / I1 + p * h_inf * I2 / I1
        dxi = xi0_d
        grad = spec.gradient_from_samples(xi)
        den = p * spec.value_from_samples(xi) + spec.pair_from_samples(grad, xi - y * dxi)
        if den <= 0:
            raise ModelViolationError("admissibility denominator lost positivity "
                                      "in the planar reduction")
        alpha = -h_inf * spec.pair_from_samples(grad, np.ones_like(y)) / den
        gamma = np.exp(-t / p) * xi0_val / p - (1.0 + y / p) * I1 * xi0_d
        beta = -spec.pair_from_samples(grad, gamma) / den
        return (-alpha * (I1 - I2) + beta, (I1 - I2) / p, alpha, beta)

    n = int(round(T / dt))
    t = np.linspace(0.0, n * dt, n + 1)
    I1 = np.empty(n + 1)
    I2 = np.empty(n + 1)
    alpha = np.empty(n + 1)
    beta = np.empty(n + 1)
    I1[0], I2[0] = 1.0, 0.0
    for k in range(n):
        tk = t[k]
        a1, b1, al, be = rhs(tk, I1[k], I2[k])
        alpha[k], beta[k] = al, be
        a2, b2, _, _ = rhs(tk + dt / 2, I1[k] + dt / 2 * a1, I2[k] + dt / 2 * b1)
        a3, b3, _, _ = rhs(tk + dt / 2, I1[k] + dt / 2 * a2, I2[k] + dt / 2 * b2)
        a4, b4, _, _ = rhs(tk + dt, I1[k] + dt * a3, I2[k] + dt * b3)
        I1[k + 1] = I1[k] + dt / 6 * (a1 + 2 * a2 + 2 * a3 + a4)
        I2[k + 1] = I2[k] + dt / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
        if I1[k + 1] <= 0 or I2[k + 1] < 0:
            raise NumericalError("planar reduction lost positivity")
    alpha[n], beta[n] = rhs(t[n], I1[n], I2[n])[2:]
    I0 = model.functional.value(xi0)
    return {
        "t": t, "I1": I1, "I2": I2, "J": I1 - I2,
        "alpha": alpha, "beta": beta,
        "I": I0 * I1 ** p,
        "beta_envelope_C1": float(np.max(beta * np.exp(t / p))),
    }
