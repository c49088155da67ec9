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

``IHistory`` runs this route on the stepping engine ``pde.LagrangianState``,
which owns the node buffers, e^R and the cumulative C = int e^R at the nodes,
node lookup, the reconstruction, the per-step fixed-point loop (a predicted
start, Newton and secant steps on rho, one tolerance, one ``StepError``) and
the run loop ``pde.evolve``.
Only two things are its own.  First, the bookkeeping of a node: log I is the
evolved variable and is interpolated piecewise linearly, so a trial rho sets
d log I/dt = p rho - 1, log I by the trapezoid and R(s) = s/p + [log I(s) -
log I(0)]/p at the new node; this keeps e^R piecewise exponential, exactly
the structure the shared reconstruction assumes, and I at a committed node is
exp(log I), not the functional's value.  Second, it evaluates f and g at a
node (``fg_at``) from the committed reconstruction, through the pointwise
identity F(v) - F(1) + G = B xi - h.

The flat history's foot point y_p(0) is ``model.backward_state``, and a
sampled history's characteristic z(s), with the check that the history is
positive, is ``_history_characteristic``, read by ``F_of_path`` and
``dF_gradient``.

The module also carries the constant-source reduction: when h is constant the
pair I1 = (I/I(0))^{1/p}, I2 = (1/p) int_0^t e^{-(t-s)/p} I1(s) ds closes into
a planar ODE system integrated with classical RK4.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ModelViolationError, NumericalError
from .functionals import Profile
from .model import Model, backward_state
from .pde import LagrangianState, evolve
from .quadrature import cumtrapz, trapz_weights


class IHistory(LagrangianState):
    """The stepping engine interpolating log I: adds log I and d log I/dt nodes."""

    _BUFFERS = LagrangianState._BUFFERS + ("_logI", "_dlogI")

    def __init__(self, model: Model, xi0: Profile):
        super().__init__(model, xi0)
        self._logI[0] = np.log(self._I[0])
        self._dlogI[0] = model.p * self._rho[0] - 1.0
        self._I[0] = np.exp(self._logI[0])

    @property
    def dlogI(self):
        return self._dlogI[:self.n]

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
        xi, dxi = self.refined_samples(k, y)
        E_t = self._E[k]
        y0 = E_t * y + self._C[k]
        xi0_val, xi0_d = self.xi0.pair_eval(y0)
        init_terms = xi0_val / (p * E_t) - (1.0 + y / p) * xi0_d
        y_p0 = backward_state(t_k, y, p)
        flat_init = np.exp(-t_k / p) * model.source.eval(y_p0, 0)
        F1 = model.h_nodes - flat_init
        Bxi = xi / p - (1.0 + y / p) * dxi
        Fv_minus_F1 = Bxi - init_terms - F1
        G = init_terms - flat_init
        _, grad, den = model.pairing(xi, dxi)
        f = spec.pair_from_samples(grad, Fv_minus_F1) / den
        g = -spec.pair_from_samples(grad, G) / den
        return f, g

    # -- node bookkeeping -------------------------------------------------------

    def _set_node(self, k: int, dt: float, rho: float) -> None:
        """Fill node k from a trial rho: d log I/dt, log I, R, e^R and C."""
        km = k - 1
        p = self.model.p
        self._rho[k] = rho
        self._dlogI[k] = p * rho - 1.0
        self._logI[k] = self._logI[km] + 0.5 * dt * (self._dlogI[km] + self._dlogI[k])
        self._R[k] = self._t[k] / p + (self._logI[k] - self._logI[0]) / p
        self._set_exp(k)

    def _commit_I(self, k: int, res) -> None:
        """I at the committed node k from the evolved log I."""
        if not np.isfinite(self._logI[k]):
            raise ModelViolationError("I(t) lost positivity during stepping")
        self._I[k] = np.exp(self._logI[k])

    # the tracer of bench/ wraps methods found in the class's own __dict__
    step = LagrangianState.step


# -- the history functional F and its gradient ---------------------------------


def _history_characteristic(p: float, t: float, y, s: np.ndarray, v: np.ndarray):
    """z(s) = e^{(t-s)/p} y + e^{-s/p} int_s^t e^{s'/p} v ds' by the cumulative
    trapezoid on the samples (s, v) of a positive history; a column y gives
    one row per y."""
    if np.any(v <= 0):
        raise DomainError("history path must stay positive")
    P = cumtrapz(np.exp(s / p) * v, x=s)
    return np.exp((t - s) / p) * y + np.exp(-s / p) * (P[-1] - P)


def F_of_path(source, p: float, t: float, y, s_grid: np.ndarray, v_vals: np.ndarray):
    """F(t, y, v) for a sampled positive history path on a uniform s grid.

    Trapezoid in s along the history's characteristic; vectorized over an
    array of y.
    """
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    s = np.asarray(s_grid, dtype=float)
    v = np.asarray(v_vals, dtype=float)
    arg = _history_characteristic(p, t, y_arr[:, None], s, v) / v[None, :]
    w = trapz_weights(len(s), s[1] - s[0])
    part1 = (source.eval(arg, 0) * (np.exp(-(t - s) / p) * v)[None, :]) @ w / p
    part2 = source.eval(arg, 1) @ w
    out = part1 - (1.0 + y_arr / p) * part2
    return float(out[0]) if np.ndim(y) == 0 else out


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
    z = _history_characteristic(p, t, y, s, v)
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
        norms: bool = True):
    """Evolve the delay route to time T; returns (Trajectory, series dict).

    Steps and samples through :func:`pde.evolve`, then computes the f and g
    series at the sampled nodes.
    """
    hist = IHistory(model, xi0)
    traj = evolve(hist, T, dt, stride, norms)
    traj.monitors["dlogI_l1"] = float(
        np.sum(np.abs(hist.dlogI[:-1] + hist.dlogI[1:]) * 0.5 * dt))
    ks = [hist.node_index(t) for t in traj.t]
    f, g = np.array([hist.fg_at(k) for k in ks]).T
    hist.workspace.release()
    fg = {"t": hist._t[ks], "I": hist._I[ks], "dlogIdt": hist._dlogI[ks], "f": f, "g": g}
    return traj, fg


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
        _, grad, den = model.pairing(xi, dxi)
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
