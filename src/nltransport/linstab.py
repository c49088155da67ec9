"""Linearization about the equilibrium profile and its stability machinery.

The linearized semigroup acts by translation along the frozen characteristics,

    (e^{-Bt} zeta)(y) = e^{-t/p} zeta(Y_t(y)),   Y_t(y) = e^{t/p} y + p (e^{t/p} - 1),

and the scalar observable u(t) = <dI(xi_p), B xi_tilde(t)> satisfies the
convolution Volterra equation u + K*u = g with

    K(t) = -<dI(xi_p), e^{-Bt} B A xi_p> / denom,
    g(t) =  <dI(xi_p), e^{-Bt} B xi_tilde(0)>,
    denom = p I(xi_p) + <dI(xi_p), A xi_p>,

where B A xi_p = (1/p) A xi_p - y h'(y) is nonnegative for decreasing sources.
Because (B - 1/p) B A xi_p = h'(y) + (1 + y/p) y h''(y) is nonnegative under
the source convexity conditions, e^{t/p} K(t) is positive decreasing, which
rules out zeros of 1 + K_hat(z) for Re z > -1/p; ``condition_H3`` certifies
this numerically on a rectangle contour.

The delay form of the same linearization reads

    dJ/dt + M(t) J(t) - int_0^t m(t,s) J(s) ds = g0(t),

whose coefficients carry explicit corrections pinned to the characteristic
foot point Y_t(y): M(t) pairs the gradient with

    B A xi_p(y) + y h'(Y) + p h(Y)/(p+Y) - int_Y^inf p h/(p+y')^2,   Y = Y_t(y),

and m(t,s) with

    e^{-B(t-s)} B^2 A xi_p(y)
    - e^{-(t-s)/p} [h'(Y) - h(Y)/(p+Y) + int_Y^inf h/(p+y')^2].

Its integrated convolution form reads dJ/dt + K(0) J + K'*J = K J0 - g/denom.
``delay_problem`` and ``convolution_delay_problem`` tabulate either form on a
uniform grid as a ``volterra.LinearDDEProblem``, which
``volterra.linear_dde_solve`` integrates and cross-checks.  M(0) pairs to h
exactly, so the two forms agree to second order at small times; at large times
M -> K(0) and m -> -K' exponentially.  Both facts are asserted in tests, which
pins the sign conventions.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ModelViolationError
from .functionals import Profile, weighted_norm_from_samples
from .model import Model
from .quadrature import cumtrapz, gauss_panels, trapz_weights
from .ratefit import fit_rate
from .volterra import (LinearDDEProblem, VolterraProblem, solve as volterra_solve,
                       uniform_grid)

LAPLACE_HORIZON = 40.0  # laplace_khat integrates K over [0, 40 p]
CONTOUR_Q = 1.2  # condition_H3's rectangle: Re z from -1/(1.2 p) ...
CONTOUR_RE_MAX = 2.0  # ... to 2
CONTOUR_N0, CONTOUR_N_CAP = 4000, 2 ** 16  # contour points: first try, cap
MONOTONICITY_HORIZON = 10.0  # monotonicity_certificate samples K on [0, 10 p]
NORM_GRID = np.geomspace(1e-2, 1e4, 300)  # linear_evolve's norm grid
FIT_WINDOW = 0.5  # trailing fraction of the samples its decay fit uses


def semigroup(prof: Profile, p: float, t: float, y):
    """(e^{-Bt} prof)(y)."""
    if t < 0:
        raise DomainError("semigroup defined for t >= 0")
    y = np.asarray(y, dtype=float)
    Y = np.exp(t / p) * y + p * np.expm1(t / p)
    return np.exp(-t / p) * prof(Y)


class Linearization:
    """Kernel, forcing and delay coefficients of the linearized flow."""

    def __init__(self, model: Model):
        self.model = model
        self.p = model.p
        spec = model.functional
        self.nodes = spec.nodes
        self.weights = spec.weights
        self.dI_p = spec.gradient_from_samples(model.xi_p_nodes)
        self.I_p = spec.value_from_samples(model.xi_p_nodes)
        self.denom = self.p * self.I_p + spec.pair_from_samples(
            self.dI_p, model.Axi_p_nodes)
        if self.denom <= 0:
            raise ModelViolationError("equilibrium admissibility denominator "
                                      "is not positive")

    # -- pointwise building blocks -----------------------------------------

    def shift(self, t, y):
        """Characteristic foot point Y_t(y) of the frozen flow."""
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.exp(t / self.p) * y + self.p * np.expm1(t / self.p)

    def BA_xi_p(self, y):
        """(B A xi_p)(y) = (1/p) A xi_p(y) - y h'(y) >= 0."""
        y = np.asarray(y, dtype=float)
        A = self.model.equilibrium_A(y)
        return A / self.p - y * self.model.source.eval(y, 1)

    def B2A_xi_p(self, y):
        """(B^2 A xi_p)(y) = (1/p) BA xi_p + h' + (1 + y/p) y h''."""
        y = np.asarray(y, dtype=float)
        src = self.model.source
        return (self.BA_xi_p(y) / self.p + src.eval(y, 1)
                + (1.0 + y / self.p) * y * src.eval(y, 2))

    # -- the convolution kernel ------------------------------------------------

    def kernel_K(self, t):
        """K(t) >= 0, with e^{t/p} K(t) nonincreasing for conforming sources."""
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t)
        chunk = max(1, int(4e5 // len(self.nodes)))
        for lo in range(0, len(t), chunk):
            tt = t[lo:lo + chunk]
            Y = self.shift(tt[:, None], self.nodes[None, :])
            vals = self.BA_xi_p(Y)
            pair = (vals * self.dI_p[None, :]) @ self.weights
            out[lo:lo + chunk] = -np.exp(-tt / self.p) * pair / self.denom
        return float(out[0]) if scalar else out

    def kernel_K_prime(self, t):
        """K'(t) = -K(t)/p + <dI, e^{-Bt} [(B - 1/p) B A xi_p]> / denom."""
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        src = self.model.source
        Y = self.shift(t[:, None], self.nodes[None, :])
        m = src.eval(Y, 1) + (1.0 + Y / self.p) * Y * src.eval(Y, 2)
        pair = (m * self.dI_p[None, :]) @ self.weights
        out = -self.kernel_K(t) / self.p + np.exp(-t / self.p) * pair / self.denom
        return float(out[0]) if scalar else out

    def forcing_g(self, xi0_tilde: Profile, t):
        """g(t) = <dI(xi_p), e^{-Bt} B xi0_tilde> (unnormalized pairing)."""
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        Y = self.shift(t[:, None], self.nodes[None, :])
        val, dval = xi0_tilde.pair_eval(Y)
        Bv = val / self.p - (1.0 + Y / self.p) * dval
        pair = (Bv * self.dI_p[None, :]) @ self.weights
        out = np.exp(-t / self.p) * pair
        return float(out[0]) if scalar else out

    def monotonicity_certificate(self, n: int = 400) -> dict:
        """Positivity of K and decrease of e^{t/p} K(t) on a uniform grid."""
        t = np.linspace(0.0, MONOTONICITY_HORIZON * self.p, n)
        K = self.kernel_K(t)
        weighted = np.exp(t / self.p) * K
        return {
            "t": t, "K": K, "weighted": weighted,
            "K_min": float(np.min(K)),
            "monotone_margin": float(np.min(-np.diff(weighted))),
        }

    # -- Laplace transform and the contour condition ---------------------------

    def laplace_khat(self, z, omega_max: float = 50.0):
        """K_hat(z) on Re z > -1/p by truncated quadrature with a tail bound.

        Returns (values, tail_bound_at_min_Re).  The tail uses the certified
        envelope K(t) <= K(T_L) e^{-(t-T_L)/p}, T_L = LAPLACE_HORIZON p.
        """
        p = self.p
        T_L = LAPLACE_HORIZON * p
        scalar = np.ndim(z) == 0
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if np.any(z.real <= -1.0 / p):
            raise DomainError("Laplace transform needs Re z > -1/p")
        nodes, weights, Kv = self._laplace_rule(T_L, omega_max)
        out = np.empty(len(z), dtype=complex)
        chunk = max(1, int(4e6 // len(nodes)))
        for lo in range(0, len(z), chunk):
            zz = z[lo:lo + chunk]
            out[lo:lo + chunk] = np.exp(-np.outer(zz, nodes)) @ (weights * Kv)
        K_TL = float(self.kernel_K(T_L))
        sigma = float(np.min(z.real))
        tail = K_TL * np.exp(-sigma * T_L) / (sigma + 1.0 / p)
        if scalar:
            return complex(out[0]), tail
        return out, tail

    def _laplace_rule(self, T_L, omega_max):
        """Panel nodes and weights on [0, T_L] and K at the nodes, cached per omega_max."""
        if getattr(self, "_lap_key", None) != omega_max:
            width = min(0.15 * 50.0 / max(omega_max, 1.0), self.p / 4)
            n_panels = int(np.ceil(T_L / width))
            nodes, weights = gauss_panels(0.0, T_L, n_panels, 16)
            self._lap_rule = (nodes, weights, self.kernel_K(nodes))
            self._lap_key = omega_max
        return self._lap_rule

    def condition_H3(self, omega: float = 50.0) -> dict:
        """Sample 1 + K_hat on a rectangle boundary; report min modulus and winding.

        The rectangle is [-1/(CONTOUR_Q p), CONTOUR_RE_MAX] x [-i omega, i omega].
        The sampling refines until adjacent phase jumps stay below pi/2 (cap
        CONTOUR_N_CAP points); status is conclusive when the truncation tail is
        small against the observed minimum modulus.
        """
        p = self.p
        a = -1.0 / (CONTOUR_Q * p)
        re_max = CONTOUR_RE_MAX
        n = CONTOUR_N0
        while True:
            per_side = max(n // 4, 8)
            top = np.linspace(a + 1j * omega, re_max + 1j * omega, per_side,
                              endpoint=False)
            right = np.linspace(re_max + 1j * omega, re_max - 1j * omega, per_side,
                                endpoint=False)
            bottom = np.linspace(re_max - 1j * omega, a - 1j * omega, per_side,
                                 endpoint=False)
            left = np.linspace(a - 1j * omega, a + 1j * omega, per_side,
                               endpoint=False)
            zs = np.concatenate([top, right, bottom, left])
            vals, tail = self.laplace_khat(zs, omega_max=omega)
            w = 1.0 + vals
            phases = np.angle(np.roll(w, -1) / w)
            if np.max(np.abs(phases)) < np.pi / 2:
                break
            if n >= CONTOUR_N_CAP:
                return {"status": "inconclusive", "reason": "phase jumps stayed above pi/2 at the point cap"}
            n *= 2
        winding = int(np.round(np.sum(phases) / (2 * np.pi)))
        min_abs = float(np.min(np.abs(w)))
        status = "conclusive" if tail <= 0.1 * min_abs else "inconclusive"
        return {
            "status": status,
            "winding_number": winding,
            "min_abs_one_plus_khat": min_abs,
            "tail_bound": float(tail),
            "n_contour_points": len(zs),
        }

    # -- linear evolution and decay -------------------------------------------

    def linear_evolve(self, xi0_tilde: Profile, T: float, dt: float,
                      n_samples: int = 120) -> dict:
        """Solve u + K*u = g, reconstruct the perturbation and fit its decay."""
        grid = NORM_GRID
        tgrid = np.linspace(0.0, T, int(round(T / dt)) + 1)
        Kv = self.kernel_K(tgrid)
        gv = self.forcing_g(xi0_tilde, tgrid)
        prob = VolterraProblem(kernel=_on_grid(tgrid, Kv), forcing=_on_grid(tgrid, gv),
                               T=T, dt=dt, convolution=True)
        _, u = volterra_solve(prob)
        sample_idx = np.unique(np.linspace(0, len(tgrid) - 1, n_samples).astype(int))
        # the reconstruction kernel depends on t - s only: tabulate once
        A_tab, dA_tab = self._reconstruction_tables(tgrid, grid)
        norms = np.empty(len(sample_idx))
        for row, idx in enumerate(sample_idx):
            val, dval = self._perturbation_from_tab(xi0_tilde, tgrid, u, idx,
                                                    grid, A_tab, dA_tab)
            norms[row] = weighted_norm_from_samples(val, dval, grid)
        ts = tgrid[sample_idx]
        fit = fit_rate(ts, norms, window=FIT_WINDOW) if np.max(norms) > 0 else None
        return {"t": tgrid, "u": u, "sample_t": ts, "norm_1inf": norms,
                "rate_fit": fit, "g": gv, "K": Kv, "grid": grid}

    def _reconstruction_tables(self, tau, yq):
        """Columns of the reconstruction kernel at lags ``tau`` on points ``yq``.

        xi_tilde(t) = e^{-Bt} xi0_tilde + int_0^t A[:, t-s] u(s) ds / denom,
        and D xi_tilde likewise with dA.
        """
        Ys = self.shift(tau[None, :], yq[:, None])
        A = self.model.equilibrium_A(Ys) * np.exp(-tau / self.p)[None, :]
        dA = self.p * Ys * self.model.source.eval(Ys, 1) / (self.p + Ys)
        return A, dA

    def _perturbation_from_tab(self, xi0_tilde, tgrid, u, idx, yq, A_tab, dA_tab):
        p = self.p
        t = tgrid[idx]
        Y0 = self.shift(t, yq)
        val = np.exp(-t / p) * xi0_tilde(Y0)
        dval = xi0_tilde.d(Y0)
        if idx > 0:
            w = trapz_weights(idx + 1, tgrid[1] - tgrid[0])
            coeff = w * u[idx::-1] / self.denom
            val = val + A_tab[:, :idx + 1] @ coeff
            dval = dval + dA_tab[:, :idx + 1] @ coeff
        return val, dval

    def perturbation_at(self, xi0_tilde: Profile, tgrid, u, idx: int, yq):
        """(xi_tilde, D xi_tilde) at time tgrid[idx] on query points."""
        yq = np.asarray(yq, dtype=float)
        tabs = self._reconstruction_tables(tgrid[:idx + 1], yq)
        return self._perturbation_from_tab(xi0_tilde, tgrid, u, idx, yq, *tabs)

    # -- perturbation functionals ------------------------------------------------

    def perturbation_deltas(self, zeta_tilde: Profile) -> tuple[float, float]:
        """The two closure functionals of the perturbed flow; both vanish at 0.

        delta1 is the rho shift itself; delta2 collects the quadratic
        remainder of the gradient pairing against the linearized one.
        """
        spec = self.model.functional
        y = self.nodes
        xi = self.model.xi_p_nodes + zeta_tilde(y)
        dxi = self.model.dxi_p_nodes + zeta_tilde.d(y)
        if np.any(xi < 0):
            raise ModelViolationError("perturbed profile lost nonnegativity")
        grad = spec.gradient_from_samples(xi)
        Bz = zeta_tilde(y) / self.p - (1.0 + y / self.p) * zeta_tilde.d(y)
        den = self.p * spec.value_from_samples(xi) + spec.pair_from_samples(
            grad, xi - y * dxi)
        if den <= 0:
            raise ModelViolationError("perturbed admissibility denominator <= 0")
        pair_pert = spec.pair_from_samples(grad, Bz)
        pair_lin = spec.pair_from_samples(self.dI_p, Bz)
        delta1 = -pair_pert / den
        delta2 = pair_pert * self.denom / den - pair_lin
        return float(delta1), float(delta2)

    # -- delay forms ----------------------------------------------------------------

    def _M_values(self, t):
        src = self.model.source
        p = self.p
        Y = self.shift(np.asarray(t)[:, None], self.nodes[None, :])
        J = self.model._tail(Y)
        corr = (self.nodes[None, :] * src.eval(Y, 1)
                + p * src.eval(Y, 0) / (p + Y) - J)
        base = self.BA_xi_p(self.nodes)
        pair = ((base[None, :] + corr) * self.dI_p[None, :]) @ self.weights
        return -pair / self.denom

    def _corr_c_values(self, t):
        """c(t) with m(t,s) = -K'(t-s) + e^{-(t-s)/p} c(t)."""
        src = self.model.source
        p = self.p
        Y = self.shift(np.asarray(t)[:, None], self.nodes[None, :])
        J = self.model._tail(Y)
        corr = src.eval(Y, 1) - src.eval(Y, 0) / (p + Y) + J / p
        return ((corr * self.dI_p[None, :]) @ self.weights) / self.denom

    def delay_problem(self, I0_tilde: float, xi0_tilde: Profile, T: float,
                      dt: float) -> LinearDDEProblem:
        """The delay form J' + M J - int_0^t m(t,s) J(s) ds = g on the grid of (T, dt).

        The memory kernel is k = m.  ``linear_dde_solve`` closes
        J' + a J + int_0^t k(t,s) [J(t) - J(s)] ds = f, so a is M minus the
        trapezoid of m(t, .), which makes the two discrete closures identical.
        """
        t = uniform_grid(T, dt)
        Kp = self.kernel_K_prime(t)
        c = self._corr_c_values(t)
        a = (self._M_values(t) + cumtrapz(Kp, dx=dt)
             - c * cumtrapz(np.exp(-t / self.p), dx=dt))
        g = -(self.forcing_g(xi0_tilde, t)
              + I0_tilde * self._pair_h_forcing(t)) / self.denom

        def m(ti, s):
            lag = ti - np.asarray(s, dtype=float)
            return -np.interp(lag, t, Kp) + np.exp(-lag / self.p) * np.interp(ti, t, c)

        return LinearDDEProblem(a=_on_grid(t, a), k=m, f=_on_grid(t, g), I0=I0_tilde)

    def convolution_delay_problem(self, I0_tilde: float, xi0_tilde: Profile,
                                  T: float, dt: float) -> LinearDDEProblem:
        """The integrated convolution form J' + K(0) J + K'*J = K J0 - g/denom.

        With k(t,s) = -K'(t-s) >= 0, a = K(0) + the cumulative trapezoid of K'.
        """
        t = uniform_grid(T, dt)
        Kv = self.kernel_K(t)
        Kp = self.kernel_K_prime(t)
        f = Kv * I0_tilde - self.forcing_g(xi0_tilde, t) / self.denom
        return LinearDDEProblem(
            a=_on_grid(t, Kv[0] + cumtrapz(Kp, dx=dt)),
            k=lambda ti, s: -np.interp(ti - np.asarray(s, dtype=float), t, Kp),
            f=_on_grid(t, f), I0=I0_tilde)

    def _pair_h_forcing(self, t):
        """<dI(xi_p), e^{-Bt} h> for the delay forcing."""
        Y = self.shift(np.asarray(t)[:, None], self.nodes[None, :])
        vals = self.model.source.eval(Y, 0)
        return np.exp(-np.asarray(t) / self.p) * \
            ((vals * self.dI_p[None, :]) @ self.weights)


def _on_grid(t: np.ndarray, values: np.ndarray):
    """A function of time that reads a table on the grid ``t``."""
    return lambda s: np.interp(s, t, values)
