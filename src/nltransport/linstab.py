"""Linearization about the equilibrium profile and its stability machinery.

The linearized semigroup acts by translation along the frozen characteristics,

    (e^{-Bt} zeta)(y) = e^{-t/p} zeta(Y_t(y)),   Y_t(y) = e^{t/p} y + p (e^{t/p} - 1),

with Y_t the frozen flow ``model.backward_state`` at v = 1.  Every pairing
<dI(xi_p), phi(Y_t(.))> of this module (the kernel and its derivative, the
forcing, the delay coefficients) goes through one chunked helper,
``_pair_along``.  The scalar observable u(t) = <dI(xi_p), B xi_tilde(t)>
satisfies the convolution Volterra equation u + K*u = g with

    K(t) = -<dI(xi_p), e^{-Bt} B A xi_p> / denom,
    g(t) =  <dI(xi_p), e^{-Bt} B xi_tilde(0)>,
    denom = p I(xi_p) + <dI(xi_p), A xi_p>,

where B A xi_p = (1/p) A xi_p - y h'(y) is nonnegative for decreasing sources.
Because (B - 1/p) B A xi_p = h'(y) + (1 + y/p) y h''(y) is nonnegative under
the source convexity conditions, e^{t/p} K(t) is positive decreasing, which
rules out zeros of 1 + K_hat(z) for Re z > -1/p; ``condition_H3`` certifies
this numerically on a rectangle contour.

``linear_evolve`` solves for u and rebuilds the perturbation from it,

    xi_tilde(t) = e^{-Bt} xi0_tilde + int_0^t A(t-s) u(s) ds / denom,

whose kernel A(tau) = e^{-tau/p} A xi_p(Y_tau(.)) depends on the lag alone.
Its columns are built and applied to every sample one lag chunk at a time,
with ``_pair_along``'s KERNEL_CHUNK_POINTS budget, so the memory is
O(N_grid (chunk + n_samples)) whatever the horizon T/dt.

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
``volterra.linear_dde_solve`` integrates and cross-checks; their tables raise
DomainError when read off that grid.  M(0) pairs to h
exactly, so the two forms agree to second order at small times; at large times
M -> K(0) and m -> -K' exponentially.  Both facts are asserted in tests, which
pins the sign conventions.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericalError
from .functionals import Profile, weighted_norm_from_samples
from .model import Model, backward_state
from .quadrature import cumtrapz, unit_gauss_nodes
from .ratefit import fit_rate
from .volterra import (LinearDDEProblem, VolterraProblem, solve as volterra_solve,
                       uniform_grid)

LAPLACE_HORIZON = 40.0  # laplace_khat integrates K over [0, 40 p]
LAPLACE_PANEL_NODES = 16  # Gauss nodes per panel of laplace_khat's rule
CONTOUR_Q = 1.2  # condition_H3's rectangle: Re z from -1/(1.2 p) ...
CONTOUR_RE_MAX = 2.0  # ... to 2
CONTOUR_N0, CONTOUR_N_CAP = 4000, 2 ** 16  # contour points: first try, cap
# (t, node) pairs per chunk of _pair_along: the temporaries of BA_xi_p's
# series passes then stay in a core's L2 cache
KERNEL_CHUNK_POINTS = 64_000
MONOTONICITY_HORIZON = 10.0  # monotonicity_certificate samples K on [0, 10 p]
NORM_GRID = np.geomspace(1e-2, 1e4, 300)  # linear_evolve's norm grid
FIT_WINDOW = 0.5  # trailing fraction of the samples its decay fit uses
TABLE_SLACK = 1e-9  # reach past a table's grid, relative to its span, taken as rounding


class Linearization:
    """Kernel, forcing and delay coefficients of the linearized flow."""

    def __init__(self, model: Model):
        self.model = model
        self.p = model.p
        spec = model.functional
        self.nodes = spec.nodes
        self.weights = spec.weights
        _, self.dI_p, self.denom = model.pairing(model.xi_p_nodes, model.dxi_p_nodes)
        self._lap_rules: dict = {}  # laplace_khat's panel rule per omega_max

    # -- pointwise building blocks -----------------------------------------

    def BA_xi_p(self, y):
        """(B A xi_p)(y) = (1/p) A xi_p(y) - y h'(y) >= 0."""
        y = np.asarray(y, dtype=float)
        A = self.model.equilibrium_A(y)
        return A / self.p - y * self.model.source.eval(y, 1)

    def _pair_along(self, t, density, discount: bool = True):
        """<dI(xi_p), e^{-Bt} phi> = e^{-t/p} <dI(xi_p), phi(Y_t(.))> for each t,
        with phi(Y) = density(Y) at the foot points Y_t(y) of the nodes, one
        row per t; ``discount=False`` drops the factor e^{-t/p}.  Taken in
        chunks of KERNEL_CHUNK_POINTS (t, node) pairs; a scalar t gives a float.
        """
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t)
        chunk = max(1, int(KERNEL_CHUNK_POINTS // len(self.nodes)))
        for lo in range(0, len(t), chunk):
            tt = t[lo:lo + chunk]
            Y = backward_state(tt[:, None], self.nodes[None, :], self.p)
            pair = (density(Y) * self.dI_p[None, :]) @ self.weights
            out[lo:lo + chunk] = np.exp(-tt / self.p) * pair if discount else pair
        return float(out[0]) if scalar else out

    # -- the convolution kernel ------------------------------------------------

    def kernel_K(self, t):
        """K(t) >= 0, with e^{t/p} K(t) nonincreasing for conforming sources."""
        return -self._pair_along(t, self.BA_xi_p) / self.denom

    def kernel_K_prime(self, t):
        """K'(t) = <dI, e^{-Bt} B^2 A xi_p> / denom, in one pass with
        B^2 A xi_p = B A xi_p / p + h' + (1 + y/p) y h''."""
        p, src = self.p, self.model.source
        return self._pair_along(t, lambda Y: self.BA_xi_p(Y) / p + src.eval(Y, 1)
                                + (1.0 + Y / p) * Y * src.eval(Y, 2)) / self.denom

    def forcing_g(self, xi0_tilde: Profile, t):
        """g(t) = <dI(xi_p), e^{-Bt} B xi0_tilde> (unnormalized pairing)."""
        def B_xi0(Y):
            val, dval = xi0_tilde.pair_eval(Y)
            return val / self.p - (1.0 + Y / self.p) * dval

        return self._pair_along(t, B_xi0)

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

        Returns (values, tail_bound_at_min_Re).  The rule on [0, T_L],
        T_L = LAPLACE_HORIZON p, has P uniform panels of width h with
        LAPLACE_PANEL_NODES Gauss nodes k h + h u_j each, so e^{-z t} factors
        by panel and

            K_hat(z) = sum_k e^{-z k h} G_k(z),
            G_k(z)   = sum_j e^{-z h u_j} h w_j K(k h + h u_j),

        with G one matrix product, and the sum over k is Horner's rule in
        q = e^{-z h}.  A call on Z points evaluates Z (LAPLACE_PANEL_NODES + 1)
        exponentials instead of one per point and node.  Where |q| > 1
        (Re z < 0) the terms q^k G_k still decay in k, as K(t) decays like
        e^{-t/p}, so the recursion does not amplify rounding.  The tail uses
        the certified envelope K(t) <= K(T_L) e^{-(t-T_L)/p}.
        """
        p = self.p
        T_L = LAPLACE_HORIZON * p
        scalar = np.ndim(z) == 0
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if np.any(z.real <= -1.0 / p):
            raise DomainError("Laplace transform needs Re z > -1/p")
        starts, offsets, WK = self._laplace_rule(omega_max)
        h = starts[1]  # the panel width: starts are k h, with P >= 160 panels
        out = np.empty(len(z), dtype=complex)
        chunk = max(1, int(2.5e5 // len(starts)))  # 4 MB per P x chunk G
        for lo in range(0, len(z), chunk):
            zz = z[lo:lo + chunk]
            G = WK @ np.exp(np.outer(-offsets, zz))  # G[k] = G_k(zz), contiguous
            q = np.exp(-h * zz)
            acc = G[-1].copy()
            for Gk in G[-2::-1]:  # Horner's rule in q = e^{-z h}
                acc *= q
                acc += Gk
            out[lo:lo + chunk] = acc
        K_TL = float(self.kernel_K(T_L))
        sigma = float(np.min(z.real))
        tail = K_TL * np.exp(-sigma * T_L) / (sigma + 1.0 / p)
        if scalar:
            return complex(out[0]), tail
        return out, tail

    def _laplace_rule(self, omega_max):
        """``laplace_khat``'s panel rule on [0, T_L], cached per omega_max.

        Returns (starts, offsets, WK): panel starts k h, node offsets h u_j
        within a panel, and WK[k, j] = h w_j K(k h + h u_j).  K is evaluated
        at exactly starts + offsets, so the factored sum is this rule's sum.
        The rule is published by one dict assignment, which keeps the cache
        consistent for threads sharing the linearization.
        """
        rule = self._lap_rules.get(omega_max)
        if rule is None:
            T_L = LAPLACE_HORIZON * self.p
            width = min(0.15 * 50.0 / max(omega_max, 1.0), self.p / 4)
            n_panels = int(np.ceil(T_L / width))
            h = T_L / n_panels
            u, w = unit_gauss_nodes(LAPLACE_PANEL_NODES)
            starts = h * np.arange(n_panels)
            offsets = h * u
            nodes = starts[:, None] + offsets[None, :]
            WK = (h * w) * self.kernel_K(nodes.ravel()).reshape(nodes.shape)
            rule = (starts, offsets, WK)
            self._lap_rules[omega_max] = rule
        return rule

    def condition_H3(self, omega: float = 50.0) -> dict:
        """Sample 1 + K_hat on a rectangle boundary; report min modulus and winding.

        The rectangle is [-1/(CONTOUR_Q p), CONTOUR_RE_MAX] x [-i omega, i omega].
        The sampling refines until adjacent phase jumps stay below pi/2 (cap
        CONTOUR_N_CAP points); status is conclusive when the truncation tail is
        small against the observed minimum modulus.
        """
        n = CONTOUR_N0
        while True:
            zs = h3_contour(self.p, omega, n)
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
            "n_laplace_nodes": int(self._laplace_rule(omega)[2].size),
        }

    # -- linear evolution and decay -------------------------------------------

    def linear_evolve(self, xi0_tilde: Profile, T: float, dt: float,
                      n_samples: int = 120) -> dict:
        """Solve u + K*u = g, reconstruct the perturbation and fit its decay.

        At a sample time t_s, xi_tilde(t_s) is e^{-B t_s} xi0_tilde plus the
        trapezoid over the lags tau_l of w_s[l] A(tau_l) u(t_s - tau_l) / denom,
        and D xi_tilde(t_s) likewise with dA (``_reconstruction_tables``).  The
        columns are built one lag chunk at a time (KERNEL_CHUNK_POINTS grid
        points) and added into every sample at once, so memory is
        O(N_grid (chunk + n_samples)), not O(N_grid T/dt).  A non-finite norm
        raises NumericalError; a zero perturbation gets ``rate_fit`` None.
        """
        grid = NORM_GRID
        tgrid = uniform_grid(T, dt)
        Kv = self.kernel_K(tgrid)
        gv = self.forcing_g(xi0_tilde, tgrid)
        prob = VolterraProblem(kernel=_on_grid(tgrid, Kv), forcing=_on_grid(tgrid, gv),
                               T=T, dt=dt, convolution=True)
        _, u = volterra_solve(prob)
        sample_idx = np.unique(np.linspace(0, len(tgrid) - 1, n_samples).astype(int))
        ts = tgrid[sample_idx]
        val = np.empty((len(grid), len(ts)))
        dval = np.empty_like(val)
        for col, t in enumerate(ts):  # e^{-Bt} xi0_tilde and its derivative
            v, d = xi0_tilde.pair_eval(backward_state(t, grid, self.p))
            val[:, col] = np.exp(-t / self.p) * v
            dval[:, col] = d
        step = tgrid[1] - tgrid[0]
        chunk = max(1, int(KERNEL_CHUNK_POINTS // len(grid)))
        for lo in range(0, len(tgrid), chunk):
            lag = np.arange(lo, min(lo + chunk, len(tgrid)))[:, None]
            live = np.searchsorted(sample_idx, lo)  # samples reaching this chunk
            idx = sample_idx[None, live:]
            # lag l's trapezoid weight at sample s: step inside, step/2 at both ends
            w = step * ((lag <= idx) - 0.5 * (lag == 0) - 0.5 * (lag == idx))
            C = w * u[np.maximum(idx - lag, 0)] / self.denom
            A, dA = self._reconstruction_tables(tgrid[lag[:, 0]], grid)
            val[:, live:] += A @ C
            dval[:, live:] += dA @ C
        norms = np.array([weighted_norm_from_samples(val[:, col], dval[:, col], grid)
                          for col in range(len(ts))])
        if not np.all(np.isfinite(norms)):
            raise NumericalError(f"linear_evolve: {np.count_nonzero(~np.isfinite(norms))} "
                                 f"of {len(norms)} sampled norms are not finite")
        fit = fit_rate(ts, norms, window=FIT_WINDOW) if np.max(norms) > 0 else None
        return {"t": tgrid, "u": u, "sample_t": ts, "norm_1inf": norms,
                "rate_fit": fit, "g": gv, "K": Kv, "grid": grid}

    def _reconstruction_tables(self, tau, yq):
        """Columns of the reconstruction kernel at lags ``tau`` on points ``yq``:
        A[:, l] = e^{-tau_l/p} A xi_p(Y_{tau_l}(yq)) and dA[:, l] = p Y h'(Y)/(p + Y)
        at the same foot points Y."""
        Ys = backward_state(tau[None, :], yq[:, None], self.p)
        A = self.model.equilibrium_A(Ys) * np.exp(-tau / self.p)[None, :]
        dA = self.p * Ys * self.model.source.eval(Ys, 1) / (self.p + Ys)
        return A, dA

    # -- delay forms ----------------------------------------------------------------

    def _M_values(self, t):
        src, p, base = self.model.source, self.p, self.BA_xi_p(self.nodes)
        return -self._pair_along(t, lambda Y: base + (
            self.nodes * src.eval(Y, 1) + p * src.eval(Y, 0) / (p + Y)
            - self.model._tail(Y)), discount=False) / self.denom

    def _corr_c_values(self, t):
        """c(t) with m(t,s) = -K'(t-s) + e^{-(t-s)/p} c(t)."""
        src, p = self.model.source, self.p
        return self._pair_along(t, lambda Y: src.eval(Y, 1) - src.eval(Y, 0) / (p + Y)
                                + self.model._tail(Y) / p, discount=False) / self.denom

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

        Kp_at, c_at = _on_grid(t, Kp), _on_grid(t, c)

        def m(ti, s):
            lag = ti - np.asarray(s, dtype=float)
            return -Kp_at(lag) + np.exp(-lag / self.p) * c_at(ti)

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
        Kp_at = _on_grid(t, Kp)
        return LinearDDEProblem(
            a=_on_grid(t, Kv[0] + cumtrapz(Kp, dx=dt)),
            k=lambda ti, s: -Kp_at(ti - np.asarray(s, dtype=float)),
            f=_on_grid(t, f), I0=I0_tilde)

    def _pair_h_forcing(self, t):
        """<dI(xi_p), e^{-Bt} h> for the delay forcing."""
        return self._pair_along(t, lambda Y: self.model.source.eval(Y, 0))


def h3_contour(p: float, omega: float, n: int) -> np.ndarray:
    """``condition_H3``'s rectangle boundary, about n points, clockwise from the top left."""
    a = -1.0 / (CONTOUR_Q * p)
    re_max = CONTOUR_RE_MAX
    per_side = max(n // 4, 8)
    top = np.linspace(a + 1j * omega, re_max + 1j * omega, per_side,
                      endpoint=False)
    right = np.linspace(re_max + 1j * omega, re_max - 1j * omega, per_side,
                        endpoint=False)
    bottom = np.linspace(re_max - 1j * omega, a - 1j * omega, per_side,
                         endpoint=False)
    left = np.linspace(a - 1j * omega, a + 1j * omega, per_side,
                       endpoint=False)
    return np.concatenate([top, right, bottom, left])


def _on_grid(t: np.ndarray, values: np.ndarray):
    """A function of time that reads a table on the grid ``t``."""
    return lambda s: _read_table(t, values, s)


def _read_table(t: np.ndarray, values: np.ndarray, s):
    """Linear interpolation of ``values`` on ``t`` at ``s``.

    A point past either end of the grid by more than rounding raises
    DomainError: ``np.interp`` would return the end value without a word.
    """
    slack = TABLE_SLACK * (t[-1] - t[0])
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < t[0] - slack) or np.any(s_arr > t[-1] + slack):
        raise DomainError(f"table on [{t[0]:g}, {t[-1]:g}] read at "
                          f"[{np.min(s_arr):g}, {np.max(s_arr):g}]")
    return np.interp(s, t, values)
