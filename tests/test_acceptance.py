"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success; failures always show the line).
"""

import time

import numpy as np
import oracles
import pytest

from nltransport import (canonical_functional, constant_source,
                         log_source)
from nltransport.functionals import Profile
from nltransport.linstab import Linearization
from nltransport.model import Model
from nltransport.ratefit import fit_rate
from nltransport import control as cc
from nltransport import dde, pde
from nltransport.volterra import (LinearDDEProblem, VolterraProblem,
                                  gripenberg_check, linear_dde_solve,
                                  reconstruct, resolvent, solve, uniform_grid)

P = 2.0


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# -- 1: equilibrium identity ------------------------------------------------------


def test_criterion_01_equilibrium_identity():
    start = time.monotonic()
    src_c = constant_source(1.0)
    m_c = Model(src_c, canonical_functional(src_c), P)
    gap_c = m_c.equilibrium_identity_gap()
    src_l = log_source(1.0)
    m_l = Model(src_l, canonical_functional(src_l), P)
    gap_l = m_l.equilibrium_identity_gap()
    elapsed = time.monotonic() - start
    ok = gap_c <= 1e-10 and gap_l <= 1e-6 and elapsed < 1.0
    report(1, "equilibrium identity", ok,
           f"constant gap {gap_c:.2e} <= 1e-10, log gap {gap_l:.2e} <= 1e-6, "
           f"runtime {elapsed:.2f}s < 1s")


# -- 2: transport/delay equivalence -------------------------------------------------


def test_criterion_02_route_equivalence(equiv_runs):
    rel = float(np.max(np.abs(equiv_runs["pde"].I / equiv_runs["dde"].I - 1.0)))
    ok = rel < 1e-6 and equiv_runs["elapsed"] < 120.0
    report(2, "transport vs delay route", ok,
           f"max |I_pde/I_dde - 1| = {rel:.2e} < 1e-6 over [0,20] at dt=0.01, "
           f"runtime {equiv_runs['elapsed']:.0f}s < 120s")


# -- 3: logarithmic-derivative consistency ------------------------------------------


def test_criterion_03_consistency(equiv_runs, log_model, log_model_p3):
    resid_01 = pde.consistency_residual(equiv_runs["pde"])
    xi0 = log_model_p3.equilibrium_profile()
    runs = {}
    # the residual sits ~1000x below tolerance, close to the reconstruction
    # noise floor (~5e-8); the clean second-order regime is the halving that
    # reaches the pinned step, 0.02 -> 0.01
    for dt in (0.02, 0.01):
        traj = pde.run(log_model, xi0, T=8.0, dt=dt, stride=1, norms=False)
        runs[dt] = pde.consistency_residual(traj)
    ratio = runs[0.02] / runs[0.01]
    ok = resid_01 < 1e-3 and 3.0 <= ratio <= 5.3
    report(3, "d log I/dt = p rho - 1", ok,
           f"residual {resid_01:.2e} < 1e-3 at dt=0.01, halving ratio "
           f"{ratio:.2f} in [3.0, 5.3]")


# -- 4: kernel positivity and weighted monotonicity ----------------------------------


def test_criterion_04_kernel_certificate(kernel_certificate):
    ok = (len(kernel_certificate["t"]) == 400
          and kernel_certificate["K_min"] > 0.0
          and kernel_certificate["monotone_margin"] >= -1e-10)
    report(4, "kernel monotonicity certificate", ok,
           f"min K = {kernel_certificate['K_min']:.2e} > 0, weighted-decrease "
           f"margin {kernel_certificate['monotone_margin']:.2e} >= -1e-10 on "
           f"400 points over [0, 10p]")


# -- 5: Volterra closed forms ---------------------------------------------------------


def test_criterion_05_volterra_closed_forms():
    start = time.monotonic()
    grid = uniform_grid(10.0, 1e-3)
    prob = VolterraProblem(kernel=np.exp(-grid), forcing=np.ones_like(grid), dt=1e-3)
    t, u = solve(prob)
    err_u = float(np.max(np.abs(u - 0.5 * (1.0 + np.exp(-2.0 * t)))))
    _, r = resolvent(prob)
    err_r = float(np.max(np.abs(r - np.exp(-2.0 * t))))
    recon = float(np.max(np.abs(reconstruct(prob) - u)))
    elapsed = time.monotonic() - start
    ok = err_u < 1e-5 and err_r < 1e-5 and recon < 1e-8 and elapsed < 10.0
    report(5, "Volterra closed forms", ok,
           f"solution err {err_u:.2e} < 1e-5, resolvent err {err_r:.2e} < 1e-5, "
           f"reconstruction {recon:.2e} < 1e-8, runtime {elapsed:.1f}s < 10s")


# -- 6: linear decay rate and quadratic closeness -------------------------------------


@pytest.fixture(scope="module")
def weak_lin(weak_log_model):
    return Linearization(weak_log_model)


def test_criterion_06_linear_decay(weak_log_model, weak_lin):
    xp = weak_log_model.equilibrium_profile()
    out = weak_lin.linear_evolve(xp.scaled(1e-3), T=24.0, dt=0.01)
    rate = out["rate_fit"].rate
    lo, hi = 1.0 / (1.3 * P), 1.0 / (0.9 * P)

    grid = np.geomspace(1e-2, 1e3, 150)
    xpv, xpd = weak_log_model.equilibrium_pair(grid)
    amps = [1e-3, 2e-3, 4e-3]
    gaps = []
    for amp in amps:
        state = pde.LagrangianState(weak_log_model, xp.scaled(1.0 + amp))
        evo = weak_lin.linear_evolve(xp.scaled(amp), T=6.0, dt=0.01, n_samples=30)
        gap = 0.0
        for k in range(50, 601, 50):
            while state.n <= k:
                state.step(0.01)
            xi, dxi = state.refined_samples(k, grid)
            lv, ld = oracles.perturbation_at(weak_lin, xp.scaled(amp), evo["t"],
                                             evo["u"], k, grid)
            diff = np.abs(xi - xpv - lv) + grid * np.abs(dxi - xpd - ld)
            gap = max(gap, float(np.max(diff)))
        gaps.append(gap)
    slope = float(np.polyfit(np.log(amps), np.log(gaps), 1)[0])
    ok = lo <= rate <= hi and 1.8 <= slope <= 2.2
    report(6, "linear decay and quadratic gap", ok,
           f"rate {rate:.4f} in [{lo:.4f}, {hi:.4f}], amplitude-sweep slope "
           f"{slope:.2f} in [1.8, 2.2]")


# -- 7: global convergence ------------------------------------------------------------


def test_criterion_07_global_convergence(log_model):
    src = log_model.source
    results = []
    for p_prime in (1.0, 3.0, 4.0):
        other = Model(src, canonical_functional(src), p_prime)
        xi0 = other.equilibrium_profile()
        start = time.monotonic()
        traj = pde.run(log_model, xi0, T=60.0, dt=0.02, stride=25)
        elapsed = time.monotonic() - start
        d = traj.dist1inf
        sel = (d >= 3e-5) & (d <= d[0] / 3.0) & (traj.t > 0.5)
        fit = fit_rate(traj.t[sel], d[sel], window=1.0)
        tail = traj.I[traj.t >= 54.0]
        osc = float(np.max(tail) - np.min(tail))
        results.append((p_prime, fit.rate, osc, elapsed))
    ok = all(rate >= 1.0 / (1.2 * P) and osc < 1e-5 and elapsed < 300.0
             for _, rate, osc, elapsed in results)
    detail = "; ".join(f"p'={pp:g}: rate {r:.3f} >= {1/(1.2*P):.3f}, "
                       f"tail osc {o:.1e} < 1e-5, {e:.0f}s"
                       for pp, r, o, e in results)
    report(7, "global convergence", ok, detail)


# -- 8: constant-source planar reduction ----------------------------------------------


def test_criterion_08_constant_source_reduction(const_model):
    def pair(y):
        y = np.asarray(y, dtype=float)
        return 2.0 * (1.0 + 0.5 * np.exp(-y)), -np.exp(-y)

    xi0 = Profile(value=lambda y: pair(y)[0], deriv=lambda y: pair(y)[1],
                  second=lambda y: np.exp(-np.asarray(y, float)),
                  descriptor="bumped-constant", pair=pair)
    res = dde.const_h_ode(const_model, xi0, T=20.0, dt=0.01)
    t = res["t"]
    C1 = res["beta_envelope_C1"]
    bound = abs(res["J"][0]) * np.exp(-t / P) + C1 * t * np.exp(-t / P)
    envelope_ok = bool(np.all(np.abs(res["J"]) <= bound + 1e-9))
    traj = pde.run(const_model, xi0, T=20.0, dt=0.01, stride=10, norms=False)
    I_ode = np.interp(traj.t, res["t"], res["I"])
    rel = float(np.max(np.abs(I_ode / traj.I - 1.0)))
    ok = envelope_ok and rel < 1e-5
    report(8, "constant-source reduction", ok,
           f"|J| within envelope (C1 = {C1:.3f}): {envelope_ok}, "
           f"ODE-vs-transport rel diff {rel:.2e} < 1e-5")


# -- 9: control certificates ------------------------------------------------------------


def test_criterion_09_control_certificates(log_model):
    start = time.monotonic()
    src = log_model.source
    y, T, t0 = 1.0, 3.0, 0.0
    g1 = cc.PayoffG.from_source_unweighted(src, P, y)
    g2 = cc.PayoffG.from_source_weighted(src, P)

    # (a) constant-payoff degeneracies
    gconst = oracles.constant_payoff(2.0, P)
    parts_a = []
    for variant in cc.VARIANTS:
        prob = cc.ControlProblem(variant, gconst, P, y, T, t0)
        lo, hi = prob.reachable_bounds()
        x = 0.5 * (lo + hi) if np.isfinite(hi) else 1.7 * lo
        val, _ = cc.value(prob, x)
        exact = (2.0 * (T - t0) if not prob.weighted
                 else 2.0 * (np.exp(-(T - t0) / P) * x - y))
        parts_a.append(abs(val - exact))
    degeneracy = max(parts_a)

    # (b) sampled controls never beat the closed forms
    worst_margin = -np.inf
    for variant, g in (("max01", g1), ("min1inf", g1), ("max01w", g2),
                       ("min1infw", g2)):
        prob = cc.ControlProblem(variant, g, P, y, T, t0)
        cert = cc.verification_certificate(prob, n_samples=500, seed=11)
        worst_margin = max(worst_margin, cert["worst_margin"])

    # (c) refinement moves the oracle toward the closed form
    improved = 0
    scen = 0
    for variant, g, fracs in (("max01", g1, (0.3, 0.5, 0.7)),
                              ("min1inf", g1, (0.3, 0.8)),
                              ("max01w", g2, (0.3, 0.5, 0.7)),
                              ("min1infw", g2, (0.3, 0.8))):
        base = cc.ControlProblem(variant, g, P, y, T, t0)
        for frac in fracs:
            lo, hi = base.reachable_bounds()
            x = lo + frac * (hi - lo) if np.isfinite(hi) else lo * (1 + frac)
            x = float(x)
            vcl, _ = cc.value(base, x)
            g_coarse = oracles.brute_force(base, x, 64, 512, 9)["estimate"]
            g_fine = oracles.brute_force(base, x, 128, 1024, 9)["estimate"]
            gap_c = (vcl - g_coarse) if base.is_max else (g_coarse - vcl)
            gap_f = (vcl - g_fine) if base.is_max else (g_fine - vcl)
            scen += 1
            if gap_f < gap_c:
                improved += 1

    # (d) extremal-history certificates on both sides
    below = cc.extremal_history_certificate(src, P, 5.0, y, n_samples=200,
                                            seed=21, side="below")
    above = cc.extremal_history_certificate(src, P, 5.0, y, n_samples=200,
                                            seed=22, side="above")
    elapsed = time.monotonic() - start
    ok = (degeneracy < 1e-9 and worst_margin <= 1e-6
          and improved >= scen - 1
          and below["worst_margin"] <= 1e-8 and above["worst_margin"] <= 1e-8
          and elapsed < 180.0)
    report(9, "control certificates", ok,
           f"degeneracy {degeneracy:.1e} < 1e-9; sampled-control margin "
           f"{worst_margin:.2e} <= 1e-6; refinement improved {improved}/{scen}; "
           f"history margins {below['worst_margin']:.2e}/"
           f"{above['worst_margin']:.2e} <= 1e-8; runtime {elapsed:.0f}s < 180s")


# -- 10: gradient suite -------------------------------------------------------------------


def test_criterion_10_gradients(log_model):
    # functional gradient vs finite differences
    spec = log_model.functional
    base = log_model.equilibrium_profile()
    phi = lambda y: np.exp(-0.4 * y)
    eps = 1e-6
    bumped = Profile(value=lambda y: base(y) + eps * phi(y),
                     deriv=lambda y: base.d(y) - 0.4 * eps * phi(y))
    fd = (spec.value(bumped) - spec.value(base)) / eps
    pairing = spec.pair_gradient(base, phi)
    rel_dI = abs(fd - pairing) / abs(pairing)

    # history-functional gradient vs finite differences, 50 random pulls
    rng = np.random.default_rng(17)
    src = log_model.source
    worst_dF = 0.0
    for _ in range(50):
        t = rng.uniform(1.0, 4.0)
        yv = rng.uniform(0.5, 3.0)
        n = 4001
        s = np.linspace(0.0, t, n)
        ds = s[1] - s[0]
        v = 1.0 + rng.uniform(0.1, 0.4) * np.sin(rng.uniform(0.5, 2.0) * s)
        idx = rng.integers(int(0.1 * n), int(0.9 * n))
        tau = s[idx]
        dF = dde.dF_gradient(src, P, t, yv, s, v, tau)
        bump = np.zeros(n)
        bump[idx] = 1.0
        fd = (dde.F_of_path(src, P, t, yv, s, v + 1e-6 * bump)
              - dde.F_of_path(src, P, t, yv, s, v)) / (1e-6 * ds)
        worst_dF = max(worst_dF, abs(fd - dF) / max(abs(dF), 1e-10))

    # value functions increase in the state
    y, T, t0 = 1.0, 3.0, 0.0
    g1 = cc.PayoffG.from_source_unweighted(src, P, y)
    g2 = cc.PayoffG.from_source_weighted(src, P)
    min_slope = np.inf
    for variant, g in (("max01", g1), ("min1inf", g1), ("max01w", g2),
                       ("min1infw", g2)):
        prob = cc.ControlProblem(variant, g, P, y, T, t0)
        lo, hi = prob.reachable_bounds()
        for frac in (0.3, 0.6):
            x = lo + frac * (hi - lo) if np.isfinite(hi) else lo * (1 + frac)
            min_slope = min(min_slope, oracles.value_x_derivative(prob, x))

    # the discounted-min value patches C1 across its region boundary
    prob = cc.ControlProblem("min1infw", g2, P, y, T, t0)
    bound = cc.value_min1infw(prob, 2.0 * prob.x_p(t0))[1]["boundary_ratio_region"]
    eps_b = 1e-6 * bound
    d_lo = oracles.value_x_derivative(prob, bound - 3 * eps_b, rel_step=1e-7)
    d_hi = oracles.value_x_derivative(prob, bound + 3 * eps_b, rel_step=1e-7)
    patch = abs(d_hi - d_lo)

    ok = (rel_dI < 1e-5 and worst_dF < 1e-4 and min_slope >= -1e-8
          and patch < 1e-6)
    report(10, "gradient suite", ok,
           f"dI FD rel {rel_dI:.1e} < 1e-5; dF FD rel {worst_dF:.1e} < 1e-4; "
           f"min dvalue/dx {min_slope:.1e} >= 0; patch residual {patch:.1e} < 1e-6")


# -- 11: boundedness and delay demos ---------------------------------------------------


def test_criterion_11_volterra_delay_demos():
    tg = uniform_grid(200.0, 0.1)
    gp = VolterraProblem(kernel=lambda i, j: 0.5 * np.exp(-(tg[i] - tg[j])),
                         forcing=np.ones_like(tg), dt=0.1)
    rep = gripenberg_check(gp)
    stable = rep["resolvent_l1_late_relvar"] < 0.01

    td = uniform_grid(100.0, 0.02)
    demo = LinearDDEProblem(a=np.zeros_like(td), k=lambda i, j: np.exp(-(td[i] - td[j])),
                            f=np.zeros_like(td), I0=1.0, dt=0.02)
    sol = linear_dde_solve(demo)
    ok = stable and sol["tail_oscillation"] < 1e-4
    report(11, "boundedness and delay demos", ok,
           f"resolvent mass {rep['sup_resolvent_l1']:.4f} stable to "
           f"{rep['resolvent_l1_late_relvar']:.1e} < 1% over [100,200]; "
           f"delay tail oscillation {sol['tail_oscillation']:.1e} < 1e-4")
