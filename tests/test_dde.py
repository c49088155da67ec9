import numpy as np
import pytest

from nltransport import canonical_functional
from nltransport.errors import DomainError
from nltransport.functionals import Profile
from nltransport.model import Model
from nltransport import dde, pde


@pytest.fixture(scope="module")
def eq_history(log_model):
    hist = dde.IHistory(log_model, log_model.equilibrium_profile())
    for _ in range(60):
        hist.step(0.02)
    return hist


def test_equilibrium_history_constant(eq_history):
    assert np.max(np.abs(eq_history.I / eq_history.I[0] - 1.0)) < 1e-10


def test_v_and_z_flat_history(eq_history):
    # constant I: v = 1 and z equals the frozen characteristic
    p, t, y = 2.0, 1.0, 1.3
    s = 0.4
    v, z = dde.v_and_z(eq_history, p, t, s, y)
    assert abs(v - 1.0) < 1e-12
    y_p = np.exp((t - s) / p) * y + p * (np.exp((t - s) / p) - 1.0)
    assert abs(z - y_p) < 1e-7
    v_end, z_end = dde.v_and_z(eq_history, p, t, t, y)
    assert abs(v_end - 1.0) < 1e-14 and abs(z_end - y) < 1e-12


def test_v_and_z_relates_to_characteristic(log_model, log_model_p3):
    # z(s)/v(s) reproduces the transport characteristic of the matching run
    xi0 = log_model_p3.equilibrium_profile_interpolated()
    hist = dde.IHistory(log_model, xi0)
    state = pde.LagrangianState(log_model, xi0)
    for _ in range(50):
        hist.step(0.02)
        state.step(0.02)
    t, y = 1.0, 1.7
    for s in (0.0, 0.35, 0.8):
        v, z = dde.v_and_z(hist, 2.0, t, s, y)
        y_char = pde.characteristic(state.history(), t, y, s)
        # the two routes interpolate their histories differently (log I vs
        # rho piecewise linear), so agreement is O(dt^2)
        assert abs(z / v - y_char) < 5e-5


def test_F_flat_closed_form(log_model, eq_history):
    # F at the flat history collapses to h(y) - e^{-t/p} h(y_p(0))
    for y in (0.5, 1.0, 3.0):
        direct = dde.F_eval(log_model, eq_history, 1.0, y, n_points=20001)
        closed = float(dde.F_flat_closed(log_model.source, 2.0, 1.0, y))
        assert abs(direct - closed) < 1e-7


def test_F_zero_horizon(log_model, eq_history):
    assert abs(dde.F_eval(log_model, eq_history, 0.0, 1.0)) < 1e-14


def test_AA4_identity_against_pde(log_model, log_model_p3):
    # B xi from the transport route equals initial-data terms plus F
    xi0 = log_model_p3.equilibrium_profile_interpolated()
    hist = dde.IHistory(log_model, xi0)
    state = pde.LagrangianState(log_model, xi0)
    for _ in range(100):
        hist.step(0.01)
        state.step(0.01)
    t = 1.0
    p = 2.0
    for y in (1.0, 2.5):
        xi, dxi = state.xi_eval(np.array([y]), t)
        Bxi = xi[0] / p - (1.0 + y / p) * dxi[0]
        F = dde.F_eval(log_model, hist, t, y, n_points=40001)
        v0 = float(hist.v(t, 0.0))
        s_grid = np.linspace(0.0, t, 40001)
        from nltransport.quadrature import cumtrapz
        P = cumtrapz(np.exp(s_grid / p) * hist.v(t, s_grid), x=s_grid)
        z0 = np.exp(t / p) * y + P[-1]
        init = (v0 * xi0(z0 / v0) / p * np.exp(-t / p)
                - (1.0 + y / p) * xi0.d(z0 / v0))
        assert abs(Bxi - (init + F)) < 1e-7


def test_G_decays_exponentially(log_model, log_model_p3):
    xi0 = log_model_p3.equilibrium_profile_interpolated()
    hist = dde.IHistory(log_model, xi0)
    for _ in range(300):
        hist.step(0.02)
    vals = [abs(float(dde.G_eval(log_model, hist, t, 1.0))) for t in (2.0, 4.0, 6.0)]
    # bounded by C e^{-t/p} when the history stays near flat
    assert vals[1] <= np.exp(-1.0) * vals[0] * 3.0
    assert vals[2] <= np.exp(-2.0) * vals[0] * 3.0


def test_dF_gradient_matches_finite_differences(log_model):
    rng = np.random.default_rng(12)
    src = log_model.source
    p = 2.0
    n = 4001
    worst = 0.0
    for _ in range(50):
        t = rng.uniform(1.0, 4.0)
        y = rng.uniform(0.5, 3.0)
        s = np.linspace(0.0, t, n)
        ds = s[1] - s[0]
        a, b, c = rng.uniform(0.1, 0.4), rng.uniform(0.5, 2.0), rng.uniform(0.0, 3.0)
        v = 1.0 + a * np.sin(b * s + c)
        tau = rng.uniform(0.15 * t, 0.85 * t)
        tau = s[int(round(tau / ds))]
        dF = dde.dF_gradient(src, p, t, y, s, v, tau)
        eps = 1e-6
        bump = np.zeros(n)
        bump[int(round(tau / ds))] = 1.0
        fd = (dde.F_of_path(src, p, t, y, s, v + eps * bump)
              - dde.F_of_path(src, p, t, y, s, v)) / (eps * ds)
        worst = max(worst, abs(fd - dF) / max(abs(dF), 1e-10))
    assert worst < 1e-4


def test_dF_nonnegative_at_flat_history(log_model):
    src = log_model.source
    p, t, y = 2.0, 3.0, 1.2
    n = 3001
    s = np.linspace(0.0, t, n)
    v = np.ones(n)
    taus = np.linspace(0.1, t - 0.1, 25)
    vals = [dde.dF_gradient(src, p, t, y, s, v, float(tau)) for tau in taus]
    assert min(vals) >= -1e-10


def test_dF_flat_equals_delay_coefficient(log_model, linearization):
    # after integration by parts the flat-history gradient is the delay kernel
    src = log_model.source
    p, t, y = 2.0, 2.0, 1.4
    s = np.linspace(0.0, t, 8001)
    v = np.ones_like(s)
    lin = linearization
    for tau in (0.5, 1.0, 1.7):
        dF = dde.dF_gradient(src, p, t, y, s, v, tau)
        # pointwise delay coefficient before pairing: e^{-B(t-tau)} B^2 A xi_p (y)
        # minus the foot-point correction
        Y = lin.shift(t - tau, np.array([y]))[0]
        term1 = np.exp(-(t - tau) / p) * lin.B2A_xi_p(np.array([Y]))[0]
        y_p0 = np.exp(t / p) * y + p * np.expm1(t / p)
        corr = (src.eval(y_p0, 1) - src.eval(y_p0, 0) / (p + y_p0)
                + log_model._tail(np.array([y_p0]))[0] / p)
        expect = term1 - np.exp(-(t - tau) / p) * corr
        assert abs(dF - expect) < 1e-8


def test_constant_h_dF_drops_derivative_terms(const_model):
    src = const_model.source
    p, t, y = 2.0, 2.0, 1.0
    s = np.linspace(0.0, t, 2001)
    v = np.ones_like(s)
    dF = dde.dF_gradient(src, p, t, y, s, v, 0.9)
    # only the (1/p) h e^{-(t-tau)/p} term survives
    assert abs(dF - 0.5 * np.exp(-(t - 0.9) / p)) < 1e-12


def test_equilibrium_run_I_constant(log_model):
    traj, fg = dde.run(log_model, log_model.equilibrium_profile(), T=20.0,
                       dt=0.05, stride=20, norms=False)
    assert np.max(np.abs(traj.I / traj.I[0] - 1.0)) < 1e-8
    # the sup/inf ratio monitor rides on the norm samples, so it is skipped too
    assert np.isnan(traj.monitors["sup_inf_ratio_max"])


def test_pde_dde_equivalence(equiv_runs):
    rel = np.max(np.abs(equiv_runs["pde"].I / equiv_runs["dde"].I - 1.0))
    assert rel < 1e-6
    assert np.max(np.abs(equiv_runs["pde"].rho - equiv_runs["dde"].rho)) < 1e-9


def test_fg_identity(equiv_runs):
    fg = equiv_runs["fg"]
    rho = equiv_runs["dde"].rho
    # -f + g is exactly rho - 1/p on the committed grid
    assert np.max(np.abs((-fg["f"] + fg["g"]) - (rho - 0.5))) < 1e-11


def test_dlogI_integrable(equiv_runs):
    traj = equiv_runs["dde"]
    assert np.isfinite(traj.monitors["dlogI_l1"])
    # the tail contributes a vanishing share: the integral has stabilized
    state = traj.monitors["state"]
    d = np.abs(state.dlogI)
    dt = state.t[1] - state.t[0]
    head = np.sum(d[:len(d) // 2]) * dt
    tail = np.sum(d[len(d) // 2:]) * dt
    assert tail < 0.01 * head


def test_small_amplitude_decay_rate(log_model):
    # near-equilibrium data decays at least at the guaranteed rate 1/(1.2 p)
    xi0 = log_model.equilibrium_profile_interpolated().scaled(1.003)
    traj, fg = dde.run(log_model, xi0, T=16.0, dt=0.02, stride=4, norms=False)
    d = np.abs(fg["dlogIdt"])
    sel = d > 1e-14
    from nltransport.ratefit import fit_rate
    fit = fit_rate(fg["t"][sel], d[sel], window=0.6)
    assert fit.rate >= 1.0 / (1.2 * 2.0)


def test_global_convergence_far_from_equilibrium(log_model):
    # initial data at half the equilibrium parameter: I settles, limit positive
    src = log_model.source
    m_half = Model(src, canonical_functional(src), 1.0)
    traj, _ = dde.run(log_model, m_half.equilibrium_profile_interpolated(),
                      T=60.0, dt=0.02, stride=25, norms=False)
    tail = traj.I[traj.t >= 54.0]
    assert np.max(tail) - np.min(tail) < 1e-5
    assert traj.I[-1] > 0.0


# -- constant-source planar reduction ----------------------------------------


def test_const_h_equilibrium_closed_forms(const_model):
    res = dde.const_h_ode(const_model, const_model.equilibrium_profile(),
                          T=8.0, dt=0.01)
    t = res["t"]
    assert np.max(np.abs(res["I1"] - 1.0)) < 1e-10
    assert np.max(np.abs(res["I2"] - (1.0 - np.exp(-t / 2.0)))) < 1e-10
    assert np.max(np.abs(res["J"] - np.exp(-t / 2.0))) < 1e-10


def test_const_h_beta_envelope(const_model):
    xi0 = _bumped_constant_profile(0.5)
    res = dde.const_h_ode(const_model, xi0, T=12.0, dt=0.01)
    t = res["t"]
    assert np.min(res["beta"]) >= -1e-12
    C1 = res["beta_envelope_C1"]
    bound = abs(res["J"][0]) * np.exp(-t / 2.0) + C1 * t * np.exp(-t / 2.0)
    assert np.all(np.abs(res["J"]) <= bound + 1e-9)


def test_const_h_I2_equation_residual(const_model):
    xi0 = _bumped_constant_profile(0.5)
    res = dde.const_h_ode(const_model, xi0, T=6.0, dt=0.005)
    t, I1, I2 = res["t"], res["I1"], res["I2"]
    dI2 = (I2[2:] - I2[:-2]) / (2.0 * (t[1] - t[0]))
    resid = np.max(np.abs(dI2 - (I1[1:-1] - I2[1:-1]) / 2.0))
    assert resid < 1e-6


def test_const_h_matches_pde_route(const_model):
    xi0 = _bumped_constant_profile(0.5)
    res = dde.const_h_ode(const_model, xi0, T=12.0, dt=0.01)
    traj = pde.run(const_model, xi0, T=12.0, dt=0.01, stride=10, norms=False)
    I_ode = np.interp(traj.t, res["t"], res["I"])
    assert np.max(np.abs(I_ode / traj.I - 1.0)) < 1e-5


def test_const_h_requires_constant_source(log_model):
    with pytest.raises(DomainError):
        dde.const_h_ode(log_model, log_model.equilibrium_profile(), 1.0, 0.01)


def _bumped_constant_profile(amp):
    # 2 (1 + amp e^{-y}): C^2, decreasing, admissible for the constant model
    def pair(y):
        y = np.asarray(y, dtype=float)
        return 2.0 * (1.0 + amp * np.exp(-y)), -2.0 * amp * np.exp(-y)

    return Profile(value=lambda y: pair(y)[0], deriv=lambda y: pair(y)[1],
                   second=lambda y: 2.0 * amp * np.exp(-np.asarray(y, float)),
                   descriptor="bumped-constant", pair=pair)
