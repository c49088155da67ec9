import numpy as np
import oracles
import pytest

from nltransport import canonical_functional
from nltransport.errors import DomainError, StepError
from nltransport.functionals import Profile
from nltransport.model import Model, backward_state
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
    v, z = oracles.v_and_z(eq_history, p, t, s, y)
    assert abs(v - 1.0) < 1e-12
    y_p = np.exp((t - s) / p) * y + p * (np.exp((t - s) / p) - 1.0)
    assert abs(z - y_p) < 1e-7
    v_end, z_end = oracles.v_and_z(eq_history, p, t, t, y)
    assert abs(v_end - 1.0) < 1e-14 and abs(z_end - y) < 1e-12


def test_v_and_z_relates_to_characteristic(log_model, log_model_p3):
    # z(s)/v(s) reproduces the transport characteristic of the matching run
    xi0 = log_model_p3.equilibrium_profile()
    hist = dde.IHistory(log_model, xi0)
    state = pde.LagrangianState(log_model, xi0)
    for _ in range(50):
        hist.step(0.02)
        state.step(0.02)
    t, y = 1.0, 1.7
    for s in (0.0, 0.35, 0.8):
        v, z = oracles.v_and_z(hist, 2.0, t, s, y)
        y_char = oracles.characteristic(oracles.rho_history(state), t, y, s)
        # the two routes interpolate their histories differently (log I vs
        # rho piecewise linear), so agreement is O(dt^2)
        assert abs(z / v - y_char) < 5e-5


def test_F_flat_closed_form(log_model, eq_history):
    # F at the flat history collapses to h(y) - e^{-t/p} h(y_p(0))
    for y in (0.5, 1.0, 3.0):
        direct = oracles.F_eval(log_model, eq_history, 1.0, y, n_points=20001)
        closed = float(oracles.F_flat_closed(log_model.source, 2.0, 1.0, y))
        assert abs(direct - closed) < 1e-7


def test_F_zero_horizon(log_model, eq_history):
    assert abs(oracles.F_eval(log_model, eq_history, 0.0, 1.0)) < 1e-14


def test_AA4_identity_against_pde(log_model, log_model_p3):
    # B xi from the transport route equals initial-data terms plus F
    xi0 = log_model_p3.equilibrium_profile()
    hist = dde.IHistory(log_model, xi0)
    state = pde.LagrangianState(log_model, xi0)
    for _ in range(100):
        hist.step(0.01)
        state.step(0.01)
    t = 1.0
    p = 2.0
    for y in (1.0, 2.5):
        xi, dxi = state.refined_samples(state.node_index(t), np.array([y]))
        Bxi = xi[0] / p - (1.0 + y / p) * dxi[0]
        F = oracles.F_eval(log_model, hist, t, y, n_points=40001)
        v0 = float(oracles.history_ratio(hist, t, 0.0))
        s_grid = np.linspace(0.0, t, 40001)
        from nltransport.quadrature import cumtrapz
        P = cumtrapz(np.exp(s_grid / p) * oracles.history_ratio(hist, t, s_grid),
                     x=s_grid)
        z0 = np.exp(t / p) * y + P[-1]
        init = (v0 * xi0(z0 / v0) / p * np.exp(-t / p)
                - (1.0 + y / p) * xi0.d(z0 / v0))
        assert abs(Bxi - (init + F)) < 1e-7


@pytest.mark.parametrize("route", [pde.LagrangianState, dde.IHistory],
                         ids=["pde", "dde"])
def test_carried_cumulative_matches_batch(log_model, log_model_p3, route):
    state = route(log_model, log_model_p3.equilibrium_profile())
    for _ in range(200):
        state.step(0.01)
    carried = state._C[:state.n]
    batch = oracles.exp_cumulative(state.t, state._R[:state.n])
    assert np.max(np.abs(carried - batch) / np.maximum(batch, 1e-300)) <= 1e-15


@pytest.mark.parametrize("route", [pde.LagrangianState, dde.IHistory],
                         ids=["pde", "dde"])
def test_off_node_times_are_rejected(log_model, log_model_p3, route):
    state = route(log_model, log_model_p3.equilibrium_profile())
    assert state.node_index(0.0) == 0
    with pytest.raises(DomainError):
        state.node_index(0.01)
    for _ in range(10):
        state.step(0.02)
    assert [state.node_index(t) for t in (0.0, 0.1, 0.2)] == [0, 5, 10]
    at_node = state.refined_samples(state.node_index(0.2), np.array([1.3]))
    latest = state.refined_samples(state.n - 1, np.array([1.3]))
    assert all(np.array_equal(a, b) for a, b in zip(at_node, latest))
    for t in (0.05, 0.19, 0.22, -0.02):
        with pytest.raises(DomainError):
            state.node_index(t)
        if route is dde.IHistory:
            with pytest.raises(DomainError):
                oracles.F_eval(log_model, state, t, 1.3)


@pytest.mark.parametrize("module", [pde, dde], ids=["pde", "dde"])
def test_strided_rows_equal_stride_one_rows(log_model, log_model_p3, module):
    # every row, f and g included, depends only on its committed node
    xi0 = log_model_p3.equilibrium_profile()
    runs = {}
    for stride in (1, 5):
        out = module.run(log_model, xi0, T=0.42, dt=0.02, stride=stride)
        runs[stride] = out if module is dde else (out, {})
    (traj1, fg1), (traj5, fg5) = runs[1], runs[5]
    idx = [0, 5, 10, 15, 20, 21]
    for col in ("t", "rho", "I", "dist1inf", "norm2inf", "denomL1"):
        assert np.array_equal(getattr(traj5, col), getattr(traj1, col)[idx])
    for key in ("t", "I", "dlogIdt", "f", "g") if module is dde else ():
        assert np.array_equal(fg5[key], fg1[key][idx])


def test_step_error_reports_iterations(log_model, log_model_p3):
    hist = dde.IHistory(log_model, log_model_p3.equilibrium_profile())
    with pytest.raises(StepError) as err:
        hist.step(0.01, tol=0.0)
    assert err.value.iterations == pde.MAX_FIXED_POINT_ITERS
    assert np.isfinite(err.value.residual)
    assert f"{pde.MAX_FIXED_POINT_ITERS} iterations" in str(err.value)


def test_G_decays_exponentially(log_model, log_model_p3):
    xi0 = log_model_p3.equilibrium_profile()
    hist = dde.IHistory(log_model, xi0)
    for _ in range(300):
        hist.step(0.02)
    vals = [abs(float(oracles.G_eval(log_model, hist, t, 1.0))) for t in (2.0, 4.0, 6.0)]
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
        Y = backward_state(t - tau, np.array([y]), p)[0]
        term1 = np.exp(-(t - tau) / p) * oracles.B2A_xi_p(lin, np.array([Y]))[0]
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
    # one fixed-point loop for both routes: their per-step rho differs only by
    # how R is summed
    assert np.max(np.abs(equiv_runs["pde"].rho - equiv_runs["dde"].rho)) <= 1e-13


def test_delay_route_I_is_its_log_I(equiv_runs):
    # I is exp(log I), not the functional's value, and log I is the trapezoid
    # of d log I/dt = p rho - 1; crit 02 compares this I with the transport's
    traj = equiv_runs["dde"]
    state = traj.monitors["state"]
    logI, dlogI = state._logI[:state.n], state.dlogI
    assert np.array_equal(traj.I, np.exp(logI))
    assert np.array_equal(dlogI, state.model.p * traj.rho - 1.0)
    dt = state.t[1] - state.t[0]
    steps = 0.5 * dt * (dlogI[1:] + dlogI[:-1])
    assert np.max(np.abs(np.diff(logI) - steps)) <= 1e-15 * np.max(np.abs(logI))


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
    xi0 = log_model.equilibrium_profile().scaled(1.003)
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
    traj, _ = dde.run(log_model, m_half.equilibrium_profile(),
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
