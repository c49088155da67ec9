import tracemalloc

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_reconstruct import reconstruct_profile_reference

from nltransport import canonical_functional, constant_source, inv_square_p_source
from nltransport.errors import DomainError, StepError
from nltransport.functionals import DEFAULT_NORM_GRID, Profile
from nltransport.model import Model
from nltransport import dde, pde


def make_history(rho_const, T=4.0, n=401):
    t = np.linspace(0.0, T, n)
    rho = np.full(n, rho_const)
    return oracles.RhoHistory(t=t, rho=rho, R=rho_const * t)


def test_characteristic_constant_rho():
    # rho = 1/p: y(s) = e^{(t-s)/p} y + p (e^{(t-s)/p} - 1); at t-s = 2 log 2: 4
    hist = make_history(0.5)
    val = oracles.characteristic(hist, t=2.0 * np.log(2.0), y=1.0, s=0.0)
    assert abs(val - 4.0) < 2e-5


def test_characteristic_zero_rho_drift():
    hist = make_history(0.0)
    assert abs(oracles.characteristic(hist, 3.0, 1.0, 1.0) - 3.0) < 1e-12


def test_characteristic_endpoint_identity():
    hist = make_history(0.5)
    assert abs(oracles.characteristic(hist, 2.0, 1.5, 2.0) - 1.5) < 1e-14


def test_characteristic_rejects_reversed_times():
    hist = make_history(0.5)
    with pytest.raises(DomainError):
        oracles.characteristic(hist, 1.0, 1.0, 2.0)


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.1, max_value=1.0),
       st.floats(min_value=0.2, max_value=3.0),
       st.floats(min_value=0.1, max_value=2.0))
def test_characteristic_random_constant_rho(rho0, y, gap):
    hist = make_history(rho0, T=4.0, n=2001)
    e = np.exp(rho0 * gap)
    expect = e * y + (e - 1.0) / rho0
    got = oracles.characteristic(hist, t=gap, y=y, s=0.0)
    assert abs(got - expect) < 5e-6 * max(1.0, expect)


def test_pure_accumulation():
    # zero initial data, constant source, rho pinned at zero: xi(y,t) = t
    src = constant_source(1.0)
    model = Model(src, canonical_functional(src), 2.0)
    state = pde.LagrangianState(model, Profile.constant(0.0))
    # pin rho = 0 by hand and evaluate the reconstruction
    n = 41
    state._grow()
    while len(state._t) < n:
        state._grow()
    state._t[:n] = np.linspace(0.0, 2.0, n)
    state._rho[:n] = 0.0
    state._R[:n] = 0.0
    state._E[:n] = 1.0
    state._C[:n] = state._t[:n]
    state.n = n
    xi, dxi = state.refined_samples(n - 1, np.array([0.7, 2.0, 11.0]))
    assert np.max(np.abs(xi - 2.0)) < 1e-12
    assert np.max(np.abs(dxi)) < 1e-12


def test_equilibrium_is_fixed_point(log_model):
    state = pde.LagrangianState(log_model, log_model.equilibrium_profile())
    for _ in range(100):
        state.step(0.02)
    assert np.max(np.abs(state.rho_values - 0.5)) < 1e-9


def test_equilibrium_profile_stays_put(log_model):
    # equilibrium initial data keeps the profile within 1e-6 out to 10 p
    traj = pde.run(log_model, log_model.equilibrium_profile(), T=20.0, dt=0.05,
                   stride=40)
    assert np.max(traj.dist1inf) < 1e-6
    assert np.max(np.abs(traj.I / traj.I[0] - 1.0)) < 1e-9


def test_decreasing_data_stays_decreasing(log_model, log_model_p3):
    state = pde.LagrangianState(log_model,
                                log_model_p3.equilibrium_profile())
    for _ in range(60):
        state.step(0.02)
    grid = np.geomspace(1e-3, 1e4, 200)
    xi, dxi = state.refined_samples(state.n - 1, grid)
    assert np.min(xi) >= 0.0
    assert np.max(dxi) <= 1e-12


def test_rho_stays_nonnegative_constant_source(const_model):
    xi0 = const_model.equilibrium_profile().scaled(1.4)
    traj = pde.run(const_model, xi0, T=6.0, dt=0.02, stride=10, norms=False)
    assert np.min(traj.rho) >= 0.0


def test_wrong_equilibrium_relaxes(log_model, log_model_p3):
    traj = pde.run(log_model, log_model_p3.equilibrium_profile(),
                   T=12.0, dt=0.02, stride=20)
    # monotone decay after the first unit of time
    mask = traj.t >= 1.0
    d = traj.dist1inf[mask]
    assert np.all(np.diff(d) <= 1e-9)
    # fitted rate over the informative window beats 1/q for q = 1.2 p
    from nltransport.ratefit import fit_rate
    sel = (traj.dist1inf > 1e-5) & (traj.t >= 1.0)
    fit = fit_rate(traj.t[sel], traj.dist1inf[sel], window=1.0)
    assert fit.rate >= 1.0 / (1.2 * 2.0)
    # I trapped between the lower bound and the zero-profile bound
    assert traj.monitors["I_max"] <= traj.monitors["I_zero_profile"] + 1e-12
    assert traj.monitors["I_min"] > 0.0


def test_step_order_of_accuracy(log_model, log_model_p3):
    # halving dt scales the step-to-step rho change at fixed t by ~ 4
    xi0 = log_model_p3.equilibrium_profile()
    t_probe = 1.0
    rho_at = {}
    for dt in (0.04, 0.02, 0.01):
        traj = pde.run(log_model, xi0, T=t_probe, dt=dt, stride=1, norms=False)
        rho_at[dt] = traj.rho[-1]
    e1 = abs(rho_at[0.04] - rho_at[0.01])
    e2 = abs(rho_at[0.02] - rho_at[0.01])
    # Richardson: differences against the finest run scale like dt^2 - dt_f^2
    ratio = e1 / e2
    assert 3.0 < ratio < 7.0


def test_consistency_residual_equilibrium(log_model):
    traj = pde.run(log_model, log_model.equilibrium_profile(), T=2.0, dt=0.02,
                   stride=1, norms=False)
    assert pde.consistency_residual(traj) < 1e-8


def test_consistency_residual_needs_uniform_sampling(log_model):
    # the residual reads the committed steps; a state stepped by hand at a
    # second dt has no uniform spacing for its centered differences
    traj = pde.run(log_model, log_model.equilibrium_profile(), T=0.1, dt=0.02,
                   stride=1, norms=False)
    traj.monitors["state"].step(0.01)
    with pytest.raises(DomainError):
        pde.consistency_residual(traj)


def test_consistency_residual_needs_three_samples(log_model):
    traj = pde.run(log_model, log_model.equilibrium_profile(), T=0.02, dt=0.02,
                   stride=1, norms=False)
    with pytest.raises(DomainError):
        pde.consistency_residual(traj)


def test_cumulative_rho_bound(equiv_runs):
    assert pde.cumulative_rho_bound_gap(equiv_runs["pde"]) >= -1e-6


def test_positivity_all_runs(equiv_runs):
    state = equiv_runs["pde"].monitors["state"]
    grid = np.geomspace(1e-3, 1e4, 100)
    for k in (0, state.n // 2, state.n - 1):
        xi, _ = state.refined_samples(k, grid)
        assert np.min(xi) >= 0.0


# -- the step's fixed point and its cost -------------------------------------------


def _wrong_equilibrium_state(log_model, log_model_p3):
    return pde.LagrangianState(log_model,
                               log_model_p3.equilibrium_profile())


def test_secant_step_work_count(log_model, monkeypatch):
    # the transport scenario: from the p' = 2.634 equilibrium, 600 steps of
    # 0.01.  Started at rho_{k-1} with a first fixed-point step, every step took
    # 3 evaluations; from the linear predictor with the carried secant slope
    # both routes take at most 2.2 on average
    calls = []
    rho_from_samples = Model.rho_from_samples

    def counted(self, xi, dxi):
        calls[-1] += 1
        return rho_from_samples(self, xi, dxi)

    src = log_model.source
    xi0 = Model(src, canonical_functional(src), 2.634).equilibrium_profile()
    for state_class in (pde.LagrangianState, dde.IHistory):
        state = state_class(log_model, xi0)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Model, "rho_from_samples", counted)
            for _ in range(600):
                calls.append(0)
                state.step(0.01)
        assert np.array_equal(state._evals[1:state.n], calls)
        assert np.mean(calls) <= 2.2 and max(calls) <= 3, state_class
        assert np.max(state._resid[1:state.n]) < pde.DEFAULT_TOL


def test_steps_reuse_the_cached_panel_rule(log_model, log_model_p3, monkeypatch):
    state = _wrong_equilibrium_state(log_model, log_model_p3)
    state.step(0.01)

    def refuse(n):
        raise AssertionError("Gauss-Legendre rule rebuilt during stepping")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    for _ in range(20):
        state.step(0.01)
    assert state.n == 22


def _picard_rho(model, xi0, dts):
    """rho at the nodes of a run with steps ``dts``, by plain fixed-point iteration."""
    tol = pde.DEFAULT_TOL
    nodes = model.functional.nodes
    t, rho, R = [0.0], [model.rho(xi0).rho], [0.0]
    for dt in dts:
        t.append(t[-1] + dt)
        guess = rho[-1]
        for _ in range(pde.MAX_FIXED_POINT_ITERS):
            R_nodes = np.array(R + [R[-1] + 0.5 * dt * (rho[-1] + guess)])
            xi, dxi = pde.reconstruct_profile(
                model.source, xi0, np.array(t), R_nodes, nodes, model.p,
                C_nodes=oracles.exp_cumulative(np.array(t), R_nodes),
                workspace=pde.Workspace())
            new = model.rho_from_samples(xi, dxi).rho
            if abs(new - guess) < tol:
                break
            guess = new
        rho.append(new)
        R.append(R[-1] + 0.5 * dt * (rho[-2] + new))
    return np.array(rho)


def test_secant_matches_picard_iteration(log_model, log_model_p3):
    xi0 = log_model_p3.equilibrium_profile()
    state = pde.LagrangianState(log_model, xi0)
    for _ in range(100):
        state.step(0.01)
    rho = _picard_rho(log_model, xi0, [0.01] * 100)
    assert np.max(np.abs(state.rho_values - rho)) < 1e-13


def test_step_converges_when_dt_changes(log_model, log_model_p3):
    # the predictor scales the last rho increment by dt/(t_{k-1} - t_{k-2}), so
    # a run whose dt doubles keeps its cost and its fixed points
    xi0 = log_model_p3.equilibrium_profile()
    dts = [0.01] * 50 + [0.02] * 50
    state = pde.LagrangianState(log_model, xi0)
    for dt in dts:
        state.step(dt)
    assert abs(state.t[-1] - 1.5) < 1e-12
    assert np.max(np.abs(state.rho_values - _picard_rho(log_model, xi0, dts))) < 1e-13
    assert np.max(state._evals[1:state.n]) <= 3


def test_step_error_reports_iterations(log_model, log_model_p3):
    state = _wrong_equilibrium_state(log_model, log_model_p3)
    with pytest.raises(StepError) as err:
        state.step(0.01, tol=0.0)
    assert err.value.iterations == pde.MAX_FIXED_POINT_ITERS
    assert np.isfinite(err.value.residual)
    assert f"{pde.MAX_FIXED_POINT_ITERS} iterations" in str(err.value)


def test_step_error_after_the_first_step(log_model, log_model_p3):
    # from the second step on the loop starts at the predictor and takes the
    # carried secant slope; with tol = 0 it still stops after the cap
    state = _wrong_equilibrium_state(log_model, log_model_p3)
    for _ in range(5):
        state.step(0.01)
    assert state.secant_slope is not None
    with pytest.raises(StepError) as err:
        state.step(0.01, tol=0.0)
    assert err.value.iterations == pde.MAX_FIXED_POINT_ITERS
    assert np.isfinite(err.value.residual)


# -- the reconstruction's workspace and fused source pass ------------------------------


def _smooth_history(n=601, dt=0.01):
    """Nodes of a smooth rho history with R and C as a stepping state carries them."""
    t = dt * np.arange(n)
    rho = 0.5 + 0.2 * np.sin(3.0 * t) * np.exp(-t / 4.0)
    R = np.concatenate([[0.0], np.cumsum(0.5 * dt * (rho[1:] + rho[:-1]))])
    return t, R, oracles.exp_cumulative(t, R)


@pytest.mark.parametrize("source", ["log", "inv_square_p"])
@pytest.mark.parametrize("k", [1, 2, 150, 600])
def test_reconstruction_matches_dense_reference(log_model, log_model_p3, source, k):
    # the fused pass reorders roundings only: the feet, and E_s folded into the
    # weights; one workspace serves 256, 602 and again 256 query points, so a
    # stale or mis-shaped slice would show
    src = log_model.source if source == "log" else inv_square_p_source(1.0, 2.0)
    xi0 = log_model_p3.equilibrium_profile()
    t, R, C = _smooth_history()
    t, R, C = t[:k + 1], R[:k + 1], C[:k + 1]
    nodes = log_model.functional.nodes
    norm_query = np.concatenate([DEFAULT_NORM_GRID, [1.0, 1e6]])
    work = pde.Workspace()
    for yq in (nodes, norm_query, nodes):
        ref = reconstruct_profile_reference(src, xi0, t, R, yq, 2.0, need_second=True)
        for workspace in (pde.Workspace(), work):
            got = pde.reconstruct_profile(src, xi0, t, R, yq, 2.0, need_second=True,
                                          C_nodes=C, workspace=workspace)
            for name, g, r in zip(("xi", "dxi", "d2"), got, ref):
                assert g.shape == r.shape
                assert np.all(np.abs(g - r) <= 1e-14 * np.abs(r)), name
            first = pde.reconstruct_profile(src, xi0, t, R, yq, 2.0, C_nodes=C,
                                            workspace=workspace)
            assert all(np.array_equal(a, b) for a, b in zip(first, got))


@pytest.mark.parametrize("state_class", [pde.LagrangianState, dde.IHistory])
def test_step_allocates_no_profile_sized_array(log_model, log_model_p3, state_class):
    # after warm-up the reconstructions of a step reuse the state's
    # workspace, so the step's traced peak stays below one 256 x N_tau
    # float64 array
    dt = 0.02
    state = state_class(log_model, log_model_p3.equilibrium_profile())
    for _ in range(300):
        state.step(dt)
    nodes = log_model.functional.nodes
    edges = pde._tau_panel_edges(state.t[-1] + dt, float(np.min(nodes)), dt, log_model.p)
    n_tau = pde.TAU_PANEL_NODES * (len(edges) - 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state.step(dt)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert abs(state.t[-1] - 6.02) < 1e-9
    assert peak < len(nodes) * n_tau * 8, (peak, n_tau)


@pytest.mark.parametrize("state_class", [pde.LagrangianState, dde.IHistory])
def test_step_calls_reconstruct_profile_as_traced(log_model, log_model_p3,
                                                  state_class, monkeypatch):
    # bench/tracing.py wraps the module attribute pde.reconstruct_profile and
    # reads t_nodes, yq and p at positions 2, 4 and 5 for its tau-node count,
    # which assumes pde.TAU_PANEL_NODES (12) nodes per panel
    state = state_class(log_model, log_model_p3.equilibrium_profile())
    for _ in range(40):
        state.step(0.01)
    calls = []
    original = pde.reconstruct_profile

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(pde, "reconstruct_profile", recorded)
    state.step(0.01)
    # the predictor and the carried slope's Newton step land within tol
    assert len(calls) == 2 and pde.TAU_PANEL_NODES == 12
    for args, kwargs in calls:
        assert len(args) == 6
        assert np.array_equal(args[2], state.t)
        assert np.array_equal(args[4], log_model.functional.nodes)
        assert args[5] == log_model.p
        assert kwargs["workspace"] is state.workspace
