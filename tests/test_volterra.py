import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nltransport import volterra
from nltransport.errors import NumericalError
from nltransport.volterra import (LinearDDEProblem, VolterraProblem,
                                  gripenberg_check, linear_dde_solve,
                                  reconstruct, resolvent, resolvent_matrix,
                                  solve)


@pytest.fixture(scope="module")
def exp_problem():
    # u + int e^{-(t-s)} u ds = 1 reduces to u' = 1 - 2u, u(0) = 1,
    # so u = (1 + e^{-2t})/2 and the resolvent is e^{-2t}
    return VolterraProblem(kernel=lambda tau: np.exp(-np.maximum(tau, 0.0)),
                           forcing=lambda t: np.ones_like(t),
                           T=10.0, dt=1e-3, convolution=True)


def test_exponential_kernel_closed_form(exp_problem):
    t, u = solve(exp_problem)
    assert np.max(np.abs(u - 0.5 * (1.0 + np.exp(-2.0 * t)))) < 1e-5


def test_resolvent_closed_form(exp_problem):
    # e^{-2t} + int e^{-(t-s)} e^{-2s} ds = e^{-2t} + e^{-t}(1 - e^{-t}) = e^{-t}
    t, r = resolvent(exp_problem)
    assert np.max(np.abs(r - np.exp(-2.0 * t))) < 1e-5


def test_reconstruction_identity(exp_problem):
    t, u = solve(exp_problem)
    assert np.max(np.abs(reconstruct(exp_problem) - u)) < 1e-8


def test_reconstruction_identity_random_forcing():
    rng = np.random.default_rng(4)
    c = rng.uniform(-0.5, 0.5, 3)
    g = lambda t: 1.0 + c[0] * np.sin(t) + c[1] * np.exp(-0.3 * t) + c[2] * t / 10.0
    prob = VolterraProblem(kernel=lambda tau: np.exp(-np.maximum(tau, 0.0)),
                           forcing=g, T=5.0, dt=1e-3, convolution=True)
    _, u = solve(prob)
    assert np.max(np.abs(reconstruct(prob) - u)) < 1e-8


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=0.1, max_value=2.0))
def test_zero_kernel_returns_forcing(a, b):
    prob = VolterraProblem(kernel=lambda tau: np.zeros_like(tau),
                           forcing=lambda t: a * np.cos(b * t),
                           T=3.0, dt=0.01, convolution=True)
    t, u = solve(prob)
    assert np.max(np.abs(u - a * np.cos(b * t))) < 1e-14
    _, r = resolvent(prob)
    assert np.max(np.abs(r)) == 0.0


def test_second_order_convergence():
    def err(dt):
        prob = VolterraProblem(kernel=lambda tau: np.exp(-np.maximum(tau, 0.0)),
                               forcing=lambda t: np.ones_like(t),
                               T=5.0, dt=dt, convolution=True)
        t, u = solve(prob)
        return np.max(np.abs(u - 0.5 * (1.0 + np.exp(-2.0 * t))))

    ratio = err(0.02) / err(0.01)
    assert 3.2 <= ratio <= 4.8


def test_general_kernel_matches_convolution_path():
    conv = VolterraProblem(kernel=lambda tau: 0.5 * np.exp(-np.maximum(tau, 0.0)),
                           forcing=lambda t: np.cos(t), T=4.0, dt=0.005,
                           convolution=True)
    gen = VolterraProblem(kernel=lambda t, s: 0.5 * np.exp(-(t - np.asarray(s, float))),
                          forcing=lambda t: np.cos(t), T=4.0, dt=0.005)
    _, u1 = solve(conv)
    _, u2 = solve(gen)
    assert np.max(np.abs(u1 - u2)) < 1e-13


def test_singular_discrete_system_raises():
    prob = VolterraProblem(kernel=lambda tau: np.full_like(tau, -2.0 / 0.01),
                           forcing=lambda t: np.ones_like(t), T=0.1, dt=0.01,
                           convolution=True)
    with pytest.raises(NumericalError):
        solve(prob)


def test_resolvent_matrix_row_sums(exp_problem):
    small = VolterraProblem(kernel=exp_problem.kernel, forcing=exp_problem.forcing,
                            T=6.0, dt=0.01, convolution=True)
    t, R = resolvent_matrix(small)
    # rows approximate int_0^t |r| ds = (1 - e^{-2t})/2
    rows = np.abs(R).sum(axis=1)
    expect = 0.5 * (1.0 - np.exp(-2.0 * t))
    assert np.max(np.abs(rows - expect)) < 1e-3


def test_resolvent_matrix_node_cap():
    prob = VolterraProblem(kernel=lambda tau: np.exp(-tau),
                           forcing=lambda t: np.ones_like(t),
                           T=100.0, dt=0.001, convolution=True)
    with pytest.raises(NumericalError):
        resolvent_matrix(prob)


def test_gripenberg_exponential_kernel():
    prob = VolterraProblem(kernel=lambda t, s: 0.5 * np.exp(-(t - np.asarray(s, float))),
                           forcing=lambda t: np.ones_like(t), T=200.0, dt=0.1)
    rep = gripenberg_check(prob)
    assert rep["hypothesis_flags"] == []
    # w(t) = 0.5 (1 - e^{-t}) converges to 1/2
    assert abs(rep["w_late"] - 0.5) < 1e-2
    # sliding-tail masses vanish with the window
    tails = rep["tail_mass"]
    assert tails[10.0] < tails[1.0] < 1.0
    # resolvent metric 1/3, stable over the trailing half within 1%
    assert abs(rep["sup_resolvent_l1"] - 1.0 / 3.0) < 5e-3
    assert rep["resolvent_l1_late_relvar"] < 0.01


def test_gripenberg_zero_kernel():
    prob = VolterraProblem(kernel=lambda t, s: np.zeros_like(np.asarray(s, float)),
                           forcing=lambda t: np.ones_like(t), T=20.0, dt=0.05)
    rep = gripenberg_check(prob)
    assert rep["sup_resolvent_l1"] == 0.0


def test_gripenberg_flags_heavy_constant_kernel():
    prob = VolterraProblem(kernel=lambda t, s: np.full_like(np.asarray(s, float), 0.4),
                           forcing=lambda t: np.ones_like(t), T=30.0, dt=0.05)
    rep = gripenberg_check(prob, T0_scan=(1.0, 2.0, 5.0))
    assert "sliding-tail kernel mass does not drop below 1" in rep["hypothesis_flags"]


def test_integrable_solution_for_integrable_data():
    # decreasing integrable kernel and integrable forcing give an integrable
    # solution: the truncated L1 mass stabilizes over the last decade
    prob = VolterraProblem(kernel=lambda tau: np.exp(-np.maximum(tau, 0.0)),
                           forcing=lambda t: np.exp(-0.5 * t),
                           T=60.0, dt=0.01, convolution=True)
    t, u = solve(prob)
    mass = np.cumsum(np.abs(u)) * 0.01
    late = mass[t >= 54.0]
    assert (late.max() - late.min()) / mass[-1] < 0.01


# -- the linear delay equation -------------------------------------------------


def test_delay_scalar_ode_case():
    prob = LinearDDEProblem(a=lambda t: 0.1 * np.ones_like(np.asarray(t, float)),
                            k=lambda t, s: np.zeros_like(np.asarray(s, float)),
                            f=lambda t: np.zeros_like(np.asarray(t, float)), I0=1.0)
    out = linear_dde_solve(prob, T=20.0, dt=0.005, hypothesis_report=False)
    assert np.max(np.abs(out["I"] - np.exp(-0.1 * out["t"]))) < 1e-6
    assert out["cross_check_residual"] < 1e-6


def test_delay_memory_kernel_converges():
    prob = LinearDDEProblem(a=lambda t: np.zeros_like(np.asarray(t, float)),
                            k=lambda t, s: np.exp(-(t - np.asarray(s, float))),
                            f=lambda t: np.zeros_like(np.asarray(t, float)), I0=1.0)
    out = linear_dde_solve(prob, T=100.0, dt=0.02, hypothesis_report=True)
    assert out["tail_oscillation"] < 1e-4
    assert out["cross_check_residual"] < 1e-6
    # memory mass hypothesis holds: sup_s int_s^inf e^{-(t-s)} dt = 1
    assert abs(out["memory_mass_sup"] - 1.0) < 1e-2


def test_delay_bounded_by_data():
    # |I| <= C1 |I0| + C2 ||f||_L1 across a scenario family
    rng = np.random.default_rng(8)
    ratios = []
    for _ in range(5):
        I0 = rng.uniform(-2.0, 2.0)
        amp = rng.uniform(0.0, 1.0)
        prob = LinearDDEProblem(
            a=lambda t: 0.05 * np.ones_like(np.asarray(t, float)),
            k=lambda t, s: 0.5 * np.exp(-(t - np.asarray(s, float))),
            f=lambda t, amp=amp: amp * np.exp(-np.asarray(t, float)), I0=I0)
        out = linear_dde_solve(prob, T=40.0, dt=0.02, cross_check=False,
                               hypothesis_report=False)
        ratios.append(out["sup_abs_I"] / (abs(I0) + amp + 1e-12))
    assert max(ratios) < 3.0
    print(f"delay-bound constants: max ratio {max(ratios):.3f}")


def _varying_delay_problem():
    # time-varying a and a non-convolution memory kernel
    return LinearDDEProblem(
        a=lambda t: 0.1 + 0.05 * np.sin(t),
        k=lambda t, s: 0.5 * np.exp(-(t - np.asarray(s, float))) / (1.0 + np.asarray(s, float)),
        f=lambda t: np.exp(-np.asarray(t, float)), I0=1.0)


def test_delay_cross_check_work_count():
    # one k call per step of the march and one per row of the cross-check
    calls = [0]

    def k(t, s):
        calls[0] += 1
        return np.exp(-(t - np.asarray(s, float)))

    n, dt = 400, 0.02
    prob = LinearDDEProblem(a=lambda t: np.zeros_like(np.asarray(t, float)), k=k,
                            f=lambda t: np.zeros_like(np.asarray(t, float)), I0=1.0)
    out = linear_dde_solve(prob, T=n * dt, dt=dt, hypothesis_report=False)
    assert out["cross_check_residual"] < 1e-12
    assert calls[0] <= 3 * n + 10


def test_delay_cross_check_rows_match_brute_force(monkeypatch):
    # the equivalent kernel a(t_i) + int_0^{s_j} k(t_i, s') ds', one trapezoid
    # per s_j, against the rows the cross-check hands the general Volterra solve
    captured = []
    real_solve = volterra.solve

    def spy(vp):
        captured.append(vp)
        return real_solve(vp)

    monkeypatch.setattr(volterra, "solve", spy)
    prob = _varying_delay_problem()
    dt = 0.04
    linear_dde_solve(prob, T=8.0, dt=dt, hypothesis_report=False)
    (vp,) = captured
    assert not vp.convolution
    t = vp.grid
    assert len(t) == 201
    for i in range(1, len(t)):
        row = vp.kernel(t[i], t[:i + 1])
        brute = np.array([np.trapezoid(prob.k(t[i], t[:m + 1]), dx=dt)
                          for m in range(i + 1)]) + prob.a(t[i])
        assert np.max(np.abs(row - brute) / np.abs(brute)) <= 1e-14


def test_delay_cross_check_second_order():
    # the march and the Volterra solve are different trapezoid discretizations
    # of this problem; their gap must shrink at the measured O(dt^2) rate
    prob = _varying_delay_problem()
    res = [linear_dde_solve(prob, T=8.0, dt=dt, hypothesis_report=False)
           ["cross_check_residual"] for dt in (0.04, 0.02, 0.01, 0.005)]
    ratios = np.array(res[:-1]) / np.array(res[1:])
    print(f"cross-check residuals {res}, ratios {ratios}")
    assert np.all((ratios >= 3.5) & (ratios <= 4.5))
