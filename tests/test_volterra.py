import tracemalloc

import numpy as np
import pytest
from dense_volterra import dense_operator, dense_resolvent, dense_triangle_scans
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from nltransport import volterra
from nltransport.config import OPTIONS
from nltransport.errors import DomainError, NumericalError
from nltransport.volterra import (BLOCK, LinearDDEProblem, VolterraProblem,
                                  gripenberg_check, linear_dde_solve,
                                  reconstruct, resolvent, resolvent_row_l1,
                                  solve, uniform_grid)


def conv_problem(kernel, forcing, T, dt):
    """The convolution problem of K = kernel(t) and g = forcing(t) on
    uniform_grid(T, dt)."""
    t = uniform_grid(T, dt)
    return VolterraProblem(kernel=kernel(t), forcing=forcing(t), dt=dt)


def general_problem(kernel, forcing, T, dt):
    """The general problem of K(t, s) = kernel(t, s) and g = forcing(t) on
    uniform_grid(T, dt), its kernel read by node index."""
    t = uniform_grid(T, dt)
    return VolterraProblem(kernel=lambda i, j: kernel(t[i], t[j]), forcing=forcing(t),
                           dt=dt)


def delay_problem(a, k, f, I0, T, dt):
    """The delay problem of a(t), k(t, s) and f(t) on uniform_grid(T, dt)."""
    t = uniform_grid(T, dt)
    return LinearDDEProblem(a=a(t), k=lambda i, j: k(t[i], t[j]), f=f(t), I0=I0, dt=dt)


@pytest.fixture(scope="module")
def exp_problem():
    # u + int e^{-(t-s)} u ds = 1 reduces to u' = 1 - 2u, u(0) = 1,
    # so u = (1 + e^{-2t})/2 and the resolvent is e^{-2t}
    return conv_problem(lambda t: np.exp(-t), np.ones_like, T=10.0, dt=1e-3)


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
    prob = conv_problem(lambda t: np.exp(-t), g, T=5.0, dt=1e-3)
    _, u = solve(prob)
    assert np.max(np.abs(reconstruct(prob) - u)) < 1e-8


def test_resolvent_and_reconstruction_need_convolution_kernels():
    prob = general_problem(lambda t, s: np.exp(-(t - s)), np.ones_like, T=1.0, dt=0.1)
    with pytest.raises(DomainError, match="convolution kernels"):
        resolvent(prob)
    with pytest.raises(DomainError, match="convolution kernels"):
        reconstruct(prob)


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=0.1, max_value=2.0))
def test_zero_kernel_returns_forcing(a, b):
    prob = conv_problem(np.zeros_like, lambda t: a * np.cos(b * t), T=3.0, dt=0.01)
    t, u = solve(prob)
    assert np.max(np.abs(u - a * np.cos(b * t))) < 1e-14
    _, r = resolvent(prob)
    assert np.max(np.abs(r)) == 0.0


def test_second_order_convergence():
    def err(dt):
        prob = conv_problem(lambda t: np.exp(-t), np.ones_like, T=5.0, dt=dt)
        t, u = solve(prob)
        return np.max(np.abs(u - 0.5 * (1.0 + np.exp(-2.0 * t))))

    ratio = err(0.02) / err(0.01)
    assert 3.2 <= ratio <= 4.8


def test_general_kernel_matches_convolution_path():
    conv = conv_problem(lambda t: 0.5 * np.exp(-t), np.cos, T=4.0, dt=0.005)
    gen = general_problem(lambda t, s: 0.5 * np.exp(-(t - s)), np.cos, T=4.0, dt=0.005)
    _, u1 = solve(conv)
    _, u2 = solve(gen)
    assert np.max(np.abs(u1 - u2)) < 1e-13


def test_singular_discrete_system_raises():
    prob = conv_problem(lambda t: np.full_like(t, -2.0 / 0.01), np.ones_like, T=0.1, dt=0.01)
    with pytest.raises(NumericalError):
        solve(prob)


def _tabulated_K_problem(lin, n, dt=0.02):
    # linear_evolve's problem: the exact kernel K and forcing g of a scaled
    # equilibrium, tabulated on the grid
    xp = lin.model.equilibrium_profile().scaled(1e-3)
    return conv_problem(lin.kernel_K, lambda t: lin.forcing_g(xp, t), T=n * dt, dt=dt)


@pytest.mark.parametrize("kernel", ["volterra-demo", "tabulated-K"])
@pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 1001])
def test_blocked_toeplitz_solve_matches_dense_operator(linearization, kernel, n):
    # the block forward substitution of a convolution kernel against
    # (I + L) u = g, (I + L) r = K and u = g - (I + L)^{-1} L g solved whole,
    # for n steps (n + 1 nodes) on either side of the block edges
    prob = _exp_conv(n * 1e-3, 1e-3) if kernel == "volterra-demo" \
        else _tabulated_K_problem(linearization, n)
    assert len(prob.grid) == n + 1
    g = prob.forcing
    L = dense_operator(prob)
    system = np.eye(n + 1) + L
    dense = {"solve": solve_triangular(system, g, lower=True),
             "resolvent": solve_triangular(system, prob.kernel, lower=True),
             "reconstruct": g - solve_triangular(system, L @ g, lower=True)}
    blocked = {"solve": solve(prob)[1], "resolvent": resolvent(prob)[1],
               "reconstruct": reconstruct(prob)}
    for name, ref in dense.items():
        assert np.max(np.abs(blocked[name] - ref)) <= 1e-12 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("n", [10, BLOCK + 5])
def test_zero_diagonal_raises_on_every_path(n):
    # 1 + dt K(0)/2 = 0: the convolution path inverts its diagonal block once,
    # the general path checks each row, and both refuse the system
    dt = 0.01
    conv = conv_problem(lambda t: np.full_like(t, -2.0 / dt), np.ones_like, T=n * dt, dt=dt)
    general = general_problem(lambda t, s: np.full_like(s, -2.0 / dt), np.ones_like,
                              T=n * dt, dt=dt)
    for run in (lambda: solve(conv), lambda: resolvent(conv),
                lambda: reconstruct(conv), lambda: solve(general)):
        with pytest.raises(NumericalError, match="singular"):
            run()


def _zero_kernel(i, j):
    return 0.0 * (i - j)


_ONES = np.ones(11)
# the samples fix the grid, so samples that do not fit one are refused
MALFORMED = {
    "kernel-length": lambda: VolterraProblem(kernel=np.ones(12), forcing=_ONES, dt=0.1),
    "2-D-forcing": lambda: VolterraProblem(kernel=_zero_kernel, forcing=np.ones((11, 2)),
                                           dt=0.1),
    "no-nodes": lambda: VolterraProblem(kernel=np.ones(0), forcing=np.ones(0), dt=0.1),
    "dt-zero": lambda: VolterraProblem(kernel=_ONES, forcing=_ONES, dt=0.0),
    "dt-negative": lambda: VolterraProblem(kernel=_zero_kernel, forcing=_ONES, dt=-0.1),
    "delay-dt-negative": lambda: LinearDDEProblem(a=_ONES, k=_zero_kernel, f=_ONES,
                                                  I0=1.0, dt=-0.1),
    "delay-lengths": lambda: LinearDDEProblem(a=_ONES, k=_zero_kernel, f=_ONES[1:],
                                              I0=1.0, dt=0.1),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_problems_refuse_malformed_samples(case):
    with pytest.raises(DomainError):
        MALFORMED[case]()


def test_resolvent_matrix_row_sums():
    small = _exp_conv(6.0, 0.01)
    t, rows = resolvent_row_l1(small)
    # rows approximate int_0^t |r| ds = (1 - e^{-2t})/2
    expect = 0.5 * (1.0 - np.exp(-2.0 * t))
    assert np.max(np.abs(rows - expect)) < 1e-3


def test_resolvent_matrix_node_cap():
    prob = _exp_conv(100.0, 0.001)
    with pytest.raises(NumericalError):
        resolvent_row_l1(prob)
    with pytest.raises(NumericalError):
        gripenberg_check(prob)


def _exp_conv(T, dt):
    return conv_problem(lambda t: np.exp(-t), np.ones_like, T=T, dt=dt)


# (problem, node count); the counts pin where the grid falls on the blocks
BLOCKED_CASES = {
    "convolution": (_exp_conv(6.0, 0.01), 601),
    "general": (general_problem(
        lambda t, s: (1.0 + np.sin(t)) * np.exp(-0.3 * (t - s)) / (1.0 + s),
        np.ones_like, T=13.0, dt=0.05), 261),
    "heavy-constant": (general_problem(
        lambda t, s: np.full_like(s, 0.4), np.ones_like, T=30.0, dt=0.05), 601),
    "whole-blocks": (_exp_conv(4 * BLOCK * 0.02 - 0.02, 0.02), 4 * BLOCK),
    "one-short-block": (_exp_conv(1.0, 0.05), 21),
    "two-nodes": (_exp_conv(0.1, 0.1), 2),
}


@pytest.mark.parametrize("case", BLOCKED_CASES)
def test_blocked_resolvent_rows_match_dense_solve(case):
    # the column-block forward substitution against (I + L)^{-1} L solved whole
    prob, n = BLOCKED_CASES[case]
    t, rows = resolvent_row_l1(prob)
    assert len(t) == n
    assert case != "one-short-block" or n < BLOCK
    assert case not in ("convolution", "general") or n % BLOCK != 0
    _, R = dense_resolvent(prob)
    dense = np.abs(R).sum(axis=1)
    assert np.all(np.abs(rows - dense) <= 1e-13 * np.abs(dense))


# (problem, T0 scan, the flag its kernel trips)
SCAN_CASES = {
    "negative": (general_problem(lambda t, s: np.cos(t - s) - 0.5, np.ones_like,
                                 T=15.0, dt=0.05),
                 (1.0, 2.0, 5.0, 10.0), "kernel takes negative values"),
    "increasing-column": (general_problem(
        lambda t, s: 0.2 * (1.0 + t) / (1.0 + s) ** 2, np.ones_like, T=12.0, dt=0.04),
        (1.0, 2.0), "t -> K(t,s) is not decreasing"),
    "heavy-tail": (conv_problem(
        lambda t: np.full_like(t, 0.4), np.ones_like, T=30.0, dt=0.05), (1.0, 2.0, 5.0),
        "sliding-tail kernel mass does not drop below 1"),
}


@pytest.mark.parametrize("case", SCAN_CASES)
def test_triangle_scans_match_dense_triangle(case):
    # the row-block scans read the same entries in the same order as scans of
    # the whole np.tril of the kernel matrix, so they agree exactly
    prob, T0_scan, flag = SCAN_CASES[case]
    n = len(prob.grid)
    assert n > BLOCK and n % BLOCK != 0
    kmin, col_incr, w_vals, tail = volterra._triangle_scans(prob, T0_scan)
    dmin, dcol_incr, dw_vals, dtail = dense_triangle_scans(prob, T0_scan)
    assert (kmin, col_incr, tail) == (dmin, dcol_incr, dtail)
    assert np.array_equal(w_vals, dw_vals)
    assert flag in gripenberg_check(prob, T0_scan)["hypothesis_flags"]


def test_gripenberg_memory_at_demo_size():
    # volterra-demo's default grid, n = 2001: no n x n array (32 MB) is formed
    opts = OPTIONS["volterra-demo"]
    prob = general_problem(lambda t, s: 0.5 * np.exp(-(t - s)), np.ones_like,
                           T=opts["gripenberg_T"].default, dt=opts["gripenberg_dt"].default)
    assert len(prob.grid) == 2001
    tracemalloc.start()
    try:
        gripenberg_check(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_gripenberg_exponential_kernel():
    prob = general_problem(lambda t, s: 0.5 * np.exp(-(t - s)), np.ones_like,
                           T=200.0, dt=0.1)
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
    prob = general_problem(lambda t, s: np.zeros_like(s), np.ones_like, T=20.0, dt=0.05)
    rep = gripenberg_check(prob)
    assert rep["sup_resolvent_l1"] == 0.0


def test_gripenberg_flags_heavy_constant_kernel():
    prob = general_problem(lambda t, s: np.full_like(s, 0.4), np.ones_like, T=30.0, dt=0.05)
    rep = gripenberg_check(prob, T0_scan=(1.0, 2.0, 5.0))
    assert "sliding-tail kernel mass does not drop below 1" in rep["hypothesis_flags"]


def test_integrable_solution_for_integrable_data():
    # decreasing integrable kernel and integrable forcing give an integrable
    # solution: the truncated L1 mass stabilizes over the last decade
    prob = conv_problem(lambda t: np.exp(-t), lambda t: np.exp(-0.5 * t), T=60.0, dt=0.01)
    t, u = solve(prob)
    mass = np.cumsum(np.abs(u)) * 0.01
    late = mass[t >= 54.0]
    assert (late.max() - late.min()) / mass[-1] < 0.01


# -- the linear delay equation -------------------------------------------------


def test_delay_scalar_ode_case():
    prob = delay_problem(lambda t: np.full_like(t, 0.1), lambda t, s: np.zeros_like(s),
                         np.zeros_like, I0=1.0, T=20.0, dt=0.005)
    out = linear_dde_solve(prob)
    assert np.max(np.abs(out["I"] - np.exp(-0.1 * out["t"]))) < 1e-6
    assert out["cross_check_residual"] < 1e-6


def test_delay_memory_kernel_converges():
    prob = delay_problem(np.zeros_like, lambda t, s: np.exp(-(t - s)), np.zeros_like,
                         I0=1.0, T=100.0, dt=0.02)
    out = linear_dde_solve(prob)
    assert out["tail_oscillation"] < 1e-4
    assert out["cross_check_residual"] < 1e-6


def test_delay_bounded_by_data():
    # |I| <= C1 |I0| + C2 ||f||_L1 across a scenario family
    rng = np.random.default_rng(8)
    ratios = []
    for _ in range(5):
        I0 = rng.uniform(-2.0, 2.0)
        amp = rng.uniform(0.0, 1.0)
        prob = delay_problem(lambda t: np.full_like(t, 0.05),
                             lambda t, s: 0.5 * np.exp(-(t - s)),
                             lambda t: amp * np.exp(-t), I0=I0, T=40.0, dt=0.02)
        out = linear_dde_solve(prob, cross_check=False)
        ratios.append(out["sup_abs_I"] / (abs(I0) + amp + 1e-12))
    assert max(ratios) < 3.0
    print(f"delay-bound constants: max ratio {max(ratios):.3f}")


def _varying_delay_problem(dt):
    # time-varying a and a non-convolution memory kernel on [0, 8]
    return delay_problem(lambda t: 0.1 + 0.05 * np.sin(t),
                         lambda t, s: 0.5 * np.exp(-(t - s)) / (1.0 + s),
                         lambda t: np.exp(-t), I0=1.0, T=8.0, dt=dt)


def test_delay_cross_check_work_count():
    # one k call per step of the march and one per row of the cross-check
    calls = [0]

    def k(t, s):
        calls[0] += 1
        return np.exp(-(t - s))

    n, dt = 400, 0.02
    prob = delay_problem(np.zeros_like, k, np.zeros_like, I0=1.0, T=n * dt, dt=dt)
    out = linear_dde_solve(prob)
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
    dt = 0.04
    prob = _varying_delay_problem(dt)
    linear_dde_solve(prob)
    (vp,) = captured
    assert callable(vp.kernel)
    n = len(vp.grid)
    assert n == 201
    for i in range(1, n):
        row = vp.kernel(i, np.arange(i + 1))
        brute = np.array([np.trapezoid(prob.k(i, np.arange(m + 1)), dx=dt)
                          for m in range(i + 1)]) + prob.a[i]
        assert np.max(np.abs(row - brute) / np.abs(brute)) <= 1e-14


def test_delay_cross_check_second_order():
    # the march and the Volterra solve are different trapezoid discretizations
    # of this problem; their gap must shrink at the measured O(dt^2) rate
    res = [linear_dde_solve(_varying_delay_problem(dt))["cross_check_residual"]
           for dt in (0.04, 0.02, 0.01, 0.005)]
    ratios = np.array(res[:-1]) / np.array(res[1:])
    print(f"cross-check residuals {res}, ratios {ratios}")
    assert np.all((ratios >= 3.5) & (ratios <= 4.5))
