import ast
import pathlib

import numpy as np
import pytest

from nltransport import canonical_functional, linstab, quadrature, sources
from nltransport.errors import DomainError
from nltransport.functionals import Profile, weighted_norm_from_samples
from nltransport.linstab import Linearization
from oracles import perturbation_at, perturbation_deltas, semigroup
from nltransport.model import Model, backward_state
from nltransport import pde
from nltransport.ratefit import fit_rate
from nltransport.volterra import linear_dde_solve


@pytest.fixture(scope="module")
def const_lin(const_model):
    return Linearization(const_model)


def test_semigroup_constant_profile():
    prof = Profile.constant(3.0)
    assert abs(semigroup(prof, 2.0, 1.0, 0.7) - 3.0 * np.exp(-0.5)) < 1e-14


def test_semigroup_identity_at_zero():
    prof = Profile(value=lambda y: np.sin(y) + 2.0, deriv=lambda y: np.cos(y))
    assert abs(semigroup(prof, 2.0, 0.0, 1.3) - prof(1.3)) < 1e-14


def test_semigroup_composition():
    prof = Profile(value=lambda y: np.exp(-0.7 * y), deriv=lambda y: -0.7 * np.exp(-0.7 * y))
    rng = np.random.default_rng(2)
    for _ in range(10):
        y, t1, t2 = rng.uniform(0.2, 3.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
        inner = Profile(value=lambda u: semigroup(prof, 2.0, t2, u),
                        deriv=lambda u: 0.0 * u)
        lhs = semigroup(inner, 2.0, t1, y)
        rhs = semigroup(prof, 2.0, t1 + t2, y)
        assert abs(lhs - rhs) < 1e-12


def test_log_kernel_builds_without_tail_quadrature():
    # J comes from the closed form: outside quadrature.py no module of the
    # package names the mapped tail quadrature, so the model, the equilibrium
    # and the exact kernel K cannot reach it
    tail_names = {"tail_integral_refined", "tail_integral_values"}
    package = pathlib.Path(quadrature.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            assert name not in tail_names, f"{path.name}:{node.lineno} names {name}"
    src = sources.log_source()
    model = Model(src, canonical_functional(src), 2.0)
    K = Linearization(model).kernel_K(np.linspace(0.0, 20.0, 400))
    assert np.all(np.isfinite(K)) and np.all(K > 0.0)


def test_kernel_constant_source_closed_form(const_lin):
    # B A xi_p is the constant h_inf, so K(t) = K(0) e^{-t/p} with K(0) = 1/4
    t = np.linspace(0.0, 8.0, 33)
    K = const_lin.kernel_K(t)
    assert abs(K[0] - 0.25) < 1e-12
    assert np.max(np.abs(K - 0.25 * np.exp(-t / 2.0))) < 1e-12


def test_kernel_positive_and_weighted_monotone(kernel_certificate):
    assert kernel_certificate["K_min"] > 0.0
    assert kernel_certificate["monotone_margin"] >= -1e-10


def test_kernel_prime_matches_difference_quotient(linearization):
    t = np.array([0.3, 1.5, 5.0])
    h = 1e-5
    fd = (linearization.kernel_K(t + h) - linearization.kernel_K(t - h)) / (2 * h)
    assert np.max(np.abs(fd - linearization.kernel_K_prime(t))) < 1e-9


def test_laplace_constant_source_analytic(const_lin):
    z = np.array([0.5, 1.0 + 2.0j, -0.2 + 5.0j, -0.4])
    vals, tail = const_lin.laplace_khat(z)
    # the certified truncation tail covers the worst (leftmost) sample
    assert np.max(np.abs(vals - 0.25 / (z + 0.5))) <= tail + 1e-10
    # no zero of 1 + K_hat right of -1/p: the only root sits at -1/p - K(0)
    root = -0.5 - 0.25
    assert root < -0.5


def test_laplace_positive_on_reals(linearization):
    vals, _ = linearization.laplace_khat(np.array([0.1, 1.0, 3.0]))
    assert np.all(vals.real > 0.0)
    assert np.max(np.abs(vals.imag)) < 1e-12


def test_condition_h3_log_source(linearization):
    rep = linearization.condition_H3()
    assert rep["status"] == "conclusive"
    assert rep["winding_number"] == 0
    assert rep["min_abs_one_plus_khat"] > 0.5


def _khat_node_by_node(lin, z, n_panels):
    # the same rule summed node by node: n_panels uniform panels on
    # [0, 40 p] with 16 Gauss nodes each, K evaluated at every node
    h = linstab.LAPLACE_HORIZON * lin.p / n_panels
    u, w = quadrature.unit_gauss_nodes(16)
    nodes = (h * np.arange(n_panels)[:, None] + h * u[None, :]).ravel()
    wK = np.tile(h * w, n_panels) * lin.kernel_K(nodes)
    out = np.empty(len(z), dtype=complex)
    for lo in range(0, len(z), 200):
        out[lo:lo + 200] = np.exp(-np.outer(z[lo:lo + 200], nodes)) @ wK
    return out


@pytest.fixture(scope="module")
def log_lin_p3(log_model_p3):
    return Linearization(log_model_p3)


@pytest.mark.parametrize("lin_name", ["linearization", "log_lin_p3", "const_lin"])
def test_laplace_factored_matches_node_by_node(lin_name, request):
    lin = request.getfixturevalue(lin_name)
    z = linstab.h3_contour(lin.p, 50.0, linstab.CONTOUR_N0)
    vals, _ = lin.laplace_khat(z)
    n_panels = lin._laplace_rule(50.0)[2].shape[0]
    assert np.max(np.abs(vals - _khat_node_by_node(lin, z, n_panels))) < 1e-13


@pytest.mark.parametrize("p", [0.5, 2.0, 5.0])
def test_laplace_horner_matches_direct_panel_sum(p):
    # Horner's rule in q = e^{-z h} against sum_k e^{-z k h} G_k with every
    # e^{-z k h} formed directly, on the H3 contour; its left edge, Re z =
    # -1/(1.2 p), has |q| > 1.  Each point's gap is measured against the sum
    # of its terms' moduli, the scale of the sum's rounding.
    src = sources.log_source()
    lin = Linearization(Model(src, canonical_functional(src), p))
    z = linstab.h3_contour(p, 50.0, 400)
    vals, _ = lin.laplace_khat(z)
    starts, offsets, WK = lin._laplace_rule(50.0)
    terms = (np.exp(np.outer(z, -offsets)) @ WK.T) * np.exp(np.outer(z, -starts))
    left = z.real == z.real.min()
    assert np.max(np.abs(np.exp(-z[left] * starts[1]))) > 1.0
    scale = np.abs(terms).sum(axis=1)
    assert np.max(np.abs(vals - terms.sum(axis=1)) / scale) < 1e-13


def test_laplace_exponential_count(linearization, monkeypatch):
    # one exponential per point and panel node, one per point for q = e^{-z h}
    # and three scalars for the tail bound K(T_L) e^{-sigma T_L}; the
    # node-by-node sum takes one per point and node (34 M here)
    starts, offsets, _ = linearization._laplace_rule(50.0)
    z = linstab.h3_contour(linearization.p, 50.0, linstab.CONTOUR_N0)
    count = [0]
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        out = exp(x, *args, **kwargs)
        count[0] += np.size(out)
        return out

    monkeypatch.setattr(np, "exp", counting_exp)
    linearization.laplace_khat(z)
    n_z = len(z)
    assert count[0] <= n_z * (len(offsets) + 1) + 3


def test_condition_h3_reports_rule_size(linearization):
    rep = linearization.condition_H3()
    assert rep["n_contour_points"] == 4000
    # 534 panels of width 0.15 on [0, 80], 16 nodes each
    assert rep["n_laplace_nodes"] == 534 * 16


def test_linear_decay_weak_coupling(weak_log_model):
    lin = Linearization(weak_log_model)
    xp = weak_log_model.equilibrium_profile()
    out = lin.linear_evolve(xp.scaled(1e-3), T=24.0, dt=0.01)
    rate = out["rate_fit"].rate
    assert 1.0 / (1.3 * 2.0) <= rate <= 1.0 / (0.9 * 2.0)
    assert out["rate_fit"].r_squared > 0.999


def test_linear_decay_canonical_exceeds_lower_edge(linearization, log_model):
    # the canonical coupling cancels the slow mode entirely, so the decay is
    # faster than 1/p; the lower edge still certifies the stability claim
    xp = log_model.equilibrium_profile()
    out = linearization.linear_evolve(xp.scaled(1e-3), T=20.0, dt=0.01)
    assert out["rate_fit"].rate >= 1.0 / (1.3 * 2.0)
    print(f"canonical linear decay rate: {out['rate_fit'].rate:.4f}")


def test_zero_perturbation_stays_zero(linearization):
    zero = Profile.constant(0.0)
    out = linearization.linear_evolve(zero, T=5.0, dt=0.02, n_samples=20)
    assert np.max(np.abs(out["u"])) < 1e-14
    assert np.max(out["norm_1inf"]) < 1e-14
    assert out["rate_fit"] is None


def test_weighted_u_bounded(linearization, log_model):
    xp = log_model.equilibrium_profile()
    out = linearization.linear_evolve(xp.scaled(1e-3), T=20.0, dt=0.01)
    w = np.abs(out["u"]) * np.exp(out["t"] / (1.2 * 2.0))
    # the weighted curve attains its maximum early, not at the right end
    assert np.argmax(w) < 0.75 * len(w)


def test_linear_matches_nonlinear_I(linearization, log_model):
    # linearized functional value tracks the full run at small amplitude
    amp = 1e-3
    xp = log_model.equilibrium_profile()
    pert = xp.scaled(amp)
    xi0 = _sum_profile(xp, pert)
    traj = pde.run(log_model, xi0, T=10.0, dt=0.01, stride=10, norms=False)
    out = linearization.linear_evolve(pert, T=10.0, dt=0.01)
    spec = log_model.functional
    grid = spec.nodes
    I_lin = []
    A_tab = None
    for t_probe in traj.t[::10]:
        idx = int(round(t_probe / 0.01))
        val, dval = perturbation_at(linearization, pert, out["t"], out["u"], idx, grid)
        I_lin.append(spec.value_from_samples(log_model.xi_p_nodes + val))
    I_ref = traj.I[::10]
    rel = np.max(np.abs(np.asarray(I_lin) / I_ref - 1.0))
    assert rel < 1e-4


def test_perturbation_at_reproduces_linear_evolve_norms(linearization, log_model):
    # perturbation_at and linear_evolve share one reconstruction
    pert = log_model.equilibrium_profile().scaled(1e-3)
    out = linearization.linear_evolve(pert, T=6.0, dt=0.02, n_samples=20)
    grid = out["grid"]
    for row, ts in enumerate(out["sample_t"]):
        idx = int(round(ts / 0.02))
        val, dval = perturbation_at(linearization, pert, out["t"], out["u"], idx, grid)
        norm = weighted_norm_from_samples(val, dval, grid)
        assert abs(norm - out["norm_1inf"][row]) <= 1e-13 * out["norm_1inf"][row]


def test_perturbation_reads_initial_profile_once(log_model, monkeypatch):
    # xi0_tilde's value and derivative come from one pair_eval, so the
    # equilibrium's tail J is formed once per sample; the result has the bits
    # of the separate value and derivative reads
    lin = Linearization(log_model)
    pert = log_model.equilibrium_profile().scaled(1e-3)
    tgrid = np.linspace(0.0, 2.0, 101)
    u = np.random.default_rng(3).normal(size=len(tgrid))
    yq = linstab.NORM_GRID
    tabs = lin._reconstruction_tables(tgrid, yq)
    tails = [0]
    tail = log_model._tail

    def counting_tail(y):
        tails[0] += 1
        return tail(y)

    monkeypatch.setattr(log_model, "_tail", counting_tail)
    for idx in (0, 1, 57, 100):
        tails[0] = 0
        val, dval = lin._perturbation_from_tab(pert, tgrid, u, idx, yq, *tabs)
        assert tails[0] == 1
        Y0 = backward_state(tgrid[idx], yq, lin.p)
        expect_val = np.exp(-tgrid[idx] / lin.p) * pert(Y0)
        expect_dval = pert.d(Y0)
        if idx > 0:
            coeff = quadrature.trapz_weights(idx + 1, tgrid[1]) * u[idx::-1] / lin.denom
            expect_val = expect_val + tabs[0][:, :idx + 1] @ coeff
            expect_dval = expect_dval + tabs[1][:, :idx + 1] @ coeff
        assert np.array_equal(val, expect_val) and np.array_equal(dval, expect_dval)


def test_nonlinear_gap_scales_quadratically(weak_log_model):
    # distance between the full flow and the linearized flow is O(amplitude^2)
    lin = Linearization(weak_log_model)
    xp = weak_log_model.equilibrium_profile()
    grid = np.geomspace(1e-2, 1e3, 150)
    amps = [1e-3, 2e-3, 4e-3]
    gaps = []
    for amp in amps:
        xi0 = xp.scaled(1.0 + amp)
        state = pde.LagrangianState(weak_log_model, xi0)
        out = lin.linear_evolve(xp.scaled(amp), T=6.0, dt=0.01, n_samples=40)
        gap = 0.0
        for k in range(0, 601, 50):
            for _ in range(k - state.n + 1):
                state.step(0.01)
            xi, dxi = state.refined_samples(k, grid)
            lv, ld = perturbation_at(lin, xp.scaled(amp), out["t"], out["u"], k, grid)
            xpv, xpd = weak_log_model.equilibrium_pair(grid)
            diff = np.abs(xi - xpv - lv) + grid * np.abs(dxi - xpd - ld)
            gap = max(gap, float(np.max(diff)))
        gaps.append(gap)
    slope = np.polyfit(np.log(amps), np.log(gaps), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_perturbation_deltas_vanish_at_zero(linearization):
    d1, d2 = perturbation_deltas(linearization, Profile.constant(0.0))
    assert abs(d1) < 1e-14 and abs(d2) < 1e-14


def test_perturbation_deltas_scaling(linearization, log_model):
    # d1 scales linearly, d2 quadratically with the perturbation amplitude
    xp = log_model.equilibrium_profile()
    amps = np.array([1e-3, 2e-3, 4e-3, 8e-3])
    d1s, d2s = [], []
    for amp in amps:
        d1, d2 = perturbation_deltas(linearization, xp.scaled(amp))
        d1s.append(abs(d1))
        d2s.append(abs(d2))
    s1 = np.polyfit(np.log(amps), np.log(d1s), 1)[0]
    s2 = np.polyfit(np.log(amps), np.log(d2s), 1)[0]
    assert abs(s1 - 1.0) <= 0.05
    assert abs(s2 - 2.0) <= 0.1


def test_perturbation_deltas_lipschitz_ratios(linearization, log_model):
    xp = log_model.equilibrium_profile()
    rng = np.random.default_rng(9)
    ratios = []
    for _ in range(8):
        a1, a2 = rng.uniform(1e-3, 5e-3, 2)
        z1, z2 = xp.scaled(a1), xp.scaled(a2)
        d11, _ = perturbation_deltas(linearization, z1)
        d12, _ = perturbation_deltas(linearization, z2)
        from nltransport.functionals import weighted_norm
        dist = weighted_norm(xp.scaled(a1 - a2), m=1)
        if dist > 1e-12:
            ratios.append(abs(d11 - d12) / dist)
    print(f"delta1 Lipschitz ratios: max {max(ratios):.4f}")
    assert np.isfinite(max(ratios))


def test_delay_coefficient_limits(linearization):
    # M(t) approaches K(0) at the kernel's own exponential rate
    t = np.linspace(0.0, 16.0, 81)
    M = linearization._M_values(t)
    K0 = float(linearization.kernel_K(0.0))
    resid = np.abs(M - K0)
    sel = resid > 1e-12
    fit = fit_rate(t[sel], resid[sel], window=0.75)
    assert fit.rate >= 1.0 / (1.2 * 2.0)


def test_delay_memory_matches_kernel_derivative(linearization):
    t0 = 8.0
    prob = linearization.delay_problem(0.0, Profile.constant(0.0), T=t0, dt=0.01)
    for s in (0.0, 4.0, 7.0):
        m = float(prob.k(t0, s))
        kp = float(linearization.kernel_K_prime(t0 - s))
        assert abs(m + kp) <= 0.1 * np.exp(-(t0 - s) / 2.0 - t0 / 2.0) + 1e-9


@pytest.fixture(scope="module")
def delay_solutions(linearization, log_model):
    # both linearized forms of one perturbation, solved with the Volterra
    # cross-check at two step sizes: {(form, dt): report}
    pert = log_model.equilibrium_profile().scaled(1e-3)
    out = {}
    for dt in (0.01, 0.005):
        for form, build in (("delay", linearization.delay_problem),
                            ("convolution", linearization.convolution_delay_problem)):
            prob = build(1e-3, pert, T=12.0, dt=dt)
            out[form, dt] = linear_dde_solve(prob, T=12.0, dt=dt)
    return out


def test_delay_routes_agree(delay_solutions):
    r1, r2 = delay_solutions["delay", 0.01], delay_solutions["convolution", 0.01]
    t = r1["t"]
    d = np.abs(r1["I"] - r2["I"])
    # identical derivatives at time zero pin the sign conventions
    assert abs(r1["dI"][0] - r2["dI"][0]) < 1e-10
    assert np.max(d[t <= 0.5]) < 1e-6
    weighted = np.max(d * np.exp(t / 4.0))
    assert np.isfinite(weighted)
    # the weighted gap stays stable under refinement
    r1b, r2b = delay_solutions["delay", 0.005], delay_solutions["convolution", 0.005]
    weighted_b = np.max(np.abs(r1b["I"] - r2b["I"]) * np.exp(r1b["t"] / 4.0))
    assert weighted_b <= 1.5 * weighted + 1e-9


@pytest.mark.parametrize("form", ["delay", "convolution"])
def test_delay_forms_pass_volterra_cross_check(delay_solutions, form):
    # the march and the independent Volterra discretization of the same
    # problem differ at second order: the residual falls ~4x per halving of dt
    coarse = delay_solutions[form, 0.01]["cross_check_residual"]
    fine = delay_solutions[form, 0.005]["cross_check_residual"]
    assert coarse < 1e-9
    assert 3.5 <= coarse / fine <= 4.5


@pytest.mark.parametrize("form", ["delay_problem", "convolution_delay_problem"])
def test_delay_tables_refuse_reads_off_grid(linearization, log_model, form, monkeypatch):
    pert = log_model.equilibrium_profile().scaled(1e-3)
    build = getattr(linearization, form)
    prob = build(1e-3, pert, T=2.0, dt=0.02)
    # k, a and f read past the end of the grid raise instead of clamping
    for t_past in (2.0 + 1e-6, 20.0):
        for read in (lambda s: prob.k(s, 0.0), prob.a, prob.f):
            with pytest.raises(DomainError):
                read(t_past)
    out = linear_dde_solve(prob, T=2.0, dt=0.02)
    # on the grid the guard changes no bit against plain np.interp reads
    monkeypatch.setattr(linstab, "_read_table", lambda t, v, s: np.interp(s, t, v))
    ref = linear_dde_solve(build(1e-3, pert, T=2.0, dt=0.02), T=2.0, dt=0.02)
    assert out.keys() == ref.keys()
    for key in out:
        assert np.asarray(out[key]).tobytes() == np.asarray(ref[key]).tobytes()


def test_delay_solution_bounded(linearization):
    # zero profile perturbation, nonzero scalar offset: solution stays bounded
    prob = linearization.delay_problem(1.0, Profile.constant(0.0), T=20.0, dt=0.02)
    out = linear_dde_solve(prob, T=20.0, dt=0.02, cross_check=False)
    bound = np.max(np.abs(out["I"]))
    assert bound <= 5.0
    print(f"delay response bound C = {bound:.3f} for unit offset")


def test_delay_derivative_decays(linearization, log_model):
    xp = log_model.equilibrium_profile()
    prob = linearization.delay_problem(1e-3, xp.scaled(1e-3), T=16.0, dt=0.01)
    out = linear_dde_solve(prob, T=16.0, dt=0.01, cross_check=False)
    d = np.abs(out["dI"])
    sel = d > 1e-16
    fit = fit_rate(out["t"][sel], d[sel], window=0.5)
    assert fit.rate >= 1.0 / (1.2 * 2.0)


def _sum_profile(a, b):
    def pair(y):
        va, da = a.pair_eval(y)
        vb, db = b.pair_eval(y)
        return va + vb, da + db

    return Profile(value=lambda y: pair(y)[0], deriv=lambda y: pair(y)[1],
                   descriptor="sum", pair=pair)
