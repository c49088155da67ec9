import itertools

import numpy as np
import oracles
import pytest

from nltransport import compact_source, constant_source, log_source
from nltransport.sources import (SourceFn, compact_kernel, inv_square_kernel,
                                 inv_square_p_source)
from nltransport.errors import DomainError, ModelViolationError, NumericalError
from nltransport import control as cc
from nltransport.model import backward_state


P, Y, T, T0 = 2.0, 1.0, 3.0, 0.0


@pytest.fixture(scope="module")
def g_unweighted():
    return cc.PayoffG.from_source_unweighted(log_source(1.0), P, Y)


@pytest.fixture(scope="module")
def g_weighted():
    return cc.PayoffG.from_source_weighted(log_source(1.0), P)


def _mid_state(prob, frac=0.5):
    lo, hi = prob.reachable_bounds()
    if np.isfinite(hi):
        return lo + frac * (hi - lo)
    return lo * (1.0 + frac)


# -- trajectories and payoffs --------------------------------------------------


def test_flat_control_rides_the_boundary(g_unweighted):
    prob = cc.ControlProblem("max01", g_unweighted, P, Y, T, T0)
    ctrl = cc.PiecewiseControl(edges=np.linspace(T0, T, 6), values=np.ones(5))
    s = np.linspace(T0, T, 7)
    x = cc.trajectory_x(prob, ctrl, s)
    assert np.max(np.abs(x - prob.x_p(s))) < 1e-12
    # the backward recursion is one: its state at s = t is start_state's
    assert x[0] == cc.start_state(prob, ctrl)
    with pytest.raises(DomainError, match="outside"):
        cc.trajectory_x(prob, ctrl, np.array([T0, 0.5 * (T0 + T), T + 1e-6]))


def test_terminal_condition_exact(g_unweighted):
    prob = cc.ControlProblem("max01", g_unweighted, P, Y, T, T0)
    ctrl = cc.PiecewiseControl(edges=np.linspace(T0, T, 21),
                               values=np.full(20, 0.3))
    assert abs(cc.trajectory_x(prob, ctrl, T) - Y) < 1e-13


@pytest.mark.parametrize("y", [1e-4, 1e-3, 1e-2, 1.0])
def test_frozen_flow_accurate_near_terminal_time(g_unweighted, y):
    # x_p and the state under v = 1 are the frozen flow
    # Y_d(y) = e^{d/p} y + p (e^{d/p} - 1), to 1e-15 relative against 40-digit
    # arithmetic; a form that subtracts p after the exponential loses up to
    # ~1e-12 as d -> 0.  T - s is exact for s near T, so d is exact too.
    mpmath = pytest.importorskip("mpmath")
    prob = cc.ControlProblem("min1inf", g_unweighted, P, y, T, T0)
    flat = cc.PiecewiseControl(edges=np.array([T0, T]), values=np.ones(1))
    s = T - 10.0 ** np.arange(-12.0, -2.0)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.exp(mpmath.mpf(d) / P) * y
                               + P * mpmath.expm1(mpmath.mpf(d) / P)) for d in T - s])
    for got in (prob.x_p(s), cc.trajectory_x(prob, flat, s)):
        assert np.max(np.abs(got / want - 1.0)) <= 1e-15


def test_admissibility_enforced(g_unweighted):
    prob = cc.ControlProblem("max01", g_unweighted, P, Y, T, T0)
    bad = cc.PiecewiseControl(edges=np.linspace(T0, T, 3), values=np.array([0.5, 1.5]))
    with pytest.raises(DomainError):
        cc.payoff(prob, bad)


def test_constant_payoff_unweighted_is_control_free():
    g = oracles.constant_payoff(2.0, P)
    prob = cc.ControlProblem("max01", g, P, Y, T, T0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        ctrl = cc.PiecewiseControl(edges=np.linspace(T0, T, 11),
                                   values=rng.uniform(0.1, 1.0, 10))
        assert abs(cc.payoff(prob, ctrl) - 2.0 * (T - T0)) < 1e-12


def test_constant_payoff_weighted_telescopes():
    # int g0 e^{-(T-s)/p} v ds collapses to g0 (e^{-(T-t)/p} x - y) for any v
    g = oracles.constant_payoff(0.7, P)
    prob = cc.ControlProblem("min1infw", g, P, Y, T, T0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        ctrl = cc.PiecewiseControl(edges=np.linspace(T0, T, 11),
                                   values=rng.uniform(1.0, 5.0, 10))
        x0 = cc.start_state(prob, ctrl)
        expect = 0.7 * (np.exp(-(T - T0) / P) * x0 - Y)
        assert abs(cc.payoff(prob, ctrl) - expect) < 1e-12


# -- closed-form values ----------------------------------------------------------


def test_reachable_set_enforced(g_unweighted):
    prob = cc.ControlProblem("max01", g_unweighted, P, Y, T, T0)
    lo, hi = prob.reachable_bounds()
    with pytest.raises(DomainError):
        cc.value(prob, hi * 1.01)
    with pytest.raises(DomainError):
        cc.value(prob, lo * 0.99)


def test_switch_time_interior(g_unweighted):
    prob = cc.ControlProblem("max01", g_unweighted, P, Y, T, T0)
    _, tau = cc.value_max01(prob, _mid_state(prob))
    assert T0 < tau < T


def test_weighted_switch_identity():
    # with constant g the bang-bang switch formula makes
    # g0 p (1 - e^{-(T-tau)/p}) equal g0 (e^{-(T-t)/p} x - y) identically
    g = oracles.constant_payoff(1.3, P)
    prob = cc.ControlProblem("max01w", g, P, Y, T, T0)
    rng = np.random.default_rng(2)
    lo, hi = prob.reachable_bounds()
    for _ in range(10):
        x = rng.uniform(lo * 1.001, hi * 0.999)
        helper = cc.ControlProblem("max01w", cc.PayoffG.from_source_weighted(
            log_source(1.0), P), P, Y, T, T0)
        _, tau = cc.value_max01w(helper, x)
        lhs = 1.3 * P * (1.0 - np.exp(-(T - tau) / P))
        rhs = 1.3 * (np.exp(-(T - T0) / P) * x - Y)
        assert abs(lhs - rhs) < 1e-12


def test_degenerate_values_exact():
    g = oracles.constant_payoff(2.0, P)
    for variant in ("max01", "min1inf"):
        prob = cc.ControlProblem(variant, g, P, Y, T, T0)
        v, _ = cc.value(prob, _mid_state(prob))
        assert abs(v - 2.0 * (T - T0)) < 1e-9
    for variant in ("max01w", "min1infw"):
        prob = cc.ControlProblem(variant, g, P, Y, T, T0)
        x = _mid_state(prob)
        v, _ = cc.value(prob, x)
        assert abs(v - 2.0 * (np.exp(-(T - T0) / P) * x - Y)) < 1e-9
    with pytest.raises(DomainError, match="level map"):
        cc.value_min1infw(prob, x)


def test_min_unweighted_ratio_branch_closed_form(g_unweighted):
    # p=2, y=1, T-t=1, x = e^{3/2}: the frozen ratio is exactly 1
    prob = cc.ControlProblem("min1inf", g_unweighted, P, 1.0, 1.0, 0.0)
    val, info = cc.value_min1inf(prob, float(np.exp(1.5)))
    assert info["branch"] == "ratio"
    assert abs(info["lambda"] - 1.0) < 1e-12
    assert abs(val - float(g_unweighted(1.0))) < 1e-10


def test_min_unweighted_boundary_limit(g_unweighted):
    # just above the lower reachable boundary the value tends to the
    # flat-control payoff int_t^T g(x_p) ds
    prob = cc.ControlProblem("min1inf", g_unweighted, P, Y, T, T0)
    xp0 = float(prob.x_p(T0))
    val, info = cc.value_min1inf(prob, xp0 * (1.0 + 1e-9))
    from scipy.integrate import quad
    ref, _ = quad(lambda s: float(g_unweighted(prob.x_p(s))), T0, T, epsabs=1e-13)
    assert info["branch"] == "merge"
    assert abs(val - ref) < 1e-6


@pytest.mark.parametrize("y", [1.0, 1e-3])
def test_min_unweighted_merge_time_matches_bisection(y):
    # the merge time is a Brent root; the reference is the bisection it
    # replaced, 60 halvings of [t, T] that keep the merged state below x at
    # the left end.  The merged state is flat at t, so near x_p(t) the root
    # is only defined to the rounding of x over its slope: 2e-13 at
    # x = x_p(t)(1 + 1e-6); the value, stationary in tau, agrees to 1e-15.
    # At y = 1e-3 the merged state overflows to infinity near T, and the
    # frozen-ratio boundary is infinite: every reachable x merges
    g = cc.PayoffG.from_source_unweighted(log_source(1.0), P, y)
    prob = cc.ControlProblem("min1inf", g, P, y, T, T0)

    def merged_state(tau):
        xp_tau = float(prob.x_p(tau))
        return cc._ratio_state(prob, xp_tau, xp_tau, tau)

    xp0 = float(prob.x_p(T0))
    for frac in (1e-6, 0.01, 0.3, 0.9):
        x = xp0 * (1.0 + frac)
        val, info = cc.value_min1inf(prob, x)
        assert info["branch"] == "merge"
        lo, hi = T0, T
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if merged_state(mid) < x else (lo, mid)
        tau = 0.5 * (lo + hi)
        ref = (tau - T0) * float(g(prob.x_p(tau))) + cc._ride(prob, tau)
        assert abs(info["tau"] - tau) <= 1e-12, (y, frac)
        assert abs(val / ref - 1.0) <= 1e-14, (y, frac)
    if y < 1e-2:
        assert cc.value_min1inf(prob, 2.0 * xp0)[1]["boundary_x"] == np.inf


def test_hypothesis_reports(g_unweighted, g_weighted):
    for variant, g in [("max01", g_unweighted), ("min1inf", g_unweighted),
                       ("max01w", g_weighted), ("min1infw", g_weighted)]:
        rep = cc.ControlProblem(variant, g, P, Y, T, T0).hypothesis_report()
        assert rep["ok"]


def test_hypothesis_rejects_increasing_payoff():
    g = cc.PayoffG(g=lambda z: np.log1p(z), gprime=lambda z: 1.0 / (1.0 + z),
                   g_inf=np.inf, z_inf=np.inf, name="bad")
    with pytest.raises(ModelViolationError):
        cc.ControlProblem("max01w", g, P, Y, T, T0).hypothesis_report()


def _narrow_hump_source(cutoff):
    """h' = -k/y with k = 1 - (y/c)^2 on [0, c]: concave, so -y^2 h' = y k and
    y^2 h'' = k - y k' = 1 + (y/c)^2 both increase on the support, against the
    min1inf and the extremality hypotheses."""
    from nltransport.sources import Kernel

    def k(y):
        return np.where(y < cutoff, 1.0 - (y / cutoff) ** 2, 0.0)

    def tail_inf(y):
        # int_y^c (1 - u^2/c^2)/u du
        t = np.minimum(y / cutoff, 1.0)
        return -np.log(t) - 0.5 * (1.0 - t ** 2)

    def kprime(y):
        return np.where(y < cutoff, -2.0 * y / cutoff ** 2, 0.0)

    kernel = Kernel(name="hump", k=k, kprime=kprime, tail_inf=tail_inf,
                    eq_tail_inf=None, support=cutoff)
    return SourceFn(kind="kernel_inf", h_inf=1.0, kernel=kernel)


def test_small_support_is_z_inf_and_is_checked():
    # z_inf is the kernel's support, however small; the shape checks start
    # below it, where a grid from 1e-3 would see only the flat part
    g = cc.PayoffG.from_source_weighted(compact_source(1.0, 1e-4), P)
    assert g.z_inf == 1e-4 and not g.degenerate
    assert cc.PayoffG.from_source_weighted(log_source(1.0), P).z_inf == np.inf
    assert cc.PayoffG.from_source_weighted(constant_source(1.0), P).degenerate
    source = _narrow_hump_source(1e-4)
    with pytest.raises(ModelViolationError, match="-z\\^2 g'"):
        cc.ControlProblem("min1inf", cc.PayoffG.from_source_unweighted(source, P, Y),
                          P, Y, T, T0).hypothesis_report()
    with pytest.raises(ModelViolationError, match="y\\^2 h'' decreasing"):
        cc.check_extremal_hypotheses(source)


# -- the level map -------------------------------------------------------------


def test_level_map_lemma_inequalities(g_weighted):
    cm = g_weighted.char_map
    rng = np.random.default_rng(3)
    for _ in range(20):
        z1, z2 = np.sort(rng.uniform(0.05, 20.0, 2))
        if z2 - z1 < 1e-9:
            continue
        gap = cm.F(np.array([z2]))[0] - cm.F(np.array([z1]))[0]
        assert gap >= (z2 - z1) - 1e-9


def test_level_map_diverges(g_weighted):
    cm = g_weighted.char_map
    assert cm.F(np.array([5e5]))[0] > 1e3


def test_level_map_compact_kernel_divergence_at_support_edge():
    g = cc.PayoffG.from_source_weighted(compact_source(1.0, 1.0), P)
    assert abs(g.z_inf - 1.0) < 1e-9
    cm = g.char_map
    assert cm.F(np.array([1.0 - 1e-10]))[0] > 30.0


def test_level_map_inversion_roundtrip(g_weighted):
    cm = g_weighted.char_map
    for z in (0.2, 1.0, 4.0, 40.0):
        c = float(cm.F(z)) + 1.5
        back = cm.invert(c, z)
        assert isinstance(back, float)
        assert abs(float(cm.F(back)) - c) < 1e-9


@pytest.mark.parametrize("source,top", [(log_source(1.0), 1e5),
                                        (compact_source(1.0, 2.0), None)],
                         ids=["log", "compact"])
def test_level_map_inversion_matches_bisection(source, top, monkeypatch):
    # targets from 1e-2 up to just below z_inf (the table's end for the
    # compact kernel), each solved from several starting points
    cm = cc.PayoffG.from_source_weighted(source, P).char_map
    top = cm.z_hi if top is None else top
    z_true = np.concatenate([np.geomspace(1e-2, 0.5 * top, 30),
                             top * (1.0 - np.geomspace(1e-3, 1e-11, 15))])
    c = cm.F(z_true)
    level_map = cm.F
    for lo in (np.full_like(z_true, 1e-3), 0.5 * z_true, 0.999999 * z_true):
        ref = oracles.level_map_bisection(cm, c, lo)
        hi = np.minimum(lo + np.maximum(c - cm.F(lo), 0.0), cm.z_hi)
        for ci, loi, hii, refi in zip(c, lo, hi, ref):
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(cm, "F", lambda z: calls.append(z) or level_map(z))
                z = cm.invert(float(ci), float(loi))
            assert abs(z / refi - 1.0) < 1e-13
            assert loi <= z <= hii
            # Newton steps in v need few evaluations even next to z_inf
            assert len(calls) <= 12


def test_min_weighted_value_work_count(g_weighted, monkeypatch):
    # each Brent evaluation inverts one characteristic's start in a few
    # one-point Newton steps: 38 points of F in all
    points = []
    level_map = cc.CharMap.F

    def counted(self, z):
        points.append(np.size(z))
        return level_map(self, z)

    monkeypatch.setattr(cc.CharMap, "F", counted)
    prob = cc.ControlProblem("min1infw", g_weighted, P, Y, T, T0)
    val, _ = cc.value_min1infw(prob, _mid_state(prob, 0.5))
    assert np.isfinite(val)
    assert sum(points) <= 45


def test_min_weighted_values_follow_each_characteristic_once(monkeypatch):
    # the ratio region's boundary and its first bracket end depend on the
    # problem only, and the payoff reads the characteristic that Brent's last
    # evaluation followed: over two value calls, each distinct characteristic
    # costs one level-map inversion.  A fresh payoff has no memoized starts.
    g = cc.PayoffG.from_source_weighted(log_source(1.0), P)
    prob = cc.ControlProblem("min1infw", g, P, Y, T, T0)
    invert = cc.CharMap.invert
    followed = []

    def recorded(self, c, lo, f_lo=None):
        followed.append((np.asarray(c, float).item(), np.asarray(lo, float).item()))
        return invert(self, c, lo, f_lo)

    monkeypatch.setattr(cc.CharMap, "invert", recorded)
    for frac in (12.0, 20.0):
        val, info = cc.value_min1infw(prob, _mid_state(prob, frac))
        assert info["region"] == "ratio" and np.isfinite(val)
    assert len(followed) == len(set(followed))


_CHARACTERISTIC_PAYOFFS = {
    "log-weighted": lambda: cc.PayoffG.from_source_weighted(log_source(1.0), P),
    "compact-weighted": lambda: cc.PayoffG.from_source_weighted(compact_source(1.0, 2.0),
                                                                P),
}


@pytest.mark.parametrize("payoff", sorted(_CHARACTERISTIC_PAYOFFS))
def test_characteristic_closed_form_matches_refined_quadrature(payoff):
    # the closed-form state and payoff of a level-map characteristic against
    # quadrature over uniform s nodes, each node its own inversion: from 6401
    # to 25601 nodes the quadrature's gap shrinks at O(h^2) or better, down
    # to the tables' rounding floor
    g = _CHARACTERISTIC_PAYOFFS[payoff]()
    prob = cc.ControlProblem("min1infw", g, P, Y, T, T0)
    z1s = [z for z in (1e-3, 0.3, 2.0, 20.0) if z < g.z_inf]
    if np.isfinite(g.z_inf):
        z1s.append(g.z_inf * (1.0 - 1e-3))
    for z1 in z1s:
        closed = (cc._char_state(prob, z1, Y, T), cc._char_payoff(prob, z1, Y, T))
        coarse, fine = (oracles.characteristic_by_quadrature(prob, z1, Y, T, n)
                        for n in (6401, 25601))
        for want, ref_coarse, ref_fine in zip(closed, coarse, fine):
            gap_coarse = abs(ref_coarse / want - 1.0)
            gap_fine = abs(ref_fine / want - 1.0)
            assert gap_fine <= max(gap_coarse / 8.0, 1e-10), (z1, gap_coarse, gap_fine)
            assert gap_fine <= 2e-3, (z1, gap_fine)


# the five kernel/kind pairs a scenario can build, each with its own z_inf
_LEVEL_MAP_SOURCES = {
    "log": log_source(1.0),
    "compact": compact_source(1.0, 2.0),
    "inv_square": SourceFn(kind="kernel_inf", h_inf=1.0, kernel=inv_square_kernel()),
    "compact-p": SourceFn(kind="kernel_p", h_inf=1.0, kernel=compact_kernel(2.0), p=3.0),
    "inv_square-p": inv_square_p_source(1.0, 3.0),
}


def test_level_map_resolves_support_edge():
    # F(z) - F(1.5) = -z L(z) + 1.5 L(1.5) + int_1.5^z L with L = log(-g'),
    # against adaptive quadrature for every kernel/kind pair: from 1e-3 up
    # to a finite z_inf = 2, where L has a logarithmic singularity, or up to
    # 1e5; the closed form keeps 1e-13 relative to max(1, |F(z) - F(1.5)|)
    # (measured worst 5.8e-15), where the tables missed by up to 4.7e-12
    from scipy.integrate import quad

    for name, source in _LEVEL_MAP_SOURCES.items():
        g = cc.PayoffG.from_source_weighted(source, P)
        if np.isfinite(g.z_inf):
            zs = [1e-3, 0.3] + [g.z_inf - gap for gap in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6)]
        else:
            zs = [1e-3, 0.3, 10.0, 1e3, 1e5]

        def log_slope(z, g=g):
            return float(np.log(-g.d(z)))

        level_1_5 = g.char_map.F(np.array([1.5]))[0]
        for z in zs:
            integral, _ = quad(log_slope, 1.5, z, limit=500, epsabs=1e-14,
                               epsrel=1e-12)
            want = -z * log_slope(z) + 1.5 * log_slope(1.5) + integral
            got = g.char_map.F(np.array([z]))[0] - level_1_5
            assert abs(got - want) < 1e-13 * max(1.0, abs(want)), (name, z)


def test_level_map_only_for_the_discounted_payoff(g_unweighted):
    # -(1 + y/p) h' has no closed-form level map: building it is free, and
    # evaluating or inverting it is a DomainError; so is z at or past z_inf
    cm = g_unweighted.char_map
    with pytest.raises(DomainError, match="no closed-form level map"):
        cm.F(np.array([1.0]))
    with pytest.raises(DomainError, match="no closed-form level map"):
        cm.invert(3.0, 1.0)
    g = cc.PayoffG.from_source_weighted(compact_source(1.0, 2.0), P)
    with pytest.raises(DomainError, match="beyond z_inf"):
        g.char_map.F(np.array([2.5]))


# -- rides along a constant control ---------------------------------------------------


def test_ride_matches_quadrature():
    # PayoffG.ride against adaptive quadrature over w = log u, in which the
    # flow's density g(u) p u/(u+p), times (u1+p)/(u+p) when discounted, is
    # smooth; a compact kernel's support edge is a breakpoint.  u1 = x1/v is
    # the ratio at a segment's end under the control v, from 1.25e-7 to 1e4.
    # Measured worst 2.1e-14 absolute (inv_square kernel_p, unweighted, at
    # u1 = 1.25e-6); relative up to 1.5e-5, but only on rides of 1e-15,
    # where the by-parts form's two ends cancel (u1 = 1e4, width 1e-3)
    from scipy.integrate import quad

    for name, source in _LEVEL_MAP_SOURCES.items():
        weighted = cc.PayoffG.from_source_weighted(source, P)
        payoffs = [(weighted, True)] + [
            (cc.PayoffG.from_source_unweighted(source, P, y), False)
            for y in (1e-6, 1e-3, 1.0)]
        edge = np.log(weighted.z_inf)
        for (g, discounted), v, x1, width in itertools.product(
                payoffs, (1e-3, 1.0, 8.0), np.geomspace(1e-6, 10.0, 8), (1e-3, 1.0)):
            u1 = x1 / v
            a, b = np.log(u1), np.log(float(backward_state(width, u1, P)))

            def density(w, g=g, discounted=discounted, u1=u1):
                u = np.exp(w)
                val = float(g(u)) * P * u / (u + P)
                return val * (u1 + P) / (u + P) if discounted else val

            want, _ = quad(density, a, b, points=[edge] if a < edge < b else None,
                           epsabs=1e-15, epsrel=1e-13, limit=200)
            got = g.ride(u1, width, discounted)
            assert abs(got - want) <= 1e-13, (name, g.name, v, x1, width, got, want)


def test_ride_pairings_without_closed_form_raise():
    source = log_source(1.0)
    with pytest.raises(DomainError, match="no closed-form discounted ride"):
        cc.PayoffG.from_source_unweighted(source, P, Y).ride(1.0, 0.5, True)
    with pytest.raises(DomainError, match="no closed-form undiscounted ride"):
        cc.PayoffG.from_source_weighted(source, P).ride(1.0, 0.5, False)
    bare = cc.PayoffG(g=lambda z: 1.0 / z, gprime=lambda z: -1.0 / z ** 2,
                      g_inf=0.0, z_inf=np.inf, name="1/z")
    prob = cc.ControlProblem("max01", bare, P, Y, T, T0)
    ctrl = cc.PiecewiseControl(edges=np.linspace(T0, T, 3), values=np.array([0.5, 1.0]))
    with pytest.raises(DomainError, match="no closed-form ride"):
        cc.payoff(prob, ctrl)


@pytest.mark.parametrize("variant", cc.VARIANTS)
@pytest.mark.parametrize("y", [1e-3, 1.0])
def test_payoff_matches_quadrature(variant, y):
    # a sampled control's payoff, one ride per segment, against adaptive
    # quadrature in s of g(x/v) (times v e^{-(T-s)/p} when weighted) on each
    # segment; at y = 1e-3 the density peaks like 1/(y + T - s) at s = T
    from scipy.integrate import quad

    source = log_source(1.0)
    g = (cc.PayoffG.from_source_weighted(source, P) if variant in ("max01w", "min1infw")
         else cc.PayoffG.from_source_unweighted(source, P, y))
    prob = cc.ControlProblem(variant, g, P, y, T, T0)
    ctrl = cc.sample_controls(prob, 1, seed=4)[0]
    edges, values = ctrl.edges, ctrl.values
    want = 0.0
    for a, b, v in zip(edges[:-1], edges[1:], values):
        x_b = cc.trajectory_x(prob, ctrl, b)

        def density(s, b=b, v=v, x_b=x_b):
            val = float(g(backward_state(b - s, x_b, P, v) / v))
            return val * v * np.exp(-(T - s) / P) if prob.weighted else val

        want += quad(density, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
    assert abs(cc.payoff(prob, ctrl) - want) <= 1e-12 * max(1.0, abs(want))


def test_simpson_cubic_exact():
    x = np.linspace(0.0, 1.0, 21)
    vals = x ** 3 - 2.0 * x
    assert abs(oracles.simpson_integrate(vals, x[1] - x[0]) - (0.25 - 1.0)) < 1e-14


def test_simpson_rejects_even_count():
    with pytest.raises(ValueError):
        oracles.simpson_integrate(np.ones(10), 0.1)


def _counted(f):
    xs = []

    def wrapped(v):
        xs.append(v)
        return f(v)

    return wrapped, xs


def _brentq_reference(f, a, b, fa, fb):
    """scipy's brentq with the tolerances of cc._brent and its end values."""
    from scipy.optimize import brentq

    ends = {a: fa, b: fb}
    return brentq(lambda v: ends[v] if v in ends else f(v), a, b,
                  xtol=np.finfo(float).tiny, rtol=4.0 * np.finfo(float).eps,
                  maxiter=4 * cc.BISECT_ITERS)


def _assert_brent_matches_brentq(f, a, b, fa, fb):
    f_port, xs_port = _counted(f)
    f_ref, xs_ref = _counted(f)
    root = cc._brent(f_port, a, b, fa, fb)
    assert root == _brentq_reference(f_ref, a, b, fa, fb)
    assert xs_port == xs_ref
    return len(xs_port)


@pytest.mark.parametrize("f,a,b,min_calls", [
    (lambda x: np.exp(x) - 2.0, 0.0, 3.0, 1),
    (lambda x: np.cos(x) - x, 0.0, 1.0, 1),
    (lambda x: np.tanh(50.0 * (x - 0.3)), 0.0, 1.0, 1),
    (lambda x: np.arctan(1e6 * (x - 0.7)), 0.0, 1.0, 1),
    (lambda x: np.cbrt(x - 0.25), 0.0, 1.0, 1),
    # a triple root: superlinear steps stall and bisection takes over
    (lambda x: (x - 1.0) ** 3, 0.0, 1e4, 150),
], ids=["exp", "cos", "tanh", "arctan", "cbrt", "triple-root"])
def test_brent_matches_brentq_on_closed_forms(f, a, b, min_calls):
    calls = _assert_brent_matches_brentq(f, a, b, f(a), f(b))
    assert min_calls <= calls <= 4 * cc.BISECT_ITERS


@pytest.mark.parametrize("source,frac,region", [
    (log_source(1.0), 0.5, "merge"),
    (log_source(1.0), 12.0, "ratio"),
    (compact_source(1.0, 2.0), 2.0, "merge"),
    (compact_source(1.0, 2.0), 12.0, "ratio"),
], ids=["log-tau", "log-lambda", "compact-tau", "compact-lambda"])
def test_brent_matches_brentq_on_value_roots(source, frac, region, monkeypatch):
    # the ratio (lambda) and merge-time (tau) roots of value_min1infw, from
    # end values that are certified limits brentq never evaluates
    g = cc.PayoffG.from_source_weighted(source, P)
    prob = cc.ControlProblem("min1infw", g, P, Y, T, T0)
    brackets = []
    brent = cc._brent

    def recorded(f, a, b, fa, fb):
        brackets.append((f, a, b, fa, fb))
        return brent(f, a, b, fa, fb)

    monkeypatch.setattr(cc, "_brent", recorded)
    _, info = cc.value_min1infw(prob, _mid_state(prob, frac))
    assert info["region"] == region and len(brackets) == 1
    assert _assert_brent_matches_brentq(*brackets[0]) >= 5


def test_brent_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(cc, "BISECT_ITERS", 2)
    f, xs = _counted(lambda x: (x - 1.0) ** 3)
    with pytest.raises(NumericalError, match="not converged after 8 evaluations"):
        cc._brent(f, 0.0, 1e4, -1.0, (1e4 - 1.0) ** 3)
    assert len(xs) == 8


def test_brent_rejects_unbracketed_and_nan_ends():
    with pytest.raises(NumericalError, match="one sign"):
        cc._brent(lambda x: x, 1.0, 2.0, 1.0, 2.0)
    with pytest.raises(NumericalError, match="NaN"):
        cc._brent(lambda x: x, -1.0, 2.0, np.nan, 2.0)
    with pytest.raises(NumericalError, match="NaN"):
        cc._brent(lambda x: np.nan, -1.0, 2.0, -1.0, 2.0)


def test_min_weighted_compact_sweep_monotone():
    g = cc.PayoffG.from_source_weighted(compact_source(1.0, 2.0), P)
    prob = cc.ControlProblem("min1infw", g, P, Y, T, T0)
    xs = [_mid_state(prob, frac) for frac in np.geomspace(0.05, 12.0, 20)]
    vals, regions = [], set()
    for x in xs:
        val, info = cc.value_min1infw(prob, x)
        vals.append(val)
        regions.add(info["region"])
    assert regions == {"flat", "merge", "ratio"}
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) >= 0.0)


def test_min_weighted_characteristics_ordered(g_weighted):
    # trajectories for distinct ratio levels stay ordered and reachable
    prob = cc.ControlProblem("min1infw", g_weighted, P, Y, T, T0)
    cm = g_weighted.char_map
    s = np.linspace(T0, T, 201)
    prev = None
    for lam in (0.25, 0.5, 0.75, 0.95):
        f_lam = float(cm.F(lam))
        zp = np.array([cm.invert(f_lam + (T - si), lam) for si in s])
        from nltransport.quadrature import cumtrapz
        integ = cumtrapz(1.0 / P + 1.0 / zp, x=s)
        yp = Y * np.exp(integ[-1] - integ)
        xp = prob.x_p(s)
        assert np.all(yp[:-1] >= xp[:-1] - 1e-9)
        if prev is not None:
            assert np.all(prev[:-1] >= yp[:-1] - 1e-12)
        prev = yp


# -- verification and oracles ------------------------------------------------------


@pytest.mark.parametrize("variant,weighted", [("max01", False), ("min1inf", False),
                                              ("max01w", True), ("min1infw", True)])
def test_sampled_controls_never_beat_value(variant, weighted, g_unweighted,
                                           g_weighted):
    g = g_weighted if weighted else g_unweighted
    prob = cc.ControlProblem(variant, g, P, Y, T, T0)
    n = 60 if variant == "min1infw" else 200
    cert = cc.verification_certificate(prob, n_samples=n, seed=7)
    assert cert["worst_margin"] <= 1e-6


def test_value_monotone_in_x(g_unweighted, g_weighted):
    for variant, g in [("max01", g_unweighted), ("min1inf", g_unweighted),
                       ("max01w", g_weighted), ("min1infw", g_weighted)]:
        prob = cc.ControlProblem(variant, g, P, Y, T, T0)
        for frac in (0.25, 0.5, 0.75):
            x = _mid_state(prob, frac)
            assert oracles.value_x_derivative(prob, x) >= -1e-8


def test_c1_patching_min_weighted(g_weighted):
    # value and slope continuous across the ratio/merge boundary (log source)
    prob = cc.ControlProblem("min1infw", g_weighted, P, Y, T, T0)
    bound = cc.value_min1infw(prob, _mid_state(prob, 0.5))[1]["boundary_ratio_region"]
    eps = 1e-6 * bound
    v_lo, i_lo = cc.value_min1infw(prob, bound - eps)
    v_hi, i_hi = cc.value_min1infw(prob, bound + eps)
    assert i_lo["region"] == "merge" and i_hi["region"] == "ratio"
    d_lo = oracles.value_x_derivative(prob, bound - 3 * eps, rel_step=1e-7)
    d_hi = oracles.value_x_derivative(prob, bound + 3 * eps, rel_step=1e-7)
    assert abs(v_hi - v_lo - (2 * eps) * 0.5 * (d_lo + d_hi)) < 1e-6
    assert abs(d_hi - d_lo) < 1e-6


def test_c1_patching_compact_flat_boundary():
    # compact kernel puts a flat region next to the ratio region
    g = cc.PayoffG.from_source_weighted(compact_source(1.0, 1.0), P)
    prob = cc.ControlProblem("min1infw", g, P, Y, T, T0)
    x_probe = _mid_state(prob, 0.4)
    info = cc.value_min1infw(prob, x_probe)[1]
    bound = info["boundary_ratio_region"]
    eps = 1e-6 * bound
    v_lo, i_lo = cc.value_min1infw(prob, bound - eps)
    v_hi, i_hi = cc.value_min1infw(prob, bound + eps)
    assert {i_lo["region"], i_hi["region"]} == {"flat", "ratio"}
    d_lo = oracles.value_x_derivative(prob, bound - 3 * eps, rel_step=1e-7)
    d_hi = oracles.value_x_derivative(prob, bound + 3 * eps, rel_step=1e-7)
    assert abs(d_hi - d_lo) < 1e-6


def test_compact_flat_region_slope_exact():
    # in the flat region the value is linear with slope g(z_inf) e^{-(T-t)/p}
    g = cc.PayoffG.from_source_weighted(compact_source(1.0, 1.0), P)
    prob = cc.ControlProblem("min1infw", g, P, Y, T, T0)
    x1 = _mid_state(prob, 0.2)
    x2 = _mid_state(prob, 0.3)
    v1, i1 = cc.value_min1infw(prob, x1)
    v2, i2 = cc.value_min1infw(prob, x2)
    assert i1["region"] == "flat" and i2["region"] == "flat"
    slope = (v2 - v1) / (x2 - x1)
    assert abs(slope - float(g(1.0)) * np.exp(-(T - T0) / P)) < 1e-12


def test_three_region_classification():
    # support edge above the terminal state: all three regions appear
    g = cc.PayoffG.from_source_weighted(compact_source(1.0, 2.0), P)
    assert abs(g.z_inf - 2.0) < 1e-8
    prob = cc.ControlProblem("min1infw", g, P, Y, T, T0)
    regions = {}
    for frac in (0.1, 1.5, 8.0):
        _, info = cc.value_min1infw(prob, _mid_state(prob, frac))
        regions[frac] = info["region"]
    assert regions == {0.1: "flat", 1.5: "merge", 8.0: "ratio"}
    # slope continuity across the flat/merge boundary too
    _, info = cc.value_min1infw(prob, _mid_state(prob, 1.5))
    bound = info["boundary_flat_region"]
    eps = 1e-6 * bound
    d_lo = oracles.value_x_derivative(prob, bound - 3 * eps, rel_step=1e-7)
    d_hi = oracles.value_x_derivative(prob, bound + 3 * eps, rel_step=1e-7)
    assert abs(d_hi - d_lo) < 1e-6


def test_dp_oracle_bounds_and_refinement(g_unweighted, g_weighted):
    improved = 0
    total = 0
    rng = np.random.default_rng(5)
    for variant, g in [("max01", g_unweighted), ("min1inf", g_unweighted),
                       ("max01w", g_weighted), ("min1infw", g_weighted)]:
        prob = cc.ControlProblem(variant, g, P, Y, T, T0)
        fracs = (0.3, 0.6) if not prob.is_max else (0.3, 0.5, 0.7)
        for frac in fracs:
            x = float(_mid_state(prob, frac))
            vcl, _ = cc.value(prob, x)
            c1 = oracles.brute_force(prob, x, 64, 512, 9)
            c2 = oracles.brute_force(prob, x, 128, 1024, 9)
            g1 = (vcl - c1["estimate"]) if prob.is_max else (c1["estimate"] - vcl)
            g2 = (vcl - c2["estimate"]) if prob.is_max else (c2["estimate"] - vcl)
            assert g1 >= -1e-9  # bound on the correct side
            total += 1
            if g2 < g1:
                improved += 1
    assert improved >= total - 1


def test_dp_oracle_bang_bang(g_unweighted):
    prob = cc.ControlProblem("max01", g_unweighted, P, Y, T, T0)
    rep = oracles.brute_force(prob, float(_mid_state(prob)), 64, 512, 9)
    assert rep["bang_bang_fraction"] >= 0.95


def test_dp_ceiling_monitor(g_weighted):
    prob = cc.ControlProblem("min1infw", g_weighted, P, Y, T, T0)
    rep = oracles.brute_force(prob, float(_mid_state(prob, 0.4)), 64, 256, 9)
    assert rep["ceiling_fraction"] < 0.9


# -- stationarity and the extremality certificate ------------------------------------


def test_stationarity_unweighted(g_unweighted):
    rep = cc.stationarity_check(cc.ControlProblem("max01", g_unweighted, P, Y, T, T0))
    assert rep["passes"]


def test_stationarity_weighted(g_weighted):
    rep = cc.stationarity_check(cc.ControlProblem("max01w", g_weighted, P, Y, T, T0))
    assert rep["passes"]


@pytest.mark.parametrize("source", [log_source(1.0), compact_source(1.0, 2.0)],
                         ids=["log", "compact"])
def test_stationarity_weighted_matches_quadrature(source):
    # the closed-form inner integral int_t^tau g'(x_p(s)) ds, through the
    # whole gradient, against adaptive quadrature at every tau
    from scipy.integrate import quad

    g = cc.PayoffG.from_source_weighted(source, P)
    prob = cc.ControlProblem("max01w", g, P, Y, T, T0)
    taus = np.linspace(T0, T, 202)[1:-1]
    xp = prob.x_p(taus)
    inner = np.array([quad(lambda s: float(g.d(prob.x_p(s))), T0, tau,
                           epsabs=1e-15, epsrel=1e-13, limit=200)[0] for tau in taus])
    want = np.min(-xp * g.d(xp) + g(xp) + inner)
    rep = cc.stationarity_check(prob)
    assert abs(rep["min_gradient"] - want) <= 1e-13
    bare = cc.PayoffG(g=g.g, gprime=g.gprime, g_inf=g.g_inf, z_inf=g.z_inf, name="bare")
    with pytest.raises(DomainError, match="no closed-form stationarity"):
        cc.stationarity_check(cc.ControlProblem("max01w", bare, P, Y, T, T0))


def test_extremal_hypotheses_reject_nonconvex_kernel():
    # a non-convex kernel makes y^2 h'' increase near the origin:
    # y^2 h'' = k - y k' and d/dy (k - y k') = -y k'' > 0 where k'' < 0
    from nltransport.sources import Kernel
    # int_y^inf du/(u(1+u^2)) = log(1 + 1/y^2)/2; the equilibrium is never built
    k = Kernel(name="hump", k=lambda y: 1.0 / (1.0 + y ** 2),
               kprime=lambda y: -2.0 * y / (1.0 + y ** 2) ** 2,
               tail_inf=lambda y: 0.5 * np.log1p(y ** -2.0), eq_tail_inf=None)
    src = SourceFn(kind="kernel_inf", h_inf=1.0, kernel=k)
    with pytest.raises(ModelViolationError):
        cc.check_extremal_hypotheses(src)


def test_history_certificates_log_source():
    src = log_source(1.0)
    below = cc.extremal_history_certificate(src, P, 5.0, 1.0, n_samples=200,
                                            seed=0, side="below")
    above = cc.extremal_history_certificate(src, P, 5.0, 1.0, n_samples=200,
                                            seed=1, side="above")
    assert below["passes"] and below["worst_margin"] <= 1e-8
    assert above["passes"] and above["worst_margin"] <= 1e-8


def test_history_certificate_constant_source():
    src = constant_source(1.0)
    rep = cc.extremal_history_certificate(src, P, 5.0, 1.0, n_samples=100,
                                          seed=2, side="below")
    assert rep["passes"]
