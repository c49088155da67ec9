import dataclasses

import numpy as np
import oracles
import pytest
import scipy.integrate as si

from nltransport.errors import DomainError
from nltransport.quadrature import tail_integral_refined
from nltransport.sources import (Kernel, SourceFn, compact_kernel, compact_source,
                                 constant_source, inv_square_kernel,
                                 inv_square_p_source, log_kernel, log_source)


def test_constant_source_values():
    src = constant_source(1.0)
    assert src.eval(5.0, 0) == 1.0
    assert src.eval(5.0, 1) == 0.0
    assert src.eval(5.0, 2) == 0.0


def test_log_source_closed_forms():
    # h(y) = 1 + log(1 + 1/y): at y=1 this is 1 + log 2
    src = log_source(1.0)
    assert abs(src.eval(1.0, 0) - (1.0 + np.log(2.0))) < 1e-14
    assert abs(src.eval(1.0, 1) - (-0.5)) < 1e-14
    # differentiate h'(y) = -1/(y(1+y)) by hand: h''(1) = 3/4
    assert abs(src.eval(1.0, 2) - 0.75) < 1e-14


def test_log_source_tail_against_quadrature():
    src = log_source(1.0)
    for y in (0.1, 1.0, 7.0):
        ref, _ = si.quad(lambda u: 1.0 / (u * (1.0 + u)), y, np.inf, limit=200)
        assert abs(src.eval(y, 0) - (1.0 + ref)) < 1e-10


def test_log_source_second_derivative_by_differencing():
    src = log_source(1.0)
    y = 1.0
    h = 1e-5
    fd = (src.eval(y + h, 1) - src.eval(y - h, 1)) / (2 * h)
    assert abs(fd - src.eval(y, 2)) < 1e-8


def test_domain_errors():
    src = log_source(1.0)
    with pytest.raises(DomainError):
        src.eval(-1.0, 0)
    with pytest.raises(DomainError):
        src.eval(1.0, 3)


def test_limit_at_infinity():
    for src in (log_source(1.0), compact_source(1.0), inv_square_p_source(1.0, 2.0)):
        assert abs(src.eval(1e6, 0) - 1.0) < 1e-4


def test_validate_log_source_m1_conditions():
    # closed forms: y h'' + h' = 1/(1+y)^2 and y^2 h'' = (2y+1)/(1+y)^2
    src = log_source(1.0)
    rep = oracles.validate_source(src, tol=1e-12, convex=True)
    grid = np.geomspace(0.01, 100.0, 50)
    m1 = grid * src.eval(grid, 2) + src.eval(grid, 1)
    assert np.max(np.abs(m1 - 1.0 / (1.0 + grid) ** 2)) < 1e-12
    y2h2 = grid ** 2 * src.eval(grid, 2)
    assert np.max(np.abs(y2h2 - (2 * grid + 1) / (1 + grid) ** 2)) < 1e-12
    assert rep["m1_min_yh2_plus_h1"] >= -1e-12
    assert rep["yh_to_zero"]


def test_validate_rejects_increasing_source():
    # the negated log kernel k < 0 makes h = 20 - log(1 + 1/y) increase
    k = log_kernel()
    rising = Kernel(name="negated-log", k=lambda y: -k.k(y),
                    kprime=lambda y: -k.kprime(y), tail_inf=lambda y: -k.tail_inf(y),
                    eq_tail_inf=lambda y, p: -k.eq_tail_inf(y, p))
    src = SourceFn(kind="kernel_inf", h_inf=20.0, kernel=rising)
    with pytest.raises(DomainError, match="nonincreasing"):
        oracles.validate_source(src, grid=np.linspace(1.0, 10.0, 50))


def test_kernel_p_closed_form():
    # h = h_inf + 1/(1+y) + p [log(1+1/y) - 1/(1+y)] for k = (1+y)^-2
    src = inv_square_p_source(1.0, 2.0)
    y = 1.5
    expect = 1.0 + 1.0 / 2.5 + 2.0 * (np.log(1 + 1 / 1.5) - 1.0 / 2.5)
    assert abs(src.eval(y, 0) - expect) < 1e-12
    # h' = -(1 + p/y) k(y)
    assert abs(src.eval(y, 1) - (-(1 + 2.0 / 1.5) / 2.5 ** 2)) < 1e-14


def test_log_kernel_tail_matches_quadrature():
    # the closed form log(1 + 1/y) against the mapped quadrature of k(u)/u
    k = log_kernel()
    probe = np.geomspace(0.05, 50.0, 20)
    quad = tail_integral_refined(lambda u: k.k(u) / u, probe, scale=1.0 + probe)
    assert np.max(np.abs(k.tail_inf(probe) - quad)) < 1e-9


@pytest.mark.parametrize("kernel,ys", [
    (log_kernel(), [1e-3, 0.3, 1.0, 10.0, 1e3, 1e5]),
    (inv_square_kernel(), [1e-3, 0.3, 1.0, 10.0, 1e3, 1e5]),
    # across the switch at half the cutoff, and up to just below it
    (compact_kernel(2.0), [1e-3, 0.3, 0.999, 1.001, 1.9, 1.999, 2.0 - 1e-6]),
], ids=["log", "inv_square", "compact"])
def test_kernel_log_integral_matches_quadrature(kernel, ys):
    # int_0^y log k, segment by segment against adaptive quadrature
    assert kernel.log_integral(np.array([0.0]))[0] == 0.0
    for lo, hi in zip(ys[:-1], ys[1:]):
        want, _ = si.quad(lambda u: np.log(kernel.k(u)), lo, hi, limit=200,
                          epsabs=1e-14, epsrel=1e-13)
        got = kernel.log_integral(np.array([hi]))[0] - kernel.log_integral(np.array([lo]))[0]
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (lo, hi)


def test_kernel_p_needs_the_kernel_p_tails():
    # the log kernel has none: (1 + p/u)/(1 + u) is not integrable at infinity
    with pytest.raises(DomainError, match="tail_p"):
        SourceFn(kind="kernel_p", h_inf=1.0, kernel=log_kernel(), p=2.0)
    no_eq_tail = dataclasses.replace(compact_kernel(4.0), eq_tail_p=None)
    with pytest.raises(DomainError, match="eq_tail_p"):
        SourceFn(kind="kernel_p", h_inf=1.0, kernel=no_eq_tail, p=2.0)


FUSED_SOURCES = {
    "constant": lambda: constant_source(1.0),
    "log": lambda: log_source(1.0),
    "log_h_inf_1e-3": lambda: log_source(1e-3),
    "compact": lambda: compact_source(1.0, 1.0),
    "compact_c40": lambda: compact_source(1.0, 40.0),
    "inv_square": lambda: SourceFn(kind="kernel_inf", h_inf=1.0,
                                   kernel=inv_square_kernel()),
    "inv_square_p": lambda: inv_square_p_source(1.0, 2.0),
    "compact_p": lambda: SourceFn(kind="kernel_p", h_inf=1.0,
                                  kernel=compact_kernel(4.0), p=2.0),
}


@pytest.mark.parametrize("name", list(FUSED_SOURCES))
def test_eval_orders_matches_eval(name):
    # the log kernel's in-place closed form moves only roundings (measured
    # worst 6.6e-16, its h''); other sources take eval itself
    src = FUSED_SOURCES[name]()
    y = np.geomspace(1e-8, 1e8, 2001).reshape(3, 667)
    for count in (2, 3):
        out = [np.full_like(y, np.nan) for _ in range(count)]
        assert src.eval_orders(y, out) is out
        for order, got in enumerate(out):
            ref = src.eval(y, order)
            assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref)), (order, count)


@pytest.mark.parametrize("bad", [0.0, -1e-3])
def test_eval_orders_rejects_nonpositive_points(bad):
    y = np.geomspace(1e-3, 1e3, 12).reshape(3, 4)
    y[2, 1] = bad
    for name in ("constant", "log", "inv_square_p"):
        with pytest.raises(DomainError):
            FUSED_SOURCES[name]().eval_orders(y, [np.empty_like(y), np.empty_like(y)])


def test_compact_kernel_m1():
    # y h'' + h' = 2 (1-y)_+ and y^2 h'' = (1-y^2)_+ for the compact kernel
    src = compact_source(1.0, 1.0)
    grid = np.linspace(0.05, 0.95, 19)
    m1 = grid * src.eval(grid, 2) + src.eval(grid, 1)
    assert np.max(np.abs(m1 - 2.0 * (1.0 - grid))) < 1e-12
    y2h2 = grid ** 2 * src.eval(grid, 2)
    assert np.max(np.abs(y2h2 - (1.0 - grid ** 2))) < 1e-12
    assert src.eval(2.0, 1) == 0.0


# -- closed-form equilibrium tails ---------------------------------------------------

TAIL_P = (0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 3.0)
TAIL_Y = np.geomspace(1e-9, 1e12, 22)
# every source the scenario schema accepts, as (source section, cutoff)
TAIL_SOURCES = {
    "constant": ({"kind": "constant"}, None),
    "log": ({"kind": "kernel_inf", "kernel": "log"}, None),
    "compact": ({"kind": "kernel_inf", "kernel": "compact"}, 1.0),
    # p/c < 0.5 takes the other closed form of the compact tail
    "compact_c40": ({"kind": "kernel_inf", "kernel": "compact", "cutoff": 40.0}, 40.0),
    "inv_square": ({"kind": "kernel_inf", "kernel": "inv_square"}, None),
    "compact_p": ({"kind": "kernel_p", "kernel": "compact", "cutoff": 4.0}, 4.0),
    "inv_square_p": ({"kind": "kernel_p", "kernel": "inv_square"}, None),
}


def _mp_excess(mp, section, p, c):
    """u -> h(u) - h_inf in mpmath, with kp = p as the schema defaults it."""
    kind, name = section["kind"], section.get("kernel")

    def compact_inf(u):
        return -1.5 + mp.log(c / u) + 2 * u / c - u * u / (2 * c * c)

    def g(u):
        if kind == "constant":
            return mp.mpf(0)
        if name == "log":
            return mp.log1p(1 / u)
        if name == "inv_square":
            inf = mp.log1p(1 / u) - 1 / (1 + u)
            return inf if kind == "kernel_inf" else 1 / (1 + u) + p * inf
        if u >= c:
            return mp.mpf(0)
        if kind == "kernel_inf":
            return compact_inf(u)
        return (c - u) ** 3 / (3 * c * c) + p * compact_inf(u)

    return g


@pytest.mark.parametrize("name", list(TAIL_SOURCES))
def test_equilibrium_tail_matches_mpmath(name):
    # J(y) = int_y^inf p h/(p+u)^2 du against 30-digit quadrature, segment by
    # segment from the largest y down; measured worst relative error 5.4e-14
    # (inv_square, just above the pole-spread switch).
    # Extra points cover the switches between series and closed forms: the
    # relative pole spread 0.1 near y = 10 max(1, p), and e = 1 - y/c = 0.5.
    mp = pytest.importorskip("mpmath")
    from nltransport.config import validate

    section, c = TAIL_SOURCES[name]
    ys = np.concatenate([TAIL_Y, np.geomspace(2.0, 200.0, 9)])
    if c is not None:
        ys = np.concatenate([ys, c * np.array([0.3, 0.45, 0.55, 0.8, 0.95, 0.999])])
    ys = np.unique(ys)
    worst = 0.0
    with mp.workdps(30):
        for p in TAIL_P:
            mp_p = mp.mpf(p)
            g = _mp_excess(mp, section, mp_p, None if c is None else mp.mpf(c))
            f = lambda u: mp_p * g(u) / (mp_p + u) ** 2
            knots = [mp.mpf(y) for y in ys]
            excess = [mp.quad(f, [knots[-1], 10 * knots[-1], mp.inf])]
            for lo, hi in zip(knots[-2::-1], knots[:0:-1]):
                inner = [c] if c is not None and lo < c < hi else []
                excess.append(excess[-1] + mp.quad(f, [lo] + inner + [hi]))
            excess = excess[::-1]
            for h_inf in (1.0, 1e-6):
                doc = {"experiment": "equilibrium",
                       "model": {"p": p, "source": dict(section, h_inf=h_inf)}}
                src = validate(doc).build_source()
                got = src.equilibrium_tail(ys, p)
                ref = np.array([float(mp_p * h_inf / (mp_p + y) + e)
                                for y, e in zip(knots, excess)])
                worst = max(worst, float(np.max(np.abs(got / ref - 1.0))))
    print(f"{name}: worst relative error {worst:.2e}")
    assert worst < 1e-13
