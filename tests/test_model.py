import ast
import dataclasses
import pathlib

import numpy as np
import oracles
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

import nltransport
from nltransport import apply_AB, canonical_functional
from nltransport.errors import ModelViolationError
from nltransport.functionals import Profile
from nltransport.linstab import Linearization
from nltransport.model import Model
from nltransport.quadrature import tail_integral_refined
from nltransport.sources import (SourceFn, compact_kernel, compact_source,
                                 inv_square_kernel, inv_square_p_source,
                                 log_kernel, log_source)


def test_constant_source_equilibrium(const_model):
    # constant h makes the equilibrium the constant p * h_inf
    y = np.array([0.2, 1.0, 40.0])
    assert np.max(np.abs(const_model.equilibrium_values(y, 0) - 2.0)) < 1e-12
    assert np.max(np.abs(const_model.equilibrium_A(y) - 2.0)) < 1e-12


def test_constant_equilibrium_satisfies_stationarity(const_model):
    # B xi_p = h: for the constant case both sides are 1
    prof = const_model.equilibrium_profile()
    _, B = apply_AB(prof, 2.0, np.array([0.5, 3.0]))
    assert np.max(np.abs(B - 1.0)) < 1e-12


def test_log_equilibrium_against_adaptive_quadrature(log_model):
    h = lambda u: 1.0 + np.log1p(1.0 / u)
    for y in (0.3, 1.0, 12.0):
        body, _ = si.quad(lambda u: 2.0 * h(u) / (2.0 + u) ** 2, y, 1e4, limit=400)
        tail, _ = si.quad(lambda u: 2.0 * h(u) / (2.0 + u) ** 2, 1e4, np.inf,
                          limit=400)
        expect = (2.0 + y) * (body + tail)
        assert abs(log_model.equilibrium_values(y, 0) - expect) < 1e-8


def test_log_equilibrium_identity(log_model):
    # B xi_p reproduces the source
    prof = log_model.equilibrium_profile()
    y = np.array([0.5, 1.0, 5.0])
    _, B = apply_AB(prof, 2.0, y)
    assert np.max(np.abs(B - log_model.source.eval(y, 0))) < 1e-8


def test_stationarity_residual(log_model):
    grid = np.geomspace(0.01, 1e3, 60)
    assert np.max(np.abs(log_model.equilibrium_residual(grid))) < 1e-10


def test_apply_AB_constant_and_linear():
    const = Profile.constant(3.0)
    A, B = apply_AB(const, 2.0, 1.7)
    assert abs(A - 3.0) < 1e-14 and abs(B - 1.5) < 1e-14
    linear = Profile(value=lambda y: y, deriv=lambda y: np.ones_like(y))
    A, _ = apply_AB(linear, 2.0, 0.9)
    assert abs(A) < 1e-14


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.3, max_value=4.0),
       st.floats(min_value=0.2, max_value=8.0),
       st.floats(min_value=0.5, max_value=5.0))
def test_apply_AB_quadratic_random(a, y, p):
    prof = Profile(value=lambda u: a * u ** 2 + 1.0, deriv=lambda u: 2.0 * a * u)
    A, B = apply_AB(prof, p, y)
    assert abs(A - (a * y ** 2 + 1.0 - 2.0 * a * y ** 2)) < 1e-10
    assert abs(B - ((a * y ** 2 + 1.0) / p - (1.0 + y / p) * 2.0 * a * y)) < 1e-10


def test_rho_constant_closed_form(const_model):
    # all integrals elementary: numerator 2/9, denominator 4/9, rho = 1/2
    res = const_model.rho(const_model.equilibrium_profile())
    assert abs(res.numerator - 2.0 / 9.0) < 1e-10
    assert abs(res.denominator - 4.0 / 9.0) < 1e-10
    assert abs(res.rho - 0.5) < 1e-12


def test_rho_at_equilibrium_log(log_model):
    assert log_model.equilibrium_identity_gap() < 1e-8


def test_rho_above_equilibrium_threshold(log_model):
    # decreasing profiles above p h(eps0) push rho above 1/p
    c = 2.0 * float(log_model.source.eval(1.0, 0)) + 0.5
    prof = Profile(value=lambda y: c + np.exp(-y),
                   deriv=lambda y: -np.exp(-y))
    assert log_model.rho(prof).rho > 0.5


def test_b3_identity_random_profiles(log_model):
    """rho - 1/p computed directly equals the recentred pairing form."""
    rng = np.random.default_rng(5)
    spec = log_model.functional
    y = spec.nodes
    xi_p = log_model.xi_p_nodes
    dxi_p = log_model.dxi_p_nodes
    for _ in range(20):
        a = rng.uniform(-0.3, 0.6)
        b = rng.uniform(0.1, 1.5)
        zeta = xi_p * (1.0 + a * np.exp(-b * y))
        dzeta = dxi_p * (1.0 + a * np.exp(-b * y)) - xi_p * a * b * np.exp(-b * y)
        res = log_model.rho_from_samples(zeta, dzeta)
        lhs = res.rho - 0.5
        grad = spec.gradient_from_samples(zeta)
        Bdiff = (zeta - xi_p) / 2.0 - (1.0 + y / 2.0) * (dzeta - dxi_p)
        rhs = -spec.pair_from_samples(grad, Bdiff) / res.denominator
        assert abs(lhs - rhs) < 1e-8


def test_admissibility_floor_raises(log_model):
    # a steep negative slope makes <dI, zeta - y D zeta> overwhelm p I
    prof = Profile(value=lambda y: 0.1 * np.ones_like(np.asarray(y, float)),
                   deriv=lambda y: -40.0 / np.sqrt(1.0 + np.asarray(y, float)))
    with pytest.raises(ModelViolationError):
        log_model.rho(prof)


def test_linearization_checks_the_admissibility_floor(log_model):
    # dI <= 0 and A xi_p > 0 put the equilibrium denominator below p I, so a
    # floor of 1 sits above it; the linearization checks it through the model
    strict = Model(log_model.source, log_model.functional, log_model.p,
                   admissibility_floor=1.0)
    with pytest.raises(ModelViolationError):
        Linearization(strict)
    Linearization(log_model)


def test_only_the_model_forms_the_functional_from_samples():
    # I and dI from node samples, and so the admissibility denominator, come
    # from Model.pairing: no other module of the package calls the functional's
    # sample evaluators
    sample_calls = {"value_from_samples", "gradient_from_samples"}
    package = pathlib.Path(nltransport.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name in ("model.py", "functionals.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr not in sample_calls, \
                    f"{path.name}:{node.lineno} calls {node.func.attr}"


def test_gradient_floor_report(log_model):
    profiles = [log_model.equilibrium_profile(),
                log_model.equilibrium_profile().scaled(0.5),
                log_model.equilibrium_profile().scaled(2.0),
                Profile.constant(0.0), Profile.constant(4.0)]
    rep = oracles.gradient_floor_report(log_model, profiles)
    assert rep["n_profiles"] == 5
    assert not rep["nonpositive"]
    print(f"sampled infimum of I + <dI, h>: {rep['sampled_infimum']:.6f}")


def test_closed_form_profile_matches_quadrature(log_model):
    # the same log kernel with J's excess G integrated by mapped quadrature
    def eq_tail_quadrature(y, p):
        return tail_integral_refined(lambda u: p * np.log1p(1.0 / u) / (p + u) ** 2,
                                     y, scale=y + p)

    kernel = dataclasses.replace(log_kernel(), eq_tail_inf=eq_tail_quadrature)
    src = SourceFn(kind="kernel_inf", h_inf=1.0, kernel=kernel)
    quad = Model(src, log_model.functional, log_model.p)
    y = np.geomspace(1e-3, 1e8, 60)
    v1, d1 = log_model.equilibrium_profile().pair_eval(y)
    v2, d2 = quad.equilibrium_profile().pair_eval(y)
    assert np.max(np.abs(v1 - v2)) < 1e-9
    assert np.max(np.abs(d1 - d2)) < 1e-9


EQUILIBRIUM_SOURCES = {
    "log": lambda p: log_source(1.0),
    "compact": lambda p: compact_source(1e-6, 1.0),
    "inv_square": lambda p: SourceFn(kind="kernel_inf", h_inf=1.0,
                                     kernel=inv_square_kernel()),
    "compact_p": lambda p: SourceFn(kind="kernel_p", h_inf=1.0,
                                    kernel=compact_kernel(2.0), p=p),
    "inv_square_p": lambda p: inv_square_p_source(1e-6, p),
}


@pytest.mark.parametrize("p", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("name", list(EQUILIBRIUM_SOURCES))
def test_closed_form_equilibrium_identities(name, p):
    src = EQUILIBRIUM_SOURCES[name](p)
    model = Model(src, canonical_functional(src), p)
    y = np.geomspace(1e-6, 1e8, 300)
    h = src.eval(y, 0)
    xi, dxi = model.equilibrium_pair(y)
    # -h - xi' + (xi - y xi')/p vanishes to rounding of its terms (measured
    # <= 1.6e-16 relative); test_equilibrium_tail_matches_mpmath checks J itself
    scale = h + np.abs(dxi) + (xi + y * np.abs(dxi)) / p
    assert np.max(np.abs(model.equilibrium_residual(y)) / scale) < 1e-14
    # A xi_p = p [J + y h/(p+y)] equals xi_p - y xi_p'
    A = model.equilibrium_A(y)
    assert np.max(np.abs(A / (xi - y * dxi) - 1.0)) < 1e-13
