import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

from nltransport.errors import NumericalError
from nltransport.sources import compact_kernel
from nltransport.quadrature import (HalfLineRule, cumtrapz, tail_integral_refined,
                                    tail_integral_values, trapz_weights)


def test_inverse_square_exact():
    # int_1^inf y^-2 dy = 1
    assert abs(tail_integral_refined(lambda y: y ** -2.0, 1.0) - 1.0) < 1e-12


def test_exponential_tail():
    val = tail_integral_refined(lambda y: np.exp(-y), 0.5)
    assert abs(val - np.exp(-0.5)) < 1e-11


def test_matches_adaptive_quadrature():
    f = lambda y: np.log1p(1.0 / y) / (2.0 + y) ** 2
    ours = tail_integral_refined(f, 1.0)
    ref, _ = si.quad(f, 1.0, np.inf, limit=200)
    assert abs(ours - ref) < 1e-10


def test_tail_integral_refined_rejects_divergence():
    # (1 + 2/u)/(1 + u) ~ 1/u: the kernel_p tail of the log kernel diverges
    with pytest.raises(NumericalError, match="did not stabilize"):
        tail_integral_refined(lambda u: (1.0 + 2.0 / u) / (1.0 + u), np.array([1.0]))


def test_tail_integral_refined_resolves_compact_kernel_p():
    # the mapped quadrature of the compact kernel_p tail converges from 1e-4
    # up and agrees with the closed form (c - y)^3/(3c^2) + p tail_inf(y); the
    # kink of k at c limits it to 1.1e-8 (below 1e-6 it raises)
    kernel = compact_kernel(1.0)
    y = np.geomspace(1e-4, 0.99, 30)
    quad = tail_integral_refined(lambda u: (1.0 + 2.0 / u) * kernel.k(u), y,
                                 scale=1.0 + y)
    assert np.max(np.abs(quad - kernel.tail_p(y, 2.0))) < 1e-7


def test_tail_integral_vectorized_scaling():
    # large lower endpoints need the scale-aware substitution
    a = np.array([0.5, 10.0, 1e4, 3e6])
    vals = tail_integral_refined(lambda y: 1.0 / y ** 2, a)
    assert np.max(np.abs(vals - 1.0 / a)) < 1e-10


def test_tail_integral_result_is_shaped_like_lower_ends():
    # int_a^inf y^-2 dy = 1/a; a scalar end gives a 0-d result
    f = lambda y: 1.0 / y ** 2
    for val in (tail_integral_values(f, 1.0), tail_integral_values(f, 1.0, scale=2.0),
                tail_integral_refined(f, 1.0)):
        assert np.shape(val) == ()
        assert abs(val - 1.0) < 1e-10
    for shape in ((1,), (2, 3)):
        a = np.full(shape, 2.0)
        assert np.shape(tail_integral_values(f, a)) == shape
        assert np.shape(tail_integral_refined(f, a)) == shape


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=0.1, max_value=3.0))
def test_gaussian_decay_random_params(alpha, a):
    val = tail_integral_refined(lambda y: np.exp(-alpha * y), a)
    assert abs(val - np.exp(-alpha * a) / alpha) < 1e-9


def test_rule_reuse_matches_refined():
    rule = HalfLineRule(1.0, 256)
    f = lambda y: y ** -2.0 / (1.0 + np.exp(-y))
    assert abs(rule.integrate_values(f(rule.y)) - tail_integral_refined(f, 1.0)) < 1e-11


def test_cumtrapz_linear_exact():
    x = np.linspace(0.0, 2.0, 11)
    y = 3.0 * x + 1.0
    out = cumtrapz(y, x=x)
    exact = 1.5 * x ** 2 + x
    assert np.max(np.abs(out - exact)) < 1e-14


def test_trapz_weights_sum():
    w = trapz_weights(11, 0.1)
    assert abs(w.sum() - 1.0) < 1e-14
