import numpy as np
import pytest

from nltransport import canonical_functional, log_source
from nltransport.errors import DomainError
from nltransport.functionals import FunctionalSpec, Profile, weighted_norm


@pytest.fixture(scope="module")
def unit_spec():
    # q=1, eps0=1, a = y^-2, b = 1
    return FunctionalSpec(q=1.0, eps0=1.0, a=lambda y: y ** -2.0,
                          b=lambda y: np.ones_like(np.asarray(y, float)))


def test_value_constant_two(unit_spec):
    # I = int_1^inf y^-2 / 3 dy = 1/3
    assert abs(unit_spec.value(Profile.constant(2.0)) - 1.0 / 3.0) < 1e-10


def test_value_zero_profile(unit_spec):
    assert abs(unit_spec.value(Profile.constant(0.0)) - 1.0) < 1e-10


def test_monotone_in_profile(unit_spec):
    rng = np.random.default_rng(7)
    for _ in range(10):
        c1, gap = rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0)
        I1 = unit_spec.value(Profile.constant(c1))
        I2 = unit_spec.value(Profile.constant(c1 + gap))
        assert I1 >= I2


def test_gradient_closed_form(unit_spec):
    prof = Profile.constant(2.0)
    # dI = -(1/4)/9 = -1/36 at y = 2
    assert abs(unit_spec.gradient(prof, 2.0) - (-1.0 / 36.0)) < 1e-14
    # support cutoff below eps0
    assert unit_spec.gradient(prof, 0.5) == 0.0
    assert np.all(unit_spec.gradient(prof, np.geomspace(0.1, 100, 40)) <= 0.0)


def test_gateaux_derivative(unit_spec):
    # [I(zeta + eps phi) - I(zeta)]/eps -> <dI(zeta), phi>
    phi = lambda y: np.exp(-0.3 * y)
    base = Profile.constant(1.5)
    eps = 1e-6
    bumped = Profile(value=lambda y: base(y) + eps * phi(y),
                     deriv=lambda y: base.d(y) - eps * 0.3 * phi(y))
    fd = (unit_spec.value(bumped) - unit_spec.value(base)) / eps
    pairing = unit_spec.pair_gradient(base, phi)
    assert abs(fd - pairing) / abs(pairing) < 1e-5


def test_gradient_lipschitz_reported(unit_spec):
    # ||dI(z1) - dI(z2)||_L1 <= C ||z1 - z2||_inf with C stable under refinement
    rng = np.random.default_rng(11)
    pairs = [tuple(rng.uniform(0.0, 3.0, 2)) for _ in range(20)]
    ratios = []
    for n in (unit_spec.rule.n, 2 * unit_spec.rule.n):
        from nltransport.quadrature import HalfLineRule
        rule = HalfLineRule(unit_spec.eps0, n)
        best = 0.0
        for c1, c2 in pairs:
            g1 = -unit_spec.a(rule.y) / (1.0 + c1) ** 2
            g2 = -unit_spec.a(rule.y) / (1.0 + c2) ** 2
            l1 = float(np.dot(rule.w, np.abs(g1 - g2)))
            if abs(c1 - c2) > 1e-9:
                best = max(best, l1 / abs(c1 - c2))
        ratios.append(best)
    assert abs(ratios[0] - ratios[1]) <= 1e-3 * max(ratios)
    print(f"gradient Lipschitz constant ~ {ratios[-1]:.6f}")


def test_lower_bound_property(unit_spec):
    # I(zeta) >= c_M > 0 whenever ||zeta||_inf <= M
    M = 5.0
    c_M = 1.0 / (1.0 + M)  # exact infimum for constant b = 1
    rng = np.random.default_rng(3)
    worst = np.inf
    for _ in range(25):
        c = rng.uniform(0.0, M)
        worst = min(worst, unit_spec.value(Profile.constant(c)))
    assert worst >= c_M - 1e-12
    print(f"sampled functional floor c_M = {worst:.6f}")


def test_integrability_refinement_rejects_divergent():
    with pytest.raises(Exception):
        FunctionalSpec(q=1.0, eps0=1.0, a=lambda y: np.ones_like(y),
                       b=lambda y: np.ones_like(y))


def test_dominance_check():
    src = log_source(1.0)
    spec = canonical_functional(src)
    spec.check_dominates(src)
    bad = FunctionalSpec(q=1.0, eps0=1.0, a=lambda y: y ** -2.0,
                         b=lambda y: np.full_like(np.asarray(y, float), 0.5))
    with pytest.raises(DomainError):
        bad.check_dominates(src)


def test_weighted_norm_constant():
    assert abs(weighted_norm(Profile.constant(3.0), m=1) - 3.0) < 1e-14
    assert abs(weighted_norm(Profile.constant(3.0), m=2) - 3.0) < 1e-14


def test_weighted_norm_exponential():
    # sup of e^{-y}(1 + y) is 1, approached at y -> 0
    prof = Profile(value=lambda y: np.exp(-y), deriv=lambda y: -np.exp(-y),
                   second=lambda y: np.exp(-y))
    val = weighted_norm(prof, m=1)
    assert val <= 1.0 + 1e-12
    assert val >= 1.0 - 1e-6


def test_weighted_norm_equilibrium_grid_stability(log_model):
    prof = log_model.equilibrium_profile()
    g1 = np.geomspace(1e-3, 1e4, 400)
    g2 = np.geomspace(1e-3, 1e4, 800)
    n1 = weighted_norm(prof, m=1, grid=g1)
    n2 = weighted_norm(prof, m=1, grid=g2)
    assert abs(n1 - n2) < 1e-4 * max(n1, 1.0)


def test_second_derivative_fallback():
    prof = Profile(value=lambda y: np.exp(-y), deriv=lambda y: -np.exp(-y))
    y = np.array([0.7, 2.0])
    assert np.max(np.abs(prof.d2(y) - np.exp(-y))) < 1e-6
