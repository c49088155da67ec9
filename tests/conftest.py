"""Shared fixtures: canonical models and expensive session-scoped runs."""

import numpy as np
import pytest

from nltransport import canonical_functional, constant_source, log_source
from nltransport.functionals import FunctionalSpec
from nltransport.model import Model


@pytest.fixture(scope="session")
def const_model():
    src = constant_source(1.0)
    return Model(src, canonical_functional(src), 2.0)


@pytest.fixture(scope="session")
def log_model():
    src = log_source(1.0)
    return Model(src, canonical_functional(src), 2.0)


@pytest.fixture(scope="session")
def log_model_p3():
    src = log_source(1.0)
    return Model(src, canonical_functional(src), 3.0)


@pytest.fixture(scope="session")
def weak_log_model():
    """Log source with a weakly coupled functional (large constant b).

    The weak coupling keeps the feedback shift of the slow relaxation mode
    small, so perturbations decay at a rate close to 1/p.
    """
    src = log_source(1.0)
    b0 = 25.0 * float(src.eval(1.0, 0))
    spec = FunctionalSpec(q=1.0, eps0=1.0, a=lambda y: y ** -2.0,
                          b=lambda y: np.full_like(np.asarray(y, float), b0))
    return Model(src, spec, 2.0)


@pytest.fixture(scope="session")
def equiv_runs(log_model, log_model_p3):
    """The pinned equivalence scenario: p=2, initial data = equilibrium of p'=3,
    T=20, dt=0.01, both evolution routes, stride 1 (norm columns skipped)."""
    import time
    from nltransport import dde, pde
    xi0 = log_model_p3.equilibrium_profile()
    start = time.monotonic()
    traj_pde = pde.run(log_model, xi0, T=20.0, dt=0.01, stride=1, norms=False)
    traj_dde, fg = dde.run(log_model, xi0, T=20.0, dt=0.01, stride=1, norms=False)
    elapsed = time.monotonic() - start
    return {"pde": traj_pde, "dde": traj_dde, "fg": fg, "elapsed": elapsed}


@pytest.fixture(scope="session")
def linearization(log_model):
    from nltransport.linstab import Linearization
    return Linearization(log_model)


@pytest.fixture(scope="session")
def kernel_certificate(linearization):
    return linearization.monotonicity_certificate()
