"""Workbench for a nonlocal transport model of coarsening.

Evolves the transport equation exactly along characteristics with a
self-consistent nonlocal coefficient, cross-validates it against the
equivalent scalar delay equation, runs the linearized stability machinery
(Volterra kernels, Laplace condition, decay fits) and certifies the
extremal properties of the delay functional with closed-form optimal
control values.
"""

import os as _os

# Runs are serial and their BLAS products small, so a second OpenBLAS thread
# costs CPU for little or no speed.  numpy reads the thread count when it
# loads, so this must come before the first import below; a caller's own
# setting is kept.
if not any(_name in _os.environ for _name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                              "OMP_NUM_THREADS", "MKL_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .errors import DomainError, ModelViolationError, NumericalError, StepError
from .functionals import FunctionalSpec, Profile, canonical_functional, weighted_norm
from .model import Model, apply_AB
from .sources import (SourceFn, compact_source, constant_source,
                      inv_square_p_source, log_source)

__all__ = [
    "DomainError", "ModelViolationError", "NumericalError", "StepError",
    "FunctionalSpec", "Profile", "canonical_functional", "weighted_norm",
    "Model", "apply_AB",
    "SourceFn", "compact_source", "constant_source", "inv_square_p_source",
    "log_source",
]
