"""Displacement-driven nonlocal elasticity toolkit.

Strain-gradient averaging lives in the kinematics: a two-sided weighted
integral of the displacement gradient replaces the pointwise gradient, the
stress law stays local, and the energy stays convex.  The package exposes
the kernel families and the averaging operator, closed-form dispersion of
the 1D solid, and static bending of Timoshenko beams and Mindlin plates on
that kinematics, plus a CSV-emitting command line front end.
"""

import os

# Before anything loads numpy: both bundled OpenBLAS copies read this once,
# when they load.  Their idle workers then spin for 2^20 cycles (well under
# 1 ms) instead of the default 2^28 (about 0.1 s), so one library's spinning
# pool does not hold the cores the other is computing on.  A value the user
# set is kept.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

from .beam import (
    BeamSection,
    CantileverTipLoad,
    SimplySupportedUniformLoad,
    TimoshenkoBeamModel,
)
from .config import ConfigError, RunConfig, parse_config
from .dispersion import (
    Material1D,
    dispersion_exponential,
    dispersion_powerlaw,
    numerical_dispersion,
)
from .kernels import (
    ExponentialKernel,
    KernelError,
    LocalDelta,
    PowerLawKernel,
    exponential,
    local,
    make_kernel,
    power_law,
)
from .operator import HorizonSpec, boundary_limit_value, build_operator_matrix, nonlocal_derivative
from .plate import MindlinPlateModel, PlateSection
from .results import ALPHA_FLOOR, KernelSpec, SweepResult, sweep

__version__ = "0.1.0"

__all__ = [
    "ALPHA_FLOOR",
    "BeamSection",
    "CantileverTipLoad",
    "ConfigError",
    "ExponentialKernel",
    "HorizonSpec",
    "KernelError",
    "KernelSpec",
    "LocalDelta",
    "Material1D",
    "MindlinPlateModel",
    "PlateSection",
    "PowerLawKernel",
    "RunConfig",
    "SimplySupportedUniformLoad",
    "SweepResult",
    "TimoshenkoBeamModel",
    "__version__",
    "boundary_limit_value",
    "build_operator_matrix",
    "dispersion_exponential",
    "dispersion_powerlaw",
    "exponential",
    "local",
    "make_kernel",
    "nonlocal_derivative",
    "numerical_dispersion",
    "parse_config",
    "power_law",
    "sweep",
]
