"""Exact Rabi dynamics for the six four-level atomic configurations.

The package classifies the six ways three driven dipole transitions can
connect four levels, reduces each to a time-independent rotating-frame
matrix through its SU(4) ladder structure, and solves the dynamics exactly
by a deterministic 4x4 eigendecomposition. A hand-written lab-frame RK4
integrator provides the independent cross-check route.
"""

from .algebra import (
    GeneratorSet,
    ShiftOperators,
    StructureConstants,
    VerificationReport,
    build_generators,
    build_shift_operators,
    structure_constants,
    verify_algebra,
)
from .dynamics import (
    FrameSolution,
    rk4_solve,
    schrodinger_rhs,
    solve_frame,
    trace_via_spectral,
)
from .errors import ConfigurationError, NumericsError
from .frame import (
    RotatingFrame,
    check_time_independence,
    frame_generator,
    resonant_drive,
    rotate,
)
from .models import (
    DriveParams,
    ModelConfig,
    ModelId,
    PopulationTrace,
    StateVector,
    catalog,
    get_model,
    hamiltonian_shift_form,
    hamiltonian_t,
)
from .spectral import (
    EigenSystem,
    compose_rotations,
    factor_orthogonal,
    jacobi_eigh,
)
from .symmetry import (
    InversionMap,
    check_inversion,
    inversion_partner,
    invert_drive,
    spin32_reduction,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DriveParams",
    "EigenSystem",
    "FrameSolution",
    "GeneratorSet",
    "InversionMap",
    "ModelConfig",
    "ModelId",
    "NumericsError",
    "PopulationTrace",
    "RotatingFrame",
    "ShiftOperators",
    "StateVector",
    "StructureConstants",
    "VerificationReport",
    "build_generators",
    "build_shift_operators",
    "catalog",
    "check_inversion",
    "check_time_independence",
    "compose_rotations",
    "factor_orthogonal",
    "frame_generator",
    "get_model",
    "hamiltonian_shift_form",
    "hamiltonian_t",
    "inversion_partner",
    "invert_drive",
    "jacobi_eigh",
    "resonant_drive",
    "rk4_solve",
    "rotate",
    "schrodinger_rhs",
    "solve_frame",
    "spin32_reduction",
    "structure_constants",
    "trace_via_spectral",
    "verify_algebra",
]
