"""Small-amplitude breathers in Klein-Gordon lattices.

Construction pipeline: decompose the time-periodic problem over cosine
harmonics, solve the range (non-resonant) part by contraction, continue the
kernel part from the ground state of the discrete NLS limit by Newton, and
validate the resulting wave against the continuum approximant.
"""

from .breather import (
    Breather,
    PipelineConfig,
    ScalingTable,
    assemble_breather,
    error_vs_reference,
    kg_residual,
    load_breather,
    save_breather,
    scaling_study,
)
from .dynamics import integrate_period, lattice_hamiltonian
from .errors import (
    ConvergenceError,
    FormatError,
    GuardError,
    KGBreatherError,
    ResonanceError,
)
from .feminterp import functional_remainder
from .groundstate import sample_reference, solve_ground_state
from .kernelsolver import (
    DnlsProblem,
    hessian_diagnostics,
    solve_dnls_ground_state,
    solve_kernel_equation,
)
from .lattice import GridSpec
from .rangesolver import RangeOperator, solve_range_equation

__version__ = "0.1.0"

__all__ = [
    "Breather",
    "ConvergenceError",
    "DnlsProblem",
    "FormatError",
    "GridSpec",
    "GuardError",
    "KGBreatherError",
    "PipelineConfig",
    "RangeOperator",
    "ResonanceError",
    "ScalingTable",
    "assemble_breather",
    "error_vs_reference",
    "functional_remainder",
    "hessian_diagnostics",
    "integrate_period",
    "kg_residual",
    "lattice_hamiltonian",
    "load_breather",
    "sample_reference",
    "save_breather",
    "scaling_study",
    "solve_dnls_ground_state",
    "solve_ground_state",
    "solve_kernel_equation",
    "solve_range_equation",
]
