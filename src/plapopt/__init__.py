"""p-Laplacian Neumann problems on planar meshes: boundary-load
rearrangement optimization and load-perturbation derivatives."""

__version__ = "0.1.0"

from .geometry import (
    DomainMesh,
    build_disk_mesh,
    build_square_mesh,
)
from .rearrangement import (
    LoadField,
    best_response,
    binary_load,
    comonotonicity_defect,
    random_step_load,
    step_load,
)
from .optimizer import (
    OptimizeConfig,
    OptimizeHistory,
    maximize_over_rearrangements,
)
from .perturbation import (
    DerivativeReport,
    TangentField,
    deriv_bvjump_formula,
    deriv_finite_difference,
    deriv_surfdiv_formula,
    deriv_volume_formula,
    derivative_report,
    flow,
    tangent_field,
    transport_load,
    transported_solution_check,
)
from .solver import (
    SolveConfig,
    SolveReport,
    SolverError,
    StateField,
    solve,
)

__all__ = [
    "DomainMesh",
    "build_disk_mesh",
    "build_square_mesh",
    "LoadField",
    "best_response",
    "binary_load",
    "comonotonicity_defect",
    "random_step_load",
    "step_load",
    "SolveConfig",
    "SolveReport",
    "SolverError",
    "StateField",
    "solve",
    "OptimizeConfig",
    "OptimizeHistory",
    "maximize_over_rearrangements",
    "DerivativeReport",
    "TangentField",
    "deriv_bvjump_formula",
    "deriv_finite_difference",
    "deriv_surfdiv_formula",
    "deriv_volume_formula",
    "derivative_report",
    "flow",
    "tangent_field",
    "transport_load",
    "transported_solution_check",
    "__version__",
]
