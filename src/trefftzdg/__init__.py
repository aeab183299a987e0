"""Embedded Trefftz discontinuous Galerkin solver for 2D scalar
advection-reaction and diffusion-advection-reaction problems, with
box-restricted and quasi-Trefftz local operator variants and a
convergence-experiment CLI.
"""

from .analysis import (
    DiagnosticsReport,
    EocEstimate,
    ErrorReport,
    compute_errors,
    estimate_eoc,
    run_diagnostics,
)
from .basis import BrokenSpace, polynomial_exponents, space_dimension
from .cli import ExperimentConfig, run_experiment
from .coefficients import (
    BUILTIN_CASES,
    PdeCoefficients,
    ScalarField,
    VectorField,
    builtin_case,
    manufactured_case,
)
from .dg_forms import DgSystem, assemble_global_system, facet_alpha
from .embedding import (
    ElementEmbedding,
    GlobalEmbedding,
    assemble_global_embedding,
    build_embedding,
    compute_embedding,
    export_sigma_csv,
)
from .local_ops import (
    AR,
    DAR,
    DAR_BOX,
    KINDS,
    QT_DIFFUSION,
    ElementBox,
    LocalOperator,
    assemble_local_operator,
    assemble_local_operators,
    compute_box,
)
from .mesh import BOUNDARY, Mesh2D, build_structured_mesh
from .quadrature import (
    QuadratureRule,
    box_rule,
    facet_quadrature,
    triangle_rule,
    volume_quadrature,
)
from .solver import (
    BLOCK_COUPLED,
    EMBEDDED_TREFFTZ,
    STANDARD_DG,
    DiscreteSolution,
    SolverError,
    solve_block_coupled,
    solve_embedded_trefftz,
    solve_standard_dg,
)

__version__ = "0.1.0"
