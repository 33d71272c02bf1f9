"""Non-invasive global/local coupling of elliptic models.

A coarse global model is corrected by independently meshed fine patches
through interface loads alone: each step solves the unchanged global
model under the current load, hands interface traces to the patches,
and feeds the mismatch of their reactions back as the next load.  The
solvers here run that loop synchronously (optionally Aitken
accelerated), asynchronously with bounded staleness, and under a
threaded executor, and the spectral tools certify which relaxations
contract before anything is run.
"""

from .errors import (ConfigError, DivergenceError, GeometryError,
                     GlocalError, LivelockError, MeshError, ScheduleError,
                     SingularInteriorError, StagnationError, TopologyError)
from .model_problems import (AssembledSystem, Material, MeshModel, assemble,
                             assemble_elasticity, assemble_poisson,
                             build_structured_mesh, element_centroids,
                             extract_submesh, nodes_on_plane,
                             scale_coefficient_in_ball, solve_direct,
                             with_dirichlet)
from .condensation import (CondensedOperator, condense, dirichlet_to_neumann,
                           expand_interior)
from .coupling import (CouplingScenario, Subdomain, build_scenario,
                       build_transfer, interface_reaction, residual_offset)
from .solvers import (IterationRecord, ReferenceSolution, SolveReport,
                      aitken_update, compute_residual,
                      monolithic_reference, richardson_sync,
                      stop_threshold)
from .async_engine import (AsyncTrace, DelaySchedule, run_async_concurrent,
                           run_async_simulated, run_sync_concurrent)
from .spectral import (CertificateReport, CompanionSystem, SpectralBounds,
                       build_companion, certify_paracontraction,
                       generalized_alphas, generalized_spectrum,
                       relaxation_bounds, spectral_radius)
from .scenarios import (chain_1d, cube_grid_3d, fine_equals_global_2d,
                        imbalanced_grid, two_patch_2d)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DivergenceError", "GeometryError", "GlocalError",
    "LivelockError", "MeshError", "ScheduleError", "SingularInteriorError",
    "StagnationError", "TopologyError",
    "AssembledSystem", "Material", "MeshModel", "assemble",
    "assemble_elasticity", "assemble_poisson", "build_structured_mesh",
    "element_centroids", "extract_submesh", "nodes_on_plane",
    "scale_coefficient_in_ball", "solve_direct", "with_dirichlet",
    "CondensedOperator", "condense", "dirichlet_to_neumann", "expand_interior",
    "CouplingScenario", "Subdomain", "build_scenario", "build_transfer",
    "interface_reaction", "residual_offset",
    "IterationRecord", "ReferenceSolution", "SolveReport", "aitken_update",
    "compute_residual", "monolithic_reference", "stop_threshold",
    "richardson_sync",
    "AsyncTrace", "DelaySchedule", "run_async_concurrent",
    "run_async_simulated", "run_sync_concurrent",
    "CertificateReport", "CompanionSystem", "SpectralBounds",
    "build_companion", "certify_paracontraction", "generalized_alphas",
    "generalized_spectrum", "relaxation_bounds", "spectral_radius",
    "chain_1d", "cube_grid_3d", "fine_equals_global_2d", "imbalanced_grid",
    "two_patch_2d", "__version__",
]
