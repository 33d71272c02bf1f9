"""Ready-made coupled scenarios used by the test-suite and the CLI.

Every generator builds a homogeneous global model and hands the local
detail (refinement, inclusions, per-patch Dirichlet data) to the fine
patches only, which is the regime the coupling is meant for.  Zones are
specified in global cell indices so patch boundaries always align with
global element faces; the fine meshes refine those zones by an integer
factor, keeping every global interface node coincident with a fine node.
"""

from __future__ import annotations

import numpy as np

from .coupling import CouplingScenario, build_scenario
from .model_problems import (build_structured_mesh, nodes_on_plane,
                             scale_coefficient_in_ball, with_dirichlet)
# extract_submesh stays bound here: perfbench traces it by this name.
from .model_problems import extract_submesh  # noqa: F401

__all__ = ["two_patch_2d", "fine_equals_global_2d", "cube_grid_3d",
           "imbalanced_grid", "chain_1d"]

_PROBLEMS = ("thermal", "elasticity")


def _check_problem(problem: str) -> str:
    if problem not in _PROBLEMS:
        raise ValueError(f"problem must be one of {_PROBLEMS}, got "
                         f"{problem!r}")
    return "thermal" if problem == "thermal" else "elastic"


def _zone_cells_2d(nx: int, ny: int, zone: tuple[int, int, int, int]):
    i0, i1, j0, j1 = zone
    if not (0 < i0 < i1 <= nx and 0 <= j0 < j1 <= ny):
        raise ValueError(f"zone {zone} does not fit a {nx}x{ny} grid "
                         "(zones must stay off the x=0 edge)")
    cells = (np.arange(i0, i1)[:, None] * ny + np.arange(j0, j1)).ravel()
    return (2 * cells[:, None] + np.arange(2)).ravel()


def _default_zones_2d(nx: int, ny: int):
    j0, j1 = round(0.25 * ny), round(0.75 * ny)
    return ((round(0.25 * nx), round(0.4375 * nx), j0, j1),
            (round(0.625 * nx), round(0.8125 * nx), j0, j1))


def two_patch_2d(problem: str = "thermal", *, nx: int = 16,
                 ny: int | None = None, extent: tuple[float, float] = (2.0, 1.0),
                 zones=None, refine: int = 2, contrast: float = 10.0,
                 stiff: bool = False, name: str | None = None) -> CouplingScenario:
    """Rectangle with a clamped left edge and two refined inclusion patches.

    The global model is homogeneous; each zone is re-meshed ``refine``
    times finer and carries a circular inclusion (softer by ``contrast``
    by default, stiffer with ``stiff=True``) that the global model knows
    nothing about.
    """
    kind = _check_problem(problem)
    if ny is None:
        ny = nx // 2
    if refine < 1:
        raise ValueError("refine must be at least 1")
    if contrast <= 0:
        raise ValueError("contrast must be positive")
    if zones is None:
        zones = _default_zones_2d(nx, ny)

    glob = build_structured_mesh(2, (nx, ny), extent, kind=kind)
    glob = with_dirichlet(glob, nodes_on_plane(glob, 0, 0.0))

    hx, hy = extent[0] / nx, extent[1] / ny
    labels = np.zeros(glob.element_count, dtype=np.int64)
    fine = {}
    for sid, zone in enumerate(zones, start=1):
        cells = _zone_cells_2d(nx, ny, zone)
        if np.any(labels[cells]):
            raise ValueError("zones overlap")
        labels[cells] = sid
        i0, i1, j0, j1 = zone
        width, height = (i1 - i0) * hx, (j1 - j0) * hy
        mesh = build_structured_mesh(
            2, ((i1 - i0) * refine, (j1 - j0) * refine), (width, height),
            origin=(i0 * hx, j0 * hy), kind=kind)
        center = (i0 * hx + width / 2.0, j0 * hy + height / 2.0)
        radius = 0.3 * min(width, height)
        scale = contrast if stiff else 1.0 / contrast
        fine[sid] = scale_coefficient_in_ball(mesh, center, radius, scale)

    if name is None:
        name = f"two-patch-2d-{problem}"
    return build_scenario(glob, labels, fine, name=name)


def fine_equals_global_2d(problem: str = "thermal", *, nx: int = 16,
                          ny: int | None = None,
                          extent: tuple[float, float] = (2.0, 1.0),
                          zones=None) -> CouplingScenario:
    """Degenerate check case: the fine patches repeat the global zones.

    The two-patch case at refinement 1 and contrast 1, so each patch has
    the global zone's cells and coefficients (node coordinates to within
    an ulp).  The coupled solution is then the plain global solution and
    the initial residual vanishes to roundoff.
    """
    return two_patch_2d(problem, nx=nx, ny=ny, extent=extent, zones=zones,
                        refine=1, contrast=1.0,
                        name=f"fine-equals-global-2d-{problem}")


def _cube_scenario(problem: str, shape: tuple[int, int, int],
                   cells_per_side: int, refine_of, contrast: float,
                   stiff: bool, inclusion_radius: float,
                   name: str) -> CouplingScenario:
    kind = _check_problem(problem)
    if cells_per_side < 1:
        raise ValueError("cells_per_side must be at least 1")
    if contrast <= 0:
        raise ValueError("contrast must be positive")
    sx, sy, sz = shape
    m = cells_per_side
    divisions = (sx * m, sy * m, sz * m)
    extent = (float(sx), float(sy), float(sz))

    glob = build_structured_mesh(3, divisions, extent, kind=kind)
    glob = with_dirichlet(glob, nodes_on_plane(glob, 0, 0.0))

    # Element (i*ny + j)*nz + k is cell (i, j, k) of cube (i, j, k) // m.
    cube = np.indices(divisions).reshape(3, -1) // m
    labels = 1 + (cube[0] * sy + cube[1]) * sz + cube[2]

    fine = {}
    scale = contrast if stiff else 1.0 / contrast
    for ci in range(sx):
        for cj in range(sy):
            for ck in range(sz):
                sid = 1 + (ci * sy + cj) * sz + ck
                r = refine_of(ci, cj, ck)
                if r < 1:
                    raise ValueError("refine must be at least 1")
                origin = (float(ci), float(cj), float(ck))
                mesh = build_structured_mesh(3, (m * r,) * 3, (1.0,) * 3,
                                             origin=origin, kind=kind)
                center = (ci + 0.5, cj + 0.5, ck + 0.5)
                mesh = scale_coefficient_in_ball(mesh, center,
                                                 inclusion_radius, scale)
                if ci == 0:
                    # Shares the clamped x=0 face; the patch must agree.
                    mesh = with_dirichlet(mesh, nodes_on_plane(mesh, 0, 0.0))
                fine[sid] = mesh
    return build_scenario(glob, labels, fine, name=name)


def cube_grid_3d(n: int = 2, problem: str = "thermal", *,
                 cells_per_side: int = 2, refine: int = 2,
                 contrast: float = 10.0, stiff: bool = False,
                 inclusion_radius: float = 0.35,
                 name: str | None = None) -> CouplingScenario:
    """n x n x n grid of unit-cube patches with one inclusion per cube.

    Every element belongs to some patch, so there is no complement; the
    problem size grows with the domain while each patch stays fixed,
    which is the weak-scaling configuration.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if name is None:
        name = f"cube-grid-3d-{problem}-n{n}"
    return _cube_scenario(problem, (n, n, n), cells_per_side,
                          lambda ci, cj, ck: refine, contrast, stiff,
                          inclusion_radius, name)


def imbalanced_grid(problem: str = "thermal", *,
                    shape: tuple[int, int, int] = (4, 2, 2),
                    cells_per_side: int = 2, contrast: float = 1000.0,
                    seed: int | None = 0,
                    refine_choices: tuple[int, ...] = (1, 2, 3, 4),
                    uniform_refine: int | None = None,
                    name: str | None = None) -> CouplingScenario:
    """Grid of cube patches with per-patch refinement drawn from a seed.

    Patch costs then differ by up to (max/min refine)^3, which is what
    makes asynchronous progress pay off.  Pass ``uniform_refine`` for the
    balanced twin used as the comparison baseline.
    """
    if uniform_refine is not None:
        refine_of = lambda ci, cj, ck: uniform_refine
        tag = f"balanced-r{uniform_refine}"
    else:
        if seed is None:
            raise ValueError("seed is required for the imbalanced variant")
        rng = np.random.default_rng(seed)
        sx, sy, sz = shape
        draws = rng.choice(refine_choices, size=(sx, sy, sz))
        refine_of = lambda ci, cj, ck: int(draws[ci, cj, ck])
        tag = f"imbalanced-s{seed}"
    if name is None:
        name = f"grid-3d-{problem}-{tag}"
    return _cube_scenario(problem, shape, cells_per_side, refine_of,
                          contrast, True, 0.35, name)


def chain_1d(problem: str = "thermal", *, n_cells: int = 8,
             zones: tuple[tuple[int, int], ...] = ((2, 4), (5, 7)),
             refine: int = 2, contrast: float = 2.0) -> CouplingScenario:
    """Small 1D rod fixture: cheap enough to check against hand algebra."""
    if problem != "thermal":
        raise ValueError("the 1D fixture is thermal only")
    glob = build_structured_mesh(1, (n_cells,), float(n_cells))
    glob = with_dirichlet(glob, nodes_on_plane(glob, 0, 0.0))

    labels = np.zeros(n_cells, dtype=np.int64)
    fine = {}
    for sid, (e0, e1) in enumerate(zones, start=1):
        if not 0 < e0 < e1 <= n_cells:
            raise ValueError(f"zone ({e0}, {e1}) does not fit the rod")
        if np.any(labels[e0:e1]):
            raise ValueError("zones overlap")
        labels[e0:e1] = sid
        width = float(e1 - e0)
        mesh = build_structured_mesh(1, ((e1 - e0) * refine,), width,
                                     origin=float(e0))
        fine[sid] = scale_coefficient_in_ball(mesh, e0 + width / 2.0,
                                              0.4 * width, contrast)
    return build_scenario(glob, labels, fine, name="chain-1d-thermal")
