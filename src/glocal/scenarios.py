"""Ready-made coupled scenarios used by the test-suite and the CLI.

Every generator builds a homogeneous global model and hands the local
detail (refinement, inclusions, per-patch Dirichlet data) to the fine
patches only, which is the regime the coupling is meant for.  Each is a
thin wrapper over one builder, :func:`_zoned_scenario`, whose zones are
boxes of global cells: patch boundaries align with global element faces,
and the integer refinement of each box keeps every global interface node
coincident with a fine node.
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import CouplingScenario, build_scenario
from .model_problems import (_is_int, build_structured_mesh, nodes_on_plane,
                             scale_coefficient_in_ball, with_dirichlet)
# extract_submesh stays bound here: perfbench traces it by this name.
from .model_problems import extract_submesh  # noqa: F401

__all__ = ["two_patch_2d", "fine_equals_global_2d", "cube_grid_3d",
           "imbalanced_grid", "chain_1d"]

def _count(name: str, value) -> int:
    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _zoned_scenario(problem: str, divisions: tuple[int, ...], extent,
                    zones, refines, radius: float, contrast: float,
                    stiff: bool, name: str) -> CouplingScenario:
    """Structured grid clamped at x = 0 with one fine patch per zone.

    Zone ``(lo, hi)`` is the box of global cells ``lo <= cell < hi``.  Its
    patch re-meshes the box ``refines[k]`` times finer and scales the
    coefficient by ``contrast`` (by ``1/contrast`` unless ``stiff``) in
    the centred ball of ``radius`` times the box's shortest side.  A patch
    on x = 0 is clamped there too.
    """
    if problem not in ("thermal", "elasticity"):
        raise ValueError(f"problem {problem!r} is not thermal or elasticity")
    if not (math.isfinite(contrast) and contrast > 0):
        raise ValueError(f"contrast {contrast!r} is not finite and > 0")
    kind = "thermal" if problem == "thermal" else "elastic"
    glob = build_structured_mesh(len(divisions), divisions, extent, kind=kind)
    glob = with_dirichlet(glob, nodes_on_plane(glob, 0, 0.0))

    h = np.asarray(extent, dtype=float) / divisions
    scale = contrast if stiff else 1.0 / contrast
    labels = np.zeros(glob.element_count, dtype=np.int64)
    # Elements are numbered cell by cell, so a zone's are one box.
    cells = labels.reshape(*divisions, -1)
    fine = {}
    for sid, ((lo, hi), r) in enumerate(zip(zones, refines, strict=True),
                                        start=1):
        r = _count("refine", r)
        if not all(_is_int(a) and _is_int(b) and 0 <= a < b <= n
                   for a, b, n in zip(lo, hi, divisions, strict=True)):
            raise ValueError(f"zone {lo}..{hi} does not fit a "
                             f"{'x'.join(map(str, divisions))} grid")
        box = tuple(map(slice, lo, hi))
        if np.any(cells[box]):
            raise ValueError("zones overlap")
        cells[box] = sid
        span = np.subtract(hi, lo)
        origin, side = np.multiply(lo, h), span * h
        mesh = build_structured_mesh(len(divisions), span * r, side,
                                     origin=origin, kind=kind)
        mesh = scale_coefficient_in_ball(mesh, origin + side / 2.0,
                                         radius * side.min(), scale)
        if lo[0] == 0:
            mesh = with_dirichlet(mesh, nodes_on_plane(mesh, 0, 0.0))
        fine[sid] = mesh
    return build_scenario(glob, labels, fine, name=name)


def _off_the_clamp(zones):
    """The 1D and 2D fixtures keep their patches off the clamped edge."""
    if any(lo[0] == 0 for lo, _ in zones):
        raise ValueError("zones must stay off the clamped x = 0 edge")
    return zones


def _default_zones_2d(nx: int, ny: int):
    j0, j1 = round(0.25 * ny), round(0.75 * ny)
    return ((round(0.25 * nx), round(0.4375 * nx), j0, j1),
            (round(0.625 * nx), round(0.8125 * nx), j0, j1))


def two_patch_2d(problem: str = "thermal", *, nx: int = 16,
                 ny: int | None = None, extent: tuple[float, float] = (2.0, 1.0),
                 zones=None, refine: int = 2, contrast: float = 10.0,
                 stiff: bool = False, name: str | None = None) -> CouplingScenario:
    """Rectangle with a clamped left edge and two refined inclusion patches.

    The global model is homogeneous; each zone ``(i0, i1, j0, j1)`` of
    global cells is re-meshed ``refine`` times finer and carries a
    circular inclusion (softer by ``contrast`` by default, stiffer with
    ``stiff=True``) that the global model knows nothing about.
    """
    nx = _count("nx", nx)
    ny = _count("ny", nx // 2 if ny is None else ny)
    boxes = [((i0, j0), (i1, j1)) for i0, i1, j0, j1
             in (_default_zones_2d(nx, ny) if zones is None else zones)]
    if name is None:
        name = f"two-patch-2d-{problem}"
    return _zoned_scenario(problem, (nx, ny), extent, _off_the_clamp(boxes),
                           [refine] * len(boxes), 0.3, contrast, stiff, name)


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


def _cube_grid(shape, cells_per_side: int):
    """Divisions, extent and zones of a grid of unit cubes, one zone per
    cube in lexicographic order, each ``cells_per_side`` cells a side."""
    m = _count("cells_per_side", cells_per_side)
    shape = tuple(_count("shape", s) for s in shape)
    zones = [(tuple(m * c for c in cube), tuple(m * (c + 1) for c in cube))
             for cube in np.ndindex(*shape)]
    return tuple(m * s for s in shape), tuple(map(float, shape)), zones


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
    n = _count("n", n)
    if name is None:
        name = f"cube-grid-3d-{problem}-n{n}"
    return _zoned_scenario(problem, *_cube_grid((n, n, n), cells_per_side),
                           [refine] * n ** 3, inclusion_radius, contrast,
                           stiff, name)


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
    divisions, extent, zones = _cube_grid(shape, cells_per_side)
    if uniform_refine is not None:
        refines = [_count("uniform_refine", uniform_refine)] * len(zones)
        tag = f"balanced-r{uniform_refine}"
    else:
        if seed is None:
            raise ValueError("seed is required for the imbalanced variant")
        draws = np.random.default_rng(seed).choice(
            [_count("refine_choices", r) for r in refine_choices], size=shape)
        refines, tag = draws.ravel(), f"imbalanced-s{seed}"
    if name is None:
        name = f"grid-3d-{problem}-{tag}"
    return _zoned_scenario(problem, divisions, extent, zones, refines, 0.35,
                           contrast, True, name)


def chain_1d(problem: str = "thermal", *, n_cells: int = 8,
             zones: tuple[tuple[int, int], ...] = ((2, 4), (5, 7)),
             refine: int = 2, contrast: float = 2.0) -> CouplingScenario:
    """Small 1D rod fixture: cheap enough to check against hand algebra."""
    if problem != "thermal":
        raise ValueError("the 1D fixture is thermal only")
    n_cells = _count("n_cells", n_cells)
    boxes = _off_the_clamp([((e0,), (e1,)) for e0, e1 in zones])
    return _zoned_scenario(problem, (n_cells,), (float(n_cells),), boxes,
                           [refine] * len(boxes), 0.4, contrast, True,
                           "chain-1d-thermal")
