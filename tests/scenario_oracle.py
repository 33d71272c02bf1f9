"""The per-generator scenario loops, kept as a test-only oracle.

This is how ``glocal.scenarios`` built its cases before every generator
went through one zoned-grid builder: the two-patch plane, the cube grids
and the rod each had a loop of their own that clamped x = 0, labelled
each zone's cells, meshed the zone finer, scaled the coefficient in a
centred ball and clamped a patch on x = 0.  Each function returns what
its generator hands to ``build_scenario``, ``((global, labels, fine),
{"name": name})``, and assembles nothing.  Nothing in ``src/`` imports
it.
"""

from __future__ import annotations

import numpy as np

from glocal.model_problems import (build_structured_mesh, nodes_on_plane,
                                   scale_coefficient_in_ball, with_dirichlet)


def _kind(problem):
    return "thermal" if problem == "thermal" else "elastic"


def _zone_cells_2d(nx, ny, zone):
    i0, i1, j0, j1 = zone
    cells = (np.arange(i0, i1)[:, None] * ny + np.arange(j0, j1)).ravel()
    return (2 * cells[:, None] + np.arange(2)).ravel()


def _default_zones_2d(nx, ny):
    j0, j1 = round(0.25 * ny), round(0.75 * ny)
    return ((round(0.25 * nx), round(0.4375 * nx), j0, j1),
            (round(0.625 * nx), round(0.8125 * nx), j0, j1))


def two_patch_2d(problem="thermal", *, nx=16, ny=None, extent=(2.0, 1.0),
                 zones=None, refine=2, contrast=10.0, stiff=False,
                 name=None):
    kind = _kind(problem)
    if ny is None:
        ny = nx // 2
    if zones is None:
        zones = _default_zones_2d(nx, ny)

    glob = build_structured_mesh(2, (nx, ny), extent, kind=kind)
    glob = with_dirichlet(glob, nodes_on_plane(glob, 0, 0.0))

    hx, hy = extent[0] / nx, extent[1] / ny
    labels = np.zeros(glob.element_count, dtype=np.int64)
    fine = {}
    for sid, zone in enumerate(zones, start=1):
        labels[_zone_cells_2d(nx, ny, zone)] = sid
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
    return (glob, labels, fine), {"name": name}


def fine_equals_global_2d(problem="thermal", *, nx=16, ny=None,
                          extent=(2.0, 1.0), zones=None):
    return two_patch_2d(problem, nx=nx, ny=ny, extent=extent, zones=zones,
                        refine=1, contrast=1.0,
                        name=f"fine-equals-global-2d-{problem}")


def _cube_scenario(problem, shape, cells_per_side, refine_of, contrast,
                   stiff, inclusion_radius, name):
    kind = _kind(problem)
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
                origin = (float(ci), float(cj), float(ck))
                mesh = build_structured_mesh(3, (m * r,) * 3, (1.0,) * 3,
                                             origin=origin, kind=kind)
                center = (ci + 0.5, cj + 0.5, ck + 0.5)
                mesh = scale_coefficient_in_ball(mesh, center,
                                                 inclusion_radius, scale)
                if ci == 0:
                    mesh = with_dirichlet(mesh, nodes_on_plane(mesh, 0, 0.0))
                fine[sid] = mesh
    return (glob, labels, fine), {"name": name}


def cube_grid_3d(n=2, problem="thermal", *, cells_per_side=2, refine=2,
                 contrast=10.0, stiff=False, inclusion_radius=0.35,
                 name=None):
    if name is None:
        name = f"cube-grid-3d-{problem}-n{n}"
    return _cube_scenario(problem, (n, n, n), cells_per_side,
                          lambda ci, cj, ck: refine, contrast, stiff,
                          inclusion_radius, name)


def imbalanced_grid(problem="thermal", *, shape=(4, 2, 2), cells_per_side=2,
                    contrast=1000.0, seed=0, refine_choices=(1, 2, 3, 4),
                    uniform_refine=None, name=None):
    if uniform_refine is not None:
        refine_of = lambda ci, cj, ck: uniform_refine
        tag = f"balanced-r{uniform_refine}"
    else:
        rng = np.random.default_rng(seed)
        draws = rng.choice(refine_choices, size=shape)
        refine_of = lambda ci, cj, ck: int(draws[ci, cj, ck])
        tag = f"imbalanced-s{seed}"
    if name is None:
        name = f"grid-3d-{problem}-{tag}"
    return _cube_scenario(problem, shape, cells_per_side, refine_of,
                          contrast, True, 0.35, name)


def chain_1d(problem="thermal", *, n_cells=8, zones=((2, 4), (5, 7)),
             refine=2, contrast=2.0):
    glob = build_structured_mesh(1, (n_cells,), float(n_cells))
    glob = with_dirichlet(glob, nodes_on_plane(glob, 0, 0.0))

    labels = np.zeros(n_cells, dtype=np.int64)
    fine = {}
    for sid, (e0, e1) in enumerate(zones, start=1):
        labels[e0:e1] = sid
        width = float(e1 - e0)
        mesh = build_structured_mesh(1, ((e1 - e0) * refine,), width,
                                     origin=float(e0))
        fine[sid] = scale_coefficient_in_ball(mesh, e0 + width / 2.0,
                                              0.4 * width, contrast)
    return (glob, labels, fine), {"name": "chain-1d-thermal"}
