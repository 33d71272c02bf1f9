"""Structure checks on the ready-made scenario generators."""

import numpy as np
import pytest

from glocal import (
    cube_grid_3d,
    extract_submesh,
    fine_equals_global_2d,
    imbalanced_grid,
    two_patch_2d,
)
from glocal.scenarios import _default_zones_2d, _zone_cells_2d


def test_two_patch_structure(two_patch_thermal):
    scn = two_patch_thermal
    assert scn.name == "two-patch-2d-thermal"
    assert scn.subdomain_ids == (0, 1, 2)
    assert scn.ndof_per_node == 1
    # Default zones on a 16x8 grid of the 2x1 rectangle.
    p1 = scn.subdomains[1].mesh
    assert np.allclose(p1.nodes.min(axis=0), [0.5, 0.25])
    assert np.allclose(p1.nodes.max(axis=0), [0.875, 0.75])
    # refine=2 doubles the zone resolution: 3x4 cells -> 6x8 -> 96 triangles.
    assert p1.element_count == 96
    # Soft inclusion by default, unknown to the global model.
    assert p1.material.coeff.min() == pytest.approx(0.1)
    assert p1.material.coeff.max() == 1.0
    assert np.all(scn.global_model.material.coeff == 1.0)
    assert scn.subdomains[1].mesh.dirichlet == {}


def test_two_patch_options():
    scn = two_patch_2d("elasticity", nx=8, stiff=True, contrast=4.0,
                       name="bespoke")
    assert scn.name == "bespoke"
    assert scn.ndof_per_node == 2
    for sid in scn.patch_ids:
        coeff = scn.subdomains[sid].mesh.material.coeff
        assert coeff.max() == 4.0 and coeff.min() == 1.0
    with pytest.raises(ValueError):
        two_patch_2d("thermal", refine=0)
    with pytest.raises(ValueError):
        two_patch_2d("thermal", contrast=0.0)
    with pytest.raises(ValueError):
        two_patch_2d("thermal", zones=((1, 3, 0, 4), (2, 5, 0, 4)))


def test_fine_equals_global_reuses_the_global_cells(fine_eq_thermal):
    scn = fine_eq_thermal
    assert scn.name == "fine-equals-global-2d-thermal"
    zones = _default_zones_2d(16, 8)
    for sid, zone in zip(scn.patch_ids, zones, strict=True):
        patch = scn.subdomains[sid]
        part, _ = extract_submesh(scn.global_model,
                                  _zone_cells_2d(16, 8, zone))
        assert np.allclose(patch.mesh.nodes, part.nodes)
        assert np.array_equal(patch.mesh.elements, part.elements)
        assert np.allclose(patch.mesh.material.coeff, part.material.coeff)


def test_cube_grid_structure(cube2_thermal):
    scn = cube2_thermal
    assert scn.name == "cube-grid-3d-thermal-n2"
    assert scn.complement is None
    assert scn.patch_ids == tuple(range(1, 9))
    for sid in scn.patch_ids:
        fine = scn.subdomains[sid].mesh
        assert np.allclose(fine.nodes.max(axis=0)
                           - fine.nodes.min(axis=0), 1.0)
        # cells_per_side=2, refine=2 -> 4 cells per side.
        assert fine.element_count == 64
        touches_clamped_face = fine.nodes[:, 0].min() == 0.0
        assert bool(fine.dirichlet) == touches_clamped_face
        assert (fine.material.coeff.min() == pytest.approx(0.1)
                and fine.material.coeff.max() == 1.0)
    with pytest.raises(ValueError):
        cube_grid_3d(0)
    with pytest.raises(ValueError):
        cube_grid_3d(1, cells_per_side=0)


def test_imbalanced_grid_is_seeded():
    a = imbalanced_grid(shape=(2, 1, 1), cells_per_side=1, seed=5)
    b = imbalanced_grid(shape=(2, 1, 1), cells_per_side=1, seed=5)
    assert a.name == "grid-3d-thermal-imbalanced-s5" == b.name
    sizes_a = [a.subdomains[s].mesh.element_count for s in a.patch_ids]
    sizes_b = [b.subdomains[s].mesh.element_count for s in b.patch_ids]
    assert sizes_a == sizes_b
    # Hard inclusions: the imbalanced fixture models stiff inclusions.
    coeff = a.subdomains[1].mesh.material.coeff
    assert coeff.max() == pytest.approx(1000.0)

    flat = imbalanced_grid(shape=(2, 1, 1), cells_per_side=1,
                           uniform_refine=3)
    assert flat.name == "grid-3d-thermal-balanced-r3"
    assert all(flat.subdomains[s].mesh.element_count == 27
               for s in flat.patch_ids)
    with pytest.raises(ValueError):
        imbalanced_grid(seed=None)


def test_problem_name_validation():
    with pytest.raises(ValueError):
        two_patch_2d("acoustic")
    with pytest.raises(ValueError):
        fine_equals_global_2d("acoustic")
    with pytest.raises(ValueError):
        cube_grid_3d(1, "acoustic")
