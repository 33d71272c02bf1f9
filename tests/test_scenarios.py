"""Structure checks on the ready-made scenario generators, and the
generators checked against the per-generator loops they replaced."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import scenario_oracle
from glocal import (
    chain_1d,
    cli,
    cube_grid_3d,
    extract_submesh,
    fine_equals_global_2d,
    imbalanced_grid,
    scenarios,
    two_patch_2d,
)
from glocal.scenarios import _default_zones_2d
from test_coupling import scenario_inputs


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
    # Element 2 (8 i + j) + t is triangle t of global cell (i, j).
    cells = np.arange(scn.global_model.element_count).reshape(16, 8, 2)
    for sid, (i0, i1, j0, j1) in zip(scn.patch_ids, zones, strict=True):
        patch = scn.subdomains[sid]
        part, _ = extract_submesh(scn.global_model,
                                  cells[i0:i1, j0:j1].ravel())
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


@pytest.mark.parametrize("build, argument", [
    (lambda: chain_1d(refine=1.5), "refine"),
    (lambda: chain_1d(n_cells=8.0), "n_cells"),
    (lambda: two_patch_2d(refine=2.5), "refine"),
    (lambda: two_patch_2d(nx=16.5), "nx"),
    (lambda: two_patch_2d(ny=True), "ny"),
    (lambda: two_patch_2d(contrast=math.nan), "contrast"),
    (lambda: two_patch_2d(contrast=math.inf), "contrast"),
    (lambda: cube_grid_3d(1, refine=True), "refine"),
    (lambda: imbalanced_grid(uniform_refine=1.5), "uniform_refine"),
    (lambda: imbalanced_grid(refine_choices=(1.5,)), "refine_choices"),
    (lambda: imbalanced_grid(shape=(2, 1.0, 1)), "shape"),
])
def test_generators_reject_non_integer_counts(build, argument):
    with pytest.raises(ValueError, match=argument):
        build()


def test_zones_must_fit_the_grid_and_stay_off_the_clamp():
    with pytest.raises(ValueError, match="x = 0"):
        chain_1d(zones=((0, 2),))
    for zones in (((6, 9),), ((2, 1),), ((2.0, 4),)):
        with pytest.raises(ValueError, match="does not fit"):
            chain_1d(zones=zones)
    with pytest.raises(ValueError, match="overlap"):
        chain_1d(zones=((2, 5), (4, 6)))


# ---------------------------------------------------------------------------
# the per-generator loops as an oracle

# The benchmark's workloads, loaded from perfbench/ by file.
_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parent.parent / "perfbench"
    / "workloads.py")
workloads = sys.modules["workloads"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# Every build calls the generators through the modules that bind them, so
# the same call runs on the package and, patched, on the oracle.
ORACLE_BUILDS = {
    "chain": lambda: scenarios.chain_1d(),
    "two_patch_thermal": lambda: scenarios.two_patch_2d("thermal"),
    "two_patch_elastic": lambda: scenarios.two_patch_2d("elasticity"),
    "cube2_thermal": lambda: scenarios.cube_grid_3d(2, "thermal"),
    "imbalanced_thermal": lambda: scenarios.imbalanced_grid("thermal", seed=0),
    "fine_eq_thermal": lambda: scenarios.fine_equals_global_2d("thermal"),
    "fine_eq_elastic": lambda: scenarios.fine_equals_global_2d("elasticity"),
    "two_patch_stiff": lambda: scenarios.two_patch_2d(
        "elasticity", nx=8, stiff=True, contrast=4.0, name="bespoke"),
    "two_patch_zones": lambda: scenarios.two_patch_2d(
        "thermal", nx=12, ny=6, extent=(1.5, 1.0),
        zones=((1, 4, 0, 3), (4, 9, 2, 6)), refine=3),
    "chain_zones": lambda: scenarios.chain_1d(
        n_cells=10, zones=((1, 3), (3, 6), (8, 10)), refine=3, contrast=5.0),
    "cube3_elastic": lambda: scenarios.cube_grid_3d(
        3, "elasticity", stiff=True, inclusion_radius=0.2),
    "cube_cells_per_side_1": lambda: scenarios.cube_grid_3d(
        2, cells_per_side=1, refine=3),
    "imbalanced_shape_211": lambda: scenarios.imbalanced_grid(
        shape=(2, 1, 1), cells_per_side=1, seed=5),
    "imbalanced_seed_1009": lambda: scenarios.imbalanced_grid(
        "elasticity", seed=1009, refine_choices=(1, 3)),
    "balanced_r2": lambda: scenarios.imbalanced_grid(uniform_refine=2),
    "balanced_shape_211": lambda: scenarios.imbalanced_grid(
        shape=(2, 1, 1), cells_per_side=1, uniform_refine=3),
}
# The suites' cases cover every CLI geometry, the balanced grid included.
ORACLE_BUILDS.update({
    f"cli_{suite}_{tag}": lambda cfg=cfg: cli.build_case(cfg)
    for suite in cli.SUITES for tag, cfg, _ in cli._suite_cases(suite, [2, 3])
})
ORACLE_BUILDS.update({f"workload_{name}": w.build
                      for name, w in workloads.WORKLOADS.items()})


def oracle_inputs(monkeypatch, build):
    """What the per-generator loops handed to ``build_scenario`` for the
    same call."""
    with monkeypatch.context() as patched:
        for owner in (scenarios, cli):
            for name in scenarios.__all__:
                if hasattr(owner, name):
                    patched.setattr(owner, name,
                                    getattr(scenario_oracle, name))
        return build()


def assert_same_mesh(mesh, ref):
    assert mesh.dimension == ref.dimension
    assert mesh.nodes.dtype == ref.nodes.dtype
    assert np.array_equal(mesh.nodes, ref.nodes)
    assert mesh.elements.dtype == ref.elements.dtype
    assert np.array_equal(mesh.elements, ref.elements)
    assert mesh.material.kind == ref.material.kind
    assert mesh.material.poisson == ref.material.poisson
    assert np.array_equal(mesh.material.coeff, ref.material.coeff)
    assert mesh.dirichlet == ref.dirichlet


@pytest.mark.parametrize("name", ORACLE_BUILDS)
def test_generators_match_the_per_generator_loops(monkeypatch, name):
    build = ORACLE_BUILDS[name]
    (glob, labels, fine), kwargs = scenario_inputs(monkeypatch, build)
    (glob_ref, labels_ref, fine_ref), kwargs_ref = oracle_inputs(
        monkeypatch, build)
    assert kwargs == kwargs_ref
    assert_same_mesh(glob, glob_ref)
    assert labels.dtype == labels_ref.dtype
    assert np.array_equal(labels, labels_ref)
    assert list(fine) == list(fine_ref)
    for sid in fine:
        assert_same_mesh(fine[sid], fine_ref[sid])
