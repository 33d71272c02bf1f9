"""Element-level oracles for the model problem assembly.

Every frozen array below was derived by hand from the P1/trilinear element
formulas before the assembly code was written; the tests check the code
against the numbers, not the other way around.
"""

import numpy as np
import pytest

from glocal import (
    MeshError,
    Material,
    MeshModel,
    assemble,
    assemble_elasticity,
    assemble_poisson,
    build_structured_mesh,
    element_centroids,
    extract_submesh,
    nodes_on_plane,
    scale_coefficient_in_ball,
    solve_direct,
    with_dirichlet,
)

# Plane strain at E = 1, nu = 0.3.
LAM = 0.5769230769230769
MU = 0.38461538461538464


def unit_triangle(kind="thermal"):
    return MeshModel(
        dimension=2,
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        elements=np.array([[0, 1, 2]]),
        material=Material(kind=kind, coeff=np.array([1.0])),
        dirichlet={},
    )


# ---------------------------------------------------------------------------
# frozen element matrices


def test_interval_element_matrix_frozen():
    mesh = build_structured_mesh(1, 1, 1.0)
    system = assemble_poisson(mesh, source=1.0)
    expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(system.stiffness.toarray(), expected, atol=1e-14)
    assert np.allclose(system.load, [0.5, 0.5], atol=1e-14)


def test_two_cell_chain_reduced_system_frozen():
    # Unit cells, x = 0 clamped: K_ff = [[2, -1], [-1, 1]], f = (1, 0.5).
    mesh = build_structured_mesh(1, 2, 2.0)
    mesh = with_dirichlet(mesh, nodes_on_plane(mesh, 0, 0.0))
    system = assemble_poisson(mesh, source=1.0)
    assert np.allclose(system.stiffness.toarray(),
                       [[2.0, -1.0], [-1.0, 1.0]], atol=1e-14)
    assert np.allclose(system.load, [1.0, 0.5], atol=1e-14)
    u = solve_direct(system)
    assert np.allclose(u[:, 0], [0.0, 1.5, 2.0], atol=1e-12)


def test_unit_triangle_stiffness_frozen():
    system = assemble_poisson(unit_triangle(), source=1.0)
    expected = 0.5 * np.array([
        [2.0, -1.0, -1.0],
        [-1.0, 1.0, 0.0],
        [-1.0, 0.0, 1.0],
    ])
    assert np.allclose(system.stiffness.toarray(), expected, atol=1e-14)
    assert np.allclose(system.load, np.full(3, 1.0 / 6.0), atol=1e-14)


def test_nonzero_dirichlet_moves_into_load():
    # Ends pinned to 1 and 0 with no source: the solution is linear in x.
    mesh = build_structured_mesh(1, 2, 2.0)
    mesh = with_dirichlet(mesh, [0], value=1.0)
    mesh = with_dirichlet(mesh, [2], value=0.0)
    u = solve_direct(assemble_poisson(mesh, source=0.0))
    assert np.allclose(u[:, 0], [1.0, 0.5, 0.0], atol=1e-12)


@pytest.mark.parametrize("dimension, kind", [(2, "thermal"), (2, "elastic"),
                                             (3, "thermal"), (3, "elastic")])
def test_assembled_stiffness_stores_no_zeros(dimension, kind):
    # Right triangles couple their two acute corners by an exact zero.
    mesh = build_structured_mesh(dimension, 3, 1.0, kind=kind)
    mesh = with_dirichlet(mesh, nodes_on_plane(mesh, 0, 0.0))
    stiffness = assemble(mesh).stiffness
    assert stiffness.nnz > 0
    assert np.count_nonzero(stiffness.data == 0.0) == 0


# ---------------------------------------------------------------------------
# patch tests: exact reproduction of linear fields


def test_linear_field_reproduced_2d():
    mesh = build_structured_mesh(2, (4, 2), (2.0, 1.0))
    mesh = with_dirichlet(mesh, nodes_on_plane(mesh, 0, 0.0), value=0.0)
    mesh = with_dirichlet(mesh, nodes_on_plane(mesh, 0, 2.0), value=2.0)
    u = solve_direct(assemble_poisson(mesh, source=0.0))
    assert np.allclose(u[:, 0], mesh.nodes[:, 0], atol=1e-12)


def test_linear_field_reproduced_3d():
    mesh = build_structured_mesh(3, 2, 1.0)
    mesh = with_dirichlet(mesh, nodes_on_plane(mesh, 0, 0.0), value=0.0)
    mesh = with_dirichlet(mesh, nodes_on_plane(mesh, 0, 1.0), value=1.0)
    u = solve_direct(assemble_poisson(mesh, source=0.0))
    assert np.allclose(u[:, 0], mesh.nodes[:, 0], atol=1e-12)


def test_constant_annihilation_and_source_partition():
    # Unreduced K maps constants to zero and the load integrates the source.
    rng = np.random.default_rng(3)
    for _ in range(5):
        div = tuple(int(d) for d in rng.integers(1, 4, size=3))
        ext = tuple(float(e) for e in rng.uniform(0.5, 2.0, size=3))
        mesh = build_structured_mesh(3, div, ext)
        system = assemble_poisson(mesh, source=2.0)
        ones = np.ones(system.dof_count)
        assert np.linalg.norm(system.stiffness @ ones) < 1e-10
        assert np.isclose(system.load.sum(), 2.0 * np.prod(ext), atol=1e-12)


def test_sheared_hexahedra_keep_exact_volume():
    # An affine shear has unit Jacobian everywhere; the 2x2x2 Gauss rule
    # must integrate the source exactly on such elements.
    mesh = build_structured_mesh(3, 2, 1.0)
    nodes = mesh.nodes.copy()
    nodes[:, 0] += 0.3 * nodes[:, 1]
    sheared = MeshModel(dimension=3, nodes=nodes, elements=mesh.elements,
                        material=mesh.material, dirichlet={})
    system = assemble_poisson(sheared, source=1.0)
    assert np.isclose(system.load.sum(), 1.0, atol=1e-13)


# ---------------------------------------------------------------------------
# elasticity: rigid modes and frozen energies


def flat(field):
    return np.asarray(field, dtype=float).reshape(-1)


def test_rigid_modes_annihilated_2d():
    mesh = build_structured_mesh(2, (3, 2), (1.5, 1.0), kind="elastic")
    k = assemble_elasticity(mesh).stiffness
    scale = np.abs(k).max()
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    for mode in (np.column_stack([np.ones_like(x), np.zeros_like(x)]),
                 np.column_stack([np.zeros_like(x), np.ones_like(x)]),
                 np.column_stack([-y, x])):
        assert np.linalg.norm(k @ flat(mode)) < 1e-10 * scale


def test_rigid_modes_annihilated_3d():
    mesh = build_structured_mesh(3, 2, 1.0, kind="elastic")
    k = assemble_elasticity(mesh).stiffness
    scale = np.abs(k).max()
    x, y, z = mesh.nodes.T
    zero = np.zeros_like(x)
    for mode in (np.column_stack([np.ones_like(x), zero, zero]),
                 np.column_stack([-y, x, zero]),
                 np.column_stack([zero, -z, y])):
        assert np.linalg.norm(k @ flat(mode)) < 1e-10 * scale


def strain_energy(system, field):
    u = flat(field)
    return 0.5 * float(u @ (system.stiffness @ u))


def test_uniaxial_and_shear_energies_frozen_2d():
    # u = (a x, 0):   energy density (lam + 2 mu) a^2 / 2  (plane strain)
    # u = (a y, 0):   energy density mu a^2 / 2             (pure shear)
    mesh = build_structured_mesh(2, 2, 1.0, kind="elastic")
    system = assemble_elasticity(mesh)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    zero = np.zeros_like(x)
    a = 0.7
    uni = strain_energy(system, np.column_stack([a * x, zero]))
    assert np.isclose(uni, 0.5 * (LAM + 2 * MU) * a**2, atol=1e-12)
    uni_y = strain_energy(system, np.column_stack([zero, a * y]))
    assert np.isclose(uni_y, 0.5 * (LAM + 2 * MU) * a**2, atol=1e-12)
    shear = strain_energy(system, np.column_stack([a * y, zero]))
    assert np.isclose(shear, 0.5 * MU * a**2, atol=1e-12)


def test_uniaxial_energy_frozen_3d():
    mesh = build_structured_mesh(3, 2, 1.0, kind="elastic")
    system = assemble_elasticity(mesh)
    x = mesh.nodes[:, 0]
    zero = np.zeros_like(x)
    a = 0.4
    energy = strain_energy(system, np.column_stack([a * x, zero, zero]))
    assert np.isclose(energy, 0.5 * (LAM + 2 * MU) * a**2, atol=1e-12)


def test_thermal_energy_tracks_scaled_coefficients():
    # For u = x the energy is half the coefficient-weighted area, which we
    # can also read directly off the material after scaling a ball.
    mesh = build_structured_mesh(2, 4, 1.0)
    mesh = scale_coefficient_in_ball(mesh, (0.5, 0.5), 0.3, 100.0)
    system = assemble_poisson(mesh)
    energy = strain_energy(system, mesh.nodes[:, 0])
    cell_area = (0.25 * 0.25) / 2.0
    assert np.isclose(energy, 0.5 * cell_area * mesh.material.coeff.sum(),
                      atol=1e-10)
    centroids = element_centroids(mesh)
    inside = np.linalg.norm(centroids - 0.5, axis=1) <= 0.3
    assert np.all(mesh.material.coeff[inside] == 100.0)
    assert np.all(mesh.material.coeff[~inside] == 1.0)


def test_elastic_load_integrates_body_force():
    mesh = build_structured_mesh(2, 3, (2.0, 1.0), kind="elastic")
    system = assemble_elasticity(mesh, body_force=(0.5, -2.0))
    totals = system.load.reshape(-1, 2).sum(axis=0)
    assert np.allclose(totals, [0.5 * 2.0, -2.0 * 2.0], atol=1e-12)


def test_direct_solve_matches_dense_oracle():
    mesh = build_structured_mesh(2, (5, 4), (1.0, 0.8), kind="elastic",
                                 coefficient=3.0)
    mesh = scale_coefficient_in_ball(mesh, (0.5, 0.4), 0.25, 10.0)
    mesh = with_dirichlet(mesh, nodes_on_plane(mesh, 0, 0.0))
    system = assemble(mesh)
    u = solve_direct(system)
    dense = np.linalg.solve(system.stiffness.toarray(), system.load)
    assert np.allclose(flat(u)[flat(system.dof_map) >= 0], dense, atol=1e-10)


# ---------------------------------------------------------------------------
# reduction bookkeeping


def test_dof_map_and_full_field_roundtrip():
    mesh = build_structured_mesh(2, 2, 1.0, kind="elastic")
    mesh = with_dirichlet(mesh, nodes_on_plane(mesh, 1, 0.0), value=0.0)
    system = assemble_elasticity(mesh)
    constrained = nodes_on_plane(mesh, 1, 0.0)
    assert np.all(system.dof_map[constrained] == -1)
    free = system.dof_map >= 0
    assert system.dof_count == int(free.sum())
    # Numbering is node-major with components fastest.
    assert np.array_equal(np.sort(system.dof_map[free]),
                          np.arange(system.dof_count))
    u = np.arange(system.dof_count, dtype=float)
    full = system.full_field(u)
    assert np.all(full[constrained] == 0.0)
    assert np.allclose(full[free], u[system.dof_map[free]])
    with pytest.raises(MeshError):
        system.node_dofs(constrained[:1])


def test_extract_submesh_restricts_everything():
    mesh = build_structured_mesh(2, (4, 2), (2.0, 1.0))
    mesh = scale_coefficient_in_ball(mesh, (0.25, 0.25), 0.2, 7.0)
    mesh = with_dirichlet(mesh, nodes_on_plane(mesh, 0, 0.0), value=1.0)
    keep = np.arange(4)
    sub, node_map = extract_submesh(mesh, keep)
    assert sub.element_count == 4
    assert np.allclose(sub.nodes, mesh.nodes[node_map])
    assert np.array_equal(node_map[sub.elements], mesh.elements[keep])
    assert np.allclose(sub.material.coeff, mesh.material.coeff[keep])
    for local, value in sub.dirichlet.items():
        parent = int(node_map[local])
        assert mesh.dirichlet[parent] == value
    kept_parents = set(int(n) for n in node_map)
    expected = {n for n in mesh.dirichlet if n in kept_parents}
    assert len(sub.dirichlet) == len(expected)


# ---------------------------------------------------------------------------
# validation


def test_material_validation():
    with pytest.raises(MeshError):
        Material(kind="magnetic", coeff=np.array([1.0]))
    with pytest.raises(MeshError):
        Material(kind="thermal", coeff=np.array([1.0, -2.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(MeshError):
            Material(kind="thermal", coeff=np.array([1.0, bad]))
    with pytest.raises(MeshError):
        Material(kind="elastic", coeff=np.array([1.0]), poisson=0.5)


def test_mesh_validation():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mat = Material(kind="thermal", coeff=np.array([1.0]))
    with pytest.raises(MeshError):  # wrong element width for 2D
        MeshModel(2, nodes, np.array([[0, 1]]), mat, {})
    with pytest.raises(MeshError):  # node reference out of range
        MeshModel(2, nodes, np.array([[0, 1, 3]]), mat, {})
    with pytest.raises(MeshError):  # repeated node in an element
        MeshModel(2, nodes, np.array([[0, 1, 1]]), mat, {})
    with pytest.raises(MeshError):  # coefficient count mismatch
        MeshModel(2, nodes, np.array([[0, 1, 2]]),
                  Material(kind="thermal", coeff=np.array([1.0, 1.0])), {})
    with pytest.raises(MeshError):  # dirichlet node out of range
        MeshModel(2, nodes, np.array([[0, 1, 2]]), mat, {5: 0.0})


def test_structured_mesh_validation():
    with pytest.raises(MeshError):
        build_structured_mesh(4, 2, 1.0)
    with pytest.raises(MeshError):
        build_structured_mesh(2, (0, 2), 1.0)
    with pytest.raises(MeshError):
        build_structured_mesh(2, 2, (1.0, -1.0))


def test_structured_mesh_rejects_non_integer_divisions():
    # Neither is truncated to a count: 2.5 cells is not 2, True is not 1.
    with pytest.raises(MeshError, match="divisions"):
        build_structured_mesh(1, (2.5,), 1.0)
    with pytest.raises(MeshError, match="divisions"):
        build_structured_mesh(2, (True, 3), 1.0)
    assert build_structured_mesh(2, (np.int64(2), 3), 1.0).element_count == 12


@pytest.mark.parametrize("dimension, divisions", [(1, 3), (2, (3, 2))])
def test_structured_mesh_reads_scalar_and_tuple_extents_alike(dimension,
                                                              divisions):
    # A float32 extent or origin is read as the same Python float in
    # either form, so both space their axes in float64 alike.
    extent, origin = np.float32(0.3), np.float32(0.1)
    scalar = build_structured_mesh(dimension, divisions, extent,
                                   origin=origin)
    tupled = build_structured_mesh(dimension, divisions, (extent,) * dimension,
                                   origin=(origin,) * dimension)
    assert scalar.nodes.dtype == tupled.nodes.dtype == np.float64
    assert np.array_equal(scalar.nodes, tupled.nodes)


def test_assembly_validation():
    thermal = build_structured_mesh(2, 2, 1.0)
    elastic = build_structured_mesh(2, 2, 1.0, kind="elastic")
    with pytest.raises(MeshError):
        assemble_poisson(elastic)
    with pytest.raises(MeshError):
        assemble_elasticity(thermal)
    with pytest.raises(MeshError):
        assemble_elasticity(build_structured_mesh(1, 2, 1.0, kind="elastic"))
    with pytest.raises(MeshError):
        assemble_elasticity(elastic, body_force=(1.0, 0.0, 0.0))
    collinear = MeshModel(
        2, np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        np.array([[0, 1, 2]]),
        Material(kind="thermal", coeff=np.array([1.0])), {})
    with pytest.raises(MeshError):
        assemble_poisson(collinear)
    cube = build_structured_mesh(3, 1, 1.0)
    flipped = cube.elements[:, [4, 5, 6, 7, 0, 1, 2, 3]]
    inverted = MeshModel(3, cube.nodes, flipped, cube.material, {})
    with pytest.raises(MeshError):
        assemble_poisson(inverted)
    with pytest.raises(MeshError):
        extract_submesh(thermal, np.array([], dtype=np.int64))
    # The ball at (5, 5) holds no element, so only the checks can object.
    for center, radius, scale in [
            ((0.5, 0.5), 0.1, -1.0), ((5.0, 5.0), 0.1, float("nan")),
            ((5.0, 5.0), 0.1, float("inf")),
            ((0.5, 0.5), float("nan"), 2.0), ((0.5, 0.5), -1.0, 2.0),
            ((0.5, 0.5), float("inf"), 2.0), ((float("nan"), 0.5), 0.1, 2.0),
            ((0.5,), 0.1, 2.0), ((0.5, 0.5, 0.5), 0.1, 2.0)]:
        with pytest.raises(MeshError):
            scale_coefficient_in_ball(thermal, center, radius, scale)


# ---------------------------------------------------------------------------
# non-finite inputs are rejected where they enter


def test_nan_node_coordinates_are_rejected():
    mesh = build_structured_mesh(2, 2, 1.0)
    nodes = mesh.nodes.copy()
    nodes[4, 1] = np.nan
    with pytest.raises(MeshError):
        MeshModel(2, nodes, mesh.elements, mesh.material, {})


def test_infinite_dirichlet_value_is_rejected():
    mesh = build_structured_mesh(2, 2, 1.0)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(MeshError):
            with_dirichlet(mesh, nodes_on_plane(mesh, 0, 0.0), value=bad)


def test_nan_source_is_rejected():
    mesh = build_structured_mesh(2, 2, 1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(MeshError):
            assemble_poisson(mesh, source=bad)


def test_nan_body_force_is_rejected():
    mesh = build_structured_mesh(2, 2, 1.0, kind="elastic")
    for bad in ((np.nan, 0.0), (0.0, -np.inf)):
        with pytest.raises(MeshError):
            assemble_elasticity(mesh, body_force=bad)
