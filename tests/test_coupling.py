"""Transfer, assembly and scenario wiring checked against frozen geometry.

The interpolation weights below are hand-evaluated hat/bilinear values;
the residual identities are checked through two independent code paths
(direct subdomain reactions vs the compact operators scattered on Gamma).
The fine-side reaction the compact operators replace is kept below as an
oracle.
"""

import dataclasses

import numpy as np
import pytest

from glocal import (
    ConfigError,
    GeometryError,
    TopologyError,
    build_scenario,
    chain_1d,
    coupling,
    cube_grid_3d,
    fine_equals_global_2d,
    imbalanced_grid,
    build_structured_mesh,
    build_transfer,
    compute_residual,
    condense,
    dirichlet_to_neumann,
    interface_reaction,
    nodes_on_plane,
    residual_offset,
    scenarios,
    two_patch_2d,
    with_dirichlet,
)
from glocal.cli import coupled_dof_count
from glocal.coupling import patch_reactions
from reaction_oracle import loop_residual
from topology_oracle import interface_topology
from transfer_oracle import patch_transfer


# ---------------------------------------------------------------------------
# transfer operator


def test_exact_match_gives_permutation():
    rng = np.random.default_rng(0)
    gc = rng.uniform(size=(6, 2))
    perm = rng.permutation(6)
    j = build_transfer(gc, gc[perm], [(i,) for i in range(6)]).toarray()
    expected = np.zeros((6, 6))
    expected[np.arange(6), perm] = 1.0
    assert np.allclose(j, expected, atol=1e-14)


def test_segment_weights_frozen():
    gc = np.array([[0.0, 0.0], [1.0, 0.0]])
    j = build_transfer(gc, np.array([[0.25, 0.0]]), [(0, 1)]).toarray()
    assert np.allclose(j, [[0.75, 0.25]], atol=1e-12)


def test_bilinear_weights_frozen():
    corners = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    j = build_transfer(corners, np.array([[0.25, 0.5, 0.0]]),
                       [(0, 1, 3, 2)]).toarray()
    assert np.allclose(j, [[0.375, 0.125, 0.375, 0.125]], atol=1e-12)


def test_face_interior_point_prefers_four_corners():
    # The square's centre also lies on both diagonals; the four-corner
    # weights are the trace of the coarse element there, a two-point
    # diagonal average is not.
    corners = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    j = build_transfer(corners, np.array([[0.5, 0.5, 0.0]]),
                       [(0, 1, 3, 2)]).toarray()
    assert np.allclose(j, [[0.25, 0.25, 0.25, 0.25]], atol=1e-12)


def test_transfer_reproduces_linear_fields():
    rng = np.random.default_rng(7)
    gc = np.column_stack([np.arange(5.0), np.zeros(5)])
    fc = np.column_stack([rng.uniform(0.0, 4.0, size=20), np.zeros(20)])
    j = build_transfer(gc, fc, [(i, i + 1) for i in range(4)])
    for a, b in ((1.0, 0.0), (-2.0, 3.0)):
        assert np.allclose(j @ (a * gc[:, 0] + b), a * fc[:, 0] + b,
                           atol=1e-10)
    assert np.allclose(np.asarray(j.sum(axis=1)).ravel(), 1.0, atol=1e-12)


def test_malformed_facets_are_rejected():
    # A trapezoid has no bilinear trace weights; the other facets are
    # degenerate, of no known kind, or point past the global nodes.
    trapezoid = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                          [1.5, 1.0, 0.0], [0.5, 1.0, 0.0]])
    point = np.array([[1.0, 0.5, 0.0]])
    for facets in ([(0, 1, 2, 3)], [(0, 1, 2)], [(0, 1, 2, 4)]):
        with pytest.raises(GeometryError):
            build_transfer(trapezoid, point, facets)
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                     [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(GeometryError):
        build_transfer(flat, point, [(0, 1, 2, 3)])
    with pytest.raises(GeometryError):
        build_transfer(flat, point, [(1, 3)])


def test_transfer_rejects_bad_geometry():
    gc = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(GeometryError):
        build_transfer(gc, np.array([[0.5, 0.3]]), [(0, 1)])
    with pytest.raises(GeometryError):
        build_transfer(np.empty((0, 2)), np.array([[0.0, 0.0]]), [(0,)])
    with pytest.raises(GeometryError):
        build_transfer(gc, np.array([[0.0, 0.0, 0.0]]), [(0, 1)])


# ---------------------------------------------------------------------------
# scenario wiring


def test_interface_dofs_are_shared_by_exactly_two_subdomains(
        two_patch_thermal):
    scn = two_patch_thermal
    assert np.all(np.diff(scn.gamma_nodes) > 0)
    for n in scn.gamma_nodes:
        assert int(n) not in scn.global_model.dirichlet
    coverage = np.zeros(scn.gamma_dim, dtype=int)
    for sid in scn.subdomain_ids:
        amap = scn.subdomains[sid].amap
        assert len(np.unique(amap)) == len(amap)
        coverage[amap] += 1
    # Disjoint zones: every interface dof belongs to one patch plus the
    # complement.
    assert np.all(coverage == 2)
    assert np.array_equal(scn.subdomains[0].amap, np.arange(scn.gamma_dim))


def embedded(scn, sid):
    """A_s S_s A_s^T: one subdomain's compact block scattered on Gamma."""
    out = np.zeros((scn.gamma_dim, scn.gamma_dim))
    sub = scn.subdomains[sid]
    out[np.ix_(sub.amap, sub.amap)] = sub.schur
    return out


def embedded_sum(scn):
    return sum(embedded(scn, sid) for sid in scn.subdomain_ids)


def fine_side_reaction(scn, sid, u):
    """A_s J_s^T DtN_sF(J_s A_s^T u), the reaction via the fine interface.

    The fine side is condensed afresh onto its whole fine interface: the
    scenario's own operator already takes the coarse trace.
    """
    sub = scn.subdomains[sid]
    amap, j = sub.amap, sub.transfer
    op = condense(sub.system, sub.condensed.interface_dofs)
    out = np.zeros(scn.gamma_dim)
    out[amap] = j.T @ dirichlet_to_neumann(op, j @ u[amap])
    return out


SCENARIOS = ["chain", "two_patch_thermal", "two_patch_elastic",
             "cube2_thermal", "imbalanced_thermal"]


@pytest.mark.parametrize("name", SCENARIOS)
def test_reaction_matches_the_fine_side_oracle(name, request):
    scn = request.getfixturevalue(name)
    rng = np.random.default_rng(8)
    traces = [np.zeros(scn.gamma_dim), rng.standard_normal(scn.gamma_dim),
              scn.solve_interface(rng.standard_normal(scn.gamma_dim))]
    for u in traces:
        for sid in scn.subdomain_ids:
            oracle = fine_side_reaction(scn, sid, u)
            got = interface_reaction(scn, sid, u)
            assert np.linalg.norm(got - oracle) \
                <= 1e-12 * np.linalg.norm(oracle)


@pytest.mark.parametrize("name", SCENARIOS)
def test_operators_are_stored_per_subdomain(name, request):
    scn = request.getfixturevalue(name)
    for sub in scn.subdomains.values():
        m = len(sub.amap)
        assert sub.schur.shape == (m, m)
        assert sub.rhs.shape == (m,)
        # No per-subdomain operator holds an array larger than that
        # subdomain's own interface.
        for item in (sub.amap, sub.schur, sub.rhs):
            assert max(item.shape) <= m
    # The scenario keeps no per-subdomain arrays outside the records.
    for f in dataclasses.fields(scn):
        value = getattr(scn, f.name)
        if isinstance(value, dict):
            assert f.name == "subdomains"


@pytest.mark.parametrize("name", SCENARIOS)
def test_residual_matches_the_reaction_loop_oracle(name, request):
    scn = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    traces = [np.zeros(scn.gamma_dim), rng.standard_normal(scn.gamma_dim),
              scn.solve_interface(rng.standard_normal(scn.gamma_dim))]
    for u in traces:
        oracle = loop_residual(scn, u)
        got = compute_residual(scn, u)
        assert np.linalg.norm(got - oracle) <= 1e-14 * np.linalg.norm(oracle)


@pytest.mark.parametrize("name", SCENARIOS)
def test_patch_records_view_the_zero_padded_stack(name, request):
    scn = request.getfixturevalue(name)
    n_patches, m = scn.patch_rhs.shape
    assert scn.patch_schur.shape == (n_patches, m, m)
    assert scn.patch_index.shape == (n_patches, m)
    assert m == max(len(scn.subdomains[sid].amap) for sid in scn.patch_ids)
    u = np.random.default_rng(6).standard_normal(scn.gamma_dim)
    batch = patch_reactions(scn, u)
    for i, sid in enumerate(scn.patch_ids):
        sub = scn.subdomains[sid]
        k = len(sub.amap)
        assert np.shares_memory(sub.schur, scn.patch_schur)
        assert np.shares_memory(sub.rhs, scn.patch_rhs)
        assert np.array_equal(scn.patch_index[i, :k], sub.amap)
        # Padded slots are exactly zero and read a valid Gamma dof.
        assert not scn.patch_schur[i, k:, :].any()
        assert not scn.patch_schur[i, :, k:].any()
        assert not scn.patch_rhs[i, k:].any()
        assert np.all((scn.patch_index[i] >= 0)
                      & (scn.patch_index[i] < scn.gamma_dim))
        assert not batch[i, k:].any()
    # The complement keeps its own block, outside the stack.
    if scn.complement is not None:
        assert not np.shares_memory(scn.complement.schur, scn.patch_schur)


@pytest.mark.parametrize("name", SCENARIOS)
def test_one_patch_reaction_is_its_row_of_the_batch(name, request):
    scn = request.getfixturevalue(name)
    rng = np.random.default_rng(7)
    for u in (rng.standard_normal(scn.gamma_dim),
              scn.solve_interface(rng.standard_normal(scn.gamma_dim))):
        batch = patch_reactions(scn, u)
        for i, sid in enumerate(scn.patch_ids):
            sub = scn.subdomains[sid]
            row = patch_reactions(scn, u, slice(i, i + 1))
            assert np.array_equal(row[0], batch[i])
            single = interface_reaction(scn, sid, u)
            assert np.array_equal(single[sub.amap], batch[i, :len(sub.amap)])
            outside = np.ones(scn.gamma_dim, dtype=bool)
            outside[sub.amap] = False
            assert not single[outside].any()


def test_residual_is_affine_in_the_interface_load(two_patch_elastic):
    scn = two_patch_elastic
    shat = embedded_sum(scn)
    offset = residual_offset(scn)
    rng = np.random.default_rng(21)
    for _ in range(3):
        p = rng.standard_normal(scn.gamma_dim)
        direct = compute_residual(scn, scn.solve_interface(p))
        affine = -(shat @ np.linalg.solve(scn.schur_global, p) + offset)
        assert np.allclose(direct, affine, atol=1e-9 * (1 + abs(direct).max()))


def test_offset_is_minus_residual_at_zero_load(two_patch_thermal):
    scn = two_patch_thermal
    u0 = scn.solve_interface(np.zeros(scn.gamma_dim))
    assert np.allclose(residual_offset(scn), -compute_residual(scn, u0),
                       atol=1e-12)


def test_embedded_operators_match_reaction_linearisation(two_patch_thermal):
    scn = two_patch_thermal
    rng = np.random.default_rng(4)
    u = rng.standard_normal(scn.gamma_dim)
    zero = np.zeros(scn.gamma_dim)
    for sid in scn.subdomain_ids:
        linear = (interface_reaction(scn, sid, u)
                  - interface_reaction(scn, sid, zero))
        assert np.allclose(linear, embedded(scn, sid) @ u,
                           atol=1e-10)


def test_identical_fine_model_leaves_no_offset(fine_eq_thermal,
                                               fine_eq_elastic):
    for scn in (fine_eq_thermal, fine_eq_elastic):
        rhs_norm = np.linalg.norm(scn.rhs_global)
        assert np.linalg.norm(residual_offset(scn)) <= 1e-12 * rhs_norm
        shat = embedded_sum(scn)
        assert np.allclose(shat, scn.schur_global,
                           atol=1e-10 * np.abs(scn.schur_global).max())


# ---------------------------------------------------------------------------
# interfaces meeting the Dirichlet boundary


def boundary_zone_pieces(fine_divisions=(4, 4), boundary_value=0.0):
    glob = build_structured_mesh(2, (4, 2), (2.0, 1.0))
    glob = with_dirichlet(glob, nodes_on_plane(glob, 1, 0.0),
                          value=boundary_value)
    # Elements are column-major pairs: the first 8 cover x in [0, 1].
    labels = np.zeros(glob.element_count, dtype=np.int64)
    labels[:8] = 1
    fine = build_structured_mesh(2, fine_divisions, (1.0, 1.0))
    fine = with_dirichlet(fine, nodes_on_plane(fine, 1, 0.0),
                          value=boundary_value)
    return glob, labels, fine


def test_interface_touching_the_boundary_builds():
    glob, labels, fine = boundary_zone_pieces()
    scn = build_scenario(glob, labels, {1: fine})
    # The interface is the line x = 1; the node on the clamped edge is
    # constrained, so only y = 0.5 and y = 1 carry unknowns.
    assert np.allclose(scn.global_model.nodes[scn.gamma_nodes],
                       [[1.0, 0.5], [1.0, 1.0]])
    j = scn.subdomains[1].transfer.toarray()
    sums = j.sum(axis=1)
    # The fine node at (1, 0.25) interpolates between the constrained
    # corner and (1, 0.5); its dropped column leaves a row sum of 0.5.
    fine_coords = fine.nodes[scn.subdomains[1].mesh_interface_nodes]
    row = int(np.nonzero(np.all(np.isclose(fine_coords, [1.0, 0.25]),
                                axis=1))[0][0])
    assert np.isclose(sums[row], 0.5, atol=1e-12)
    assert np.all(sums <= 1.0 + 1e-12)


def test_nonzero_values_on_the_interface_are_rejected():
    glob, labels, fine = boundary_zone_pieces(boundary_value=1.0)
    with pytest.raises(GeometryError):
        build_scenario(glob, labels, {1: fine})


def test_non_nested_fine_interface_is_rejected():
    # Three fine cells along the interface leave the global node at
    # (1, 0.5) without a coincident fine twin.
    glob, labels, fine = boundary_zone_pieces(fine_divisions=(3, 3))
    with pytest.raises(GeometryError):
        build_scenario(glob, labels, {1: fine})


def test_cube_transfers_interpolate_linearly(cube2_thermal):
    scn = cube2_thermal
    # Dirichlet data sits on x = 0, so a facet has a constrained corner
    # exactly when fine nodes on it may have x below the global spacing.
    spacing = np.diff(np.unique(scn.global_model.nodes[:, 0])).min()
    gamma_coords = scn.global_model.nodes[scn.gamma_nodes]
    saw_trimmed_row = False
    for sid in scn.patch_ids:
        patch = scn.subdomains[sid]
        j = patch.transfer.toarray()
        sums = j.sum(axis=1)
        assert np.all(sums <= 1.0 + 1e-9)
        assert np.all(j >= -1e-12)
        full = sums > 1.0 - 1e-9
        saw_trimmed_row |= bool(np.any(~full))
        gx = gamma_coords[patch.amap, 0]
        fx = patch.mesh.nodes[patch.mesh_interface_nodes, 0]
        assert np.allclose((j @ gx)[full], fx[full], atol=1e-9)
        free_facet = fx >= spacing - 1e-12
        assert np.allclose(sums[free_facet], 1.0, atol=1e-12)
        # Next to the clamped face the dropped corners carry 1 - x/h.
        assert np.allclose(sums[~free_facet], fx[~free_facet] / spacing,
                           atol=1e-12)
    # Patches on the clamped face must have exercised the dropped-column
    # path, otherwise this fixture stopped covering it.
    assert saw_trimmed_row


def _row_at(coords, point):
    return int(np.flatnonzero(np.all(np.isclose(coords, point), axis=1))[0])


def _q1_field_at(model, values, points):
    """Trilinear interpolation of nodal values in the axis-aligned hex
    that contains each point, found by bounding box."""
    corners = model.nodes[model.elements]
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    out = np.empty(len(points))
    for i, x in enumerate(points):
        inside = np.all((lo <= x + 1e-12) & (x <= hi + 1e-12), axis=1)
        e = np.flatnonzero(inside)[0]
        local = (x - lo[e]) / (hi[e] - lo[e])
        upper = corners[e] > lo[e] + 1e-12
        weights = np.prod(np.where(upper, local, 1.0 - local), axis=1)
        out[i] = weights @ values[model.elements[e]]
    return out


def test_cube_transfers_are_the_global_trace(cube2_thermal):
    # J_s maps a global Q1 field on Gamma_s to its trace at the fine
    # interface nodes; the reference evaluates the field in the global
    # hex that contains each fine node.
    scn = cube2_thermal
    glob = scn.global_model
    u = np.random.default_rng(0).standard_normal(glob.node_count)
    u[list(glob.dirichlet)] = 0.0
    for sid in scn.patch_ids:
        patch = scn.subdomains[sid]
        fine_x = patch.mesh.nodes[patch.mesh_interface_nodes]
        traced = patch.transfer @ u[patch.interface_nodes]
        exact = _q1_field_at(glob, u, fine_x)
        assert np.abs(traced - exact).max() <= 1e-12, sid


def test_cube_edge_node_takes_the_edge_weights(cube2_thermal):
    # (0.5, 0.25, 1) lies on the global edge x = 0.5 of the face z = 1.
    patch = cube2_thermal.subdomains[1]
    fine_x = patch.mesh.nodes[patch.mesh_interface_nodes]
    global_x = cube2_thermal.global_model.nodes[patch.interface_nodes]
    row = patch.transfer.toarray()[
        _row_at(fine_x, [0.5, 0.25, 1.0])]
    expected = np.zeros(len(global_x))
    expected[_row_at(global_x, [0.5, 0.0, 1.0])] = 0.5
    expected[_row_at(global_x, [0.5, 0.5, 1.0])] = 0.5
    assert np.allclose(row, expected, atol=1e-14)


# ---------------------------------------------------------------------------
# coupled unknown cap


CAPPED_BUILDS = {
    "chain": chain_1d,
    "two_patch_thermal": lambda: two_patch_2d("thermal"),
    "two_patch_elastic": lambda: two_patch_2d("elasticity"),
    # nx 4 and 5 put the patch zones on the domain edge.
    "nx4_r2": lambda: two_patch_2d("thermal", nx=4, refine=2),
    "nx4_r3": lambda: two_patch_2d("thermal", nx=4, refine=3),
    "nx5_r2": lambda: two_patch_2d("thermal", nx=5, refine=2),
    "nx5_r3": lambda: two_patch_2d("thermal", nx=5, refine=3),
    "cube2_thermal": lambda: cube_grid_3d(2),
    "imbalanced_thermal": lambda: imbalanced_grid("thermal", seed=0),
}


@pytest.mark.parametrize("name", CAPPED_BUILDS)
def test_cap_counts_the_coupled_unknowns_exactly(monkeypatch, name):
    build = CAPPED_BUILDS[name]
    count = coupled_dof_count(build())

    def refuse(*args, **kwargs):
        raise AssertionError("assembled a case over the cap")

    with monkeypatch.context() as patched:
        patched.setattr(coupling, "MAX_COUPLED_DOFS", count - 1)
        patched.setattr(coupling, "assemble", refuse)
        with pytest.raises(ConfigError,
                           match=f"has {count} coupled unknowns, over the "
                                 f"{count - 1} cap"):
            build()
    monkeypatch.setattr(coupling, "MAX_COUPLED_DOFS", count)
    assert coupled_dof_count(build()) == count


class _Captured(Exception):
    pass


def scenario_inputs(monkeypatch, build):
    """The arguments a generator hands to ``build_scenario``, taken before
    anything is assembled."""
    seen = []

    def capture(*args, **kwargs):
        seen.append((args, kwargs))
        raise _Captured

    with monkeypatch.context() as patched:
        patched.setattr(scenarios, "build_scenario", capture)
        with pytest.raises(_Captured):
            build()
    return seen[0]


INTERFACE_BUILDS = dict(
    CAPPED_BUILDS,
    fine_equals_global=lambda: fine_equals_global_2d("thermal"))


@pytest.mark.parametrize("name", INTERFACE_BUILDS)
def test_interface_matches_the_element_loop_oracle(monkeypatch, name):
    (glob, labels, _), _ = scenario_inputs(monkeypatch, INTERFACE_BUILDS[name])
    sids, gamma, touch, facets, facet_touch = \
        coupling._interface(glob, labels)
    ids, gamma_ref, positions, facets_ref = interface_topology(glob, labels)
    assert sids.tolist() == ids
    assert np.array_equal(gamma, gamma_ref)
    assert touch.shape == (len(gamma), len(ids))
    for c, sid in enumerate(ids):
        assert np.array_equal(np.flatnonzero(touch[:, c]), positions[sid])
        # Same facets, in the same order and with the same corner order.
        assert np.array_equal(facets[facet_touch[:, c]], facets_ref[sid])


# The three benchmark workloads and the conftest fixtures' scenarios.
TRANSFER_BUILDS = {
    "grid3d-imbalanced": lambda: imbalanced_grid("thermal", seed=0),
    "patch2d-condense": lambda: two_patch_2d("thermal", nx=40, refine=8),
    "elastic2d-delay-sweep": lambda: two_patch_2d("elasticity",
                                                  contrast=100.0),
    "chain": chain_1d,
    "two_patch_thermal": lambda: two_patch_2d("thermal"),
    "two_patch_elastic": lambda: two_patch_2d("elasticity"),
    "cube2_thermal": lambda: cube_grid_3d(2, "thermal"),
    "fine_eq_thermal": lambda: fine_equals_global_2d("thermal"),
    "fine_eq_elastic": lambda: fine_equals_global_2d("elasticity"),
}


@pytest.mark.parametrize("name", TRANSFER_BUILDS)
def test_transfer_matches_the_facet_loop_oracle(monkeypatch, name):
    # The oracle places every free fine node one facet at a time; the
    # package projects only the fine boundary, all facets at once.
    build = TRANSFER_BUILDS[name]
    (glob, labels, fine), _ = scenario_inputs(monkeypatch, build)
    facets = interface_topology(glob, labels)[3]
    scn = build()
    for sid in scn.patch_ids:
        sub = scn.subdomains[sid]
        iface, j = patch_transfer(glob, facets[sid], fine[sid],
                                  sub.interface_nodes, scn.ndof_per_node)
        assert np.array_equal(sub.mesh_interface_nodes, iface)
        assert np.array_equal(sub.transfer.toarray(), j.toarray())


def test_transfer_places_only_the_fine_boundary(monkeypatch):
    # Every candidate meets every facet in one batched pass, so each patch
    # hands build_transfer the free nodes on its fine mesh's boundary
    # only, not all 5 265 and 4 617 of its free nodes.
    real = coupling.build_transfer
    candidates = []

    def spy(global_coords, fine_coords, facets, tol=None):
        candidates.append(len(fine_coords))
        return real(global_coords, fine_coords, facets, tol)

    monkeypatch.setattr(coupling, "build_transfer", spy)
    scn = two_patch_2d("thermal", nx=40, refine=8)
    boundary = []
    for sid in scn.patch_ids:
        mesh = scn.subdomains[sid].mesh
        nodes = mesh.nodes
        edge = np.any(np.isclose(nodes, nodes.min(axis=0))
                      | np.isclose(nodes, nodes.max(axis=0)), axis=1)
        edge[list(mesh.dirichlet)] = False
        boundary.append(int(edge.sum()))
    assert candidates == boundary
    assert np.all(np.array(candidates) <= [288, 272])


def test_non_contiguous_patch_labels_build_the_same_scenario(monkeypatch):
    (glob, labels, fine), kwargs = scenario_inputs(
        monkeypatch, lambda: two_patch_2d("elasticity", nx=8))
    ref = build_scenario(glob, labels, fine, **kwargs)
    sparse_ids = np.array([0, 2, 5])
    scn = build_scenario(glob, sparse_ids[labels],
                         {2: fine[1], 5: fine[2]}, **kwargs)
    assert scn.subdomain_ids == (0, 2, 5)
    for name in ("gamma_nodes", "schur_global", "rhs_global", "patch_schur",
                 "patch_rhs", "patch_index"):
        assert np.array_equal(getattr(scn, name), getattr(ref, name))
    for old, new in zip(ref.subdomain_ids, scn.subdomain_ids):
        assert np.array_equal(scn.subdomains[new].amap,
                              ref.subdomains[old].amap)
        assert np.array_equal(scn.subdomains[new].schur,
                              ref.subdomains[old].schur)


# ---------------------------------------------------------------------------
# construction errors


def test_build_scenario_validation():
    glob, labels, fine = boundary_zone_pieces()
    with pytest.raises(TopologyError):
        build_scenario(glob, labels[:-1], {1: fine})
    with pytest.raises(TopologyError):
        build_scenario(glob, labels - 1, {1: fine})
    with pytest.raises(TopologyError):
        build_scenario(glob, np.zeros_like(labels), {})
    with pytest.raises(TopologyError):
        build_scenario(glob, labels, {2: fine})
    with pytest.raises(TopologyError, match="integers"):
        build_scenario(glob, labels + 0.7, {1: fine})
    whole = build_scenario(glob, labels.astype(float), {1: fine})
    assert np.array_equal(whole.schur_global,
                          build_scenario(glob, labels, {1: fine}).schur_global)
    free = build_structured_mesh(2, (4, 2), (2.0, 1.0))
    with pytest.raises(ConfigError):
        build_scenario(free, labels, {1: fine})
    shifted = build_structured_mesh(2, (4, 4), (1.0, 1.0), origin=(0.1, 0.0))
    shifted = with_dirichlet(shifted, nodes_on_plane(shifted, 1, 0.0))
    with pytest.raises(GeometryError):
        build_scenario(glob, labels, {1: shifted})


def test_two_patch_zone_validation():
    with pytest.raises(ValueError):
        two_patch_2d("thermal", zones=((0, 2, 1, 3), (4, 6, 1, 3)))
    with pytest.raises(ValueError):
        two_patch_2d("acoustic")
