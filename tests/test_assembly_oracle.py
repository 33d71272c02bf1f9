"""Batched assembly and mesh construction against the per-element loops.

``assembly_oracle`` keeps the loop assembly and the per-cell mesh numbering
the package used before both were batched.  The batched versions must give
the same stiffness and load to roundoff on every element type, including
distorted hexahedra, and exactly the same node and element arrays.
"""

from dataclasses import replace

import numpy as np
import pytest

from assembly_oracle import (loop_assemble_elasticity, loop_assemble_poisson,
                             loop_structured_mesh)
from glocal import (assemble_elasticity, assemble_poisson,
                    build_structured_mesh, nodes_on_plane, with_dirichlet)

RTOL = 1e-12


def rel_diff(a, b):
    a = a.toarray() if hasattr(a, "toarray") else np.asarray(a)
    b = b.toarray() if hasattr(b, "toarray") else np.asarray(b)
    return np.abs(a - b).max() / np.abs(b).max()


def assert_same_system(batched, loop):
    assert np.array_equal(batched.dof_map, loop.dof_map)
    assert rel_diff(batched.stiffness, loop.stiffness) <= RTOL
    assert rel_diff(batched.load, loop.load) <= RTOL


def randomized(mesh, rng, jitter=0.0):
    """Random per-element coefficients, jittered node coordinates and
    a clamped x = 0 face prescribed to a nonzero value."""
    nodes = mesh.nodes.copy()
    if jitter:
        # The first element of a structured mesh spans one cell per axis.
        cell = np.ptp(nodes[mesh.elements[0]], axis=0)
        nodes += jitter * cell * rng.uniform(-1.0, 1.0, nodes.shape)
    coeff = rng.uniform(0.1, 10.0, mesh.element_count)
    mesh = replace(mesh, nodes=nodes,
                   material=replace(mesh.material, coeff=coeff))
    return with_dirichlet(mesh, nodes_on_plane(mesh, 0, mesh.nodes[0, 0]),
                          value=0.7)


def test_intervals_match_the_loop():
    rng = np.random.default_rng(0)
    mesh = build_structured_mesh(1, 9, 3.0)
    # Non-uniform but increasing coordinates.
    nodes = np.cumsum(rng.uniform(0.1, 1.0, mesh.node_count))[:, None]
    mesh = randomized(replace(mesh, nodes=nodes), rng)
    assert_same_system(assemble_poisson(mesh, source=1.3),
                       loop_assemble_poisson(mesh, source=1.3))


@pytest.mark.parametrize("seed", range(3))
def test_triangles_match_the_loop(seed):
    rng = np.random.default_rng(seed)
    mesh = randomized(build_structured_mesh(2, (5, 3), (2.0, 1.0)), rng,
                      jitter=0.3)
    assert_same_system(assemble_poisson(mesh, source=-0.4),
                       loop_assemble_poisson(mesh, source=-0.4))


def test_sheared_hexahedra_match_the_loop():
    rng = np.random.default_rng(4)
    mesh = build_structured_mesh(3, (3, 2, 2), (1.5, 1.0, 1.0))
    nodes = mesh.nodes.copy()
    nodes[:, 0] += 0.4 * nodes[:, 1] - 0.2 * nodes[:, 2]
    nodes[:, 2] += 0.3 * nodes[:, 0]
    mesh = randomized(replace(mesh, nodes=nodes), rng)
    assert_same_system(assemble_poisson(mesh, source=2.0),
                       loop_assemble_poisson(mesh, source=2.0))


@pytest.mark.parametrize("seed", range(3))
def test_perturbed_hexahedra_match_the_loop(seed):
    # A jitter of a quarter cell keeps every Jacobian positive while making
    # each hexahedron a genuinely trilinear (non-affine) map.
    rng = np.random.default_rng(10 + seed)
    mesh = randomized(build_structured_mesh(3, (2, 3, 2), (1.0, 1.5, 0.8)),
                      rng, jitter=0.25)
    assert_same_system(assemble_poisson(mesh, source=1.0),
                       loop_assemble_poisson(mesh, source=1.0))


@pytest.mark.parametrize("dim, divisions", [(2, (4, 3)), (3, (2, 2, 3))])
def test_elasticity_matches_the_loop(dim, divisions):
    rng = np.random.default_rng(dim)
    mesh = build_structured_mesh(dim, divisions, 1.0, kind="elastic",
                                 poisson=0.27)
    mesh = randomized(mesh, rng, jitter=0.2)
    force = rng.standard_normal(dim)
    assert_same_system(assemble_elasticity(mesh, body_force=force),
                       loop_assemble_elasticity(mesh, body_force=force))


@pytest.mark.parametrize("dim, divisions, origin, extent", [
    (1, (7,), (0.5,), (2.0,)),
    (2, (3, 5), (0.0, -1.0), (1.5, 2.0)),
    (3, (2, 4, 3), (0.1, 0.2, 0.3), (1.0, 2.0, 0.5)),
])
def test_structured_mesh_numbering_matches_the_loop(dim, divisions, origin,
                                                    extent):
    mesh = build_structured_mesh(dim, divisions, extent, origin=origin)
    nodes, elements = loop_structured_mesh(dim, divisions, origin, extent)
    assert np.array_equal(mesh.nodes, nodes)
    assert mesh.elements.dtype == elements.dtype
    assert np.array_equal(mesh.elements, elements)
