"""Schur condensation against hand-worked and dense-algebra oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from glocal import (
    AssembledSystem,
    SingularInteriorError,
    assemble_poisson,
    build_structured_mesh,
    condense,
    dirichlet_to_neumann,
    expand_interior,
    nodes_on_plane,
    solve_direct,
    with_dirichlet,
)


def dense_system(k: np.ndarray, f: np.ndarray) -> AssembledSystem:
    """Wrap a dense SPD matrix as an unconstrained assembled system."""
    n = len(f)
    return AssembledSystem(stiffness=sp.csr_matrix(k), load=f,
                           dof_map=np.arange(n).reshape(n, 1),
                           fixed_values=np.zeros((n, 1)), ndof_per_node=1)


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def test_chain_condensation_frozen():
    # Two unit cells, x = 0 clamped, unit source.  Condensing onto the free
    # end gives S = [0.5], b = [1.0]; the trace solves to 2.0 and the
    # recovered interior value is 1.5 (the direct solution).
    mesh = build_structured_mesh(1, 2, 2.0)
    mesh = with_dirichlet(mesh, nodes_on_plane(mesh, 0, 0.0))
    system = assemble_poisson(mesh, source=1.0)
    op = condense(system, np.array([1]))
    assert np.allclose(op.schur, [[0.5]], atol=1e-14)
    assert np.allclose(op.rhs, [1.0], atol=1e-14)
    trace = np.linalg.solve(op.schur, op.rhs)
    assert np.isclose(trace[0], 2.0, atol=1e-13)
    assert np.allclose(dirichlet_to_neumann(op, trace), 0.0, atol=1e-13)
    full = expand_interior(op, trace)
    assert np.allclose(full, [1.5, 2.0], atol=1e-13)
    assert np.allclose(full, solve_direct(system)[1:, 0], atol=1e-13)


def test_condensation_matches_dense_block_algebra():
    # Independent route: form the Schur complement with plain dense solves.
    rng = np.random.default_rng(11)
    for _ in range(8):
        n = int(rng.integers(4, 30))
        k = random_spd(rng, n)
        f = rng.standard_normal(n)
        iface = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        iface = np.sort(iface)
        interior = np.setdiff1d(np.arange(n), iface)
        op = condense(dense_system(k, f), iface)
        s_oracle = (k[np.ix_(iface, iface)]
                    - k[np.ix_(iface, interior)]
                    @ np.linalg.solve(k[np.ix_(interior, interior)],
                                      k[np.ix_(interior, iface)]))
        b_oracle = (f[iface]
                    - k[np.ix_(iface, interior)]
                    @ np.linalg.solve(k[np.ix_(interior, interior)],
                                      f[interior]))
        assert np.allclose(op.schur, s_oracle, atol=1e-10)
        assert np.allclose(op.rhs, b_oracle, atol=1e-10)
        # The condensed-then-expanded solution is the direct solution.
        u = np.linalg.solve(k, f)
        assert np.allclose(expand_interior(op, u[iface]), u, atol=1e-10)
        assert np.allclose(dirichlet_to_neumann(op, u[iface]), 0.0,
                           atol=1e-9)


def test_reaction_is_affine_in_the_trace():
    rng = np.random.default_rng(5)
    k = random_spd(rng, 12)
    f = rng.standard_normal(12)
    op = condense(dense_system(k, f), np.arange(4))
    u1 = rng.standard_normal(4)
    u2 = rng.standard_normal(4)
    r0 = dirichlet_to_neumann(op, np.zeros(4))
    r1 = dirichlet_to_neumann(op, u1)
    r2 = dirichlet_to_neumann(op, u2)
    assert np.allclose(dirichlet_to_neumann(op, u1 + u2), r1 + r2 - r0,
                       atol=1e-12)
    assert np.allclose(r0, -op.rhs, atol=1e-14)


def test_empty_interior_passthrough():
    rng = np.random.default_rng(2)
    k = random_spd(rng, 6)
    f = rng.standard_normal(6)
    op = condense(dense_system(k, f), np.arange(6))
    assert op.interior_dofs.size == 0
    assert np.allclose(op.schur, k, atol=1e-14)
    assert np.allclose(op.rhs, f, atol=1e-14)
    u = rng.standard_normal(6)
    assert np.allclose(expand_interior(op, u), u, atol=1e-14)


def test_singular_interior_is_reported_with_label():
    k = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularInteriorError) as excinfo:
        condense(dense_system(k, np.zeros(2)), np.array([0]),
                 label="patch 3")
    assert "patch 3" in str(excinfo.value)


def test_interface_dof_validation():
    rng = np.random.default_rng(1)
    system = dense_system(random_spd(rng, 5), np.zeros(5))
    with pytest.raises(ValueError):
        condense(system, np.array([[0, 1]]))
    with pytest.raises(ValueError):
        condense(system, np.array([0, 0]))
    with pytest.raises(ValueError):
        condense(system, np.array([0, 5]))
    op = condense(system, np.array([0, 1]))
    with pytest.raises(ValueError):
        dirichlet_to_neumann(op, np.zeros(3))
    with pytest.raises(ValueError):
        expand_interior(op, np.zeros(3))


def test_indefinite_interior_with_zero_diagonal_is_rejected():
    # [[0, 1], [1, 0]] has a positive U diagonal after an off-diagonal
    # pivot; the factorization must still report it as not SPD.
    k = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(SingularInteriorError):
        condense(dense_system(k, np.zeros(3)), np.array([0]))


def test_negative_pivot_is_rejected():
    k = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
    with pytest.raises(SingularInteriorError):
        condense(dense_system(k, np.zeros(3)), np.array([0]))
