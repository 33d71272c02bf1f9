"""Schur condensation against hand-worked and dense-algebra oracles."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import glocal.condensation as condensation
import glocal.coupling as coupling
from condensation_oracle import solve_condense
from glocal import (
    AssembledSystem,
    SingularInteriorError,
    assemble_poisson,
    build_structured_mesh,
    chain_1d,
    condense,
    cube_grid_3d,
    dirichlet_to_neumann,
    expand_interior,
    imbalanced_grid,
    nodes_on_plane,
    solve_direct,
    two_patch_2d,
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


def test_retained_interior_factor_keeps_no_csc_copies(two_patch_thermal):
    # scipy's SuperLU builds CSC copies of L and U when .L or .U is first
    # read and keeps them on the factor.  The factor kept for interior
    # recovery must not have been read, so reading it now allocates.
    op = two_patch_thermal.subdomains[1]
    rng = np.random.default_rng(2)
    full = expand_interior(op, rng.standard_normal(op.interface_count))
    assert np.all(np.isfinite(full))
    factor = op._interior_factor
    tracemalloc.start()
    try:
        factor.L, factor.U
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert allocated >= 8 * factor.nnz


def test_operator_keeps_its_system_not_copies(two_patch_thermal):
    # Interior recovery slices K_ii and K_gi from the system the scenario
    # already holds, so no operator stores a second copy of either.
    fields = {f.name for f in
              dataclasses.fields(condensation.CondensedOperator)}
    assert fields == {"schur", "rhs", "interface_dofs", "interior_dofs",
                      "transfer", "system"}
    # A subdomain is its condensed operator plus its wiring, nothing more.
    assert {f.name for f in dataclasses.fields(coupling.Subdomain)} == \
        fields | {"sid", "mesh", "interface_nodes", "mesh_interface_nodes",
                  "amap"}
    for sub in two_patch_thermal.subdomains.values():
        assert isinstance(sub, condensation.CondensedOperator)
        assert sub.dof_count == sub.system.dof_count


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
    with pytest.raises(ValueError):
        condense(system, np.array([0, 1]), transfer=sp.identity(3))
    op = condense(system, np.array([0, 1]))
    with pytest.raises(ValueError):
        dirichlet_to_neumann(op, np.zeros(3))
    with pytest.raises(ValueError):
        expand_interior(op, np.zeros(3))
    # With a transfer onto one unknown the trace has length one.
    op = condense(system, np.array([0, 1]), transfer=sp.csr_matrix(
        np.ones((2, 1))))
    with pytest.raises(ValueError):
        dirichlet_to_neumann(op, np.zeros(2))
    with pytest.raises(ValueError):
        expand_interior(op, np.zeros(2))


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


# ---------------------------------------------------------------------------
# the bordered factorization against the multi-rhs oracle


def rel_diff(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def assert_matches_oracle(system, iface):
    schur, rhs = solve_condense(system, iface)
    op = condense(system, iface)
    assert op.schur.flags.c_contiguous
    assert rel_diff(op.schur, schur) <= 1e-12
    assert rel_diff(op.rhs, rhs) <= 1e-12


@pytest.fixture
def bordered_always(monkeypatch):
    monkeypatch.setattr(condensation, "_BORDERED_WORK", 0)


# The three benchmark workloads, the 1D chain and a vector-valued 3D grid.
SCENARIOS = {
    "grid3d-imbalanced": lambda: imbalanced_grid("thermal", seed=0),
    "patch2d-condense": lambda: two_patch_2d("thermal", nx=40, refine=8),
    "elastic2d-delay-sweep": lambda: two_patch_2d("elasticity",
                                                  contrast=100.0),
    "chain-1d": chain_1d,
    "cube-grid-3d-elasticity": lambda: cube_grid_3d(2, "elasticity"),
}


# The session fixtures of conftest.py that the workloads above do not cover.
FIXTURES = ["two_patch_thermal", "two_patch_elastic", "cube2_thermal",
            "fine_eq_thermal", "fine_eq_elastic"]


def assert_patch_matches_oracle(sub, schur, rhs):
    """A patch's compact block and load against J^T S_F J and J^T b_F,
    with S_F and b_F the oracle's condensation on the fine interface."""
    s_f, b_f = solve_condense(sub.system, sub.interface_dofs)
    j = sub.transfer.toarray()
    assert rel_diff(schur, j.T @ s_f @ j) <= 1e-12
    assert rel_diff(rhs, j.T @ b_f) <= 1e-12


@pytest.mark.parametrize("name", [*SCENARIOS, *FIXTURES])
def test_every_subdomain_matches_the_multi_rhs_oracle(name, request,
                                                      monkeypatch):
    scn = (SCENARIOS[name]() if name in SCENARIOS
           else request.getfixturevalue(name))
    subs = list(scn.subdomains.values())
    patches = [scn.subdomains[sid] for sid in scn.patch_ids]
    for sub in subs:
        assert_matches_oracle(sub.system, sub.interface_dofs)
    for sub in patches:
        assert_patch_matches_oracle(sub, sub.schur, sub.rhs)
    # Once more with the bordered factorization on every subdomain, not
    # only on those whose work estimate selects it.
    monkeypatch.setattr(condensation, "_BORDERED_WORK", 0)
    for sub in subs:
        assert_matches_oracle(sub.system, sub.interface_dofs)
    for sub in patches:
        op = condense(sub.system, sub.interface_dofs,
                      transfer=sub.transfer)
        assert op.schur.flags.c_contiguous
        assert_patch_matches_oracle(sub, op.schur, op.rhs)


def test_patch_condensation_holds_no_fine_interface_block(monkeypatch):
    # Condensing a patch2d-condense patch onto its coarse trace must not
    # hold a dense block on its fine interface: the n_i x n_g block
    # K_ii^{-1} K_ig alone (4 977 x 288 dofs) takes 11.5 MB.
    real = coupling.condense
    peaks = {}

    def measured(system, iface, label="", **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        op = real(system, iface, label, **kwargs)
        peaks[label] = (tracemalloc.get_traced_memory()[1] - before, op)
        return op

    monkeypatch.setattr(coupling, "condense", measured)
    tracemalloc.start()
    try:
        two_patch_2d("thermal", nx=40, refine=8)
    finally:
        tracemalloc.stop()
    peak, op = peaks["patch 1 (fine)"]
    assert (len(op.interior_dofs), len(op.interface_dofs)) == (4977, 288)
    assert peak < 8 * 4977 * 288


def chain_matrix(n, shift=0.1):
    """A 1D Laplacian chain 0-1-...-(n-1), made definite by ``shift``."""
    return (np.diag((2.0 + shift) * np.ones(n)) - np.eye(n, k=1)
            - np.eye(n, k=-1))


def test_interface_dof_without_interior_neighbour(bordered_always):
    # Dof 6 touches only dof 5, which is interface too, and dof 7 touches
    # nothing but itself: neither reaches the interior.
    k = np.pad(chain_matrix(7), ((0, 1), (0, 1)))
    k[7, 7] = 3.0
    system = dense_system(k, np.arange(1.0, 9.0))
    assert_matches_oracle(system, np.array([2, 5, 6, 7]))
    assert_matches_oracle(system, np.array([7, 0, 5, 6]))


def test_interior_in_two_disconnected_components(bordered_always):
    # Interface dof 3 cuts the chain; interior {0, 1, 2} and {4, 5, 6}
    # share no entry, so their elimination trees are separate.
    system = dense_system(chain_matrix(7), np.linspace(1.0, 2.0, 7))
    assert_matches_oracle(system, np.array([3]))
    assert_matches_oracle(system, np.array([6, 3, 0]))


def test_bordered_order_is_checked(monkeypatch):
    # A bordered factor whose order puts an interface dof before interior
    # ones cannot be read as L21: condense must notice and use the solves.
    real = condensation.spla.splu
    results = []

    def reordered(a, permc_spec=None, **kwargs):
        lu = real(a, permc_spec=permc_spec, **kwargs)
        if permc_spec != "NATURAL":
            return lu
        order = lu.perm_c[::-1].copy()
        return SimpleNamespace(perm_c=order, perm_r=order)

    def spy(*args):
        results.append(bordered(*args))
        return results[-1]

    bordered = condensation._bordered_schur
    monkeypatch.setattr(condensation.spla, "splu", reordered)
    monkeypatch.setattr(condensation, "_bordered_schur", spy)
    monkeypatch.setattr(condensation, "_BORDERED_WORK", 0)
    system = dense_system(chain_matrix(7), np.linspace(1.0, 2.0, 7))
    assert_matches_oracle(system, np.array([3]))
    assert results == [None]


@pytest.mark.parametrize("build", [
    chain_1d, lambda: two_patch_2d("thermal"),
    lambda: two_patch_2d("elasticity"), lambda: cube_grid_3d(2, "thermal")])
def test_identity_transfer_is_not_applied(build, monkeypatch):
    # Every global part and the complement condense with transfer=None;
    # that must give what an explicit identity J gives, on both paths.
    calls = []

    def spy(system, iface, label="", transfer=None):
        if transfer is None:
            calls.append((system, iface))
        return condense(system, iface, label, transfer=transfer)

    monkeypatch.setattr(coupling, "condense", spy)
    build()
    assert calls
    for work in (condensation._BORDERED_WORK, 0):
        monkeypatch.setattr(condensation, "_BORDERED_WORK", work)
        for system, iface in calls:
            plain = condense(system, iface)
            explicit = condense(system, iface,
                                transfer=sp.identity(len(iface), format="csr"))
            assert plain.schur.flags.c_contiguous
            assert rel_diff(plain.schur, explicit.schur) <= 1e-12
            assert rel_diff(plain.rhs, explicit.rhs) <= 1e-12
            assert (plain.transfer != explicit.transfer).nnz == 0
