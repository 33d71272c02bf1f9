"""Properties of the sparse condensation on random SPD systems.

For any sparse symmetric positive definite system and any split of its
dofs into a nonempty interior and an interface, the Schur complement, the
condensed load, the interior recovery and the zero of the
Dirichlet-to-Neumann map must agree with plain dense solves, whether S
comes from the bordered factorization or from solves through the K_ii
factor.  The draws include block-diagonal systems, whose interior falls
apart into disconnected components and whose interface can hold dofs with
no interior neighbour.  A symmetric system whose interior block is
indefinite must be refused.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import glocal.condensation as condensation
from glocal import (AssembledSystem, SingularInteriorError, condense,
                    dirichlet_to_neumann, expand_interior)

PROPERTY = settings(max_examples=60, deadline=None)


def unconstrained(k: sp.spmatrix, f: np.ndarray) -> AssembledSystem:
    n = len(f)
    return AssembledSystem(stiffness=sp.csr_matrix(k), load=f,
                           dof_map=np.arange(n).reshape(n, 1),
                           fixed_values=np.zeros((n, 1)))


@st.composite
def spd_splits(draw):
    """A random sparse SPD matrix, a load and a sorted interface set."""
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.floats(0.05, 0.5))
    b = sp.random_array((n, n), density=density, rng=rng,
                        data_sampler=rng.standard_normal)
    # Up to four diagonal blocks: no entry couples two blocks, so a block
    # can leave the interior disconnected or hold only interface dofs.
    block = rng.integers(0, draw(st.integers(1, 4)), size=n)
    b = b.multiply(block[:, None] == block[None, :])
    # B B^T is positive semidefinite with B's sparsity squared; the shift
    # makes it definite without making it diagonally dominant.
    shift = draw(st.floats(1e-2, 1.0))
    k = (b @ b.T + shift * sp.identity(n)).tocsr()
    f = rng.standard_normal(n)
    n_iface = draw(st.integers(1, n - 1))
    iface = np.sort(rng.choice(n, size=n_iface, replace=False))
    return k, f, iface


@PROPERTY
@given(spd_splits(), st.integers(0, 2**32 - 1))
def test_condensation_matches_dense_solves(case, seed):
    k, f, iface = case
    dense = k.toarray()
    interior = np.setdiff1d(np.arange(len(f)), iface)
    # A random transfer J onto m <= n_g trace unknowns.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, len(iface) + 1))
    j = sp.random_array((len(iface), m), density=0.5, rng=rng,
                        data_sampler=rng.standard_normal).tocsr()
    op = condense(unconstrained(k, f), iface)
    projected = condense(unconstrained(k, f), iface, transfer=j)
    with mock.patch.object(condensation, "_BORDERED_WORK", 0):
        bordered = condense(unconstrained(k, f), iface)
        projected_bordered = condense(unconstrained(k, f), iface,
                                      transfer=j)

    k_ii = dense[np.ix_(interior, interior)]
    k_gi = dense[np.ix_(iface, interior)]
    s = dense[np.ix_(iface, iface)] - k_gi @ np.linalg.solve(k_ii, k_gi.T)
    b = f[iface] - k_gi @ np.linalg.solve(k_ii, f[interior])
    scale = np.abs(dense).max()
    for cond in (op, bordered):
        assert cond.schur.flags.c_contiguous
        assert np.abs(cond.schur - s).max() <= 1e-9 * scale
        assert np.abs(cond.rhs - b).max() <= 1e-9 * max(np.abs(b).max(), 1.0)

    # On the trace J u the operator is J^T S J and J^T b: |S_ab| <= scale
    # for SPD K, so entries are bounded by scale times J's column sums.
    jd = j.toarray()
    width = max(np.abs(jd).sum(axis=0).max(), 1.0)
    for cond in (projected, projected_bordered):
        assert cond.interface_count == m
        assert np.abs(cond.schur - jd.T @ s @ jd).max() \
            <= 1e-9 * scale * width**2
        assert np.abs(cond.rhs - jd.T @ b).max() \
            <= 1e-9 * width * max(np.abs(b).max(), 1.0)

    u = np.linalg.solve(dense, f)
    assert np.allclose(expand_interior(op, u[iface]), u,
                       rtol=1e-8, atol=1e-8 * np.abs(u).max())
    reaction = dirichlet_to_neumann(op, u[iface])
    assert np.abs(reaction).max() <= 1e-8 * (scale * np.abs(u).max()
                                             + np.abs(b).max())

    # Expanding a coarse trace puts J u on the interface and leaves no
    # interior residual; its fine reaction, taken back through J^T, is the
    # coarse one.
    u_c = rng.standard_normal(m)
    full = expand_interior(projected, u_c)
    assert np.allclose(full[iface], jd @ u_c, rtol=0.0, atol=1e-12)
    residual = dense @ full - f
    bound = 1e-8 * (scale * np.abs(full).max() + np.abs(f).max())
    assert np.abs(residual[interior]).max() <= bound
    assert np.abs(dirichlet_to_neumann(projected, u_c)
                  - jd.T @ residual[iface]).max() <= width * bound


@PROPERTY
@given(spd_splits(), st.floats(0.1, 10.0))
def test_indefinite_interior_is_rejected(case, margin):
    k, f, iface = case
    interior = np.setdiff1d(np.arange(len(f)), iface)
    dense = k.toarray()
    # Shift the interior block until its smallest eigenvalue is -margin;
    # the whole matrix stays symmetric.
    lowest = np.linalg.eigvalsh(dense[np.ix_(interior, interior)])[0]
    dense[interior, interior] -= lowest + margin
    with pytest.raises(SingularInteriorError):
        condense(unconstrained(sp.csr_matrix(dense), f), iface)
