"""The per-facet transfer loop, kept as a test-only oracle.

This is how the package placed fine interface nodes before it projected
the fine boundary onto every facet in one batched pass: it walks a
patch's global interface facets one at a time and projects, for each,
every free fine node that no earlier facet has placed.  Nothing in
``src/`` imports it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# Each row places one facet corner in the facet's local coordinates; the
# corners in _AXIS_CORNERS span them from corner 0.
_REFERENCE_CORNERS = {1: np.zeros((1, 0)),
                      2: np.array([[0.0], [1.0]]),
                      4: np.array([[0.0, 0.0], [1.0, 0.0],
                                   [1.0, 1.0], [0.0, 1.0]])}
_AXIS_CORNERS = {1: [], 2: [1], 4: [1, 3]}


def facet_loop_transfer(global_coords, fine_coords, facets, tol):
    """Node-level trace of ``facets`` at the fine nodes, one facet at a
    time; a node on several facets takes the first."""
    gc, fc = np.asarray(global_coords), np.asarray(fine_coords)
    facets = np.asarray(facets, dtype=np.int64)
    n_fine, k = len(fc), facets.shape[1]
    ref = _REFERENCE_CORNERS[k]
    cols = np.zeros((n_fine, k), dtype=np.int64)
    vals = np.zeros((n_fine, k))
    placed = np.zeros(n_fine, dtype=bool)
    for facet in facets:
        corners = gc[facet]
        basis = corners[_AXIS_CORNERS[k]] - corners[0]
        todo = np.flatnonzero(~placed)
        w = fc[todo] - corners[0]
        xi = np.linalg.solve(basis @ basis.T, basis @ w.T).T
        off = np.linalg.norm(w - xi @ basis, axis=1)
        slack = tol / np.linalg.norm(basis, axis=1)
        on = (off <= tol) & np.all((xi >= -slack) & (xi <= 1.0 + slack),
                                   axis=1)
        xi = np.clip(xi[on], 0.0, 1.0)[:, None, :]
        hit = todo[on]
        cols[hit] = facet
        vals[hit] = np.prod(np.where(ref == 1.0, xi, 1.0 - xi), axis=2)
        placed[hit] = True
    indptr = np.concatenate([[0], np.cumsum(np.where(placed, k, 0))])
    return sp.csr_matrix((vals[placed].ravel(), cols[placed].ravel(), indptr),
                         shape=(n_fine, len(gc)))


def patch_transfer(global_model, facets, fine, gnodes, ndpn):
    """``(mesh_interface_nodes, J_s)`` of one patch from its global
    interface ``facets``, trying every free fine node; the columns of
    J_s are the dofs of the free global interface nodes ``gnodes``."""
    tol = 1e-9 * max(np.ptp(global_model.nodes, axis=0).max(), 1.0)
    facets = np.asarray(facets, dtype=np.int64)
    corner_nodes, local = np.unique(facets, return_inverse=True)
    free = np.ones(fine.node_count, dtype=bool)
    free[list(fine.dirichlet)] = False
    free_nodes = np.flatnonzero(free)
    j_all = facet_loop_transfer(global_model.nodes[corner_nodes],
                                fine.nodes[free_nodes],
                                local.reshape(facets.shape), tol)
    on = j_all.getnnz(axis=1) > 0
    j_node = j_all[on][:, np.searchsorted(corner_nodes, gnodes)]
    return free_nodes[on], sp.kron(j_node, sp.identity(ndpn), format="csr")
