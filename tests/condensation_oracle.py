"""Multi-right-hand-side condensation, kept as a test-only oracle.

This is how the package formed every Schur complement before it read S
off a bordered factorization: one sparse symmetric factor of K_ii and the
n_g columns of K_ig pushed through both of its triangular factors,

    S = K_gg - K_gi (K_ii^{-1} K_ig),      b = f_g - K_gi K_ii^{-1} f_i.

Tests compare ``condense`` against it on both of its paths; nothing in
``src/`` imports it.

``per_part_global_schur`` is how ``build_scenario`` formed the global
interface operator before it condensed every patch zone at once: each
subdomain's global part, the complement included, extracted, assembled,
condensed onto its own Gamma nodes and scatter-added.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from glocal.model_problems import AssembledSystem, assemble, extract_submesh


def solve_condense(system: AssembledSystem, interface_dofs):
    """``(S, b)`` of ``system`` on ``interface_dofs`` by n_g sparse solves."""
    iface = np.asarray(interface_dofs, dtype=np.int64)
    interior = np.setdiff1d(np.arange(system.dof_count), iface)
    k, f = system.stiffness, system.load
    k_g = k[iface]
    k_gg = k_g[:, iface].toarray()
    k_gi = k_g[:, interior].tocsr()
    if interior.size == 0:
        return k_gg, f[iface].copy()
    k_ii = k[interior][:, interior].tocsc()
    factor = spla.splu(k_ii, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    schur = k_gg - k_gi @ factor.solve(k_gi.T.toarray())
    rhs = f[iface] - k_gi @ factor.solve(f[interior])
    return schur, rhs


def per_part_global_schur(global_model, labels, gamma_nodes):
    """``(S_G, b_G)`` summed over the subdomains' global parts one by one,
    each condensed by :func:`solve_condense`."""
    labels = np.asarray(labels).astype(np.int64)
    ndpn = global_model.ndof_per_node
    n = len(gamma_nodes) * ndpn
    schur, rhs = np.zeros((n, n)), np.zeros(n)
    for sid in np.unique(labels):
        part, node_map = extract_submesh(global_model,
                                         np.flatnonzero(labels == sid))
        gnodes = np.intersect1d(node_map, gamma_nodes)
        system = assemble(part)
        s, b = solve_condense(
            system, system.node_dofs(np.searchsorted(node_map, gnodes)))
        pos = np.searchsorted(gamma_nodes, gnodes)
        amap = (pos[:, None] * ndpn + np.arange(ndpn)).reshape(-1)
        schur[np.ix_(amap, amap)] += s
        rhs[amap] += b
    return schur, rhs
