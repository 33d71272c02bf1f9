"""Multi-right-hand-side condensation, kept as a test-only oracle.

This is how the package formed every Schur complement before it read S
off a bordered factorization: one sparse symmetric factor of K_ii and the
n_g columns of K_ig pushed through both of its triangular factors,

    S = K_gg - K_gi (K_ii^{-1} K_ig),      b = f_g - K_gi K_ii^{-1} f_i.

Tests compare ``condense`` against it on both of its paths; nothing in
``src/`` imports it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from glocal.model_problems import AssembledSystem


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
