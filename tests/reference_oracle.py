"""The block-sliced monolithic reference, kept as a test-only oracle.

This is how the package solved the coupled problem before it assembled
it as one primal prolongation P^T K P: per subdomain it slices K into
interface/interface, interface/interior and interior/interior blocks,
maps the interface block onto Gamma through C = J A^T, fills an
(N+1) x (N+1) block grid and solves it with a general sparse LU.  It
reads the interface/interior split from the condensed operators.  Nothing
in ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def block_reference(scenario):
    """Return ``(u_gamma, fields)`` of the coupled problem."""
    ng = scenario.gamma_dim
    blocks_interior: list = []
    coupling_rows: list = []
    rhs_gamma = np.zeros(ng)
    rhs_interior: list[np.ndarray] = []
    k_gamma = sp.csr_matrix((ng, ng))

    subdomains = scenario.subdomains.values()
    for sub in subdomains:
        system = sub.system
        iface = sub.interface_dofs
        interior = sub.interior_dofs
        k = system.stiffness
        amap = sub.amap
        a_op = sp.csr_matrix((np.ones(len(amap)),
                              (np.arange(len(amap)), amap)),
                             shape=(len(amap), ng))
        j = sub.transfer
        c = a_op if j is None else (j @ a_op).tocsr()

        k_gg = k[iface][:, iface]
        k_gi = k[iface][:, interior]
        k_ii = k[interior][:, interior]
        k_gamma = k_gamma + c.T @ k_gg @ c
        coupling_rows.append(c.T @ k_gi)
        blocks_interior.append(k_ii)
        rhs_gamma += c.T @ system.load[iface]
        rhs_interior.append(system.load[interior])

    n_sub = len(subdomains)
    grid: list[list] = [[None] * (n_sub + 1) for _ in range(n_sub + 1)]
    grid[0][0] = k_gamma
    for i in range(n_sub):
        grid[0][i + 1] = coupling_rows[i]
        grid[i + 1][0] = coupling_rows[i].T
        grid[i + 1][i + 1] = blocks_interior[i]
    big = sp.bmat(grid, format="csc")
    rhs = np.concatenate([rhs_gamma] + rhs_interior)
    x = spla.spsolve(big, rhs)

    u_gamma = x[:ng]
    fields: dict[int, np.ndarray] = {}
    offset = ng
    for sub in subdomains:
        interior = sub.interior_dofs
        trace = u_gamma[sub.amap]
        if sub.transfer is not None:
            trace = sub.transfer @ trace
        u_local = np.empty(sub.system.dof_count)
        u_local[sub.interface_dofs] = trace
        u_local[interior] = x[offset:offset + len(interior)]
        offset += len(interior)
        fields[sub.sid] = sub.system.full_field(u_local)
    return u_gamma, fields
