"""Static condensation of assembled systems onto interface dofs.

For a reduced system ``K u = f`` and a split of its dofs into interface
and interior blocks, the condensed operator is the Schur complement

    S = K_gg - K_gi K_ii^{-1} K_ig,      b = f_g - K_gi K_ii^{-1} f_i,

so that the interface reaction (discrete Dirichlet-to-Neumann map) of the
subdomain under an interface trace ``u_g`` is ``S u_g - b``.  The interior
block stays sparse and is factorized with SuperLU in symmetric mode
(diagonal pivots on a minimum-degree ordering of K_ii + K_ii^T), which is
a sparse LDL^T; a pivot that is not positive rejects the block as not SPD.
K_gi stays sparse too.  Only S is dense: it is n_g x n_g and is what every
interface reaction multiplies.

The factor used to form S is dropped once S is formed: SuperLU keeps its
whole fill-estimate workspace alive, and a scenario holds one factor per
subdomain.  Interior recovery factors K_ii again on its first call and
reuses that factor for later calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularInteriorError
from .model_problems import AssembledSystem

__all__ = ["CondensedOperator", "condense", "dirichlet_to_neumann",
           "expand_interior"]


@dataclass(frozen=True)
class CondensedOperator:
    """Schur complement of one subdomain on its interface dofs.

    ``interface_dofs`` and ``interior_dofs`` index into the reduced dof
    numbering of the originating :class:`AssembledSystem`; together they
    cover it exactly.  ``schur`` is a dense C-contiguous array and inherits
    symmetry and, for meshes with enough Dirichlet data or a nonempty
    interface complement, positive definiteness from the stiffness.  The
    sparse K_ii and K_gi are kept for :func:`expand_interior`.
    """

    schur: np.ndarray
    rhs: np.ndarray
    interface_dofs: np.ndarray
    interior_dofs: np.ndarray
    dof_count: int
    _k_interior: sp.csc_matrix
    _k_interface_interior: sp.csr_matrix
    _f_interior: np.ndarray

    @property
    def interface_count(self) -> int:
        return len(self.interface_dofs)

    @cached_property
    def _interior_factor(self) -> spla.SuperLU:
        # condense() has already checked that K_ii is SPD.
        return _factor_spd(self._k_interior, "interior block")


def condense(system: AssembledSystem, interface_dofs,
             label: str = "interior block") -> CondensedOperator:
    """Condense a reduced system onto the given interface dofs.

    ``interface_dofs`` must be unique, in range, and may not cover all dofs
    unless the interior is genuinely empty (then S is just K_gg).  ``label``
    names the subdomain in the singular-interior error.
    """
    iface = np.asarray(interface_dofs, dtype=np.int64)
    n = system.dof_count
    if iface.ndim != 1:
        raise ValueError("interface dofs must be a flat index list")
    if len(np.unique(iface)) != len(iface):
        raise ValueError("interface dofs contain duplicates")
    if iface.size and (iface.min() < 0 or iface.max() >= n):
        raise ValueError("interface dof out of range")

    mask = np.ones(n, dtype=bool)
    mask[iface] = False
    interior = np.nonzero(mask)[0]

    k = system.stiffness
    f = system.load
    k_g = k[iface]
    k_gg = k_g[:, iface].toarray()
    k_gi = k_g[:, interior].tocsr()
    k_ii = k[interior][:, interior].tocsc()
    if interior.size == 0:
        return CondensedOperator(schur=k_gg, rhs=f[iface].copy(),
                                 interface_dofs=iface, interior_dofs=interior,
                                 dof_count=n, _k_interior=k_ii,
                                 _k_interface_interior=k_gi,
                                 _f_interior=np.zeros(0))

    factor = _factor_spd(k_ii, label)
    # K_ii^{-1} K_ig as one multi-rhs sweep through the sparse factor.
    w = factor.solve(k_gi.T.toarray())
    schur = np.ascontiguousarray(k_gg - k_gi @ w)
    rhs = f[iface] - k_gi @ factor.solve(f[interior])
    return CondensedOperator(schur=schur, rhs=rhs, interface_dofs=iface,
                             interior_dofs=interior, dof_count=n,
                             _k_interior=k_ii, _k_interface_interior=k_gi,
                             _f_interior=f[interior].copy())


def _factor_spd(k_ii: sp.csc_matrix, label: str) -> spla.SuperLU:
    """Sparse symmetric factor of K_ii; SingularInteriorError unless SPD.

    With diagonal pivoting a symmetric matrix is positive definite exactly
    when every pivot is positive.  SuperLU falls back to an off-diagonal
    pivot when a diagonal one is zero, which only an indefinite or singular
    matrix produces, so that is rejected as well.
    """
    try:
        factor = spla.splu(k_ii, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
    except RuntimeError as err:  # "Factor is exactly singular"
        raise SingularInteriorError(label) from err
    if (np.any(~(factor.U.diagonal() > 0.0))
            or not np.array_equal(factor.perm_r, factor.perm_c)):
        raise SingularInteriorError(label)
    return factor


def dirichlet_to_neumann(op: CondensedOperator,
                         u_interface: np.ndarray) -> np.ndarray:
    """Interface reaction of the subdomain under the trace ``u_interface``."""
    u = np.asarray(u_interface, dtype=float)
    if u.shape != (op.interface_count,):
        raise ValueError("trace length does not match the interface")
    return op.schur @ u - op.rhs


def expand_interior(op: CondensedOperator,
                    u_interface: np.ndarray) -> np.ndarray:
    """Recover the full reduced-dof vector from an interface trace.

    Interior values solve ``K_ii u_i = f_i - K_ig u_g`` with a sparse factor
    of K_ii, made on the operator's first recovery and reused after; the
    result is laid out in the original reduced numbering.
    """
    u = np.asarray(u_interface, dtype=float)
    if u.shape != (op.interface_count,):
        raise ValueError("trace length does not match the interface")
    full = np.empty(op.dof_count)
    full[op.interface_dofs] = u
    if op.interior_dofs.size:
        rhs = op._f_interior - op._k_interface_interior.T @ u
        full[op.interior_dofs] = op._interior_factor.solve(rhs)
    return full
