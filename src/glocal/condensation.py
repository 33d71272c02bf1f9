"""Static condensation of assembled systems onto an interface trace.

For a reduced system ``K u = f``, a split of its dofs into interface and
interior blocks, and a transfer J that gives the interface dofs the trace
``J u`` of m unknowns (J = I by default), the condensed operator is

    S = J^T K_gg J - (K_ig J)^T K_ii^{-1} (K_ig J),
    b = J^T f_g - (K_ig J)^T K_ii^{-1} f_i,

so that the interface reaction (discrete Dirichlet-to-Neumann map) of the
subdomain under a trace ``u`` is ``S u - b``.  J is folded in before
elimination, so nothing dense is formed on the n_g fine interface dofs.
The interior block stays sparse and is factorized with SuperLU in
symmetric mode (diagonal pivots on a minimum-degree ordering P of
K_ii + K_ii^T), which is a sparse LDL^T; a pivot that is not positive
rejects the block as not SPD.  That factor also gives b with one solve.
K_gi stays sparse too.  Only S is dense: it is m x m and is what every
interface reaction multiplies.

S comes from a second, bordered factorization, as in the Schur option of
sparse direct solvers.  With K_gi and K_gg standing for J^T K_gi and
J^T K_gg J, the LU factor of

    [[P K_ii P^T, 0],
     [K_gi P^T,   I]]

in that order has the leading block L11 U11 = P K_ii P^T with
U11 = D L11^T, and the border row block L21 = K_gi P^T U11^{-1}.  So
K_gi K_ii^{-1} K_ig = L21 D L21^T and S = K_gg - (L21 D) L21^T, one GEMM
over the columns of L21 that hold any entry.  For a small interior or a
short trace this second factorization costs more, in time or in peak
memory, than pushing the m columns of K_ig through the first factor, so
below a work estimate S comes from those solves instead.

No factor outlives the call: SuperLU keeps its whole fill-estimate
workspace alive, and a scenario holds one operator per subdomain.
Interior recovery factors K_ii again on its first call and reuses that
factor for later calls.
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

# Work estimate (m times the K_ii factor's entries, or times the n_i m
# entries of the solves' block K_ii^{-1} K_ig when fewer) from which S comes
# from the bordered factorization.  On a 2-vCPU Xeon with one OpenBLAS
# thread that is faster from about 3e6, but up to 1e7 it saves at most a
# few ms per subdomain, and on the imbalanced 3D grid it then raised the
# peak RSS of a build by about 5 % where the solves did not.  A 3D patch on
# 19 trace dofs (block < factor) takes 0.23 s by solves, 0.40 s bordered.
_BORDERED_WORK = 20_000_000

# Symmetric mode: diagonal pivots on a minimum-degree order of K + K^T.
_SPD_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})


@dataclass(frozen=True)
class CondensedOperator:
    """Schur complement of one subdomain on its interface trace.

    ``interface_dofs`` and ``interior_dofs`` index into the reduced dof
    numbering of the originating :class:`AssembledSystem`; together they
    cover it exactly.  ``schur``/``rhs`` act on the trace u, ``J u`` on
    the interface dofs, with J = ``transfer`` (I on a global part or the
    complement).  ``schur`` is a dense C-contiguous array and inherits
    symmetry and, for meshes with enough Dirichlet data or a nonempty
    interface complement, positive definiteness from the stiffness.  The
    originating ``system`` is kept, not copies of its blocks:
    :func:`expand_interior` slices K_ii and K_gi from it.
    """

    schur: np.ndarray
    rhs: np.ndarray
    interface_dofs: np.ndarray
    interior_dofs: np.ndarray
    transfer: sp.csr_matrix
    system: AssembledSystem

    @property
    def dof_count(self) -> int:
        return self.system.dof_count

    @property
    def interface_count(self) -> int:
        """Length of the trace the operator takes: m, the columns of J."""
        return len(self.rhs)

    @cached_property
    def _interior_factor(self) -> spla.SuperLU:
        # condense() has already checked that K_ii is SPD.  Reading the
        # pivots again would leave CSC copies of L and U on the factor.
        k, interior = self.system.stiffness, self.interior_dofs
        return spla.splu(k[interior][:, interior].tocsc(), **_SPD_OPTIONS)


def condense(system: AssembledSystem, interface_dofs,
             label: str = "interior block",
             transfer: sp.spmatrix | None = None) -> CondensedOperator:
    """Condense a reduced system onto the given interface dofs.

    ``interface_dofs`` must be unique, in range, and may not cover all dofs
    unless the interior is genuinely empty (then S is just K_gg).
    ``transfer`` is J (n_g x m, rows in ``interface_dofs`` order; None is
    I, built here); ``label`` names the subdomain in SingularInteriorError.
    """
    iface = np.asarray(interface_dofs, dtype=np.int64)
    n = system.dof_count
    if iface.ndim != 1:
        raise ValueError("interface dofs must be a flat index list")
    if len(np.unique(iface)) != len(iface):
        raise ValueError("interface dofs contain duplicates")
    if iface.size and (iface.min() < 0 or iface.max() >= n):
        raise ValueError("interface dof out of range")
    identity = transfer is None
    if identity:
        transfer = sp.identity(len(iface), format="csr")

    interior = np.setdiff1d(np.arange(n), iface)
    k, f = system.stiffness, system.load
    k_g = k[iface]
    k_gi = k_g[:, interior].tocsr()
    k_ii = k[interior][:, interior].tocsc()
    # J is applied as a dense array: sparse-sparse products cost more at
    # these sizes, so only the bordered path forms the sparse J^T K_gi.
    jd = None if identity else transfer.toarray()
    k_gg = k_g[:, iface].toarray() if identity \
        else jd.T @ (k_g[:, iface] @ jd)
    schur, rhs = k_gg, f[iface]
    if interior.size:
        factor = _factor_spd(k_ii, label)
        rhs = rhs - k_gi @ factor.solve(f[interior])
        m, schur = len(k_gg), None
        if m * min(factor.nnz, m * interior.size) >= _BORDERED_WORK:
            border = k_gi if identity else (transfer.T @ k_gi).tocsr()
            schur = _bordered_schur(k_ii, border, factor.perm_c, k_gg)
        if schur is None:
            # K_ii^{-1} K_ig J as one multi-rhs sweep through the factor.
            k_ig = k_gi.T.toarray() if identity else k_gi.T @ jd
            coupled = k_gi @ factor.solve(k_ig)
            schur = k_gg - (coupled if identity else jd.T @ coupled)
    rhs = rhs if identity else jd.T @ rhs
    return CondensedOperator(schur=np.ascontiguousarray(schur), rhs=rhs,
                             interface_dofs=iface, interior_dofs=interior,
                             transfer=transfer, system=system)


def _bordered_schur(k_ii: sp.csc_matrix, k_gi: sp.csr_matrix,
                    perm: np.ndarray, k_gg: np.ndarray) -> np.ndarray | None:
    """``K_gg - (L21 D) L21^T`` from one LU of the bordered matrix.

    ``perm`` is the K_ii factor's ``perm_c``: interior dof i becomes
    bordered row and column ``perm[i]``, and border row a (row a of K_gi)
    becomes ``n_i + a``.  SuperLU may still reorder the natural order it
    is given, so the factor is read through its own ``perm_c``; None when
    that order does not eliminate every interior dof before the border,
    where the border rows of L are not L21.
    """
    ni, m = k_gi.shape[::-1]
    order = np.concatenate([np.argsort(perm), np.arange(ni, ni + m)])
    bordered = sp.bmat([[k_ii, None], [k_gi, sp.identity(m)]],
                       format="csc")[order][:, order]
    lu = spla.splu(bordered, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    at = lu.perm_c
    if np.any(at[ni:] < ni) or not np.array_equal(lu.perm_r, at):
        return None
    lower = lu.L
    pivots = lu.U.diagonal()[:ni]
    del lu
    # L21 is what the first n_i columns of L hold below row n_i; border
    # row a sits in row at[n_i + a].
    stop = lower.indptr[ni]
    hit = np.flatnonzero(lower.indices[:stop] >= ni)
    col = np.searchsorted(lower.indptr, hit, side="right") - 1
    row = np.argsort(at[ni:])
    live, col = np.unique(col, return_inverse=True)
    l21 = np.zeros((m, len(live)))
    l21[row[lower.indices[hit] - ni], col] = lower.data[hit]
    return k_gg - (l21 * pivots[live]) @ l21.T


def _factor_spd(k_ii: sp.csc_matrix, label: str) -> spla.SuperLU:
    """Sparse symmetric factor of K_ii; SingularInteriorError unless SPD.

    With diagonal pivoting a symmetric matrix is positive definite exactly
    when every pivot is positive.  SuperLU falls back to an off-diagonal
    pivot when a diagonal one is zero, which only an indefinite or singular
    matrix produces, so that is rejected as well.
    """
    try:
        factor = spla.splu(k_ii, **_SPD_OPTIONS)
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

    Interface dofs take ``J u`` and interior ones solve
    ``K_ii u_i = f_i - K_ig J u`` with a sparse factor of K_ii, made on the
    first recovery and reused after; the result is in reduced numbering.
    """
    u = np.asarray(u_interface, dtype=float)
    if u.shape != (op.interface_count,):
        raise ValueError("trace length does not match the interface")
    full = np.empty(op.dof_count)
    trace = op.transfer @ u
    full[op.interface_dofs] = trace
    if op.interior_dofs.size:
        k, f = op.system.stiffness, op.system.load
        k_gi = k[op.interface_dofs][:, op.interior_dofs]
        rhs = f[op.interior_dofs] - k_gi.T @ trace
        full[op.interior_dofs] = op._interior_factor.solve(rhs)
    return full
