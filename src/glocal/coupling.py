"""Coupling topology: how fine patches plug into the global model.

A scenario starts from one global mesh whose elements are labelled by
subdomain: label 0 is the complement (optional), labels 1..N are patch
zones.  Each patch zone has a fine mesh covering the same region.  The
coupling interface Gamma is the set of free global nodes shared by at
least two subdomains; Gamma and the global facets the subdomains share
come from one array pass over the element incidences.  Each subdomain is
one :class:`Subdomain` record holding everything about it:

* its assembly map ``A_s`` (a dof index map) scattering its interface
  dofs into Gamma,
* its transfer map ``J_s``, the trace of the coarse global field at the
  fine interface nodes: each free fine boundary node on a global interface
  facet (vertex, edge or parallelogram face) takes that facet's weights;
  a permutation when the meshes match, the identity on the complement,
* its fine model, assembled and condensed by :mod:`.condensation`
  straight onto its own Gamma dofs: the compact operator
  ``S_s = J_s^T S_sF J_s``, ``b_s = J_s^T b_sF``, stored once, with no
  S_sF on the fine interface formed.

The assembled global interface operator is ``S_G = sum A_s S_sG A_s^T``
(with its load ``b_G``), summed from the global-side Schur complements.
The build checks S_G is SPD by its Cholesky factor, and S_G^{-1} is
formed from it once, on first use; the global solve
``u = S_G^{-1} (b_G + p)``, the companions and the spectrum all apply it
as one product with that cached inverse.  The residual of the coupled
problem at a trace u is

    r(u) = -( sum_s A_s (S_s A_s^T u - b_s) ),

zero exactly at the reference (monolithic) solution.  The patch blocks
are stored once, zero-padded into one stack that the records view, so
:func:`patch_reactions` computes every patch product in one batched call
and :func:`scatter_residual` sums them with the complement's reaction in
one pass.  ``residual_offset`` is the affine part of -r expressed in the
interface load variable, i.e. r(p) = -(Q p + offset) with
Q = (sum_s A_s S_s A_s^T) S_G^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

# dirichlet_to_neumann stays bound here: perfbench traces it by this name.
from .condensation import CondensedOperator, condense
from .condensation import dirichlet_to_neumann  # noqa: F401
from .errors import ConfigError, GeometryError, TopologyError
from .model_problems import (AssembledSystem, MeshModel, assemble,
                             extract_submesh)

__all__ = [
    "Subdomain",
    "CouplingScenario",
    "build_transfer",
    "embedded_fine_schur",
    "residual_offset",
    "interface_reaction",
    "patch_reactions",
    "scatter_residual",
    "build_scenario",
]

# Coupled unknowns (Gamma plus every subdomain interior) a scenario may
# have; keeps dense condensation and certificates at desk scale.
MAX_COUPLED_DOFS = 50_000


@dataclass(frozen=True)
class Subdomain:
    """One subdomain of the coupling: the complement (sid 0) or a patch.

    ``mesh`` is the fine mesh of a patch, or the global part itself for
    the complement; ``system`` is its assembled model and ``condensed``
    that model condensed onto the trace of its Gamma dofs.
    ``interface_nodes`` are free parent (global-mesh) node ids and
    ``mesh_interface_nodes`` index into ``mesh``, both sorted.  ``amap`` is
    ``A_s`` as Gamma dof indices, ``transfer`` is ``J_s`` (the identity
    on the complement), and ``schur``/``rhs`` are ``condensed``'s compact
    ``J_s^T S_sF J_s`` and ``J_s^T b_sF``, a patch's viewed in the stack.
    """

    sid: int
    mesh: MeshModel
    global_part: MeshModel
    interface_nodes: np.ndarray
    mesh_interface_nodes: np.ndarray
    amap: np.ndarray
    transfer: sp.csr_matrix
    system: AssembledSystem
    condensed: CondensedOperator
    schur: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class CouplingScenario:
    """Everything the solvers need, built once by :func:`build_scenario`.

    Subdomain id 0 is the complement when present; patches are 1..N.  The
    order of ``subdomains`` fixes the traversal used everywhere, which
    keeps residual assembly deterministic.  ``patch_schur`` (P, m, m),
    ``patch_rhs`` and ``patch_index`` (P, m) stack the patch blocks, loads
    and Gamma dofs, zero-padded to m; padding is 0 and reads Gamma dof 0.
    """

    name: str
    global_model: MeshModel
    gamma_nodes: np.ndarray             # free interface nodes, sorted
    ndof_per_node: int
    subdomains: dict[int, Subdomain]
    schur_global: np.ndarray
    rhs_global: np.ndarray
    patch_schur: np.ndarray
    patch_rhs: np.ndarray
    patch_index: np.ndarray
    _sg_chol: tuple = field(repr=False, default=None)

    @property
    def gamma_dim(self) -> int:
        return len(self.gamma_nodes) * self.ndof_per_node

    @cached_property
    def subdomain_ids(self) -> tuple[int, ...]:
        return tuple(self.subdomains)

    @cached_property
    def patch_ids(self) -> tuple[int, ...]:
        return tuple(s for s in self.subdomains if s != 0)

    @property
    def complement(self) -> Subdomain | None:
        return self.subdomains.get(0)

    @cached_property
    def _scatter_index(self) -> np.ndarray:
        head = [] if self.complement is None else [self.complement.amap]
        return np.concatenate(head + [self.patch_index.ravel()])

    @cached_property
    def _sg_inverse(self) -> np.ndarray:
        """Shared, read-only S_G^{-1}: one solve on the identity."""
        inv = la.cho_solve(self._sg_chol, np.eye(self.gamma_dim),
                           check_finite=False)
        inv.flags.writeable = False
        return inv

    def solve_interface(self, p_gamma: np.ndarray) -> np.ndarray:
        """Global interface solve ``u = S_G^{-1} (b_G + p)``: one product
        with the cached :attr:`_sg_inverse`, as the spectrum applies it."""
        p = np.asarray(p_gamma, dtype=float)
        if p.shape != (self.gamma_dim,):
            raise ValueError("interface load has the wrong length")
        return self._sg_inverse @ (self.rhs_global + p)


# ---------------------------------------------------------------------------
# transfer operators


# Facet kinds by corner count: a vertex (1D), an edge (2D) and a face with
# corners in loop order (3D), as ``_FACET_CORNERS`` lists them.  Each row
# places one corner in the facet's local coordinates; the corners listed
# in ``_AXIS_CORNERS`` span them from corner 0.
_REFERENCE_CORNERS = {1: np.zeros((1, 0)),
                      2: np.array([[0.0], [1.0]]),
                      4: np.array([[0.0, 0.0], [1.0, 0.0],
                                   [1.0, 1.0], [0.0, 1.0]])}
_AXIS_CORNERS = {1: [], 2: [1], 4: [1, 3]}


def build_transfer(global_coords: np.ndarray, fine_coords: np.ndarray,
                   facets, tol: float | None = None) -> sp.csr_matrix:
    """Trace of the global interface facets at the fine nodes.

    ``facets`` are index tuples into ``global_coords``, all of one kind:
    vertices, edges, or parallelogram faces with corners in loop order.
    A fine node is on the interface when it lies within ``tol`` of some
    facet.  Its row is the coarse element trace there: 1 on a vertex,
    (1-t, t) on an edge, the four bilinear weights on a face.  Rows sum
    to one and reproduce linear fields.  A node on several facets takes
    the first; the weights agree there.  Rows of fine nodes on no facet
    store no entries.  Every node meets every facet in one batched pass,
    so pass only candidates.  :class:`GeometryError` is raised when no
    fine node lies on a facet, or a facet is degenerate or not a
    parallelogram.
    """
    gc = np.atleast_2d(np.asarray(global_coords, dtype=float))
    fc = np.atleast_2d(np.asarray(fine_coords, dtype=float))
    facets = np.asarray(facets, dtype=np.int64)
    if gc.shape[0] == 0 or fc.shape[0] == 0 or facets.size == 0:
        raise GeometryError("empty interface")
    if gc.shape[1] != fc.shape[1]:
        raise GeometryError("coordinate dimensions differ between sides")
    if facets.ndim != 2 or facets.shape[1] not in _REFERENCE_CORNERS:
        raise GeometryError("facets must all be vertices, edges or "
                            "quadrilateral faces")
    if facets.min() < 0 or facets.max() >= len(gc):
        raise GeometryError("facet refers to a missing global node")
    if tol is None:
        tol = 1e-9 * max(np.ptp(gc, axis=0).max(), 1.0)

    k = facets.shape[1]
    ref = _REFERENCE_CORNERS[k]
    corners = gc[facets]                                     # (F, k, d)
    basis = corners[:, _AXIS_CORNERS[k]] - corners[:, :1]    # (F, a, d)
    skew = np.linalg.norm(corners[:, :1] + ref @ basis - corners,
                          axis=2).max(axis=1) > tol
    flat = np.any(np.linalg.svd(basis, compute_uv=False) <= tol, axis=1)
    bad = np.flatnonzero(skew | flat)
    if bad.size:
        what = "not a parallelogram" if skew[bad[0]] else "degenerate"
        raise GeometryError(f"facet at {corners[bad[0]].tolist()} is {what}")

    # Local coordinates of every node on every facet: (F, n, a).
    w = fc - corners[:, :1]
    xi = np.linalg.solve(basis @ basis.transpose(0, 2, 1),
                         basis @ w.transpose(0, 2, 1)).transpose(0, 2, 1)
    off = np.linalg.norm(w - xi @ basis, axis=2)
    slack = (tol / np.linalg.norm(basis, axis=2))[:, None, :]
    on = (off <= tol) & np.all((xi >= -slack) & (xi <= 1.0 + slack), axis=2)
    placed = on.any(axis=0)
    if not placed.any():
        raise GeometryError(
            "no fine node lies on the global interface (geometry mismatch "
            "or inconsistent Dirichlet data)")
    first = on.argmax(axis=0)[placed]
    # Nodes within tol outside the facet take the trace at its edge.
    xi = np.clip(xi[first, np.flatnonzero(placed)], 0.0, 1.0)[:, None, :]
    vals = np.prod(np.where(ref == 1.0, xi, 1.0 - xi), axis=2)
    indptr = np.concatenate([[0], np.cumsum(np.where(placed, k, 0))])
    return sp.csr_matrix((vals.ravel(), facets[first].ravel(), indptr),
                         shape=(len(fc), len(gc)))


# ---------------------------------------------------------------------------
# per-subdomain operators


def embedded_fine_schur(gamma_dim: int, op: CondensedOperator,
                        amap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compact fine operator ``(J^T S_F J, J^T b_F)`` on one Gamma_s, as
    condensed onto the trace; scatter-added at ``(amap, amap)`` it embeds."""
    if op.interface_count != len(amap):
        raise TopologyError("assembly map does not match the transfer")
    if np.any((amap < 0) | (amap >= gamma_dim)):
        raise TopologyError("assembly map points outside the interface")
    return op.schur, op.rhs


def patch_reactions(scenario: CouplingScenario, u_gamma: np.ndarray,
                    rows: slice = slice(None)) -> np.ndarray:
    """Compact reactions ``S_s A_s^T u - b_s`` of the patches in ``rows``
    of the stack, one zero-padded row each, from one batched product."""
    u = u_gamma[scenario.patch_index[rows]]
    return (np.matmul(scenario.patch_schur[rows], u[..., None])[..., 0]
            - scenario.patch_rhs[rows])


def scatter_residual(scenario: CouplingScenario, u_gamma: np.ndarray,
                     reactions: np.ndarray) -> np.ndarray:
    """``r = -(complement reaction at u + the stacked patch reactions)``,
    the rows taken at u or older traces; one ``bincount`` sums them on
    Gamma in subdomain order."""
    weights = reactions.ravel()
    comp = scenario.complement
    if comp is not None:
        weights = np.concatenate(
            [comp.schur @ u_gamma[comp.amap] - comp.rhs, weights])
    return -np.bincount(scenario._scatter_index, weights,
                        minlength=scenario.gamma_dim)


def interface_reaction(scenario: CouplingScenario, sid: int,
                       u_gamma: np.ndarray) -> np.ndarray:
    """One subdomain's reaction ``A_s (S_s A_s^T u - b_s)`` scattered on Gamma.

    This equals ``A_s J_s^T lambda_s`` with ``lambda_s`` the fine-side
    interface reaction under the interpolated trace; summing over
    subdomains and negating gives the coupling residual.  A patch's
    reaction is its one-row slice of :func:`patch_reactions`.
    """
    sub = scenario.subdomains[sid]
    out = np.zeros(scenario.gamma_dim)
    if sid == 0:
        out[sub.amap] = sub.schur @ u_gamma[sub.amap] - sub.rhs
    else:
        row = scenario.patch_ids.index(sid)
        out[sub.amap] = patch_reactions(scenario, u_gamma,
                                        slice(row, row + 1))[0, :len(sub.amap)]
    return out


def residual_offset(scenario: CouplingScenario) -> np.ndarray:
    """Affine part of the (negated) coupling residual in the load variable.

    Equals ``-r(p=0)``; the coupled reference load solves
    ``Q p + offset = 0`` with ``Q = (sum_s A_s S_s A_s^T) S_G^{-1}``.
    """
    u0 = scenario.solve_interface(np.zeros(scenario.gamma_dim))
    return -scatter_residual(scenario, u0, patch_reactions(scenario, u0))


# ---------------------------------------------------------------------------
# interface topology


# Local corner indices of each element facet: the two ends of a rod, the
# three edges of a triangle, the six faces of a hex with corners in loop
# order (the order ``build_transfer`` expects).
_FACET_CORNERS = {1: np.array([[0], [1]]),
                  2: np.array([[0, 1], [1, 2], [2, 0]]),
                  3: np.array([[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 5, 4],
                               [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]])}


def _facets(mesh: MeshModel):
    """Every element facet of ``mesh``, element by element, then
    ``np.unique``'s first index, inverse and counts of their names.  A
    facet's name is the index of its (up to) three smallest corners,
    sorted: two faces of a hex mesh share at most an edge."""
    corners = _FACET_CORNERS[mesh.dimension]
    facets = mesh.elements[:, corners].reshape(-1, corners.shape[1])
    head = np.sort(facets, axis=1)[:, :3]
    names = np.ravel_multi_index(head.T, (mesh.node_count,) * head.shape[1])
    return (facets, *np.unique(names, return_index=True, return_inverse=True,
                               return_counts=True)[1:])


def _free_boundary(mesh: MeshModel) -> np.ndarray:
    """Sorted free nodes on the facets that belong to one element only."""
    facets, first, _, count = _facets(mesh)
    return np.setdiff1d(facets[first[count == 1]], list(mesh.dirichlet))


def _interface(global_model: MeshModel, labels: np.ndarray):
    """Subdomain ids and the Gamma nodes and facets they share, found in
    one array pass over the element incidences.

    Returns ``(sids, gamma_nodes, gamma_touch, facets, facet_touch)``.
    ``sids`` are the sorted labels; column c of both tables stands for
    ``sids[c]``.  ``gamma_nodes`` are the free nodes touched by two or
    more subdomains, sorted, and ``gamma_touch`` marks which subdomains
    touch each.  ``facets`` are the element facets on two or more
    subdomains, in the order first met walking the elements and with the
    corner order of the first element holding them; ``facet_touch`` marks
    theirs.
    """
    sids, column = np.unique(labels, return_inverse=True)
    elements = global_model.elements
    node_touch = np.zeros((global_model.node_count, len(sids)), dtype=bool)
    node_touch[elements, column[:, None]] = True
    iface = np.flatnonzero(node_touch.sum(axis=1) >= 2)
    held = np.array(list(global_model.dirichlet), dtype=np.int64)
    held_values = np.array(list(global_model.dirichlet.values()))
    nonzero = np.intersect1d(iface, held[held_values != 0.0])
    if nonzero.size:
        raise GeometryError("interface nodes with nonzero prescribed values "
                            f"are not supported (nodes {nonzero.tolist()})")
    gamma_nodes = np.setdiff1d(iface, held)

    facets, first, facet_id, _ = _facets(global_model)
    facet_touch = np.zeros((len(first), len(sids)), dtype=bool)
    facet_touch[facet_id, column.repeat(len(facets) // len(column))] = True
    shared = np.flatnonzero(facet_touch.sum(axis=1) >= 2)
    shared = shared[np.argsort(first[shared])]
    return (sids, gamma_nodes, node_touch[gamma_nodes],
            facets[first[shared]], facet_touch[shared])


def _patch_transfer(sid: int, global_model: MeshModel, fine: MeshModel,
                    facets, gnodes: np.ndarray, ndpn: int, tol: float
                    ) -> tuple[np.ndarray, sp.csr_matrix]:
    """Fine interface nodes of one patch and its dof-level transfer J_s.

    One batched pass over the patch's global interface facets places the
    free nodes of the fine mesh's own boundary that lie on one and gives
    their trace weights; the columns are the patch's free global
    interface nodes ``gnodes``.
    """
    if fine.dimension != global_model.dimension or \
            fine.material.kind != global_model.material.kind:
        raise TopologyError(f"patch {sid}: fine mesh dimension or "
                            "material kind differs from the global model")
    facets = np.array(facets, dtype=np.int64)
    corner_nodes, local = np.unique(facets, return_inverse=True)
    candidates = _free_boundary(fine)
    j_all = build_transfer(global_model.nodes[corner_nodes],
                           fine.nodes[candidates],
                           local.reshape(facets.shape), tol)
    on = j_all.getnnz(axis=1) > 0
    fine_iface = candidates[on]
    # Nested-refinement check: every free global interface node needs a
    # fine interface node within tol, or the two traces cannot agree.
    gap = np.linalg.norm(global_model.nodes[gnodes][:, None]
                         - fine.nodes[fine_iface], axis=2).min(axis=1)
    missing = gnodes[gap > tol]
    if missing.size:
        raise GeometryError(
            f"patch {sid}: global interface node {int(missing[0])} has "
            "no matching fine node (interfaces differ geometrically)")
    # Columns of constrained corners multiply zero prescribed values.
    j_node = j_all[on][:, np.searchsorted(corner_nodes, gnodes)]
    if ndpn > 1:
        j_node = sp.kron(j_node, sp.identity(ndpn), format="csr")
    return fine_iface, j_node


# ---------------------------------------------------------------------------
# scenario construction


def build_scenario(global_model: MeshModel, labels,
                   fine_meshes: dict[int, MeshModel], *,
                   name: str = "scenario") -> CouplingScenario:
    """Assemble, condense and wire up a full coupling scenario.

    ``labels`` assigns every global element an integer subdomain id: 0 is
    the complement (may be absent), positive ids are patch zones and must
    each come with a fine mesh.  Every subdomain, global side and fine
    side, carries :func:`assemble`'s default load (a unit source, or a
    unit body force along the last axis, pointing down).  A scenario
    with more than ``MAX_COUPLED_DOFS`` coupled unknowns raises
    :class:`ConfigError` once its subdomains are wired, before anything
    is assembled.
    """
    labels = np.asarray(labels)
    if labels.shape != (global_model.element_count,):
        raise TopologyError("labels must assign one subdomain per element")
    if not np.all(np.isfinite(labels) & (labels == np.round(labels))):
        raise TopologyError("subdomain labels must be integers")
    labels = labels.astype(np.int64)
    if labels.min() < 0:
        raise TopologyError("subdomain labels must be non-negative")
    sids, gamma_nodes, gamma_touch, facets, facet_touch = \
        _interface(global_model, labels)
    patch_ids = sids[sids > 0].tolist()
    if not patch_ids:
        raise TopologyError("no patch zones: nothing to couple")
    if set(fine_meshes) != set(patch_ids):
        raise TopologyError(
            f"fine meshes {sorted(fine_meshes)} do not match patch zone "
            f"labels {patch_ids}")
    if not global_model.dirichlet:
        raise ConfigError("the global model carries no Dirichlet data; the "
                          "assembled interface operator would be singular")
    if gamma_nodes.size == 0:
        raise TopologyError("the coupling interface has no free nodes")

    ndpn = 1 if global_model.material.kind == "thermal" else \
        global_model.dimension
    tol = 1e-9 * max(np.ptp(global_model.nodes, axis=0).max(), 1.0)

    # Wire every subdomain to Gamma first: the coupled unknown count follows
    # from the meshes, so an oversized case is rejected before assembly.
    gamma_dim = len(gamma_nodes) * ndpn
    coupled_dofs = gamma_dim
    wiring = []
    for c, sid in enumerate(sids.tolist()):
        part, node_map = extract_submesh(global_model,
                                         np.flatnonzero(labels == sid))
        pos = np.flatnonzero(gamma_touch[:, c])
        if pos.size == 0:
            raise TopologyError(f"subdomain {sid} has no free interface "
                                "nodes (floating patch?)")
        gnodes = gamma_nodes[pos]
        amap = (pos[:, None] * ndpn + np.arange(ndpn)).reshape(-1)
        local_of = -np.ones(global_model.node_count, dtype=np.int64)
        local_of[node_map] = np.arange(len(node_map))
        local_ids = local_of[gnodes]
        if sid == 0:
            mesh, iface = part, local_ids
            j_dof = sp.identity(len(amap), format="csr")
        else:
            mesh = fine_meshes[sid]
            iface, j_dof = _patch_transfer(sid, global_model, mesh,
                                           facets[facet_touch[:, c]], gnodes,
                                           ndpn, tol)
        coupled_dofs += ndpn * (mesh.node_count - len(mesh.dirichlet)
                                - len(iface))
        wiring.append((sid, part, amap, gnodes, local_ids, mesh, iface, j_dof))
    if coupled_dofs > MAX_COUPLED_DOFS:
        raise ConfigError(f"scenario has {coupled_dofs} coupled unknowns, "
                          f"over the {MAX_COUPLED_DOFS} cap")

    # Patch blocks, loads and Gamma dofs are stacked once, zero-padded to
    # the largest patch interface; each patch record views its row.
    m = max(len(amap) for sid, _, amap, *_ in wiring if sid != 0)
    patch_schur = np.zeros((len(patch_ids), m, m))
    patch_rhs = np.zeros((len(patch_ids), m))
    patch_index = np.zeros((len(patch_ids), m), dtype=np.int64)
    schur_global = np.zeros((gamma_dim, gamma_dim))
    rhs_global = np.zeros(gamma_dim)
    subdomains: dict[int, Subdomain] = {}
    for sid, part, amap, gnodes, local_ids, mesh, iface, j_dof in wiring:
        system_g = assemble(part)
        cond_g = condense(system_g, system_g.node_dofs(local_ids),
                          label=f"subdomain {sid} (global part)")
        schur_global[np.ix_(amap, amap)] += cond_g.schur
        rhs_global[amap] += cond_g.rhs

        if sid == 0:
            system, cond = system_g, cond_g
        else:
            system = assemble(mesh)
            cond = condense(system, system.node_dofs(iface),
                            label=f"patch {sid} (fine)", transfer=j_dof)
        schur, rhs = embedded_fine_schur(gamma_dim, cond, amap)
        if sid != 0:
            i, k = patch_ids.index(sid), len(amap)
            patch_schur[i, :k, :k], patch_rhs[i, :k], patch_index[i, :k] = \
                schur, rhs, amap
            schur, rhs = patch_schur[i, :k, :k], patch_rhs[i, :k]
        subdomains[sid] = Subdomain(
            sid=sid, mesh=mesh, global_part=part, interface_nodes=gnodes,
            mesh_interface_nodes=iface, amap=amap, transfer=j_dof,
            system=system, condensed=cond, schur=schur, rhs=rhs)

    try:
        sg_chol = la.cho_factor(schur_global, lower=True, check_finite=False)
    except la.LinAlgError as err:
        raise ConfigError("assembled global interface operator is not "
                          "positive definite; check Dirichlet data") from err
    return CouplingScenario(
        name=name, global_model=global_model, gamma_nodes=gamma_nodes,
        ndof_per_node=ndpn, subdomains=subdomains,
        schur_global=schur_global, rhs_global=rhs_global,
        patch_schur=patch_schur, patch_rhs=patch_rhs,
        patch_index=patch_index, _sg_chol=sg_chol)

