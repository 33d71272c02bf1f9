"""Coupling topology: how fine patches plug into the global model.

A scenario starts from one global mesh whose elements are labelled by
subdomain: label 0 is the complement (optional), labels 1..N are patch
zones.  Each patch zone has a fine mesh covering the same region.  The
coupling interface Gamma is the set of free global nodes shared by at
least two subdomains.  Three operator families tie everything together:

* assembly maps ``A_s`` (index maps) scatter each subdomain's interface
  dofs into Gamma,
* transfer maps ``J_s`` give the trace of the coarse global field at the
  fine interface nodes: each fine node takes the weights of the global
  interface facet it lies on (vertex, edge or parallelogram face), which
  is a permutation when the meshes match,
* Schur complements of every subdomain, global side and fine side, from
  :mod:`.condensation`.

The assembled global interface operator is ``S_G = sum A_s S_sG A_s^T``
(with its load ``b_G``), and each patch contributes an interface-embedded
fine operator ``A_s J_s^T S_sF J_s A_s^T``.  The residual of the coupled
problem at an interface trace u is

    r(u) = -( sum_s A_s J_s^T (S_sF J_s A_s^T u - b_sF) ),

zero exactly at the reference (monolithic) solution.  ``residual_offset``
is the affine part of -r expressed in the interface load variable, i.e.
r(p) = -(Q p + offset) with Q = (sum embedded fine Schur) S_G^{-1}.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .condensation import CondensedOperator, condense, dirichlet_to_neumann
from .errors import ConfigError, GeometryError, TopologyError
from .model_problems import (AssembledSystem, MeshModel, assemble,
                             extract_submesh)

__all__ = [
    "PatchPair",
    "ComplementDomain",
    "CouplingScenario",
    "build_transfer",
    "build_assembly_operators",
    "assemble_global_schur",
    "embedded_fine_schur",
    "residual_offset",
    "interface_reaction",
    "build_scenario",
]


@dataclass(frozen=True)
class PatchPair:
    """One zone of interest: its global-part mesh and its fine mesh.

    ``interface_nodes_global`` are parent (global-mesh) node ids, free ones
    only; ``interface_nodes_fine`` index into the fine mesh.  Both sorted.
    """

    sid: int
    global_part: MeshModel
    fine_part: MeshModel
    global_nodes: np.ndarray            # global-part local -> parent ids
    interface_nodes_global: np.ndarray
    interface_nodes_fine: np.ndarray


@dataclass(frozen=True)
class ComplementDomain:
    """The part of the global model not covered by any patch."""

    model: MeshModel
    global_nodes: np.ndarray
    interface_nodes: np.ndarray


@dataclass
class CouplingScenario:
    """Everything the solvers need, built once by :func:`build_scenario`.

    Subdomain id 0 is the complement when present; patches are 1..N.
    ``subdomain_ids`` fixes the traversal order used everywhere, which
    keeps residual assembly deterministic.
    """

    name: str
    global_model: MeshModel
    patches: dict[int, PatchPair]
    complement: ComplementDomain | None
    gamma_nodes: np.ndarray             # free interface nodes, sorted
    gamma_coords: np.ndarray
    ndof_per_node: int
    subdomain_ids: tuple[int, ...]
    assembly_ops: dict[int, np.ndarray]            # A_s as dof index maps
    transfer_ops: dict[int, sp.csr_matrix | None]  # J_s, None == identity
    condensed_fine: dict[int, CondensedOperator]
    fine_systems: dict[int, AssembledSystem]
    schur_global: np.ndarray
    rhs_global: np.ndarray
    fine_schur_embedded: dict[int, np.ndarray]
    offset: np.ndarray
    _sg_chol: tuple = field(repr=False, default=None)

    @property
    def gamma_dim(self) -> int:
        return len(self.gamma_nodes) * self.ndof_per_node

    @property
    def patch_ids(self) -> tuple[int, ...]:
        return tuple(s for s in self.subdomain_ids if s != 0)

    def solve_interface(self, p_gamma: np.ndarray) -> np.ndarray:
        """Global interface solve ``u = S_G^{-1} (b_G + p)``."""
        p = np.asarray(p_gamma, dtype=float)
        if p.shape != (self.gamma_dim,):
            raise ValueError("interface load has the wrong length")
        return la.cho_solve(self._sg_chol, self.rhs_global + p,
                            check_finite=False)


# ---------------------------------------------------------------------------
# transfer operators


# Facet kinds by corner count: a vertex (1D), an edge (2D) and a face with
# corners in ``_HEX_FACES`` loop order (3D).  Each row places one corner in
# the facet's local coordinates; the corners listed in ``_AXIS_CORNERS``
# span them from corner 0.
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
    store no entries.  :class:`GeometryError` is raised when no fine node
    lies on a facet, or a facet is degenerate or not a parallelogram.
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

    n_fine, k = len(fc), facets.shape[1]
    ref = _REFERENCE_CORNERS[k]
    cols = np.zeros((n_fine, k), dtype=np.int64)
    vals = np.zeros((n_fine, k))
    placed = np.zeros(n_fine, dtype=bool)
    for facet in facets:
        corners = gc[facet]
        basis = corners[_AXIS_CORNERS[k]] - corners[0]
        misfit = np.linalg.norm(corners[0] + ref @ basis - corners, axis=1)
        if misfit.max() > tol:
            raise GeometryError(f"facet at {corners.tolist()} is not a "
                                "parallelogram")
        if basis.size and np.linalg.svd(basis, compute_uv=False).min() <= tol:
            raise GeometryError(f"facet at {corners.tolist()} is degenerate")
        todo = np.flatnonzero(~placed)
        w = fc[todo] - corners[0]
        xi = np.linalg.solve(basis @ basis.T, basis @ w.T).T
        off = np.linalg.norm(w - xi @ basis, axis=1)
        slack = tol / np.linalg.norm(basis, axis=1)
        on = (off <= tol) & np.all((xi >= -slack) & (xi <= 1.0 + slack),
                                   axis=1)
        # Nodes within tol outside the facet take the trace at its edge.
        xi = np.clip(xi[on], 0.0, 1.0)[:, None, :]
        hit = todo[on]
        cols[hit] = facet
        vals[hit] = np.prod(np.where(ref == 1.0, xi, 1.0 - xi), axis=2)
        placed[hit] = True
    if not placed.any():
        raise GeometryError(
            "no fine node lies on the global interface (geometry mismatch "
            "or inconsistent Dirichlet data)")
    indptr = np.concatenate([[0], np.cumsum(np.where(placed, k, 0))])
    return sp.csr_matrix((vals[placed].ravel(), cols[placed].ravel(), indptr),
                         shape=(n_fine, len(gc)))


def _expand_transfer(j_node: sp.csr_matrix, ndpn: int) -> sp.csr_matrix:
    if ndpn == 1:
        return j_node.tocsr()
    return sp.kron(j_node, sp.identity(ndpn, format="csr"), format="csr")


# ---------------------------------------------------------------------------
# assembly operators


def build_assembly_operators(gamma_nodes: np.ndarray,
                             interface_nodes_by_sid: dict[int, np.ndarray],
                             ndof_per_node: int) -> dict[int, np.ndarray]:
    """Dof-level index maps Gamma_s -> Gamma, one per subdomain.

    ``A_s`` is represented as an index array: scattering is
    ``out[map] += local`` and restriction is ``local = u[map]``.
    """
    gamma_nodes = np.asarray(gamma_nodes, dtype=np.int64)
    ops: dict[int, np.ndarray] = {}
    for sid, nodes in interface_nodes_by_sid.items():
        nodes = np.asarray(nodes, dtype=np.int64)
        pos = np.searchsorted(gamma_nodes, nodes)
        bad = (pos >= len(gamma_nodes)) | \
            (gamma_nodes[np.minimum(pos, len(gamma_nodes) - 1)] != nodes)
        if np.any(bad):
            raise TopologyError(
                f"subdomain {sid}: interface node "
                f"{nodes[np.argmax(bad)]} is not on the coupling interface")
        dofs = (pos[:, None] * ndof_per_node
                + np.arange(ndof_per_node)).reshape(-1)
        ops[sid] = dofs
    return ops


def assemble_global_schur(gamma_dim: int,
                          condensed: dict[int, CondensedOperator],
                          assembly_ops: dict[int, np.ndarray],
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Sum the per-subdomain global-side Schur complements on Gamma."""
    schur = np.zeros((gamma_dim, gamma_dim))
    rhs = np.zeros(gamma_dim)
    for sid, op in condensed.items():
        amap = assembly_ops[sid]
        if len(amap) != op.interface_count:
            raise TopologyError(
                f"subdomain {sid}: assembly map and condensed interface "
                "disagree in size")
        schur[np.ix_(amap, amap)] += op.schur
        rhs[amap] += op.rhs
    return schur, rhs


def embedded_fine_schur(gamma_dim: int, op: CondensedOperator,
                        assembly_map: np.ndarray,
                        transfer: sp.csr_matrix | None) -> np.ndarray:
    """Interface embedding ``A J^T S_F J A^T`` of one fine Schur complement."""
    if transfer is None:
        local = op.schur
    else:
        jd = transfer.toarray()
        if jd.shape[0] != op.interface_count:
            raise TopologyError("transfer rows do not match the fine interface")
        local = jd.T @ op.schur @ jd
    if local.shape[0] != len(assembly_map):
        raise TopologyError("assembly map does not match the transfer")
    out = np.zeros((gamma_dim, gamma_dim))
    out[np.ix_(assembly_map, assembly_map)] = local
    return out


def interface_reaction(scenario: CouplingScenario, sid: int,
                       u_gamma: np.ndarray) -> np.ndarray:
    """One subdomain's contribution ``A_s J_s^T lambda_s`` scattered on Gamma.

    ``lambda_s`` is the fine-side interface reaction under the interpolated
    trace; summing over subdomains and negating gives the coupling residual.
    """
    amap = scenario.assembly_ops[sid]
    trace = u_gamma[amap]
    j = scenario.transfer_ops[sid]
    if j is None:
        lam = dirichlet_to_neumann(scenario.condensed_fine[sid], trace)
        local = lam
    else:
        lam = dirichlet_to_neumann(scenario.condensed_fine[sid], j @ trace)
        local = j.T @ lam
    out = np.zeros(scenario.gamma_dim)
    out[amap] = local
    return out


def residual_offset(scenario: CouplingScenario) -> np.ndarray:
    """Affine part of the (negated) coupling residual in the load variable.

    Equals ``-r(p=0)``; the coupled reference load solves
    ``Q p + offset = 0`` with ``Q = (sum embedded fine Schur) S_G^{-1}``.
    """
    u0 = scenario.solve_interface(np.zeros(scenario.gamma_dim))
    acc = np.zeros(scenario.gamma_dim)
    for sid in scenario.subdomain_ids:
        acc += interface_reaction(scenario, sid, u0)
    return acc


# ---------------------------------------------------------------------------
# interface facets


_HEX_FACES = [(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4),
              (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7)]


def _element_facets(dim: int, conn: np.ndarray):
    if dim == 1:
        return [(conn[0],), (conn[1],)]
    if dim == 2:
        return [(conn[0], conn[1]), (conn[1], conn[2]), (conn[2], conn[0])]
    return [tuple(conn[i] for i in face) for face in _HEX_FACES]


# ---------------------------------------------------------------------------
# scenario construction


def build_scenario(global_model: MeshModel, labels,
                   fine_meshes: dict[int, MeshModel], *,
                   source: float = 1.0, body_force=None,
                   name: str = "scenario") -> CouplingScenario:
    """Assemble, condense and wire up a full coupling scenario.

    ``labels`` assigns every global element to a subdomain: 0 is the
    complement (may be absent), positive labels are patch zones and must
    each come with a fine mesh.  The same source/body force is applied on
    every subdomain, global side and fine side.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (global_model.element_count,):
        raise TopologyError("labels must assign one subdomain per element")
    if labels.min() < 0:
        raise TopologyError("subdomain labels must be non-negative")
    patch_ids = sorted(int(s) for s in np.unique(labels) if s > 0)
    if not patch_ids:
        raise TopologyError("no patch zones: nothing to couple")
    if set(fine_meshes) != set(patch_ids):
        raise TopologyError(
            f"fine meshes {sorted(fine_meshes)} do not match patch zone "
            f"labels {patch_ids}")
    if not global_model.dirichlet:
        raise ConfigError("the global model carries no Dirichlet data; the "
                          "assembled interface operator would be singular")

    dim = global_model.dimension
    ndpn = 1 if global_model.material.kind == "thermal" else dim
    span = max(np.ptp(global_model.nodes, axis=0).max(), 1.0)
    tol = 1e-9 * span

    # Which subdomains touch each node; >= 2 makes it an interface node.
    node_labels: dict[int, set] = defaultdict(set)
    for conn, lab in zip(global_model.elements, labels):
        for n in conn:
            node_labels[int(n)].add(int(lab))
    interface_all = sorted(n for n, ls in node_labels.items() if len(ls) >= 2)
    gamma_nodes = np.array([n for n in interface_all
                            if n not in global_model.dirichlet],
                           dtype=np.int64)
    if gamma_nodes.size == 0:
        raise TopologyError("the coupling interface has no free nodes")
    constrained_iface = np.array([n for n in interface_all
                                  if n in global_model.dirichlet],
                                 dtype=np.int64)
    nonzero = [int(n) for n in constrained_iface
               if global_model.dirichlet[int(n)] != 0.0]
    if nonzero:
        raise GeometryError("interface nodes with nonzero prescribed values "
                            f"are not supported (nodes {nonzero})")

    # Interface facets per subdomain, for locating fine interface nodes.
    facet_labels: dict[tuple, set] = {}
    facet_order: dict[tuple, tuple] = {}
    for conn, lab in zip(global_model.elements, labels):
        for facet in _element_facets(dim, conn):
            key = tuple(sorted(int(n) for n in facet))
            facet_labels.setdefault(key, set()).add(int(lab))
            facet_order.setdefault(key, facet)
    facets_by_sid: dict[int, list] = defaultdict(list)
    for key, ls in facet_labels.items():
        if len(ls) >= 2:
            for s in ls:
                facets_by_sid[s].append(facet_order[key])

    has_complement = bool(np.any(labels == 0))
    subdomain_ids = tuple(([0] if has_complement else []) + patch_ids)

    patches: dict[int, PatchPair] = {}
    complement: ComplementDomain | None = None
    condensed_global: dict[int, CondensedOperator] = {}
    condensed_fine: dict[int, CondensedOperator] = {}
    fine_systems: dict[int, AssembledSystem] = {}
    transfer_ops: dict[int, sp.csr_matrix | None] = {}
    iface_nodes_by_sid: dict[int, np.ndarray] = {}

    for sid in subdomain_ids:
        elem_ids = np.nonzero(labels == sid)[0]
        part, node_map = extract_submesh(global_model, elem_ids)
        system_g = assemble(part, source=source, body_force=body_force)
        gnodes = np.array([n for n in gamma_nodes
                           if sid in node_labels[int(n)]], dtype=np.int64)
        if gnodes.size == 0:
            raise TopologyError(f"subdomain {sid} has no free interface "
                                "nodes (floating patch?)")
        local_of = -np.ones(global_model.node_count, dtype=np.int64)
        local_of[node_map] = np.arange(len(node_map))
        local_ids = local_of[gnodes]
        cond_g = condense(system_g, system_g.node_dofs(local_ids),
                          label=f"subdomain {sid} (global part)")
        condensed_global[sid] = cond_g
        iface_nodes_by_sid[sid] = gnodes

        if sid == 0:
            complement = ComplementDomain(model=part, global_nodes=node_map,
                                          interface_nodes=gnodes)
            condensed_fine[0] = cond_g
            fine_systems[0] = system_g
            transfer_ops[0] = None
            continue

        fine = fine_meshes[sid]
        if fine.dimension != dim or fine.material.kind != \
                global_model.material.kind:
            raise TopologyError(f"patch {sid}: fine mesh dimension or "
                                "material kind differs from the global model")
        # One pass over the subdomain's interface facets places every free
        # fine node that lies on one and gives its trace weights.
        facets = np.array(facets_by_sid[sid], dtype=np.int64)
        corner_nodes, local = np.unique(facets, return_inverse=True)
        free = np.ones(fine.node_count, dtype=bool)
        free[list(fine.dirichlet)] = False
        free_nodes = np.flatnonzero(free)
        j_all = build_transfer(global_model.nodes[corner_nodes],
                               fine.nodes[free_nodes],
                               local.reshape(facets.shape), tol)
        on = j_all.getnnz(axis=1) > 0
        fine_iface = free_nodes[on]
        j_all = j_all[on]
        # Nested-refinement check: every free global interface node must
        # have a fine node on the facet corner it sits at, otherwise the
        # two interface discretizations cannot represent the same trace.
        nearest = np.asarray(j_all.argmax(axis=1)).ravel()
        twin = np.linalg.norm(fine.nodes[fine_iface]
                              - global_model.nodes[corner_nodes[nearest]],
                              axis=1) <= tol
        missing = np.setdiff1d(gnodes, corner_nodes[nearest[twin]])
        if missing.size:
            raise GeometryError(
                f"patch {sid}: global interface node {int(missing[0])} has "
                "no matching fine node (interfaces differ geometrically)")
        # Columns of constrained corners multiply zero prescribed values.
        j_node = j_all[:, np.searchsorted(corner_nodes, gnodes)]
        j_dof = _expand_transfer(j_node, ndpn)

        system_f = assemble(fine, source=source, body_force=body_force)
        cond_f = condense(system_f, system_f.node_dofs(fine_iface),
                          label=f"patch {sid} (fine)")
        condensed_fine[sid] = cond_f
        fine_systems[sid] = system_f
        transfer_ops[sid] = j_dof
        patches[sid] = PatchPair(sid=sid, global_part=part, fine_part=fine,
                                 global_nodes=node_map,
                                 interface_nodes_global=gnodes,
                                 interface_nodes_fine=fine_iface)

    gamma_dim = len(gamma_nodes) * ndpn
    assembly_ops = build_assembly_operators(gamma_nodes, iface_nodes_by_sid,
                                            ndpn)
    schur_global, rhs_global = assemble_global_schur(gamma_dim,
                                                     condensed_global,
                                                     assembly_ops)
    try:
        sg_chol = la.cho_factor(schur_global, lower=True, check_finite=False)
    except la.LinAlgError as err:
        raise ConfigError("assembled global interface operator is not "
                          "positive definite; check Dirichlet data") from err

    embedded = {sid: embedded_fine_schur(gamma_dim, condensed_fine[sid],
                                         assembly_ops[sid], transfer_ops[sid])
                for sid in subdomain_ids}

    scenario = CouplingScenario(
        name=name, global_model=global_model, patches=patches,
        complement=complement, gamma_nodes=gamma_nodes,
        gamma_coords=global_model.nodes[gamma_nodes], ndof_per_node=ndpn,
        subdomain_ids=subdomain_ids, assembly_ops=assembly_ops,
        transfer_ops=transfer_ops, condensed_fine=condensed_fine,
        fine_systems=fine_systems, schur_global=schur_global,
        rhs_global=rhs_global, fine_schur_embedded=embedded,
        offset=np.zeros(gamma_dim), _sg_chol=sg_chol)
    scenario.offset = residual_offset(scenario)
    return scenario
