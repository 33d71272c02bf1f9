"""Model problems: structured meshes and finite element assembly.

Two linear elliptic problems are supported on structured tensor meshes:

* steady heat conduction  -div(a grad u) = f  with per-element diffusivity,
* small-strain linear elasticity (plane strain in 2D) with per-element
  Young's modulus and a shared Poisson ratio.

Meshes are intervals in 1D, triangles in 2D (two per grid cell) and
trilinear hexahedra in 3D (2x2x2 Gauss quadrature).  Dirichlet conditions
are eliminated symmetrically, so assembled operators act on free dofs only
and stay symmetric positive definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import MeshError

__all__ = [
    "Material",
    "MeshModel",
    "AssembledSystem",
    "build_structured_mesh",
    "extract_submesh",
    "nodes_on_plane",
    "with_dirichlet",
    "scale_coefficient_in_ball",
    "element_centroids",
    "assemble_poisson",
    "assemble_elasticity",
    "solve_direct",
]

# Trilinear hexahedron: reference corners and the 2x2x2 Gauss points (unit
# weights), first coordinate slowest.  _HEX_SHAPE[g, n] is basis n at point
# g and _HEX_DSHAPE[g, n, a] its derivative along reference axis a.
_GP = 1.0 / np.sqrt(3.0)
_HEX_CORNERS = np.array([
    [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
    [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
], dtype=float)
_HEX_TERMS = 1.0 + _HEX_CORNERS * np.array(
    list(product((-_GP, _GP), repeat=3)))[:, None, :]
_HEX_SHAPE = np.prod(_HEX_TERMS, axis=2) / 8.0
_HEX_DSHAPE = np.stack(
    [np.prod(np.where(np.arange(3) == a, _HEX_CORNERS, _HEX_TERMS), axis=2)
     for a in range(3)], axis=2) / 8.0
_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]   # axis i+1 and i+2, cyclic


@dataclass(frozen=True)
class Material:
    """Per-element coefficient record.

    ``coeff`` holds the diffusivity (thermal) or Young's modulus (elastic)
    of each element; ``poisson`` is only read for elastic materials.
    """

    kind: str  # "thermal" | "elastic"
    coeff: np.ndarray
    poisson: float = 0.3

    def __post_init__(self):
        if self.kind not in ("thermal", "elastic"):
            raise MeshError(f"unknown material kind {self.kind!r}")
        coeff = np.asarray(self.coeff, dtype=float)
        object.__setattr__(self, "coeff", coeff)
        if coeff.ndim != 1 or not np.all(np.isfinite(coeff) & (coeff > 0.0)):
            raise MeshError("material coefficients must be finite positive "
                            "scalars, one per element")
        if self.kind == "elastic" and not 0.0 < self.poisson < 0.5:
            raise MeshError(f"Poisson ratio {self.poisson} outside (0, 0.5)")


@dataclass(frozen=True)
class MeshModel:
    """A mesh plus material data and prescribed (Dirichlet) nodes.

    ``dirichlet`` maps node index to the prescribed value; the value applies
    to every displacement component of that node for elastic problems.
    """

    dimension: int
    nodes: np.ndarray        # (n_nodes, dimension)
    elements: np.ndarray     # (n_elements, nodes_per_element) int
    material: Material
    dirichlet: dict[int, float]

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        elements = np.asarray(self.elements, dtype=np.int64)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        if self.dimension not in (1, 2, 3):
            raise MeshError(f"dimension {self.dimension} unsupported")
        if nodes.ndim != 2 or nodes.shape[1] != self.dimension:
            raise MeshError("nodes must have shape (n_nodes, dimension)")
        if not np.all(np.isfinite(nodes)):
            raise MeshError("node coordinates must be finite")
        expected = {1: 2, 2: 3, 3: 8}[self.dimension]
        if elements.ndim != 2 or elements.shape[1] != expected:
            raise MeshError(f"elements must have {expected} nodes each "
                            f"in {self.dimension}D")
        if elements.size and (elements.min() < 0
                              or elements.max() >= len(nodes)):
            raise MeshError("element refers to a node that does not exist")
        ordered = np.sort(elements, axis=1)
        if np.any(ordered[:, 1:] == ordered[:, :-1]):
            raise MeshError("degenerate element (repeated node)")
        if len(self.material.coeff) != len(elements):
            raise MeshError("material must carry one coefficient per element")
        for n, value in self.dirichlet.items():
            if not 0 <= n < len(nodes):
                raise MeshError(f"dirichlet node {n} does not exist")
            if not math.isfinite(value):
                raise MeshError(f"dirichlet value {value} at node {n} is "
                                "not finite")

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def element_count(self) -> int:
        return len(self.elements)

    @property
    def ndof_per_node(self) -> int:
        """One temperature, or one displacement per coordinate axis."""
        return 1 if self.material.kind == "thermal" else self.dimension


@dataclass(frozen=True)
class AssembledSystem:
    """Reduced stiffness/load pair after symmetric Dirichlet elimination.

    ``dof_map[node, comp]`` is the reduced dof index or -1 when the
    component is prescribed; ``fixed_values`` holds the prescribed nodal
    values (zero at free components).  Free dofs are numbered node-major,
    components fastest.
    """

    stiffness: sp.csr_matrix
    load: np.ndarray
    dof_map: np.ndarray       # (n_nodes, ndof_per_node) int
    fixed_values: np.ndarray  # (n_nodes, ndof_per_node) float

    @property
    def ndof_per_node(self) -> int:
        return self.dof_map.shape[1]

    @property
    def dof_count(self) -> int:
        return self.stiffness.shape[0]

    def full_field(self, u_reduced: np.ndarray) -> np.ndarray:
        """Merge a reduced solution with the prescribed values.

        Returns an (n_nodes, ndof_per_node) nodal array.
        """
        out = self.fixed_values.copy()
        free = self.dof_map >= 0
        out[free] = np.asarray(u_reduced, dtype=float)[self.dof_map[free]]
        return out

    def node_dofs(self, nodes: np.ndarray) -> np.ndarray:
        """Reduced dof indices of the given nodes (components fastest).

        All requested nodes must be fully free; constrained nodes have no
        reduced dofs and are a caller error here.
        """
        rows = self.dof_map[np.asarray(nodes, dtype=np.int64)]
        if np.any(rows < 0):
            raise MeshError("requested dofs of a constrained node")
        return rows.reshape(-1)


# ---------------------------------------------------------------------------
# mesh construction


def _is_int(value) -> bool:
    """An integer, and not a bool: True is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_tuple(value, dim: int, name: str) -> tuple:
    if np.isscalar(value):
        return (value,) * dim
    value = tuple(value)
    if len(value) != dim:
        raise MeshError(f"{name} must be a scalar or a {dim}-tuple")
    return value


def build_structured_mesh(dimension: int,
                          divisions,
                          extent,
                          *,
                          origin=0.0,
                          kind: str = "thermal",
                          coefficient: float = 1.0,
                          poisson: float = 0.3) -> MeshModel:
    """Build a structured mesh of the axis-aligned box ``origin + [0, extent]``.

    ``divisions`` counts grid cells per direction.  Nodes are ordered
    lexicographically by coordinate tuple.  The mesh carries a uniform
    material and no Dirichlet data; see :func:`with_dirichlet` and
    :func:`scale_coefficient_in_ball` to attach both.
    """
    if dimension not in (1, 2, 3):
        raise MeshError(f"dimension {dimension} unsupported")
    divisions = _as_tuple(divisions, dimension, "divisions")
    # Python floats, so a float32 component spaces its axis in float64.
    extent = tuple(map(float, _as_tuple(extent, dimension, "extent")))
    origin = tuple(map(float, _as_tuple(origin, dimension, "origin")))
    if not all(_is_int(d) and d >= 1 for d in divisions):
        raise MeshError(f"divisions must be integers of at least 1 per "
                        f"direction, got {divisions}")
    if any(e <= 0 for e in extent):
        raise MeshError("extent must be positive per direction")

    axes = [origin[a] + np.linspace(0.0, extent[a], divisions[a] + 1)
            for a in range(dimension)]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"),
                     axis=-1).reshape(-1, dimension)

    # ids[i, j, k] is the lexicographic number of grid node (i, j, k); each
    # corner array below holds one element node for every cell, cells in
    # lexicographic order.
    ids = np.arange(len(nodes), dtype=np.int64).reshape(
        tuple(d + 1 for d in divisions))

    def corner(offset: tuple) -> np.ndarray:
        return ids[tuple(slice(o, o + d)
                         for o, d in zip(offset, divisions))].reshape(-1)

    if dimension == 1:
        elements = np.stack([corner((0,)), corner((1,))], axis=1)
    elif dimension == 2:
        a, b = corner((0, 0)), corner((1, 0))
        c, d = corner((1, 1)), corner((0, 1))
        # Two triangles per cell, (a, b, c) then (a, c, d).
        elements = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    else:
        elements = np.stack([corner(o) for o in (
            (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
            (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))], axis=1)
    material = Material(kind=kind,
                        coeff=np.full(len(elements), float(coefficient)),
                        poisson=poisson)
    return MeshModel(dimension=dimension, nodes=nodes, elements=elements,
                     material=material, dirichlet={})


def extract_submesh(mesh: MeshModel,
                    element_ids: np.ndarray) -> tuple[MeshModel, np.ndarray]:
    """Restrict a mesh to a subset of its elements.

    Returns the submesh and ``node_map`` with ``node_map[local] = parent``.
    Material coefficients and Dirichlet data are restricted along.
    """
    element_ids = np.asarray(element_ids, dtype=np.int64)
    if element_ids.size == 0:
        raise MeshError("submesh needs at least one element")
    taken = mesh.elements[element_ids]
    node_map = np.unique(taken)
    renumber = -np.ones(mesh.node_count, dtype=np.int64)
    renumber[node_map] = np.arange(len(node_map))
    sub_elements = renumber[taken]
    sub_dirichlet = {int(renumber[n]): v for n, v in mesh.dirichlet.items()
                     if renumber[n] >= 0}
    material = replace(mesh.material, coeff=mesh.material.coeff[element_ids])
    sub = MeshModel(dimension=mesh.dimension, nodes=mesh.nodes[node_map],
                    elements=sub_elements, material=material,
                    dirichlet=sub_dirichlet)
    return sub, node_map


def nodes_on_plane(mesh: MeshModel, axis: int, value: float,
                   tol: float | None = None) -> np.ndarray:
    """Node indices whose ``axis`` coordinate equals ``value`` (within tol)."""
    if tol is None:
        span = np.ptp(mesh.nodes, axis=0).max()
        tol = 1e-9 * max(span, 1.0)
    return np.nonzero(np.abs(mesh.nodes[:, axis] - value) <= tol)[0]


def with_dirichlet(mesh: MeshModel, nodes, value: float = 0.0) -> MeshModel:
    """Copy of the mesh with the given nodes prescribed to ``value``."""
    dirichlet = dict(mesh.dirichlet)
    for n in np.asarray(nodes, dtype=np.int64):
        dirichlet[int(n)] = float(value)
    return replace(mesh, dirichlet=dirichlet)


def element_centroids(mesh: MeshModel) -> np.ndarray:
    return mesh.nodes[mesh.elements].mean(axis=1)


def scale_coefficient_in_ball(mesh: MeshModel, center, radius: float,
                              scale: float) -> MeshModel:
    """Scale the coefficient of every element whose centroid is in the ball.

    This is how inclusions are modelled: element-wise contrast, assigned by
    centroid, no remeshing.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise MeshError(f"coefficient scale {scale} is not finite and > 0")
    if not (math.isfinite(radius) and radius >= 0):
        raise MeshError(f"ball radius {radius} is not finite and >= 0")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (mesh.dimension,) or not np.all(np.isfinite(center)):
        raise MeshError(f"ball center must be a finite "
                        f"{mesh.dimension}-vector")
    inside = np.linalg.norm(element_centroids(mesh) - center, axis=1) <= radius
    coeff = mesh.material.coeff.copy()
    coeff[inside] *= scale
    return replace(mesh, material=replace(mesh.material, coeff=coeff))


# ---------------------------------------------------------------------------
# element matrices, computed for all elements at once


def _element_geometry(mesh: MeshModel):
    """Quadrature data of every element, stacked over elements.

    Returns ``weights`` (element, point) with the Jacobian determinant
    folded in, basis ``grads`` (element, point, node, dim) and basis values
    ``shape`` (point, node).  Intervals and P1 triangles have constant
    gradients and take one point; hexahedra take the 2x2x2 Gauss rule with
    a Jacobian per point, so sheared and distorted elements stay exact;
    its inverse is the adjugate over the determinant, cofactor row i being
    (row i+1) x (row i+2) of J, cyclic.  Checks read ``~(x > 0)`` so that
    NaN geometry is rejected too.
    """
    x = mesh.nodes[mesh.elements]                      # (element, node, dim)
    if mesh.dimension == 1:
        h = x[:, 1, 0] - x[:, 0, 0]
        if np.any(~(h > 0)):
            raise MeshError("interval element with non-increasing "
                            "coordinates")
        grads = np.stack([-1.0 / h, 1.0 / h], axis=1)
        return h[:, None], grads[:, None, :, None], np.array([[0.5, 0.5]])
    if mesh.dimension == 2:
        # Constant P1 gradients; area from the cross product.
        v1, v2 = x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]
        det = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
        area = 0.5 * np.abs(det)
        if np.any(~(area > 0)):
            raise MeshError("triangle with zero area")
        b = x[:, [1, 2, 0], 1] - x[:, [2, 0, 1], 1]
        c = x[:, [2, 0, 1], 0] - x[:, [1, 2, 0], 0]
        grads = np.stack([b, c], axis=2) / det[:, None, None]
        return area[:, None], grads[:, None], np.full((1, 3), 1.0 / 3.0)
    jac = np.einsum("gna,enb->egab", _HEX_DSHAPE, x, optimize=True)
    a, b = jac[..., _NEXT, :], jac[..., _AFTER, :]
    cof = a[..., _NEXT] * b[..., _AFTER] - a[..., _AFTER] * b[..., _NEXT]
    det = np.einsum("...i,...i->...", jac[..., 0, :], cof[..., 0, :])
    if np.any(~(det > 0)):
        raise MeshError("inverted hexahedron")
    grads = np.matmul(_HEX_DSHAPE, cof.swapaxes(2, 3) / det[..., None, None])
    return det, grads, _HEX_SHAPE


def _plane_strain_moduli(e, nu: float):
    lam = e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = e / (2.0 * (1.0 + nu))
    return lam, mu


# ---------------------------------------------------------------------------
# assembly


def _element_major_coo(dofs: np.ndarray, ke: np.ndarray,
                       size: int) -> sp.coo_matrix:
    """Global matrix from element matrices, triplets in (e, i, j) order."""
    width = dofs.shape[1]
    rows = np.repeat(dofs, width, axis=1).reshape(-1)
    cols = np.tile(dofs, (1, width)).reshape(-1)
    return sp.coo_matrix((ke.reshape(-1), (rows, cols)), shape=(size, size))


def _reduce_system(mesh: MeshModel, k_coo: sp.coo_matrix,
                   f: np.ndarray) -> AssembledSystem:
    """Apply symmetric Dirichlet elimination and number the free dofs."""
    n, ndpn = mesh.node_count, mesh.ndof_per_node
    fixed_values = np.zeros((n, ndpn))
    is_fixed = np.zeros((n, ndpn), dtype=bool)
    for node, value in mesh.dirichlet.items():
        fixed_values[node, :] = value
        is_fixed[node, :] = True

    dof_map = -np.ones((n, ndpn), dtype=np.int64)
    free_flat = ~is_fixed.reshape(-1)
    dof_map.reshape(-1)[free_flat] = np.arange(free_flat.sum())

    k = k_coo.tocsr()
    free_idx = np.nonzero(free_flat)[0]
    fixed_idx = np.nonzero(~free_flat)[0]
    k_ff = k[free_idx][:, free_idx]
    load = f[free_idx]
    if fixed_idx.size:
        uf = fixed_values.reshape(-1)[fixed_idx]
        if np.any(uf != 0.0):
            load = load - k[free_idx][:, fixed_idx] @ uf
    # Element blocks carry exact zeros (e.g. between the two acute corners
    # of a right triangle); dropping them keeps factors and products lean.
    k_ff.eliminate_zeros()
    return AssembledSystem(stiffness=k_ff, load=load,
                           dof_map=dof_map, fixed_values=fixed_values)


def assemble_poisson(mesh: MeshModel, source: float = 1.0) -> AssembledSystem:
    """Assemble ``-div(a grad u) = source`` with the mesh's Dirichlet data.

    The load is the constant source integrated against the basis functions.
    """
    if mesh.material.kind != "thermal":
        raise MeshError("assemble_poisson needs a thermal material")
    if not np.isfinite(source):
        raise MeshError(f"source {source} is not finite")
    weights, grads, shape = _element_geometry(mesh)
    # ke[e, i, j]: sum over points and axes of w * dphi_i/dx_d * dphi_j/dx_d.
    n_el, n_pt, n_nodes, dim = grads.shape
    flat = grads.swapaxes(1, 2).reshape(n_el, n_nodes, n_pt * dim)
    ke = np.matmul(flat * np.repeat(weights, dim, axis=1)[:, None],
                   flat.swapaxes(1, 2))
    ke *= mesh.material.coeff[:, None, None]
    fe = source * (weights @ shape)
    n = mesh.node_count
    k = _element_major_coo(mesh.elements, ke, n)
    f = np.bincount(mesh.elements.reshape(-1), weights=fe.reshape(-1),
                    minlength=n)
    return _reduce_system(mesh, k, f)


def assemble_elasticity(mesh: MeshModel, body_force=None) -> AssembledSystem:
    """Assemble small-strain elasticity (plane strain in 2D).

    ``body_force`` is a constant force density vector; default is a unit
    force along the last coordinate axis, pointing down.
    """
    if mesh.material.kind != "elastic":
        raise MeshError("assemble_elasticity needs an elastic material")
    if mesh.dimension == 1:
        raise MeshError("elasticity is only assembled in 2D and 3D")
    dim = mesh.dimension
    if body_force is None:
        body_force = np.zeros(dim)
        body_force[-1] = -1.0
    body_force = np.asarray(body_force, dtype=float)
    if body_force.shape != (dim,):
        raise MeshError(f"body force must be a {dim}-vector")
    if not np.all(np.isfinite(body_force)):
        raise MeshError("body force must be finite")

    weights, grads, shape = _element_geometry(mesh)
    n_el, n_pt, n_nodes = grads.shape[:3]
    # p[e, i, a, j, b]: sum over points of w * dphi_i/dx_a * dphi_j/dx_b.
    flat = grads.reshape(n_el, n_pt, n_nodes * dim)
    p = np.einsum("egi,egj->eij", flat * weights[:, :, None], flat)
    p = p.reshape(n_el, n_nodes, dim, n_nodes, dim)
    # Isotropic Hooke's law: k[ia, jb] = lam p[iajb] + mu p[ibja]
    # + mu delta_ab sum_c p[icjc], which is B^T D B with engineering shear.
    lam, mu = _plane_strain_moduli(mesh.material.coeff,
                                   mesh.material.poisson)
    ke = lam[:, None, None, None, None] * p
    ke += mu[:, None, None, None, None] * p.swapaxes(2, 4)
    grad_dot = mu[:, None, None] * np.einsum("eiaja->eij", p)
    for a in range(dim):
        ke[:, :, a, :, a] += grad_dot
    fe = (weights @ shape)[:, :, None] * body_force
    gdofs = (mesh.elements[:, :, None] * dim
             + np.arange(dim)).reshape(n_el, n_nodes * dim)
    n = mesh.node_count * dim
    k = _element_major_coo(gdofs, ke, n)
    f = np.bincount(gdofs.reshape(-1), weights=fe.reshape(-1), minlength=n)
    return _reduce_system(mesh, k, f)


def assemble(mesh: MeshModel) -> AssembledSystem:
    """Assemble the mesh according to its material kind, under the
    default loads of ``assemble_poisson`` and ``assemble_elasticity``."""
    if mesh.material.kind == "thermal":
        return assemble_poisson(mesh)
    return assemble_elasticity(mesh)


def solve_direct(system: AssembledSystem) -> np.ndarray:
    """Direct sparse solve of the reduced system; returns the nodal field.

    Only meaningful for models with enough Dirichlet data to pin rigid
    modes; the caller gets the raised error from the factorization else.
    """
    u = spla.spsolve(system.stiffness.tocsc(), system.load)
    return system.full_field(np.atleast_1d(u))
