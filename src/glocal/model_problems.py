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

# Gauss points for the trilinear hexahedron, 2 per direction.
_GP = 1.0 / np.sqrt(3.0)
_HEX_CORNERS = np.array([
    [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
    [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
], dtype=float)


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
        expected = {1: 2, 2: 3, 3: 8}[self.dimension]
        if elements.ndim != 2 or elements.shape[1] != expected:
            raise MeshError(f"elements must have {expected} nodes each "
                            f"in {self.dimension}D")
        if elements.size and (elements.min() < 0
                              or elements.max() >= len(nodes)):
            raise MeshError("element refers to a node that does not exist")
        for row in elements:
            if len(set(row.tolist())) != len(row):
                raise MeshError("degenerate element (repeated node)")
        if len(self.material.coeff) != len(elements):
            raise MeshError("material must carry one coefficient per element")
        for n in self.dirichlet:
            if not 0 <= n < len(nodes):
                raise MeshError(f"dirichlet node {n} does not exist")

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def element_count(self) -> int:
        return len(self.elements)


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
    ndof_per_node: int

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
    extent = _as_tuple(float(extent) if np.isscalar(extent) else extent,
                       dimension, "extent")
    origin = _as_tuple(float(origin) if np.isscalar(origin) else origin,
                       dimension, "origin")
    if any(int(d) < 1 for d in divisions):
        raise MeshError("divisions must be at least 1 per direction")
    if any(e <= 0 for e in extent):
        raise MeshError("extent must be positive per direction")
    divisions = tuple(int(d) for d in divisions)

    axes = [origin[a] + np.linspace(0.0, extent[a], divisions[a] + 1)
            for a in range(dimension)]
    nodes = np.array(list(product(*axes)), dtype=float)

    def nid(idx: tuple) -> int:
        flat = 0
        for a in range(dimension):
            flat = flat * (divisions[a] + 1) + idx[a]
        return flat

    elems = []
    if dimension == 1:
        for i in range(divisions[0]):
            elems.append([nid((i,)), nid((i + 1,))])
    elif dimension == 2:
        for i in range(divisions[0]):
            for j in range(divisions[1]):
                a, b = nid((i, j)), nid((i + 1, j))
                c, d = nid((i + 1, j + 1)), nid((i, j + 1))
                elems.append([a, b, c])
                elems.append([a, c, d])
    else:
        for i in range(divisions[0]):
            for j in range(divisions[1]):
                for k in range(divisions[2]):
                    corners = [nid((i, j, k)), nid((i + 1, j, k)),
                               nid((i + 1, j + 1, k)), nid((i, j + 1, k)),
                               nid((i, j, k + 1)), nid((i + 1, j, k + 1)),
                               nid((i + 1, j + 1, k + 1)),
                               nid((i, j + 1, k + 1))]
                    elems.append(corners)
    elements = np.array(elems, dtype=np.int64)
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
    if scale <= 0:
        raise MeshError("coefficient scale must be positive")
    center = np.asarray(center, dtype=float)
    inside = np.linalg.norm(element_centroids(mesh) - center, axis=1) <= radius
    coeff = mesh.material.coeff.copy()
    coeff[inside] *= scale
    return replace(mesh, material=replace(mesh.material, coeff=coeff))


# ---------------------------------------------------------------------------
# element matrices


def _interval_poisson(x: np.ndarray, a: float):
    h = x[1, 0] - x[0, 0]
    if h <= 0:
        raise MeshError("interval element with non-increasing coordinates")
    k = (a / h) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    shape_int = np.array([h / 2, h / 2])
    return k, shape_int


def _tri_gradients(x: np.ndarray):
    # Constant P1 gradients; area from the cross product.
    v1, v2 = x[1] - x[0], x[2] - x[0]
    det = v1[0] * v2[1] - v1[1] * v2[0]
    area = 0.5 * abs(det)
    if area <= 0:
        raise MeshError("triangle with zero area")
    b = np.array([x[1, 1] - x[2, 1], x[2, 1] - x[0, 1], x[0, 1] - x[1, 1]])
    c = np.array([x[2, 0] - x[1, 0], x[0, 0] - x[2, 0], x[1, 0] - x[0, 0]])
    grads = np.column_stack([b, c]) / det  # (3, 2), rows are grad(phi_i)
    return grads, area


def _hex_quadrature(x: np.ndarray):
    """Yield (weight*detJ, gradients (8,3), shape (8,)) per Gauss point."""
    for gx, gy, gz in product((-_GP, _GP), repeat=3):
        xi = np.array([gx, gy, gz])
        shape = np.prod(1.0 + _HEX_CORNERS * xi, axis=1) / 8.0
        dshape = np.empty((8, 3))
        for a in range(3):
            term = 1.0 + _HEX_CORNERS * xi
            term[:, a] = _HEX_CORNERS[:, a]
            dshape[:, a] = np.prod(term, axis=1) / 8.0
        jac = dshape.T @ x          # (3, 3)
        det = np.linalg.det(jac)
        if det <= 0:
            raise MeshError("inverted hexahedron")
        grads = dshape @ np.linalg.inv(jac)
        yield det, grads, shape


def _plane_strain_moduli(e: float, nu: float) -> tuple[float, float]:
    lam = e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = e / (2.0 * (1.0 + nu))
    return lam, mu


def _elastic_d(e: float, nu: float, dim: int) -> np.ndarray:
    lam, mu = _plane_strain_moduli(e, nu)
    if dim == 2:
        # Plane strain, engineering shear strain ordering (exx, eyy, gxy).
        return np.array([[lam + 2 * mu, lam, 0.0],
                         [lam, lam + 2 * mu, 0.0],
                         [0.0, 0.0, mu]])
    d = np.zeros((6, 6))
    d[:3, :3] = lam
    d[np.arange(3), np.arange(3)] = lam + 2 * mu
    d[np.arange(3, 6), np.arange(3, 6)] = mu
    return d


def _tri_b_matrix(grads: np.ndarray) -> np.ndarray:
    b = np.zeros((3, 6))
    for i in range(3):
        gx, gy = grads[i]
        b[0, 2 * i] = gx
        b[1, 2 * i + 1] = gy
        b[2, 2 * i] = gy
        b[2, 2 * i + 1] = gx
    return b


def _hex_b_matrix(grads: np.ndarray) -> np.ndarray:
    b = np.zeros((6, 24))
    for i in range(8):
        gx, gy, gz = grads[i]
        c = 3 * i
        b[0, c] = gx
        b[1, c + 1] = gy
        b[2, c + 2] = gz
        b[3, c] = gy
        b[3, c + 1] = gx
        b[4, c + 1] = gz
        b[4, c + 2] = gy
        b[5, c] = gz
        b[5, c + 2] = gx
    return b


# ---------------------------------------------------------------------------
# assembly


def _reduce_system(mesh: MeshModel, k_coo: sp.coo_matrix, f: np.ndarray,
                   ndpn: int) -> AssembledSystem:
    """Apply symmetric Dirichlet elimination and number the free dofs."""
    n = mesh.node_count
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
    return AssembledSystem(stiffness=k_ff.tocsr(), load=load,
                           dof_map=dof_map, fixed_values=fixed_values,
                           ndof_per_node=ndpn)


def assemble_poisson(mesh: MeshModel, source: float = 1.0) -> AssembledSystem:
    """Assemble ``-div(a grad u) = source`` with the mesh's Dirichlet data.

    The load is the constant source integrated against the basis functions.
    """
    if mesh.material.kind != "thermal":
        raise MeshError("assemble_poisson needs a thermal material")
    rows, cols, vals = [], [], []
    f = np.zeros(mesh.node_count)
    coeff = mesh.material.coeff
    for e, conn in enumerate(mesh.elements):
        x = mesh.nodes[conn]
        a = coeff[e]
        if mesh.dimension == 1:
            ke, fe = _interval_poisson(x, a)
            fe = source * fe
        elif mesh.dimension == 2:
            grads, area = _tri_gradients(x)
            ke = a * area * (grads @ grads.T)
            fe = source * np.full(3, area / 3.0)
        else:
            ke = np.zeros((8, 8))
            fe = np.zeros(8)
            for det, grads, shape in _hex_quadrature(x):
                ke += a * det * (grads @ grads.T)
                fe += source * det * shape
        for i, ni in enumerate(conn):
            f[ni] += fe[i]
            for j, nj in enumerate(conn):
                rows.append(ni)
                cols.append(nj)
                vals.append(ke[i, j])
    k = sp.coo_matrix((vals, (rows, cols)),
                      shape=(mesh.node_count, mesh.node_count))
    return _reduce_system(mesh, k, f, ndpn=1)


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

    nu = mesh.material.poisson
    rows, cols, vals = [], [], []
    f = np.zeros(mesh.node_count * dim)
    for e, conn in enumerate(mesh.elements):
        x = mesh.nodes[conn]
        d = _elastic_d(mesh.material.coeff[e], nu, dim)
        if dim == 2:
            grads, area = _tri_gradients(x)
            b = _tri_b_matrix(grads)
            ke = area * (b.T @ d @ b)
            fe = np.tile(body_force, 3) * (area / 3.0)
        else:
            ke = np.zeros((24, 24))
            fe = np.zeros(24)
            for det, grads, shape in _hex_quadrature(x):
                b = _hex_b_matrix(grads)
                ke += det * (b.T @ d @ b)
                fe += det * np.outer(shape, body_force).reshape(-1)
        gdofs = (conn[:, None] * dim + np.arange(dim)).reshape(-1)
        for i, gi in enumerate(gdofs):
            f[gi] += fe[i]
            for j, gj in enumerate(gdofs):
                rows.append(gi)
                cols.append(gj)
                vals.append(ke[i, j])
    n = mesh.node_count * dim
    k = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return _reduce_system(mesh, k, f, ndpn=dim)


def assemble(mesh: MeshModel, *, source: float = 1.0,
             body_force=None) -> AssembledSystem:
    """Assemble the mesh according to its material kind."""
    if mesh.material.kind == "thermal":
        return assemble_poisson(mesh, source=source)
    return assemble_elasticity(mesh, body_force=body_force)


def solve_direct(system: AssembledSystem) -> np.ndarray:
    """Direct sparse solve of the reduced system; returns the nodal field.

    Only meaningful for models with enough Dirichlet data to pin rigid
    modes; the caller gets the raised error from the factorization else.
    """
    u = spla.spsolve(system.stiffness.tocsc(), system.load)
    return system.full_field(np.atleast_1d(u))
