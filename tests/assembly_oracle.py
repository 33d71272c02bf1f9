"""Per-element loop assembly, kept as a test-only oracle.

This is the assembly the package used before it computed element matrices
in one batch: one Python iteration per element, per-element Gauss
quadrature and B matrices, and COO triplets appended in element-major
``(e, i, j)`` order.  Tests compare the batched assembly and the index
arithmetic of ``build_structured_mesh`` against it; nothing in ``src/``
imports it.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import scipy.sparse as sp

from glocal.errors import MeshError
from glocal.model_problems import AssembledSystem, MeshModel, _reduce_system

# Gauss points for the trilinear hexahedron, 2 per direction.
_GP = 1.0 / np.sqrt(3.0)
_HEX_CORNERS = np.array([
    [-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
    [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1],
], dtype=float)


def loop_structured_mesh(dimension: int, divisions: tuple,
                         origin: tuple, extent: tuple):
    """Node and element arrays of ``build_structured_mesh``, built per cell.

    ``divisions``, ``origin`` and ``extent`` are full ``dimension``-tuples.
    """
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
    return nodes, np.array(elems, dtype=np.int64)


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


def loop_assemble_poisson(mesh: MeshModel,
                          source: float = 1.0) -> AssembledSystem:
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
    return _reduce_system(mesh, k, f)


def loop_assemble_elasticity(mesh: MeshModel,
                             body_force=None) -> AssembledSystem:
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
    return _reduce_system(mesh, k, f)
