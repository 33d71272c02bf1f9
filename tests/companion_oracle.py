"""Companion-matrix cross-checks, kept as test-only oracles.

These were options of ``build_companion`` that only tests used: the
symmetrized companion, whose blocks are congruence-transformed by the
Cholesky factor L of S_G (``L^{-1} Shat_k L^{-T}``, same spectrum, each
block symmetric); the fixed-point self-check of the affine step at the
exact interface load; and the characteristic polynomial

    det( (1-l) l^D I - w sum_k l^(D-k) X_k ),

which vanishes exactly at the companion eigenvalues.  The companions
here take the same age row as ``build_companion`` (one age per patch in
``patch_ids`` order) but group the subdomains into slots by age on their
own, with the complement in slot 0.  Nothing in ``src/`` imports this
module.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la

from glocal.coupling import residual_offset
from glocal.spectral import CompanionSystem


def scattered_schur(scenario, sids) -> np.ndarray:
    """``Shat = sum_s A_s S_s A_s^T`` over ``sids`` as one Gamma x Gamma
    array, each compact block scatter-added at its Gamma dofs."""
    shat = np.zeros((scenario.gamma_dim, scenario.gamma_dim))
    for sid in sids:
        sub = scenario.subdomains[sid]
        shat[np.ix_(sub.amap, sub.amap)] += sub.schur
    return shat


def age_slots(scenario, ages, max_delay: int) -> list[list[int]]:
    """Subdomain ids grouped by age: slot k holds the age-k patches, and
    slot 0 also the complement, listed first."""
    assert len(ages) == len(scenario.patch_ids)
    slots = [[] for _ in range(max_delay + 1)]
    if scenario.complement is not None:
        slots[0].append(0)
    for sid, age in zip(scenario.patch_ids, ages):
        slots[int(age)].append(sid)
    return slots


def symmetrized_companion(scenario, ages, omega: float,
                          max_delay: int) -> CompanionSystem:
    """Companion of one age row with blocks ``L^{-1} Shat_k L^{-T}``."""
    chol_l = np.linalg.cholesky(scenario.schur_global)
    blocks = []
    for slot in age_slots(scenario, ages, max_delay):
        y = la.solve_triangular(chol_l, scattered_schur(scenario, slot),
                                lower=True)
        blocks.append(la.solve_triangular(chol_l, y.T, lower=True).T)
    n = scenario.gamma_dim
    size = (max_delay + 1) * n
    matrix = np.zeros((size, size))
    matrix[:n, :n] = np.eye(n) - omega * blocks[0]
    for k in range(1, max_delay + 1):
        matrix[:n, k * n:(k + 1) * n] = -omega * blocks[k]
    for k in range(max_delay):
        matrix[(k + 1) * n:(k + 2) * n, k * n:(k + 1) * n] = np.eye(n)
    system = CompanionSystem(omega, tuple(blocks))
    assert np.array_equal(system.matrix, matrix)
    return system


def verify_fixed_point(scenario, system: CompanionSystem, p_hat,
                       symmetrized: bool):
    """Raise ValueError unless the stacked exact load is a fixed point of
    the affine step (companion plus the offset in the first block row)."""
    n = system.gamma_dim
    p_hat = np.asarray(p_hat, dtype=float)
    offset = residual_offset(scenario)
    if symmetrized:
        chol_l = np.linalg.cholesky(scenario.schur_global)
        p_hat = la.solve_triangular(chol_l, p_hat, lower=True)
        offset = la.solve_triangular(chol_l, offset, lower=True)
    else:
        p_hat = la.cho_solve(scenario._sg_chol, p_hat)
        offset = la.cho_solve(scenario._sg_chol, offset)
    stacked = np.tile(p_hat, system.max_delay + 1)
    advanced = system.matrix @ stacked
    advanced[:n] -= system.omega * offset
    scale = max(float(np.linalg.norm(stacked)), 1.0)
    if np.linalg.norm(advanced - stacked) > 1e-8 * scale:
        raise ValueError("companion construction failed its fixed-point "
                         "self-check")


def characteristic_value(system: CompanionSystem, lam: complex) -> complex:
    """det((1-l) l^D I - w sum_k l^(D-k) X_k) at l = lam."""
    n, d = system.gamma_dim, system.max_delay
    acc = np.zeros((n, n), dtype=complex)
    for k, x in enumerate(system.blocks):
        acc += lam ** (d - k) * x
    poly = (1 - lam) * lam ** d * np.eye(n) - system.omega * acc
    return complex(np.linalg.det(poly))
