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

``solvent_radius`` is the earlier route to a radius inside the split
w alpha_max < c_D, kept to cross-check the symmetric route that replaced
it.  It reads rho(B) off the dominant solvent S = I - w sum_k X_k S^-k
(as B W = W S for W = [I; S^-1; ...; S^-D]), found by a Newton-Schulz
loop, with one Gamma x Gamma ``eigvals``.  On an eigenvector, with
M_k = L^-1 Shat_k L^-T PSD and sum_k M_k = G, |(l-1) l^D| >= c_D >
w alpha_max >= |w sum_k m_k l^(D-k)| on |l| = r* = D/(D+1), so as at
w = 0 exactly Gamma eigenvalues lie outside r*; if all of eig(S) do,
rho(B) = rho(S).
"""

from __future__ import annotations

from math import inf

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


# S is kept when a step moves no entry past roundoff; a NaN fails that.
_SOLVENT_STEPS, _SOLVENT_TOL, _SPLIT_MARGIN = 100, 1e-13, 1e-6


def solvent_radius(system: CompanionSystem,
                   alpha_max: float) -> float | None:
    """rho(B) from the dominant solvent S, or None if a test fails."""
    d, omega, blocks = system.max_delay, system.omega, system.blocks
    if d < 1 or (omega * alpha_max * (1 + _SPLIT_MARGIN)
                 >= d ** d / (d + 1) ** (d + 1)):
        return None
    eye = np.eye(system.gamma_dim)
    s, last = eye - omega * sum(blocks), inf
    inv = np.linalg.inv(s)
    for _ in range(_SOLVENT_STEPS):
        acc = blocks[d]   # Horner: sum_k X_k S^-k
        for x in blocks[-2::-1]:
            acc = x + acc @ inv
        new = eye - omega * acc
        if not (moved := np.abs(new - s).max()) < last:
            break
        s, last, inv = new, moved, inv @ (2 * eye - new @ inv)  # Newton-Schulz
    if not (moved <= _SOLVENT_TOL
            and np.abs(s @ inv - eye).max() <= _SOLVENT_TOL):
        return None
    moduli = np.abs(np.linalg.eigvals(s))
    return float(moduli.max()) if moduli.min() > d / (d + 1) else None
