"""Spectral machinery: companion matrices, relaxation bounds, certificates.

One step of the delayed iteration acting on the stacked history
(u_j, u_{j-1}, ..., u_{j-D}) of interface displacements u = S_G^{-1} p is
the affine map with block companion matrix

        [ I - w X_0   -w X_1  ...  -w X_D ]
    B = [     I          0    ...     0   ]
        [     0          I    ...     0   ]
        [    ...                      ... ]

where X_k = S_G^{-1} Shat_k, with Shat_k = sum_s A_s S_s A_s^T over the
subdomains whose data is k steps old and S_G the assembled global
interface operator.  The ages come as one row, an integer in [0, D] per
patch in ``patch_ids`` order (what ``DelaySchedule.ages(j)`` returns);
the complement is always fresh.  X_k is read straight off the
scenario's cached S_G^{-1}: each age-k subdomain adds
(S_G^{-1})[:, amap_s] S_s to the columns amap_s, so no age row or omega
needs a linear solve.  These displacement-space blocks are similar to
the load-space Shat_k S_G^{-1} through blockdiag(S_G), so the spectrum
is the same, and X_k is exactly zero outside the interface columns of
the age-k subdomains.  The eigenvalues of B are the roots of

    det( (1-l) l^D I - w sum_k l^(D-k) X_k ) = 0,

and the iteration for that one age row contracts iff the spectral radius
is below one.

What ``certify_paracontraction`` checks is exactly that: rho(B) < 1 for
each of a sample of random age rows.  That is not a proof for a run
that switches between age rows from step to step; such a run is only
guaranteed to converge when the joint spectral radius of the set of
reachable companions is below one, which is not computed here.

``spectral_radius`` drops the dead lag coordinates of a companion: lag 0
stays whole, and at lag k >= 1 only the columns in the union of the
column supports of X_j, j >= k, are kept (read off the first block row).
A dropped coordinate only shifts into dropped coordinates and never
enters the first block row, so B[K, K^c] = 0 and B[K^c, K^c] is a
nilpotent shift; hence rho(B) = rho(B[K, K]).

The relaxation bounds come from the generalized eigenvalues alpha of the
pencil (sum_s A_s S_s A_s^T, S_G), computed from the same X as the
symmetric L^T X L^{-T}, where S_G = L L^T.  ``2 / alpha_max``
is sharp for the synchronous iteration; the delayed factor
``(1-eps)^D alpha_min / ((1+eps)^(2D) alpha_max^2)`` with
``eps = min(sin(pi/(3D)), 1/2)`` is sufficient, not sharp, so the
certificate usually admits noticeably larger omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, pi, sin

import numpy as np

from .async_engine import _check_delay
from .coupling import CouplingScenario
from .solvers import _is_int

__all__ = ["CompanionSystem", "SpectralBounds", "CertificateReport",
           "build_companion", "spectral_radius",
           "generalized_spectrum", "generalized_alphas", "relaxation_bounds",
           "certify_paracontraction"]


@dataclass(frozen=True, eq=False)  # array fields: equal only to itself
class CompanionSystem:
    """Block companion matrix of one age row at relaxation omega."""

    omega: float
    max_delay: int
    gamma_dim: int
    blocks: tuple[np.ndarray, ...]   # X_0 .. X_D
    matrix: np.ndarray               # (D+1)*gamma_dim square


@dataclass(frozen=True)
class SpectralBounds:
    """Relaxation bounds derived from the generalized spectrum.

    ``omega_async_factor`` (and ``epsilon``) are None for max_delay = 0,
    where the synchronous bound is the whole story.
    """

    alpha_min: float
    alpha_max: float
    max_delay: int
    epsilon: float | None
    omega_sync: float
    omega_async_factor: float | None


@dataclass(frozen=True)
class CertificateReport:
    """Spectral radii of sampled age rows at one (omega, D) point."""

    omega: float
    max_delay: int
    trials: int
    seed: int
    rhos: tuple[float, ...]
    rho_max: float
    passed: bool
    ages: tuple[tuple[int, ...], ...]   # one age row per trial


def build_companion(scenario: CouplingScenario, ages, omega: float,
                    max_delay: int) -> CompanionSystem:
    """Companion matrix of the delayed iteration for one age row.

    ``ages`` holds one integer in [0, max_delay] per entry of
    ``scenario.patch_ids``.  Block X_k = S_G^{-1} Shat_k sums the
    complement (at k = 0) and then the age-k patches in ``patch_ids``
    order.
    """
    if not (isfinite(omega) and omega > 0):
        raise ValueError("omega must be finite and positive")
    _check_delay(max_delay)
    row, patches = np.asarray(ages), np.asarray(scenario.patch_ids)
    if row.shape != patches.shape or row.dtype.kind not in "iuf" \
            or not np.all((row >= 0) & (row <= max_delay)
                            & (row == np.round(row))):
        raise ValueError(f"ages must be one integer in [0, {max_delay}] "
                         f"per patch ({len(patches)})")
    slots = [patches[row == k].tolist() for k in range(max_delay + 1)]
    if scenario.complement is not None:
        slots[0].insert(0, 0)
    n = scenario.gamma_dim
    blocks = tuple(_scattered_sum(scenario, slot) for slot in slots)
    matrix = np.eye((max_delay + 1) * n, k=-n)
    matrix[:n] = -omega * np.hstack(blocks)
    matrix[:n, :n] += np.eye(n)
    return CompanionSystem(omega=omega, max_delay=max_delay, gamma_dim=n,
                           blocks=blocks, matrix=matrix)


def _scattered_sum(scenario: CouplingScenario, sids) -> np.ndarray:
    """``X = S_G^{-1} sum_s A_s S_s A_s^T`` over ``sids``, Gamma x Gamma."""
    inv = scenario._sg_inverse
    x = np.zeros_like(inv)
    for sid in sids:
        sub = scenario.subdomains[sid]
        x[:, sub.amap] += inv[:, sub.amap] @ sub.schur
    return x


def spectral_radius(system: CompanionSystem) -> float:
    """Largest eigenvalue magnitude of a companion system, taken of the
    principal submatrix on its live coordinates (see the module
    docstring)."""
    matrix, n = system.matrix, system.gamma_dim
    # live[k-1, i]: column i of some X_j, j >= k, is nonzero.
    feeds = np.any(matrix[:n, n:] != 0, axis=0).reshape(-1, n)
    live = np.logical_or.accumulate(feeds[::-1], axis=0)[::-1]
    keep = np.concatenate([np.ones(n, dtype=bool), live.ravel()])
    return float(np.abs(np.linalg.eigvals(matrix[np.ix_(keep, keep)])).max())


def generalized_spectrum(scenario: CouplingScenario) -> np.ndarray:
    """All generalized eigenvalues of (sum_s A_s S_s A_s^T, S_G).

    Computed as the symmetric eigenvalues of L^T X L^{-T} = L^T X S_G^{-1} L,
    with X over all subdomains and the global interface operator L L^T.
    """
    x = _scattered_sum(scenario, scenario.subdomain_ids)
    chol_l = np.tril(scenario._sg_chol[0])
    m = chol_l.T @ x @ scenario._sg_inverse @ chol_l
    return np.linalg.eigvalsh(0.5 * (m + m.T))


def generalized_alphas(scenario: CouplingScenario) -> tuple[float, float]:
    """Extreme generalized eigenvalues (alpha_min, alpha_max)."""
    spectrum = generalized_spectrum(scenario)
    return float(spectrum[0]), float(spectrum[-1])


def relaxation_bounds(alpha_min: float, alpha_max: float,
                      max_delay: int) -> SpectralBounds:
    """Admissible-relaxation summary for a given delay bound.

    The synchronous bound 2/alpha_max is sharp.  For max_delay >= 1 the
    reported async factor is a sufficient bound only; certification gives
    the sharper, per-age-row answer.
    """
    if not (isfinite(alpha_max) and 0 < alpha_min <= alpha_max):
        raise ValueError("need 0 < alpha_min <= alpha_max < inf")
    _check_delay(max_delay)
    omega_sync = 2.0 / alpha_max
    if max_delay == 0:
        return SpectralBounds(alpha_min=alpha_min, alpha_max=alpha_max,
                              max_delay=0, epsilon=None,
                              omega_sync=omega_sync,
                              omega_async_factor=None)
    eps = min(sin(pi / (3.0 * max_delay)), 0.5)
    factor = ((1.0 - eps) ** max_delay * alpha_min
              / ((1.0 + eps) ** (2 * max_delay) * alpha_max ** 2))
    return SpectralBounds(alpha_min=alpha_min, alpha_max=alpha_max,
                          max_delay=max_delay, epsilon=eps,
                          omega_sync=omega_sync, omega_async_factor=factor)


def certify_paracontraction(scenario: CouplingScenario, omega: float,
                            max_delay: int, trials: int = 100,
                            seed: int = 0) -> CertificateReport:
    """Sample random age rows and check every one contracts.

    Patches are assigned ages uniformly in [0, max_delay]; the complement,
    when present, is always fresh.  For max_delay = 0 there is only one
    age row, evaluated once.  A row drawn more than once is solved once
    and its radius repeated in ``rhos``.  The certificate passes when
    every sampled spectral radius is strictly below one; a failure is
    reported, not raised.
    """
    if not (isfinite(omega) and omega > 0):
        raise ValueError("omega must be finite and positive")
    if not _is_int(trials) or trials < 1:
        raise ValueError("trials must be an integer of at least 1")
    _check_delay(max_delay)
    rng = np.random.default_rng(seed)
    n_patches = len(scenario.patch_ids)
    if max_delay == 0:
        ages = [(0,) * n_patches]
    else:
        ages = [tuple(rng.integers(0, max_delay + 1, size=n_patches).tolist())
                for _ in range(trials)]
    solved: dict[tuple[int, ...], float] = {}
    for row in ages:
        if row not in solved:
            system = build_companion(scenario, row, omega, max_delay)
            solved[row] = spectral_radius(system)
    rhos = tuple(solved[row] for row in ages)
    rho_max = max(rhos)
    return CertificateReport(omega=omega, max_delay=max_delay,
                             trials=len(ages), seed=seed, rhos=rhos,
                             rho_max=rho_max, passed=rho_max < 1.0,
                             ages=tuple(ages))
