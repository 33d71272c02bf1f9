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
interface operator.  X_k is read straight off the scenario's cached
S_G^{-1}: each age-k subdomain adds (S_G^{-1})[:, amap_s] S_s to the
columns amap_s, so no partition, slot or omega needs a linear solve.
These displacement-space blocks are similar to the load-space
Shat_k S_G^{-1} through blockdiag(S_G), so the spectrum is the same, and
X_k is exactly zero outside the interface columns of the age-k
subdomains.  The eigenvalues of B are the roots of

    det( (1-l) l^D I - w sum_k l^(D-k) X_k ) = 0,

and the iteration for that one age partition contracts iff the spectral
radius is below one.

What ``certify_paracontraction`` checks is exactly that: rho(B) < 1 for
each of a sample of random age partitions.  That is not a proof for a run
that switches between partitions from step to step; such a run is only
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

from .async_engine import _age_slots, _check_delay
from .coupling import CouplingScenario

__all__ = ["CompanionSystem", "SpectralBounds", "CertificateReport",
           "build_companion", "spectral_radius",
           "generalized_spectrum", "generalized_alphas", "relaxation_bounds",
           "certify_paracontraction"]


@dataclass(frozen=True)
class CompanionSystem:
    """Block companion matrix of one age partition at relaxation omega."""

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
    """Spectral radii of sampled age partitions at one (omega, D) point."""

    omega: float
    max_delay: int
    trials: int
    seed: int
    rhos: tuple[float, ...]
    rho_max: float
    passed: bool
    partitions: tuple[tuple[tuple[int, ...], ...], ...]


def _validate_partition(scenario: CouplingScenario, partition,
                        max_delay: int) -> list[list[int]]:
    slots = [list(slot) for slot in partition]
    if len(slots) != max_delay + 1:
        raise ValueError(f"partition needs {max_delay + 1} slots, "
                         f"got {len(slots)}")
    flat = [sid for slot in slots for sid in slot]
    if sorted(flat) != sorted(scenario.subdomain_ids):
        raise ValueError("partition must cover every subdomain exactly once")
    return slots


def build_companion(scenario: CouplingScenario, partition, omega: float,
                    max_delay: int) -> CompanionSystem:
    """Companion matrix of the delayed iteration for one age partition.

    ``partition`` lists, for each age k = 0..max_delay, the subdomain ids
    whose reaction is k steps old; it must cover all subdomains exactly
    once (empty slots are fine).  The blocks are X_k = S_G^{-1} Shat_k.
    """
    if not (isfinite(omega) and omega > 0):
        raise ValueError("omega must be finite and positive")
    _check_delay(max_delay)
    slots = _validate_partition(scenario, partition, max_delay)
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


def spectral_radius(system: CompanionSystem | np.ndarray) -> float:
    """Largest eigenvalue magnitude of a companion system (or raw matrix).

    For a ``CompanionSystem`` the eigenvalues are taken of the principal
    submatrix on the live coordinates only (see the module docstring); a
    raw matrix is taken whole.
    """
    matrix = getattr(system, "matrix", system)
    if isinstance(system, CompanionSystem):
        n = system.gamma_dim
        # live[k-1, i]: column i of some X_j, j >= k, is nonzero.
        feeds = np.any(matrix[:n, n:] != 0, axis=0).reshape(-1, n)
        live = np.logical_or.accumulate(feeds[::-1], axis=0)[::-1]
        keep = np.concatenate([np.ones(n, dtype=bool), live.ravel()])
        matrix = matrix[np.ix_(keep, keep)]
    return float(np.abs(np.linalg.eigvals(matrix)).max())


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
    the sharper, per-partition answer.
    """
    if not 0 < alpha_min <= alpha_max:
        raise ValueError("need 0 < alpha_min <= alpha_max")
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
    """Sample random age partitions and check every one contracts.

    Patches are assigned ages uniformly in [0, max_delay]; the complement,
    when present, always sits at age 0.  For max_delay = 0 there is only
    one partition, evaluated once.  A partition drawn more than once is
    solved once and its radius repeated in ``rhos``.  The certificate
    passes when every sampled spectral radius is strictly below one; a
    failure is reported, not raised.
    """
    if not (isfinite(omega) and omega > 0):
        raise ValueError("omega must be finite and positive")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _check_delay(max_delay)
    rng = np.random.default_rng(seed)
    patches = scenario.patch_ids

    assignments: list[np.ndarray]
    if max_delay == 0:
        assignments = [np.zeros(len(patches), dtype=np.int64)]
    else:
        assignments = [rng.integers(0, max_delay + 1, size=len(patches))
                       for _ in range(trials)]

    rhos: list[float] = []
    partitions: list[tuple[tuple[int, ...], ...]] = []
    solved: dict[tuple[tuple[int, ...], ...], float] = {}
    for assign in assignments:
        slots = _age_slots(patches, assign, max_delay,
                           scenario.complement is not None)
        partition = tuple(tuple(slot) for slot in slots)
        if partition not in solved:
            system = build_companion(scenario, slots, omega, max_delay)
            solved[partition] = spectral_radius(system)
        rhos.append(solved[partition])
        partitions.append(partition)

    rho_max = max(rhos)
    return CertificateReport(omega=omega, max_delay=max_delay,
                             trials=len(assignments), seed=seed,
                             rhos=tuple(rhos), rho_max=rho_max,
                             passed=rho_max < 1.0,
                             partitions=tuple(partitions))
