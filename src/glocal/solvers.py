"""The coupling iteration kernel, its synchronous drivers and the
monolithic reference.

Every coupling variant runs one relaxed iteration on the interface load p
carried by the global model:

    u_j = S_G^{-1} (b_G + p_j)          (global solve)
    r_j = -(sum of subdomain reactions, each taken at some u_{j - sigma})
    p_{j+1} = p_j + omega_j r_j

starting from p_0 = 0.  The variants differ only in how old each patch
reaction is when it enters r_j (the bounded-delay model): the synchronous
drivers here take every reaction fresh, the asynchronous ones in
:mod:`glocal.async_engine` read cached or concurrently computed ones.
:func:`_iterate` is that loop, written once; a reaction source supplies
r_j.  With a fixed relaxation the iteration is Richardson on an
SPD-similar operator; the ``aitken`` mode rescales omega each step from
the last two residuals.

Convergence is declared when ||r_j|| <= tol * ||r_0||, with an absolute
floor tied to the global load so that an initial residual at roundoff
level (fine model identical to the global one) counts as converged
immediately.  A residual that mixes in stale reactions must pass again
when recomputed from fresh ones at the same trace, so "converged" always
means a fresh residual passed.  A residual above 1e6 * ||r_0||, or a
non-finite one, aborts with the history attached.

``monolithic_reference`` assembles the coupled problem directly (all fine
patches plus the complement, glued by the transfer maps) and solves it
sparsely in one shot.  It shares no code with the condensation path, which
makes it the oracle the iterative variants are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coupling import CouplingScenario, interface_reaction
from .errors import DivergenceError, StagnationError

__all__ = ["IterationRecord", "SolveReport", "ReferenceSolution",
           "compute_residual", "aitken_update", "stop_threshold",
           "richardson_sync", "monolithic_reference"]

DIVERGENCE_FACTOR = 1e6
OMEGA_CAP = 10.0
OMEGA_FLOOR = 1e-6
CONVERGENCE_FLOOR = 1e-13


def stop_threshold(scenario: "CouplingScenario", tol: float,
                   r0_norm: float) -> float:
    """Residual norm below which an iteration counts as converged.

    Relative to the initial residual, but never below a floor scaled by
    the global interface load: when the fine models reproduce the global
    one exactly, r_0 is already at roundoff and must pass on its own.
    """
    floor = CONVERGENCE_FLOOR * float(np.linalg.norm(scenario.rhs_global))
    return max(tol * r0_norm, floor)


@dataclass(frozen=True)
class IterationRecord:
    """State snapshot after one global solve."""

    index: int
    p_gamma: np.ndarray
    residual_norm: float
    omega: float
    wall_time: float


@dataclass(frozen=True)
class AsyncStep:
    """Per-step view: ages per patch and cumulative solve counts per rank.

    Rank 0 is the global model (it owns the complement reaction); patch
    ranks are keyed by subdomain id.
    """

    index: int
    sigma: dict[int, int]
    residual_norm: float
    omega: float
    solves: dict[int, int]


@dataclass
class AsyncTrace:
    steps: list[AsyncStep]
    rank_ids: tuple[int, ...]


@dataclass
class SolveReport:
    """Outcome of one solver run.

    Asynchronous variants attach their per-step delay/solve-count trace;
    synchronous runs leave it None.  ``patch_solves`` counts every patch
    reaction solved, confirmation solves included.
    """

    converged: bool
    history: list[IterationRecord]
    final_u_gamma: np.ndarray
    total_global_solves: int
    patch_solves: dict[int, int]
    variant: str
    trace: AsyncTrace | None = None

    @property
    def iterations(self) -> int:
        return len(self.history) - 1

    @property
    def final_relative_residual(self) -> float:
        r0 = self.history[0].residual_norm
        return self.history[-1].residual_norm / r0 if r0 > 0 else 0.0


def compute_residual(scenario: CouplingScenario,
                     u_gamma: np.ndarray) -> np.ndarray:
    """Negated sum of all subdomain interface reactions at the trace u.

    Zero exactly when u is the interface trace of the coupled reference
    solution.
    """
    acc = np.zeros(scenario.gamma_dim)
    for sid in scenario.subdomain_ids:
        acc += interface_reaction(scenario, sid, u_gamma)
    return -acc


def aitken_update(omega: float, residual: np.ndarray,
                  residual_prev: np.ndarray) -> float:
    """Aitken delta-squared relaxation from two consecutive residuals.

    ``omega`` is the value used in the step that produced ``residual`` from
    ``residual_prev``; the return value is the relaxation for the next
    step, clamped to [1e-6, 10].  For a scalar error contraction
    r_j = (1 - c) r_{j-1} the update returns omega / c, which zeroes the
    next residual.
    """
    r, r_prev = np.asarray(residual), np.asarray(residual_prev)
    if not np.linalg.norm(r):
        return omega
    delta = r - r_prev
    denom = float(delta @ delta)
    if denom == 0.0:
        raise StagnationError("Aitken update: residual did not change "
                              "between iterations")
    new_omega = -omega * float(r_prev @ delta) / denom
    return float(min(max(new_omega, OMEGA_FLOOR), OMEGA_CAP))


# ---------------------------------------------------------------------------
# the iteration kernel


class _Reactions:
    """Where the kernel gets r_j from.

    ``residual(j, u)`` returns r_j at the trace u of step j and the age of
    every patch reaction in it (None when all are fresh); ``solves`` counts
    the patch reactions solved so far.  ``traced`` sources get an
    :class:`AsyncTrace` on their report.  Sources that run threads start
    them on ``__enter__`` and stop them on ``__exit__``.
    """

    traced = False

    def __init__(self, scenario: CouplingScenario):
        self.scenario = scenario
        self.solves = dict.fromkeys(scenario.patch_ids, 0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


class _FreshReactions(_Reactions):
    """Every reaction recomputed at the current trace."""

    def residual(self, j: int, u: np.ndarray):
        for sid in self.solves:
            self.solves[sid] += 1
        return compute_residual(self.scenario, u), None


def _iterate(scenario: CouplingScenario, source: _Reactions, omega: float,
             tol: float, max_iter: int, relaxation: str,
             variant: str) -> SolveReport:
    """Run the relaxed interface iteration with residuals from ``source``.

    ``relaxation`` is "fixed" (constant omega) or "aitken" (omega re-fitted
    each step, starting from 1.0 regardless of the omega argument).  When
    a residual holding reactions of age > 0 passes the stop test, the
    residual at the same trace is recomputed from fresh reactions and the
    run stops only if that one passes too; otherwise it carries on with
    the stale residual.  Each confirmation costs one solve per patch.
    """
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError("omega must be finite and positive")
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    if relaxation not in ("fixed", "aitken"):
        raise ValueError(f"unknown relaxation {relaxation!r}")

    aitken = relaxation == "aitken"
    w = 1.0 if aitken else float(omega)
    p = np.zeros(scenario.gamma_dim)
    history: list[IterationRecord] = []
    steps: list[AsyncStep] = []
    r_prev: np.ndarray | None = None
    converged = False
    confirmations = 0
    t0 = perf_counter()

    with source:
        for j in range(max_iter + 1):
            u = scenario.solve_interface(p)
            r, ages = source.residual(j, u)
            rn = float(np.linalg.norm(r))
            if j == 0:
                r0 = rn
                threshold = stop_threshold(scenario, tol, r0)
            stop = rn <= threshold
            if stop and ages and any(ages.values()):
                confirmations += 1
                fresh = compute_residual(scenario, u)
                stop = float(np.linalg.norm(fresh)) <= threshold
            history.append(IterationRecord(index=j, p_gamma=p.copy(),
                                           residual_norm=rn, omega=w,
                                           wall_time=perf_counter() - t0))
            if source.traced:
                solves = {0: j + 1}
                for sid, count in source.solves.items():
                    solves[sid] = count + confirmations
                steps.append(AsyncStep(index=j, sigma=ages,
                                       residual_norm=rn, omega=w,
                                       solves=solves))
            if stop:
                converged = True
                break
            if not rn <= DIVERGENCE_FACTOR * r0:
                raise DivergenceError(
                    f"residual grew to {rn:.3e} (>= 1e6 * ||r_0||) at "
                    f"iteration {j}", history)
            if aitken and r_prev is not None:
                w = aitken_update(w, r, r_prev)
            p = p + w * r
            r_prev = r

    patch_solves = {sid: count + confirmations
                    for sid, count in source.solves.items()}
    trace = (AsyncTrace(steps=steps, rank_ids=(0,) + scenario.patch_ids)
             if source.traced else None)
    return SolveReport(converged=converged, history=history,
                       final_u_gamma=u, total_global_solves=len(history),
                       patch_solves=patch_solves, variant=variant,
                       trace=trace)


def richardson_sync(scenario: CouplingScenario, omega: float = 1.0,
                    tol: float = 1e-8, max_iter: int = 10000,
                    relaxation: str = "fixed") -> SolveReport:
    """Stationary (or Aitken-accelerated) synchronous coupling iteration.

    ``relaxation`` is "fixed" (constant omega) or "aitken" (omega re-fitted
    each step, starting from 1.0 regardless of the omega argument).
    """
    variant = "sync-aitken" if relaxation == "aitken" else "sync-fixed"
    return _iterate(scenario, _FreshReactions(scenario), omega, tol,
                    max_iter, relaxation, variant)


# ---------------------------------------------------------------------------
# monolithic reference


@dataclass(frozen=True)
class ReferenceSolution:
    """Direct solution of the coupled problem.

    ``fields`` maps subdomain id to the full nodal field of its fine model
    (the complement keeps its global-part mesh); ``u_gamma`` is the
    interface trace in the coupling ordering.
    """

    u_gamma: np.ndarray
    fields: dict[int, np.ndarray]


def monolithic_reference(scenario: CouplingScenario) -> ReferenceSolution:
    """Assemble and solve the coupled system in one sparse solve.

    Unknowns are the interface trace on Gamma plus every subdomain's
    non-interface dofs; fine interface dofs are constrained to the
    interpolated trace, which eliminates them through the transfer maps.
    Builds straight from the assembled subdomain stiffnesses, bypassing
    condensation entirely.
    """
    ng = scenario.gamma_dim
    blocks_interior: list = []
    coupling_rows: list = []
    rhs_gamma = np.zeros(ng)
    rhs_interior: list[np.ndarray] = []
    k_gamma = sp.csr_matrix((ng, ng))

    subdomains = scenario.subdomains.values()
    for sub in subdomains:
        system = sub.system
        iface = sub.condensed.interface_dofs
        interior = sub.condensed.interior_dofs
        k = system.stiffness
        # Map local interface dofs to the Gamma trace: C = J A^T as a
        # sparse rectangular operator (|iface_local| x |Gamma|).
        amap = sub.amap
        a_op = sp.csr_matrix((np.ones(len(amap)),
                              (np.arange(len(amap)), amap)),
                             shape=(len(amap), ng))
        j = sub.transfer
        c = a_op if j is None else (j @ a_op).tocsr()

        k_gg = k[iface][:, iface]
        k_gi = k[iface][:, interior]
        k_ii = k[interior][:, interior]
        k_gamma = k_gamma + c.T @ k_gg @ c
        coupling_rows.append(c.T @ k_gi)
        blocks_interior.append(k_ii)
        rhs_gamma += c.T @ system.load[iface]
        rhs_interior.append(system.load[interior])

    n_sub = len(subdomains)
    grid: list[list] = [[None] * (n_sub + 1) for _ in range(n_sub + 1)]
    grid[0][0] = k_gamma
    for i in range(n_sub):
        grid[0][i + 1] = coupling_rows[i]
        grid[i + 1][0] = coupling_rows[i].T
        grid[i + 1][i + 1] = blocks_interior[i]
    big = sp.bmat(grid, format="csc")
    rhs = np.concatenate([rhs_gamma] + rhs_interior)
    x = spla.spsolve(big, rhs)

    u_gamma = x[:ng]
    fields: dict[int, np.ndarray] = {}
    offset = ng
    for sub in subdomains:
        interior = sub.condensed.interior_dofs
        trace = u_gamma[sub.amap]
        if sub.transfer is not None:
            trace = sub.transfer @ trace
        u_local = np.empty(sub.system.dof_count)
        u_local[sub.condensed.interface_dofs] = trace
        u_local[interior] = x[offset:offset + len(interior)]
        offset += len(interior)
        fields[sub.sid] = sub.system.full_field(u_local)
    return ReferenceSolution(u_gamma=u_gamma, fields=fields)
