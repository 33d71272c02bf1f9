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
r_j, and a run's steps are kept as columns.  With a fixed relaxation the
iteration is Richardson on an SPD-similar operator; the ``aitken`` mode
rescales omega each step from the last two residuals.

Convergence is declared when ||r_j|| <= tol * ||r_0||, with a floor at
the residual's own roundoff so that an initial residual at that level
(fine model identical to the global one) counts as converged
immediately.  A residual that mixes in stale reactions must pass again
when recomputed from fresh ones at the same trace, so "converged" always
means a fresh residual passed.  A residual above 1e6 * ||r_0||, or a
non-finite one, aborts with the history attached.

``monolithic_reference`` solves the coupled problem directly, read as a
primal domain decomposition: one sparse prolongation P takes the
unknowns [u_Gamma; every subdomain interior] to all subdomain dofs
(interface rows through the transfer maps J_s A_s^T), and P^T K P is
factored once.  It shares no code or data with the condensation path,
which makes it the oracle the iterative variants are checked against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# interface_reaction stays bound here: perfbench traces it by this name.
from .coupling import CouplingScenario, patch_reactions, scatter_residual
from .coupling import interface_reaction  # noqa: F401
from .errors import DivergenceError, StagnationError
from .model_problems import _is_int

__all__ = ["IterationRecord", "RunHistory", "SolveReport",
           "ReferenceSolution", "compute_residual", "aitken_update",
           "stop_threshold", "richardson_sync", "monolithic_reference"]

DIVERGENCE_FACTOR = 1e6
OMEGA_CAP = 10.0
OMEGA_FLOOR = 1e-6
CONVERGENCE_FLOOR = 1e-13


def _check_omega(omega: float) -> float:
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError("omega must be finite and positive")
    return omega


def _check_delay(max_delay, error: type[Exception] = ValueError):
    if not _is_int(max_delay) or max_delay < 0:
        raise error("max_delay must be a non-negative integer")


def stop_threshold(scenario: "CouplingScenario", tol: float,
                   r0_norm: float) -> float:
    """Residual norm below which an iteration counts as converged.

    Relative to the initial residual, but never below the roundoff of the
    residual itself: ``4 eps sum_s (||S_s||_F ||A_s^T u_0|| + ||b_s||)``
    at ``u_0 = S_G^{-1} b_G``, nor below 1e-13 ||b_G||.  When the fine
    models reproduce the global one exactly, r_0 is that roundoff and
    must pass on its own.
    """
    u0 = scenario._sg_inverse @ scenario.rhs_global
    roundoff = 4.0 * np.finfo(float).eps * sum(
        np.linalg.norm(sub.schur) * np.linalg.norm(u0[sub.amap])
        + np.linalg.norm(sub.rhs) for sub in scenario.subdomains.values())
    floor = CONVERGENCE_FLOOR * float(np.linalg.norm(scenario.rhs_global))
    return max(tol * r0_norm, floor, float(roundoff))


@dataclass(frozen=True)
class IterationRecord:
    """State after one global solve.  Traced runs also record ``sigma``,
    the age of every patch reaction in the step's residual, and ``solves``,
    the cumulative solves per rank: rank 0 is the global model (it owns
    the complement reaction), patch ranks and ages are keyed by subdomain
    id.  Both are None on untraced runs."""

    index: int
    p_gamma: np.ndarray
    residual_norm: float
    omega: float
    wall_time: float
    sigma: dict[int, int] | None = None
    solves: dict[int, int] | None = None


class RunHistory(Sequence):
    """The steps of one run as columns, read only as a list of records:
    ``history[j]`` builds step j's :class:`IterationRecord`, and slices and
    ``+`` give lists.  ``sigma`` and ``solves``, the age rows and solve
    counts over ``patch_ids``, stay empty on untraced runs."""

    def __init__(self, patch_ids: tuple[int, ...]):
        self.patch_ids = patch_ids
        self.p_gamma, self.residual_norm, self.omega = [], [], []
        self.wall_time, self.sigma, self.solves = [], [], []

    def __len__(self) -> int:
        return len(self.residual_norm)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[k] for k in range(len(self))[j]]
        j = range(len(self))[j]  # negative or out of range as on a list
        ids, sigma, solves = self.patch_ids, None, None
        if self.sigma:
            sigma = dict(zip(ids, self.sigma[j].tolist()))
            solves = dict(zip((0,) + ids, [j + 1, *self.solves[j].tolist()]))
        return IterationRecord(j, self.p_gamma[j], self.residual_norm[j],
                               self.omega[j], self.wall_time[j], sigma,
                               solves)

    def __add__(self, other):
        return [*self, *other]


@dataclass
class AsyncTrace:
    """The records of an asynchronous run: ``steps`` is the report's
    ``history`` itself, ``rank_ids`` the keys of every ``solves``."""

    steps: RunHistory

    @property
    def rank_ids(self) -> tuple[int, ...]:
        return (0,) + self.steps.patch_ids


@dataclass
class SolveReport:
    """Outcome of one solver run: one :class:`IterationRecord` per step,
    also read as a ``trace`` when the history keeps ages (asynchronous
    variants).  ``patch_solves`` counts every patch reaction solved,
    confirmation solves included."""

    converged: bool
    history: RunHistory
    final_u_gamma: np.ndarray
    patch_solves: dict[int, int]
    variant: str

    @property
    def trace(self) -> AsyncTrace | None:
        return AsyncTrace(self.history) if self.history.sigma else None

    @property
    def iterations(self) -> int:
        return len(self.history) - 1

    @property
    def total_global_solves(self) -> int:
        return len(self.history)

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
    return scatter_residual(scenario, u_gamma,
                            patch_reactions(scenario, u_gamma))


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
    """Where the kernel gets r_j from; this base takes every reaction fresh.

    ``residual(j, u)`` returns r_j at the trace u of step j and the age of
    every patch reaction in it, an int array over the patch stack (None
    when all are fresh).  ``fresh(j, u)`` returns r_j with every reaction
    taken at u itself, the confirmation of a stale residual that passed.
    ``solves`` counts the reactions each patch has solved so far, also
    over the stack, confirmations included.  Sources that run threads
    start them on ``__enter__`` and stop them on ``__exit__``; none
    writes an age row it has returned, which the kernel keeps.
    """

    def __init__(self, scenario: CouplingScenario):
        self.scenario = scenario
        self.solves = np.zeros(len(scenario.patch_ids), dtype=np.int64)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None

    def residual(self, j: int, u: np.ndarray):
        return self.fresh(j, u), None

    def fresh(self, j: int, u: np.ndarray) -> np.ndarray:
        self.solves += 1
        return compute_residual(self.scenario, u)


def _iterate(scenario: CouplingScenario, source: _Reactions, omega: float,
             tol: float, max_iter: int, relaxation: str, variant: str,
             traced: bool) -> SolveReport:
    """Run the relaxed interface iteration with residuals from ``source``.

    ``relaxation`` is as in :func:`richardson_sync`.  When a residual
    holding reactions of age > 0 passes the stop test, the residual at the
    same trace is recomputed from fresh reactions and the run stops only
    if that one passes too; otherwise it carries on with the stale
    residual.  The source answers that confirmation: one solve per patch
    in the simulator, in parallel on the threaded ranks.  Each step is
    appended to the :class:`RunHistory` columns; no record, dict or trace
    is built in the loop.  ``traced`` runs keep ages and solve counts
    there too; their source must return ages.
    """
    _check_omega(omega)
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    if not _is_int(max_iter) or max_iter < 0:
        raise ValueError("max_iter must be a non-negative integer")
    if relaxation not in ("fixed", "aitken"):
        raise ValueError(f"unknown relaxation {relaxation!r}")

    aitken = relaxation == "aitken"
    w = 1.0 if aitken else float(omega)
    p = np.zeros(scenario.gamma_dim)
    history = RunHistory(scenario.patch_ids)
    r_prev: np.ndarray | None = None
    converged = False
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
            if stop and ages is not None and ages.any():
                stop = float(np.linalg.norm(source.fresh(j, u))) <= threshold
            # p is rebound each step, never written in place: no copy.
            history.p_gamma.append(p)
            history.residual_norm.append(rn)
            history.omega.append(w)
            history.wall_time.append(perf_counter() - t0)
            if traced:
                history.sigma.append(ages)
                history.solves.append(source.solves.copy())
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

    return SolveReport(converged=converged, history=history,
                       final_u_gamma=u,
                       patch_solves=dict(zip(scenario.patch_ids,
                                             source.solves.tolist())),
                       variant=variant)


def richardson_sync(scenario: CouplingScenario, omega: float = 1.0,
                    tol: float = 1e-8, max_iter: int = 10000,
                    relaxation: str = "fixed") -> SolveReport:
    """Stationary (or Aitken-accelerated) synchronous coupling iteration.

    ``relaxation`` is "fixed" (constant omega) or "aitken" (omega re-fitted
    each step, starting from 1.0 regardless of the omega argument).
    """
    variant = "sync-aitken" if relaxation == "aitken" else "sync-fixed"
    return _iterate(scenario, _Reactions(scenario), omega, tol,
                    max_iter, relaxation, variant, traced=False)


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
    """Assemble and solve the coupled problem as one primal system.

    The unknowns are x = [u_Gamma; every subdomain's interior dofs].  One
    sparse prolongation P maps x to all subdomain dofs: a subdomain's
    interface rows hold ``J_s A_s^T`` (J_s = I on the complement) and its
    interior rows pick its own block of x.  With K the block diagonal of
    the assembled stiffnesses and f the stacked loads, ``P^T K P x =
    P^T f`` is SPD and is factored once in symmetric mode; every field is
    read off ``P x``.  The interface/interior split comes from the mesh
    interface nodes, so nothing here touches condensation.
    """
    ng = scenario.gamma_dim
    subdomains = list(scenario.subdomains.values())
    rows, cols, vals = [], [], []
    row0, col0 = 0, ng
    for sub in subdomains:
        n, m = sub.system.dof_count, len(sub.amap)
        iface = sub.system.node_dofs(sub.mesh_interface_nodes)
        interior = np.setdiff1d(np.arange(n), iface, assume_unique=True)
        trace = (sub.transfer @ sp.csr_matrix(
            (np.ones(m), (np.arange(m), sub.amap)), shape=(m, ng))).tocoo()
        rows += [row0 + iface[trace.row], row0 + interior]
        cols += [trace.col, col0 + np.arange(len(interior))]
        vals += [trace.data, np.ones(len(interior))]
        row0, col0 = row0 + n, col0 + len(interior)
    p = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(row0, col0))
    k = sp.block_diag([sub.system.stiffness for sub in subdomains],
                      format="csr")
    f = np.concatenate([sub.system.load for sub in subdomains])
    # Symmetric mode: diagonal pivots on a minimum-degree order of A + A^T.
    lu = spla.splu((p.T @ k @ p).tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    x = lu.solve(p.T @ f)
    splits = np.cumsum([sub.system.dof_count for sub in subdomains])[:-1]
    fields = {sub.sid: sub.system.full_field(u_local)
              for sub, u_local in zip(subdomains, np.split(p @ x, splits))}
    return ReferenceSolution(u_gamma=x[:ng], fields=fields)
