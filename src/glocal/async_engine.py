"""Asynchronous coupling: delay schedules, the reaction sources that feed
stale patch reactions to the iteration kernel, and one threaded executor.

Every driver here runs :func:`glocal.solvers._iterate`, the same loop as
the synchronous drivers; only the source of the residual changes.  The
global interface solve stays exact while every patch reaction may lag
behind by a bounded number of steps:

    p_{j+1} = p_j + omega * r_j,
    r_j = -( complement reaction at u_j
             + sum_s scatter of the patch-s reaction computed at u_{j - sigma(s,j)} )

with ages sigma(s,j) <= D, sigma never skipping values (a patch that is
not refreshed at step j carries sigma(s,j) = sigma(s,j-1) + 1), and a
synchronous warm-up sweep at j = 0 so every reaction exists before any
stale combination is formed.

``run_async_simulated`` takes the ages from an explicit
:class:`DelaySchedule` and reuses cached reactions; it is deterministic
and is the canonical definition of the iteration.  Each step it computes
every patch product in one batched call and keeps only the rows of the
patches the schedule refreshes.  The threaded executor
runs the global model on the calling thread and patch ranks on worker
threads, each holding a contiguous slice of the patch stack.  The
global rank leaves each step's trace in one field, each patch rank its
newest reaction block and the step it answered in fields of its own,
all read and written under one condition that also carries every
wake-up; no array is copied on the way.  Free-running
(``run_async_concurrent``), delays come from real scheduling, are
observed rather than prescribed, and the iterate sequence is not
reproducible run to run, only its limit is.  Synchronized
(``run_sync_concurrent``), the global rank waits for every rank's answer
to each trace, so every reaction is fresh and the iterates are those of
:func:`glocal.solvers.richardson_sync`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

# interface_reaction stays bound here: perfbench traces it by this name.
from .coupling import CouplingScenario, patch_reactions, scatter_residual
from .coupling import interface_reaction  # noqa: F401
from .errors import LivelockError, ScheduleError
from .solvers import AsyncStep, AsyncTrace, SolveReport, _iterate, _Reactions

__all__ = ["DelaySchedule", "AsyncStep", "AsyncTrace",
           "partition_by_delay", "run_async_simulated",
           "run_async_concurrent", "run_sync_concurrent"]


# ---------------------------------------------------------------------------
# delay schedules

_BLOCK = 256  # steps of a random-bounded schedule drawn at once


@dataclass
class DelaySchedule:
    """Ages sigma(s, j) for every patch, bounded by ``max_delay``.

    Kinds: "all-zero" (degenerates to the synchronous iteration),
    "deterministic-table" (explicit age table, validated), and
    "random-bounded" (per-step Bernoulli refresh with probability
    ``update_prob``, forced whenever the age would exceed the bound).
    The complement, when the scenario has one, is always fresh and is not
    part of the table.
    """

    kind: str
    max_delay: int
    patch_ids: tuple[int, ...]
    has_complement: bool = False
    table: np.ndarray | None = None
    seed: int | None = None
    update_prob: float = 0.5
    _rows: list[np.ndarray] = field(default_factory=list, repr=False)
    _rng: np.random.Generator | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("all-zero", "deterministic-table",
                             "random-bounded"):
            raise ScheduleError(f"unknown schedule kind {self.kind!r}")
        if not isinstance(self.max_delay, (int, np.integer)) \
                or self.max_delay < 0:
            raise ScheduleError("max_delay must be a non-negative integer")
        if not self.patch_ids:
            raise ScheduleError("schedule needs at least one patch")
        if self.kind == "deterministic-table":
            if self.table is None:
                raise ScheduleError("deterministic-table needs a table")
            table = np.asarray(self.table)
            if table.ndim != 2 or table.shape[1] != len(self.patch_ids):
                raise ScheduleError("table must be (steps, n_patches)")
            if not np.all(np.isfinite(table) & (table == np.round(table))):
                raise ScheduleError("table ages must be integers")
            self.table = table.astype(np.int64)
            self._validate_table(self.table)
        if self.kind == "random-bounded":
            if self.seed is None:
                raise ScheduleError("random-bounded needs a seed")
            if not 0.0 < self.update_prob <= 1.0:
                raise ScheduleError("update_prob must lie in (0, 1]")
            self._rng = np.random.default_rng(self.seed)
            self._rows.append(np.zeros(len(self.patch_ids), dtype=np.int64))

    def _validate_table(self, table: np.ndarray):
        if np.any(table[0] != 0):
            raise ScheduleError("ages at step 0 must all be zero "
                                "(warm-up sweep)")
        if np.any((table < 0) | (table > self.max_delay)):
            raise ScheduleError(
                f"table holds an age outside [0, {self.max_delay}]")
        grew = table[1:] - table[:-1]
        if np.any((table[1:] != 0) & (grew != 1)):
            raise ScheduleError("a skipped age: sigma(s,j) must be 0 or "
                                "sigma(s,j-1) + 1")

    @classmethod
    def all_zero(cls, patch_ids, has_complement: bool = False
                 ) -> "DelaySchedule":
        return cls(kind="all-zero", max_delay=0,
                   patch_ids=tuple(patch_ids), has_complement=has_complement)

    @classmethod
    def random_bounded(cls, patch_ids, max_delay: int, seed: int,
                       update_prob: float = 0.5,
                       has_complement: bool = False) -> "DelaySchedule":
        return cls(kind="random-bounded", max_delay=max_delay,
                   patch_ids=tuple(patch_ids), has_complement=has_complement,
                   seed=seed, update_prob=update_prob)

    @classmethod
    def from_table(cls, patch_ids, max_delay: int, table,
                   has_complement: bool = False) -> "DelaySchedule":
        return cls(kind="deterministic-table", max_delay=max_delay,
                   patch_ids=tuple(patch_ids), has_complement=has_complement,
                   table=np.asarray(table))

    def ages(self, j: int) -> np.ndarray:
        """Ages of all patches at step j (row of the sigma table)."""
        if j < 0:
            raise ScheduleError("negative step")
        if self.kind == "all-zero" or j == 0:
            return np.zeros(len(self.patch_ids), dtype=np.int64)
        if self.kind == "deterministic-table":
            if j >= len(self.table):
                raise ScheduleError(f"table exhausted at step {j}")
            return self.table[j]
        while len(self._rows) <= j:
            # One draw for a block of steps.  An age counts the steps since
            # the patch's last random refresh, wrapped at D + 1, which is
            # where the forced refresh restarts it.
            k = max(_BLOCK, j + 1 - len(self._rows))
            steps = np.arange(len(self._rows), len(self._rows) + k)[:, None]
            fresh = self._rng.random((k, len(self.patch_ids))) \
                < self.update_prob
            last = np.where(fresh, steps, steps[0] - 1 - self._rows[-1])
            np.maximum.accumulate(last, axis=0, out=last)
            self._rows.extend((steps - last) % (self.max_delay + 1))
        return self._rows[j]


def partition_by_delay(schedule: DelaySchedule, j: int) -> list[list[int]]:
    """Split subdomain ids by age at step j: slot k holds those with
    sigma = k.  The complement (id 0) sits in slot 0 when present."""
    return _age_slots(schedule.patch_ids, schedule.ages(j),
                      schedule.max_delay, schedule.has_complement)


def _age_slots(patch_ids, ages, max_delay: int,
               has_complement: bool) -> list[list[int]]:
    slots: list[list[int]] = [[] for _ in range(max_delay + 1)]
    if has_complement:
        slots[0].append(0)
    for sid, age in zip(patch_ids, ages):
        slots[int(age)].append(sid)
    return slots


# ---------------------------------------------------------------------------
# reaction sources


class _ScheduledReactions(_Reactions):
    """Patch reactions refreshed when the schedule ages them at 0 and
    reused from the cache otherwise; the complement is fresh every step."""

    traced = True

    def __init__(self, scenario: CouplingScenario, schedule: DelaySchedule):
        if tuple(schedule.patch_ids) != scenario.patch_ids:
            raise ScheduleError("schedule patch ids do not match the "
                                "scenario")
        if schedule.has_complement != (scenario.complement is not None):
            raise ScheduleError("schedule and scenario disagree about the "
                                "complement")
        super().__init__(scenario)
        self.schedule = schedule
        self.cache = np.zeros(scenario.patch_rhs.shape)

    def residual(self, j: int, u: np.ndarray):
        ages = self.schedule.ages(j)
        fresh = ages == 0
        np.copyto(self.cache, patch_reactions(self.scenario, u),
                  where=fresh[:, None])
        for sid, refreshed in zip(self.schedule.patch_ids, fresh.tolist()):
            self.solves[sid] += refreshed
        return (scatter_residual(self.scenario, u, self.cache),
                dict(zip(self.schedule.patch_ids, ages.tolist())))


def run_async_simulated(scenario: CouplingScenario, omega: float,
                        schedule: DelaySchedule, tol: float = 1e-8,
                        max_iter: int = 10000) -> SolveReport:
    """Walk the asynchronous iteration in virtual time.

    Step j refreshes exactly the patches the schedule ages at 0 and reuses
    the cached reactions of the others; the complement is recomputed every
    step.  An all-zero schedule reproduces the synchronous fixed-omega
    iteration operation for operation.
    """
    return _iterate(scenario, _ScheduledReactions(scenario, schedule),
                    omega, tol, max_iter, "fixed", "async-sim")


# ---------------------------------------------------------------------------
# the threaded executor


WATCHDOG_S = 10.0  # seconds a global step waits for the patch ranks


def _patch_groups(patch_ids: tuple[int, ...],
                  rank_count: int | None) -> list[slice]:
    """Contiguous slices of the patch stack, one per patch rank."""
    if rank_count is None:
        rank_count = 1 + len(patch_ids)
    if rank_count < 2:
        raise ValueError("need at least one global and one patch rank")
    workers = min(rank_count - 1, len(patch_ids))
    cuts = [len(patch_ids) * k // workers for k in range(workers + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


class _WindowRanks(_Reactions):
    """Patch ranks on threads, exchanging through fields under one condition.

    The global rank (the kernel's thread) sets ``trace`` to each step's
    ``(step, u)``.  Each patch rank owns a contiguous slice of the patch
    stack: it answers every new trace once, with one batched product for
    all its patches, and stores the block in ``blocks[k]`` and the step it
    answered in ``answered[k]``.  These fields are read and written only
    under ``changed``; the arrays are not copied, since every step's u and
    every block is a new array that nobody writes once handed over.

    ``changed`` carries every wake-up: a patch rank waits for a trace newer
    than its answer (or the stop), and the global rank waits until every
    rank has answered the current trace (``synchronized``, and step 0 of
    any run) or at least one has, so stale reactions enter only a
    free-running run.  That wait also ends when a worker has raised, and
    aborts with :class:`LivelockError` after ``WATCHDOG_S`` seconds.
    """

    def __init__(self, scenario: CouplingScenario, rank_count: int | None,
                 synchronized: bool):
        super().__init__(scenario)
        self.groups = _patch_groups(scenario.patch_ids, rank_count)
        self.synchronized = synchronized
        self.traced = not synchronized
        self.changed = threading.Condition()
        self.trace: tuple[int, np.ndarray | None] = (-1, None)
        self.blocks: list[np.ndarray | None] = [None] * len(self.groups)
        self.answered = [-1] * len(self.groups)
        self.stopped = False
        self.errors: list[Exception] = []
        self.threads = [threading.Thread(target=self._patch_rank,
                                         args=(k,), daemon=True)
                        for k in range(len(self.groups))]

    def __enter__(self):
        for t in self.threads:
            t.start()
        return self

    def __exit__(self, *exc_info):
        with self.changed:
            self.stopped = True
            self.changed.notify_all()
        for t in self.threads:
            t.join(timeout=5.0)
        self._raise_worker_error()

    def _raise_worker_error(self):
        if self.errors:
            raise self.errors[0]

    def _patch_rank(self, k: int):
        rows = self.groups[k]
        sids = self.scenario.patch_ids[rows]
        try:
            while True:
                with self.changed:
                    self.changed.wait_for(
                        lambda: self.stopped
                        or self.trace[0] > self.answered[k])
                    if self.stopped:
                        return
                    step, u = self.trace
                block = patch_reactions(self.scenario, u, rows)
                with self.changed:
                    for sid in sids:
                        self.solves[sid] += 1
                    self.blocks[k] = block
                    self.answered[k] = step
                    self.changed.notify_all()
        except Exception as err:  # re-raised on the global rank
            with self.changed:
                self.errors.append(err)
                self.changed.notify_all()

    def residual(self, j: int, u: np.ndarray):
        # Waiting for any reaction not seen before would not do: a global
        # rank that steps quickly would then outrun the patch ranks, and
        # the ages, and with them whether the run converges, would depend
        # on how cheap a global step is.
        enough = all if self.synchronized or j == 0 else any
        with self.changed:
            self.trace = (j, u)
            self.changed.notify_all()
            if not self.changed.wait_for(
                    lambda: self.errors or enough(
                        step >= j for step in self.answered),
                    timeout=WATCHDOG_S):
                raise LivelockError(f"patch ranks did not answer trace {j} "
                                    f"within WATCHDOG_S = {WATCHDOG_S} s")
            self._raise_worker_error()
            blocks, answered = list(self.blocks), list(self.answered)
        ages = {sid: j - step for rows, step in zip(self.groups, answered)
                for sid in self.scenario.patch_ids[rows]}
        return (scatter_residual(self.scenario, u, np.concatenate(blocks)),
                ages)


def run_async_concurrent(scenario: CouplingScenario, omega: float,
                         tol: float = 1e-8, max_iter: int = 10000,
                         rank_count: int | None = None) -> SolveReport:
    """Threaded free-running run.

    The global rank publishes the interface trace and, once at least one
    patch rank has answered that trace, iterates on whatever reaction
    blocks the patch ranks have left, fresh or not; patch ranks answer
    each new trace once.  The ages are observed, not prescribed.  The run
    aborts with :class:`LivelockError` when no patch rank answers within
    ``WATCHDOG_S`` seconds.
    """
    ranks = _WindowRanks(scenario, rank_count, synchronized=False)
    return _iterate(scenario, ranks, omega, tol, max_iter, "fixed",
                    "async-concurrent")


def run_sync_concurrent(scenario: CouplingScenario, omega: float = 1.0,
                        tol: float = 1e-8, max_iter: int = 10000,
                        rank_count: int | None = None,
                        relaxation: str = "fixed") -> SolveReport:
    """Synchronized threaded run.

    Every iteration publishes the trace and waits until every patch rank
    has answered it, so the iterate sequence coincides with
    :func:`glocal.solvers.richardson_sync` operation for operation; it
    exists to show the threaded exchange does not perturb the numbers.
    A patch rank that does not answer within ``WATCHDOG_S`` seconds
    aborts the run with :class:`LivelockError`.
    """
    ranks = _WindowRanks(scenario, rank_count, synchronized=True)
    return _iterate(scenario, ranks, omega, tol, max_iter, relaxation,
                    "sync-concurrent")
