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
patches the schedule refreshes.  The threaded executor runs the global
model on the calling thread and patch ranks on worker threads, each
holding a contiguous slice of the patch stack, and keeps every age at
most a bound D.  Within it the ages come from thread timing, so the
iterates of ``run_async_concurrent`` repeat run to run only in their
limit (D = None: unbounded ages).  ``run_sync_concurrent`` is D = 0 and
reproduces :func:`glocal.solvers.richardson_sync`, untraced like it; the
asynchronous runs, at every D, record each step's ages and solve counts
and attach an :class:`AsyncTrace` over those records.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

# interface_reaction stays bound here: perfbench traces it by this name.
from .coupling import CouplingScenario, patch_reactions, scatter_residual
from .coupling import interface_reaction  # noqa: F401
from .errors import LivelockError, ScheduleError
from .solvers import AsyncTrace, SolveReport, _iterate, _Reactions

__all__ = ["DelaySchedule", "AsyncTrace",
           "partition_by_delay", "run_async_simulated",
           "run_async_concurrent", "run_sync_concurrent"]


# ---------------------------------------------------------------------------
# delay schedules

_BLOCK = 256  # steps of a random-bounded schedule drawn at once


def _check_delay(max_delay, error: type[Exception] = ValueError):
    if not isinstance(max_delay, (int, np.integer)) or max_delay < 0:
        raise error("max_delay must be a non-negative integer")


@dataclass
class DelaySchedule:
    """Ages sigma(s, j) for every patch, bounded by ``max_delay``.

    Kinds: "deterministic-table" (explicit age table, validated) and
    "random-bounded" (per-step Bernoulli refresh with probability
    ``update_prob``, forced whenever the age would exceed the bound).
    At max_delay = 0 every age is zero and the schedule degenerates to
    the synchronous iteration; ``all_zero`` builds that one.
    The complement, when the scenario has one, is always fresh and is not
    part of the table.  A random-bounded schedule keeps its draws in
    ``table`` too, appended a block of steps at a time.
    """

    kind: str
    max_delay: int
    patch_ids: tuple[int, ...]
    has_complement: bool = False
    table: np.ndarray | None = None
    seed: int | None = None
    update_prob: float = 0.5
    _rng: np.random.Generator | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("deterministic-table", "random-bounded"):
            raise ScheduleError(f"unknown schedule kind {self.kind!r}")
        _check_delay(self.max_delay, ScheduleError)
        if not self.patch_ids:
            raise ScheduleError("schedule needs at least one patch")
        if self.kind == "deterministic-table":
            if self.table is None:
                raise ScheduleError("deterministic-table needs a table")
            table = np.asarray(self.table)
            if table.ndim != 2 or table.shape[1] != len(self.patch_ids) \
                    or len(table) == 0:
                raise ScheduleError("table must be (steps, n_patches) with "
                                    "at least one step")
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
            self.table = np.zeros((1, len(self.patch_ids)), dtype=np.int64)

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
        return cls.random_bounded(patch_ids, 0, seed=0,
                                  has_complement=has_complement)

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
        if j >= len(self.table) and self._rng is not None:
            # One draw for a block of steps, at least as long as the table
            # so far, so the table grows geometrically.  An age counts the
            # steps since the patch's last random refresh, wrapped at D + 1,
            # which is where the forced refresh restarts it.
            n = len(self.table)
            steps = np.arange(n, n + max(_BLOCK, n, j + 1 - n))[:, None]
            fresh = self._rng.random((len(steps), len(self.patch_ids))) \
                < self.update_prob
            last = np.where(fresh, steps, steps[0] - 1 - self.table[-1])
            np.maximum.accumulate(last, axis=0, out=last)
            self.table = np.concatenate(
                [self.table, (steps - last) % (self.max_delay + 1)])
        if j >= len(self.table):
            raise ScheduleError(f"table exhausted at step {j}")
        return self.table[j]


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
        self.solves += fresh
        return scatter_residual(self.scenario, u, self.cache), ages


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
                    omega, tol, max_iter, "fixed", "async-sim", traced=True)


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
    stack: it answers every new trace once, with one batched product, and
    stores the block in ``blocks[k]`` and the step it answered in
    ``answered[k]``.  These fields are read and written only under
    ``changed``; u and the blocks are never written once handed over, so
    they are not copied.

    ``changed`` carries every wake-up: a patch rank waits for a trace newer
    than its answer (or the stop), and the global rank until some rank has
    answered step j and every rank step max(0, j - D), so no age exceeds D
    (D = None: no bound past the warm-up at step 0).  ``fresh`` is the same
    wait with the floor at j.  The wait ends early when a worker has
    raised, and with :class:`LivelockError` after ``WATCHDOG_S`` seconds.
    """

    def __init__(self, scenario: CouplingScenario, rank_count: int | None,
                 max_delay: int | None):
        if max_delay is not None:
            _check_delay(max_delay)
        super().__init__(scenario)
        self.groups = _patch_groups(scenario.patch_ids, rank_count)
        self.sizes = [g.stop - g.start for g in self.groups]
        self.lag = np.inf if max_delay is None else max_delay
        self.changed = threading.Condition()
        self.trace: tuple[int, np.ndarray | None] = (-1, None)
        self.blocks: list[np.ndarray | None] = [None] * len(self.groups)
        self.answered = np.full(len(self.groups), -1)
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
        if self.errors:
            raise self.errors[0]

    def _patch_rank(self, k: int):
        rows = self.groups[k]
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
                    self.solves[rows] += 1
                    self.blocks[k] = block
                    self.answered[k] = step
                    self.changed.notify_all()
        except Exception as err:  # re-raised on the global rank
            with self.changed:
                self.errors.append(err)
                self.changed.notify_all()

    def _wait(self, j: int, u: np.ndarray, floor: int):
        # Requiring an answer to trace j keeps a quick global rank from
        # outrunning the ranks, which would tie the ages to its step cost.
        with self.changed:
            self.trace = (j, u)
            self.changed.notify_all()
            if not self.changed.wait_for(
                    lambda: self.errors or (self.answered.max() >= j
                                            and self.answered.min() >= floor),
                    timeout=WATCHDOG_S):
                raise LivelockError(f"patch ranks did not answer trace {j} "
                                    f"within WATCHDOG_S = {WATCHDOG_S} s")
            if self.errors:
                raise self.errors[0]
            blocks, answered = list(self.blocks), self.answered.copy()
        return (scatter_residual(self.scenario, u, np.concatenate(blocks)),
                np.repeat(j - answered, self.sizes))

    def residual(self, j: int, u: np.ndarray):
        return self._wait(j, u, max(0, j - self.lag))

    def fresh(self, j: int, u: np.ndarray) -> np.ndarray:
        return self._wait(j, u, j)[0]


def run_async_concurrent(scenario: CouplingScenario, omega: float,
                         tol: float = 1e-8, max_iter: int = 10000,
                         rank_count: int | None = None,
                         max_delay: int | None = None) -> SolveReport:
    """Threaded run with every patch reaction at most ``max_delay`` steps
    old (``None``: no bound).

    Within the bound the ages come from thread timing and are recorded in
    the trace.  A stale residual that passes is confirmed by the ranks at
    the same trace.  The run aborts with :class:`LivelockError` when the
    ranks do not answer within ``WATCHDOG_S`` seconds.
    """
    ranks = _WindowRanks(scenario, rank_count, max_delay)
    return _iterate(scenario, ranks, omega, tol, max_iter, "fixed",
                    "async-concurrent", traced=True)


def run_sync_concurrent(scenario: CouplingScenario, omega: float = 1.0,
                        tol: float = 1e-8, max_iter: int = 10000,
                        rank_count: int | None = None,
                        relaxation: str = "fixed") -> SolveReport:
    """Threaded run at delay bound 0, without a trace.

    Every step waits for every patch rank's answer to its trace, so the
    iterates are those of :func:`glocal.solvers.richardson_sync`
    operation for operation: the threaded exchange does not perturb the
    numbers.  A patch rank that does not answer within ``WATCHDOG_S``
    seconds aborts the run with :class:`LivelockError`.
    """
    ranks = _WindowRanks(scenario, rank_count, max_delay=0)
    return _iterate(scenario, ranks, omega, tol, max_iter, relaxation,
                    "sync-concurrent", traced=False)
