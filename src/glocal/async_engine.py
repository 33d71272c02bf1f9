"""Asynchronous coupling: delay schedules, the reaction sources that feed
stale patch reactions to the iteration kernel, and one threaded executor.

Every driver here runs :func:`glocal.solvers._iterate`, the same loop as
the synchronous drivers; only the source of the residual changes.  The
global interface solve stays exact while every patch reaction may lag
behind by a bounded number of steps:

    p_{j+1} = p_j + omega * r_j,
    r_j = -( complement reaction at u_j
             + sum_s scatter of the patch-s reaction computed at u_{j - sigma(s,j)} )

One age rule holds for every run: sigma(s,0) = 0 (a synchronous warm-up
sweep), sigma(s,j) <= D and sigma(s,j) <= sigma(s,j-1) + 1, so the trace
j - sigma(s,j) a patch reads never moves back; a patch solves when it
moves.  ``run_async_simulated`` takes the ages from a
:class:`DelaySchedule` and is the canonical, deterministic iteration.
The threaded executor runs the global model on the calling thread and
patch ranks on worker threads, each owning a contiguous slice of the
patch stack, and keeps every age at most a bound D (None: unbounded).
Its ages come from thread timing, and the ones a run records replay
through the simulator to the same numbers.  ``run_sync_concurrent`` is
D = 0 and reproduces :func:`glocal.solvers.richardson_sync`, untraced
like it; an asynchronous run's ages and solves read as an :class:`AsyncTrace`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

# interface_reaction stays bound here: perfbench traces it by this name.
from .coupling import CouplingScenario, patch_reactions, scatter_residual
from .coupling import interface_reaction  # noqa: F401
from .errors import LivelockError, ScheduleError
from .solvers import (AsyncTrace, SolveReport, _check_delay, _is_int,
                      _iterate, _Reactions)

__all__ = ["DelaySchedule", "AsyncTrace", "run_async_simulated",
           "run_async_concurrent", "run_sync_concurrent"]


# ---------------------------------------------------------------------------
# delay schedules

_BLOCK = 256  # steps of a random-bounded schedule drawn at once


@dataclass(eq=False)  # array fields: equal only to itself
class DelaySchedule:
    """Ages sigma(s, j) for every patch, bounded by ``max_delay``.

    It takes exactly one of ``table`` and ``seed``.  A table holds
    explicit ages under the module's rule, as a threaded run records
    them.  A seed makes it random-bounded: each step an age resets to zero
    with probability ``update_prob``, or when it would pass D, and else
    grows by one; the draws are kept privately, a block of steps at a
    time, so ``table`` is input only.  At D = 0 every age is zero: the
    synchronous iteration.  The complement is always fresh (no column).
    """

    max_delay: int
    patch_ids: tuple[int, ...]
    has_complement: bool | None = None   # None: read off the scenario
    table: np.ndarray | None = None
    seed: int | None = None
    update_prob: float = 0.5
    _rows: np.ndarray = field(init=False, repr=False)
    _rng: np.random.Generator | None = field(init=False, default=None,
                                             repr=False)

    def __post_init__(self):
        _check_delay(self.max_delay, ScheduleError)
        if not self.patch_ids:
            raise ScheduleError("schedule needs at least one patch")
        if (self.table is None) == (self.seed is None):
            raise ScheduleError("a schedule needs exactly one of a table "
                                "or a seed")
        if self.seed is not None:
            if not 0.0 < self.update_prob <= 1.0:
                raise ScheduleError("update_prob must lie in (0, 1]")
            self._rng = np.random.default_rng(self.seed)
            self._rows = np.zeros((1, len(self.patch_ids)), dtype=np.int64)
            return
        table = np.asarray(self.table)
        if table.ndim != 2 or table.shape[1] != len(self.patch_ids) \
                or len(table) == 0:
            raise ScheduleError("table must be (steps, n_patches) with at "
                                "least one step")
        if not np.all(np.isfinite(table) & (table == np.round(table))):
            raise ScheduleError("table ages must be integers")
        self.table = self._rows = table = table.astype(np.int64)
        table.flags.writeable = False  # a run's history keeps its rows
        if np.any(table[0] != 0):
            raise ScheduleError("ages at step 0 must all be zero "
                                "(warm-up sweep)")
        if np.any((table < 0) | (table > self.max_delay)):
            raise ScheduleError(
                f"table holds an age outside [0, {self.max_delay}]")
        if np.any(table[1:] > table[:-1] + 1):
            raise ScheduleError("an age grew by more than one: sigma(s,j) "
                                "must be at most sigma(s,j-1) + 1")

    @classmethod
    def random_bounded(cls, patch_ids, max_delay: int, seed: int,
                       update_prob: float = 0.5,
                       has_complement: bool | None = None) -> "DelaySchedule":
        return cls(max_delay, tuple(patch_ids), has_complement, seed=seed,
                   update_prob=update_prob)

    @classmethod
    def from_table(cls, patch_ids, max_delay: int, table,
                   has_complement: bool | None = None) -> "DelaySchedule":
        return cls(max_delay, tuple(patch_ids), has_complement, table=table)

    def ages(self, j: int) -> np.ndarray:
        """Ages of all patches at step j (row of the sigma table)."""
        if j < 0:
            raise ScheduleError("negative step")
        if j >= len(self._rows) and self._rng is not None:
            # One draw for a block of steps, at least as long as the rows so
            # far.  An age counts the steps since the patch's last random
            # refresh, wrapped at D + 1 where the forced refresh restarts it.
            n = len(self._rows)
            steps = np.arange(n, n + max(_BLOCK, n, j + 1 - n))[:, None]
            fresh = self._rng.random((len(steps), len(self.patch_ids))) \
                < self.update_prob
            last = np.where(fresh, steps, steps[0] - 1 - self._rows[-1])
            np.maximum.accumulate(last, axis=0, out=last)
            self._rows = np.concatenate(
                [self._rows, (steps - last) % (self.max_delay + 1)])
        if j >= len(self._rows):
            raise ScheduleError(f"table exhausted at step {j}")
        return self._rows[j]


# ---------------------------------------------------------------------------
# reaction sources


class _ScheduledReactions(_Reactions):
    """Patch s enters step j with its row of the patch stack at trace
    j - sigma(s,j); the complement is fresh every step.  Each step's
    stack, from one batched call, goes into a ring indexed by trace modulo
    its depth, which starts at one and doubles, up to D + 1, when an age
    first reaches it: the ring follows the largest age used, not D."""

    def __init__(self, scenario: CouplingScenario, schedule: DelaySchedule):
        if tuple(schedule.patch_ids) != scenario.patch_ids:
            raise ScheduleError("schedule and scenario patch ids differ")
        if schedule.has_complement not in (None, 0 in scenario.subdomains):
            raise ScheduleError("schedule and scenario complements differ")
        super().__init__(scenario)
        self.schedule = schedule
        self.ring = np.zeros((1, *scenario.patch_rhs.shape))
        self.rows = np.arange(len(scenario.patch_ids))
        self.last = np.zeros(len(scenario.patch_ids), dtype=np.int64)

    def residual(self, j: int, u: np.ndarray):
        ages, depth = self.schedule.ages(j), len(self.ring)
        bound = self.schedule.max_delay
        # An age grows by at most one a step, so doubling covers it.
        if depth <= bound and ages.max() >= depth:
            held = np.arange(j - depth, j)
            grown = np.zeros((min(2 * depth, bound + 1), *self.ring.shape[1:]))
            grown[held % len(grown)] = self.ring[held % depth]
            self.ring, depth = grown, len(grown)
        self.ring[j % depth] = patch_reactions(self.scenario, u)
        self.solves += ages <= self.last  # the trace j - sigma moved
        self.last = ages
        # Trace j - sigma sits at slot j % depth - sigma, wrapped by numpy.
        return (scatter_residual(self.scenario, u,
                                 self.ring[j % depth - ages, self.rows]),
                ages)


def run_async_simulated(scenario: CouplingScenario, omega: float,
                        schedule: DelaySchedule, tol: float = 1e-8,
                        max_iter: int = 10000) -> SolveReport:
    """Walk the asynchronous iteration in virtual time.

    Step j takes patch s's reaction at the trace j - sigma(s,j) that the
    schedule names and the complement's at u_j.  Any table of the module's
    rule replays, a threaded run's recorded ages included; an all-zero
    schedule is the synchronous fixed-omega iteration, operation for
    operation.
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
    if not _is_int(rank_count) or rank_count < 2:
        raise ValueError("rank_count must be an integer of at least 2: "
                         "one global and one patch rank")
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
                        rank_count: int | None = None) -> SolveReport:
    """Threaded run at delay bound 0 and fixed ``omega``, without a trace.

    Every step waits for every patch rank's answer to its trace, so the
    iterates are those of :func:`glocal.solvers.richardson_sync` at the
    same ``omega``, operation for operation: the threaded exchange does
    not perturb the numbers.  A patch rank that does not answer within ``WATCHDOG_S``
    seconds aborts the run with :class:`LivelockError`.
    """
    ranks = _WindowRanks(scenario, rank_count, max_delay=0)
    return _iterate(scenario, ranks, omega, tol, max_iter, "fixed",
                    "sync-concurrent", traced=False)
