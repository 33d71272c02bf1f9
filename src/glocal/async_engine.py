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
runs the global model on the calling thread and patch groups on worker
threads that exchange traces and reactions through one-sided
:class:`WindowCell` windows.  Free-running (``run_async_concurrent``),
delays come from real scheduling, are observed rather than prescribed,
and the iterate sequence is not reproducible run to run, only its limit
is.  Behind barriers (``run_sync_concurrent``) every reaction is fresh
and the iterates are those of :func:`glocal.solvers.richardson_sync`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

# interface_reaction stays bound here: perfbench traces it by this name.
from .coupling import CouplingScenario, patch_reactions, scatter_residual
from .coupling import interface_reaction  # noqa: F401
from .errors import LivelockError, ScheduleError
from .solvers import AsyncStep, AsyncTrace, SolveReport, _iterate, _Reactions

__all__ = ["DelaySchedule", "AsyncStep", "AsyncTrace", "WindowCell",
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
        if self.max_delay < 0:
            raise ScheduleError("max_delay must be non-negative")
        if not self.patch_ids:
            raise ScheduleError("schedule needs at least one patch")
        if self.kind == "deterministic-table":
            if self.table is None:
                raise ScheduleError("deterministic-table needs a table")
            table = np.asarray(self.table, dtype=np.int64)
            if table.ndim != 2 or table.shape[1] != len(self.patch_ids):
                raise ScheduleError("table must be (steps, n_patches)")
            self._validate_table(table)
            self.table = table
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
# one-sided windows


class WindowCell:
    """Versioned single-writer cell emulating a one-sided RMA window.

    ``put`` swaps in a read-only copy of the payload under a lock and bumps
    the version; ``read`` returns the current (version, payload, meta)
    triple.  A reader holds a payload that no later ``put`` can change,
    so a torn read cannot happen.  Versions are strictly monotone.
    """

    def __init__(self, name: str = "window"):
        self.name = name
        self._lock = threading.Lock()
        self._version = 0
        self._payload: np.ndarray | None = None
        self._meta: dict = {}

    def put(self, payload: np.ndarray, **meta) -> int:
        arr = np.array(payload, dtype=float, copy=True)
        arr.setflags(write=False)
        with self._lock:
            self._version += 1
            self._payload = arr
            self._meta = meta
            return self._version

    def read(self) -> tuple[int, np.ndarray | None, dict]:
        with self._lock:
            return self._version, self._payload, self._meta

    @property
    def version(self) -> int:
        with self._lock:
            return self._version


# ---------------------------------------------------------------------------
# the threaded executor


def _patch_groups(patch_ids: tuple[int, ...],
                  rank_count: int | None) -> list[list[int]]:
    if rank_count is None:
        rank_count = 1 + len(patch_ids)
    if rank_count < 2:
        raise ValueError("need at least one global and one patch rank")
    workers = min(rank_count - 1, len(patch_ids))
    groups: list[list[int]] = [[] for _ in range(workers)]
    for i, sid in enumerate(patch_ids):
        groups[i % workers].append(sid)
    return groups


class _WindowRanks(_Reactions):
    """Patch ranks on threads, exchanging through window cells.

    The global rank (the kernel's thread) puts each trace in every patch's
    trace window; a patch rank solves the reaction of each patch of its
    group at the trace in that patch's window and puts it in the patch's
    reaction window, tagged with the step the trace came from.  A patch
    whose trace window still holds the step it last answered is skipped.
    ``synchronized`` runs every step behind two barriers (trace published,
    reactions published), so all reactions are fresh.  Otherwise patch
    ranks answer each new trace as they reach it and the global rank sums
    whatever reactions the windows hold as soon as one patch has answered
    the current trace; ``patch_sleep`` adds a per-solve delay to some
    patches, and the run aborts with :class:`LivelockError` when no patch
    answers within ``watchdog`` seconds.
    """

    def __init__(self, scenario: CouplingScenario, rank_count: int | None,
                 synchronized: bool,
                 patch_sleep: dict[int, float] | None = None,
                 watchdog: float = 10.0):
        super().__init__(scenario)
        groups = _patch_groups(scenario.patch_ids, rank_count)
        self.traced = not synchronized
        self.patch_sleep = patch_sleep or {}
        self.watchdog = watchdog
        self.trace_cells = {sid: WindowCell(f"trace[{sid}]")
                            for sid in scenario.patch_ids}
        self.reaction_cells = {sid: WindowCell(f"reaction[{sid}]")
                               for sid in scenario.patch_ids}
        # Step whose trace each patch's newest reaction was solved at.
        self.latest = dict.fromkeys(scenario.patch_ids, -1)
        self.rows = {sid: i for i, sid in enumerate(scenario.patch_ids)}
        self.barrier = (threading.Barrier(len(groups) + 1)
                        if synchronized else None)
        self.stop = threading.Event()
        self.errors: list[Exception] = []
        self.threads = [threading.Thread(target=self._patch_rank,
                                         args=(group,), daemon=True)
                        for group in groups]

    def __enter__(self):
        for t in self.threads:
            t.start()
        return self

    def __exit__(self, *exc_info):
        self.stop.set()
        if self.barrier is not None:
            self.barrier.abort()
        for t in self.threads:
            t.join(timeout=5.0)
        self._raise_worker_error()

    def _raise_worker_error(self):
        if self.errors:
            raise self.errors[0]

    def _patch_rank(self, group: list[int]):
        try:
            while not self.stop.is_set():
                if self.barrier is not None:
                    self.barrier.wait()  # trace published
                did_work = self._solve(group)
                if self.barrier is not None:
                    self.barrier.wait()  # reactions published
                else:
                    time.sleep(0 if did_work else 5e-5)
        except threading.BrokenBarrierError:
            return  # the global rank has stopped
        except Exception as err:  # re-raised on the global rank
            self.errors.append(err)
            if self.barrier is not None:
                self.barrier.abort()

    def _solve(self, group: list[int]) -> bool:
        did_work = False
        for sid in group:
            _, u, meta = self.trace_cells[sid].read()
            if meta.get("iter", -1) == self.latest[sid]:
                continue  # no trace yet, or this one is answered
            row = self.rows[sid]
            reaction = patch_reactions(self.scenario, u,
                                       slice(row, row + 1))[0]
            self.reaction_cells[sid].put(reaction, source_iter=meta["iter"])
            self.solves[sid] += 1
            self.latest[sid] = meta["iter"]
            did_work = True
            delay = self.patch_sleep.get(sid, 0.0)
            if delay:
                time.sleep(delay)
        return did_work

    def _await_reactions(self, j: int):
        """Wait until every patch (step 0) or at least one patch (later
        steps) has put a reaction solved at the trace of step j.

        Any reaction not seen before would not do: a global rank that
        steps quickly would then outrun the patch ranks, and the ages, and
        with them whether the run converges, would depend on how cheap a
        global step is.
        """
        enough = all if j == 0 else any
        deadline = time.monotonic() + self.watchdog
        while not enough(source >= j for source in self.latest.values()):
            self._raise_worker_error()
            if time.monotonic() > deadline:
                raise LivelockError(f"no patch answered trace {j} within "
                                    f"{self.watchdog} s")
            time.sleep(2e-5)

    def residual(self, j: int, u: np.ndarray):
        if self.barrier is None and j:
            time.sleep(0)  # yield so patch ranks keep pace
        for cell in self.trace_cells.values():
            cell.put(u, iter=j)
        if self.barrier is not None:
            self.barrier.wait()  # trace published
            self.barrier.wait()  # reactions published
        else:
            self._await_reactions(j)
        self._raise_worker_error()
        reactions, ages = [], {}
        for sid, cell in self.reaction_cells.items():
            _, reaction, meta = cell.read()
            reactions.append(reaction)
            ages[sid] = max(j - int(meta["source_iter"]), 0)
        return scatter_residual(self.scenario, u, np.array(reactions)), ages


def run_async_concurrent(scenario: CouplingScenario, omega: float,
                         tol: float = 1e-8, max_iter: int = 10000,
                         rank_count: int | None = None, *,
                         patch_sleep: dict[int, float] | None = None,
                         watchdog: float = 10.0) -> SolveReport:
    """Threaded asynchronous run exchanging data through window cells.

    The global rank publishes the interface trace and, once at least one
    patch has answered that trace, iterates on whatever reactions the
    patch ranks have put back, fresh or not; patch ranks answer each new
    trace once.  ``patch_sleep`` injects an artificial per-solve delay
    for a subset of patches, which is how tests model rank imbalance.  A
    watchdog aborts with :class:`LivelockError` when no patch answers
    within ``watchdog`` seconds.
    """
    ranks = _WindowRanks(scenario, rank_count, synchronized=False,
                         patch_sleep=patch_sleep, watchdog=watchdog)
    return _iterate(scenario, ranks, omega, tol, max_iter, "fixed",
                    "async-concurrent")


def run_sync_concurrent(scenario: CouplingScenario, omega: float = 1.0,
                        tol: float = 1e-8, max_iter: int = 10000,
                        rank_count: int | None = None,
                        relaxation: str = "fixed") -> SolveReport:
    """Barrier-synchronized threaded run.

    Every iteration runs the three phases publish-trace / patch-solve /
    reduce behind barriers, so the iterate sequence coincides with
    :func:`glocal.solvers.richardson_sync` operation for operation; it
    exists to show the window plumbing does not perturb the numbers.
    """
    ranks = _WindowRanks(scenario, rank_count, synchronized=True)
    return _iterate(scenario, ranks, omega, tol, max_iter, relaxation,
                    "sync-concurrent")
