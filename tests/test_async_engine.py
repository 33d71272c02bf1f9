"""Delay schedules and the asynchronous executors.

The virtual-time runs are compared operation for operation against an
independently written reference loop; the threaded runs are checked for
exact agreement with the sequential driver (delay bound 0), for ages
within their bound D, and for convergence to the monolithic reference
(no bound).
"""

import sys
import threading
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

import glocal.async_engine as async_engine
from glocal import (
    DelaySchedule,
    DivergenceError,
    LivelockError,
    ScheduleError,
    compute_residual,
    generalized_alphas,
    interface_reaction,
    partition_by_delay,
    richardson_sync,
    run_async_concurrent,
    run_async_simulated,
    run_sync_concurrent,
    stop_threshold,
)
from glocal.async_engine import _patch_groups, _WindowRanks
from glocal.spectral import (build_companion, certify_paracontraction,
                             relaxation_bounds)


def rel_err(u, u_ref):
    return float(np.linalg.norm(u - u_ref) / np.linalg.norm(u_ref))


# ---------------------------------------------------------------------------
# schedules


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        DelaySchedule(kind="adaptive", max_delay=1, patch_ids=(1,))
    with pytest.raises(ScheduleError):
        DelaySchedule(kind="random-bounded", max_delay=-1, patch_ids=(1,),
                      seed=0)
    with pytest.raises(ScheduleError):
        DelaySchedule(kind="random-bounded", max_delay=0, patch_ids=(),
                      seed=0)
    with pytest.raises(ScheduleError):
        DelaySchedule(kind="random-bounded", max_delay=1, patch_ids=(1,))
    with pytest.raises(ScheduleError):
        DelaySchedule.random_bounded((1,), 1, seed=0, update_prob=0.0)
    # A fractional bound would let ages of 3.0 through a bound of 2.5.
    with pytest.raises(ScheduleError):
        DelaySchedule.random_bounded((1, 2), 2.5, seed=0)
    with pytest.raises(ScheduleError):
        DelaySchedule(kind="random-bounded", max_delay=1.0, patch_ids=(1,),
                      seed=0)
    with pytest.raises(ScheduleError):  # no warm-up row to check
        DelaySchedule.from_table((1, 2), 2, np.zeros((0, 2)))
    ages = DelaySchedule.random_bounded((1, 2), np.int64(2), seed=0).ages(5)
    assert ages.dtype == np.int64 and np.all(ages <= 2)


@pytest.mark.parametrize("bound", [1.5, 2.0, -1])
@pytest.mark.parametrize("entry", [
    "schedule", "relaxation_bounds", "build_companion", "certify",
    "run_async_concurrent"])
def test_every_entry_point_rejects_a_bad_delay_bound(chain, entry, bound):
    # A float bound must not reach ``range`` (TypeError) or admit age 3
    # under a bound of 2.5; every entry point names the problem instead.
    calls = {
        "schedule": lambda: DelaySchedule.random_bounded(
            chain.patch_ids, bound, seed=0, has_complement=True),
        "relaxation_bounds": lambda: relaxation_bounds(0.5, 1.0, bound),
        "build_companion": lambda: build_companion(
            chain, [chain.subdomain_ids, [], []], 0.1, bound),
        "certify": lambda: certify_paracontraction(chain, 0.1, bound),
        "run_async_concurrent": lambda: run_async_concurrent(
            chain, 0.1, max_delay=bound),
    }
    with pytest.raises(ValueError, match="max_delay must be a non-negative "
                       "integer"):
        calls[entry]()


def test_table_rules():
    with pytest.raises(ScheduleError):  # warm-up row must be fresh
        DelaySchedule.from_table((1, 2), 2, [[1, 0], [0, 0]])
    with pytest.raises(ScheduleError):  # age above the bound
        DelaySchedule.from_table((1, 2), 1, [[0, 0], [0, 2]])
    with pytest.raises(ScheduleError):  # age jumped instead of growing by 1
        DelaySchedule.from_table((1, 2), 2, [[0, 0], [2, 0]])
    # Fractional or NaN ages are rejected before any cast truncates them.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (1.7, np.nan):
            with pytest.raises(ScheduleError):
                DelaySchedule.from_table((1, 2), 2,
                                         [[0, 0], [bad, 0], [2.9, 1]])
    floats = DelaySchedule.from_table((1, 2), np.int64(2),
                                      [[0.0, 0.0], [1.0, 0.0]])
    assert floats.table.dtype == np.int64
    sched = DelaySchedule.from_table((1, 2), 2, [[0, 0], [1, 0], [2, 1]])
    assert np.array_equal(sched.ages(2), [2, 1])
    with pytest.raises(ScheduleError):
        sched.ages(3)
    with pytest.raises(ScheduleError):
        sched.ages(-1)


def test_random_schedule_never_skips_and_respects_the_bound():
    for seed in range(4):
        sched = DelaySchedule.random_bounded((1, 2, 3), 3, seed=seed)
        prev = sched.ages(0)
        assert np.all(prev == 0)
        for j in range(1, 200):
            ages = sched.ages(j)
            assert np.all((ages >= 0) & (ages <= 3))
            assert np.all((ages == 0) | (ages == prev + 1))
            prev = ages
        twin = DelaySchedule.random_bounded((1, 2, 3), 3, seed=seed)
        assert np.array_equal(twin.ages(150), sched.ages(150))


def test_partition_by_delay_frozen():
    sched = DelaySchedule.from_table((1, 2, 3), 2,
                                     [[0, 0, 0], [1, 0, 1], [2, 1, 0]],
                                     has_complement=True)
    assert partition_by_delay(sched, 0) == [[0, 1, 2, 3], [], []]
    assert partition_by_delay(sched, 1) == [[0, 2], [1, 3], []]
    assert partition_by_delay(sched, 2) == [[0, 3], [2], [1]]


# ---------------------------------------------------------------------------
# virtual-time executor


def test_all_zero_schedule_reproduces_the_synchronous_run(two_patch_thermal):
    scn = two_patch_thermal
    sync = richardson_sync(scn, omega=0.8, tol=1e-10)
    # Any random-bounded schedule at max_delay = 0 ages nothing.
    for sched in (DelaySchedule.all_zero(scn.patch_ids, has_complement=True),
                  DelaySchedule.random_bounded(scn.patch_ids, 0, seed=7,
                                               update_prob=0.3,
                                               has_complement=True)):
        asyn = run_async_simulated(scn, 0.8, sched, tol=1e-10)
        assert asyn.converged and sync.converged
        assert len(asyn.history) == len(sync.history)
        for a, b in zip(asyn.history, sync.history):
            # Identical operation sequence: bitwise equality, not
            # approximation.
            assert np.array_equal(a.p_gamma, b.p_gamma)
            assert a.residual_norm == b.residual_norm
        assert np.array_equal(asyn.final_u_gamma, sync.final_u_gamma)


def make_valid_table(rng, n_patches, max_delay, steps):
    rows = [np.zeros(n_patches, dtype=np.int64)]
    for _ in range(steps - 1):
        aged = rows[-1] + 1
        fresh = (rng.random(n_patches) < 0.5) | (aged > max_delay)
        rows.append(np.where(fresh, 0, aged))
    return np.array(rows)


def test_simulated_run_matches_a_handwritten_delay_loop(two_patch_thermal):
    scn = two_patch_thermal
    rng = np.random.default_rng(17)
    table = make_valid_table(rng, len(scn.patch_ids), 2, steps=80)
    sched = DelaySchedule.from_table(scn.patch_ids, 2, table,
                                     has_complement=True)
    omega = 0.6
    report = run_async_simulated(scn, omega, sched, tol=1e-10, max_iter=60)

    # Reference loop written from the update rule alone: refresh the
    # reactions of age-zero patches, reuse the rest, relax the load.
    p = np.zeros(scn.gamma_dim)
    cache = {}
    for j, rec in enumerate(report.history):
        u = scn.solve_interface(p)
        for sid, age in zip(scn.patch_ids, table[j]):
            if age == 0:
                cache[sid] = interface_reaction(scn, sid, u)
        r = -(interface_reaction(scn, 0, u) + sum(cache.values()))
        assert np.array_equal(rec.p_gamma, p)
        assert rec.residual_norm == float(np.linalg.norm(r))
        p = p + omega * r

    assert report.converged
    for step in report.trace.steps:
        assert step.sigma == {sid: int(a) for sid, a
                              in zip(scn.patch_ids, table[step.index])}


def test_simulated_run_counts_refreshes(chain):
    sched = DelaySchedule.random_bounded(chain.patch_ids, 2, seed=3,
                                         has_complement=True)
    report = run_async_simulated(chain, 0.5, sched, tol=1e-8)
    assert report.converged
    n_steps = len(report.history)
    assert report.total_global_solves == n_steps
    twin = DelaySchedule.random_bounded(chain.patch_ids, 2, seed=3,
                                        has_complement=True)
    table = np.array([twin.ages(j) for j in range(n_steps)])
    # A step whose stale-mixed residual passes the stop test is confirmed
    # with one fresh solve per patch.
    threshold = stop_threshold(chain, 1e-8, report.history[0].residual_norm)
    confirmations = np.cumsum([rec.residual_norm <= threshold
                               and table[rec.index].any()
                               for rec in report.history])
    refreshes = np.cumsum(table == 0, axis=0)
    assert [step.index for step in report.trace.steps] == list(range(n_steps))
    for j, step in enumerate(report.trace.steps):
        assert step.sigma == {sid: int(a) for sid, a
                              in zip(chain.patch_ids, table[j])}
        assert step.solves == {0: j + 1, **{
            sid: int(n) + int(confirmations[j])
            for sid, n in zip(chain.patch_ids, refreshes[j])}}
    assert report.patch_solves == {
        sid: int(n) + int(confirmations[-1])
        for sid, n in zip(chain.patch_ids, refreshes[-1])}
    assert report.trace.rank_ids == (0,) + chain.patch_ids
    assert report.trace.steps is report.history


def test_simulated_run_stops_on_a_fresh_residual(two_patch_thermal):
    scn = two_patch_thermal
    _, alpha_max = generalized_alphas(scn)
    sched = DelaySchedule.random_bounded(scn.patch_ids, 3, seed=1,
                                         update_prob=0.5,
                                         has_complement=True)
    report = run_async_simulated(scn, 0.6 * (2.0 / alpha_max), sched,
                                 tol=1e-6)
    assert report.converged
    threshold = stop_threshold(scn, 1e-6, report.history[0].residual_norm)
    fresh = compute_residual(scn, report.final_u_gamma)
    assert np.linalg.norm(fresh) <= threshold


def test_simulated_run_validates_inputs(chain):
    good = DelaySchedule.all_zero(chain.patch_ids, has_complement=True)
    with pytest.raises(ValueError):
        run_async_simulated(chain, 0.0, good)
    other_ids = DelaySchedule.all_zero((1, 2, 3), has_complement=True)
    with pytest.raises(ScheduleError):
        run_async_simulated(chain, 0.5, other_ids)
    no_complement = DelaySchedule.all_zero(chain.patch_ids)
    with pytest.raises(ScheduleError):
        run_async_simulated(chain, 0.5, no_complement)


# ---------------------------------------------------------------------------
# threaded executors


@contextmanager
def stalled_patch_ranks():
    """Patch products that take 0.5 s, against a 0.1 s watchdog."""
    fast = async_engine.patch_reactions

    def slow(*args):
        time.sleep(0.5)
        return fast(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(async_engine, "patch_reactions", slow)
        mp.setattr(async_engine, "WATCHDOG_S", 0.1)
        yield


def test_synchronized_threads_match_the_sequential_driver(two_patch_thermal):
    scn = two_patch_thermal
    for relaxation in ("fixed", "aitken"):
        seq = richardson_sync(scn, omega=1.0, tol=1e-8,
                              relaxation=relaxation)
        par = run_sync_concurrent(scn, omega=1.0, tol=1e-8,
                                  relaxation=relaxation)
        assert par.converged
        assert len(par.history) == len(seq.history)
        for a, b in zip(par.history, seq.history):
            assert np.array_equal(a.p_gamma, b.p_gamma)
            assert a.residual_norm == b.residual_norm
            assert a.omega == b.omega
        assert np.array_equal(par.final_u_gamma, seq.final_u_gamma)
        # Both synchronous drivers leave their records untraced.
        assert par.trace is None and seq.trace is None
        assert all(rec.sigma is None and rec.solves is None
                   for rec in par.history + seq.history)


def test_synchronized_threads_with_grouped_patches(imbalanced_thermal):
    scn = imbalanced_thermal
    seq = richardson_sync(scn, omega=0.5, tol=1e-8)
    # More patch ranks than cores and a short switch interval, so a lost
    # wake-up or solve count would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for rank_count in (2, 4, 17):
            groups = _patch_groups(scn.patch_ids, rank_count)
            assert len(groups) == min(rank_count - 1, len(scn.patch_ids))
            assert [i for g in groups for i in range(g.start, g.stop)] \
                == list(range(len(scn.patch_ids)))
            par = run_sync_concurrent(scn, omega=0.5, tol=1e-8,
                                      rank_count=rank_count)
            assert [h.residual_norm for h in par.history] \
                == [h.residual_norm for h in seq.history]
            assert np.array_equal(par.final_u_gamma, seq.final_u_gamma)
            assert par.patch_solves == seq.patch_solves
    finally:
        sys.setswitchinterval(interval)
    with pytest.raises(ValueError):
        run_sync_concurrent(scn, rank_count=1)


def test_zero_delay_threads_are_traced(two_patch_thermal):
    scn = two_patch_thermal
    # At D = 0 the threads age nothing, and the run is still traced.
    par = run_async_concurrent(scn, omega=1.0, tol=1e-8, max_delay=0)
    assert par.converged and par.trace.steps is par.history
    assert all(rec.sigma == dict.fromkeys(scn.patch_ids, 0)
               for rec in par.history)
    assert [rec.solves[0] for rec in par.history] == \
        list(range(1, len(par.history) + 1))
    seq = richardson_sync(scn, omega=1.0, tol=1e-8)
    assert [rec.residual_norm for rec in par.history] == \
        [rec.residual_norm for rec in seq.history]


def test_free_running_threads_reach_the_reference(two_patch_thermal,
                                                  oracle_thermal):
    scn = two_patch_thermal
    report = run_async_concurrent(scn, omega=0.5, tol=1e-8)
    assert report.converged
    assert rel_err(report.final_u_gamma, oracle_thermal.u_gamma) <= 1e-6
    for step in report.trace.steps:
        assert all(0 <= s <= step.index for s in step.sigma.values())
        assert step.solves[0] == step.index + 1
    # Confirmation solves are part of the bill.
    assert all(report.patch_solves[sid] >= 1 for sid in scn.patch_ids)


def test_free_running_ranks_answer_each_trace_once(two_patch_thermal):
    scn = two_patch_thermal
    n = len(scn.patch_ids)
    u0 = scn.solve_interface(np.zeros(scn.gamma_dim))
    u1 = scn.solve_interface(np.ones(scn.gamma_dim))
    with _WindowRanks(scn, None, None) as ranks:
        ranks.residual(0, u0)
        # A confirmation at a trace every rank has answered solves nothing.
        r0 = ranks.fresh(0, u0)
        time.sleep(0.05)  # the trace does not move meanwhile
        assert ranks.solves.tolist() == [1] * n
        assert np.array_equal(r0, compute_residual(scn, u0))
        r1 = ranks.fresh(1, u1)
        assert ranks.solves.tolist() == [2] * n
        assert np.array_equal(r1, compute_residual(scn, u1))


@pytest.mark.parametrize("max_delay", [1, 2])
def test_threaded_ages_stay_within_the_bound(imbalanced_thermal, max_delay):
    scn = imbalanced_thermal
    _, alpha_max = generalized_alphas(scn)
    # One rank per patch, more ranks than cores and a short switch
    # interval, so ranks fall behind and the bound has to hold them.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            report = run_async_concurrent(scn, 0.5 / alpha_max, tol=1e-8,
                                          max_delay=max_delay)
            assert report.converged
            for step in report.trace.steps:
                ages = list(step.sigma.values())
                assert max(ages) <= max_delay
                assert min(ages) == 0
    finally:
        sys.setswitchinterval(interval)


def test_starved_run_is_reported_as_livelock(two_patch_thermal):
    scn = two_patch_thermal
    with stalled_patch_ranks(), pytest.raises(LivelockError):
        run_async_concurrent(scn, omega=0.5, tol=1e-12)


def test_threaded_runs_end_their_threads(two_patch_thermal):
    scn = two_patch_thermal
    start = threading.active_count()
    assert run_async_concurrent(scn, omega=0.5, tol=1e-8).converged
    assert threading.active_count() == start
    with stalled_patch_ranks(), pytest.raises(LivelockError):
        run_async_concurrent(scn, omega=0.5, tol=1e-12)
    assert threading.active_count() == start
    with pytest.raises(DivergenceError):
        run_sync_concurrent(scn, omega=5.0)
    assert threading.active_count() == start
    # A stalled rank ends a run at delay bound 0 too.
    ranks = _WindowRanks(scn, None, 0)
    u = scn.solve_interface(np.zeros(scn.gamma_dim))
    with stalled_patch_ranks(), pytest.raises(LivelockError), ranks:
        for j in range(3):
            ranks.residual(j, u)
    assert threading.active_count() == start


def test_a_raising_patch_rank_fails_the_run(two_patch_thermal, monkeypatch):
    # The autouse no_stray_threads fixture checks that no rank outlives it.
    error = RuntimeError("patch solve failed")

    def broken(*args):
        raise error

    monkeypatch.setattr(async_engine, "patch_reactions", broken)
    for run in (run_async_concurrent, run_sync_concurrent):
        with pytest.raises(RuntimeError) as raised:
            run(two_patch_thermal, omega=0.5)
        assert raised.value is error
