"""A run's columnar history: records built on read, and the CSV writers
that read the columns against the record-by-record oracle."""

from dataclasses import fields

import numpy as np
import pytest

import glocal.solvers as solvers
import record_oracle
from glocal import (DelaySchedule, DivergenceError, cli, generalized_alphas,
                    richardson_sync, run_async_concurrent,
                    run_async_simulated)


def simulated(scn, omega, seed):
    schedule = DelaySchedule.random_bounded(
        scn.patch_ids, 2, seed=seed,
        has_complement=scn.complement is not None)
    return run_async_simulated(scn, omega, schedule)


def assert_writers_match(tmp_path, scn, report):
    cli.write_history(tmp_path / "history.csv", report)
    record_oracle.write_history(tmp_path / "history-oracle.csv", report)
    assert (tmp_path / "history.csv").read_bytes() == \
        (tmp_path / "history-oracle.csv").read_bytes()
    if report.trace is not None:
        cli.write_trace(tmp_path / "trace.csv", scn, report)
        record_oracle.write_trace(tmp_path / "trace-oracle.csv", scn, report)
        assert (tmp_path / "trace.csv").read_bytes() == \
            (tmp_path / "trace-oracle.csv").read_bytes()


@pytest.mark.parametrize("name, omega", [("chain", 0.5),
                                         ("two_patch_thermal", 0.3)])
def test_simulated_csvs_match_the_record_oracle(tmp_path, request, name,
                                                omega):
    scn = request.getfixturevalue(name)
    report = simulated(scn, omega, seed=4)
    assert report.converged and report.iterations > 5
    assert_writers_match(tmp_path, scn, report)


def test_threaded_and_synchronous_csvs_match_the_record_oracle(
        tmp_path, two_patch_thermal):
    scn = two_patch_thermal
    _, alpha_max = generalized_alphas(scn)
    # Below 2/((2D+1) alpha_max), which holds for every switching age row.
    threaded = run_async_concurrent(scn, 0.35 / alpha_max, rank_count=3,
                                    max_delay=2)
    assert threaded.converged
    assert_writers_match(tmp_path, scn, threaded)
    for report in (richardson_sync(scn, 1.8 / alpha_max),
                   richardson_sync(scn, relaxation="aitken")):
        assert report.converged and report.trace is None
        assert_writers_match(tmp_path, scn, report)


@pytest.fixture
def built(monkeypatch):
    """Indices of every IterationRecord constructed while it is in use."""
    indices = []
    real = solvers.IterationRecord

    def counted(*args, **kwargs):
        record = real(*args, **kwargs)
        indices.append(record.index)
        return record

    monkeypatch.setattr(solvers, "IterationRecord", counted)
    return indices


def test_a_traced_run_builds_records_only_when_read(two_patch_thermal,
                                                    built):
    scn = two_patch_thermal
    report = simulated(scn, 0.3, seed=4)
    history = report.history
    assert built == []
    assert report.trace.steps is history
    n = len(history)
    assert n == report.iterations + 1 > 5

    step = history[3]
    assert built == [3]
    assert (step.index, step.residual_norm, step.omega) == (
        3, history.residual_norm[3], history.omega[3])
    assert step.p_gamma is history.p_gamma[3]
    assert step.sigma == dict(zip(scn.patch_ids,
                                  history.sigma[3].tolist()))
    assert step.solves == {0: 4, **dict(zip(scn.patch_ids,
                                            history.solves[3].tolist()))}

    assert history[-1].index == n - 1
    assert history[-n].index == 0
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            history[bad]
    assert [rec.index for rec in history[1:4]] == [1, 2, 3]
    assert [rec.index for rec in history[::-2]] == list(range(n))[::-2]
    assert [rec.index for rec in history] == list(range(n))
    assert [rec.index for rec in history + history[:2]] == \
        [*range(n), 0, 1]


def test_an_untraced_run_keeps_no_ages(two_patch_thermal, built):
    report = richardson_sync(two_patch_thermal, omega=1.0)
    assert built == []
    assert report.history.sigma == report.history.solves == []
    last = report.history[-1]
    assert (last.sigma, last.solves) == (None, None)
    assert np.array_equal(last.p_gamma, report.history.p_gamma[-1])


def test_divergence_carries_the_run_history(two_patch_thermal, built):
    with pytest.raises(DivergenceError) as excinfo:
        richardson_sync(two_patch_thermal, omega=5.0, tol=1e-8)
    history = excinfo.value.history
    assert isinstance(history, solvers.RunHistory) and built == []
    assert history[-1].residual_norm > 1e6 * history[0].residual_norm
    assert len(built) == 2


def test_a_replayed_table_cannot_rewrite_a_run(chain):
    # The history keeps the schedule's age rows without copying them.
    table = [[0, 0], [1, 1], [0, 2], [1, 0]]
    schedule = DelaySchedule.from_table(chain.patch_ids, 2, table,
                                        has_complement=True)
    report = run_async_simulated(chain, 0.5, schedule, max_iter=3)
    with pytest.raises(ValueError):
        schedule.table[2, 1] = 0
    assert [rec.sigma for rec in report.history] == [
        dict(zip(chain.patch_ids, row)) for row in table]


def test_run_records_derive_their_trace(two_patch_thermal):
    assert [f.name for f in fields(solvers.SolveReport)] == [
        "converged", "history", "final_u_gamma", "patch_solves", "variant"]
    assert [f.name for f in fields(solvers.AsyncTrace)] == ["steps"]
    scn = two_patch_thermal
    report = simulated(scn, 0.3, seed=4)
    assert report.trace.steps is report.history
    assert report.trace.rank_ids == (0,) + scn.patch_ids
    assert richardson_sync(scn, omega=1.0).trace is None
