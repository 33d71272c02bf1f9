"""Record-by-record CSV writers, kept as a test-only oracle.

This is how ``glocal.cli`` wrote ``history.csv`` and ``trace.csv`` before
it read a run's columns directly: one :class:`IterationRecord` per step,
with its ``sigma`` and ``solves`` dicts.  Tests require the column writers
to produce the same bytes; nothing in ``src/`` imports it.
"""

from __future__ import annotations

import csv


def _fmt(value) -> str:
    return repr(float(value))


def write_history(path, report):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "residual_norm", "omega",
                         "wall_seconds"])
        for rec in report.history:
            writer.writerow([rec.index, _fmt(rec.residual_norm),
                             _fmt(rec.omega), _fmt(rec.wall_time)])


def write_trace(path, scenario, report):
    """One row per (step, rank): ages seen by the step, solves of the rank."""
    trace = report.trace
    sigma_cols = [f"sigma_{sid}" for sid in scenario.subdomain_ids]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "rank", *sigma_cols, "residual_norm",
                         "omega", "solves_rank"])
        end = writer.dialect.lineterminator
        for step in trace.steps:
            shared = ",".join([*(str(step.sigma.get(sid, 0))
                                 for sid in scenario.subdomain_ids),
                               _fmt(step.residual_norm), _fmt(step.omega)])
            fh.writelines(f"{step.index},{rank},{shared},"
                          f"{step.solves.get(rank, 0)}{end}"
                          for rank in trace.rank_ids)
