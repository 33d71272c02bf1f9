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
    """One row per step: the step's age of every patch, then every patch's
    solves so far, both over ``patch_ids``."""
    ids = scenario.patch_ids
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", *(f"sigma_{sid}" for sid in ids),
                         *(f"solves_{sid}" for sid in ids)])
        for step in report.trace.steps:
            writer.writerow([step.index, *(step.sigma[sid] for sid in ids),
                             *(step.solves[sid] for sid in ids)])
