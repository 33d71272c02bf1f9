"""Record-by-record CSV writers, kept as a test-only oracle.

This is how ``glocal.cli`` wrote ``history.csv`` and ``trace.csv`` before
it read a run's columns directly: one :class:`IterationRecord` per step,
with its ``sigma`` and ``solves`` dicts.  ``summary.csv`` and
``certificate.csv`` are written as before the CLI handed raw values to one
``csv.writer``: each float formatted by hand as ``repr(float(x))``, the
certificate rows joined by hand.  Tests require the CLI's writers to
produce the same bytes; nothing in ``src/`` imports it.
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


SUMMARY_COLUMNS = ("case", "variant", "iterations", "loc_solves_min",
                   "loc_solves_max", "wall_seconds", "rel_residual",
                   "err_vs_oracle", "converged")


def summary_row(summary) -> list:
    return [summary.case, summary.variant, summary.iterations,
            summary.loc_solves_min, summary.loc_solves_max,
            _fmt(summary.wall_seconds), _fmt(summary.rel_residual),
            _fmt(summary.err_vs_oracle), summary.converged]


def summary_line(summary) -> str:
    """The ``key=value`` line ``glocal solve`` prints for one summary."""
    return ", ".join(f"{k}={v}" for k, v in zip(SUMMARY_COLUMNS,
                                                summary_row(summary)))


def write_summary(path, summaries):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for summary in summaries:
            writer.writerow(summary_row(summary))


def write_certificate(path, report):
    rows = [["trial", "max_delay", "omega", "rho", "pass"]]
    rows += [[trial, report.max_delay, _fmt(report.omega), _fmt(rho),
              rho < 1.0] for trial, rho in enumerate(report.rhos)]
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in rows)
