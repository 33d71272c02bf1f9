"""One closed-loop client running the whole glocal pipeline back to back.

A pass is what a user of the package does to get a certified, checked
result on disk:

1. set-up: the scenario generator, which ends in ``build_scenario``;
2. certify: ``generalized_alphas``, then per delay bound D
   ``relaxation_bounds`` and ``certify_paracontraction`` at 0.9 x the
   delayed sufficient bound (the CLI ``certify`` default);
3. solve to tol 1e-8 with every deterministic variant: sync-fixed at
   0.9 x 2/alpha_max, sync-aitken, async-sim per D (random-bounded
   schedule, refresh probability 0.5) and sync-concurrent;
4. the monolithic reference;
5. the CLI CSVs (history, trace, summary, certificate) in a scratch
   directory.

``pipeline_s`` covers steps 1-5.  After it, outside ``pipeline_s`` and
unrecorded by a tracer, the pass runs async-concurrent once, checks every
result, and repeats set-up, certify and solve until each has been timed
for ``MIN_PHASE_S`` in the pass.  Each phase metric is the median of all
its samples in a run.  Every glocal function is looked up through its
module at call time so that a traced pass sees the wrappers of
:mod:`spans`.
"""

from __future__ import annotations

import contextlib
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import glocal.async_engine as async_engine
import glocal.cli as cli
import glocal.solvers as solvers
import glocal.spectral as spectral

from spans import MB, Tracer, layer_totals

TOL = 1e-8
ERR_LIMIT = 1e-6       # relative interface error against the reference
UPDATE_PROB = 0.5
RANK_COUNT = 2         # one global thread and one patch thread
SAFETY = 0.9           # fraction of a relaxation bound that is used
CONCURRENT_SHARE = 0.25  # CLI auto omega for async-concurrent, of 2/alpha_max
MIN_PHASE_S = 2.0      # seconds each timed phase is sampled per pass


@dataclass
class PassResult:
    """Numbers of one pass.

    ``times`` hold the samples of each timed phase; ``stats`` the counts
    the per-layer metrics are made of; ``signature`` what must repeat
    exactly between passes of one seed.
    """

    times: dict[str, list[float]]
    stats: dict[str, float]
    signature: tuple
    attempted: int
    failures: list[str] = field(default_factory=list)


def operation_count(workload) -> int:
    """Operations of one pass before its top-up rounds: the deterministic
    solves, async-concurrent, a certificate per D and the reference."""
    solves = 3 + len(workload.delays)
    return solves + 1 + len(workload.delays) + 1


def _phase(tracer: Tracer | None, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _quiet(tracer: Tracer | None):
    return contextlib.nullcontext() if tracer is None else tracer.suspended()


def _rel_error(u, reference) -> float:
    return float(np.linalg.norm(u - reference.u_gamma)
                 / np.linalg.norm(reference.u_gamma))


def _summary(scenario, report, err) -> cli.RunSummary:
    solves = list(report.patch_solves.values()) or [0]
    return cli.RunSummary(
        case=scenario.name, variant=report.variant,
        iterations=report.iterations, loc_solves_min=min(solves),
        loc_solves_max=max(solves),
        wall_seconds=report.history[-1].wall_time,
        rel_residual=report.final_relative_residual, err_vs_oracle=err,
        converged=report.converged)


def _certify(workload, scenario, seed: int, alpha_min: float,
             alpha_max: float):
    """Delayed relaxation and certificate for every delay bound."""
    omega_delayed, certificates = {}, {}
    for d in workload.delays:
        bounds = spectral.relaxation_bounds(alpha_min, alpha_max, d)
        omega_delayed[d] = SAFETY * (bounds.omega_async_factor
                                     if bounds.omega_async_factor
                                     is not None else bounds.omega_sync)
        certificates[d] = spectral.certify_paracontraction(
            scenario, omega_delayed[d], d, trials=workload.trials, seed=seed)
    return omega_delayed, certificates


def _solve(workload, scenario, seed: int, omega_fixed: float,
           omega_delayed: dict) -> dict:
    """Every deterministic variant to tolerance, keyed by variant tag."""
    reports = {}
    reports["sync-fixed"] = solvers.richardson_sync(
        scenario, omega_fixed, tol=TOL)
    reports["sync-aitken"] = solvers.richardson_sync(
        scenario, tol=TOL, relaxation="aitken")
    for d in workload.delays:
        schedule = async_engine.DelaySchedule.random_bounded(
            scenario.patch_ids, d, seed, UPDATE_PROB,
            has_complement=scenario.complement is not None)
        reports[f"async-sim-D{d}"] = async_engine.run_async_simulated(
            scenario, omega_delayed[d], schedule, tol=TOL)
    reports["sync-concurrent"] = async_engine.run_sync_concurrent(
        scenario, omega_fixed, tol=TOL, rank_count=RANK_COUNT)
    return reports


def _write(out_dir: Path, scenario, reports, errors, certificates) -> int:
    """The CLI's CSVs for every run; returns the data rows written."""
    summaries = [_summary(scenario, rep, errors[tag])
                 for tag, rep in reports.items()]
    rows = 0
    for tag, rep in reports.items():
        (out_dir / tag).mkdir()
        cli.write_history(out_dir / tag / "history.csv", rep)
        rows += len(rep.history)
        if rep.trace is not None:
            cli.write_trace(out_dir / tag / "trace.csv", scenario, rep)
            rows += len(rep.trace.steps) * len(rep.trace.rank_ids)
    cli.write_summary(out_dir / "summary.csv", summaries)
    rows += len(summaries)
    for d, cert in certificates.items():
        cli.write_certificate(out_dir / f"certificate-D{d}.csv", cert)
        rows += len(cert.rhos)
    return rows


def _top_up(samples: list, run, expect, what: str, failures: list) -> int:
    """Repeat ``run`` until ``samples`` add up to MIN_PHASE_S.

    Each repeat must give ``expect`` again.  Returns the repeat count.
    """
    repeats = 0
    while sum(samples) < MIN_PHASE_S:
        t = perf_counter()
        got = run()
        samples.append(perf_counter() - t)
        repeats += 1
        if got != expect:
            failures.append(f"{what}: a repeat gave {got}, the first {expect}")
    return repeats


def run_pass(workload, seed: int, out_dir: Path,
             tracer: Tracer | None) -> PassResult:
    """One pipeline pass, then top-up rounds, async-concurrent and checks."""
    t_start = perf_counter()
    with _phase(tracer, "setup"):
        scenario = workload.build()
    t_setup = perf_counter()

    with _phase(tracer, "certify"):
        alpha_min, alpha_max = spectral.generalized_alphas(scenario)
        omega_delayed, certificates = _certify(workload, scenario, seed,
                                               alpha_min, alpha_max)
    t_certify = perf_counter()

    omega_fixed = SAFETY * 2.0 / alpha_max
    with _phase(tracer, "solve"):
        reports = _solve(workload, scenario, seed, omega_fixed, omega_delayed)
    t_solve = perf_counter()

    with _phase(tracer, "reference"):
        reference = solvers.monolithic_reference(scenario)

    with _phase(tracer, "write"):
        errors = {tag: _rel_error(rep.final_u_gamma, reference)
                  for tag, rep in reports.items()}
        rows = _write(out_dir, scenario, reports, errors, certificates)
    t_end = perf_counter()

    # Everything below is outside the end-to-end times and, in a traced
    # pass, unrecorded, so the per-layer split describes one pipeline.
    with _quiet(tracer):
        # async-concurrent threads race, so its counts do not repeat.
        t = perf_counter()
        concurrent = async_engine.run_async_concurrent(
            scenario, CONCURRENT_SHARE * 2.0 / alpha_max, tol=TOL,
            rank_count=RANK_COUNT)
        concurrent_s = perf_counter() - t
        result = _check(workload, scenario, reports, concurrent, reference,
                        certificates, errors)

        # A phase of 0.1 s measured once per pass is mostly noise; repeat
        # the short phases so each is sampled for MIN_PHASE_S per pass.
        times = {"setup_s": [t_setup - t_start],
                 "certify_s": [t_certify - t_setup],
                 "solve_s": [t_solve - t_certify],
                 "pipeline_s": [t_end - t_start],
                 "async_concurrent_s": [concurrent_s]}
        rho = {d: c.rho_max for d, c in certificates.items()}
        repeats = _top_up(
            times["certify_s"],
            lambda: {d: c.rho_max for d, c in _certify(
                workload, scenario, seed, *spectral.generalized_alphas(
                    scenario))[1].items()},
            rho, "certificate", result.failures)
        result.attempted += repeats * len(workload.delays)
        iterations = {tag: rep.iterations for tag, rep in reports.items()}
        repeats = _top_up(
            times["solve_s"],
            lambda: {tag: rep.iterations for tag, rep in _solve(
                workload, scenario, seed, omega_fixed,
                omega_delayed).items()},
            iterations, "solve", result.failures)
        result.attempted += repeats * len(reports)
        # Rebuild only after dropping this pass's scenario, so that peak
        # memory stays that of one scenario.
        size = (result.stats["gamma_dofs"], result.stats["coupled_dofs"])
        del scenario, reports, reference, concurrent
        _top_up(times["setup_s"], lambda: _size(workload.build()), size,
                "setup", result.failures)
    result.times = times
    result.stats["rows_written"] = rows
    return result


def _size(scenario) -> tuple[int, int]:
    return scenario.gamma_dim, cli.coupled_dof_count(scenario)


def _check(workload, scenario, reports, concurrent, reference,
           certificates, errors) -> PassResult:
    failures = []
    every = dict(reports, **{"async-concurrent": concurrent})
    errors = dict(errors, **{"async-concurrent": _rel_error(
        concurrent.final_u_gamma, reference)})
    for tag, rep in every.items():
        if not rep.converged:
            failures.append(f"{tag}: did not converge in "
                            f"{rep.iterations} iterations")
        elif not errors[tag] <= ERR_LIMIT:
            failures.append(f"{tag}: relative error {errors[tag]:.3e} "
                            f"against the reference exceeds {ERR_LIMIT}")
    if reports["sync-concurrent"].iterations != \
            reports["sync-fixed"].iterations:
        failures.append("sync-concurrent: "
                        f"{reports['sync-concurrent'].iterations} iterations,"
                        f" sync-fixed {reports['sync-fixed'].iterations}")
    for d, cert in certificates.items():
        if not cert.passed:
            failures.append(f"certificate D={d}: rho_max {cert.rho_max!r} "
                            ">= 1")

    stats = {
        "gamma_dofs": scenario.gamma_dim,
        "coupled_dofs": cli.coupled_dof_count(scenario),
        "iterations_fixed": reports["sync-fixed"].iterations,
        "iterations_aitken": reports["sync-aitken"].iterations,
        "sync_concurrent_iterations": reports["sync-concurrent"].iterations,
        "trials": sum(c.trials for c in certificates.values()),
        "rho_max": max(c.rho_max for c in certificates.values()),
    }
    patches = len(scenario.patch_ids)
    steps = solves = 0
    ratios = []
    for d in workload.delays:
        rep = reports[f"async-sim-D{d}"]
        stats[f"sim_iterations_D{d}"] = rep.iterations
        steps += rep.total_global_solves
        solves += sum(rep.patch_solves.values())
        # The simulator stops on a residual that may mix stale reactions;
        # recompute it from fresh ones at the final trace.
        fresh = np.linalg.norm(solvers.compute_residual(
            scenario, rep.final_u_gamma))
        ratios.append(fresh / solvers.stop_threshold(
            scenario, TOL, rep.history[0].residual_norm))
    stats["sim_iterations"] = sum(stats[f"sim_iterations_D{d}"]
                                  for d in workload.delays)
    stats["sim_fresh_share"] = solves / (steps * patches)
    stats["sim_fresh_residual_ratio"] = float(max(ratios))
    stats["async_concurrent_iterations"] = concurrent.iterations
    stats["async_concurrent_max_delay"] = max(
        (max(step.sigma.values(), default=0)
         for step in concurrent.trace.steps), default=0)
    stats["async_concurrent_solves_per_step"] = (
        sum(concurrent.patch_solves.values())
        / concurrent.total_global_solves)

    signature = (stats["gamma_dofs"], stats["coupled_dofs"],
                 tuple(rep.iterations for rep in reports.values()),
                 tuple(c.rho_max for c in certificates.values()))
    return PassResult(times={}, stats=stats, signature=signature,
                      attempted=operation_count(workload), failures=failures)


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class RunOutcome:
    untraced: list[PassResult]
    traced: list[PassResult]
    traced_ids: list[int]
    attempted: int
    failed: int
    messages: list[str]
    tracer: Tracer | None


def run_loop(workload, seed: int, seconds: float, traced: bool,
             scratch: Path) -> RunOutcome:
    """Back-to-back passes for ``seconds``.

    A pass starts only if it should end within ``seconds``, judged by the
    slowest pass of its kind so far, so a run lasts ``seconds`` and not up
    to one pass longer.  Untraced runs make at least one pass.  Traced runs
    alternate an untraced and a traced pass, at least one of each, so
    tracing overhead is the difference of two interleaved medians.  The
    loop stops at the first failed pass.
    """
    tracer = Tracer() if traced else None
    outcome = RunOutcome([], [], [], 0, 0, [], tracer)
    signature = None
    slowest = {False: 0.0, True: 0.0}
    t0 = perf_counter()
    index = 0
    while True:
        trace_this = traced and index % 2 == 1
        minimum_done = outcome.untraced and (outcome.traced or not traced)
        if minimum_done and \
                perf_counter() - t0 + slowest[trace_this] > seconds:
            break
        t_pass = perf_counter()
        out_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
        try:
            if trace_this:
                tracer.pass_id = index + 1
                with tracer.installed():
                    result = run_pass(workload, seed, out_dir, tracer)
            else:
                result = run_pass(workload, seed, out_dir, None)
        except Exception as err:  # a failed operation ends the run
            outcome.attempted += operation_count(workload)
            outcome.failed += operation_count(workload)
            outcome.messages.append(f"pass {index}: "
                                    f"{type(err).__name__}: {err}")
            break
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        slowest[trace_this] = max(slowest[trace_this],
                                  perf_counter() - t_pass)
        if signature is not None and result.signature != signature:
            result.failures.append(
                f"pass {index} does not repeat pass 0: {result.signature} "
                f"!= {signature}")
        signature = signature or result.signature
        outcome.attempted += result.attempted
        if trace_this:
            outcome.traced.append(result)
            outcome.traced_ids.append(tracer.pass_id)
        else:
            outcome.untraced.append(result)
        if result.failures:
            outcome.failed += len(result.failures)
            outcome.messages.extend(f"pass {index}: {m}"
                                    for m in result.failures)
            break
        index += 1
    return outcome


# ---------------------------------------------------------------------------
# metrics


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of a non-empty sample."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _median(values) -> float:
    return statistics.median(list(values))


TIMED = ("setup_s", "certify_s", "solve_s", "pipeline_s")
END_TO_END = TIMED + ("peak_rss_mb",)
RATIOS = {"async_engine.sim_fresh_share",
          "async_engine.sim_fresh_residual_ratio",
          "async_engine.async_concurrent_solves_per_step", "spectral.rho_max"}


def unit_of(name: str) -> str:
    """Unit of a metric, read from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", "_s_q1", "_s_q3")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name in RATIOS else "count"


def samples(passes: list[PassResult], name: str) -> list[float]:
    """Every sample of one timed phase over the passes."""
    return [t for p in passes for t in p.times[name]]


def end_to_end(passes: list[PassResult], peak_rss_mb: float) -> dict:
    """Median per timed phase over all its samples, plus peak memory."""
    out = {name: _median(samples(passes, name)) for name in TIMED}
    out["peak_rss_mb"] = peak_rss_mb
    return out


def _layer_metrics(totals, stats) -> dict[str, float]:
    def total(name):
        return totals[name].total_s if name in totals else 0.0

    def calls(name):
        return totals[name].calls if name in totals else 0

    def sums(name, key):
        return totals[name].sums.get(key, 0) if name in totals else 0

    assemble_s = total("model_problems.assemble")
    elements = sums("model_problems.assemble", "elements")
    condense = totals.get("condensation.condense")
    companion = totals.get("spectral.build_companion")
    return {
        "model_problems.assemble_s": assemble_s,
        "model_problems.assemble_calls": calls("model_problems.assemble"),
        "model_problems.elements": elements,
        "model_problems.elements_per_s":
            elements / assemble_s if assemble_s else 0.0,
        "model_problems.mesh_s": total("model_problems.mesh"),
        "condensation.condense_s": total("condensation.condense"),
        "condensation.condense_calls": calls("condensation.condense"),
        "condensation.interior_dofs_max":
            condense.maxima.get("interior_dofs", 0) if condense else 0,
        "condensation.dense_mb":
            sums("condensation.condense", "dense_bytes") / MB,
        "condensation.dtn_calls": calls("condensation.dirichlet_to_neumann"),
        "condensation.dtn_s": total("condensation.dirichlet_to_neumann"),
        "coupling.build_transfer_s": total("coupling.build_transfer"),
        "coupling.transfer_candidates":
            sums("coupling.build_transfer", "candidates"),
        "coupling.build_scenario_self_s":
            totals["coupling.build_scenario"].self_s,
        "coupling.embedded_fine_schur_s":
            total("coupling.embedded_fine_schur"),
        "coupling.embedded_mb":
            sums("coupling.embedded_fine_schur", "embedded_bytes") / MB,
        "coupling.interface_reaction_calls":
            calls("coupling.interface_reaction"),
        "coupling.interface_reaction_s": total("coupling.interface_reaction"),
        "coupling.solve_interface_calls": calls("coupling.solve_interface"),
        "coupling.solve_interface_s": total("coupling.solve_interface"),
        "coupling.gamma_dofs": stats["gamma_dofs"],
        "coupling.coupled_dofs": stats["coupled_dofs"],
        "scenarios.self_s": totals["scenarios.generator"].self_s,
        "solvers.richardson_s": total("solvers.richardson_sync"),
        "solvers.iterations_fixed": stats["iterations_fixed"],
        "solvers.iterations_aitken": stats["iterations_aitken"],
        "solvers.compute_residual_s": total("solvers.compute_residual"),
        "solvers.reference_s": total("solvers.monolithic_reference"),
        "async_engine.simulated_s": total("async_engine.run_async_simulated"),
        "async_engine.sim_iterations": stats["sim_iterations"],
        "async_engine.sim_fresh_share": stats["sim_fresh_share"],
        "async_engine.sim_fresh_residual_ratio":
            stats["sim_fresh_residual_ratio"],
        "async_engine.sync_concurrent_s":
            total("async_engine.run_sync_concurrent"),
        "async_engine.sync_concurrent_iterations":
            stats["sync_concurrent_iterations"],
        "spectral.alphas_s": total("spectral.generalized_alphas"),
        "spectral.certify_s": total("spectral.certify_paracontraction"),
        "spectral.build_companion_s": total("spectral.build_companion"),
        "spectral.spectral_radius_s": total("spectral.spectral_radius"),
        "spectral.trials": stats["trials"],
        "spectral.companion_dim_max":
            companion.maxima.get("companion_dim", 0) if companion else 0,
        "spectral.rho_max": stats["rho_max"],
        "cli.write_s": total("cli.write"),
        "cli.rows_written": stats["rows_written"],
    }


def per_layer(outcome: RunOutcome) -> dict[str, float]:
    """Medians over the traced passes of every per-layer metric.

    The async-concurrent numbers come from the untraced passes: its
    threads race each other, and wrapping the global rank's calls would
    change the race being measured.
    """
    per_pass = [_layer_metrics(layer_totals(outcome.tracer.spans, i), p.stats)
                for i, p in zip(outcome.traced_ids, outcome.traced)]
    out = {key: _median(m[key] for m in per_pass) for key in per_pass[0]}
    q1, med, q3 = quartiles(samples(outcome.untraced, "async_concurrent_s"))
    out["async_engine.async_concurrent_s"] = med
    out["async_engine.async_concurrent_s_q1"] = q1
    out["async_engine.async_concurrent_s_q3"] = q3
    for key in ("async_concurrent_iterations", "async_concurrent_max_delay",
                "async_concurrent_solves_per_step"):
        out[f"async_engine.{key}"] = _median(p.stats[key]
                                             for p in outcome.untraced)
    out["trace.overhead_s"] = (
        _median(samples(outcome.traced, "pipeline_s"))
        - _median(samples(outcome.untraced, "pipeline_s")))
    return out

