"""Benchmark of the glocal pipeline: set-up, certificate, solves, reference
and CSV output, run back to back by one client in one process.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload grid3d-imbalanced --seed 0 \\
        --seconds 44 --trace 0

``--trace 0`` reports the end-to-end metrics (medians over the passes) and
``--trace 1`` the per-layer split, from passes that alternate between
untraced and traced.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every operation
passed its checks.  The package is imported from ``src/`` of the same
checkout; scratch output goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0,
                        help="keep starting passes until this many seconds "
                             "have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (not a git checkout)"
    if proc.returncode != 0:
        return "unknown (not a git checkout)"
    return proc.stdout.strip()


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _print_row(name, value, unit, extra=""):
    print(f"  {name:46s} {value:14.6g} {unit:6s} {extra}")


def main(argv=None) -> int:
    # BLAS reads its thread count when numpy loads it.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import glocal
    except ImportError as err:
        print(f"perfbench: cannot import glocal from {src}: {err}",
              file=sys.stderr)
        return 2
    if Path(glocal.__file__).resolve().parent.parent != src:
        print(f"perfbench: glocal was imported from {glocal.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    import harness
    import spans
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]
    originals = spans.snapshot()
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    run_dir = scratch / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()

    outcome = harness.run_loop(workload, args.seed, args.seconds,
                               bool(args.trace), run_dir)
    leftover = spans.untouched(originals)
    if leftover:
        outcome.failed += 1
        outcome.messages.append("wrapped names left after the run: "
                                + ", ".join(leftover))
    rss = peak_rss_mb()

    print(f"workload {workload.name}, seed {args.seed}, D={workload.delays}, "
          f"{workload.trials} certificate trials per D")
    print("machine " + json.dumps(machine(), sort_keys=True))
    print(f"operations: {outcome.attempted} attempted, "
          f"{outcome.failed} failed")
    for message in outcome.messages:
        print(f"  FAILED {message}")
    correct = outcome.failed == 0
    if correct and args.trace == 0:
        passes = outcome.untraced
        values = harness.end_to_end(passes, rss)
        print(f"end to end over {len(passes)} passes, median of the samples:")
        for name in harness.END_TO_END:
            sample = harness.samples(passes, name) if name in \
                passes[0].times else [values[name]]
            q1, _, q3 = harness.quartiles(sample)
            _print_row(name, values[name], harness.unit_of(name),
                       f"[q1 {q1:.6g}, q3 {q3:.6g}, n={len(sample)}]")
    elif correct:
        values = harness.per_layer(outcome)
        print(f"per layer, median over {len(outcome.traced)} traced passes "
              f"(async-concurrent over {len(outcome.untraced)} untraced):")
        for name, value in values.items():
            _print_row(name, value, harness.unit_of(name))
        for d in workload.delays:
            key = f"sim_iterations_D{d}"
            print(f"  async-sim D={d}: "
                  f"{outcome.traced[-1].stats[key]} iterations")
    if args.trace:
        outcome.tracer.write(run_dir / "spans.csv")
        print(f"spans: {len(outcome.tracer.spans)} written to "
              f"{(run_dir / 'spans.csv').relative_to(ROOT)}")
    else:
        shutil.rmtree(run_dir)
    metrics = {name: {"value": value, "unit": harness.unit_of(name)}
               for name, value in values.items()} if correct else {}
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
