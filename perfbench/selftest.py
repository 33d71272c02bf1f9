"""Self-test of the benchmark.

Runs every workload of ``BENCHMARK.json`` once untraced and once traced, at
the default seed and with the correctness checks on, and fails unless

* each run exits 0 with ``correct`` true and no failed operation,
* each run reports exactly the declared metrics, with the declared units,
* the traced split keeps the set-up ordering measured when the benchmark
  was defined: element assembly is the largest set-up layer on
  grid3d-imbalanced and dense condensation the largest on patch2d-condense,
* the tracer's wrappers are visible to ``spans.untouched`` while installed
  and gone after.

Usage, from the root of the repository (about 90 s on 2 CPUs)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_LAYERS = ("model_problems.assemble_s", "model_problems.mesh_s",
                "condensation.condense_s", "coupling.build_transfer_s",
                "coupling.embedded_fine_schur_s",
                "coupling.build_scenario_self_s", "scenarios.self_s")
LARGEST_SETUP_LAYER = {"grid3d-imbalanced": "model_problems.assemble_s",
                       "patch2d-condense": "condensation.condense_s"}


def _run(workload: str, trace: int) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_workload(workload: str, declared: dict) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        tag = f"{workload} --trace {trace}"
        code, result, output = _run(workload, trace)
        if code != 0 or result is None:
            problems.append(f"{tag}: exit {code}\n{output}")
            continue
        if not result["correct"] or result["failed"] \
                or result["attempted"] < 1:
            problems.append(f"{tag}: correct={result['correct']}, "
                            f"{result['failed']} of {result['attempted']} "
                            "operations failed")
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(n for n in set(want) & set(got)
                           if want[n] != got[n])
            problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                            f"missing {missing}, extra {extra}, "
                            f"wrong unit {units}")
        if trace and workload in LARGEST_SETUP_LAYER and not problems:
            values = {n: result["metrics"][n]["value"] for n in SETUP_LAYERS}
            largest = max(values, key=values.get)
            if largest != LARGEST_SETUP_LAYER[workload]:
                problems.append(f"{tag}: largest set-up layer is {largest}, "
                                f"expected {LARGEST_SETUP_LAYER[workload]}: "
                                f"{values}")
    return problems


def check_wrappers() -> list[str]:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spans

    originals = spans.snapshot()
    problems = []
    with spans.Tracer().installed():
        wrapped = spans.untouched(originals)
    if len(wrapped) != len(spans.TARGETS):
        problems.append(f"only {len(wrapped)} of {len(spans.TARGETS)} "
                        "installed wrappers were detected")
    left = spans.untouched(originals)
    if left:
        problems.append(f"wrappers left after uninstalling: {left}")
    return problems


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    problems = check_wrappers()
    for workload in declared["workloads"]:
        problems += check_workload(workload["name"], declared)
        print(f"{workload['name']}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
