"""The benchmark's workloads: which scenario, which delay bounds, how many
certificate trials.

Each workload exercises a different layer of the same pipeline, so a change
to one layer has a workload where it should show and one where it should
not.  The seed reaches the program only through the async-sim delay
schedule and the certificate's partition draw, made by the harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import glocal.scenarios as scenarios


def _grid3d_imbalanced():
    # The refinement draw stays that of seed 0: a fresh draw per seed moves
    # the element count by about 25 % and the async-sim step count by about
    # 15 %, more than any regression bound.  The seed still drives the
    # async-sim schedule and the certificate's partitions.
    return scenarios.imbalanced_grid("thermal", seed=0)


def _patch2d_condense():
    return scenarios.two_patch_2d("thermal", nx=40, refine=8)


def _elastic2d_delay_sweep():
    return scenarios.two_patch_2d("elasticity", contrast=100.0)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], object]      # -> CouplingScenario
    delays: tuple[int, ...]          # async-sim and certificate bounds D
    trials: int                      # certificate partitions per D


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("grid3d-imbalanced", _grid3d_imbalanced, delays=(2,), trials=20),
    Workload("patch2d-condense", _patch2d_condense, delays=(2,), trials=50),
    Workload("elastic2d-delay-sweep", _elastic2d_delay_sweep,
             delays=(1, 2, 4), trials=100),
)}
