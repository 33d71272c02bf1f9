"""Command line front end: configured runs, named suites, certificates.

Configs are INI files with three sections::

    [scenario]
    problem  = thermal            ; or elasticity
    geometry = two-patch-2d       ; or cube-grid-3d, imbalanced-grid
    size     = 16                 ; base grid width (2d, >= 4, default 16)
                                  ; / cubes per side (3d, 2..3, default
                                  ; 2); not for imbalanced-grid
    refine   = 2                  ; imbalanced-grid: only when balanced
    contrast = 10.0               ; default 10 thermal, 100 elasticity,
                                  ; 1000 imbalanced-grid
    seed     = 0                  ; imbalanced-grid only: refinement draw
    balanced = false              ; imbalanced-grid only: uniform twin

    [solver]
    variant       = sync-aitken   ; sync-fixed, async-sim, async-concurrent,
                                  ; sync-concurrent
    omega         = auto          ; or a finite positive float
    tol           = 1e-8
    max_iter      = 10000
    max_delay     = 2             ; staleness bound of async-sim and
                                  ; async-concurrent
    schedule_seed = 0             ; async-sim schedule draw
    update_prob   = 0.5           ; async-sim per-step refresh probability
    rank_count    = auto          ; concurrent executors: threads incl. global

    [output]
    directory = .

Unknown sections or keys, and keys the geometry ignores, are rejected by
name.  Cases are capped at ``coupling.MAX_COUPLED_DOFS`` coupled unknowns:
O(1) bounds on ``size`` and ``refine`` reject configs whose meshes alone
would be far too large, and ``build_scenario`` checks the exact count
from the wired meshes before it assembles anything.

``omega = auto`` resolves from the certified bounds: 0.9 of the
synchronous limit for the fixed sweep, 0.9 of the delayed sufficient
bound for the simulator (also the default of ``glocal certify``), and a
quarter of the synchronous limit for the concurrent executor: below the
fixed-age-row bound omega_D for D <= 2, but above the switching-age bound
2/((2D+1) alpha_max) from the default D = 2, so that run has no proof.

Every run writes ``history.csv`` (one row per global step) and
``summary.csv``; the asynchronous variants add ``trace.csv``, one row per
step with each patch's age and solves so far.  One ``csv.writer`` writes
every file, each float as its repr; wall-clock columns are the only
non-reproducible content for the deterministic variants.  A
suite builds each of its cases and solves its monolithic reference once;
every variant of the case runs on that pair.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .async_engine import (DelaySchedule, run_async_concurrent,
                           run_async_simulated, run_sync_concurrent)
from .coupling import CouplingScenario
from .errors import ConfigError, GlocalError
from .scenarios import cube_grid_3d, imbalanced_grid, two_patch_2d
from .solvers import (SolveReport, _check_omega, monolithic_reference,
                      richardson_sync)
from .spectral import (certify_paracontraction, generalized_alphas,
                       relaxation_bounds)

__all__ = ["RunConfig", "RunSummary", "load_config", "build_case",
           "coupled_dof_count", "resolve_contrast", "resolve_omega",
           "run_case", "run_suite",
           "write_history", "write_trace", "write_summary",
           "write_certificate", "main"]

GEOMETRIES = ("two-patch-2d", "cube-grid-3d", "imbalanced-grid")
VARIANTS = ("sync-fixed", "sync-aitken", "async-sim", "async-concurrent",
            "sync-concurrent")
SUITES = ("paper-2d", "weak-scaling", "imbalance")
# O(1) bounds that keep an oversized config from allocating any mesh;
# each admits every config under coupling.MAX_COUPLED_DOFS (50k).
MAX_CUBE_SIDE = 3
# size·(size//2 + 1) free global nodes, each a coupled unknown or refined
# into more: 315·158 <= 50k < 316·159.
MAX_SIZE_2D = 315
# Size 6 has the smallest default zones, one cell each: 2·(refine - 1)²
# interior fine nodes pass 50k after refine 159.
MAX_SIZE_REFINE_2D = 6 * 159
# Two cubes a side, the smallest grid: 8·(2·refine - 1)³ interior fine
# nodes pass 50k after refine 9.
MAX_REFINE_3D = 9


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of one config file (paths already resolved)."""

    problem: str = "thermal"
    geometry: str = "two-patch-2d"
    size: int | None = None
    refine: int = 2
    contrast: float | None = None
    seed: int = 0
    balanced: bool = False
    variant: str = "sync-aitken"
    omega: float | str = "auto"
    tol: float = 1e-8
    max_iter: int = 10000
    max_delay: int = 2
    schedule_seed: int = 0
    update_prob: float = 0.5
    rank_count: int | None = None
    out_dir: Path = Path(".")

    def __post_init__(self):  # the imbalanced grid takes no size
        if self.size is None:
            sizes = {"two-patch-2d": 16, "cube-grid-3d": 2}
            object.__setattr__(self, "size", sizes.get(self.geometry))


@dataclass(frozen=True)
class RunSummary:
    """One summary.csv row."""

    case: str
    variant: str
    iterations: int
    loc_solves_min: int
    loc_solves_max: int
    wall_seconds: float
    rel_residual: float
    err_vs_oracle: float
    converged: bool


SUMMARY_COLUMNS = tuple(f.name for f in fields(RunSummary))


# ---------------------------------------------------------------------------
# config parsing


def _parse_omega(text: str) -> float | str:
    if text.strip().lower() == "auto":
        return "auto"
    return _check_omega(float(text))


def _parse_rank_count(text: str) -> int | None:
    if text.strip().lower() == "auto":
        return None
    value = int(text)
    if value < 2:
        raise ValueError("rank_count must be at least 2")
    return value


def _parse_bool(text: str) -> bool:
    try:  # 1/0, true/false, yes/no and on/off, as configparser reads them
        return ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


_SCHEMA = {
    "scenario": {"problem": str.strip, "geometry": str.strip, "size": int,
                 "refine": int, "contrast": float, "seed": int,
                 "balanced": _parse_bool},
    "solver": {"variant": str.strip, "omega": _parse_omega, "tol": float,
               "max_iter": int, "max_delay": int, "schedule_seed": int,
               "update_prob": float, "rank_count": _parse_rank_count},
    "output": {"directory": str.strip},
}


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate an INI config; every problem is reported by name."""
    path = Path(path)
    parser = ConfigParser(interpolation=None)
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
    except (ConfigParserError, UnicodeDecodeError) as err:
        raise ConfigError(f"invalid config {path}: "
                          f"{str(err).splitlines()[0]}") from None

    problems: list[str] = []
    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            problems.append(f"unknown section [{section}]")
            continue
        for key, raw in parser[section].items():
            conv = _SCHEMA[section].get(key)
            if conv is None:
                problems.append(f"unknown key {key!r} in [{section}]")
                continue
            try:
                values[key] = conv(raw)
            except ValueError as err:
                problems.append(f"bad value for {key!r} in [{section}]: "
                                f"{err}")

    geometry = values.get("geometry", "two-patch-2d")
    if geometry not in GEOMETRIES:
        problems.append(f"geometry must be one of {GEOMETRIES}, got "
                        f"{geometry!r}")
    elif geometry == "imbalanced-grid":
        if "size" in values:
            problems.append("size is not used by imbalanced-grid (a fixed "
                            "4x2x2 grid)")
        if "refine" in values and not values.get("balanced", False):
            problems.append("refine is used by imbalanced-grid only with "
                            "balanced = true")
    else:
        problems += [f"{key} is used only by imbalanced-grid"
                     for key in ("seed", "balanced") if key in values]

    variant = values.get("variant", "sync-aitken")
    if variant not in VARIANTS:
        problems.append(f"variant must be one of {VARIANTS}, got "
                        f"{variant!r}")
    problem = values.get("problem", "thermal")
    if problem not in ("thermal", "elasticity"):
        problems.append("problem must be 'thermal' or 'elasticity', got "
                        f"{problem!r}")

    # One cube has no interface to couple; below width 4 the default 2D
    # zones do not fit the grid.
    size_min = {"cube-grid-3d": 2, "two-patch-2d": 4}.get(geometry, 1)
    for key, lo in (("size", size_min), ("refine", 1), ("max_iter", 0),
                    ("max_delay", 0), ("seed", 0), ("schedule_seed", 0)):
        if key in values and values[key] < lo:
            problems.append(f"{key} must be at least {lo}")
    if "contrast" in values and not (math.isfinite(values["contrast"])
                                     and values["contrast"] > 0):
        problems.append("contrast must be finite and positive")
    if "tol" in values and not 0 < values["tol"] < 1:
        problems.append("tol must lie in (0, 1)")
    if "update_prob" in values and not 0 < values["update_prob"] <= 1:
        problems.append("update_prob must lie in (0, 1]")

    if problems:
        raise ConfigError(f"invalid config {path}:\n  "
                          + "\n  ".join(problems))

    return RunConfig(out_dir=Path(values.pop("directory", ".")), **values)


# ---------------------------------------------------------------------------
# building and running one case


def coupled_dof_count(scenario: CouplingScenario) -> int:
    """Interface unknowns plus every subdomain's interior unknowns."""
    interior = sum(len(sub.interior_dofs)
                   for sub in scenario.subdomains.values())
    return scenario.gamma_dim + interior


def resolve_contrast(cfg: RunConfig) -> float:
    """Inclusion coefficient ratio when the config leaves it unset.

    Soft inclusions are 10x weaker for thermal runs and 100x weaker for
    elasticity; the imbalanced grid uses 1000x stiffer ones instead.
    """
    if cfg.contrast is not None:
        return cfg.contrast
    if cfg.geometry == "imbalanced-grid":
        return 1000.0
    return 100.0 if cfg.problem == "elasticity" else 10.0


def build_case(cfg: RunConfig) -> CouplingScenario:
    """Instantiate the configured scenario, enforcing the size caps (see
    the module docstring): the O(1) bounds first, then ``build_scenario``'s
    exact count."""
    if cfg.geometry == "two-patch-2d":
        bounds = [("size", cfg.size, MAX_SIZE_2D),
                  ("size*refine", cfg.size * cfg.refine, MAX_SIZE_REFINE_2D)]
    elif cfg.geometry == "cube-grid-3d":
        bounds = [("size", cfg.size, MAX_CUBE_SIDE),
                  ("refine", cfg.refine, MAX_REFINE_3D)]
    elif cfg.balanced:  # the imbalanced grid draws its own refinements
        bounds = [("refine", cfg.refine, MAX_REFINE_3D)]
    else:
        bounds = []
    for name, value, bound in bounds:
        if value > bound:
            raise ConfigError(f"{cfg.geometry} supports {name} up to "
                              f"{bound}, got {value}")

    contrast = resolve_contrast(cfg)
    if cfg.geometry == "two-patch-2d":
        return two_patch_2d(cfg.problem, nx=cfg.size, refine=cfg.refine,
                            contrast=contrast)
    if cfg.geometry == "cube-grid-3d":
        return cube_grid_3d(cfg.size, cfg.problem, refine=cfg.refine,
                            contrast=contrast)
    uniform = cfg.refine if cfg.balanced else None
    return imbalanced_grid(cfg.problem, contrast=contrast, seed=cfg.seed,
                           uniform_refine=uniform)


def resolve_omega(cfg: RunConfig, scenario: CouplingScenario) -> float:
    """Turn ``omega = auto`` into a number using the spectral bounds."""
    if cfg.omega != "auto":
        return float(cfg.omega)
    if cfg.variant == "sync-aitken":
        return 1.0
    alpha_min, alpha_max = generalized_alphas(scenario)
    if cfg.variant == "async-sim":
        bounds = relaxation_bounds(alpha_min, alpha_max, cfg.max_delay)
        return 0.9 * (bounds.omega_async_factor or bounds.omega_sync)
    # 0.9 of sync; async-concurrent a quarter, unproved for switching ages.
    share = 0.25 if cfg.variant == "async-concurrent" else 0.9
    return share * (2.0 / alpha_max)


def _dispatch(cfg: RunConfig, scenario: CouplingScenario,
              omega: float) -> SolveReport:
    if cfg.variant == "sync-fixed":
        return richardson_sync(scenario, omega, tol=cfg.tol,
                               max_iter=cfg.max_iter)
    if cfg.variant == "sync-aitken":
        return richardson_sync(scenario, tol=cfg.tol, max_iter=cfg.max_iter,
                               relaxation="aitken")
    if cfg.variant == "async-sim":
        # At max_delay = 0 ages wrap at 1, so every one of them is zero.
        schedule = DelaySchedule.random_bounded(
            scenario.patch_ids, cfg.max_delay, cfg.schedule_seed,
            cfg.update_prob, has_complement=scenario.complement is not None)
        return run_async_simulated(scenario, omega, schedule, tol=cfg.tol,
                                   max_iter=cfg.max_iter)
    if cfg.variant == "async-concurrent":
        return run_async_concurrent(scenario, omega, tol=cfg.tol,
                                    max_iter=cfg.max_iter,
                                    rank_count=cfg.rank_count,
                                    max_delay=cfg.max_delay)
    return run_sync_concurrent(scenario, omega, tol=cfg.tol,
                               max_iter=cfg.max_iter,
                               rank_count=cfg.rank_count)


def run_case(cfg: RunConfig, *, scenario: CouplingScenario | None = None,
             out_dir: Path | None = None) -> RunSummary:
    """Run one configured case, write its CSVs, return the summary row.

    The monolithic reference is always solved alongside so every run
    reports its true distance to the coupled solution, not only the
    residual it happened to stop at.
    """
    return _run_variants(cfg, scenario, [(cfg.variant, cfg.omega,
                                          out_dir or cfg.out_dir)])[0]


def _run_variants(base: RunConfig, scenario: CouplingScenario | None,
                  runs) -> list[RunSummary]:
    """Build the case unless given, solve its reference once, and run each
    (variant, omega, out_dir) of ``runs`` on that pair."""
    if scenario is None:
        scenario = build_case(base)
    reference = monolithic_reference(scenario).u_gamma
    summaries = []
    for variant, omega, out_dir in runs:
        cfg = replace(base, variant=variant, omega=omega)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = _dispatch(cfg, scenario, resolve_omega(cfg, scenario))
        err = (np.linalg.norm(report.final_u_gamma - reference)
               / np.linalg.norm(reference))
        solves = list(report.patch_solves.values()) or [0]
        summary = RunSummary(
            scenario.name, report.variant, report.iterations, min(solves),
            max(solves), report.history[-1].wall_time,
            report.final_relative_residual, float(err), report.converged)
        write_history(out_dir / "history.csv", report)
        if report.trace is not None:
            write_trace(out_dir / "trace.csv", scenario, report)
        write_summary(out_dir / "summary.csv", [summary])
        summaries.append(summary)
    return summaries


# ---------------------------------------------------------------------------
# CSV writers


def _write_rows(path: Path, header, rows):
    """The one CSV writer: raw values, each float written as its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_history(path: Path, report: SolveReport):
    h = report.history
    _write_rows(path, ["iteration", "residual_norm", "omega", "wall_seconds"],
                zip(range(len(h)), h.residual_norm, h.omega, h.wall_time))


def write_trace(path: Path, scenario: CouplingScenario, report: SolveReport):
    """One row per step: the age of every patch reaction in its residual,
    then every patch's solves so far, both over ``patch_ids``."""
    history, ids = report.history, scenario.patch_ids
    _write_rows(path, ["step", *(f"sigma_{sid}" for sid in ids),
                       *(f"solves_{sid}" for sid in ids)],
                np.column_stack([np.arange(len(history)), history.sigma,
                                 history.solves]).tolist())


def write_summary(path: Path, summaries: list[RunSummary]):
    _write_rows(path, SUMMARY_COLUMNS, map(astuple, summaries))


def write_certificate(path: Path, report) -> None:
    _write_rows(path, ["trial", "max_delay", "omega", "rho", "pass"],
                ((trial, report.max_delay, report.omega, rho, rho < 1.0)
                 for trial, rho in enumerate(report.rhos)))


# ---------------------------------------------------------------------------
# suites


def _suite_cases(name: str, sizes: list[int]) -> list[tuple]:
    """The cases of a suite: output tag, base config, (variant, omega)."""
    if name == "paper-2d":
        pairs = (("sync-fixed", 1.0), ("sync-aitken", "auto"),
                 ("async-sim", "auto"), ("async-concurrent", "auto"))
        return [(problem, RunConfig(problem=problem), pairs)
                for problem in ("thermal", "elasticity")]
    if name == "weak-scaling":
        pairs = (("sync-aitken", "auto"), ("async-sim", "auto"))
        return [(f"n{n}", RunConfig(geometry="cube-grid-3d", size=n), pairs)
                for n in sizes]
    pairs = (("sync-aitken", "auto"), ("async-concurrent", "auto"))
    return [(tag, RunConfig(geometry="imbalanced-grid", balanced=balanced),
             pairs) for tag, balanced in (("balanced", True),
                                          ("imbalanced", False))]


def run_suite(name: str, sizes: list[int] | None = None,
              out_dir: Path | None = None) -> list[RunSummary]:
    """Run a named batch of cases and write a combined summary.csv."""
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; pick from {SUITES}")
    if sizes is not None and name != "weak-scaling":
        raise ConfigError(f"sizes apply to the weak-scaling suite only, "
                          f"not {name}")
    if name == "weak-scaling":
        sizes = [2, 3] if sizes is None else sizes
        if not sizes or len(set(sizes)) != len(sizes) or not all(
                2 <= n <= MAX_CUBE_SIDE for n in sizes):
            raise ConfigError(f"weak-scaling takes one or more distinct "
                              f"sizes in [2, {MAX_CUBE_SIDE}], got {sizes}")
    out_dir = Path(out_dir) if out_dir is not None else Path(f"suite-{name}")
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries: list[RunSummary] = []
    for tag, base, pairs in _suite_cases(name, sizes):
        summaries += _run_variants(base, None, [
            (variant, omega, out_dir / f"{tag}-{variant}")
            for variant, omega in pairs])
    write_summary(out_dir / "summary.csv", summaries)
    return summaries


# ---------------------------------------------------------------------------
# entry point


def _print_summaries(summaries: list[RunSummary]) -> int:
    """One ``key=value`` line per summary row; 0 when every run converged."""
    for summary in summaries:
        print(", ".join(f"{k}={v}" for k, v in zip(SUMMARY_COLUMNS,
                                                   astuple(summary))))
    return 0 if all(s.converged for s in summaries) else 1


def _cmd_solve(args) -> int:
    return _print_summaries([run_case(load_config(args.config))])


def _cmd_suite(args) -> int:
    return _print_summaries(run_suite(args.name, sizes=args.sizes,
                                      out_dir=args.out))


def _cmd_certify(args) -> int:
    if args.omega is not None and not (math.isfinite(args.omega)
                                       and args.omega > 0):
        raise ConfigError(f"--omega must be finite and positive, got "
                          f"{args.omega!r}")
    if args.max_delay is not None and args.max_delay < 0:
        raise ConfigError(f"-D/--max-delay must be non-negative, got "
                          f"{args.max_delay}")
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    cfg = load_config(args.config)
    scenario = build_case(cfg)
    max_delay = cfg.max_delay if args.max_delay is None else args.max_delay
    omega = resolve_omega(replace(
        cfg, variant="async-sim", max_delay=max_delay,
        omega="auto" if args.omega is None else args.omega), scenario)
    report = certify_paracontraction(scenario, omega, max_delay,
                                     trials=args.trials, seed=args.seed)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_certificate(cfg.out_dir / "certificate.csv", report)
    verdict = "PASSED" if report.passed else "FAILED"
    print(f"certificate {verdict}: omega={omega!r}, max_delay={max_delay}, "
          f"trials={report.trials}, rho_max={report.rho_max!r}")
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="glocal",
        description="Iterative global/local coupling runs and certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one configured case")
    p_solve.add_argument("config", type=Path, help="INI config file")
    p_solve.set_defaults(func=_cmd_solve)

    p_suite = sub.add_parser("suite", help="run a named batch of cases")
    p_suite.add_argument("name", choices=SUITES)
    p_suite.add_argument("--sizes", type=int, nargs="+", default=None,
                         help="weak-scaling cube counts per side")
    p_suite.add_argument("--out", type=Path, default=None,
                         help="output directory (default suite-<name>)")
    p_suite.set_defaults(func=_cmd_suite)

    p_cert = sub.add_parser("certify",
                            help="sample age rows and check contraction")
    p_cert.add_argument("config", type=Path, help="INI config file")
    p_cert.add_argument("--omega", type=float, default=None,
                        help="relaxation to certify (default: 0.9x the "
                             "delayed bound)")
    p_cert.add_argument("-D", "--max-delay", dest="max_delay", type=int,
                        default=None, help="staleness bound to certify at")
    p_cert.add_argument("--trials", type=int, default=100)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.set_defaults(func=_cmd_certify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GlocalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
