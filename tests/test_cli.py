"""Config parsing, size caps, CSV outputs and the console entry point."""

import csv

import numpy as np
import pytest

from glocal import ConfigError, generalized_alphas, relaxation_bounds
from glocal.cli import (
    RunConfig,
    build_case,
    coupled_dof_count,
    estimate_coupled_dofs,
    load_config,
    main,
    resolve_contrast,
    resolve_omega,
    run_case,
    run_suite,
)


def write_config(path, text):
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# config files


def test_defaults_from_empty_config(tmp_path):
    cfg = load_config(write_config(tmp_path / "c.ini", ""))
    assert cfg == RunConfig()


def test_full_round_trip(tmp_path):
    cfg = load_config(write_config(tmp_path / "c.ini", """
[scenario]
problem = elasticity
geometry = two-patch-2d
size = 8
refine = 3
contrast = 50.0

[solver]
variant = async-sim
omega = 0.25
tol = 1e-9
max_iter = 500
max_delay = 3
schedule_seed = 11
update_prob = 0.75
rank_count = 4

[output]
directory = results/run1
"""))
    assert cfg.problem == "elasticity"
    assert cfg.size == 8 and cfg.refine == 3 and cfg.contrast == 50.0
    assert cfg.variant == "async-sim" and cfg.omega == 0.25
    assert cfg.tol == 1e-9 and cfg.max_iter == 500 and cfg.max_delay == 3
    assert cfg.schedule_seed == 11 and cfg.update_prob == 0.75
    assert cfg.rank_count == 4
    assert str(cfg.out_dir) == "results/run1"


def test_geometry_defaults_applied(tmp_path):
    cfg = load_config(write_config(tmp_path / "c.ini", """
[scenario]
geometry = imbalanced-grid
"""))
    assert cfg.size == 4 and cfg.contrast == 1000.0
    cube = load_config(write_config(tmp_path / "d.ini", """
[scenario]
geometry = cube-grid-3d
"""))
    assert cube.size == 2 and cube.contrast is None


def test_contrast_defaults_follow_the_problem():
    assert resolve_contrast(RunConfig(problem="thermal")) == 10.0
    assert resolve_contrast(RunConfig(problem="elasticity")) == 100.0
    assert resolve_contrast(RunConfig(geometry="imbalanced-grid")) == 1000.0
    assert resolve_contrast(RunConfig(contrast=7.5)) == 7.5
    scn = build_case(RunConfig(geometry="two-patch-2d", size=8, refine=1,
                               problem="elasticity"))
    coeff = scn.patches[1].fine_part.material.coeff
    assert coeff.min() == pytest.approx(0.01)


def test_problems_are_aggregated_by_name(tmp_path):
    path = write_config(tmp_path / "c.ini", """
[scenario]
geometry = moebius-strip
size = -4

[solver]
variant = sor
omega = -1.0
colour = red

[visualisation]
backend = x11
""")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    message = str(excinfo.value)
    for fragment in ("geometry", "size", "variant", "omega", "colour",
                     "visualisation"):
        assert fragment in message


def test_missing_file_is_an_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")


# ---------------------------------------------------------------------------
# size caps


def test_estimate_matches_built_scenarios():
    cases = (RunConfig(geometry="two-patch-2d", size=8, refine=1),
             RunConfig(geometry="two-patch-2d", size=12, refine=3,
                       problem="elasticity"),
             RunConfig(geometry="cube-grid-3d", size=2, refine=1),
             RunConfig(geometry="imbalanced-grid", balanced=True, refine=1))
    for cfg in cases:
        assert estimate_coupled_dofs(cfg) == coupled_dof_count(
            build_case(cfg))


def test_caps_reject_before_building():
    with pytest.raises(ConfigError):
        build_case(RunConfig(geometry="cube-grid-3d", size=4))
    with pytest.raises(ConfigError) as excinfo:
        build_case(RunConfig(geometry="cube-grid-3d", size=3, refine=8))
    assert "cap" in str(excinfo.value)
    assert estimate_coupled_dofs(
        RunConfig(geometry="cube-grid-3d", size=3, refine=8)) > 50_000


# ---------------------------------------------------------------------------
# omega resolution


def test_resolve_omega_policy(chain):
    amin, amax = generalized_alphas(chain)
    sync = 2.0 / amax
    assert resolve_omega(RunConfig(omega=0.37), chain) == 0.37
    assert resolve_omega(RunConfig(variant="sync-aitken"), chain) == 1.0
    assert resolve_omega(RunConfig(variant="sync-fixed"), chain) == \
        pytest.approx(0.9 * sync)
    factor = relaxation_bounds(amin, amax, 2).omega_async_factor
    assert resolve_omega(RunConfig(variant="async-sim", max_delay=2),
                         chain) == pytest.approx(0.9 * factor)
    assert resolve_omega(RunConfig(variant="async-sim", max_delay=0),
                         chain) == pytest.approx(0.9 * sync)
    assert resolve_omega(RunConfig(variant="async-concurrent"),
                         chain) == pytest.approx(0.25 * sync)


# ---------------------------------------------------------------------------
# outputs


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def drop_wall(rows):
    header = rows[0]
    keep = [i for i, name in enumerate(header)
            if name not in ("wall_seconds",)]
    return [[row[i] for i in keep] for row in rows]


def test_run_case_outputs_are_reproducible(tmp_path, chain):
    cfg = RunConfig(variant="async-sim", omega=0.4, max_delay=2,
                    schedule_seed=1)
    first = run_case(cfg, scenario=chain, out_dir=tmp_path / "a")
    second = run_case(cfg, scenario=chain, out_dir=tmp_path / "b")
    assert first.converged and second.converged
    assert first.iterations == second.iterations
    assert drop_wall(read_csv(tmp_path / "a" / "history.csv")) == \
        drop_wall(read_csv(tmp_path / "b" / "history.csv"))
    # The trace carries no wall-clock content at all.
    assert (tmp_path / "a" / "trace.csv").read_bytes() == \
        (tmp_path / "b" / "trace.csv").read_bytes()
    assert drop_wall(read_csv(tmp_path / "a" / "summary.csv")) == \
        drop_wall(read_csv(tmp_path / "b" / "summary.csv"))


def test_trace_layout(tmp_path, chain):
    cfg = RunConfig(variant="async-sim", omega=0.4, max_delay=1)
    run_case(cfg, scenario=chain, out_dir=tmp_path)
    rows = read_csv(tmp_path / "trace.csv")
    assert rows[0] == ["step", "rank", "sigma_0", "sigma_1", "sigma_2",
                       "residual_norm", "omega", "solves_rank"]
    body = rows[1:]
    ranks = 1 + len(chain.patch_ids)
    assert len(body) % ranks == 0
    steps = len(body) // ranks
    for s in range(steps):
        chunk = body[s * ranks:(s + 1) * ranks]
        assert [row[0] for row in chunk] == [str(s)] * ranks
        assert [row[1] for row in chunk] == ["0", "1", "2"]
        # Ages are step data, identical on every rank row of the step.
        assert len({tuple(row[2:5]) for row in chunk}) == 1
    # Rank 0 performs one global solve per step.
    last_global = body[-ranks]
    assert last_global[7] == str(steps)


def test_history_and_summary_layout(tmp_path, chain):
    cfg = RunConfig(variant="sync-fixed", omega=0.9, tol=1e-10)
    summary = run_case(cfg, scenario=chain, out_dir=tmp_path)
    rows = read_csv(tmp_path / "history.csv")
    assert rows[0] == ["iteration", "residual_norm", "omega", "wall_seconds"]
    assert len(rows) - 1 == summary.iterations + 1
    assert float(rows[-1][1]) <= 1e-10 * float(rows[1][1])
    srows = read_csv(tmp_path / "summary.csv")
    assert srows[0] == ["case", "variant", "iterations", "loc_solves_min",
                        "loc_solves_max", "wall_seconds", "rel_residual",
                        "err_vs_oracle", "converged"]
    assert srows[1][0] == "chain-1d-thermal"
    assert srows[1][1] == "sync-fixed"
    assert srows[1][8] == "True"
    # Converged runs land well inside the tolerance against the oracle.
    assert summary.err_vs_oracle <= 10 * cfg.tol
    # Floats are written with repr, so parsing back is exact.
    assert int(srows[1][2]) == summary.iterations
    assert float(srows[1][5]) == summary.wall_seconds
    assert float(srows[1][6]) == summary.rel_residual
    assert float(srows[1][7]) == summary.err_vs_oracle
    # No trace for synchronous runs.
    assert not (tmp_path / "trace.csv").exists()


# ---------------------------------------------------------------------------
# console entry point


def test_main_solve_roundtrip(tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path / "case.ini", f"""
[scenario]
geometry = two-patch-2d
size = 8

[solver]
variant = sync-aitken

[output]
directory = {out}
""")
    assert main(["solve", str(config)]) == 0
    printed = capsys.readouterr().out
    assert "case=two-patch-2d-thermal" in printed
    assert "converged=True" in printed
    assert (out / "history.csv").exists()
    assert (out / "summary.csv").exists()


def test_main_reports_config_errors(tmp_path, capsys):
    config = write_config(tmp_path / "bad.ini", """
[scenario]
geometry = dodecahedron
""")
    assert main(["solve", str(config)]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_certify(tmp_path, capsys):
    out = tmp_path / "out"
    config = write_config(tmp_path / "case.ini", f"""
[scenario]
geometry = two-patch-2d
size = 8

[output]
directory = {out}
""")
    assert main(["certify", str(config), "--trials", "5", "-D", "1"]) == 0
    assert "certificate PASSED" in capsys.readouterr().out
    rows = read_csv(out / "certificate.csv")
    assert rows[0] == ["trial", "max_delay", "omega", "rho", "pass"]
    assert len(rows) == 6
    assert all(row[4] == "True" for row in rows[1:])


def test_suite_name_validation(tmp_path):
    with pytest.raises(ConfigError):
        run_suite("weak-scaling", sizes=[5], out_dir=tmp_path)
    with pytest.raises(ConfigError):
        run_suite("everything", out_dir=tmp_path)


def test_paper_2d_suite_end_to_end(tmp_path):
    summaries = run_suite("paper-2d", out_dir=tmp_path)
    assert len(summaries) == 8
    assert all(s.converged for s in summaries)
    assert len(read_csv(tmp_path / "summary.csv")) == 9
