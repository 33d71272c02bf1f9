"""Config parsing, size caps, CSV outputs and the console entry point."""

import csv
import re
from dataclasses import replace

import numpy as np
import pytest

from glocal import (ConfigError, DelaySchedule, cli, coupling,
                    generalized_alphas, monolithic_reference,
                    relaxation_bounds, run_async_simulated)
from glocal.cli import (
    RunConfig,
    build_case,
    load_config,
    main,
    resolve_contrast,
    resolve_omega,
    run_case,
    run_suite,
    write_trace,
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
    assert resolve_contrast(cfg) == 1000.0
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
    coeff = scn.subdomains[1].mesh.material.coeff
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


@pytest.mark.parametrize("section, key, value, rule", [
    ("solver", "omega", "nan", "finite and positive"),
    ("solver", "omega", "inf", "finite and positive"),
    ("solver", "omega", "-inf", "finite and positive"),
    ("solver", "omega", "0", "finite and positive"),
    ("scenario", "contrast", "nan", "finite and positive"),
    ("scenario", "contrast", "inf", "finite and positive"),
    ("scenario", "contrast", "0", "finite and positive"),
    ("scenario", "contrast", "-2", "finite and positive"),
    ("scenario", "seed", "-1", "at least 0"),
    ("solver", "schedule_seed", "-1", "at least 0"),
])
def test_out_of_range_values_are_rejected_by_name(tmp_path, section, key,
                                                  value, rule):
    path = write_config(tmp_path / "c.ini", f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"{key} must be {rule}"):
        load_config(path)


@pytest.mark.parametrize("geometry, keys, rules", [
    ("imbalanced-grid", "size = 99\nrefine = 7\n",
     ["size is not used by imbalanced-grid",
      "refine is used by imbalanced-grid only with balanced = true"]),
    ("imbalanced-grid", "balanced = false\nrefine = 3\n",
     ["refine is used by imbalanced-grid only with balanced = true"]),
    ("cube-grid-3d", "size = 1\n", ["size must be at least 2"]),
    ("two-patch-2d", "seed = 5\nbalanced = true\n",
     ["seed is used only by imbalanced-grid",
      "balanced is used only by imbalanced-grid"]),
    ("cube-grid-3d", "seed = 0\n", ["seed is used only by imbalanced-grid"]),
    ("cube-grid-3d", "balanced = false\n",
     ["balanced is used only by imbalanced-grid"]),
    ("two-patch-2d", "size = 3\n", ["size must be at least 4"]),
])
def test_keys_the_geometry_cannot_use_are_rejected_by_name(
        tmp_path, geometry, keys, rules):
    path = write_config(tmp_path / "c.ini",
                        f"[scenario]\ngeometry = {geometry}\n{keys}")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    for rule in rules:
        assert rule in str(excinfo.value)


def test_balanced_imbalanced_grid_takes_refine(tmp_path):
    cfg = load_config(write_config(tmp_path / "c.ini", """
[scenario]
geometry = imbalanced-grid
balanced = true
refine = 3
"""))
    assert cfg.balanced and cfg.refine == 3


def test_missing_file_is_an_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")


# ---------------------------------------------------------------------------
# size caps


def test_caps_reject_before_building():
    with pytest.raises(ConfigError):
        build_case(RunConfig(geometry="cube-grid-3d", size=4))
    with pytest.raises(ConfigError) as excinfo:
        build_case(RunConfig(geometry="cube-grid-3d", size=3, refine=8))
    assert "cap" in str(excinfo.value)
    count = re.search(r"has (\d+) coupled unknowns", str(excinfo.value))
    assert int(count.group(1)) > 50_000


def test_oversized_config_is_rejected_before_assembly(monkeypatch):
    # Its zones reach the domain edge; the count comes from the meshes.
    def refuse(*args, **kwargs):
        raise AssertionError("assembled a case over the cap")

    monkeypatch.setattr(coupling, "assemble", refuse)
    with pytest.raises(ConfigError, match="over the 50000 cap"):
        build_case(RunConfig(geometry="two-patch-2d", size=4, refine=120))


class GeneratorReached(Exception):
    pass


@pytest.fixture
def generators_refuse(monkeypatch):
    def refuse(*args, **kwargs):
        raise GeneratorReached

    for name in ("two_patch_2d", "cube_grid_3d", "imbalanced_grid"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("cfg", [
    RunConfig(geometry="two-patch-2d", size=10**6, refine=1),
    RunConfig(geometry="two-patch-2d", size=16, refine=10**6),
    RunConfig(geometry="cube-grid-3d", size=10**6),
    RunConfig(geometry="cube-grid-3d", size=2, refine=10**6),
    RunConfig(geometry="imbalanced-grid", balanced=True, refine=10**6),
], ids=["2d-size", "2d-refine", "3d-size", "3d-refine", "balanced-refine"])
def test_huge_configs_are_rejected_before_meshing(generators_refuse, cfg):
    with pytest.raises(ConfigError, match="supports"):
        build_case(cfg)


@pytest.mark.parametrize("cfg", [
    RunConfig(geometry="two-patch-2d", size=315, refine=1),
    RunConfig(geometry="two-patch-2d", size=6, refine=159),
    RunConfig(geometry="cube-grid-3d", size=2, refine=9),
    RunConfig(geometry="imbalanced-grid", balanced=True, refine=7),
], ids=["2d-size-315", "2d-size-refine-954", "3d-refine-9",
        "balanced-refine-7"])
def test_largest_configs_under_the_cap_reach_the_generator(
        generators_refuse, cfg):
    with pytest.raises(GeneratorReached):
        build_case(cfg)


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
    # The complement is always fresh and the global rank solves once per
    # step, so neither has a column; residual and omega are in history.csv.
    assert chain.patch_ids == (1, 2)
    assert rows[0] == ["step", "sigma_1", "sigma_2", "solves_1", "solves_2"]
    body = [[int(v) for v in row] for row in rows[1:]]
    # One row per step, as in history.csv.
    assert len(body) == len(read_csv(tmp_path / "history.csv")) - 1
    assert [row[0] for row in body] == list(range(len(body)))
    # Ages within the bound, fresh at the warm-up step; every patch solves
    # at step 0 and its count never falls.
    assert body[0][1:] == [0, 0, 1, 1]
    assert all(0 <= age <= 1 for row in body for age in row[1:3])
    for prev, row in zip(body, body[1:]):
        assert all(a <= b for a, b in zip(prev[3:], row[3:]))


def csv_writer_trace(path, scenario, report):
    """Oracle for write_trace: every row rendered by csv.writer."""
    ids = scenario.patch_ids
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", *(f"sigma_{sid}" for sid in ids),
                         *(f"solves_{sid}" for sid in ids)])
        for step in report.trace.steps:
            writer.writerow([step.index, *(step.sigma.get(sid, 0)
                                           for sid in ids),
                             *(step.solves.get(sid, 0) for sid in ids)])


def test_trace_bytes_match_csv_writer(tmp_path, two_patch_thermal):
    scn = two_patch_thermal
    schedule = DelaySchedule.random_bounded(
        scn.patch_ids, 2, seed=4, has_complement=scn.complement is not None)
    report = run_async_simulated(scn, 0.3, schedule, max_iter=60)
    assert len(report.trace.steps) > 1
    write_trace(tmp_path / "trace.csv", scn, report)
    csv_writer_trace(tmp_path / "oracle.csv", scn, report)
    assert (tmp_path / "trace.csv").read_bytes() == \
        (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("variant", ["async-sim", "async-concurrent"])
def test_a_written_trace_replays_to_its_history(tmp_path, two_patch_thermal,
                                                variant):
    # The sigma columns, as a schedule table, walk the simulator through
    # the residuals history.csv holds, bit for bit.
    scn = two_patch_thermal
    _, alpha_max = generalized_alphas(scn)
    cfg = RunConfig(variant=variant, omega=0.35 / alpha_max, max_delay=2)
    assert run_case(cfg, scenario=scn, out_dir=tmp_path).converged
    trace = read_csv(tmp_path / "trace.csv")
    sigma = [i for i, name in enumerate(trace[0]) if name.startswith("sigma_")]
    assert [trace[0][i] for i in sigma] == \
        [f"sigma_{sid}" for sid in scn.patch_ids]
    table = [[int(row[i]) for i in sigma] for row in trace[1:]]
    schedule = DelaySchedule.from_table(
        scn.patch_ids, 2, table, has_complement=scn.complement is not None)
    replay = run_async_simulated(scn, cfg.omega, schedule, tol=cfg.tol)
    assert replay.converged
    assert [repr(r) for r in replay.history.residual_norm] == \
        [row[1] for row in read_csv(tmp_path / "history.csv")[1:]]


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


@pytest.mark.parametrize("command", ["solve", "certify"])
@pytest.mark.parametrize("content", [
    b"[scenario]\nsize = 8\nsize = 9\n",           # a repeated key
    b"size = 8\n",                                  # no section header
    b"[scenario]\nproblem = therm\xe9l\n",          # not UTF-8
])
def test_main_reports_malformed_config_files(tmp_path, capsys, command,
                                             content):
    config = tmp_path / "bad.ini"
    config.write_bytes(content)
    with pytest.raises(ConfigError, match="bad.ini"):
        load_config(config)
    assert main([command, str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config") and str(config) in err
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("flags", [
    ["--omega", "nan"], ["--omega", "inf"], ["--omega", "0"],
    ["--omega", "-1"], ["--trials", "0"], ["-D", "-1"], ["--seed", "-1"],
])
def test_main_certify_rejects_bad_flags(tmp_path, capsys, flags):
    config = write_config(tmp_path / "case.ini", f"""
[scenario]
geometry = two-patch-2d
size = 8

[output]
directory = {tmp_path / "out"}
""")
    assert main(["certify", str(config), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert flags[0] in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("max_delay", [0, 1])
def test_certify_default_omega_is_the_delayed_run_policy(tmp_path, capsys,
                                                         max_delay):
    out = tmp_path / "out"
    config = write_config(tmp_path / "case.ini", f"""
[scenario]
geometry = two-patch-2d
size = 8

[solver]
variant = sync-aitken
omega = 0.3

[output]
directory = {out}
""")
    assert main(["certify", str(config), "--trials", "2",
                 "-D", str(max_delay)]) == 0
    cfg = load_config(config)
    delayed = replace(cfg, variant="async-sim", omega="auto",
                      max_delay=max_delay)
    expected = resolve_omega(delayed, build_case(cfg))
    rows = read_csv(out / "certificate.csv")
    assert {float(row[2]) for row in rows[1:]} == {expected}
    assert f"omega={expected!r}" in capsys.readouterr().out


def test_suite_name_validation(tmp_path, capsys):
    # A repeated size would run twice into the same output directories.
    for sizes in ([5], [0], [1], [2, 5], [2, 2], [3, 2, 3]):
        with pytest.raises(ConfigError):
            run_suite("weak-scaling", sizes=sizes, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()
    out = tmp_path / "cli"
    assert main(["suite", "weak-scaling", "--sizes", "2", "2",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "distinct" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        run_suite("everything", out_dir=tmp_path)


def test_empty_weak_scaling_sizes_are_rejected(tmp_path, monkeypatch):
    # An empty list is not "no sizes given": it must not run the defaults.
    monkeypatch.setattr(cli, "_run_variants", lambda *args: pytest.fail(
        "a case ran"))
    with pytest.raises(ConfigError, match="one or more"):
        run_suite("weak-scaling", sizes=[], out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_sizes_outside_weak_scaling_are_rejected(tmp_path, capsys):
    for name in ("paper-2d", "imbalance"):
        out = tmp_path / name
        assert main(["suite", name, "--sizes", "2", "--out", str(out)]) == 2
        assert not out.exists()
        assert "weak-scaling" in capsys.readouterr().err


# Each suite's (case, variant) rows in order; weak-scaling runs sizes 3, 2.
SUITE_ORDER = {
    "paper-2d": [(f"two-patch-2d-{problem}", variant)
                 for problem in ("thermal", "elasticity")
                 for variant in ("sync-fixed", "sync-aitken", "async-sim",
                                 "async-concurrent")],
    "weak-scaling": [(f"cube-grid-3d-thermal-n{n}", variant) for n in (3, 2)
                     for variant in ("sync-aitken", "async-sim")],
    "imbalance": [(f"grid-3d-thermal-{tag}", variant)
                  for tag in ("balanced-r2", "imbalanced-s0")
                  for variant in ("sync-aitken", "async-concurrent")],
}


@pytest.mark.parametrize("name", SUITE_ORDER)
def test_suites_build_and_reference_each_case_once(tmp_path, monkeypatch,
                                                   name):
    built, referenced = [], []

    def counted_build(cfg):
        built.append(build_case(cfg))
        return built[-1]

    def counted_reference(scenario):
        referenced.append(scenario)
        return monolithic_reference(scenario)

    monkeypatch.setattr(cli, "build_case", counted_build)
    monkeypatch.setattr(cli, "monolithic_reference", counted_reference)
    sizes = [3, 2] if name == "weak-scaling" else None
    summaries = run_suite(name, sizes=sizes, out_dir=tmp_path)
    cases = list(dict.fromkeys(case for case, _ in SUITE_ORDER[name]))
    assert [scn.name for scn in built] == cases
    assert list(map(id, referenced)) == list(map(id, built))
    assert [(s.case, s.variant) for s in summaries] == SUITE_ORDER[name]
    assert [tuple(row[:2]) for row in read_csv(tmp_path / "summary.csv")[1:]] \
        == SUITE_ORDER[name]


def test_suite_variants_write_what_fresh_single_runs_write(tmp_path):
    # Variants sharing one scenario and one reference write the bytes each
    # writes alone on a fresh build, apart from the wall-clock column.
    run_suite("paper-2d", out_dir=tmp_path / "suite")
    for variant, omega in (("sync-fixed", 1.0), ("sync-aitken", "auto"),
                           ("async-sim", "auto")):
        alone = tmp_path / variant
        run_case(RunConfig(variant=variant, omega=omega), out_dir=alone)
        shared = tmp_path / "suite" / f"thermal-{variant}"
        for name, wall in (("history.csv", 3), ("summary.csv", 5)):
            rows = [read_csv(d / name) for d in (shared, alone)]
            for table in rows:
                for row in table:
                    del row[wall]
            assert rows[0] == rows[1]
        traces = [d / "trace.csv" for d in (shared, alone)]
        assert [t.exists() for t in traces] == [variant == "async-sim"] * 2
        if variant == "async-sim":
            assert traces[0].read_bytes() == traces[1].read_bytes()


def test_paper_2d_suite_end_to_end(tmp_path):
    summaries = run_suite("paper-2d", out_dir=tmp_path)
    assert len(summaries) == 8
    assert all(s.converged for s in summaries)
    assert len(read_csv(tmp_path / "summary.csv")) == 9


def test_weak_scaling_suite_end_to_end(tmp_path):
    # One size runs sync-aitken and async-sim on the n=2 cube grid.
    summaries = run_suite("weak-scaling", sizes=[2], out_dir=tmp_path)
    assert len(summaries) == 2
    assert all(s.converged for s in summaries)
    assert len(read_csv(tmp_path / "summary.csv")) == 3


def trace_max_age(path):
    rows = read_csv(path)
    sigma = [i for i, name in enumerate(rows[0]) if name.startswith("sigma_")]
    return max(int(row[i]) for row in rows[1:] for i in sigma)


def test_imbalance_suite_end_to_end(tmp_path):
    # Balanced and imbalanced grids, each with sync-aitken and
    # async-concurrent.  The concurrent rows run at the default delay
    # bound of 2, where their auto relaxation 0.5/alpha_max lies above
    # the switching-age bound 2/(5 alpha_max): these runs converge, but
    # no bound proves that they must.
    summaries = run_suite("imbalance", out_dir=tmp_path)
    assert len(summaries) == 4
    assert len(read_csv(tmp_path / "summary.csv")) == 5
    assert sorted(s.variant for s in summaries) == \
        ["async-concurrent"] * 2 + ["sync-aitken"] * 2
    assert all(s.converged for s in summaries)
    for tag in ("balanced", "imbalanced"):
        assert trace_max_age(tmp_path / f"{tag}-async-concurrent"
                             / "trace.csv") <= 2


def test_concurrent_run_keeps_the_configured_delay_bound(tmp_path,
                                                         imbalanced_thermal):
    cfg = RunConfig(geometry="imbalanced-grid", variant="async-concurrent",
                    max_delay=1)
    assert run_case(cfg, scenario=imbalanced_thermal,
                    out_dir=tmp_path).converged
    assert trace_max_age(tmp_path / "trace.csv") <= 1


def test_zero_delay_concurrent_run_writes_its_trace(tmp_path, chain):
    cfg = RunConfig(variant="async-concurrent", omega=0.4, max_delay=0)
    assert run_case(cfg, scenario=chain, out_dir=tmp_path).converged
    assert trace_max_age(tmp_path / "trace.csv") == 0
