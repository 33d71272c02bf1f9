"""Iteration drivers checked against an exactly solvable rod.

For a 1D rod with elementwise-constant coefficient the nodal finite
element solution coincides with the continuum solution, so the coupled
interface values can be integrated by hand:

    u(x) = integral_0^x (L - t) / a(t) dt,   L = 8, a = 2 on the zones.

That gives u = 14, 19, 22.5, 24.5 at the interface nodes x = 2, 4, 5, 7.
"""

from dataclasses import replace

import numpy as np
import pytest

from glocal import (
    DelaySchedule,
    DivergenceError,
    Material,
    MeshModel,
    StagnationError,
    aitken_update,
    compute_residual,
    monolithic_reference,
    richardson_sync,
    run_async_concurrent,
    run_async_simulated,
    run_sync_concurrent,
    solve_direct,
    stop_threshold,
)

CHAIN_INTERFACE = np.array([14.0, 19.0, 22.5, 24.5])


def glued_rod():
    """The chain fixture's coupled problem meshed directly as one rod."""
    breaks = np.concatenate([
        [0.0, 1.0],
        np.arange(2.0, 4.0, 0.5),
        [4.0],
        np.arange(5.0, 7.0, 0.5),
        [7.0, 8.0],
    ])
    coeff = np.where((breaks[:-1] >= 2.0) & (breaks[:-1] < 4.0)
                     | (breaks[:-1] >= 5.0) & (breaks[:-1] < 7.0),
                     2.0, 1.0)
    mesh = MeshModel(1, breaks.reshape(-1, 1),
                     np.column_stack([np.arange(len(breaks) - 1),
                                      np.arange(1, len(breaks))]),
                     Material(kind="thermal", coeff=coeff), {0: 0.0})
    from glocal import assemble_poisson
    return mesh, solve_direct(assemble_poisson(mesh, source=1.0))[:, 0]


def value_at(mesh, values, x):
    hit = np.nonzero(np.isclose(mesh.nodes[:, 0], x, atol=1e-9))[0]
    assert hit.size == 1
    return values[hit[0]]


def test_chain_interface_values_frozen(chain):
    ref = monolithic_reference(chain)
    assert np.allclose(ref.u_gamma, CHAIN_INTERFACE, atol=1e-10)


def test_reference_matches_glued_rod_everywhere(chain):
    ref = monolithic_reference(chain)
    mesh, glued = glued_rod()
    for sid, field in ref.fields.items():
        part = (chain.complement.model if sid == 0
                else chain.patches[sid].fine_part)
        for node, x in enumerate(part.nodes[:, 0]):
            assert np.isclose(field[node, 0], value_at(mesh, glued, x),
                              atol=1e-10)


def test_residual_vanishes_at_the_reference(two_patch_thermal,
                                            two_patch_elastic,
                                            oracle_thermal, oracle_elastic):
    for scn, ref in ((two_patch_thermal, oracle_thermal),
                     (two_patch_elastic, oracle_elastic)):
        r = compute_residual(scn, ref.u_gamma)
        assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(scn.rhs_global)


def test_richardson_converges_to_the_reference(chain):
    report = richardson_sync(chain, omega=0.9, tol=1e-10)
    assert report.converged
    assert np.allclose(report.final_u_gamma, CHAIN_INTERFACE, atol=1e-8)
    assert report.final_relative_residual <= 1e-10
    norms = [rec.residual_norm for rec in report.history]
    assert norms[-1] <= 1e-10 * norms[0]
    assert [rec.index for rec in report.history] == \
        list(range(len(report.history)))
    assert report.total_global_solves == len(report.history)
    assert all(report.patch_solves[sid] == report.total_global_solves
               for sid in chain.patch_ids)


def test_aitken_beats_fixed_relaxation(two_patch_thermal):
    fixed = richardson_sync(two_patch_thermal, omega=1.0, tol=1e-8)
    aitken = richardson_sync(two_patch_thermal, relaxation="aitken", tol=1e-8)
    assert fixed.converged and aitken.converged
    assert aitken.iterations < fixed.iterations
    assert aitken.variant == "sync-aitken"
    assert fixed.variant == "sync-fixed"


def test_divergence_is_caught_with_history(two_patch_thermal):
    with pytest.raises(DivergenceError) as excinfo:
        richardson_sync(two_patch_thermal, omega=5.0, tol=1e-8)
    history = excinfo.value.history
    assert len(history) > 1
    assert history[-1].residual_norm > 1e6 * history[0].residual_norm
    # A non-finite residual is reported at once, not after max_iter steps.
    broken = replace(two_patch_thermal,
                     rhs_global=np.full(two_patch_thermal.gamma_dim, np.nan))
    with pytest.raises(DivergenceError):
        richardson_sync(broken, omega=1.0, tol=1e-8)


def test_identical_fine_model_converges_immediately(fine_eq_thermal,
                                                    fine_eq_elastic):
    for scn in (fine_eq_thermal, fine_eq_elastic):
        report = richardson_sync(scn, omega=1.0, tol=1e-8)
        assert report.converged
        assert report.iterations == 0
        r0 = report.history[0].residual_norm
        assert r0 <= 1e-12 * np.linalg.norm(scn.rhs_global)


def test_stop_threshold_has_an_absolute_floor(chain):
    rhs = float(np.linalg.norm(chain.rhs_global))
    assert stop_threshold(chain, 1e-8, 1.0) == 1e-8
    assert stop_threshold(chain, 1e-8, 0.0) == 1e-13 * rhs
    assert stop_threshold(chain, 1e-8, 1e-3) == pytest.approx(
        max(1e-11, 1e-13 * rhs))


# ---------------------------------------------------------------------------
# Aitken update


def test_aitken_recovers_scalar_contraction():
    # r = (1 - c) r_prev under relaxation omega implies the optimal
    # relaxation is omega / c.
    v = np.array([1.0, -2.0, 0.5])
    new = aitken_update(0.7, (1.0 - 0.35) * v, v)
    assert np.isclose(new, 2.0, atol=1e-13)


def test_aitken_clamps_and_degenerate_cases():
    v = np.array([1.0, 2.0])
    assert aitken_update(1.0, (1.0 - 1e-9) * v, v) == 10.0
    assert aitken_update(1.0, (1.0 - (-0.5)) * v, v) == 1e-6
    assert aitken_update(0.3, np.zeros(2), v) == 0.3
    with pytest.raises(StagnationError):
        aitken_update(1.0, v, v)


def test_driver_argument_validation(chain):
    schedule = DelaySchedule.all_zero(chain.patch_ids, has_complement=True)
    drivers = {
        "sync-fixed": lambda **kw: richardson_sync(chain, **kw),
        "sync-aitken": lambda **kw: richardson_sync(
            chain, relaxation="aitken", **kw),
        "async-sim": lambda omega=0.5, **kw: run_async_simulated(
            chain, omega, schedule, **kw),
        "async-concurrent": lambda omega=0.5, **kw: run_async_concurrent(
            chain, omega, **kw),
        "sync-concurrent": lambda **kw: run_sync_concurrent(chain, **kw),
    }
    bad_args = [{"omega": value}
                for value in (0.0, -1.0, np.nan, np.inf, -np.inf)]
    bad_args += [{"tol": value} for value in (0.0, 1.0, 2.0, np.nan)]
    bad_args += [{"max_iter": -1}]
    for name, run in drivers.items():
        for kwargs in bad_args:
            with pytest.raises(ValueError):
                run(**kwargs)
                pytest.fail(f"{name} accepted {kwargs}")
    with pytest.raises(ValueError):
        richardson_sync(chain, relaxation="chebyshev")
    with pytest.raises(ValueError):
        run_sync_concurrent(chain, relaxation="chebyshev")
    with pytest.raises(ValueError):
        chain.solve_interface(np.zeros(chain.gamma_dim + 1))
