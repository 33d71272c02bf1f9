"""End-to-end acceptance gate.

One test per numbered release criterion, so ``pytest -v`` prints one
pass/fail line each.  Every criterion carries a wall-clock budget that is
asserted alongside the numerical tolerance; the budgets are generous on
purpose (they guard against pathological slowdowns, not against noise).
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from glocal import (
    AssembledSystem,
    DelaySchedule,
    DivergenceError,
    certify_paracontraction,
    condense,
    cube_grid_3d,
    expand_interior,
    generalized_alphas,
    monolithic_reference,
    relaxation_bounds,
    richardson_sync,
    run_async_concurrent,
    run_async_simulated,
    run_sync_concurrent,
)


def rel_err(u, u_ref):
    return float(np.linalg.norm(u - u_ref) / np.linalg.norm(u_ref))


def bounded_schedule(scenario, max_delay, seed):
    return DelaySchedule.random_bounded(
        scenario.patch_ids, max_delay, seed, 0.5,
        has_complement=scenario.complement is not None)


def certified_omega(scenario, max_delay):
    alpha_min, alpha_max = generalized_alphas(scenario)
    bounds = relaxation_bounds(alpha_min, alpha_max, max_delay)
    factor = bounds.omega_async_factor
    return 0.9 * (bounds.omega_sync if factor is None else factor)


def test_criterion_01_every_variant_matches_the_oracle(
        two_patch_thermal, two_patch_elastic, oracle_thermal,
        oracle_elastic):
    for scn, oracle in ((two_patch_thermal, oracle_thermal),
                        (two_patch_elastic, oracle_elastic)):
        _, alpha_max = generalized_alphas(scn)
        runs = [lambda s=scn: richardson_sync(s, 1.0),
                lambda s=scn: richardson_sync(s, relaxation="aitken"),
                lambda s=scn: run_async_concurrent(
                    s, 0.25 * (2.0 / alpha_max))]
        for delay in (1, 2, 4):
            runs.append(lambda s=scn, d=delay: run_async_simulated(
                s, certified_omega(s, d), bounded_schedule(s, d, d)))
        for launch in runs:
            t0 = time.perf_counter()
            report = launch()
            assert report.converged, report.variant
            assert rel_err(report.final_u_gamma, oracle.u_gamma) <= 1e-6
            assert time.perf_counter() - t0 <= 30.0


def test_criterion_02_synchronous_relaxation_boundary(
        chain, two_patch_thermal, two_patch_elastic):
    t0 = time.perf_counter()
    for scn in (chain, two_patch_thermal, two_patch_elastic):
        _, alpha_max = generalized_alphas(scn)
        limit = 2.0 / alpha_max
        assert richardson_sync(scn, 0.9 * limit).converged
        with pytest.raises(DivergenceError):
            richardson_sync(scn, 1.1 * limit)
    assert time.perf_counter() - t0 <= 60.0


def test_criterion_03_certificate_holds_and_is_conservative(
        chain, two_patch_thermal, two_patch_elastic):
    t0 = time.perf_counter()
    for scn in (chain, two_patch_thermal, two_patch_elastic):
        for delay in (1, 2, 4):
            report = certify_paracontraction(
                scn, certified_omega(scn, delay), delay,
                trials=100, seed=delay)
            assert report.passed
            assert report.rho_max <= 1.0 - 1e-6

    # The sufficient factor is far below the omega that actually starts
    # losing contraction: bisect the empirical boundary on a fixed
    # partition sample and compare.
    scn = two_patch_thermal
    alpha_min, alpha_max = generalized_alphas(scn)
    factor = relaxation_bounds(alpha_min, alpha_max, 2).omega_async_factor

    def rho_max(omega):
        return certify_paracontraction(scn, omega, 2,
                                       trials=10, seed=3).rho_max

    lo, hi = factor, 2.0 * (2.0 / alpha_max)
    assert rho_max(lo) < 1.0
    assert rho_max(hi) >= 1.0
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if rho_max(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    assert lo >= 2.0 * factor
    assert time.perf_counter() - t0 <= 120.0


def test_criterion_04_zero_delay_reproduces_the_synchronous_sweep(
        chain, two_patch_thermal, two_patch_elastic, cube2_thermal):
    t0 = time.perf_counter()
    for scn in (chain, two_patch_thermal, two_patch_elastic, cube2_thermal):
        _, alpha_max = generalized_alphas(scn)
        omega = 0.9 * (2.0 / alpha_max)
        sync = richardson_sync(scn, omega)
        schedule = DelaySchedule.random_bounded(
            scn.patch_ids, 0, seed=0,
            has_complement=scn.complement is not None)
        sim = run_async_simulated(scn, omega, schedule)
        assert sim.iterations == sync.iterations
        for a, b in zip(sim.history, sync.history):
            assert abs(a.residual_norm - b.residual_norm) \
                <= 1e-14 * b.residual_norm
        assert rel_err(sim.final_u_gamma, sync.final_u_gamma) <= 1e-14
    assert time.perf_counter() - t0 <= 10.0


def test_criterion_05_aitken_beats_the_fixed_sweep(
        two_patch_thermal, two_patch_elastic):
    t0 = time.perf_counter()
    for scn in (two_patch_thermal, two_patch_elastic):
        fixed = richardson_sync(scn, 1.0)
        aitken = richardson_sync(scn, relaxation="aitken")
        assert aitken.converged and fixed.converged
        assert aitken.iterations <= 0.8 * fixed.iterations
    assert time.perf_counter() - t0 <= 30.0


def test_criterion_06_random_schedules_agree(
        two_patch_thermal, oracle_thermal):
    t0 = time.perf_counter()
    tol = 1e-8
    omega = certified_omega(two_patch_thermal, 2)
    finals = []
    for seed in range(10):
        report = run_async_simulated(
            two_patch_thermal, omega,
            bounded_schedule(two_patch_thermal, 2, seed), tol=tol)
        assert report.converged, seed
        finals.append(report.final_u_gamma)
    scale = np.linalg.norm(oracle_thermal.u_gamma)
    for u in finals:
        assert np.linalg.norm(u - oracle_thermal.u_gamma) <= 2 * tol * scale
        for v in finals:
            assert np.linalg.norm(u - v) <= 2 * tol * scale
    assert time.perf_counter() - t0 <= 60.0


def test_criterion_07_concurrent_agrees_with_simulated(
        two_patch_thermal):
    t0 = time.perf_counter()
    scn = two_patch_thermal
    _, alpha_max = generalized_alphas(scn)

    limit = run_async_simulated(scn, certified_omega(scn, 2),
                                bounded_schedule(scn, 2, 0), tol=1e-10)
    assert limit.converged
    for _ in range(10):
        report = run_async_concurrent(scn, 0.25 * (2.0 / alpha_max),
                                      tol=1e-8)
        assert report.converged
        assert report.final_relative_residual <= 1e-8
        assert rel_err(report.final_u_gamma, limit.final_u_gamma) <= 1e-6

    omega = 0.9 * (2.0 / alpha_max)
    sync = richardson_sync(scn, omega)
    conc = run_sync_concurrent(scn, omega)
    assert conc.iterations == sync.iterations
    for a, b in zip(conc.history, sync.history):
        assert abs(a.residual_norm - b.residual_norm) \
            <= 1e-14 * b.residual_norm
    assert rel_err(conc.final_u_gamma, sync.final_u_gamma) <= 1e-14
    assert time.perf_counter() - t0 <= 120.0


def test_criterion_08_weak_scaling_slice(cube2_thermal):
    t0 = time.perf_counter()
    cube3 = cube_grid_3d(3, "thermal")
    counts = []
    for scn in (cube2_thermal, cube3):
        report = richardson_sync(scn, relaxation="aitken")
        assert report.converged
        counts.append(report.iterations)
        sim = run_async_simulated(scn, certified_omega(scn, 1),
                                  bounded_schedule(scn, 1, 0))
        assert sim.converged
    for count in counts:
        assert 5 <= count <= 40, counts
    assert abs(counts[0] - counts[1]) <= 0.5 * min(counts), counts
    assert time.perf_counter() - t0 <= 300.0


def test_criterion_09_identical_fine_model_is_exact(
        fine_eq_thermal, fine_eq_elastic):
    t0 = time.perf_counter()
    for scn in (fine_eq_thermal, fine_eq_elastic):
        launches = (
            lambda s=scn: richardson_sync(s, 1.0),
            lambda s=scn: richardson_sync(s, relaxation="aitken"),
            lambda s=scn: run_async_simulated(s, 1.0,
                                              bounded_schedule(s, 2, 0)),
            lambda s=scn: run_async_concurrent(s, 0.5),
            lambda s=scn: run_sync_concurrent(s, 0.5),
        )
        floor = 1e-12 * np.linalg.norm(scn.rhs_global)
        for launch in launches:
            report = launch()
            assert report.converged
            assert report.iterations == 0, report.variant
            assert report.history[0].residual_norm <= floor
    assert time.perf_counter() - t0 <= 5.0


def test_criterion_10_condensation_equals_dense_solve():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(8, 51))
        a = rng.standard_normal((n, n))
        k = a @ a.T + n * np.eye(n)
        f = rng.standard_normal(n)
        system = AssembledSystem(stiffness=sp.csr_matrix(k), load=f,
                                 dof_map=np.arange(n).reshape(n, 1),
                                 fixed_values=np.zeros((n, 1)))
        iface = np.sort(rng.choice(n, size=int(rng.integers(1, n)),
                                   replace=False))
        op = condense(system, iface)
        trace = np.linalg.solve(op.schur, op.rhs)
        full = expand_interior(op, trace)
        direct = np.linalg.solve(k, f)
        assert rel_err(full, direct) <= 1e-10
    assert time.perf_counter() - t0 <= 10.0
