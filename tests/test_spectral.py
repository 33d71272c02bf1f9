"""Companion matrices, generalized spectra and relaxation bounds.

The 1D chain gives exact extreme generalized eigenvalues (1, 2): the
zones carry twice the conductivity, so their condensed fine operators
are exactly twice the global ones, while outside the zones fine equals
global.  Everything else is cross-checked against an independent
generalized-eigenvalue route and the scalar map 1 - omega * alpha.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg as sla

from glocal import (
    build_companion,
    certify_paracontraction,
    chain_1d,
    compute_residual,
    cube_grid_3d,
    generalized_alphas,
    generalized_spectrum,
    imbalanced_grid,
    relaxation_bounds,
    residual_offset,
    spectral_radius,
    two_patch_2d,
)
from glocal import spectral

from companion_oracle import (age_slots, characteristic_value,
                              scattered_schur, solvent_radius,
                              symmetrized_companion, verify_fixed_point)


def fresh_ages(scn):
    """The age row with every patch fresh."""
    return np.zeros(len(scn.patch_ids), dtype=int)


# ---------------------------------------------------------------------------
# bounds


def test_relaxation_bounds_frozen():
    b0 = relaxation_bounds(1.0, 1.0, 0)
    assert b0.omega_sync == 2.0
    assert b0.epsilon is None and b0.omega_async_factor is None
    b1 = relaxation_bounds(1.0, 1.0, 1)
    assert b1.epsilon == 0.5
    assert np.isclose(b1.omega_async_factor, 2.0 / 9.0, atol=1e-15)
    b2 = relaxation_bounds(1.0, 1.0, 2)
    # sin(pi/6) lands a hair under 0.5 in floating point.
    assert np.isclose(b2.epsilon, 0.5, rtol=1e-12)
    assert np.isclose(b2.omega_async_factor, 4.0 / 81.0, rtol=1e-12)
    b3 = relaxation_bounds(1.0, 1.0, 3)
    assert np.isclose(b3.epsilon, 0.3420201433256687, atol=1e-15)
    scaled = relaxation_bounds(0.5, 4.0, 0)
    assert scaled.omega_sync == 0.5


def test_relaxation_bounds_validation():
    with pytest.raises(ValueError):
        relaxation_bounds(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        relaxation_bounds(2.0, 1.0, 1)
    with pytest.raises(ValueError):
        relaxation_bounds(1.0, 1.0, -1)
    with pytest.raises(ValueError):
        relaxation_bounds(0.5, 1.0, 1.5)
    for alpha_min, alpha_max in ((1.0, float("inf")),
                                 (float("inf"), float("inf")),
                                 (1.0, float("nan"))):
        with pytest.raises(ValueError):
            relaxation_bounds(alpha_min, alpha_max, 1)
    assert relaxation_bounds(0.5, 1.0, np.int64(2)).max_delay == 2


# ---------------------------------------------------------------------------
# generalized spectrum


def test_chain_alphas_frozen(chain):
    alpha_min, alpha_max = generalized_alphas(chain)
    assert np.isclose(alpha_min, 1.0, atol=1e-10)
    assert np.isclose(alpha_max, 2.0, atol=1e-10)


def test_spectrum_matches_generalized_eig_oracle(two_patch_thermal):
    scn = two_patch_thermal
    spectrum = generalized_spectrum(scn)
    vals = sla.eig(scattered_schur(scn, scn.subdomain_ids),
                   scn.schur_global, right=False)
    assert np.abs(vals.imag).max() < 1e-10
    assert np.allclose(np.sort(vals.real), spectrum, atol=1e-8)
    assert spectrum[0] > 0
    amin, amax = generalized_alphas(scn)
    assert (amin, amax) == (spectrum[0], spectrum[-1])


# ---------------------------------------------------------------------------
# companion construction


def test_undelayed_companion_is_the_scalar_map(chain, two_patch_thermal):
    for scn in (chain, two_patch_thermal):
        spectrum = generalized_spectrum(scn)
        for omega in (0.3, 1.0, 1.7 / spectrum[-1]):
            system = build_companion(scn, fresh_ages(scn), omega, 0)
            assert np.isclose(spectral_radius(system),
                              np.abs(1.0 - omega * spectrum).max(),
                              atol=1e-9)


def test_synchronous_bound_is_sharp(two_patch_thermal):
    scn = two_patch_thermal
    _, amax = generalized_alphas(scn)
    below = build_companion(scn, fresh_ages(scn), 0.99 * 2 / amax, 0)
    above = build_companion(scn, fresh_ages(scn), 1.01 * 2 / amax, 0)
    assert spectral_radius(below) < 1.0
    assert spectral_radius(above) > 1.0


def test_companion_layout(chain):
    scn = chain
    n = scn.gamma_dim
    omega = 0.4
    ages = [0, 2]  # complement and patch 1 fresh, patch 2 at age 2
    system = build_companion(scn, ages, omega, 2)
    m = system.matrix
    assert m.shape == (3 * n, 3 * n)
    assert np.allclose(m[:n, :n], np.eye(n) - omega * system.blocks[0])
    for k in (1, 2):
        assert np.allclose(m[:n, k * n:(k + 1) * n],
                           -omega * system.blocks[k])
    assert np.allclose(m[n:2 * n, :n], np.eye(n))
    assert np.allclose(m[2 * n:, n:2 * n], np.eye(n))
    assert np.allclose(m[n:2 * n, n:], 0.0)
    assert np.allclose(m[2 * n:, 2 * n:], 0.0)
    assert np.allclose(m[2 * n:, :n], 0.0)
    # The ages repartition the same operator sum.
    total = build_companion(scn, fresh_ages(scn), omega, 0).blocks[0]
    assert np.allclose(sum(system.blocks), total, atol=1e-12)


def test_symmetrized_companion_keeps_the_spectrum(chain):
    omega = 0.05
    ages = [0, 1]
    plain = build_companion(chain, ages, omega, 1)
    symm = symmetrized_companion(chain, ages, omega, 1)
    for block in symm.blocks:
        assert np.allclose(block, block.T, atol=1e-10)
    ev_plain = np.sort_complex(np.linalg.eigvals(plain.matrix))
    ev_symm = np.sort_complex(np.linalg.eigvals(symm.matrix))
    assert np.allclose(ev_plain, ev_symm, atol=1e-8)


def test_fixed_point_self_check(chain):
    scn = chain
    shat = scattered_schur(scn, scn.subdomain_ids)
    p_hat = -scn.schur_global @ np.linalg.solve(shat, residual_offset(scn))
    # p_hat really is the coupled load: the residual vanishes there.
    r = compute_residual(scn, scn.solve_interface(p_hat))
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(scn.rhs_global)
    plain = build_companion(scn, [0, 1], 0.1, 1)
    verify_fixed_point(scn, plain, p_hat, symmetrized=False)
    symm = symmetrized_companion(scn, [0, 1], 0.1, 1)
    verify_fixed_point(scn, symm, p_hat, symmetrized=True)
    with pytest.raises(ValueError):
        verify_fixed_point(scn, plain, p_hat + 1.0, symmetrized=False)


def test_characteristic_value_vanishes_at_eigenvalues(chain):
    system = build_companion(chain, [0, 1], 0.2, 1)
    eigvals = np.linalg.eigvals(system.matrix)
    probe = abs(characteristic_value(system, 1.37 + 0.21j))
    assert probe > 0
    for lam in eigvals[:4]:
        assert abs(characteristic_value(system, lam)) <= 1e-8 * probe


def test_partition_validation(chain):
    # chain has two patches; an age row holds one age per patch.
    for ages in ([0], [0, 1, 0], [[0, 1]], 0,  # wrong length or shape
                 [0, -1], [0, 2], [0.5, 0], [0, np.nan], [0, np.inf],
                 [True, False], ["0", "1"]):
        with pytest.raises(ValueError, match="one integer in"):
            build_companion(chain, ages, 0.5, 1)
    assert build_companion(chain, [1.0, 0.0], 0.5, 1).blocks[1].any()
    for omega in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            build_companion(chain, [0, 0], omega, 0)
    with pytest.raises(ValueError):
        build_companion(chain, [0, 0], 0.5, -1)


# ---------------------------------------------------------------------------
# certificates


def test_certificate_passes_below_the_sufficient_bound(chain):
    amin, amax = generalized_alphas(chain)
    bounds = relaxation_bounds(amin, amax, 1)
    report = certify_paracontraction(chain, 0.9 * bounds.omega_async_factor,
                                     1, trials=20, seed=7)
    assert report.passed
    assert report.trials == 20 and len(report.rhos) == 20
    assert report.rho_max == max(report.rhos)
    assert report.rho_max < 1.0
    for ages in report.ages:
        assert len(ages) == len(chain.patch_ids)
        assert all(type(age) is int and 0 <= age <= 1 for age in ages)
    again = certify_paracontraction(chain, 0.9 * bounds.omega_async_factor,
                                    1, trials=20, seed=7)
    assert again.rhos == report.rhos


def test_certificate_fails_past_the_synchronous_bound(chain):
    report = certify_paracontraction(chain, 1.5, 0, trials=10)
    assert not report.passed
    assert report.trials == 1 and len(report.rhos) == 1
    assert report.rho_max > 1.0


def test_certificate_validation(chain):
    with pytest.raises(ValueError):
        certify_paracontraction(chain, 0.5, 0, trials=0)
    for trials in (2.5, True, 3.0):
        for max_delay in (0, 1):
            with pytest.raises(ValueError, match="trials must be an integer"):
                certify_paracontraction(chain, 0.1, max_delay, trials=trials)
    with pytest.raises(ValueError, match="max_delay"):
        certify_paracontraction(chain, 0.1, True)
    assert certify_paracontraction(chain, 0.1, 1,
                                   trials=np.int64(2)).trials == 2
    with pytest.raises(ValueError):
        certify_paracontraction(chain, 0.5, -1)
    for omega in (0.0, -0.5, np.nan, np.inf):
        for max_delay in (0, 2):
            with pytest.raises(ValueError, match="finite and positive"):
                certify_paracontraction(chain, omega, max_delay, trials=3)


def test_certificate_solves_each_partition_once(two_patch_thermal,
                                                monkeypatch):
    scn = two_patch_thermal
    built = []
    original = spectral.build_companion

    def counting(*args, **kwargs):
        built.append(tuple(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "build_companion", counting)
    report = certify_paracontraction(scn, 0.2, 2, trials=30, seed=5)
    monkeypatch.undo()
    assert len(built) == len(set(report.ages)) < report.trials
    assert set(built) == set(report.ages)
    for ages, rho in zip(report.ages, report.rhos):
        direct = build_companion(scn, ages, 0.2, 2)
        assert rho == spectral_radius(direct)


def test_certificates_share_one_interface_solve(monkeypatch):
    # A fresh scenario: the session fixtures may hold S_G^{-1} already.
    scn = two_patch_2d("thermal")
    calls = []
    original = sla.cho_solve

    def counting(*args, **kwargs):
        calls.append(args[1].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(sla, "cho_solve", counting)
    amin, amax = generalized_alphas(scn)
    first = certify_paracontraction(scn, 0.5 / amax, 2, trials=20, seed=1)
    second = certify_paracontraction(scn, 0.3 / amax, 4, trials=20, seed=2)
    assert len(set(first.ages)) > 1 and len(set(second.ages)) > 1
    assert len(calls) <= 1


def test_certificate_repeats_bit_for_bit(two_patch_elastic):
    amin, amax = generalized_alphas(two_patch_elastic)
    omega = 0.9 * relaxation_bounds(amin, amax, 4).omega_async_factor
    first = certify_paracontraction(two_patch_elastic, omega, 4,
                                    trials=100, seed=4)
    again = certify_paracontraction(two_patch_2d("elasticity"), omega, 4,
                                    trials=100, seed=4)
    assert again.rho_max == first.rho_max
    assert again.rhos == first.rhos


# ---------------------------------------------------------------------------
# reduced spectral radius


def age_partitions(scn, max_delay, rng):
    """All fresh, every patch at age D, and two random age rows."""
    yield fresh_ages(scn)
    yield np.full(len(scn.patch_ids), max_delay)
    for _ in range(2):
        yield rng.integers(0, max_delay + 1, len(scn.patch_ids))


@pytest.mark.parametrize("name", ["chain", "two_patch_thermal",
                                  "two_patch_elastic", "cube2_thermal"])
def test_reduced_radius_matches_the_full_companion(name, request):
    scn = request.getfixturevalue(name)
    _, amax = generalized_alphas(scn)
    omega = 0.5 / amax
    rng = np.random.default_rng(11)
    for max_delay in (1, 2, 4):
        for ages in age_partitions(scn, max_delay, rng):
            radii = []
            for build in (build_companion, symmetrized_companion):
                system = build(scn, ages, omega, max_delay)
                full = np.abs(np.linalg.eigvals(system.matrix)).max()
                radii.append(spectral_radius(system))
                assert abs(radii[-1] - full) <= 1e-12 * full
            assert abs(radii[1] - radii[0]) <= 1e-12 * radii[0]


# ---------------------------------------------------------------------------
# compact per-subdomain operators against the dense embedded path


def dense_embedded_sum(scn, sids):
    """The old path: one Gamma x Gamma embedding per subdomain, then added."""
    total = np.zeros((scn.gamma_dim, scn.gamma_dim))
    for sid in sids:
        amap = scn.subdomains[sid].amap
        full = np.zeros((scn.gamma_dim, scn.gamma_dim))
        full[np.ix_(amap, amap)] = scn.subdomains[sid].schur
        total += full
    return total


@pytest.mark.parametrize("name", ["chain", "two_patch_thermal",
                                  "two_patch_elastic", "cube2_thermal",
                                  "imbalanced_thermal"])
def test_compact_blocks_match_the_dense_embedded_path(name, request):
    scn = request.getfixturevalue(name)
    chol_l = np.linalg.cholesky(scn.schur_global)
    y = sla.solve_triangular(chol_l, dense_embedded_sum(scn,
                                                        scn.subdomain_ids),
                             lower=True)
    m = sla.solve_triangular(chol_l, y.T, lower=True).T
    dense = np.linalg.eigvalsh(0.5 * (m + m.T))
    amin, amax = generalized_alphas(scn)
    assert abs(amin - dense[0]) <= 1e-12 * abs(dense[0])
    assert abs(amax - dense[-1]) <= 1e-12 * abs(dense[-1])

    omega, max_delay = 0.5 / amax, 2
    report = certify_paracontraction(scn, omega, max_delay, trials=20,
                                     seed=2)
    n = scn.gamma_dim
    for ages, rho in zip(report.ages, report.rhos):
        blocks = tuple(sla.cho_solve(scn._sg_chol,
                                     dense_embedded_sum(scn, slot))
                       for slot in age_slots(scn, ages, max_delay))
        matrix = np.zeros(((max_delay + 1) * n, (max_delay + 1) * n))
        matrix[:n, :n] = np.eye(n)
        for k, x in enumerate(blocks):
            matrix[:n, k * n:(k + 1) * n] -= omega * x
        matrix[n:, :-n] = np.eye(max_delay * n)
        system = spectral.CompanionSystem(omega, blocks)
        assert np.array_equal(system.matrix, matrix)
        dense_rho = spectral_radius(system)
        assert abs(rho - dense_rho) <= 1e-12 * dense_rho


# ---------------------------------------------------------------------------
# records keep only what was computed


def test_spectral_records_hold_only_independent_fields():
    names = {record: [f.name for f in fields(record)] for record in (
        spectral.CompanionSystem, spectral.SpectralBounds,
        spectral.CertificateReport)}
    assert names == {
        spectral.CompanionSystem: ["omega", "blocks"],
        spectral.SpectralBounds: ["alpha_min", "alpha_max", "max_delay"],
        spectral.CertificateReport: ["omega", "max_delay", "seed", "rhos",
                                     "ages"]}


def test_a_replaced_companion_is_a_fresh_build(two_patch_thermal):
    scn = two_patch_thermal
    _, amax = generalized_alphas(scn)
    system = build_companion(scn, (1, 0), 0.5 / amax, 2)
    assert spectral_radius(system) < 1.0
    moved = replace(system, omega=2.5 / amax)
    fresh = build_companion(scn, (1, 0), 2.5 / amax, 2)
    assert np.array_equal(moved.matrix, fresh.matrix)
    assert spectral_radius(moved) == spectral_radius(fresh) > 1.0
    assert (moved.max_delay, moved.gamma_dim) == (2, scn.gamma_dim)


def test_companion_blocks_and_matrix_are_read_only(two_patch_thermal):
    system = build_companion(two_patch_thermal, (1, 0), 0.1, 2)
    for array in (system.blocks[0], system.blocks[2], system.matrix):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    # A hand-made system keeps views: the caller's arrays stay writable.
    block = np.eye(2)
    assert np.array_equal(spectral.CompanionSystem(0.5, (block,)).matrix,
                          0.5 * np.eye(2))
    block[0, 0] = 3.0


def test_replaced_bounds_are_fresh_bounds(two_patch_thermal):
    amin, amax = generalized_alphas(two_patch_thermal)
    bounds = relaxation_bounds(amin, amax, 2)
    moved = replace(bounds, alpha_max=2 * amax)
    fresh = relaxation_bounds(amin, 2 * amax, 2)
    assert moved == fresh
    for name in ("epsilon", "omega_sync", "omega_async_factor"):
        assert getattr(moved, name) == getattr(fresh, name)
    assert moved.omega_sync == bounds.omega_sync / 2
    with pytest.raises(ValueError):
        replace(bounds, alpha_min=-1.0)
    with pytest.raises(ValueError):
        replace(bounds, max_delay=-1)
    undelayed = replace(bounds, max_delay=0)
    assert undelayed.epsilon is None and undelayed.omega_async_factor is None


def test_a_replaced_certificate_derives_its_verdict(two_patch_thermal):
    _, amax = generalized_alphas(two_patch_thermal)
    report = certify_paracontraction(two_patch_thermal, 0.5 / amax, 2,
                                     trials=5, seed=0)
    assert report.passed and report.trials == 5
    assert report.rho_max == max(report.rhos) < 1.0
    failed = replace(report, rhos=(1.5,) * 5)
    assert (failed.passed, failed.rho_max, failed.trials) == (False, 1.5, 5)


# ---------------------------------------------------------------------------
# radii from the overdamped route inside the split


def spy_on_radius(monkeypatch):
    """Route ``spectral.spectral_radius`` through a call counter."""
    calls, original = [], spectral.spectral_radius

    def counting(system):
        calls.append(system)
        return original(system)

    monkeypatch.setattr(spectral, "spectral_radius", counting)
    return calls


def record_eigensolves(monkeypatch):
    """Route numpy's and scipy's eigensolvers through a recorder of the
    matrix shapes they are given, kept by kind: general or symmetric."""
    seen = {"general": [], "symmetric": []}
    for module in (np.linalg, sla):
        for name, kind in (("eig", "general"), ("eigvals", "general"),
                           ("eigh", "symmetric"), ("eigvalsh", "symmetric")):
            def recording(a, *args, _solve=getattr(module, name),
                          _kind=kind, **kwargs):
                seen[_kind].append(np.shape(a))
                return _solve(a, *args, **kwargs)

            monkeypatch.setattr(module, name, recording)
    return seen


split_cases = pytest.mark.parametrize("build", [
    lambda: chain_1d(), lambda: two_patch_2d("thermal"),
    lambda: two_patch_2d("elasticity"), lambda: cube_grid_3d(2, "thermal"),
    lambda: imbalanced_grid("thermal", seed=0),
    lambda: imbalanced_grid("thermal", seed=1009)],
    ids=["chain", "thermal", "elastic", "cube2", "imbalanced0",
         "imbalanced1009"])


@split_cases
def test_solvent_radii_match_the_dense_companion(build, monkeypatch):
    scn = build()
    amin, amax = generalized_alphas(scn)
    for max_delay in (1, 2, 4):
        omega = 0.9 * relaxation_bounds(amin, amax, max_delay) \
            .omega_async_factor
        dense = spy_on_radius(monkeypatch)
        report = certify_paracontraction(scn, omega, max_delay, trials=12,
                                         seed=1009)
        monkeypatch.undo()
        assert dense == []   # every row took the symmetric route
        for ages, rho in zip(report.ages, report.rhos):
            full = spectral_radius(build_companion(scn, ages, omega,
                                                   max_delay))
            assert abs(rho - full) <= 1e-12 * full


@split_cases
def test_symmetric_radii_match_the_solvent_oracle(build):
    """The rows of the test above, whose radii match ``spectral_radius``,
    against the Newton-Schulz solvent route the symmetric one replaced."""
    scn = build()
    amin, amax = generalized_alphas(scn)
    for max_delay in (1, 2, 4):
        omega = 0.9 * relaxation_bounds(amin, amax, max_delay) \
            .omega_async_factor
        report = certify_paracontraction(scn, omega, max_delay, trials=12,
                                         seed=1009)
        for ages, rho in zip(report.ages, report.rhos):
            solvent = solvent_radius(
                build_companion(scn, ages, omega, max_delay), amax)
            assert abs(rho - solvent) <= 1e-12 * solvent


@pytest.mark.parametrize("name, max_delay", [
    (name, max_delay) for name in ("two_patch_thermal", "two_patch_elastic",
                                   "cube2_thermal", "imbalanced_thermal")
    for max_delay in (1, 2, 4, 8)])
def test_overdamped_rows_have_gamma_real_outer_eigenvalues(name, max_delay,
                                                           request):
    scn = request.getfixturevalue(name)
    _, amax = generalized_alphas(scn)
    n, r_star = scn.gamma_dim, max_delay / (max_delay + 1)
    c_d = max_delay ** max_delay / (max_delay + 1) ** (max_delay + 1)
    rng = np.random.default_rng(max_delay)
    for omega in (0.5 * c_d / amax, 0.99 * c_d / amax):
        route = spectral._overdamped_route(scn, omega, max_delay, amax)
        for _ in range(2):
            ages = tuple(rng.integers(0, max_delay + 1,
                                      size=len(scn.patch_ids)).tolist())
            full = np.linalg.eigvals(
                build_companion(scn, ages, omega, max_delay).matrix)
            outer = full[np.abs(full) > r_star]
            assert len(outer) == n
            assert np.abs(outer.imag).max() <= 1e-10
            assert np.all((r_star < outer.real) & (outer.real < 1))
            rho, _ = route(ages)
            assert abs(rho - outer.real.max()) <= 1e-12 * rho


def test_rows_outside_the_split_take_the_dense_route(two_patch_thermal,
                                                     monkeypatch):
    scn = two_patch_thermal
    _, amax = generalized_alphas(scn)
    assert 0.5 > 4 / 27   # 0.5 / alpha_max is past the D = 2 split
    dense = spy_on_radius(monkeypatch)
    report = certify_paracontraction(scn, 0.5 / amax, 2, trials=20, seed=3)
    monkeypatch.undo()
    assert len(dense) == len(set(report.ages))
    radii = dict(zip(report.ages, report.rhos))
    for ages in set(report.ages):
        assert radii[ages] == spectral_radius(
            build_companion(scn, ages, 0.5 / amax, 2))


def test_the_solvent_route_ends_at_the_split(two_patch_thermal):
    scn = two_patch_thermal
    _, amax = generalized_alphas(scn)
    ages = np.arange(len(scn.patch_ids)) % 2
    for max_delay in (1, 2, 4):
        bound = max_delay ** max_delay / (max_delay + 1) ** (max_delay + 1)
        omega = 0.99 * bound / amax
        rho, _ = spectral._overdamped_route(scn, omega, max_delay,
                                            amax)(ages)
        inside = build_companion(scn, ages, omega, max_delay)
        assert abs(rho - spectral_radius(inside)) <= 1e-12 * rho
        assert spectral._overdamped_route(scn, 1.0001 * bound / amax,
                                          max_delay, amax) is None
    assert spectral._overdamped_route(scn, 0.1 / amax, 0, amax) is None


def test_a_split_certificate_solves_no_companion_eigenproblem(
        imbalanced_thermal, monkeypatch):
    scn = imbalanced_thermal
    amin, amax = generalized_alphas(scn)
    omega = 0.9 * relaxation_bounds(amin, amax, 2).omega_async_factor
    seen = record_eigensolves(monkeypatch)
    report = certify_paracontraction(scn, omega, 2, trials=20, seed=0)
    monkeypatch.undo()
    n, rows = scn.gamma_dim, len(set(report.ages))
    assert seen["general"] == [] and rows > 1
    assert 0 < len(seen["symmetric"]) <= 1 + 6 * rows
    assert set(seen["symmetric"]) == {(n, n)}


def test_the_whitened_pencil_is_formed_once_per_scenario(monkeypatch):
    # alpha, the M_s of the split route and its start vector depend on
    # neither omega nor D: a scenario forms them in one full symmetric
    # eigensolve, however many certificates it runs.
    scn = two_patch_2d("elasticity", contrast=100.0)
    full = []
    for module in (np.linalg, sla):
        for name in ("eigh", "eigvalsh"):
            def spy(a, *args, _solve=getattr(module, name), **kwargs):
                if "subset_by_index" not in kwargs:
                    full.append(np.shape(a))
                return _solve(a, *args, **kwargs)
            monkeypatch.setattr(module, name, spy)
    amin, amax = generalized_alphas(scn)
    rhos = {}
    for max_delay in (1, 2, 4):
        omega = 0.9 * relaxation_bounds(amin, amax, max_delay) \
            .omega_async_factor
        for _ in range(2):
            rhos[max_delay] = certify_paracontraction(
                scn, omega, max_delay, trials=10, seed=0).rhos
    assert generalized_alphas(scn) == (amin, amax)
    assert full == [(scn.gamma_dim, scn.gamma_dim)]
    monkeypatch.undo()

    # The spectrum is the one L^T X S_G^{-1} L gives, X over all subdomains.
    chol_l = np.tril(scn._sg_chol[0])
    x = np.linalg.solve(scn.schur_global,
                        scattered_schur(scn, scn.subdomain_ids))
    m = chol_l.T @ x @ np.linalg.inv(scn.schur_global) @ chol_l
    direct = np.linalg.eigvalsh(0.5 * (m + m.T))
    assert np.abs(generalized_spectrum(scn) - direct).max() \
        <= 1e-12 * direct[-1]

    # A copy with S_G doubled forms its own: X halves, so twice omega gives
    # the same companions and radii.
    doubled = replace(scn, schur_global=2.0 * scn.schur_global)
    assert "_whitened" not in vars(doubled)
    halves = np.array(generalized_alphas(doubled))
    assert np.allclose(halves, 0.5 * np.array([amin, amax]), rtol=1e-12,
                       atol=0)
    for max_delay, want in rhos.items():
        omega = 0.9 * relaxation_bounds(amin, amax, max_delay) \
            .omega_async_factor
        got = certify_paracontraction(doubled, 2.0 * omega, max_delay,
                                      trials=10, seed=0).rhos
        assert np.allclose(got, want, rtol=1e-12, atol=0)


def test_a_certificate_logs_its_routes_at_debug_only(two_patch_thermal,
                                                     caplog, capfd):
    scn = two_patch_thermal
    amin, amax = generalized_alphas(scn)
    omega = 0.9 * relaxation_bounds(amin, amax, 2).omega_async_factor
    certify_paracontraction(scn, omega, 2, trials=10, seed=0)
    assert capfd.readouterr() == ("", "")
    with caplog.at_level("DEBUG", logger="glocal.spectral"):
        solvent = certify_paracontraction(scn, omega, 2, trials=10, seed=0)
        dense = certify_paracontraction(scn, 0.5 / amax, 2, trials=10,
                                        seed=0)
    rows = len(set(solvent.ages)), len(set(dense.ages))
    route = spectral._overdamped_route(scn, omega, 2, amax)
    steps = max(route(ages)[1] for ages in set(solvent.ages))
    assert [r.getMessage() for r in caplog.records] == [
        f"10 rows: {rows[0]} symmetric, 0 dense, <= {steps} steps; "
        f"w alpha_max {omega * amax:.3g}, c_D 0.148",
        f"10 rows: 0 symmetric, {rows[1]} dense, <= 0 steps; w alpha_max "
        "0.5, c_D 0.148"]
    assert {r.levelname for r in caplog.records} == {"DEBUG"}
