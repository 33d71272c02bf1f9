"""Companion matrices, generalized spectra and relaxation bounds.

The 1D chain gives exact extreme generalized eigenvalues (1, 2): the
zones carry twice the conductivity, so their condensed fine operators
are exactly twice the global ones, while outside the zones fine equals
global.  Everything else is cross-checked against an independent
generalized-eigenvalue route and the scalar map 1 - omega * alpha.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from glocal import (
    build_companion,
    certify_paracontraction,
    compute_residual,
    generalized_alphas,
    generalized_spectrum,
    relaxation_bounds,
    residual_offset,
    spectral_radius,
    two_patch_2d,
)
from glocal import spectral

from companion_oracle import (characteristic_value, symmetrized_companion,
                              verify_fixed_point)


def embedded_sum(scn):
    """sum_s A_s S_s A_s^T, scattered from the compact per-subdomain blocks."""
    total = np.zeros((scn.gamma_dim, scn.gamma_dim))
    for sid in scn.subdomain_ids:
        amap = scn.subdomains[sid].amap
        total[np.ix_(amap, amap)] += scn.subdomains[sid].schur
    return total


def full_partition(scn, max_delay):
    return [list(scn.subdomain_ids)] + [[] for _ in range(max_delay)]


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
    vals = sla.eig(embedded_sum(scn), scn.schur_global, right=False)
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
            system = build_companion(scn, full_partition(scn, 0), omega, 0)
            assert np.isclose(spectral_radius(system),
                              np.abs(1.0 - omega * spectrum).max(),
                              atol=1e-9)


def test_synchronous_bound_is_sharp(two_patch_thermal):
    scn = two_patch_thermal
    _, amax = generalized_alphas(scn)
    below = build_companion(scn, full_partition(scn, 0), 0.99 * 2 / amax, 0)
    above = build_companion(scn, full_partition(scn, 0), 1.01 * 2 / amax, 0)
    assert spectral_radius(below) < 1.0
    assert spectral_radius(above) > 1.0


def test_companion_layout(chain):
    scn = chain
    n = scn.gamma_dim
    omega = 0.4
    partition = [[0, 1], [], [2]]
    system = build_companion(scn, partition, omega, 2)
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
    # Slots repartition the same operator sum.
    total = build_companion(scn, full_partition(scn, 0), omega, 0).blocks[0]
    assert np.allclose(sum(system.blocks), total, atol=1e-12)


def test_symmetrized_companion_keeps_the_spectrum(chain):
    omega = 0.05
    partition = [[0, 1], [2]]
    plain = build_companion(chain, partition, omega, 1)
    symm = symmetrized_companion(chain, partition, omega, 1)
    for block in symm.blocks:
        assert np.allclose(block, block.T, atol=1e-10)
    ev_plain = np.sort_complex(np.linalg.eigvals(plain.matrix))
    ev_symm = np.sort_complex(np.linalg.eigvals(symm.matrix))
    assert np.allclose(ev_plain, ev_symm, atol=1e-8)


def test_fixed_point_self_check(chain):
    scn = chain
    p_hat = -scn.schur_global @ np.linalg.solve(embedded_sum(scn),
                                                residual_offset(scn))
    # p_hat really is the coupled load: the residual vanishes there.
    r = compute_residual(scn, scn.solve_interface(p_hat))
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(scn.rhs_global)
    plain = build_companion(scn, [[0, 1], [2]], 0.1, 1)
    verify_fixed_point(scn, plain, p_hat, symmetrized=False)
    symm = symmetrized_companion(scn, [[0, 1], [2]], 0.1, 1)
    verify_fixed_point(scn, symm, p_hat, symmetrized=True)
    with pytest.raises(ValueError):
        verify_fixed_point(scn, plain, p_hat + 1.0, symmetrized=False)


def test_characteristic_value_vanishes_at_eigenvalues(chain):
    system = build_companion(chain, [[0, 1], [2]], 0.2, 1)
    eigvals = np.linalg.eigvals(system.matrix)
    probe = abs(characteristic_value(system, 1.37 + 0.21j))
    assert probe > 0
    for lam in eigvals[:4]:
        assert abs(characteristic_value(system, lam)) <= 1e-8 * probe


def test_partition_validation(chain):
    with pytest.raises(ValueError):
        build_companion(chain, [[0, 1, 2]], 0.5, 1)  # missing slot
    with pytest.raises(ValueError):
        build_companion(chain, [[0, 1], [1, 2]], 0.5, 1)  # duplicate
    with pytest.raises(ValueError):
        build_companion(chain, [[0, 1], []], 0.5, 1)  # patch 2 missing
    for omega in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            build_companion(chain, [[0, 1, 2]], omega, 0)
    with pytest.raises(ValueError):
        build_companion(chain, [[0, 1, 2]], 0.5, -1)


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
    for partition in report.partitions:
        assert partition[0][0] == 0  # complement pinned to age zero
        flat = sorted(sid for slot in partition for sid in slot)
        assert flat == sorted(chain.subdomain_ids)
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
        built.append(tuple(map(tuple, args[1])))
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "build_companion", counting)
    report = certify_paracontraction(scn, 0.2, 2, trials=30, seed=5)
    monkeypatch.undo()
    assert len(built) == len(set(report.partitions)) < report.trials
    assert set(built) == set(report.partitions)
    for partition, rho in zip(report.partitions, report.rhos):
        direct = build_companion(scn, partition, 0.2, 2)
        assert rho == spectral_radius(direct)


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
    """All fresh, every patch at age D, and two random age draws."""
    ages = [np.zeros(len(scn.patch_ids), dtype=int),
            np.full(len(scn.patch_ids), max_delay)]
    ages += [rng.integers(0, max_delay + 1, len(scn.patch_ids))
             for _ in range(2)]
    for assign in ages:
        slots = [[] for _ in range(max_delay + 1)]
        if scn.complement is not None:
            slots[0].append(0)
        for sid, age in zip(scn.patch_ids, assign):
            slots[int(age)].append(sid)
        yield slots


@pytest.mark.parametrize("name", ["chain", "two_patch_thermal",
                                  "two_patch_elastic", "cube2_thermal"])
def test_reduced_radius_matches_the_full_companion(name, request):
    scn = request.getfixturevalue(name)
    _, amax = generalized_alphas(scn)
    omega = 0.5 / amax
    rng = np.random.default_rng(11)
    for max_delay in (1, 2, 4):
        for partition in age_partitions(scn, max_delay, rng):
            radii = []
            for build in (build_companion, symmetrized_companion):
                system = build(scn, partition, omega, max_delay)
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
                                  "two_patch_elastic", "cube2_thermal"])
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
    for partition, rho in zip(report.partitions, report.rhos):
        blocks = tuple(sla.cho_solve(scn._sg_chol,
                                     dense_embedded_sum(scn, slot))
                       for slot in partition)
        matrix = np.zeros(((max_delay + 1) * n, (max_delay + 1) * n))
        matrix[:n, :n] = np.eye(n)
        for k, x in enumerate(blocks):
            matrix[:n, k * n:(k + 1) * n] -= omega * x
        matrix[n:, :-n] = np.eye(max_delay * n)
        system = spectral.CompanionSystem(omega=omega, max_delay=max_delay,
                                          gamma_dim=n, blocks=blocks,
                                          matrix=matrix)
        dense_rho = spectral_radius(system)
        assert abs(rho - dense_rho) <= 1e-12 * dense_rho
