from collections import Counter

import numpy as np
import pytest

from fsqsim.benchmarking.singleq import (
    _apply_clifford,
    _simulate_sequence,
    _z_superop_diag,
    generate_crb,
    raman_pulse_channel,
    run_crb,
)
from fsqsim.cliffords import clifford_group, equal_up_to_phase
from fsqsim.levels import Q0, Q1
from fsqsim.pulses import virtual_z_equivalent


def test_length_zero_inverse_is_identity():
    seq = generate_crb(0, seed=1)
    g = clifford_group()[seq.inverse_index]
    assert equal_up_to_phase(g.unitary, np.eye(2))


def test_sequences_invert_noiselessly():
    pulse = raman_pulse_channel(None)
    for seed in range(8):
        seq = generate_crb(30, seed)
        probs = _simulate_sequence(seq, pulse, eps_sp=0.0)
        assert probs[Q1] == pytest.approx(1.0, abs=1e-8)


def test_crb_inverse_property_unitary_level():
    group = clifford_group()
    for seed in range(20):
        seq = generate_crb(15, seed)
        u = np.eye(2, dtype=complex)
        for i in seq.clifford_indices:
            u = group[i].unitary @ u
        u = group[seq.inverse_index].unitary @ u
        assert equal_up_to_phase(u, np.eye(2), tol=1e-9)


def test_clifford_uniformity():
    counts = Counter()
    for seed in range(1000):
        seq = generate_crb(1, seed=seed + 10_000)
        counts[seq.clifford_indices[0]] += 1
    expected = 1000 / 24
    sigma = np.sqrt(1000 * (1 / 24) * (23 / 24))
    for idx in range(24):
        assert abs(counts[idx] - expected) < 5 * sigma


def test_compiled_channel_matches_unitary_up_to_frame():
    pulse = raman_pulse_channel(None)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    rho = np.zeros((6, 6), dtype=complex)
    rho[:2, :2] = np.outer(psi, psi.conj())
    for g in clifford_group():
        v, frame = _apply_clifford(rho.ravel(), g, 0.0, pulse)
        got = v.reshape(6, 6)
        u6 = np.eye(6, dtype=complex)
        u6[:2, :2] = virtual_z_equivalent(-frame) @ g.unitary
        want = u6 @ rho @ u6.conj().T
        assert np.max(np.abs(got - want)) < 1e-8


def test_z_superop_diag_is_cached_and_read_only():
    # every pulse at one frame angle shares the array, so none may write it
    zc = _z_superop_diag(0.7)
    assert _z_superop_diag(0.7) is zc
    assert not zc.flags.writeable
    z6 = np.ones(6, dtype=complex)
    z6[[Q0, Q1]] = np.diag(virtual_z_equivalent(0.7))
    # row-major: entry i*6 + j is z_i conj(z_j)
    assert np.max(np.abs(zc - np.kron(z6, z6.conj()))) < 1e-15


def test_injected_depolarizing_recovery():
    res = run_crb([2, 20, 50, 100, 160], n_seq=60, shots=200, noise=None,
                  injected_depolarizing=0.007, seed=11)
    assert res.f1q_raw == pytest.approx(0.993, abs=0.002)


def test_noiseless_crb_fit():
    res = run_crb([2, 10, 25, 40], n_seq=10, shots=400, noise=None,
                  injected_depolarizing=0.0, seed=2)
    assert res.f1q_raw > 1 - 2e-3


def test_paper_calibrated_crb(reference_config):
    res = run_crb([2, 8, 16, 28, 40], n_seq=50, shots=200, noise=reference_config,
                  erasure=True, seed=3)
    # raw / erasure-corrected pair straddles 0.992 / 0.993; the reference
    # values carry +-0.001 uncertainties
    assert res.f1q_raw == pytest.approx(0.992, abs=1e-3 + res.f1q_raw_err)
    assert res.f1q_corrected == pytest.approx(
        0.993, abs=1e-3 + res.f1q_corrected_err
    )
    assert res.f1q_corrected > res.f1q_raw
    assert 0.8 < res.retained_fraction < 0.97


def test_one_sequence_is_rejected():
    # one sequence has no standard error of the mean; the fit would run on
    # NaN sigmas and report F = 1
    with pytest.raises(ValueError, match="n_sequences"):
        run_crb([2, 10, 25], n_seq=1, shots=100, noise=None)
