from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from fsqsim import levels
from fsqsim._kernels._lindblad_py import closed_support, liouvillian_parts
from fsqsim.channels import (
    LOCAL_PAIRS,
    Superoperator,
    channel_on_pairs,
    channel_superoperator,
    choi_matrix,
    compose,
    gate_pair_basis,
    is_cptp,
    min_choi_eigenvalue,
    pair_index,
    process_fidelity,
    trace_preservation_defect,
)
from fsqsim.levels import B, G, Q0, Q1, R
from fsqsim.lindblad import CollapseOperator, ModulatedDrive, evolve_rho


def _random_h(seed, d=6):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return h + h.conj().T


def test_identity_channel():
    s = channel_superoperator(None, [], 5.0, 1)
    assert np.max(np.abs(s.matrix - np.eye(36))) < 1e-9


def test_unitary_conjugation_convention():
    h = _random_h(1)
    u = expm(-1j * h * 0.41)
    s = channel_superoperator(h, [], 0.41, 1)
    assert np.max(np.abs(s.matrix - np.kron(u.conj(), u))) < 1e-7


def test_amplitude_damping_oracle():
    # textbook damping channel on the (Q1 -> Q0) pair at gamma*t = 1
    gamma = 0.5
    t = 1.0 / gamma
    c = CollapseOperator(gamma, levels.lop(Q0, Q1))
    s = channel_superoperator(None, [c], t, 1)
    p = 1.0 - np.exp(-gamma * t)
    k0 = np.eye(6, dtype=complex)
    k0[Q1, Q1] = np.sqrt(1 - p)
    k1 = np.sqrt(p) * levels.lop(Q0, Q1)
    oracle = np.kron(k0.conj(), k0) + np.kron(k1.conj(), k1)
    assert np.max(np.abs(s.matrix - oracle)) < 1e-6


def test_trace_preserving_and_choi_positive():
    ops = [
        CollapseOperator(0.3, levels.lop(G, Q1)),
        CollapseOperator(0.2, levels.lop(R, R)),
    ]
    s = channel_superoperator(_random_h(2), ops, 1.7, 1)
    assert trace_preservation_defect(s) < 1e-8
    assert min_choi_eigenvalue(s) > -1e-7
    assert is_cptp(s)


def test_choi_of_identity():
    s = Superoperator.identity(4)
    c = choi_matrix(s)
    # Choi of identity = |Omega><Omega| (unnormalized maximally entangled)
    omega = np.zeros(16, dtype=complex)
    for a in range(4):
        omega[a * 4 + a] = 1.0
    assert np.max(np.abs(c - np.outer(omega, omega.conj()))) < 1e-12


def test_superoperator_apply_matches_evolution_on_random_states():
    h = _random_h(3)
    ops = [CollapseOperator(0.25, levels.lop(G, Q1))]
    s = channel_superoperator(h, ops, 0.8, 1)
    rng = np.random.default_rng(7)
    for _ in range(20):
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        direct = evolve_rho(rho, h, ops, 0.8, 1)
        via_s = s.apply(rho)
        assert np.max(np.abs(direct - via_s)) < 1e-7


def test_composition_is_matrix_product():
    # H(t) = ha + e^{i phi(t)} hb + h.c.; the drive from t = 0.3 on is the
    # same drive with phi(t + 0.3) = phi(t) + 0.3 * freq in the cosine and
    # e^{i 0.3 slope} in the coupling
    ha, hb = _random_h(4), _random_h(5)
    drive = ModulatedDrive(h0=ha, coupling=0.5 * hb, phase_amp=0.9,
                           phase_freq=2.1, phase_offset=0.4, phase_slope=1.3)
    shifted = replace(
        drive,
        coupling=np.exp(0.3j * drive.phase_slope) * drive.coupling,
        phase_offset=drive.phase_offset + 0.3 * drive.phase_freq,
    )
    ops = [CollapseOperator(0.1, levels.lop(G, Q1))]
    s_full = channel_superoperator(drive, ops, 0.8, 1)
    s_a = channel_superoperator(drive, ops, 0.3, 1)
    s_b = channel_superoperator(shifted, ops, 0.5, 1)
    assert np.max(np.abs(compose(s_b, s_a).matrix - s_full.matrix)) < 1e-7


def test_process_fidelity_self_is_one():
    s = channel_superoperator(_random_h(6), [], 0.2, 1)
    assert process_fidelity(s, s) == pytest.approx(1.0, abs=1e-10)


def _embed_qubit(u2, n_atoms=2):
    u = np.eye(6, dtype=complex)
    u[np.ix_((Q0, Q1), (Q0, Q1))] = u2
    out = np.array([[1.0 + 0j]])
    for _ in range(n_atoms):
        out = np.kron(out, u)
    return out


def test_process_fidelity_depolarizing_oracle():
    from oracles import ideal_cz_unitary

    cz = ideal_cz_unitary()
    s_ideal = Superoperator(np.kron(cz.conj(), cz))
    q = 0.02  # depolarizing probability on one qubit
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    dep = (1 - q) * np.eye(36 * 36, dtype=complex)
    for p in paulis:
        u = _embed_qubit(p, 1)
        full = np.kron(u, np.eye(6))
        dep += (q / 4) * np.kron(full.conj(), full)
    s = Superoperator(dep @ s_ideal.matrix)
    # F_e = 1 - 3q/4 on the affected qubit, multiplicative for the pair
    f_avg = process_fidelity(s, s_ideal)
    assert f_avg == pytest.approx((4 * (1 - 3 * q / 4) + 1) / 5, abs=1e-6)


def test_process_fidelity_fully_depolarizing():
    eye = np.eye(36, dtype=complex)
    s_ideal = Superoperator(np.kron(eye.conj(), eye))
    # fully depolarizing on the two-qubit subspace: rho -> I/4 * tr(rho)
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    dep = np.zeros((36 * 36, 36 * 36), dtype=complex)
    for p1 in paulis:
        for p2 in paulis:
            u = np.kron(_embed_qubit(p1, 1), _embed_qubit(p2, 1))
            dep += (1 / 16) * np.kron(u.conj(), u)
    f_avg = process_fidelity(Superoperator(dep), s_ideal)
    # F_e = 1/d^2 with d = 4 -> F_avg = (d/d^2 + 1)/(d + 1) = 1/4
    assert f_avg == pytest.approx(0.25, abs=1e-6)


def test_process_fidelity_rejects_singular_ideal():
    s = Superoperator.identity(6)
    bad = Superoperator(np.zeros((36, 36), dtype=complex))
    with pytest.raises(ValueError):
        process_fidelity(s, bad)
    with pytest.raises(ValueError):
        process_fidelity(s, s, subspace_levels=())


def test_gate_pair_basis_is_closed(cz_profile, drive, reference_config):
    from fsqsim.noise import gate_collapse_ops
    from fsqsim.rydberg import modulated_drive

    pairs = gate_pair_basis()
    assert len(pairs) == 144
    ops = gate_collapse_ops(reference_config, drive.rabi_frequency)
    mdrive = modulated_drive(cz_profile, drive)
    # channel_on_pairs raises if the span leaks; returned leak must be tiny
    _, leak = channel_on_pairs(mdrive, ops, cz_profile.t_gate, 2, pairs,
                               rtol=1e-6, atol=1e-9)
    assert leak < 1e-9
    # the engine's support derived from these matrix units is the same set
    jumps = [np.sqrt(r) * op for c in ops for r, op in c.expand(2)]
    parts = liouvillian_parts(mdrive.h0, mdrive.coupling,
                              mdrive.detuning_diag, jumps)
    seed = np.zeros(36 * 36, dtype=bool)
    seed[[i * 36 + j for i, j in pairs]] = True
    support = closed_support(parts, seed)
    assert set(support.tolist()) == {i * 36 + j for i, j in pairs}


def test_gate_pair_basis_is_the_product_of_local_pairs():
    assert len(set(LOCAL_PAIRS)) == len(LOCAL_PAIRS) == 12
    want = []
    for r1, c1 in LOCAL_PAIRS:
        for r2, c2 in LOCAL_PAIRS:
            want.append((r1 * 6 + r2, c1 * 6 + c2))
    assert gate_pair_basis() == want


def test_pair_index_is_the_basis_slot():
    pairs = gate_pair_basis()
    for k, (i, j) in enumerate(pairs):
        rows, cols = levels.unravel_index(i, 2), levels.unravel_index(j, 2)
        assert pair_index(rows, cols) == pairs.index((i, j)) == k
    with pytest.raises(ValueError):
        pair_index((G, Q0), (Q1, Q0))  # the coherence |g><q1| is not kept


def test_pair_restriction_matches_full_superoperator():
    # one-atom analogue: restricted columns agree with the full matrix
    h = _random_h(8)
    ops = [CollapseOperator(0.2, levels.lop(B, R)),
           CollapseOperator(0.1, levels.lop(G, Q1))]
    s = channel_superoperator(h, ops, 0.6, 1)
    d = 6
    pairs = [(i, j) for i in range(d) for j in range(d)]
    m, _ = channel_on_pairs(h, ops, 0.6, 1, pairs)
    for q, (i, j) in enumerate(pairs):
        e = np.zeros((d, d), dtype=complex)
        e[i, j] = 1.0
        col_full = s.apply(e)
        for p, (a, b) in enumerate(pairs):
            assert abs(m[p, q] - col_full[a, b]) < 1e-7
