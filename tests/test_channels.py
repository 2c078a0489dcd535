import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fsqsim import levels
from fsqsim._kernels import _lindblad_py
from fsqsim._kernels._lindblad_py import closed_support, liouvillian_parts
from fsqsim.channels import (
    CHOI_TOL,
    LOCAL_PAIRS,
    TP_TOL,
    channel_on_pairs,
    channel_superoperator,
    cptp_defects,
    gate_pair_basis,
    pair_index,
)
from fsqsim.levels import B, DIM, G, Q0, Q1, R
from fsqsim.lindblad import CollapseOperator, ModulatedDrive, evolve_rho
from oracles import ideal_cz_unitary, process_fidelity

# all one-atom matrix units in the engine's row-major order
UNITS = [(k // DIM, k % DIM) for k in range(DIM * DIM)]


def _random_h(seed, d=6):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return h + h.conj().T


def _unit(i, j, d=DIM):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def test_identity_channel():
    s = channel_superoperator(None, [], 5.0)
    assert np.max(np.abs(s - np.eye(36))) < 1e-9


def test_unitary_conjugation_convention():
    # row-major: vec(U rho U^dag) = (U (x) conj U) vec(rho)
    h = _random_h(1)
    u = expm(-1j * h * 0.41)
    s = channel_superoperator(h, [], 0.41)
    assert np.max(np.abs(s - np.kron(u, u.conj()))) < 1e-7


def test_amplitude_damping_oracle():
    # textbook damping channel on the (Q1 -> Q0) pair at gamma*t = 1
    gamma = 0.5
    t = 1.0 / gamma
    c = CollapseOperator(gamma, levels.lop(Q0, Q1))
    s = channel_superoperator(None, [c], t)
    p = 1.0 - np.exp(-gamma * t)
    k0 = np.eye(6, dtype=complex)
    k0[Q1, Q1] = np.sqrt(1 - p)
    k1 = np.sqrt(p) * levels.lop(Q0, Q1)
    oracle = np.kron(k0, k0.conj()) + np.kron(k1, k1.conj())
    assert np.max(np.abs(s - oracle)) < 1e-6


def test_trace_preserving_and_choi_positive():
    ops = [
        CollapseOperator(0.3, levels.lop(G, Q1)),
        CollapseOperator(0.2, levels.lop(R, R)),
    ]
    s = channel_superoperator(_random_h(2), ops, 1.7)
    tp_defect, min_eig = cptp_defects(s, UNITS, 1, range(DIM))
    assert tp_defect < TP_TOL
    assert min_eig > -CHOI_TOL


def test_choi_of_identity():
    # the identity's Choi block |Omega><Omega| is rank one: its smallest
    # eigenvalue is 0 on any level set, and the trace is preserved exactly
    for lv in (range(DIM), (Q0, Q1)):
        tp_defect, min_eig = cptp_defects(np.eye(36), UNITS, 1, lv)
        assert tp_defect == 0.0
        assert abs(min_eig) < 1e-12
    tp_defect, min_eig = cptp_defects(np.eye(144), gate_pair_basis(), 2,
                                      (Q0, Q1, R))
    assert tp_defect == 0.0
    assert abs(min_eig) < 1e-12


def _transpose_map(pairs):
    """E_ij -> E_ji on a unit list closed under transposition: trace
    preserving, not completely positive."""
    t = np.zeros((len(pairs), len(pairs)))
    for q, (i, j) in enumerate(pairs):
        t[pairs.index((j, i)), q] = 1.0
    return t


def test_check_catches_a_positive_but_not_completely_positive_map():
    # the transpose E_ij -> E_ji preserves the trace; its Choi matrix is the
    # swap operator, with eigenvalue -1
    t = _transpose_map(UNITS)
    tp_defect, min_eig = cptp_defects(t, UNITS, 1, range(DIM))
    assert tp_defect == 0.0
    assert min_eig == pytest.approx(-1.0, abs=1e-12)
    assert min_eig < -CHOI_TOL


def test_check_catches_a_trace_decreasing_map():
    tp_defect, min_eig = cptp_defects(0.5 * np.eye(36), UNITS, 1, range(DIM))
    assert tp_defect == 0.5 > TP_TOL
    assert min_eig > -1e-12


def test_check_rejects_an_incomplete_choi_block():
    # the gate basis keeps no coherence |g><q0|
    with pytest.raises(ValueError, match="Choi block"):
        cptp_defects(np.eye(144), gate_pair_basis(), 2, (Q0, G))


def test_superoperator_apply_matches_evolution_on_random_states():
    h = _random_h(3)
    ops = [CollapseOperator(0.25, levels.lop(G, Q1))]
    s = channel_superoperator(h, ops, 0.8)
    rng = np.random.default_rng(7)
    for _ in range(20):
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        direct = evolve_rho(rho, h, ops, 0.8)
        via_s = (s @ rho.ravel()).reshape(DIM, DIM)
        assert np.max(np.abs(direct - via_s)) < 1e-7


def test_composition_is_matrix_product(monkeypatch):
    # H(t) = ha + e^{i phi(t)} hb + h.c.; the drive from t = 0.3 on is the
    # same drive with phi(t + 0.3) = phi(t) + 0.3 * freq in the cosine and
    # e^{i 0.3 slope} in the coupling
    monkeypatch.setattr(_lindblad_py, "STEPS_PER_RADIAN",
                        4 * _lindblad_py.STEPS_PER_RADIAN)
    ha, hb = _random_h(4), _random_h(5)
    drive = ModulatedDrive(h0=ha, coupling=0.5 * hb, phase_amp=0.9,
                           phase_freq=2.1, phase_offset=0.4, phase_slope=1.3)
    shifted = replace(
        drive,
        coupling=np.exp(0.3j * drive.phase_slope) * drive.coupling,
        phase_offset=drive.phase_offset + 0.3 * drive.phase_freq,
    )
    ops = [CollapseOperator(0.1, levels.lop(G, Q1))]
    s_full = channel_superoperator(drive, ops, 0.8)
    s_a = channel_superoperator(drive, ops, 0.3)
    s_b = channel_superoperator(shifted, ops, 0.5)
    assert np.max(np.abs(s_b @ s_a - s_full)) < 1e-7


def _hermitian(values):
    """Hermitian 6x6 matrix from 36 reals in [-1, 1] (rad/us): the upper
    triangle's real and imaginary parts and the diagonal."""
    h = np.zeros((DIM, DIM), dtype=complex)
    it = iter(values)
    for i in range(DIM):
        h[i, i] = next(it)
        for j in range(i + 1, DIM):
            h[i, j] = next(it) + 1j * next(it)
            h[j, i] = np.conj(h[i, j])
    return h


HAMILTONIANS = st.lists(st.floats(-1.0, 1.0), min_size=36, max_size=36)
COLLAPSES = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.integers(0, DIM - 1),
              st.integers(0, DIM - 1)),
    max_size=4,
)


def _collapses(draws):
    return [CollapseOperator(rate, levels.lop(a, b)) for rate, a, b in draws]


@settings(max_examples=40, deadline=None)
@given(HAMILTONIANS, COLLAPSES, st.floats(0.05, 15.0))
def test_random_one_atom_channels_pass_the_cptp_check(h, draws, duration):
    s = channel_superoperator(_hermitian(h), _collapses(draws), duration)
    tp_defect, min_eig = cptp_defects(s, UNITS, 1, range(DIM))
    assert tp_defect < TP_TOL
    assert min_eig > -CHOI_TOL


@settings(max_examples=20, deadline=None)
@given(HAMILTONIANS, COLLAPSES, st.floats(0.05, 7.5), st.floats(0.05, 7.5))
def test_consecutive_channels_multiply_in_engine_order(h, draws, t1, t2):
    h, ops = _hermitian(h), _collapses(draws)
    first = channel_superoperator(h, ops, t1)
    second = channel_superoperator(h, ops, t2)
    whole = channel_superoperator(h, ops, t1 + t2)
    assert np.max(np.abs(second @ first - whole)) < 1e-7


def test_process_fidelity_self_is_one():
    s = channel_superoperator(_random_h(6), [], 0.2)
    assert process_fidelity(s, s) == pytest.approx(1.0, abs=1e-10)


def _embed_qubit(u2, n_atoms=2):
    u = np.eye(6, dtype=complex)
    u[np.ix_((Q0, Q1), (Q0, Q1))] = u2
    out = np.array([[1.0 + 0j]])
    for _ in range(n_atoms):
        out = np.kron(out, u)
    return out


def test_process_fidelity_depolarizing_oracle():
    cz = ideal_cz_unitary()
    s_ideal = np.kron(cz, cz.conj())
    q = 0.02  # depolarizing probability on one qubit
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    dep = (1 - q) * np.eye(36 * 36, dtype=complex)
    for p in paulis:
        u = _embed_qubit(p, 1)
        full = np.kron(u, np.eye(6))
        dep += (q / 4) * np.kron(full, full.conj())
    # F_e = 1 - 3q/4 on the affected qubit, multiplicative for the pair
    f_avg = process_fidelity(dep @ s_ideal, s_ideal)
    assert f_avg == pytest.approx((4 * (1 - 3 * q / 4) + 1) / 5, abs=1e-6)


def test_process_fidelity_fully_depolarizing():
    eye = np.eye(36, dtype=complex)
    s_ideal = np.kron(eye, eye.conj())
    # fully depolarizing on the two-qubit subspace: rho -> I/4 * tr(rho)
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    dep = np.zeros((36 * 36, 36 * 36), dtype=complex)
    for p1 in paulis:
        for p2 in paulis:
            u = np.kron(_embed_qubit(p1, 1), _embed_qubit(p2, 1))
            dep += (1 / 16) * np.kron(u, u.conj())
    f_avg = process_fidelity(dep, s_ideal)
    # F_e = 1/d^2 with d = 4 -> F_avg = (d/d^2 + 1)/(d + 1) = 1/4
    assert f_avg == pytest.approx(0.25, abs=1e-6)


def test_process_fidelity_rejects_singular_ideal():
    s = np.eye(36, dtype=complex)
    bad = np.zeros((36, 36), dtype=complex)
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
    mdrive = modulated_drive(cz_profile, drive, 0.0)
    # channel_on_pairs raises if the span leaks; returned leak must be tiny
    _, leak = channel_on_pairs(mdrive, ops, cz_profile.t_gate, 2, pairs)
    assert leak < 1e-9
    # the engine's support derived from these matrix units is the same set
    jumps = [np.sqrt(r) * op for c in ops for r, op in c.expand(2)]
    parts = liouvillian_parts(mdrive.h0, mdrive.coupling, jumps)
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
    # one-atom analogue of the gate basis: a qubit drive with decay q1 -> g
    # closes over the units of {q0, q1}^2 plus |g><g|, and the restricted
    # matrix is that block of the full one
    h = np.zeros((DIM, DIM), dtype=complex)
    h[np.ix_((Q0, Q1), (Q0, Q1))] = _random_h(8, 2)
    ops = [CollapseOperator(0.2, levels.lop(B, R)),
           CollapseOperator(0.1, levels.lop(G, Q1))]
    s = channel_superoperator(h, ops, 0.6)
    pairs = [(a, b) for a in (Q0, Q1) for b in (Q0, Q1)] + [(G, G)]
    m, leak = channel_on_pairs(h, ops, 0.6, 1, pairs)
    assert leak < 1e-9
    full = [UNITS.index(p) for p in pairs]
    assert np.max(np.abs(m - s[np.ix_(full, full)])) < 1e-7
    # each column of the full matrix is the evolved unit, read row-major
    for q, (i, j) in enumerate(UNITS):
        col = evolve_rho(_unit(i, j), h, ops, 0.6).ravel()
        assert np.max(np.abs(s[:, q] - col)) < 1e-7
    # the trace is kept on the restricted list; its Choi block over the
    # qubit levels is complete there
    tp_defect, min_eig = cptp_defects(m, pairs, 1, (Q0, Q1))
    assert tp_defect < TP_TOL
    assert min_eig > -CHOI_TOL


def test_shipped_raman_channels_are_cptp():
    from pathlib import Path

    from fsqsim.benchmarking.singleq import raman_pulse_channel
    from fsqsim.noise import noise_config_from_text

    cfg = noise_config_from_text(
        (Path(__file__).resolve().parents[1] / "configs" /
         "noise_reference.txt").read_text())
    for noise in (None, cfg):
        tp_defect, min_eig = cptp_defects(raman_pulse_channel(noise), UNITS,
                                          1, range(DIM))
        assert tp_defect < TP_TOL
        assert min_eig > -CHOI_TOL


def test_shipped_gate_channels_are_cptp(noiseless_executor, reference_executor):
    # the full 324-row Choi block over {q0, q1, r}^2 of the gate basis
    for ex in (noiseless_executor, reference_executor):
        tp_defect, min_eig = cptp_defects(ex.cz, ex.pairs, 2, (Q0, Q1, R))
        assert tp_defect < TP_TOL
        assert min_eig > -CHOI_TOL


def test_builders_reject_a_channel_that_is_not_cp(monkeypatch, cz_profile,
                                                 drive, reference_config):
    # each built channel goes through the CPTP check, which names it; every
    # one-atom channel is built and checked by channel_superoperator
    from fsqsim import channels, cli
    from fsqsim.benchmarking import singleq, twoq

    monkeypatch.setattr(twoq, "channel_on_pairs", lambda *args: (
        _transpose_map(args[4]), 0.0))
    with pytest.raises(ValueError, match=r"the CZ gate channel is not CPTP: "
                                         r".*minimum Choi eigenvalue -1"):
        twoq.GateExecutor(cz_profile, drive, reference_config)
    monkeypatch.setattr(channels, "channel_on_pairs", lambda *args: (
        _transpose_map(args[4]), 0.0))
    # the Raman pi/2 pulse lasts (pi/2) / (2 pi x 17 kHz) = 14.7059 us
    with pytest.raises(ValueError, match=re.escape(
            "the one-atom channel over 14.7059 us is not CPTP: "
            "trace-preservation defect 0 (bound 1e-08), minimum Choi "
            "eigenvalue -1 (bound -1e-07)")):
        singleq._x90_channel_cached.__wrapped__(0.0, 0.0, 0.0)
    # the Rabi step channel over the 0.5 us sample spacing
    with pytest.raises(ValueError, match=r"the one-atom channel over 0\.5 us "
                                         r"is not CPTP"):
        cli._rabi_rows(levels.lop(Q0, Q1) + levels.lop(Q1, Q0), [], 1.0, 3,
                       [(Q0,)])


@pytest.mark.parametrize("source", ["ionization", "rydberg_decay"])
def test_budget_channels_are_cptp_at_the_shipped_step_density(
        cz_profile, drive, reference_config, source):
    # each CF4:2 step is two exponentials of a Lindblad generator, so the
    # channel is CP up to rounding at any step count (ionization: -1.4e-14)
    from fsqsim.benchmarking import twoq

    ex = twoq.GateExecutor(cz_profile, drive, reference_config.only(source))
    tp_defect, min_eig = cptp_defects(ex.cz, ex.pairs, 2, (Q0, Q1, R))
    assert tp_defect < TP_TOL
    assert min_eig > -CHOI_TOL
    if source == "ionization":
        assert min_eig >= -1e-12
