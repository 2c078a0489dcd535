import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fsqsim.benchmarking.twoq import (
    IDEAL_READOUT,
    QUARTER_PHASES,
    SSBSequence,
    _joint_outcomes,
    _run_sequence,
    _bell_state_vector,
    _srd_readout,
    _ssb_recovery,
    _ssb_table,
    bell_protocol,
    fit_ssb,
    generate_ssb,
    loss_excise,
    product_unitary,
    quarter_pulse,
    recovery_pulse,
    run_ssb,
)
from fsqsim.channels import pair_index
from fsqsim.cliffords import clifford_group
from fsqsim.fitting import FitError
from fsqsim.levels import B, DIM, Q1
from fsqsim.pulses import embed_qubit_unitary, rotation
from oracles import (
    ideal_cz_executor,
    reference_assigned_probs,
    reference_bell_protocol,
    reference_generate_ssb,
    reference_srd_assigned_probs,
    reference_ssb_sequence,
)


def test_recovery_without_cz_for_zero_depth():
    for seed in range(10):
        seq = generate_ssb(0, seed)
        assert not seq.recovery_cz  # U_init alone is undone by locals


def test_noiseless_return_exhaustive_short_depths(ideal_executor):
    # every phase pattern up to n_cz = 2 (4^(n+1) patterns each), each with
    # the recovery the reference search finds for it
    worst = 1.0
    for n_cz in (0, 1, 2):
        for pattern in itertools.product(range(4), repeat=n_cz + 1):
            seq = reference_ssb_sequence(
                tuple(QUARTER_PHASES[i] for i in pattern))
            pops = _run_sequence(ideal_executor, seq)
            worst = min(worst, pops[Q1, Q1])
    assert worst > 1 - 1e-9


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 39), st.integers(0, 2**32 - 1))
def test_generate_ssb_matches_reference(n_cz, seed):
    assert generate_ssb(n_cz, seed) == reference_generate_ssb(n_cz, seed)


def test_generate_ssb_matches_reference_on_a_grid():
    # equal fields and equal repr: the indices are ints, as before
    for n_cz in range(40):
        for seed in range(60):
            seq = generate_ssb(n_cz, seed)
            ref = reference_generate_ssb(n_cz, seed)
            assert (seq, repr(seq)) == (ref, repr(ref)), (n_cz, seed)


def _recovered_qubit_state(seq):
    # the ideal two-qubit circuit of ``seq`` from |11>, rebuilt from the
    # rotation and the CZ, then its recovery
    group = clifford_group()
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    psi = np.zeros(4, dtype=complex)
    psi[3] = 1.0
    for k, phase in enumerate(seq.phases):
        if k:
            psi = cz @ psi
        r = rotation(np.pi / 2, phase)
        psi = np.kron(r, r) @ psi
    if seq.recovery_cz:
        b1, b2 = (group[i].unitary for i in seq.recovery_pre)
        psi = cz @ (np.kron(b1, b2) @ psi)
    u1, u2 = (group[i].unitary for i in seq.recovery_cliffords)
    return np.kron(u1, u2) @ psi


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_recovery_returns_eleven_up_to_phase(n_cz, seed):
    seq = generate_ssb(n_cz, seed)
    assert len(seq.phases) == n_cz + 1
    psi = _recovered_qubit_state(seq)
    assert abs(abs(psi[3]) - 1.0) <= 1e-12
    assert np.max(np.abs(psi[:3])) <= 1e-12


def test_recovery_takes_both_branches():
    # a product end state is undone by locals alone; an entangled one needs
    # the extra CZ, and both occur at two CZs
    seqs = [generate_ssb(2, seed) for seed in range(20)]
    assert {s.recovery_cz for s in seqs} == {False, True}
    for seq in seqs:
        assert abs(abs(_recovered_qubit_state(seq)[3]) - 1.0) <= 1e-12


def _table_walks():
    """{state: phase indices of one shortest walk to it} over the SSB
    table, breadth first from the first pulse."""
    _, first, step = _ssb_table()
    walks = {}
    frontier = [((p,), t) for p, t in enumerate(first)]
    while frontier:
        later = []
        for walk, t in frontier:
            if t not in walks:
                walks[t] = walk
                later += [(walk + (p,), u) for p, u in enumerate(step[t])]
        frontier = later
    return walks


def _table_sequence(state):
    walk = _table_walks()[state]
    pre, rec = _ssb_recovery(state)
    return SSBSequence(n_cz=len(walk) - 1,
                       phases=tuple(QUARTER_PHASES[p] for p in walk),
                       recovery_cliffords=rec, seed=0, recovery_pre=pre)


def test_ssb_table_has_twelve_states_closed_under_cz_and_pulses():
    states, first, step = _ssb_table()
    assert len(states) == len(step) == 12
    vecs = [a.ravel() for a in states]
    for i, j in itertools.combinations(range(12), 2):  # distinct up to phase
        assert abs(np.vdot(vecs[i], vecs[j])) < 1 - 1e-9
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    eleven = np.array([0.0, 0.0, 0.0, 1.0])
    for p, phase in enumerate(QUARTER_PHASES):
        r = rotation(np.pi / 2, phase)
        pulse = np.kron(r, r)
        assert abs(abs(np.vdot(vecs[first[p]], pulse @ eleven)) - 1) <= 1e-12
        for s in range(12):
            after = pulse @ cz @ vecs[s]
            assert abs(abs(np.vdot(vecs[step[s][p]], after)) - 1) <= 1e-12


def test_every_table_state_is_recovered():
    # exhaustive: each of the 12 states, reached by a walk of the table and
    # rebuilt pulse by pulse, goes back to |11> under its recovery
    assert sorted(_table_walks()) == list(range(12))
    entangled = 0
    for state in range(12):
        seq = _table_sequence(state)
        entangled += seq.recovery_cz
        psi = _recovered_qubit_state(seq)
        assert abs(abs(psi[3]) - 1.0) <= 1e-12
        assert np.max(np.abs(psi[:3])) <= 1e-12
        assert seq == reference_ssb_sequence(seq.phases)
    assert entangled == 6


def test_noiseless_return_sampled_depths(ideal_executor):
    worst = 1.0
    for seed in range(40):
        for n_cz in (3, 4, 5, 6):
            seq = generate_ssb(n_cz, seed * 31 + n_cz)
            pops = _run_sequence(ideal_executor, seq)
            worst = min(worst, pops[Q1, Q1])
    assert worst > 1 - 1e-9


def test_real_pulse_sequences_return(noiseless_executor):
    worst = 1.0
    for seed in range(10):
        seq = generate_ssb(4, seed)
        pops = _run_sequence(noiseless_executor, seq)
        worst = min(worst, pops[Q1, Q1])
    assert worst > 1 - 1e-5  # limited by the gate itself, not the recovery


def test_fit_ssb_exact():
    n = [2, 6, 10, 14]
    fit = fit_ssb([(k, 0.95 * 0.99**k, 1e-4) for k in n])
    assert fit.amplitude == pytest.approx(0.95, abs=1e-9)
    assert fit.fidelity == pytest.approx(0.99, abs=1e-9)


def test_fit_ssb_rejects_degenerate():
    with pytest.raises(FitError):
        fit_ssb([(5, 0.9, 0.01), (5, 0.91, 0.01), (5, 0.89, 0.01)])


def test_pure_loss_channel_gives_survival_fidelity():
    # ideal CZ followed by per-atom loss with probability lam: the kept
    # amplitudes scale by sqrt(1-lam) per atom index, so P11 decays by
    # (1-lam)^2 per gate and the fitted F must equal that survival
    lam = 0.01
    ex = ideal_cz_executor()
    n = len(ex.pairs)
    loss = np.zeros((n, n), dtype=complex)
    for q, (i, j) in enumerate(ex.pairs):
        l1, l2 = i // DIM, i % DIM
        r1, r2 = j // DIM, j % DIM
        atoms = [(l1, r1), (l2, r2)]
        keep = 1.0
        for left, right in atoms:
            if left != B or right != B:
                keep *= np.sqrt(1 - lam) ** ((left != B) + (right != B))
        loss[q, q] = keep
    ex.cz = loss @ ex.cz
    res = run_ssb((2, 4, 6, 8), 8, shots=0, executor=ex, seed=4)
    assert res.fit_raw.fidelity == pytest.approx((1 - lam) ** 2, abs=5e-4)


def test_run_ssb_noiseless_fit(noiseless_executor):
    res = run_ssb((2, 4, 6), 6, shots=0,
                  executor=noiseless_executor, seed=3)
    assert res.fit_raw.fidelity > 1 - 1e-4


def test_run_ssb_rejects_one_sequence(noiseless_executor):
    # one sequence has no standard error of the mean
    with pytest.raises(ValueError, match="n_sequences"):
        run_ssb((2, 4, 6), 1, shots=0, executor=noiseless_executor)


def test_ssb_synthetic_shot_noise_recovery():
    rng = np.random.default_rng(23)
    n = np.arange(2, 31, 4)
    truth = 0.9945
    p = 0.98 * truth**n
    shots = 10_000
    y = rng.binomial(shots, p) / shots
    sigma = np.sqrt(y * (1 - y) / shots)
    fit = fit_ssb(zip(n, y, sigma))
    assert abs(fit.fidelity - truth) < 0.003


def test_loss_excise_records():
    records = [("detected-1", "detected-1"), ("loss", "detected-1"),
               ("detected-0", "loss"), ("detected-1", "detected-0")]
    kept, retention = loss_excise(records)
    assert len(kept) == 2
    assert retention == pytest.approx(0.5)
    kept, retention = loss_excise([])
    assert retention == 1.0


def test_loss_excise_binomial_retention():
    rng = np.random.default_rng(1)
    p_loss = 0.2
    records = []
    for _ in range(20_000):
        o1 = "loss" if rng.random() < p_loss else "detected-1"
        o2 = "loss" if rng.random() < p_loss else "detected-0"
        records.append((o1, o2))
    _, retention = loss_excise(records)
    assert retention == pytest.approx(0.64, abs=0.01)


# -- Bell ---------------------------------------------------------------------


def test_bell_state_noiseless(noiseless_executor):
    v = _bell_state_vector(noiseless_executor)
    probs = _joint_outcomes(noiseless_executor.populations(v), IDEAL_READOUT)
    assert probs["00"] == pytest.approx(0.5, abs=1e-6)
    assert probs["11"] == pytest.approx(0.5, abs=1e-6)
    assert probs["01"] + probs["10"] < 1e-6


def test_populations_read_the_pair_diagonal(noiseless_executor):
    rng = np.random.default_rng(8)
    n = len(noiseless_executor.pairs)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    pops = noiseless_executor.populations(v)
    for l1 in range(DIM):
        for l2 in range(DIM):
            k = pair_index((l1, l2), (l1, l2))
            assert pops[l1, l2] == max(v[k].real, 0.0)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, (DIM, DIM), elements=st.floats(0.0, 1.0)))
def test_matrix_readout_matches_per_level_loops(pops):
    # joint populations sum to one; the readout matrix and the old loops
    # then agree to rounding, ideal and SRD alike
    assume(pops.sum() > 0)
    pops = pops / pops.sum()
    for new, old in ((_joint_outcomes(pops, IDEAL_READOUT),
                      reference_assigned_probs(pops)),
                     (_joint_outcomes(pops, _srd_readout()),
                      reference_srd_assigned_probs(pops))):
        assert list(new) == list(old)
        for key in old:
            assert abs(new[key] - old[key]) <= 1e-14, key


def test_bell_noiseless_fidelity(noiseless_executor):
    phases = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    res = bell_protocol(phases, shots=0, executor=noiseless_executor)
    assert res["raw"].fidelity > 1 - 1e-5
    assert res["excised"].fidelity > 1 - 1e-5


def test_parity_period_is_pi(noiseless_executor):
    bell = _bell_state_vector(noiseless_executor)
    phases = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    parities = []
    for phi in phases:
        v = noiseless_executor.global_pulse(phi) @ bell
        m = _joint_outcomes(noiseless_executor.populations(v), IDEAL_READOUT)
        parities.append(m["00"] + m["11"] - m["01"] - m["10"])
    parities = np.array(parities)
    half = len(phases) // 2
    assert np.max(np.abs(parities[:half] - parities[half:])) < 1e-6


def test_parity_contrast_invariant_under_global_virtual_z(noiseless_executor):
    from fsqsim.pulses import embed_qubit_unitary
    from fsqsim.fitting import fit_sinusoid_fixed_period
    from fsqsim.pulses import virtual_z_equivalent

    bell = _bell_state_vector(noiseless_executor)
    phases = np.linspace(0, 2 * np.pi, 24, endpoint=False)

    def contrast(state):
        vals = []
        for phi in phases:
            v = noiseless_executor.global_pulse(phi) @ state
            m = _joint_outcomes(noiseless_executor.populations(v),
                                IDEAL_READOUT)
            vals.append(m["00"] + m["11"] - m["01"] - m["10"])
        c, _, _, _ = fit_sinusoid_fixed_period(phases, vals, period=np.pi)
        return c

    z = embed_qubit_unitary(virtual_z_equivalent(0.77))
    rotated = product_unitary(z, z) @ bell
    assert contrast(rotated) == pytest.approx(contrast(bell), abs=1e-9)


def test_separable_state_bell_fidelity_bounded(cz_profile, drive):
    # replacing the CZ with identity leaves a product state: F <= 1/2
    ex = ideal_cz_executor()
    ex.cz = np.eye(len(ex.pairs), dtype=complex)
    phases = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    res = bell_protocol(phases, shots=0, executor=ex)
    assert res["raw"].fidelity <= 0.5 + 1e-9
    assert res["excised"].fidelity <= 0.5 + 1e-9


def test_bell_variants_share_one_draw(reference_executor):
    # bell_protocol samples the outcomes once for both variants: each reads
    # what a one-variant protocol drawing from the same seed reads
    phases = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    for shots in (0, 2000):
        res = bell_protocol(phases, shots, 5, executor=reference_executor)
        assert list(res) == ["raw", "excised"]
        for tag, excise in (("raw", False), ("excised", True)):
            assert res[tag] == reference_bell_protocol(
                phases, shots, loss_excision=excise, seed=5,
                executor=reference_executor)


def test_quarter_pulses_are_read_only_global_pulses(reference_executor):
    for phase in QUARTER_PHASES:
        m = quarter_pulse(phase)
        u = embed_qubit_unitary(rotation(np.pi / 2, phase))
        assert np.array_equal(m, product_unitary(u, u))
        assert np.array_equal(m, reference_executor.global_pulse(phase))
        assert not m.flags.writeable
        assert quarter_pulse(phase) is m  # built once per process
    with pytest.raises(ValueError, match="QUARTER_PHASES"):  # no pulse kept
        SSBSequence(n_cz=0, phases=(2 * np.pi,), recovery_cliffords=(0, 0),
                    seed=0)


def test_recovery_pulses_are_read_only_and_built_once(reference_config):
    from fsqsim.budget import error_budget

    # one error budget runs 4 x 96 sequences; the recoveries of the 12
    # table states use 9 distinct Clifford pairs, and it builds each once
    recovery_pulse.cache_clear()
    error_budget(reference_config)
    info = recovery_pulse.cache_info()
    group = clifford_group()
    pairs = set()
    for state in range(len(_ssb_table()[0])):
        pre, rec = _ssb_recovery(state)
        pairs.add(rec)
        if pre[0] is not None:
            pairs.add(pre)
    assert len(pairs) == info.misses == 9 and info.hits > 0
    for c1, c2 in sorted(pairs):
        m = recovery_pulse(c1, c2)
        u1 = embed_qubit_unitary(group[c1].unitary)
        u2 = embed_qubit_unitary(group[c2].unitary)
        assert np.array_equal(m, product_unitary(u1, u2))
        assert not m.flags.writeable
        assert recovery_pulse(c1, c2) is m
    assert recovery_pulse.cache_info().misses == info.misses


def test_bell_paper_calibrated(reference_executor):
    phases = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    res = bell_protocol(phases, 2000, seed=5, executor=reference_executor)
    raw, exc = res["raw"], res["excised"]
    # reference: 0.935(9) raw, 0.983(8) excised
    assert raw.fidelity == pytest.approx(0.935, abs=0.009 + 2 * raw.fidelity_err)
    assert exc.fidelity == pytest.approx(0.983, abs=0.008 + 2 * exc.fidelity_err)
    assert exc.fidelity > raw.fidelity
