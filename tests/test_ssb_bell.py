import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fsqsim.benchmarking.twoq import (
    QUARTER_PHASES,
    _bell_outcomes,
    _bell_result,
    _joint_outcomes,
    _run_sequence,
    _bell_state_vector,
    _assigned_probs,
    _srd_readout,
    bell_protocol,
    fit_ssb,
    generate_ssb,
    loss_excise,
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
    reference_srd_assigned_probs,
)


def test_recovery_without_cz_for_zero_depth():
    for seed in range(10):
        seq = generate_ssb(0, seed)
        assert not seq.recovery_cz  # U_init alone is undone by locals


def test_noiseless_return_exhaustive_short_depths(ideal_executor):
    # every phase pattern up to n_cz = 2 (4^(n+1) patterns each), plus a
    # random sample at depths 3-6
    import itertools

    from fsqsim.benchmarking.twoq import QUARTER_PHASES, SSBSequence, \
        _ideal_qubit_state, _product_recovery

    worst = 1.0
    for n_cz in (0, 1, 2):
        for pattern in itertools.product(range(4), repeat=n_cz + 1):
            phases = tuple(QUARTER_PHASES[i] for i in pattern)
            psi = _ideal_qubit_state(phases, n_cz)
            # construct via the public generator path by seed search is
            # wasteful; call the internal pieces the generator uses
            rec = _product_recovery(psi)
            if rec is not None:
                seq = SSBSequence(n_cz=n_cz, phases=phases,
                                  recovery_cliffords=rec, recovery_cz=False,
                                  seed=0)
            else:
                cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
                group = clifford_group()
                seq = None
                for b1 in group:
                    for b2 in group:
                        cand = cz @ (np.kron(b1.unitary, b2.unitary) @ psi)
                        rec = _product_recovery(cand)
                        if rec is not None:
                            seq = SSBSequence(
                                n_cz=n_cz, phases=phases,
                                recovery_cliffords=rec, recovery_cz=True,
                                seed=0, recovery_pre=(b1.index, b2.index),
                            )
                            break
                    if seq is not None:
                        break
                assert seq is not None, f"no recovery for {phases}"
            pops = _run_sequence(ideal_executor, seq)
            worst = min(worst, pops[Q1, Q1])
    assert worst > 1 - 1e-9


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
    probs = _assigned_probs(noiseless_executor.populations(v))
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
    for new, old in ((_assigned_probs(pops), reference_assigned_probs(pops)),
                     (_joint_outcomes(pops, _srd_readout()),
                      reference_srd_assigned_probs(pops))):
        assert list(new) == list(old)
        for key in old:
            assert abs(new[key] - old[key]) <= 1e-14, key


def test_bell_noiseless_fidelity(noiseless_executor):
    phases = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    res = bell_protocol(phases, shots=0, executor=noiseless_executor)
    assert res.fidelity > 1 - 1e-5


def test_parity_period_is_pi(noiseless_executor):
    bell = _bell_state_vector(noiseless_executor)
    phases = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    parities = []
    for phi in phases:
        v = noiseless_executor.global_pulse(phi) @ bell
        m = _assigned_probs(noiseless_executor.populations(v))
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
            m = _assigned_probs(noiseless_executor.populations(v))
            vals.append(m["00"] + m["11"] - m["01"] - m["10"])
        c, _, _, _ = fit_sinusoid_fixed_period(phases, vals, period=np.pi)
        return c

    z = embed_qubit_unitary(virtual_z_equivalent(0.77))
    rotated = noiseless_executor.product_unitary(z, z) @ bell
    assert contrast(rotated) == pytest.approx(contrast(bell), abs=1e-9)


def test_separable_state_bell_fidelity_bounded(cz_profile, drive):
    # replacing the CZ with identity leaves a product state: F <= 1/2
    ex = ideal_cz_executor()
    ex.cz = np.eye(len(ex.pairs), dtype=complex)
    phases = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    res = bell_protocol(phases, shots=0, executor=ex)
    assert res.fidelity <= 0.5 + 1e-9


def test_bell_variants_share_one_draw(reference_executor):
    # the CLI samples the outcomes once for both variants: each reads what
    # its own bell_protocol call, drawing from the same seed, reads
    phases = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    for shots in (0, 2000):
        outcomes = _bell_outcomes(phases, shots, 5, reference_executor)
        for excise in (False, True):
            assert _bell_result(phases, shots, outcomes, excise) == \
                bell_protocol(phases, shots, loss_excision=excise, seed=5,
                              executor=reference_executor)


def test_quarter_pulses_are_read_only_global_pulses(reference_executor):
    pulses = reference_executor.quarter_pulses
    assert list(pulses) == list(QUARTER_PHASES)
    for phase, m in pulses.items():
        u = embed_qubit_unitary(rotation(np.pi / 2, phase))
        assert np.array_equal(m, reference_executor.product_unitary(u, u))
        assert not m.flags.writeable
    assert reference_executor.quarter_pulses is pulses  # built once
    from fsqsim.benchmarking.twoq import SSBSequence

    with pytest.raises(ValueError, match="QUARTER_PHASES"):  # no pulse kept
        SSBSequence(n_cz=0, phases=(2 * np.pi,), recovery_cliffords=(0, 0),
                    recovery_cz=False, seed=0)


def test_bell_paper_calibrated(reference_executor):
    phases = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    raw = bell_protocol(phases, 2000, loss_excision=False,
                        seed=5, executor=reference_executor)
    exc = bell_protocol(phases, 2000, loss_excision=True,
                        seed=5, executor=reference_executor)
    # reference: 0.935(9) raw, 0.983(8) excised
    assert raw.fidelity == pytest.approx(0.935, abs=0.009 + 2 * raw.fidelity_err)
    assert exc.fidelity == pytest.approx(0.983, abs=0.008 + 2 * exc.fidelity_err)
    assert exc.fidelity > raw.fidelity
