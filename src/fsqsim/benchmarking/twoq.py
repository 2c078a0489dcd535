"""Two-qubit benchmarking: SSB decay sequences and Bell-state generation.

All noisy circuit simulation runs in the 144-dimensional operator subspace
that the gate dynamics closes over (see channels.gate_pair_basis): the CZ
channel is built once per configuration, after which sequences are plain
matrix-vector algebra. Single-qubit pulses inside these protocols are ideal
unitaries; their own error is benchmarked separately and the SSB is designed
to be only weakly sensitive to it.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..channels import (
    LOCAL_PAIRS,
    channel_on_pairs,
    check_cptp,
    conjugation_on_pairs,
    gate_pair_basis,
    pair_index,
)
from ..cliffords import clifford_group
from ..fitting import DecayFit, fit_power_decay, fit_sinusoid_fixed_period
from ..levels import DIM, G, Q0, Q1, R, X
from ..noise import NoiseConfig, gate_collapse_ops, gaussian_quadrature
from ..pulses import embed_qubit_unitary, rotation, virtual_z_equivalent
from ..rydberg import (
    CZPulseProfile,
    RydbergDrive,
    assemble_unitary,
    modulated_drive,
    sector_unitaries,
)

QUARTER_PHASES = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)
KEPT_LEVELS = (Q0, Q1, X)  # valid computational states for loss correction


class GateExecutor:
    """Pair-basis circuit simulator around one calibrated CZ gate channel.

    ``cz`` is the gate's pair-basis matrix: the channel, then its
    single-qubit phase correction."""

    def __init__(
        self,
        profile: CZPulseProfile,
        drive: RydbergDrive,
        noise: NoiseConfig | None = None,
        dephasing_nodes: int = 9,
    ):
        self.profile = profile
        self.drive = drive
        self.noise = noise
        self.pairs = gate_pair_basis()
        channel = self._build_cz_channel(dephasing_nodes)
        check_cptp(channel, self.pairs, 2, (Q0, Q1, R), "the CZ gate channel")
        z = embed_qubit_unitary(virtual_z_equivalent(profile.phi_sq))
        self.cz = self.product_unitary(z, z) @ channel

    # -- channel construction -------------------------------------------

    def _build_cz_channel(self, n_nodes):
        collapses, sigma = [], 0.0
        if self.noise is not None:
            collapses = gate_collapse_ops(self.noise, self.drive.rabi_frequency)
            sigma = self.noise.rydberg_detuning_sigma
        deltas, weights = gaussian_quadrature(sigma, n_nodes)
        if collapses:
            maps = [
                channel_on_pairs(
                    modulated_drive(self.profile, self.drive, delta),
                    collapses, self.profile.t_gate, 2, self.pairs,
                )[0]
                for delta in deltas
            ]
        else:
            u2, u4 = sector_unitaries(
                self.profile, self.drive, detuning_edges=[0.0],
                detuning_values=deltas[:, None],
            )
            maps = [
                conjugation_on_pairs(assemble_unitary(a, b), self.pairs)
                for a, b in zip(u2, u4)
            ]
        return sum(w * m for w, m in zip(weights, maps))

    def product_unitary(self, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        """Pair-basis matrix of rho -> (u1 x u2) rho (u1 x u2)^dag."""
        return conjugation_on_pairs(np.kron(u1, u2), self.pairs)

    def global_pulse(self, phase: float) -> np.ndarray:
        """Pair-basis matrix of a pi/2 pulse of laser phase ``phase`` on both
        atoms."""
        u = embed_qubit_unitary(rotation(np.pi / 2, phase))
        return self.product_unitary(u, u)

    @cached_property
    def quarter_pulses(self) -> dict:
        """:meth:`global_pulse` at each of ``QUARTER_PHASES``, keyed by
        phase and read-only: the SSB's pulses, built at its first sequence.
        (Bell's analyzer pulses are not kept: each is a 330 KB matrix.)"""
        pulses = {}
        for phase in QUARTER_PHASES:
            pulses[phase] = self.global_pulse(phase)
            pulses[phase].flags.writeable = False
        return pulses

    # -- states and measurement ------------------------------------------

    def initial_state(self) -> np.ndarray:
        v = np.zeros(len(self.pairs), dtype=complex)
        v[pair_index((Q1, Q1), (Q1, Q1))] = 1.0
        return v

    def apply_cz(self, v: np.ndarray) -> np.ndarray:
        return self.cz @ v

    def populations(self, v: np.ndarray) -> np.ndarray:
        """(6, 6) array of joint level populations: ``v`` as a 12 x 12 array
        of local slots, read at each atom's (l, l) slots."""
        d = [LOCAL_PAIRS.index((lv, lv)) for lv in range(DIM)]
        return np.maximum(v.reshape(len(LOCAL_PAIRS), -1)[np.ix_(d, d)].real, 0.0)


# -- SSB ------------------------------------------------------------------


@dataclass(frozen=True)
class SSBSequence:
    """Random-phase pi/2 / CZ ladder with its computed recovery.

    ``phases`` has n_cz + 1 entries (initialization pulse plus one pulse per
    CZ), each one of ``QUARTER_PHASES`` so the circuit stays Clifford. The
    recovery has the graph-state normal form locals . CZ . locals (the CZ
    and pre-locals are omitted when the final state is already a product):
    executed as ``recovery_pre`` Cliffords, then CZ if ``recovery_cz``, then
    ``recovery_cliffords``, which returns any reachable stabilizer state to
    |11> exactly.
    """

    n_cz: int
    phases: tuple
    recovery_cliffords: tuple
    recovery_cz: bool
    seed: int
    recovery_pre: tuple = (None, None)

    def __post_init__(self):
        if not set(self.phases) <= set(QUARTER_PHASES):
            raise ValueError(f"SSB phases must be entries of QUARTER_PHASES, "
                             f"got {self.phases}")


def _ideal_qubit_state(phases, n_cz):
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    psi = np.zeros(4, dtype=complex)
    psi[3] = 1.0
    r = rotation(np.pi / 2, phases[0])
    psi = np.kron(r, r) @ psi
    for k in range(n_cz):
        psi = cz @ psi
        r = rotation(np.pi / 2, phases[k + 1])
        psi = np.kron(r, r) @ psi
    return psi


def _single_qubit_factors(psi):
    # psi[2i + j] = u_i v_j for a product state, i.e. rank-1 reshape
    m = psi.reshape(2, 2)
    u, s, vh = np.linalg.svd(m)
    if s[-1] > 1e-9:
        return None
    return u[:, 0], vh[0, :]


def _clifford_to_target(state):
    """Lowest-index Clifford mapping ``state`` onto |q1> up to phase."""
    for g in clifford_group():
        if abs((g.unitary @ state)[1]) > 1 - 1e-9:
            return g.index
    return None


def _product_recovery(psi):
    """(c1, c2) Clifford indices with (c1 x c2) psi = |11> up to phase."""
    factors = _single_qubit_factors(psi)
    if factors is None:
        return None
    c1 = _clifford_to_target(factors[0])
    c2 = _clifford_to_target(factors[1])
    if c1 is None or c2 is None:
        return None
    return c1, c2


def generate_ssb(n_cz: int, seed: int) -> SSBSequence:
    """Random quarter-turn-phase sequence plus its exact recovery."""
    if n_cz < 0:
        raise ValueError("n_cz must be non-negative")
    rng = np.random.default_rng(seed)
    phases = tuple(
        QUARTER_PHASES[i] for i in rng.integers(0, 4, size=n_cz + 1)
    )
    psi = _ideal_qubit_state(phases, n_cz)
    rec = _product_recovery(psi)
    if rec is not None:
        return SSBSequence(
            n_cz=n_cz,
            phases=phases,
            recovery_cliffords=rec,
            recovery_cz=False,
            seed=seed,
        )
    # entangled stabilizer state: find pre-locals so one CZ disentangles it
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    group = clifford_group()
    for b1 in group:
        u1 = b1.unitary
        for b2 in group:
            cand = cz @ (np.kron(u1, b2.unitary) @ psi)
            rec = _product_recovery(cand)
            if rec is not None:
                return SSBSequence(
                    n_cz=n_cz,
                    phases=phases,
                    recovery_cliffords=rec,
                    recovery_cz=True,
                    seed=seed,
                    recovery_pre=(b1.index, b2.index),
                )
    raise RuntimeError(
        "no recovery found; impossible for a two-qubit stabilizer state"
    )


def _run_sequence(executor: GateExecutor, seq: SSBSequence) -> np.ndarray:
    group = clifford_group()
    pulses = executor.quarter_pulses
    v = executor.initial_state()
    v = pulses[seq.phases[0]] @ v
    for k in range(seq.n_cz):
        v = executor.apply_cz(v)
        v = pulses[seq.phases[k + 1]] @ v
    if seq.recovery_cz:
        if seq.recovery_pre[0] is not None:
            b1 = embed_qubit_unitary(group[seq.recovery_pre[0]].unitary)
            b2 = embed_qubit_unitary(group[seq.recovery_pre[1]].unitary)
            v = executor.product_unitary(b1, b2) @ v
        v = executor.apply_cz(v)
    u1 = embed_qubit_unitary(group[seq.recovery_cliffords[0]].unitary)
    u2 = embed_qubit_unitary(group[seq.recovery_cliffords[1]].unitary)
    v = executor.product_unitary(u1, u2) @ v
    return executor.populations(v)


def _ssb_statistics(pops: np.ndarray, erasure_tp: float, erasure_fp: float):
    """Exact per-sequence observables from the joint level populations."""
    p11 = pops[Q1, Q1]
    kept = sum(pops[a, b] for a in KEPT_LEVELS for b in KEPT_LEVELS)
    any_g = (
        pops[G, :].sum() + pops[:, G].sum() - pops[G, G]
    )
    # erasure image flags g at rate tp, everything else at the fp rate
    flagged = any_g * erasure_tp + (1.0 - any_g) * (
        1.0 - (1.0 - erasure_fp) ** 2
    )
    return {
        "p11_raw": p11,
        "p11_loss": p11 / kept if kept > 0 else np.nan,
        "retention_loss": kept,
        "p11_erasure": p11 * (1 - erasure_fp) ** 2 / (1 - flagged)
        if flagged < 1
        else np.nan,
        "retention_erasure": 1.0 - flagged,
    }


@dataclass(frozen=True)
class SSBResult:
    n_cz: tuple
    p11_raw: np.ndarray = field(repr=False)
    sem_raw: np.ndarray = field(repr=False)
    fit_raw: DecayFit
    p11_loss: np.ndarray = field(repr=False)
    sem_loss: np.ndarray = field(repr=False)
    fit_loss: DecayFit
    p11_erasure: np.ndarray = field(repr=False)
    sem_erasure: np.ndarray = field(repr=False)
    fit_erasure: DecayFit
    retention_loss: float
    shots: int
    n_sequences: int


def fit_ssb(data) -> DecayFit:
    """Weighted fit of P11 = a * F^N from (N, P11, sigma) triples."""
    data = list(data)
    n = [d[0] for d in data]
    y = [d[1] for d in data]
    s = [d[2] for d in data]
    return fit_power_decay(n, y, s, offset=0.0)


def run_ssb(
    n_cz_list,
    n_seq: int,
    shots: int,
    seed: int = 0,
    *,
    executor: GateExecutor,
) -> SSBResult:
    """Simulate and fit the three SSB variants (raw, erasure, loss-excised).

    Shot noise is binomial around the exact simulated probabilities; with
    shots=0 the exact probabilities are fitted directly (used by the error
    budget, where sampling noise would only obscure the comparison). The
    noise config is the executor's own.
    """
    n_cz_list = tuple(int(n) for n in n_cz_list)
    rng = np.random.default_rng(seed)
    return _run_ssb(executor, n_cz_list, n_seq, shots, rng,
                    _ssb_sequences(n_cz_list, n_seq, rng))


def _ssb_sequences(n_cz_list, n_seq, rng):
    """The sequences :func:`run_ssb` runs, in its order, generated lazily:
    each draws its seed from ``rng`` only when it is reached, so at shots > 0
    the seeds interleave with the shot draws. At shots=0 they are the only
    draws, so a list of them from a fresh ``default_rng(seed)`` can be run
    on any number of executors."""
    for n_cz in n_cz_list:
        for _ in range(n_seq):
            yield generate_ssb(n_cz, seed=int(rng.integers(2**31)))


def _run_ssb(executor, n_cz_list, n_seq, shots, rng, sequences) -> SSBResult:
    """:func:`run_ssb` on the given ``sequences`` (n_seq per entry of the
    tuple ``n_cz_list``); ``rng`` draws the shots."""
    if n_seq < 2:
        raise ValueError(f"n_sequences must be at least 2 for a standard "
                         f"error of the mean, got {n_seq}")
    noise = executor.noise
    if noise is None or noise.raman_scatter_g == 0:
        erasure_tp, erasure_fp = 0.92, 0.03  # nominal; no g to flag anyway
    else:
        from ..readout import erasure_operating_point

        erasure_tp, erasure_fp = erasure_operating_point()

    cols = {k: np.zeros((len(n_cz_list), n_seq)) for k in
            ("p11_raw", "p11_loss", "p11_erasure")}
    retention = []
    sequences = iter(sequences)
    for li in range(len(n_cz_list)):
        for si in range(n_seq):
            pops = _run_sequence(executor, next(sequences))
            stats = _ssb_statistics(pops, erasure_tp, erasure_fp)
            retention.append(stats["retention_loss"])
            if shots:
                raw = rng.binomial(shots, min(stats["p11_raw"], 1.0)) / shots
                kept = rng.binomial(shots, min(stats["retention_loss"], 1.0))
                p_cond = min(stats["p11_loss"], 1.0)
                loss = rng.binomial(kept, p_cond) / kept if kept else np.nan
                kept_e = rng.binomial(shots, min(stats["retention_erasure"], 1.0))
                p_e = min(stats["p11_erasure"], 1.0)
                era = rng.binomial(kept_e, p_e) / kept_e if kept_e else np.nan
                cols["p11_raw"][li, si] = raw
                cols["p11_loss"][li, si] = loss
                cols["p11_erasure"][li, si] = era
            else:
                cols["p11_raw"][li, si] = stats["p11_raw"]
                cols["p11_loss"][li, si] = stats["p11_loss"]
                cols["p11_erasure"][li, si] = stats["p11_erasure"]

    out = {"n_cz": n_cz_list, "shots": shots, "n_sequences": n_seq,
           "retention_loss": float(np.mean(retention))}
    for key, tag in (("p11_raw", "raw"), ("p11_loss", "loss"),
                     ("p11_erasure", "erasure")):
        mean = np.nanmean(cols[key], axis=1)
        sem = np.maximum(np.nanstd(cols[key], axis=1, ddof=1)
                         / np.sqrt(n_seq), 1e-6)
        out[f"p11_{tag}"] = mean
        out[f"sem_{tag}"] = sem
        out[f"fit_{tag}"] = fit_ssb(zip(n_cz_list, mean, sem))
    return SSBResult(**out)


# -- Bell state -------------------------------------------------------------

# Second pi/2 pulse phase closing the Bell circuit (see test_twoq for the
# noiseless verification that this yields (|00> + e^{i chi}|11>)/sqrt(2)).
BELL_SECOND_PHASE = np.pi / 2

# Per-atom survival of everything outside the gate itself (trap handling,
# free-space release and recapture, slow imaging); free parameter chosen so
# the raw-vs-excised fidelity gap matches the reported retention.
SEQUENCE_SURVIVAL = 0.993


@dataclass(frozen=True)
class BellResult:
    p00: float
    p11: float
    contrast: float
    contrast_err: float
    phase_offset: float
    fidelity: float
    fidelity_err: float
    retention: float
    shots_per_point: int


def _bell_state_vector(executor: GateExecutor, eps_sp: float = 0.0) -> np.ndarray:
    # product mixture: each atom prepared in q1, left in g with prob eps_sp
    local = np.zeros(len(LOCAL_PAIRS), dtype=complex)
    local[LOCAL_PAIRS.index((Q1, Q1))] = 1.0 - eps_sp
    local[LOCAL_PAIRS.index((G, G))] = eps_sp
    v = np.kron(local, local)
    v = executor.global_pulse(0.0) @ v
    v = executor.apply_cz(v)
    v = executor.global_pulse(BELL_SECOND_PHASE) @ v
    return v


# Readout matrices: row l holds (P(read 0 | l), P(read 1 | l)); whatever is
# left of a row is loss. The ideal assignment reads x as q0, images g as 0
# and loses r and B.
IDEAL_READOUT = np.array(
    [[lv in (Q0, X, G), lv == Q1] for lv in range(DIM)], dtype=float
)


def _srd_readout() -> np.ndarray:
    """The default detection channel times the sequence survival factor;
    Rydberg residue is ejected during readout, so the r row is zero."""
    from ..readout import DETECTED_0, DETECTED_1, SRDModel, srd_probabilities

    model = SRDModel()
    m = np.zeros((DIM, 2))
    for lv in range(DIM):
        if lv != R:
            p = srd_probabilities(lv, model)
            m[lv] = p[DETECTED_0], p[DETECTED_1]
    return m * SEQUENCE_SURVIVAL


def _joint_outcomes(pops: np.ndarray, readout: np.ndarray):
    """(p00, p01, p10, p11, loss) of joint level populations read through
    ``readout`` on each atom; loss is one minus the four outcomes."""
    (p00, p01), (p10, p11) = readout.T @ pops @ readout
    return {"00": p00, "01": p01, "10": p10, "11": p11,
            "loss": 1.0 - (p00 + p01 + p10 + p11)}


def _assigned_probs(pops: np.ndarray):
    """(p00, p01, p10, p11, loss) under the ideal readout assignment."""
    return _joint_outcomes(pops, IDEAL_READOUT)


def bell_protocol(
    phases,
    shots: int,
    loss_excision: bool = False,
    seed: int = 0,
    *,
    executor: GateExecutor,
) -> BellResult:
    """Bell-state generation and parity-oscillation analysis.

    Populations come from one measurement setting without the analyzer; the
    parity fringe is fitted with period pi over the scanned analyzer phases.
    F = (P00 + P11)/2 + C/2. With a noise config, state preparation leaves
    each atom in g with probability eps_sp and readout goes through the
    state-resolved detection channel plus the sequence survival factor. The
    noise config is the executor's own.
    """
    outcomes = _bell_outcomes(phases, shots, seed, executor)
    return _bell_result(phases, shots, outcomes, loss_excision)


def _bell_outcomes(phases, shots, seed, executor):
    """Outcome frequencies (sampled from ``seed``, or exact at shots=0) of
    the population setting, then of each analyzer phase: what
    :func:`bell_protocol` reads for either ``loss_excision``."""
    phases = np.asarray(phases, dtype=float)
    if np.ptp(phases) < np.pi:
        raise ValueError("analyzer phases must cover at least one pi period")
    noise = executor.noise
    rng = np.random.default_rng(seed)
    eps_sp = noise.state_prep_error if noise is not None else 0.0
    bell = _bell_state_vector(executor, eps_sp)

    readout = IDEAL_READOUT if noise is None else _srd_readout()

    def sampled(v):
        probs = _joint_outcomes(executor.populations(v), readout)
        keys = list(probs)
        pr = np.clip([probs[k] for k in keys], 0, None)
        pr = pr / pr.sum()
        if shots:
            counts = rng.multinomial(shots, pr)
            return dict(zip(keys, counts / shots))
        return dict(zip(keys, pr))

    return [sampled(bell)] + [sampled(executor.global_pulse(phi) @ bell)
                              for phi in phases]


def _bell_result(phases, shots, outcomes, loss_excision) -> BellResult:
    """:func:`bell_protocol`'s analysis of its ``outcomes``."""
    phases = np.asarray(phases, dtype=float)
    meas, fringe = outcomes[0], outcomes[1:]
    if loss_excision:
        kept = 1.0 - meas["loss"]
        p00 = meas["00"] / kept
        p11 = meas["11"] / kept
    else:
        p00, p11 = meas["00"], meas["11"]
    retention = 1.0 - meas["loss"]

    parities = np.zeros(len(phases))
    sems = np.zeros(len(phases))
    for i, m in enumerate(fringe):
        kept = (1.0 - m["loss"]) if loss_excision else 1.0
        parities[i] = (m["00"] + m["11"] - m["01"] - m["10"]) / kept
        sems[i] = max(1.0 / np.sqrt(shots), 1e-6) if shots else 1e-6
    contrast, delta, _, c_err = fit_sinusoid_fixed_period(
        phases, parities, period=np.pi, sigma=sems
    )
    contrast = min(contrast, 1.0)
    fidelity = (p00 + p11) / 2.0 + contrast / 2.0
    pop_err = np.sqrt(p00 * (1 - p00) / shots + p11 * (1 - p11) / shots) / 2 \
        if shots else 0.0
    return BellResult(
        p00=float(p00),
        p11=float(p11),
        contrast=float(contrast),
        contrast_err=float(c_err),
        phase_offset=float(delta),
        fidelity=float(min(fidelity, 1.0)),
        fidelity_err=float(np.hypot(pop_err, c_err / 2)),
        retention=float(retention),
        shots_per_point=shots,
    )


def loss_excise(records):
    """Remove shots where either atom's SRD outcome is a loss.

    ``records`` is a sequence of per-shot (outcome_atom1, outcome_atom2)
    pairs using the srd outcome labels. Returns (kept_records, retention).
    """
    from ..readout import LOSS

    records = list(records)
    kept = [r for r in records if LOSS not in r]
    retention = len(kept) / len(records) if records else 1.0
    return kept, retention
