"""Two-qubit benchmarking: SSB decay sequences and Bell-state generation.

All noisy circuit simulation runs in the 144-dimensional operator subspace
that the gate dynamics closes over (see channels.gate_pair_basis): the CZ
channel is built once per configuration, after which sequences are plain
matrix-vector algebra. Single-qubit pulses inside these protocols are ideal
unitaries; their own error is benchmarked separately (CRB).
"""

from dataclasses import dataclass, field
from functools import cache
from itertools import chain, product

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
# Gauss-Hermite nodes of the CZ channel's quasi-static detuning average, the
# fewest that keep both process infidelities at sigma = 0.2 MHz within 1e-11
# of a 9-node average (5 nodes: 3.2e-13; 4: 7.3e-11)
DEPHASING_NODES = 5


def product_unitary(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Pair-basis matrix of rho -> (u1 x u2) rho (u1 x u2)^dag."""
    return conjugation_on_pairs(np.kron(u1, u2), gate_pair_basis())


def _global_pulse(phase):
    u = embed_qubit_unitary(rotation(np.pi / 2, phase))
    return product_unitary(u, u)


@cache
def quarter_pulse(phase: float) -> np.ndarray:
    """:meth:`GateExecutor.global_pulse` at an entry of ``QUARTER_PHASES``:
    an SSB pulse, read-only and built once per process for every executor.
    (Bell's analyzer pulses are not kept: each is a 330 KB matrix.)"""
    m = _global_pulse(phase)
    m.flags.writeable = False
    return m


@cache
def recovery_pulse(c1: int, c2: int) -> np.ndarray:
    """Pair-basis matrix of the Cliffords with indices ``c1`` and ``c2`` in
    ``clifford_group()`` on atoms 1 and 2: an SSB recovery pulse, read-only
    and built once per process for every executor."""
    group = clifford_group()
    m = product_unitary(embed_qubit_unitary(group[c1].unitary),
                        embed_qubit_unitary(group[c2].unitary))
    m.flags.writeable = False
    return m


class GateExecutor:
    """Pair-basis circuit simulator around one calibrated CZ gate channel.

    ``cz`` is the gate's pair-basis matrix: the channel, then its
    single-qubit phase correction. The pulses do not depend on the channel;
    the SSB's are shared by every executor (:func:`quarter_pulse`,
    :func:`recovery_pulse`)."""

    def __init__(
        self,
        profile: CZPulseProfile,
        drive: RydbergDrive,
        noise: NoiseConfig | None,
    ):
        self.profile = profile
        self.drive = drive
        self.noise = noise
        self.pairs = gate_pair_basis()
        channel = self._build_cz_channel()
        check_cptp(channel, self.pairs, 2, (Q0, Q1, R), "the CZ gate channel")
        z = embed_qubit_unitary(virtual_z_equivalent(profile.phi_sq))
        self.cz = product_unitary(z, z) @ channel

    # -- channel construction -------------------------------------------

    def _build_cz_channel(self):
        collapses, sigma = [], 0.0
        if self.noise is not None:
            collapses = gate_collapse_ops(self.noise, self.drive.rabi_frequency)
            sigma = self.noise.rydberg_detuning_sigma
        deltas, weights = gaussian_quadrature(sigma, DEPHASING_NODES)
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

    def global_pulse(self, phase: float) -> np.ndarray:
        """Pair-basis matrix of a pi/2 pulse of laser phase ``phase`` on both
        atoms."""
        return _global_pulse(phase)

    # -- measurement ----------------------------------------------------

    def populations(self, v: np.ndarray) -> np.ndarray:
        """(6, 6) array of joint level populations: ``v`` as a 12 x 12 array
        of local slots, read at each atom's (l, l) slots."""
        d = [LOCAL_PAIRS.index((lv, lv)) for lv in range(DIM)]
        return np.maximum(v.reshape(len(LOCAL_PAIRS), -1)[np.ix_(d, d)].real, 0.0)


# -- SSB ------------------------------------------------------------------


@dataclass(frozen=True)
class SSBSequence:
    """Random-phase pi/2 / CZ ladder, drawn from ``seed``, with its recovery.

    ``phases`` has n_cz + 1 entries (initialization pulse plus one pulse per
    CZ), each one of ``QUARTER_PHASES`` so the circuit stays Clifford. The
    recovery runs the ``recovery_pre`` Clifford pair and a CZ, unless
    ``recovery_pre`` is (None, None), then the ``recovery_cliffords`` pair
    (``clifford_group()`` indices for atoms 1 and 2); with an ideal CZ it
    returns |11> up to a global phase.
    """

    n_cz: int
    phases: tuple
    recovery_cliffords: tuple
    seed: int
    recovery_pre: tuple = (None, None)

    def __post_init__(self):
        if not set(self.phases) <= set(QUARTER_PHASES):
            raise ValueError(f"SSB phases must be entries of QUARTER_PHASES, "
                             f"got {self.phases}")

    @property
    def recovery_cz(self) -> bool:
        """Whether the recovery runs a CZ (after ``recovery_pre``)."""
        return self.recovery_pre[0] is not None


# CZ on a two-qubit state psi held as the 2 x 2 array psi.reshape(2, 2)
_CZ_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])


@cache
def _ssb_table():
    """(states, first, step): the 12 ideal SSB states reachable from |11>, up
    to phase, as 2 x 2 arrays a[i, j] = psi[2i + j]; ``first[p]`` indexes the
    state after the first pulse at ``QUARTER_PHASES[p]``, ``step[s][p]`` the
    state after a CZ and that pulse from state ``s``."""
    pulses = [rotation(np.pi / 2, phase) for phase in QUARTER_PHASES]
    states = []

    def index(a):
        for k, b in enumerate(states):
            if abs(np.vdot(b, a)) > 1 - 1e-9:
                return k
        states.append(a)
        return len(states) - 1

    first = tuple(index(np.outer(r[:, 1], r[:, 1])) for r in pulses)
    step = []
    while len(step) < len(states):  # breadth first; each new state is queued
        a = _CZ_SIGNS * states[len(step)]
        step.append(tuple(index(r @ a @ r.T) for r in pulses))
    return tuple(states), first, tuple(step)


@cache
def _ssb_recovery(state: int):
    """(recovery_pre, recovery_cliffords) of table state ``state``: one scan,
    in lexicographic index order, for the first Clifford pair that takes the
    state to |11> up to phase, first alone, then after each pre-local pair
    and a CZ (``recovery_pre`` is (None, None) for the first)."""
    group = [g.unitary for g in clifford_group()]
    rows = np.array([u[1] for u in group])  # <1| u of each Clifford
    a = _ssb_table()[0][state]
    for pre in chain([(None, None)], product(range(len(group)), repeat=2)):
        b = a if pre[0] is None else \
            _CZ_SIGNS * (group[pre[0]] @ a @ group[pre[1]].T)
        hits = np.argwhere(np.abs(rows @ b @ rows.T) > 1 - 1e-9)
        if len(hits):
            return pre, (int(hits[0, 0]), int(hits[0, 1]))
    raise RuntimeError(f"no recovery for SSB table state {state}")


def generate_ssb(n_cz: int, seed: int) -> SSBSequence:
    """Random quarter-turn-phase sequence, walked on :func:`_ssb_table`,
    plus its end state's recovery."""
    if n_cz < 0:
        raise ValueError("n_cz must be non-negative")
    draws = np.random.default_rng(seed).integers(0, 4, size=n_cz + 1).tolist()
    _, first, step = _ssb_table()
    state = first[draws[0]]
    for p in draws[1:]:
        state = step[state][p]
    pre, rec = _ssb_recovery(state)
    return SSBSequence(
        n_cz=n_cz,
        phases=tuple(QUARTER_PHASES[i] for i in draws),
        recovery_cliffords=rec,
        seed=seed,
        recovery_pre=pre,
    )


def _run_sequence(executor: GateExecutor, seq: SSBSequence) -> np.ndarray:
    v = np.zeros(len(executor.pairs), dtype=complex)
    v[pair_index((Q1, Q1), (Q1, Q1))] = 1.0
    v = quarter_pulse(seq.phases[0]) @ v
    for k in range(seq.n_cz):
        v = executor.cz @ v
        v = quarter_pulse(seq.phases[k + 1]) @ v
    if seq.recovery_cz:
        v = recovery_pulse(*seq.recovery_pre) @ v
        v = executor.cz @ v
    v = recovery_pulse(*seq.recovery_cliffords) @ v
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
    noise config is the executor's own. At shots=0 the sequence seeds are
    the only draws from ``seed``, so every executor runs the same sequences.
    """
    n_cz_list = tuple(int(n) for n in n_cz_list)
    if n_seq < 2:
        raise ValueError(f"n_sequences must be at least 2 for a standard "
                         f"error of the mean, got {n_seq}")
    noise = executor.noise
    if noise is None or noise.raman_scatter_g == 0:
        erasure_tp, erasure_fp = 0.92, 0.03  # nominal; no g to flag anyway
    else:
        from ..readout import erasure_operating_point

        erasure_tp, erasure_fp = erasure_operating_point()

    rng = np.random.default_rng(seed)
    cols = {k: np.zeros((len(n_cz_list), n_seq)) for k in
            ("p11_raw", "p11_loss", "p11_erasure")}
    retention = []
    for li, n_cz in enumerate(n_cz_list):
        for si in range(n_seq):
            seq = generate_ssb(n_cz, seed=int(rng.integers(2**31)))
            pops = _run_sequence(executor, seq)
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
    v = executor.cz @ v
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


def bell_protocol(
    phases,
    shots: int,
    seed: int = 0,
    *,
    executor: GateExecutor,
) -> dict:
    """Bell-state generation and parity-oscillation analysis, raw and
    loss-excised: ``{"raw": BellResult, "excised": BellResult}``.

    Populations come from one measurement setting without the analyzer; the
    parity fringe is fitted with period pi over the scanned analyzer phases.
    F = (P00 + P11)/2 + C/2. The outcome frequencies of every setting are
    sampled once from ``seed`` (exact at shots=0), and both variants analyse
    the same draws; the excised one renormalizes each setting by the shots
    that kept both atoms. With a noise config, state preparation leaves each
    atom in g with probability eps_sp and readout goes through the
    state-resolved detection channel plus the sequence survival factor. The
    noise config is the executor's own.
    """
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

    meas = sampled(bell)
    fringe = [sampled(executor.global_pulse(phi) @ bell) for phi in phases]
    return {tag: _bell_result(phases, shots, meas, fringe, excise)
            for tag, excise in (("raw", False), ("excised", True))}


def _bell_result(phases, shots, meas, fringe, excise) -> BellResult:
    """The analysis of :func:`bell_protocol`'s outcome frequencies ``meas``
    (no analyzer) and ``fringe`` (one per analyzer phase)."""
    if excise:
        kept = 1.0 - meas["loss"]
        p00 = meas["00"] / kept
        p11 = meas["11"] / kept
    else:
        p00, p11 = meas["00"], meas["11"]
    retention = 1.0 - meas["loss"]

    parities = np.zeros(len(phases))
    sems = np.zeros(len(phases))
    for i, m in enumerate(fringe):
        kept = (1.0 - m["loss"]) if excise else 1.0
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
