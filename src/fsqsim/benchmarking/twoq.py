"""Two-qubit benchmarking: SSB decay sequences and Bell-state generation.

All noisy circuit simulation runs in the 144-dimensional operator subspace
that the gate dynamics closes over (see channels.gate_pair_basis): the CZ
channel is built once per configuration, after which sequences are plain
matrix-vector algebra. Single-qubit pulses inside these protocols are ideal
unitaries; their own error is benchmarked separately and the SSB is designed
to be only weakly sensitive to it.
"""

from dataclasses import dataclass, field

import numpy as np

from ..channels import channel_on_pairs, conjugation_on_pairs, gate_pair_basis
from ..cliffords import clifford_group
from ..fitting import DecayFit, fit_power_decay, fit_sinusoid_fixed_period
from ..levels import B, DIM, G, Q0, Q1, R, X, unravel_index
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
# readout assignment: x masquerades as q0, g is imaged as 0, r is lost
ASSIGN_0 = (Q0, X, G)
ASSIGN_1 = (Q1,)
ASSIGN_LOSS = (B, R)
KEPT_LEVELS = (Q0, Q1, X)  # valid computational states for loss correction

DETECTED_0 = "detected-0"
DETECTED_1 = "detected-1"
LOSS = "loss"


class GateExecutor:
    """Pair-basis circuit simulator around one calibrated CZ gate channel."""

    def __init__(
        self,
        profile: CZPulseProfile | None,
        drive: RydbergDrive | None,
        noise: NoiseConfig | None = None,
        dephasing_nodes: int = 9,
        rtol: float = 1e-6,
        atol: float = 1e-9,
        ideal_cz: bool = False,
    ):
        self.profile = profile
        self.drive = drive
        self.noise = noise
        self.pairs = gate_pair_basis(2)
        self._index = {p: k for k, p in enumerate(self.pairs)}
        self._diag_slots = {
            unravel_index(p[0], 2): k
            for k, p in enumerate(self.pairs)
            if p[0] == p[1]
        }
        if ideal_cz:
            from ..rydberg import ideal_cz_unitary

            self._cz = conjugation_on_pairs(ideal_cz_unitary(), self.pairs)
        else:
            self._cz = self._build_cz_channel(dephasing_nodes, rtol, atol)
            comp = virtual_z_equivalent(profile.phi_sq)
            z = embed_qubit_unitary(comp)
            self._cz = self.product_unitary(z, z) @ self._cz

    # -- channel construction -------------------------------------------

    def _detuning_ensemble(self, n_nodes):
        if self.noise is None:
            return [(0.0, 1.0)]
        return list(zip(*gaussian_quadrature(
            self.noise.rydberg_detuning_sigma, n_nodes)))

    def _build_cz_channel(self, n_nodes, rtol, atol):
        collapses = []
        if self.noise is not None:
            collapses = gate_collapse_ops(self.noise, self.drive.rabi_frequency)
        s = np.zeros((len(self.pairs), len(self.pairs)), dtype=complex)
        for delta, weight in self._detuning_ensemble(n_nodes):
            shifted = RydbergDrive(
                rabi_frequency=self.drive.rabi_frequency,
                detuning=self.drive.detuning + delta,
                interaction=self.drive.interaction,
            )
            if collapses:
                mdrive = modulated_drive(self.profile, shifted, 2)
                m, _ = channel_on_pairs(
                    mdrive, collapses, self.profile.t_gate, 2, self.pairs,
                    rtol, atol,
                )
            else:
                u2, u4 = sector_unitaries(self.profile, shifted, rtol, atol)
                m = conjugation_on_pairs(assemble_unitary(u2, u4), self.pairs)
            s += weight * m
        return s

    def product_unitary(self, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        """Pair-basis matrix of rho -> (u1 x u2) rho (u1 x u2)^dag."""
        return conjugation_on_pairs(np.kron(u1, u2), self.pairs)

    def global_pulse(self, phase: float, area: float = np.pi / 2) -> np.ndarray:
        u = embed_qubit_unitary(rotation(area, phase))
        return self.product_unitary(u, u)

    # -- states and measurement ------------------------------------------

    def initial_state(self) -> np.ndarray:
        v = np.zeros(len(self.pairs), dtype=complex)
        v[self._index[(Q1 * DIM + Q1,) * 2]] = 1.0
        return v

    def apply_cz(self, v: np.ndarray) -> np.ndarray:
        return self._cz @ v

    def populations(self, v: np.ndarray) -> np.ndarray:
        """(6, 6) array of joint level populations."""
        out = np.zeros((DIM, DIM))
        for (l1, l2), k in self._diag_slots.items():
            out[l1, l2] = max(v[k].real, 0.0)
        return out


# -- SSB ------------------------------------------------------------------


@dataclass(frozen=True)
class SSBSequence:
    """Random-phase pi/2 / CZ ladder with its computed recovery.

    ``phases`` has n_cz + 1 entries (initialization pulse plus one pulse per
    CZ), all quarter-turn multiples so the circuit stays Clifford. The
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
    v = executor.initial_state()
    v = executor.global_pulse(seq.phases[0]) @ v
    for k in range(seq.n_cz):
        v = executor.apply_cz(v)
        v = executor.global_pulse(seq.phases[k + 1]) @ v
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
    noise: NoiseConfig | None,
    profile: CZPulseProfile | None = None,
    drive: RydbergDrive | None = None,
    seed: int = 0,
    erasure_tp: float | None = None,
    erasure_fp: float | None = None,
    executor: GateExecutor | None = None,
) -> SSBResult:
    """Simulate and fit the three SSB variants (raw, erasure, loss-excised).

    Shot noise is binomial around the exact simulated probabilities; with
    shots=0 the exact probabilities are fitted directly (used by the error
    budget, where sampling noise would only obscure the comparison).
    """
    from ..czopt import default_profile

    if executor is None:
        profile = profile or default_profile()
        drive = drive or RydbergDrive()
        executor = GateExecutor(profile, drive, noise)
    if erasure_tp is None:
        if noise is None or noise.raman_scatter_g == 0:
            erasure_tp, erasure_fp = 0.92, 0.03  # nominal; no g to flag anyway
        else:
            from ..readout import erasure_operating_point

            erasure_tp, erasure_fp = erasure_operating_point()

    n_cz_list = tuple(int(n) for n in n_cz_list)
    cols = {k: np.zeros((len(n_cz_list), n_seq)) for k in
            ("p11_raw", "p11_loss", "p11_erasure")}
    retention = []
    rng = np.random.default_rng(seed)
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
    v = np.zeros(len(executor.pairs), dtype=complex)
    # product mixture: each atom prepared in q1, left in g with prob eps_sp
    for l1, w1 in ((Q1, 1.0 - eps_sp), (G, eps_sp)):
        for l2, w2 in ((Q1, 1.0 - eps_sp), (G, eps_sp)):
            if w1 * w2 > 0:
                v[executor._index[(l1 * DIM + l2,) * 2]] = w1 * w2
    v = executor.global_pulse(0.0) @ v
    v = executor.apply_cz(v)
    v = executor.global_pulse(BELL_SECOND_PHASE) @ v
    return v


def _ideal_assignment(level):
    if level in ASSIGN_0:
        return "0"
    if level in ASSIGN_1:
        return "1"
    return None


def _assigned_probs(pops: np.ndarray):
    """(p00, p01, p10, p11, loss) under the ideal readout assignment."""
    p = {"00": 0.0, "01": 0.0, "10": 0.0, "11": 0.0, "loss": 0.0}
    for l1 in range(DIM):
        for l2 in range(DIM):
            b1, b2 = _ideal_assignment(l1), _ideal_assignment(l2)
            if b1 is None or b2 is None:
                p["loss"] += pops[l1, l2]
            else:
                p[b1 + b2] += pops[l1, l2]
    return p


def _srd_assigned_probs(pops: np.ndarray, srd_model, survival: float):
    """Joint outcome probabilities through the detection channel."""
    from ..readout import DETECTED_0 as D0
    from ..readout import DETECTED_1 as D1
    from ..readout import LOSS as LO
    from ..readout import srd_probabilities

    chan = {lv: srd_probabilities(lv, srd_model) for lv in range(DIM)
            if lv != R}
    # Rydberg residue is ejected during readout
    chan[R] = {D0: 0.0, D1: 0.0, LO: 1.0}
    out = {"00": 0.0, "01": 0.0, "10": 0.0, "11": 0.0, "loss": 0.0}
    bucket = {D0: "0", D1: "1"}
    for l1 in range(DIM):
        for l2 in range(DIM):
            w = pops[l1, l2]
            if w <= 0:
                continue
            for o1, p1 in chan[l1].items():
                q1_ = p1 * (survival if o1 != LO else 1.0)
                for o2, p2 in chan[l2].items():
                    q2 = p2 * (survival if o2 != LO else 1.0)
                    if o1 == LO or o2 == LO:
                        out["loss"] += w * p1 * p2
                    else:
                        out[bucket[o1] + bucket[o2]] += w * q1_ * q2
    out["loss"] = 1.0 - sum(v for k, v in out.items() if k != "loss")
    return out


def bell_protocol(
    noise: NoiseConfig | None,
    phases,
    shots: int,
    loss_excision: bool = False,
    profile: CZPulseProfile | None = None,
    drive: RydbergDrive | None = None,
    seed: int = 0,
    executor: GateExecutor | None = None,
    srd_model=None,
    sequence_survival: float | None = None,
) -> BellResult:
    """Bell-state generation and parity-oscillation analysis.

    Populations come from one measurement setting without the analyzer; the
    parity fringe is fitted with period pi over the scanned analyzer phases.
    F = (P00 + P11)/2 + C/2. With a noise config, state preparation leaves
    each atom in g with probability eps_sp and readout goes through the
    state-resolved detection channel plus the sequence survival factor.
    """
    from ..czopt import default_profile

    phases = np.asarray(phases, dtype=float)
    if np.ptp(phases) < np.pi:
        raise ValueError("analyzer phases must cover at least one pi period")
    if executor is None:
        profile = profile or default_profile()
        drive = drive or RydbergDrive()
        executor = GateExecutor(profile, drive, noise)
    rng = np.random.default_rng(seed)
    eps_sp = noise.state_prep_error if noise is not None else 0.0
    bell = _bell_state_vector(executor, eps_sp)

    if noise is None:
        assigned = _assigned_probs
    else:
        from ..readout import SRDModel

        srd = srd_model or SRDModel()
        surv = sequence_survival if sequence_survival is not None \
            else SEQUENCE_SURVIVAL

        def assigned(pops):
            return _srd_assigned_probs(pops, srd, surv)

    def sampled(probs_dict, n):
        keys = list(probs_dict)
        pr = np.clip([probs_dict[k] for k in keys], 0, None)
        pr = pr / pr.sum()
        if n:
            counts = rng.multinomial(n, pr)
            return dict(zip(keys, counts / n))
        return dict(zip(keys, pr))

    # population setting
    meas = sampled(assigned(executor.populations(bell)), shots)
    if loss_excision:
        kept = 1.0 - meas["loss"]
        p00 = meas["00"] / kept
        p11 = meas["11"] / kept
    else:
        p00, p11 = meas["00"], meas["11"]
    retention = 1.0 - meas["loss"]

    # parity fringe
    parities = np.zeros(len(phases))
    sems = np.zeros(len(phases))
    for i, phi in enumerate(phases):
        v = executor.global_pulse(phi) @ bell
        m = sampled(assigned(executor.populations(v)), shots)
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
    records = list(records)
    kept = [r for r in records if LOSS not in r]
    retention = len(kept) / len(records) if records else 1.0
    return kept, retention
