"""Single-qubit Clifford randomized benchmarking with erasure excision.

Sequences are compiled to physical pi/2 pulses plus virtual-Z frame updates;
each pulse is a 6-level channel (coherent rotation + scattering leakage
during the drive), so leakage to g (erasure-visible) and to x (reads as q0)
accumulates exactly as in the modeled experiment.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..channels import channel_superoperator
from ..cliffords import CliffordGate, clifford_group, sequence_inverse
from ..fitting import DecayFit, fit_power_decay
from ..levels import DIM, G, Q0, Q1, lop
from ..noise import NoiseConfig, raman_scatter_collapse_ops
from ..pulses import embed_qubit_unitary, virtual_z_equivalent

RAMAN_RABI = 2 * np.pi * 0.017  # rad/us (2 pi x 17 kHz Clifford drive)


@dataclass(frozen=True)
class RBSequence:
    clifford_indices: tuple
    inverse_index: int
    seed: int

    def __len__(self) -> int:
        return len(self.clifford_indices)


def generate_crb(length: int, seed: int) -> RBSequence:
    """Uniform random Cliffords plus the exact inverse; deterministic."""
    if length < 0:
        raise ValueError("length must be non-negative")
    rng = np.random.default_rng(seed)
    group = clifford_group()
    idx = tuple(int(i) for i in rng.integers(0, len(group), size=length))
    return RBSequence(clifford_indices=idx, inverse_index=sequence_inverse(idx),
                      seed=seed)


@lru_cache(maxsize=1024)
def _z_superop_diag(angle: float) -> np.ndarray:
    """Row-major vectorized diagonal of conjugation by the virtual-Z unitary,
    z_i conj(z_j) at i*DIM + j; cached by angle (a frame is a sum of
    Clifford z-angles, so a CRB run sees few distinct ones) and read-only."""
    z = np.ones(DIM, dtype=complex)
    z[[Q0, Q1]] = virtual_z_equivalent(angle).diagonal()
    diag = (z[:, None] * z.conj()[None, :]).ravel()
    diag.flags.writeable = False
    return diag


@lru_cache(maxsize=8)
def _x90_channel_cached(scatter_g, leak_x, spinflip):
    h = (RAMAN_RABI / 2) * (lop(Q0, Q1) + lop(Q1, Q0))
    cfg = NoiseConfig(raman_scatter_g=scatter_g, raman_leak_x=leak_x,
                      raman_spinflip=spinflip)
    ops = raman_scatter_collapse_ops(cfg)
    t90 = (np.pi / 2) / RAMAN_RABI
    return channel_superoperator(h, ops, t90)


def raman_pulse_channel(config: NoiseConfig | None) -> np.ndarray:
    """Row-major superoperator (the matrix on all 36 one-atom units) of a
    phase-0 pi/2 Raman pulse at RAMAN_RABI with drive-time leakage.

    Channels at other phases are the virtual-Z conjugation of this one (the
    scattering operators are phase covariant; asserted in tests).
    """
    if config is None:
        return _x90_channel_cached(0.0, 0.0, 0.0)
    return _x90_channel_cached(
        config.raman_scatter_g, config.raman_leak_x, config.raman_spinflip_rate
    )


def depolarizing_channel(epsilon: float) -> np.ndarray:
    """Qubit-subspace depolarizing row-major superoperator with
    average-gate-infidelity ``epsilon``: a fully-depolarizing event with
    probability 2*epsilon, so the benchmarking decay obeys p = 1 - 2*epsilon
    for d = 2."""
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError("epsilon must be in [0, 0.5]")
    gamma = 2.0 * epsilon
    paulis = [
        np.eye(2),
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]]),
    ]
    s = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
    for p in paulis:
        u = embed_qubit_unitary(p)
        s += 0.25 * np.kron(u, u.conj())
    return (1.0 - gamma) * np.eye(DIM * DIM, dtype=complex) + gamma * s


def _apply_clifford(v, gate: CliffordGate, frame: float, pulse_superop):
    """Apply one compiled Clifford to ``rho.ravel()``; returns (v, new_frame).

    A pulse at accumulated frame phase phi is the phase-0 channel conjugated
    by the frame rotation: S_phi = conj(zc) * S_0 * zc elementwise, with zc
    the vectorized virtual-Z diagonal (phase covariance of the scattering
    operators is what makes this exact; see tests).
    """
    angles = gate.z_angles
    frame += angles[0]
    for a in angles[1:]:
        zc = _z_superop_diag(frame)
        v = np.conj(zc) * (pulse_superop @ (zc * v))
        frame += a
    return v, frame


def _simulate_sequence(seq: RBSequence, pulse_superop, eps_sp, extra_channel=None):
    """Final 6-level diagonal populations of one CRB run."""
    rho0 = np.zeros((DIM, DIM), dtype=complex)
    rho0[Q1, Q1] = 1.0 - eps_sp
    rho0[G, G] = eps_sp
    v = rho0.ravel()
    group = clifford_group()
    frame = 0.0
    for i in list(seq.clifford_indices) + [seq.inverse_index]:
        v, frame = _apply_clifford(v, group[i], frame, pulse_superop)
        if extra_channel is not None:
            v = extra_channel @ v
    diag = v.reshape(DIM, DIM).diagonal().real
    return np.clip(diag, 0.0, None)


@dataclass(frozen=True)
class CRBResult:
    lengths: tuple
    raw_survival: np.ndarray = field(repr=False)
    raw_sem: np.ndarray = field(repr=False)
    raw_fit: DecayFit | None
    corrected_survival: np.ndarray | None = field(repr=False, default=None)
    corrected_sem: np.ndarray | None = field(repr=False, default=None)
    corrected_fit: DecayFit | None = None
    retained_fraction: float = 1.0
    shots: int = 0
    n_sequences: int = 0

    @staticmethod
    def fidelity_from_decay(p: float) -> float:
        return 1.0 - (1.0 - p) / 2.0

    @property
    def f1q_raw(self) -> float:
        return self.fidelity_from_decay(self.raw_fit.fidelity)

    @property
    def f1q_raw_err(self) -> float:
        return self.raw_fit.fidelity_err / 2.0

    @property
    def f1q_corrected(self) -> float:
        return self.fidelity_from_decay(self.corrected_fit.fidelity)

    @property
    def f1q_corrected_err(self) -> float:
        return self.corrected_fit.fidelity_err / 2.0


def run_crb(
    lengths,
    n_seq: int,
    shots: int,
    noise: NoiseConfig | None,
    erasure: bool = False,
    seed: int = 0,
    injected_depolarizing: float | None = None,
) -> CRBResult:
    """Survival vs sequence length with decay fits.

    The erasure pipeline flags shots from the per-shot sampled final level
    at the shallow-trap erasure operating point: state-preparation errors
    sit in g for both images of the sandwich, mid-sequence leakage only for
    the closing one; unflagged shots form the erasure-corrected survival.
    Both decay fits pin the asymptote to 1/2.
    """
    lengths = tuple(int(m) for m in lengths)
    if not lengths:
        raise ValueError("need at least one sequence length")
    if n_seq < 2:
        raise ValueError(f"n_sequences must be at least 2 for a standard "
                         f"error of the mean, got {n_seq}")
    if shots < 1:
        raise ValueError(f"shots must be at least 1 for a sampled survival, "
                         f"got {shots}")
    if erasure:
        from ..readout import erasure_operating_point

        erasure_tp, erasure_fp = erasure_operating_point()

    eps_sp = noise.state_prep_error if noise is not None else 0.0
    if injected_depolarizing is not None:
        pulse = raman_pulse_channel(None)
        extra = depolarizing_channel(injected_depolarizing)
    else:
        pulse = raman_pulse_channel(noise)
        extra = None

    raw_mean = np.zeros(len(lengths))
    raw_sem = np.zeros(len(lengths))
    cor_mean = np.zeros(len(lengths))
    cor_sem = np.zeros(len(lengths))
    total_kept = 0
    total_shots = 0
    for li, m in enumerate(lengths):
        raw_vals = np.zeros(n_seq)
        cor_vals = np.zeros(n_seq)
        for si in range(n_seq):
            rng = np.random.default_rng([seed, li, si])
            seq = generate_crb(m, seed=int(rng.integers(2**31)))
            probs = _simulate_sequence(seq, pulse, eps_sp, extra)
            probs = probs / probs.sum()
            counts = rng.multinomial(shots, probs)
            bright = counts[Q1]
            raw_vals[si] = bright / shots
            if erasure:
                n_g = counts[G]
                p_g = probs[G]
                prep_share = min(eps_sp / p_g, 1.0) if p_g > 0 else 0.0
                n_prep = rng.binomial(n_g, prep_share)
                n_mid = n_g - n_prep
                f_prep = 1.0 - (1.0 - erasure_tp) ** 2
                f_mid = 1.0 - (1.0 - erasure_tp) * (1.0 - erasure_fp)
                f_clean = 1.0 - (1.0 - erasure_fp) ** 2
                flagged_g = rng.binomial(n_prep, f_prep) + rng.binomial(n_mid, f_mid)
                flagged_bright = rng.binomial(bright, f_clean)
                flagged_other = rng.binomial(shots - n_g - bright, f_clean)
                kept = shots - flagged_g - flagged_bright - flagged_other
                kept_bright = bright - flagged_bright
                cor_vals[si] = kept_bright / kept if kept else np.nan
                total_kept += kept
                total_shots += shots
        raw_mean[li] = raw_vals.mean()
        raw_sem[li] = max(raw_vals.std(ddof=1) / np.sqrt(n_seq), 1e-6)
        if erasure:
            cor_mean[li] = np.nanmean(cor_vals)
            cor_sem[li] = max(np.nanstd(cor_vals, ddof=1) / np.sqrt(n_seq), 1e-6)

    # Both variants share the randomized-baseline offset 1/2: a free offset
    # on leaky raw data is unstable across sequence ensembles (its fitted
    # fidelity can move by several times its own CI), so lengths are kept
    # short enough that the lost fraction stays modest and the fixed-offset
    # model bias is absorbed by the rate calibration.
    raw_fit = fit_power_decay(lengths, raw_mean, raw_sem, offset=0.5)
    result = {
        "lengths": lengths,
        "raw_survival": raw_mean,
        "raw_sem": raw_sem,
        "raw_fit": raw_fit,
        "shots": shots,
        "n_sequences": n_seq,
    }
    if erasure:
        result["corrected_survival"] = cor_mean
        result["corrected_sem"] = cor_sem
        result["corrected_fit"] = fit_power_decay(lengths, cor_mean, cor_sem, offset=0.5)
        result["retained_fraction"] = total_kept / total_shots if total_shots else 1.0
    return CRBResult(**result)
