"""Two-atom Rydberg drive and the phase-modulated CZ gate.

The drive couples q1 <-> r on both atoms with a common laser phase phi(t);
doubly excited pairs are shifted by the interaction V. Only {q1, r} take part
in the dynamics, so the noiseless propagator factorizes into a 2x2 block (one
atom driven, partner frozen) and a 4x4 block (both atoms driven), integrated
together as a single 6x6 Schrodinger problem and then assembled into the full
36x36 unitary. The master-equation path uses the full space.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .lindblad import ModulatedDrive, detuning_segments, evolve_rho
from .channels import Superoperator, channel_on_pairs, channel_superoperator
from .levels import B, DIM, G, Q0, Q1, R, X, full_index, lop
from .states import embed_local

OMEGA_DEFAULT = 2 * np.pi * 6.0  # rad/us
V_DEFAULT = 2 * np.pi * 114.0  # rad/us
RESIDUAL_RYDBERG_THRESHOLD = 0.01


@dataclass(frozen=True)
class RydbergDrive:
    """Global q1 <-> r coupling; V is an input, never computed."""

    rabi_frequency: float = OMEGA_DEFAULT
    detuning: float = 0.0
    interaction: float = V_DEFAULT
    phase_profile: object = None  # optional callable t -> rad

    def __post_init__(self):
        if self.rabi_frequency < 0:
            raise ValueError("Rabi frequency must be non-negative")


@dataclass(frozen=True)
class CZPulseProfile:
    """Cosine-plus-linear phase modulation over one gate.

    phi(t) = theta[0]*cos(2 pi t / t_gate - theta[1]) + theta[2]*t + theta[3]
    """

    theta: tuple
    t_gate: float
    phi_sq: float = 0.0

    def __post_init__(self):
        if self.t_gate <= 0:
            raise ValueError("gate duration must be positive")
        object.__setattr__(self, "theta", tuple(float(x) for x in self.theta))
        if len(self.theta) != 4:
            raise ValueError("profile needs four modulation parameters")

    def phase(self, t):
        th = self.theta
        return (
            th[0] * np.cos(2 * np.pi * t / self.t_gate - th[1])
            + th[2] * t
            + th[3]
        )

    def modulation(self):
        """(amp, freq, offset, slope, const) for the structured integrator."""
        th = self.theta
        return th[0], 2 * np.pi / self.t_gate, -th[1], th[2], th[3]

    def to_text(self, drive: RydbergDrive | None = None) -> str:
        lines = [
            f"theta1_rad = {self.theta[0]!r}",
            f"theta2_rad = {self.theta[1]!r}",
            f"theta3_rad_per_us = {self.theta[2]!r}",
            f"theta4_rad = {self.theta[3]!r}",
            f"t_gate_us = {self.t_gate!r}",
            f"phi_sq_rad = {self.phi_sq!r}",
        ]
        if drive is not None:
            lines.append(f"omega_rad_per_us = {drive.rabi_frequency!r}")
            lines.append(f"v_rad_per_us = {drive.interaction!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str):
        """Parse the key-value document; returns (profile, drive-or-None)."""
        kv = {}
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            key, _, val = ln.partition("=")
            kv[key.strip()] = float(val.strip())
        try:
            profile = cls(
                theta=(
                    kv["theta1_rad"],
                    kv["theta2_rad"],
                    kv["theta3_rad_per_us"],
                    kv["theta4_rad"],
                ),
                t_gate=kv["t_gate_us"],
                phi_sq=kv.get("phi_sq_rad", 0.0),
            )
        except KeyError as exc:
            raise ValueError(f"missing profile key: {exc}") from exc
        drive = None
        if "omega_rad_per_us" in kv:
            drive = RydbergDrive(
                rabi_frequency=kv["omega_rad_per_us"],
                interaction=kv.get("v_rad_per_us", V_DEFAULT),
            )
        return profile, drive


def rydberg_hamiltonian(drive: RydbergDrive, n_atoms: int = 2):
    """Time-dependent full-space Hamiltonian as a callable t -> matrix."""
    h0, coup = hamiltonian_parts(drive, n_atoms)
    phase = drive.phase_profile or (lambda t: 0.0)

    def h_of_t(t):
        e = np.exp(1j * phase(t))
        return h0 + e * coup + np.conj(e) * coup.conj().T

    return h_of_t


def hamiltonian_parts(drive: RydbergDrive, n_atoms: int = 2):
    """Static part and drive coupling: H(t) = h0 + e^{i phi} C + h.c."""
    d = DIM**n_atoms
    h0 = np.zeros((d, d), dtype=complex)
    coup = np.zeros((d, d), dtype=complex)
    for a in range(n_atoms):
        nr = embed_local(lop(R, R), a, n_atoms)
        h0 -= drive.detuning * nr
        coup += (drive.rabi_frequency / 2) * embed_local(lop(Q1, R), a, n_atoms)
    if n_atoms == 2:
        rr = full_index([R, R])
        h0[rr, rr] += drive.interaction
    return h0, coup


def rydberg_count_diag(n_atoms: int = 2) -> np.ndarray:
    """Diagonal counting Rydberg excitations; -delta couples via this."""
    d = DIM**n_atoms
    diag = np.zeros(d)
    for a in range(n_atoms):
        diag += np.diag(embed_local(lop(R, R), a, n_atoms)).real
    return diag


# Sector bases for the noiseless gate: [q1, r] and [q1q1, q1r, rq1, rr].
_ACTIVE = (Q1, R)


def _sector_parts(drive: RydbergDrive):
    om = drive.rabi_frequency / 2
    h2 = np.diag([0.0, -drive.detuning]).astype(complex)
    c2 = np.zeros((2, 2), dtype=complex)
    c2[0, 1] = om
    h4 = np.diag(
        [0.0, -drive.detuning, -drive.detuning, drive.interaction - 2 * drive.detuning]
    ).astype(complex)
    c4 = np.zeros((4, 4), dtype=complex)
    c4[0, 1] = c4[0, 2] = c4[1, 3] = c4[2, 3] = om
    return h2, c2, h4, c4


def sector_unitaries(
    profile: CZPulseProfile,
    drive: RydbergDrive,
    rtol: float = 1e-9,
    atol: float = 1e-11,
    detuning_edges=None,
    detuning_values=None,
):
    """(u2, u4) propagators of the driven sectors over one gate.

    Optional piecewise-constant extra detuning (common to both atoms) models
    sampled laser frequency noise; ``(members, n_pieces)`` values integrate
    a stack at once and give ``(members, 2, 2)`` and ``(members, 4, 4)``.
    """
    h2, c2, h4, c4 = _sector_parts(drive)
    amp, freq, offset, slope, const = profile.modulation()
    phase_const = np.exp(1j * const)
    h0 = np.zeros((6, 6), dtype=complex)
    h0[:2, :2] = h2
    h0[2:, 2:] = h4
    coup = np.zeros((6, 6), dtype=complex)
    coup[:2, :2] = c2 * phase_const
    coup[2:, 2:] = c4 * phase_const
    coup_dag = coup.conj().T
    ndiag = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 2.0])

    u = np.eye(6, dtype=complex)
    for t0, t1, det in detuning_segments(
        detuning_edges, detuning_values, profile.t_gate
    ):
        hseg = h0 - np.multiply.outer(det, np.diag(ndiag))

        def rhs(t, y):
            e = np.exp(1j * (amp * np.cos(freq * t + offset) + slope * t))
            h = hseg + e * coup + np.conj(e) * coup_dag
            return -1j * (h @ y)

        u = _kernels.dopri5(rhs, np.broadcast_to(u, hseg.shape), t0, t1, rtol, atol)
    return u[..., :2, :2].copy(), u[..., 2:, 2:].copy()


def assemble_unitary(u2: np.ndarray, u4: np.ndarray) -> np.ndarray:
    """Build the full 36x36 gate unitary from the sector propagators."""
    frozen = (Q0, G, X, B)
    u = np.zeros((36, 36), dtype=complex)
    for f1 in frozen:
        for f2 in frozen:
            i = full_index([f1, f2])
            u[i, i] = 1.0
    for f in frozen:
        for ai, a in enumerate(_ACTIVE):
            for bi, b in enumerate(_ACTIVE):
                u[full_index([a, f]), full_index([b, f])] = u2[ai, bi]
                u[full_index([f, a]), full_index([f, b])] = u2[ai, bi]
    pair_basis = [(Q1, Q1), (Q1, R), (R, Q1), (R, R)]
    for i, (a1, a2) in enumerate(pair_basis):
        for j, (b1, b2) in enumerate(pair_basis):
            u[full_index([a1, a2]), full_index([b1, b2])] = u4[i, j]
    return u


def computational_amplitudes(u2: np.ndarray, u4: np.ndarray):
    """(a01, a11): return amplitudes of |q0 q1> and |q1 q1|."""
    return u2[..., 0, 0], u4[..., 0, 0]


def cz_average_fidelity(a01, a11, phi_sq=None):
    """Average gate fidelity against CZ up to a single-qubit phase.

    With M = U_ideal(phi)^dag U restricted to the computational subspace,
    F = (|tr M|^2 + tr M^dag M) / 20; if phi_sq is None the single-qubit
    phase is optimized out.
    """

    def fid(phi):
        trm = 1.0 + 2 * a01 * np.exp(-1j * phi) + a11 * np.exp(-1j * (2 * phi - np.pi))
        return (abs(trm) ** 2 + 1.0 + 2 * abs(a01) ** 2 + abs(a11) ** 2) / 20.0

    if phi_sq is not None:
        return fid(phi_sq), phi_sq
    grid = np.linspace(0, 2 * np.pi, 181, endpoint=False)
    phi = grid[int(np.argmax([fid(p) for p in grid]))]
    # golden-section refinement
    lo, hi = phi - 0.05, phi + 0.05
    for _ in range(60):
        m1 = lo + 0.381966 * (hi - lo)
        m2 = hi - 0.381966 * (hi - lo)
        if fid(m1) < fid(m2):
            lo = m1
        else:
            hi = m2
    phi = 0.5 * (lo + hi)
    return fid(phi), phi


def extract_phi_sq(u2: np.ndarray) -> float:
    """Single-qubit phase acquired by q1 when the partner stays in q0."""
    return float(np.angle(u2[0, 0]))


def residual_rydberg_population(u2: np.ndarray, u4: np.ndarray) -> float:
    """Worst-case population left in r at gate end over computational inputs."""
    p01 = abs(u2[1, 0]) ** 2
    p11 = abs(u4[1, 0]) ** 2 + abs(u4[2, 0]) ** 2 + abs(u4[3, 0]) ** 2
    return float(max(p01, p11))


def modulated_drive(
    profile: CZPulseProfile,
    drive: RydbergDrive,
    n_atoms: int = 2,
    detuning_edges=None,
    detuning_values=None,
) -> ModulatedDrive:
    """Full-space structured drive for master-equation propagation."""
    h0, coup = hamiltonian_parts(drive, n_atoms)
    amp, freq, offset, slope, const = profile.modulation()
    det_diag = None
    if detuning_values is not None:
        det_diag = -rydberg_count_diag(n_atoms).astype(complex)
    return ModulatedDrive(
        h0=h0,
        coupling=coup * np.exp(1j * const),
        phase_amp=amp,
        phase_freq=freq,
        phase_offset=offset,
        phase_slope=slope,
        detuning_diag=det_diag,
        detuning_edges=detuning_edges,
        detuning_values=detuning_values,
    )


@dataclass(frozen=True)
class CZGateChannel:
    """Noisy CZ gate: Lindblad evolution over the pulse, applied on demand."""

    profile: CZPulseProfile
    drive: RydbergDrive
    collapses: tuple
    rtol: float = 1e-8
    atol: float = 1e-10

    def apply(self, rho: np.ndarray) -> np.ndarray:
        mdrive = modulated_drive(self.profile, self.drive, 2)
        return evolve_rho(
            rho, mdrive, list(self.collapses), self.profile.t_gate, 2,
            self.rtol, self.atol,
        )

    def superoperator_on_pairs(self, pairs):
        mdrive = modulated_drive(self.profile, self.drive, 2)
        m, _ = channel_on_pairs(
            mdrive, list(self.collapses), self.profile.t_gate, 2, pairs,
            self.rtol, self.atol,
        )
        return m

    def superoperator(self) -> Superoperator:
        mdrive = modulated_drive(self.profile, self.drive, 2)
        return channel_superoperator(
            mdrive, list(self.collapses), self.profile.t_gate, 2,
            self.rtol, self.atol,
        )


def time_optimal_cz(
    profile: CZPulseProfile,
    drive: RydbergDrive,
    collapses=None,
    rtol: float = 1e-9,
    atol: float = 1e-11,
):
    """The phase-modulated CZ gate.

    Returns the 36x36 unitary for noiseless evolution, or a
    :class:`CZGateChannel` when collapse operators are supplied. A warning is
    emitted if Rydberg population has not returned at the end of the pulse.
    """
    if collapses:
        return CZGateChannel(profile, drive, tuple(collapses))
    u2, u4 = sector_unitaries(profile, drive, rtol, atol)
    res = residual_rydberg_population(u2, u4)
    if res > RESIDUAL_RYDBERG_THRESHOLD:
        warnings.warn(
            f"gate not closed: residual Rydberg population {res:.3g}",
            stacklevel=2,
        )
    return assemble_unitary(u2, u4)


def ideal_cz_unitary(n_atoms: int = 2, phi: float = 0.0) -> np.ndarray:
    """diag(1, e^{i phi}, e^{i phi}, e^{i(2 phi - pi)}) on the qubit subspace,
    identity elsewhere."""
    u = np.eye(DIM**n_atoms, dtype=complex)
    i01 = full_index([Q0, Q1])
    i10 = full_index([Q1, Q0])
    i11 = full_index([Q1, Q1])
    u[i01, i01] = np.exp(1j * phi)
    u[i10, i10] = np.exp(1j * phi)
    u[i11, i11] = np.exp(1j * (2 * phi - np.pi))
    return u
