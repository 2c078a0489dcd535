"""Reference implementations the tests check ``fsqsim`` against.

None of these runs in a protocol. Each is the plain, slow form of something
the package does another way (a dense Lindblad right-hand side, fixed-step
RK4, a whole-pattern breadth-first support closure, H(t) as a callable), or
an API only the tests exercise (Raman pulses read through a virtual-Z frame
object). Tests import them as ``from oracles import ...``.
"""

from dataclasses import dataclass

import numpy as np

from fsqsim.pulses import rotation
from fsqsim.rydberg import hamiltonian_parts


def dense_lindblad_rhs(h_of_t, pairs):
    """rho -> -i [H(t), rho] + sum_k rate_k D[L_k] rho on dense matrices;
    ``pairs`` are full-space (rate, L_k)."""
    ldag = [(r, op, op.conj().T) for r, op in pairs]

    def rhs(t, rho):
        h = h_of_t(t)
        out = -1j * (h @ rho - rho @ h)
        for rate, op, opd in ldag:
            m = opd @ op
            out += rate * (op @ rho @ opd - 0.5 * (m @ rho + rho @ m))
        return out

    return rhs


def rk4(rhs, y0, t0, t1, n_steps):
    """Fixed-step classical RK4, an independent order-4 integrator."""
    y = np.array(y0, dtype=complex)
    h = (t1 - t0) / n_steps
    t = t0
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + (h / 2) * k1)
        k3 = rhs(t + h / 2, y + (h / 2) * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def drive_hamiltonian(drive, delta=0.0):
    """t -> H(t) of a ``ModulatedDrive`` with its detuning held at ``delta``
    (the caller splits the span at the detuning edges)."""

    def h_of_t(t):
        h = np.array(drive.h0, dtype=complex)
        if drive.coupling is not None:
            e = np.exp(1j * (drive.phase_amp
                             * np.cos(drive.phase_freq * t + drive.phase_offset)
                             + drive.phase_slope * t))
            h += e * drive.coupling + np.conj(e) * drive.coupling.conj().T
        if delta != 0.0:
            h += delta * np.diag(drive.detuning_diag)
        return h

    return h_of_t


def two_atom_hamiltonian(drive, phase):
    """t -> h0 + e^{i phase(t)} C + h.c., from ``hamiltonian_parts(drive)``."""
    h0, coup = hamiltonian_parts(drive)

    def h_of_t(t):
        e = np.exp(1j * phase(t))
        return h0 + e * coup + np.conj(e) * coup.conj().T

    return h_of_t


def breadth_first_support(parts, seed):
    """Sorted flat indices reachable from ``seed`` along the pattern of
    ``parts``, each breadth-first step over the whole pattern; a ``(d*d, B)``
    seed closes per column, index ``k * B + m`` (entry-major)."""
    pattern = sum(abs(p) for p in parts if p is not None)
    reach = np.array(seed, dtype=bool)
    frontier = reach
    while frontier.any():
        frontier = (pattern @ frontier.astype(float) != 0) & ~reach
        reach |= frontier
    return np.flatnonzero(reach)


@dataclass(frozen=True)
class RamanPulse:
    """Square two-photon Raman pulse; frequencies in rad/us, duration in us."""

    rabi_frequency: float
    phase: float = 0.0
    detuning: float = 0.0
    duration: float = 0.0


@dataclass(frozen=True)
class VirtualFrame:
    """Accumulated z-phase per atom (rad); immutable."""

    phases: tuple = (0.0,)

    @classmethod
    def for_atoms(cls, n_atoms):
        return cls(phases=(0.0,) * n_atoms)

    def wrapped(self):
        """Phases reduced to [0, 2*pi) for read-out."""
        return tuple(float(np.mod(p, 2 * np.pi)) for p in self.phases)


def virtual_z(frame, atom, angle):
    phases = list(frame.phases)
    phases[atom] += angle
    return VirtualFrame(phases=tuple(phases))


def raman_unitary(pulse, frame=VirtualFrame()):
    """2x2 unitary of atom 0's pulse; the frame is read, never modified."""
    return rotation(
        pulse.rabi_frequency * pulse.duration,
        pulse.phase + frame.phases[0],
        pulse.detuning * pulse.duration,
    )
