"""Raman rotations on the qubit subspace, with virtual-Z frame tracking.

A pulse with laser phase phi rotates about the equatorial axis
(cos phi, sin phi, 0); the basis order is (q0, q1). Frame tracking adds the
atom's accumulated z-phase to every subsequent pulse phase, so a virtual Z is
equivalent to the physical diagonal gate diag(e^{+i a/2}, e^{-i a/2}) up to a
leading diagonal that z-basis measurements cannot see.
"""

from dataclasses import dataclass

import numpy as np

from .levels import DIM, Q0, Q1

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class RamanPulse:
    """Square two-photon Raman pulse; frequencies in rad/us, duration in us."""

    rabi_frequency: float
    phase: float = 0.0
    detuning: float = 0.0
    duration: float = 0.0

    def __post_init__(self):
        if self.rabi_frequency < 0:
            raise ValueError("Rabi frequency must be non-negative")
        if self.duration < 0:
            raise ValueError("duration must be non-negative")

    @property
    def area(self) -> float:
        return self.rabi_frequency * self.duration


@dataclass(frozen=True)
class VirtualFrame:
    """Accumulated z-phase per atom (rad); immutable."""

    phases: tuple = (0.0,)

    @classmethod
    def for_atoms(cls, n_atoms: int) -> "VirtualFrame":
        return cls(phases=(0.0,) * n_atoms)

    def wrapped(self) -> tuple:
        """Phases reduced to [0, 2*pi) for read-out."""
        return tuple(float(np.mod(p, 2 * np.pi)) for p in self.phases)


def virtual_z(frame: VirtualFrame, atom: int, angle: float) -> VirtualFrame:
    phases = list(frame.phases)
    phases[atom] += angle
    return VirtualFrame(phases=tuple(phases))


def embed_qubit_unitary(u2: np.ndarray) -> np.ndarray:
    """6x6 single-atom unitary acting as ``u2`` on (q0, q1), identity elsewhere."""
    u = np.eye(DIM, dtype=complex)
    u[np.ix_((Q0, Q1), (Q0, Q1))] = u2
    return u


def virtual_z_equivalent(angle: float) -> np.ndarray:
    """Physical 2x2 gate a virtual Z of ``angle`` stands in for."""
    return np.diag([np.exp(0.5j * angle), np.exp(-0.5j * angle)])


def rotation(area: float, phase: float, detuning_area: float = 0.0) -> np.ndarray:
    """exp(-i/2 [area*(cos(phase) X + sin(phase) Y) + detuning_area*Z])."""
    gen = area * (np.cos(phase) * SX + np.sin(phase) * SY) + detuning_area * SZ
    w = np.sqrt(area**2 + detuning_area**2)
    if w == 0.0:
        return np.eye(2, dtype=complex)
    return np.cos(w / 2) * np.eye(2) - 1j * np.sin(w / 2) * gen / w


def raman_unitary(
    pulse: RamanPulse, frame: VirtualFrame = VirtualFrame()
) -> np.ndarray:
    """2x2 unitary of atom 0's driven pulse; the frame is read, never modified."""
    phi = pulse.phase + frame.phases[0]
    return rotation(
        pulse.rabi_frequency * pulse.duration,
        phi,
        pulse.detuning * pulse.duration,
    )
