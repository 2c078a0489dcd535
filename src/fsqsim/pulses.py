"""Raman rotations on the qubit subspace and the virtual-Z convention.

A pulse with laser phase phi rotates about the equatorial axis
(cos phi, sin phi, 0); the basis order is (q0, q1). A virtual Z of angle a
is tracked by the caller as a float frame phase added to every later pulse
phase; it stands in for the physical diagonal gate
diag(e^{+i a/2}, e^{-i a/2}) (:func:`virtual_z_equivalent`) up to a leading
diagonal that z-basis measurements cannot see.
"""

import numpy as np

from .levels import DIM, Q0, Q1

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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
