"""Ramsey coherence under quasi-static Gaussian detuning drift, with an
optional mid-circuit erasure-imaging block."""

import numpy as np

from ..fitting import fit_sinusoid_fixed_period
from ..levels import DIM, Q0, Q1
from ..noise import gaussian_quadrature
from ..pulses import embed_qubit_unitary, rotation

RAMSEY_NODES = 41  # Gauss-Hermite nodes of the detuning ensemble
RAMSEY_PHASES = 12  # closing-pulse phases per fringe


def ramsey_envelope_time(sigma: float) -> float:
    """1/e time of the dephasing envelope exp(-sigma^2 t^2 / 2), sigma in
    rad/us (equivalently exp(-2 pi^2 sigma_f^2 t^2) for sigma_f in MHz)."""
    return np.sqrt(2.0) / sigma


def simulate_ramsey(
    sigma: float,
    times,
    mid_circuit_erasure: bool = False,
):
    """Fringe contrast vs wait time, ensemble-averaged over detunings.

    sigma is the r.m.s. quasi-static detuning in rad/us. The ensemble
    average uses Gauss-Hermite quadrature; the fringe at each wait time is
    scanned over the closing pulse phase and fitted with a fixed 2*pi
    period. The erasure block images the g manifold mid-wait; the model has
    no qubit back-action, so it acts as the identity on the qubit and the
    flag exists to demonstrate exactly that.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    times = np.asarray(times, dtype=float)
    deltas, weights = gaussian_quadrature(sigma, RAMSEY_NODES)
    phases = np.linspace(0, 2 * np.pi, RAMSEY_PHASES, endpoint=False)
    open_pulse = embed_qubit_unitary(rotation(np.pi / 2, 0.0))
    # the closing pulses' q1 rows: amplitude of q1 after each closing pulse
    closing = np.array([embed_qubit_unitary(rotation(np.pi / 2, phi))[Q1]
                        for phi in phases])
    erasure_block = np.eye(DIM, dtype=complex)  # no qubit back-action

    psi0 = np.zeros(DIM, dtype=complex)
    psi0[Q1] = 1.0
    opened = open_pulse @ psi0
    contrast = np.zeros(len(times))
    for it, t in enumerate(times):
        # one row per detuning node: the opened state after the free phase
        psi = np.tile(opened, (len(deltas), 1))
        psi[:, Q0] *= np.exp(0.5j * deltas * t)
        psi[:, Q1] *= np.exp(-0.5j * deltas * t)
        if mid_circuit_erasure:
            psi = psi @ erasure_block.T
        fringe = weights @ np.abs(psi @ closing.T) ** 2  # (nodes, phases)
        amp, _, offset, _ = fit_sinusoid_fixed_period(phases, fringe,
                                                      period=2 * np.pi)
        # fringe = offset * (1 + C cos(...)): contrast is amplitude/offset
        contrast[it] = amp / offset if offset > 0 else 0.0
    return contrast
