"""Ramsey coherence under quasi-static Gaussian detuning drift, with an
optional mid-circuit erasure-imaging block."""

import numpy as np

from ..fitting import fit_sinusoid_fixed_period
from ..levels import DIM, Q0, Q1
from ..noise import gaussian_quadrature
from ..pulses import embed_qubit_unitary, rotation


def ramsey_envelope_time(sigma: float) -> float:
    """1/e time of the dephasing envelope exp(-sigma^2 t^2 / 2), sigma in
    rad/us (equivalently exp(-2 pi^2 sigma_f^2 t^2) for sigma_f in MHz)."""
    return np.sqrt(2.0) / sigma


def simulate_ramsey(
    sigma: float,
    times,
    mid_circuit_erasure: bool = False,
    n_nodes: int = 41,
    n_phases: int = 12,
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
    deltas, weights = gaussian_quadrature(sigma, n_nodes)
    phases = np.linspace(0, 2 * np.pi, n_phases, endpoint=False)
    open_pulse = embed_qubit_unitary(rotation(np.pi / 2, 0.0))
    erasure_block = np.eye(DIM, dtype=complex)  # no qubit back-action

    psi0 = np.zeros(DIM, dtype=complex)
    psi0[Q1] = 1.0
    contrast = np.zeros(len(times))
    for it, t in enumerate(times):
        fringe = np.zeros(len(phases))
        for d, w in zip(deltas, weights):
            phase_gate = np.eye(DIM, dtype=complex)
            phase_gate[Q0, Q0] = np.exp(0.5j * d * t)
            phase_gate[Q1, Q1] = np.exp(-0.5j * d * t)
            psi = phase_gate @ (open_pulse @ psi0)
            if mid_circuit_erasure:
                psi = erasure_block @ psi
            for ip, phi in enumerate(phases):
                out = embed_qubit_unitary(rotation(np.pi / 2, phi)) @ psi
                fringe[ip] += w * abs(out[Q1]) ** 2
        amp, _, offset, _ = fit_sinusoid_fixed_period(phases, fringe,
                                                      period=2 * np.pi)
        # fringe = offset * (1 + C cos(...)): contrast is amplitude/offset
        contrast[it] = amp / offset if offset > 0 else 0.0
    return contrast
