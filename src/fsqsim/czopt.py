"""Pulse-parameter optimization for the phase-modulated CZ gate.

Deterministic local search: a finite-difference Hessian at the current point,
then damped Newton steps with backtracking on the damping parameter. The
default objective mirrors gate tune-up in the lab: the |11> return
probability after ten CZ gates interleaved with global X(pi) echo pulses,
which cancels the single-qubit phase and isolates the entangling error.
"""

from dataclasses import dataclass

import numpy as np

from .levels import Q1, full_index
from .pulses import embed_qubit_unitary, rotation
from .rydberg import (
    CZPulseProfile,
    RydbergDrive,
    assemble_unitary,
    cz_average_fidelity,
    computational_amplitudes,
    extract_phi_sq,
    sector_unitaries,
)

# Reference modulation parameters at V/Omega = 19 (Omega = 2 pi x 6 MHz),
# produced by optimize_cz itself from a multi-start search and frozen here;
# tests regenerate the optimum from perturbed starts. Avg gate fidelity at
# these values is 1 - 6.5e-10; Omega * t_gate = 7.708.
DEFAULT_THETA = (1.02333264, 1.57079633, 7.89138861, 0.0)
DEFAULT_T_GATE = 0.20444920  # us
DEFAULT_PHI_SQ = 2.13183248  # rad, single-qubit phase of the default pulse


def default_profile() -> CZPulseProfile:
    return CZPulseProfile(
        theta=DEFAULT_THETA, t_gate=DEFAULT_T_GATE, phi_sq=DEFAULT_PHI_SQ
    )


def _global_xpi() -> np.ndarray:
    """X(pi) on the qubit levels of both atoms."""
    x = embed_qubit_unitary(rotation(np.pi, 0.0))
    return np.kron(x, x)


ECHO_N_CZ = 10  # CZ gates in the echo tune-up sequence

# optimize_cz: stop at a scaled gradient norm below GTOL or an accepted step
# that gains less than FTOL; central differences step FD_STEP times each
# parameter's scale; the Hessian is rebuilt every HESSIAN_REFRESH iterations.
GTOL = 1e-9
FTOL = 1e-13
FD_STEP = 1e-4
HESSIAN_REFRESH = 4


def echo_return_probability(profile, drive: RydbergDrive):
    """P(|11> -> |11>) after ECHO_N_CZ gates with a global X(pi) echo after
    each.

    A sequence of profiles is integrated as one stack and gives one value per
    profile; a single profile gives a float.
    """
    u2, u4 = sector_unitaries(profile, drive)
    echo = _global_xpi()
    i11 = full_index([Q1, Q1])
    probs = []
    for a, b in zip(u2.reshape(-1, 2, 2), u4.reshape(-1, 4, 4)):
        u = assemble_unitary(a, b)
        psi = np.zeros(36, dtype=complex)
        psi[i11] = 1.0
        for _ in range(ECHO_N_CZ):
            psi = echo @ (u @ psi)
        probs.append(abs(psi[i11]) ** 2)
    return float(probs[0]) if u2.ndim == 2 else np.array(probs)


def make_echo_objective(drive: RydbergDrive):
    return lambda profiles: echo_return_probability(list(profiles), drive)


def make_fidelity_objective(drive: RydbergDrive):
    """Average gate fidelity to CZ, single-qubit phase optimized out."""

    def objective(profiles) -> np.ndarray:
        u2, u4 = sector_unitaries(list(profiles), drive)
        a01, a11 = computational_amplitudes(u2, u4)
        return np.array([cz_average_fidelity(a, b)[0] for a, b in zip(a01, a11)])

    return objective


@dataclass(frozen=True)
class OptimizeResult:
    profile: CZPulseProfile
    objective_value: float
    converged: bool
    n_iterations: int
    n_evaluations: int
    message: str


def _pvec(profile: CZPulseProfile) -> np.ndarray:
    return np.array([*profile.theta[:3], profile.t_gate])


def _profile(p: np.ndarray, theta4: float) -> CZPulseProfile:
    return CZPulseProfile(theta=(p[0], p[1], p[2], theta4), t_gate=p[3])


def optimize_cz(
    initial: CZPulseProfile,
    drive: RydbergDrive,
    objective=None,
    *,
    max_iterations: int,
) -> OptimizeResult:
    """Maximize ``objective`` over (theta1, theta2, theta3, t_gate).

    ``objective`` takes a sequence of profiles and returns one value per
    profile. Each gradient (and Hessian) is one call on its whole central
    difference stencil, 9 points (21 with the Hessian); each line-search
    trial is a call on one profile. ``n_evaluations`` counts the profiles
    handed to the objective. theta4 is a pure gauge for any objective built
    on populations and is held fixed. The search is fully deterministic.
    """
    drive_obj = objective or make_echo_objective(drive)
    theta4 = initial.theta[3]
    nev = 0

    def cost(points) -> np.ndarray:
        """1 - objective at each row of ``points``; 2 where t_gate <= 0."""
        nonlocal nev
        out = np.full(len(points), 2.0)
        ok = points[:, 3] > 0
        nev += int(ok.sum())
        if ok.any():
            values = drive_obj([_profile(q, theta4) for q in points[ok]])
            out[ok] = 1.0 - np.asarray(values, dtype=float)
        return out

    scales = np.array(
        [1.0, 1.0, max(drive.rabi_frequency, 1.0), max(initial.t_gate, 1e-3)]
    )
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def grad_hess(p, need_hess=True):
        h = FD_STEP * scales
        e = np.diag(h)
        stencil = [np.zeros(4)] + [s * e[i] for i in range(4) for s in (1, -1)]
        if need_hess:
            stencil += [s * (e[i] + e[j]) for i, j in pairs for s in (1, -1)]
        f = cost(p + np.array(stencil))
        f0, fp, fm = f[0], f[1:9:2], f[2:9:2]
        g = (fp - fm) / (2 * h)
        hess = np.zeros((4, 4))
        if need_hess:
            hess[np.diag_indices(4)] = (fp - 2 * f0 + fm) / h**2
            for k, (i, j) in enumerate(pairs):
                fpp, fmm = f[9 + 2 * k], f[10 + 2 * k]
                hij = (fpp - fp[i] - fp[j] + 2 * f0 - fm[i] - fm[j] + fmm) / (
                    2 * h[i] * h[j]
                )
                hess[i, j] = hess[j, i] = hij
        return f0, g, hess

    p = _pvec(initial)
    f, g, hess = grad_hess(p)
    lam = 0.0  # undamped Newton first; back off on failure
    converged = False
    message = "maximum iterations reached"
    it = 0
    for it in range(1, max_iterations + 1):
        if np.linalg.norm(g * scales) < GTOL:
            converged = True
            message = "gradient below tolerance"
            break
        accepted = False
        for _ in range(14):
            try:
                step = np.linalg.solve(
                    hess + lam * np.diag(np.maximum(np.diag(hess), 1.0 / scales**2)),
                    -g,
                )
            except np.linalg.LinAlgError:
                step = -g * scales**2
            f_new = cost((p + step)[None])[0]
            if f_new < f:
                p = p + step
                df = f - f_new
                f = f_new
                lam = 0.0 if lam < 1e-8 else lam / 3.0
                accepted = True
                break
            lam = 1e-4 if lam == 0.0 else lam * 10.0
        if not accepted:
            converged = True
            message = "no improving step found"
            break
        refresh = it % HESSIAN_REFRESH == 0
        f, g, hess_new = grad_hess(p, need_hess=refresh)
        if refresh:
            hess = hess_new
        if df < FTOL:
            converged = True
            message = "objective change below tolerance"
            break

    best = _profile(p, theta4)
    u2, _ = sector_unitaries(best, drive)
    best = CZPulseProfile(theta=best.theta, t_gate=best.t_gate,
                          phi_sq=extract_phi_sq(u2))
    return OptimizeResult(
        profile=best,
        objective_value=float(1.0 - f),
        converged=converged,
        n_iterations=it,
        n_evaluations=nev,
        message=message,
    )
