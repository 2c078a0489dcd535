"""Reference implementations the tests check ``fsqsim`` against.

None of these runs in a protocol. Each is the plain, slow form of something
the package does another way (a dense Lindblad right-hand side, adaptive
Dormand-Prince and fixed-step RK4 integrators, a pair-basis channel by
Dormand-Prince, a whole-pattern breadth-first support closure, H(t) as a
callable, the rearrangement planner on uncached segment checks and scipy's
assignment, the assembly Monte Carlo on list occupancy with one draw per
move, the Clifford lookup as a linear scan, the Bell readout as
per-level loops, a process fidelity through the inverse of a generic ideal
map, the Rydberg sector propagator on the whole 6x6 problem, a Rabi series
as chained state evolutions, the Ramsey fringe as per-node vector products,
the error budget with each executor generating its own SSB sequences, the
quasi-static CZ channel at a chosen node count of Lindblad builds, SSB
sequences by pulse-by-pulse state tracking and a recovery search each, one
Bell variant per protocol call), or an API only the tests exercise (Raman
pulses read through a virtual-Z frame object, the ideal CZ and an executor
built on it). Tests import them as ``from oracles import ...``.
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from fsqsim import budget, rydberg
from fsqsim._kernels._lindblad_py import (GAUSS_NODES, WEIGHT_MINUS,
                                         WEIGHT_PLUS)
from fsqsim.assembly import (EXCLUSION_RADIUS, GRID_X_SPACING, Move, MovePlan,
                             plan_rearrangement)
from fsqsim.benchmarking import twoq
from fsqsim.benchmarking.ramsey import RAMSEY_NODES, RAMSEY_PHASES
from fsqsim.benchmarking.twoq import SEQUENCE_SURVIVAL, GateExecutor, run_ssb
from fsqsim.channels import channel_on_pairs, conjugation_on_pairs
from fsqsim.cliffords import clifford_group, equal_up_to_phase
from fsqsim.czopt import default_profile
from fsqsim.fitting import fit_sinusoid_fixed_period
from fsqsim.levels import DIM, G, Q0, Q1, R, X, full_index
from fsqsim.lindblad import evolve_lindblad
from fsqsim.noise import gate_collapse_ops, gaussian_quadrature
from fsqsim.pulses import embed_qubit_unitary, rotation, virtual_z_equivalent
from fsqsim.readout import (
    DETECTED_0,
    DETECTED_1,
    LOSS,
    SRDModel,
    srd_probabilities,
)
from fsqsim.rydberg import RydbergDrive, hamiltonian_parts, modulated_drive
from fsqsim.states import QuantumState


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


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# y5 uses row 7 of A (FSAL); embedded 4th-order weights:
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = np.concatenate([_DP_A[6], [0.0]]) - _DP_B4  # error weights, with k7
DOPRI5_MAX_STEPS = 1_000_000


# the stage coefficients as one matrix, row i holding a_ij for j < i
_DP_A_ROWS = np.array([np.pad(row, (0, 7 - len(row))) for row in _DP_A])


def dopri5(rhs, y0, t0, t1, rtol, atol):
    """Adaptive Dormand-Prince 5(4) integration of dy/dt = rhs(t, y), the
    reference integrator: returns y(t1) for a complex ``y0`` of any shape,
    with the step error the RMS over ``y`` of err / (atol + rtol |y|). The
    stages are kept as one array, so each stage sum is one product."""
    span = t1 - t0
    if span < 0:
        raise ValueError("integration span must be non-negative")
    y = np.array(y0, dtype=complex)
    if span == 0:
        return y
    t = t0
    k = np.empty((7, y.size), dtype=complex)
    k[0] = rhs(t, y).ravel()
    abs_y = np.abs(y).ravel()
    h = span / 100.0
    nsteps = 0
    while t < t1:
        if nsteps > DOPRI5_MAX_STEPS:
            raise RuntimeError(f"dopri5 exceeded {DOPRI5_MAX_STEPS} steps at "
                               f"t = {t!r}")
        nsteps += 1
        h = min(h, t1 - t)
        for i in range(1, 7):
            yi = y + (h * _DP_A_ROWS[i, :i] @ k[:i]).reshape(y.shape)
            k[i] = rhs(t + _DP_C[i] * h, yi).ravel()
        y5 = yi  # stage 7 input is the 5th-order solution (FSAL)
        abs_y5 = np.abs(y5).ravel()
        ratio = np.abs((h * _DP_E) @ k) / (atol + rtol * np.maximum(abs_y,
                                                                    abs_y5))
        err = np.sqrt(ratio @ ratio / ratio.size)
        if err <= 1.0:
            t = t + h
            y, abs_y = y5, abs_y5
            k[0] = k[6]  # FSAL
            factor = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
        h = h * factor
        if h <= 0 or not np.isfinite(h):
            raise RuntimeError(f"dopri5 step size underflow at t = {t!r}")
    return y


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


def drive_hamiltonian(drive):
    """t -> H(t) of a ``ModulatedDrive``."""

    def h_of_t(t):
        h = np.array(drive.h0, dtype=complex)
        if drive.coupling is not None:
            e = np.exp(1j * (drive.phase_amp
                             * np.cos(drive.phase_freq * t + drive.phase_offset)
                             + drive.phase_slope * t))
            h += e * drive.coupling + np.conj(e) * drive.coupling.conj().T
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
    n = len(seed)
    pattern = np.zeros((n, n))
    for p in parts:
        if p is not None:
            pattern[p.rows, p.cols] = 1.0
    reach = np.array(seed, dtype=bool)
    frontier = reach
    while frontier.any():
        frontier = (pattern @ frontier.astype(float) != 0) & ~reach
        reach |= frontier
    return np.flatnonzero(reach)


def pair_channel_reference(drive, jumps, duration, pairs, rtol, atol):
    """The channel of a ``ModulatedDrive`` on the closed unit list ``pairs``
    by :func:`dopri5`, independent of the engine: the generator's parts are
    built densely on the list (rho -> A rho B has entry A[i_p, i_q]
    B[j_q, j_p] at unit pair (p, q)), split into the blocks they connect,
    and blocks of one size are integrated as one stack. ``jumps`` are
    full-space (rate, L_k)."""
    rows = np.array([p[0] for p in pairs])
    cols = np.array([p[1] for p in pairs])
    eye = np.eye(drive.dim)

    def side(a, b):
        return a[np.ix_(rows, rows)] * b[np.ix_(cols, cols)].T

    def commutator(h):
        return -1j * (side(h, eye) - side(eye, h))

    g = sum((r * op.conj().T @ op for r, op in jumps), 0 * eye)
    l0 = commutator(drive.h0) - 0.5 * (side(g, eye) + side(eye, g))
    l0 = l0 + sum(r * side(op, op.conj().T) for r, op in jumps)
    parts = [l0, commutator(drive.coupling),
             commutator(drive.coupling.conj().T)]
    linked = sum(p != 0 for p in parts) > 0
    linked = linked | linked.T | np.eye(len(pairs), dtype=bool)
    label = np.arange(len(pairs))
    while True:  # each unit takes the smallest label it is linked to
        new = np.array([label[row].min() for row in linked])
        if np.array_equal(new, label):
            break
        label = new
    blocks = [np.flatnonzero(label == k) for k in np.unique(label)]
    stacks = [np.array([b for b in blocks if len(b) == n])
              for n in sorted({len(b) for b in blocks})]
    ops = [np.array([[p[np.ix_(b, b)] for b in s] for p in parts])
           for s in stacks]
    cuts = np.cumsum([0] + [s.size * s.shape[1] for s in stacks])

    def rhs(t, y):
        e = np.exp(1j * (drive.phase_amp * np.cos(drive.phase_freq * t
                                                  + drive.phase_offset)
                         + drive.phase_slope * t))
        return np.concatenate([
            ((l0 + e * lp + np.conj(e) * lm) @ y[a:b].reshape(len(s), n, n)
             ).ravel()
            for (l0, lp, lm), s, a, b, n in zip(
                ops, stacks, cuts, cuts[1:], (s.shape[1] for s in stacks))])

    y0 = np.concatenate([np.broadcast_to(np.eye(s.shape[1]),
                                         (len(s),) + (s.shape[1],) * 2).ravel()
                         for s in stacks])
    y = dopri5(rhs, y0.astype(complex), 0.0, duration, rtol, atol)
    out = np.zeros((len(pairs), len(pairs)), dtype=complex)
    for s, a, b in zip(stacks, cuts, cuts[1:]):
        for blk, m in zip(s, y[a:b].reshape(len(s), s.shape[1], -1)):
            out[np.ix_(blk, blk)] = m
    return out


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


def ideal_cz_unitary(phi=0.0):
    """diag(1, e^{i phi}, e^{i phi}, e^{i(2 phi - pi)}) on the two-atom qubit
    subspace, identity elsewhere."""
    u = np.eye(DIM**2, dtype=complex)
    i01 = full_index([Q0, Q1])
    i10 = full_index([Q1, Q0])
    i11 = full_index([Q1, Q1])
    u[i01, i01] = np.exp(1j * phi)
    u[i10, i10] = np.exp(1j * phi)
    u[i11, i11] = np.exp(1j * (2 * phi - np.pi))
    return u


def entanglement_fidelity(s, s_ideal, subspace_levels):
    """Entanglement fidelity of ``s`` composed with the inverse of
    ``s_ideal``, restricted to the product subspace of ``subspace_levels``.

    Both maps are row-major (d^2, d^2) superoperators on one or two atoms.
    The ideal map is LU-factored once; it is refused as numerically singular
    when LAPACK's estimate of its 1-norm condition number (``zgecon`` on that
    factorization) exceeds 1e10."""
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
    from scipy.linalg.lapack import zgecon

    d = int(round(math.sqrt(s.shape[0])))
    if s_ideal.shape != s.shape:
        raise ValueError("superoperator dimensions differ")
    n_atoms = 1 if d == DIM else 2
    if DIM**n_atoms != d:
        raise ValueError("dimension is not a power of the local dimension")
    sub = [full_index(lv) for lv in
           itertools.product(subspace_levels, repeat=n_atoms)]
    # F_e averages lam[k, k] = vec(E_ij) . lam vec(E_ij) with lam = S S_ideal^-1
    # over i, j in the subspace, so only those columns of the inverse are solved
    idx = [i * d + j for i in sub for j in sub]
    units = np.zeros((d * d, len(idx)), dtype=complex)
    units[idx, np.arange(len(idx))] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", LinAlgWarning)  # an exactly zero pivot
        try:
            lu, piv = lu_factor(s_ideal)
        except LinAlgWarning as exc:
            raise ValueError("ideal superoperator is not invertible") from exc
    rcond, _ = zgecon(lu, np.abs(s_ideal).sum(axis=0).max())
    if rcond < 1e-10:
        raise ValueError("ideal superoperator is numerically singular")
    inv_cols = lu_solve((lu, piv), units)
    fe = np.einsum("km,mk->", s[idx], inv_cols)
    return float((fe / len(sub) ** 2).real)


def process_fidelity(s, s_ideal, subspace_levels=(Q0, Q1)):
    """Average gate fidelity of ``s`` against ``s_ideal`` on a level
    subspace: F_avg = (d F_e + 1) / (d + 1), d the subspace dimension."""
    if not subspace_levels:
        raise ValueError("subspace must be nonempty")
    n_atoms = 1 if s.shape[0] == DIM**2 else 2
    ds = len(subspace_levels) ** n_atoms
    fe = entanglement_fidelity(s, s_ideal, subspace_levels)
    return (ds * fe + 1.0) / (ds + 1.0)


def ideal_cz_executor():
    """A noiseless executor whose CZ is the ideal gate's pair-basis matrix."""
    ex = GateExecutor(default_profile(), RydbergDrive(), None)
    ex.cz = conjugation_on_pairs(ideal_cz_unitary(), ex.pairs)
    return ex


def reference_quasi_static_executor(config, n_nodes):
    """An executor whose CZ is an ``n_nodes`` Gauss-Hermite average over the
    quasi-static detuning of ``config``, each node's channel taken straight
    from ``channel_on_pairs``, then the phase correction."""
    ex = GateExecutor(default_profile(), RydbergDrive(), None)
    collapses = gate_collapse_ops(config, ex.drive.rabi_frequency)
    deltas, weights = gaussian_quadrature(config.rydberg_detuning_sigma,
                                          n_nodes)
    channel = sum(
        w * channel_on_pairs(modulated_drive(ex.profile, ex.drive, delta),
                             collapses, ex.profile.t_gate, 2, ex.pairs)[0]
        for delta, w in zip(deltas, weights))
    z = embed_qubit_unitary(virtual_z_equivalent(ex.profile.phi_sq))
    ex.cz = twoq.product_unitary(z, z) @ channel
    return ex


def ssb_infidelities_from_executor(executor, n_cz_list=(2, 4, 6), n_seq=32,
                                   seed=12):
    """(raw, loss-corrected) infidelity from a shot-noise-free SSB decay that
    generates its own sequences."""
    res = run_ssb(n_cz_list, n_seq, shots=0, seed=seed, executor=executor)
    return 1.0 - res.fit_raw.fidelity, 1.0 - res.fit_loss.fidelity


def _ideal_qubit_state(phases, n_cz):
    """The ideal two-qubit state of an SSB ladder from |11>, pulse by pulse."""
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


def reference_ssb_sequence(phases, seed=0):
    """The ``SSBSequence`` of ``phases`` with its recovery found by an SVD
    product test, a Clifford scan per factor and, for an entangled end
    state, a nested scan over pre-local pairs."""
    n_cz = len(phases) - 1
    psi = _ideal_qubit_state(phases, n_cz)
    rec = _product_recovery(psi)
    if rec is not None:
        return twoq.SSBSequence(n_cz=n_cz, phases=phases,
                                recovery_cliffords=rec, seed=seed)
    # entangled stabilizer state: find pre-locals so one CZ disentangles it
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    group = clifford_group()
    for b1 in group:
        for b2 in group:
            cand = cz @ (np.kron(b1.unitary, b2.unitary) @ psi)
            rec = _product_recovery(cand)
            if rec is not None:
                return twoq.SSBSequence(n_cz=n_cz, phases=phases,
                                        recovery_cliffords=rec, seed=seed,
                                        recovery_pre=(b1.index, b2.index))
    raise RuntimeError(
        "no recovery found; impossible for a two-qubit stabilizer state"
    )


def reference_generate_ssb(n_cz, seed):
    """``twoq.generate_ssb`` tracking the ideal state pulse by pulse and
    searching its recovery anew for every sequence."""
    if n_cz < 0:
        raise ValueError("n_cz must be non-negative")
    rng = np.random.default_rng(seed)
    phases = tuple(
        twoq.QUARTER_PHASES[i] for i in rng.integers(0, 4, size=n_cz + 1)
    )
    return reference_ssb_sequence(phases, seed)


def reference_error_budget(config):
    """``budget.error_budget`` at its default sequences, each executor
    generating the SSB sequences anew."""
    profile, drive = default_profile(), RydbergDrive()

    def entry(name, noise):
        ex = GateExecutor(profile, drive, noise)
        raw_ssb, cor_ssb = ssb_infidelities_from_executor(ex)
        return budget.BudgetEntry(
            name=name,
            raw_process=budget.process_infidelity_from_executor(ex),
            raw_ssb=raw_ssb,
            corrected_process=(
                budget.corrected_process_infidelity_from_executor(ex)),
            corrected_ssb=cor_ssb,
        )

    return budget.BudgetReport(
        entries=tuple(entry(name, config.only(name))
                      for name in budget.CZ_SOURCES),
        total=entry("total", config.only(*budget.CZ_SOURCES)),
        sources=budget.CZ_SOURCES,
    )


def reference_bell_protocol(phases, shots, loss_excision=False, seed=0, *,
                            executor):
    """One variant of ``twoq.bell_protocol`` (raw, or loss-excised with
    ``loss_excision``), sampling its own outcomes from ``seed``."""
    phases = np.asarray(phases, dtype=float)
    noise = executor.noise
    rng = np.random.default_rng(seed)
    eps_sp = noise.state_prep_error if noise is not None else 0.0
    bell = twoq._bell_state_vector(executor, eps_sp)
    readout = twoq.IDEAL_READOUT if noise is None else twoq._srd_readout()

    def sampled(v):
        probs = twoq._joint_outcomes(executor.populations(v), readout)
        keys = list(probs)
        pr = np.clip([probs[k] for k in keys], 0, None)
        pr = pr / pr.sum()
        if shots:
            return dict(zip(keys, rng.multinomial(shots, pr) / shots))
        return dict(zip(keys, pr))

    meas = sampled(bell)
    fringe = [sampled(executor.global_pulse(phi) @ bell) for phi in phases]
    retention = 1.0 - meas["loss"]
    kept = retention if loss_excision else 1.0
    p00, p11 = meas["00"] / kept, meas["11"] / kept
    parities = np.zeros(len(phases))
    sems = np.zeros(len(phases))
    for i, m in enumerate(fringe):
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
    return twoq.BellResult(
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


def _ideal_assignment(level):
    if level in (Q0, X, G):
        return "0"
    if level == Q1:
        return "1"
    return None  # r and B are lost


def reference_assigned_probs(pops):
    """(p00, p01, p10, p11, loss) under the ideal readout assignment, by a
    loop over the 36 level pairs."""
    p = {"00": 0.0, "01": 0.0, "10": 0.0, "11": 0.0, "loss": 0.0}
    for l1 in range(DIM):
        for l2 in range(DIM):
            b1, b2 = _ideal_assignment(l1), _ideal_assignment(l2)
            if b1 is None or b2 is None:
                p["loss"] += pops[l1, l2]
            else:
                p[b1 + b2] += pops[l1, l2]
    return p


def reference_srd_assigned_probs(pops):
    """Joint outcome probabilities through the default detection channel and
    the sequence survival factor, by a loop over level and outcome pairs."""
    srd_model = SRDModel()
    chan = {lv: srd_probabilities(lv, srd_model) for lv in range(DIM)
            if lv != R}
    # Rydberg residue is ejected during readout
    chan[R] = {DETECTED_0: 0.0, DETECTED_1: 0.0, LOSS: 1.0}
    out = {"00": 0.0, "01": 0.0, "10": 0.0, "11": 0.0, "loss": 0.0}
    bucket = {DETECTED_0: "0", DETECTED_1: "1"}
    for l1 in range(DIM):
        for l2 in range(DIM):
            w = pops[l1, l2]
            if w <= 0:
                continue
            for o1, p1 in chan[l1].items():
                if o1 == LOSS:
                    continue
                q1_ = p1 * SEQUENCE_SURVIVAL
                for o2, p2 in chan[l2].items():
                    if o2 != LOSS:
                        q2 = p2 * SEQUENCE_SURVIVAL
                        out[bucket[o1] + bucket[o2]] += w * q1_ * q2
    out["loss"] = 1.0 - sum(v for k, v in out.items() if k != "loss")
    return out


def reference_find_index(u):
    """Index of the Clifford equal to ``u`` up to phase, by a scan of the
    group in order."""
    for g in clifford_group():
        if equal_up_to_phase(u, g.unitary):
            return g.index
    raise LookupError("matrix is not a Clifford group element (up to phase)")


def _reference_blocking_sites(p0, p1, sites, occupied_mask, skip):
    """Occupied sites within ``EXCLUSION_RADIUS`` of the segment p0 -> p1,
    not in ``skip``: plain-Python point-to-segment distances, no cache,
    nearest-first along the path with ties in index order."""
    x0, y0 = float(p0[0]), float(p0[1])
    dx, dy = float(p1[0]) - x0, float(p1[1]) - y0
    l2 = dx * dx + dy * dy
    hits = []
    for i, (x, y) in enumerate(sites.tolist()):
        if not occupied_mask[i] or i in skip:
            continue
        t = 0.0 if l2 == 0 else ((x - x0) * dx + (y - y0) * dy) / l2
        t = min(max(t, 0.0), 1.0)
        if math.hypot(x - (x0 + t * dx), y - (y0 + t * dy)) < EXCLUSION_RADIUS:
            hits.append((t, i))
    return [i for _, i in sorted(hits)]


def _reference_path_clear(path, sites, occ, skip):
    return not any(_reference_blocking_sites(path[i], path[i + 1], sites, occ,
                                             skip)
                   for i in range(len(path) - 1))


def _reference_route(p0, p1, sites, occ, skip):
    """Direct if clear, else the shortest clear three-segment lane route
    (the first in enumeration order among equal lengths); None if every
    variant is blocked."""
    p0 = tuple(np.asarray(p0, dtype=float))
    p1 = tuple(np.asarray(p1, dtype=float))
    if _reference_path_clear((p0, p1), sites, occ, skip):
        return (p0, p1)
    best = None
    lane = GRID_X_SPACING / 2
    for s0 in (+1, -1):
        for s1 in (+1, -1):
            path = (p0, (p0[0] + s0 * lane, p0[1]), (p1[0] + s1 * lane, p1[1]),
                    p1)
            if _reference_path_clear(path, sites, occ, skip):
                pts = np.asarray(path, dtype=float)
                length = float(np.sum(np.hypot(*np.diff(pts, axis=0).T)))
                if best is None or length < best[0]:
                    best = (length, path)
    return None if best is None else best[1]


def reference_plan_rearrangement(initial, target, geometry):
    """``assembly.plan_rearrangement`` as a plain array program: uncached
    per-segment checks on a boolean occupancy array and scipy's
    ``linear_sum_assignment``. The same moves, in the same order, on the
    same waypoints."""
    from scipy.optimize import linear_sum_assignment

    initial = np.asarray(initial, dtype=bool)
    target = np.asarray(target, dtype=bool)
    sites = geometry.sites
    occ = initial.copy()
    moves = []
    y_park = sites[:, 1].min() - 20.0
    lane = GRID_X_SPACING / 2
    n_park = 0

    def park_route(site):
        nonlocal n_park
        x0, y0 = sites[site]
        for s in (+1, -1):
            a = (x0 + s * lane, y0)
            slot = (x0 + s * lane + 0.01 * n_park, y_park)
            path = (tuple(sites[site]), a, slot)
            if _reference_path_clear(path, sites, occ, {site}):
                n_park += 1
                return path
        return None

    needed = [int(i) for i in np.nonzero(target & ~occ)[0]]
    sources = [int(i) for i in np.nonzero(occ & ~target)[0]]
    unplaced = []
    if len(sources) < len(needed):
        needed.sort(key=lambda t: min((np.hypot(*(sites[t] - sites[s]))
                                       for s in sources), default=np.inf))
        unplaced = needed[len(sources):]
        needed = needed[: len(sources)]
    pending = {}
    if needed:
        cost = np.hypot(*(sites[needed] - sites[sources][:, None])
                        .transpose(2, 0, 1))
        rows, cols = linear_sum_assignment(cost)
        pending = {needed[c]: sources[r] for r, c in zip(rows, cols)}
    surplus = [s for s in sources if s not in pending.values()]
    parked = []  # (position, destination or None, deferred)

    guard = 0
    while pending or surplus or any(t is not None for _, t, _d in parked):
        guard += 1
        if guard > 20 * (geometry.n_sites + 10):
            unplaced.extend(sorted(pending))
            unplaced.extend(t for _, t, _d in parked if t is not None)
            break
        progressed = False
        for tgt in sorted(pending):
            src = pending[tgt]
            if occ[tgt]:
                continue
            route = _reference_route(sites[src], sites[tgt], sites, occ,
                                     {src, tgt})
            if route is not None:
                moves.append(Move(int(src), int(tgt), route))
                occ[src] = False
                occ[tgt] = True
                del pending[tgt]
                progressed = True
                break
        if progressed:
            continue
        for k, (pos, tgt, deferred) in enumerate(parked):
            if tgt is None or occ[tgt] or (deferred and pending):
                continue
            route = _reference_route(pos, sites[tgt], sites, occ, {tgt})
            if route is not None:
                moves.append(Move(-1, int(tgt), route))
                occ[tgt] = True
                parked.pop(k)
                progressed = True
                break
        if progressed:
            continue
        for k, src in enumerate(surplus):
            route = park_route(src)
            if route is not None:
                moves.append(Move(int(src), -1, route))
                occ[src] = False
                parked.append((route[-1], None, False))
                surplus.pop(k)
                progressed = True
                break
        if progressed:
            continue
        relocated = False
        for tgt in sorted(pending):
            src = pending[tgt]
            if occ[tgt]:
                continue
            for blocker in _reference_blocking_sites(
                    sites[src], sites[tgt], sites, occ, {src, tgt}):
                route = park_route(blocker)
                if route is None:
                    continue
                moves.append(Move(int(blocker), -1, route))
                occ[blocker] = False
                if blocker in surplus:
                    surplus.remove(blocker)
                    parked.append((route[-1], None, False))
                else:
                    dest = None
                    deferred = False
                    for t2, s2 in list(pending.items()):
                        if s2 == blocker:
                            dest = t2
                            del pending[t2]
                            break
                    if dest is None and target[blocker]:
                        dest = int(blocker)
                        deferred = True
                    parked.append((route[-1], dest, deferred))
                relocated = True
                break
            if relocated:
                break
        if not relocated:
            if pending:
                tgt = sorted(pending)[0]
                unplaced.append(tgt)
                del pending[tgt]
            elif surplus:
                surplus.pop(0)
            else:
                for k, (pos, tgt, _d) in enumerate(parked):
                    if tgt is not None:
                        unplaced.append(tgt)
                        parked[k] = (pos, None, False)
                        break
    return MovePlan(moves=tuple(moves),
                    unplaced_targets=tuple(sorted(int(u) for u in unplaced)))


def reference_simulate_assembly(geometry, target, loading_probability,
                                per_move_success, imaging_survival, n_trials,
                                seed):
    """``assembly.simulate_assembly`` as a list-occupancy loop over the
    public ``plan_rearrangement``: one scalar draw per carried move, in
    plan order, then the imaging draws of a trial whose targets are all
    filled."""
    flags = np.asarray(target, dtype=bool).tolist()
    target_sites = [i for i, f in enumerate(flags) if f]
    rng = np.random.default_rng(seed)
    wins = 0
    for _ in range(n_trials):
        occ = (rng.random(geometry.n_sites) < loading_probability).tolist()
        plan = plan_rearrangement(occ, flags, geometry)
        if plan.unplaced_targets:
            continue
        parked_ok = set()  # parking slots holding a surviving atom
        for m in plan.moves:
            if m.source >= 0:
                occ[m.source] = False
                carried = True
            else:
                carried = m.path[0] in parked_ok
                parked_ok.discard(m.path[0])
            survived = carried and (rng.random() < per_move_success)
            if m.destination >= 0:
                occ[m.destination] = survived
            elif survived:
                parked_ok.add(m.path[-1])
        if all(occ[i] for i in target_sites) and (
                rng.random(len(target_sites)) < imaging_survival).all():
            wins += 1
    p = wins / n_trials
    return p, float(np.sqrt(max(p * (1 - p), 1e-12) / n_trials))


def reference_sector_unitaries(profile, drive, detuning_edges=None,
                               detuning_values=None):
    """``rydberg.sector_unitaries`` on the whole 6x6 sector problem: each
    CF4:2 step is two exponentials of the full 6x6 Hermitian matrix, each
    from one complex ``eigh``, with the step count of
    ``rydberg.STEPS_PER_RADIAN`` and the steps multiplied one after
    another."""
    solo = isinstance(profile, rydberg.CZPulseProfile)
    profiles = [profile] if solo else list(profile)
    shape = () if solo else (len(profiles), 1, 1)
    th1, th2, th3, th4 = (
        np.reshape([p.theta[i] for p in profiles], shape)[()] for i in range(4)
    )
    t_ref = profiles[0].t_gate
    rate = np.reshape([p.t_gate for p in profiles], shape) / t_ref
    idx = np.ix_(rydberg._SECTOR, rydberg._SECTOR)
    h0, coup = (m[idx] for m in hamiltonian_parts(drive))
    ndiag = np.diag(rydberg.rydberg_count_diag()[list(rydberg._SECTOR)])
    norm = np.abs(h0 + coup + coup.conj().T).sum(axis=1).max()
    coup = np.exp(1j * th4) * coup
    coup_dag = np.swapaxes(coup.conj(), -1, -2)
    freq = 2 * np.pi / t_ref
    modulated = np.any(th1) or np.any(th3)
    n_gate = math.ceil(rydberg.STEPS_PER_RADIAN * norm * t_ref * np.max(rate))
    u = np.eye(len(rydberg._SECTOR), dtype=complex)
    for t0, t1, det in rydberg.detuning_segments(detuning_edges,
                                                 detuning_values, t_ref):
        half = 0.5 * (h0 - np.multiply.outer(det, ndiag))
        n = max(1, math.ceil(n_gate * (t1 - t0) / t_ref)) if modulated else 1
        h = (t1 - t0) / n
        node_shape = (-1, 2) + (1,) * max(np.ndim(th1), half.ndim)
        t = (t0 + h * (np.arange(n)[:, None] + GAUSS_NODES)).reshape(
            node_shape)
        e = np.exp(1j * (th1 * np.cos(freq * t - th2) + th3 * rate * t))
        f = WEIGHT_PLUS * e + WEIGHT_MINUS * e[:, ::-1]
        a = rate * (half + f * coup + np.conj(f) * coup_dag)
        w, v = np.linalg.eigh(a.reshape(-1, *a.shape[2:]))
        for m in (v * np.exp(-1j * h * w)[..., None, :]) @ np.swapaxes(
                v.conj(), -1, -2):
            u = m @ u
    return u[..., :2, :2].copy(), u[..., 2:, 2:].copy()


def reference_rabi_rows(h, ops, t_max, n, groups):
    """``cli._rabi_rows`` as a chain of ``evolve_lindblad`` calls, one per
    sample spacing, each on the state the previous one left."""
    times = np.linspace(0.0, t_max, n)
    st = QuantumState.pure([Q1])
    rows = []
    for k, t in enumerate(times):
        if k:
            st = evolve_lindblad(st, h, ops, t - times[k - 1])
        d = np.diag(st.rho).real
        rows.append((t,) + tuple(sum(d[lv] for lv in group) for group in groups))
    return rows


def reference_ramsey(sigma, times, mid_circuit_erasure=False):
    """``simulate_ramsey`` as per-node, per-phase 6-vector products."""
    times = np.asarray(times, dtype=float)
    deltas, weights = gaussian_quadrature(sigma, RAMSEY_NODES)
    phases = np.linspace(0, 2 * np.pi, RAMSEY_PHASES, endpoint=False)
    open_pulse = embed_qubit_unitary(rotation(np.pi / 2, 0.0))
    closing = [embed_qubit_unitary(rotation(np.pi / 2, phi)) for phi in phases]
    erasure_block = np.eye(DIM, dtype=complex)
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
            for ip, pulse in enumerate(closing):
                out = pulse @ psi
                fringe[ip] += w * abs(out[Q1]) ** 2
        amp, _, offset, _ = fit_sinusoid_fixed_period(phases, fringe,
                                                      period=2 * np.pi)
        contrast[it] = amp / offset if offset > 0 else 0.0
    return contrast
