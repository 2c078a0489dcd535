"""Master-equation time evolution for one- and two-atom density matrices.

A Hamiltonian is one of three forms: a :class:`ModulatedDrive` (phase
modulation and piecewise detuning), a static matrix, or ``None`` for free
decay. All three go through the one sparse engine in ``_kernels``; there is
no generic ``t -> matrix`` path.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .levels import DIM
from .states import QuantumState, embed_local

# Local per-step tolerances of the adaptive integrator, not a bound on the
# error of the result, which accumulates over the steps.
DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-9
TRACE_DRIFT_TOL = 1e-8


class IntegrationError(RuntimeError):
    """Raised when the integrator cannot certify the requested accuracy."""


@dataclass(frozen=True)
class CollapseOperator:
    """A single Lindblad jump operator with its rate in 1/us.

    ``operator`` is either a 6x6 single-atom matrix or a full-space matrix.
    A local operator with ``atom=None`` acts on every atom (one embedded copy
    per atom), which is the common case for global noise channels.
    """

    rate: float
    operator: np.ndarray = field(repr=False)
    atom: int | None = None

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("collapse rate must be non-negative")
        op = np.asarray(self.operator, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError("collapse operator must be square")
        object.__setattr__(self, "operator", op)

    def expand(self, n_atoms: int) -> list:
        """Full-space (rate, operator) pairs for an ``n_atoms`` system."""
        d = DIM**n_atoms
        if self.operator.shape == (d, d):
            return [(self.rate, self.operator)]
        if self.operator.shape != (DIM, DIM):
            raise ValueError(
                f"collapse operator must be {DIM}x{DIM} or {d}x{d}, "
                f"got {self.operator.shape}"
            )
        atoms = range(n_atoms) if self.atom is None else [self.atom]
        return [(self.rate, embed_local(self.operator, a, n_atoms)) for a in atoms]


@dataclass(frozen=True)
class ModulatedDrive:
    """H(t) = h0 + e^{i phi(t)} coupling + h.c. + delta(t) * detuning_diag.

    phi(t) = phase_amp * cos(phase_freq * t + phase_offset) + phase_slope * t.
    The detuning term is piecewise constant on ``detuning_edges`` (used for
    sampled laser-noise trajectories); a plain constant detuning can be folded
    into ``h0`` instead.
    """

    h0: np.ndarray = field(repr=False)
    coupling: np.ndarray | None = field(default=None, repr=False)
    phase_amp: float = 0.0
    phase_freq: float = 0.0
    phase_offset: float = 0.0
    phase_slope: float = 0.0
    detuning_diag: np.ndarray | None = field(default=None, repr=False)
    detuning_edges: np.ndarray | None = None
    detuning_values: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.h0.shape[0]


def _piece_value(edges, values, t: float):
    values = np.asarray(values, dtype=float)
    j = np.searchsorted(edges, t, side="right") - 1
    v = values[..., min(max(j, 0), values.shape[-1] - 1)]
    return float(v) if v.ndim == 0 else v  # one value per stack member


def detuning_segments(edges, values, duration: float) -> list:
    """(t0, t1, delta) pieces of [0, duration] with a constant detuning.

    ``values[..., k]`` holds from ``edges[k]`` on; with ``values`` None the
    whole span is one zero-detuning piece. Empty pieces are dropped.
    """
    if values is None:
        return [(0.0, duration, 0.0)] if duration > 0 else []
    edges = np.asarray(edges, dtype=float)
    cuts = [0.0] + [float(e) for e in edges if 0.0 < e < duration] + [duration]
    return [
        (t0, t1, _piece_value(edges, values, 0.5 * (t0 + t1)))
        for t0, t1 in zip(cuts, cuts[1:])
        if t1 > t0
    ]


def evolve_rho(
    rho,
    hamiltonian,
    collapses,
    duration,
    n_atoms,
    rtol=DEFAULT_RTOL,
    atol=DEFAULT_ATOL,
):
    """Propagate a (d, d) matrix or a (B, d, d) batch; no state validation.

    This is the raw engine behind :func:`evolve_lindblad` and the channel
    constructors; it happily evolves non-Hermitian matrix units.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    rho = np.ascontiguousarray(rho, dtype=complex)
    batched = rho.ndim == 3
    work = rho if batched else rho[None, :, :]
    d = work.shape[-1]
    if d != DIM**n_atoms:
        raise ValueError(f"a {n_atoms}-atom matrix is {DIM**n_atoms}x"
                         f"{DIM**n_atoms}, not {d}x{d}")
    pairs = [p for c in (collapses or []) for p in c.expand(n_atoms)]
    # the atom swap |a1 a2> -> |a2 a1>, used where the generator has it
    swap = np.arange(d).reshape(DIM, DIM).T.ravel() if n_atoms == 2 else None

    if hamiltonian is None:
        drive = ModulatedDrive(h0=np.zeros((d, d), dtype=complex))
    elif isinstance(hamiltonian, ModulatedDrive):
        drive = hamiltonian
    elif callable(hamiltonian):
        raise TypeError(
            "hamiltonian must be a ModulatedDrive, a static matrix or None, "
            f"not {type(hamiltonian).__name__}"
        )
    else:
        drive = ModulatedDrive(h0=np.asarray(hamiltonian, dtype=complex))
    if drive.dim != d:
        raise ValueError("Hamiltonian dimension does not match the state")

    out = _kernels.propagate(
        work,
        drive.h0,
        drive.coupling,
        (drive.phase_amp, drive.phase_freq, drive.phase_offset, drive.phase_slope),
        drive.detuning_diag,
        detuning_segments(drive.detuning_edges, drive.detuning_values, duration),
        [np.sqrt(rate) * op for rate, op in pairs if rate != 0.0],
        rtol,
        atol,
        exchange=swap,
    )
    return out if batched else out[0]


def evolve_lindblad(
    state: QuantumState,
    hamiltonian,
    collapses,
    duration: float,
) -> QuantumState:
    """Evolve a state under the Lindblad equation for ``duration`` (us) at
    the default tolerances."""
    out = evolve_rho(state.rho, hamiltonian, collapses, duration, state.n_atoms)
    drift = abs(np.trace(out).real - 1.0)
    if drift > TRACE_DRIFT_TOL:
        raise IntegrationError(
            f"trace drifted by {drift:.3e} (> {TRACE_DRIFT_TOL}); "
            "tighten tolerances"
        )
    out = 0.5 * (out + out.conj().T)  # scrub roundoff asymmetry only
    return QuantumState(state.n_atoms, out / np.trace(out).real)
