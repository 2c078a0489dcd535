"""Master-equation time evolution for one- and two-atom density matrices.

A Hamiltonian is one of three forms: a :class:`ModulatedDrive` (a static
part and a phase-modulated coupling), a static matrix, or ``None`` for free
decay. All three go through the one sparse engine in ``_kernels``, which
propagates one generator over one span in a fixed number of CF4:2 steps
(``_kernels._lindblad_py.STEPS_PER_RADIAN`` per radian of a bound on the
generator); there is no generic ``t -> matrix`` path and no tolerance to
set. A constant generator is exact to rounding. A constant detuning is part
of the static matrix; piecewise detuning belongs to the sector propagator,
``rydberg.sector_unitaries``.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .levels import DIM
from .states import QuantumState, embed_local

TRACE_DRIFT_TOL = 1e-8


class IntegrationError(RuntimeError):
    """Raised when a propagated state's trace drifts beyond rounding."""


@dataclass(frozen=True)
class CollapseOperator:
    """A single Lindblad jump operator with its rate in 1/us.

    ``operator`` is a 6x6 single-atom matrix; it acts on every atom (one
    embedded copy per atom, as global noise channels do).
    """

    rate: float
    operator: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("collapse rate must be non-negative")
        op = np.asarray(self.operator, dtype=complex)
        if op.shape != (DIM, DIM):
            raise ValueError(f"collapse operator must be {DIM}x{DIM}, "
                             f"got {op.shape}")
        object.__setattr__(self, "operator", op)

    def expand(self, n_atoms: int) -> list:
        """Full-space (rate, operator) pairs for an ``n_atoms`` system."""
        return [(self.rate, embed_local(self.operator, a, n_atoms))
                for a in range(n_atoms)]


@dataclass(frozen=True)
class ModulatedDrive:
    """H(t) = h0 + e^{i phi(t)} coupling + h.c.

    phi(t) = phase_amp * cos(phase_freq * t + phase_offset) + phase_slope * t.
    A constant detuning is folded into ``h0``.
    """

    h0: np.ndarray = field(repr=False)
    coupling: np.ndarray | None = field(default=None, repr=False)
    phase_amp: float = 0.0
    phase_freq: float = 0.0
    phase_offset: float = 0.0
    phase_slope: float = 0.0

    @property
    def dim(self) -> int:
        return self.h0.shape[0]


def evolve_rho(rho, hamiltonian, collapses, duration):
    """Propagate a (d, d) matrix or a (B, d, d) batch of one atom (d = 6)
    or two (d = 36); no state validation.

    This is the raw engine behind :func:`evolve_lindblad` and the channel
    constructors; it happily evolves non-Hermitian matrix units.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    rho = np.ascontiguousarray(rho, dtype=complex)
    batched = rho.ndim == 3
    work = rho if batched else rho[None, :, :]
    d = work.shape[-1]
    n_atoms = {DIM: 1, DIM**2: 2}.get(d)
    if n_atoms is None:
        raise ValueError(f"a {d}x{d} matrix is not one atom ({DIM}x{DIM}) "
                         f"or two ({DIM**2}x{DIM**2})")
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
        duration,
        [np.sqrt(rate) * op for rate, op in pairs if rate != 0.0],
        exchange=swap,
    )
    return out if batched else out[0]


def evolve_lindblad(
    state: QuantumState,
    hamiltonian,
    collapses,
    duration: float,
) -> QuantumState:
    """Evolve a state under the Lindblad equation for ``duration`` (us)."""
    out = evolve_rho(state.rho, hamiltonian, collapses, duration)
    drift = abs(np.trace(out).real - 1.0)
    if drift > TRACE_DRIFT_TOL:
        raise IntegrationError(
            f"trace drifted by {drift:.3e} (> {TRACE_DRIFT_TOL}): every step "
            "preserves the trace up to rounding, so the generator is too "
            "large for double precision"
        )
    out = 0.5 * (out + out.conj().T)  # scrub roundoff asymmetry only
    return QuantumState(state.n_atoms, out / np.trace(out).real)
