"""Density-matrix state carrier for one or two atoms."""

from dataclasses import dataclass, field

import numpy as np

from . import levels
from .levels import DIM

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-8


@dataclass(frozen=True)
class QuantumState:
    """Validated density matrix over ``n_atoms`` six-level atoms.

    The matrix is checked for Hermiticity, unit trace and positivity on
    construction; violations raise instead of being silently repaired, so
    integrator bugs surface as errors rather than corrupted statistics.
    """

    n_atoms: int
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_atoms not in (1, 2):
            raise ValueError("only 1 or 2 atoms are supported")
        d = DIM**self.n_atoms
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (d, d):
            raise ValueError(f"density matrix must be {d}x{d}, got {rho.shape}")
        if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
            raise ValueError("density matrix trace differs from 1")
        if np.linalg.eigvalsh(rho).min() < -POSITIVITY_TOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return DIM**self.n_atoms

    @classmethod
    def from_ket(cls, psi: np.ndarray, n_atoms: int) -> "QuantumState":
        psi = np.asarray(psi, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        return cls(n_atoms, np.outer(psi, psi.conj()))

    @classmethod
    def pure(cls, level_per_atom) -> "QuantumState":
        """Product state |l1 l2 ...> given per-atom level indices."""
        lv = tuple(level_per_atom)
        return cls.from_ket(levels.product_ket(lv), len(lv))


def embed_local(op: np.ndarray, atom_index: int, n_atoms: int) -> np.ndarray:
    """Embed a 6x6 single-atom operator into the full product space.

    Atom 0 is the leftmost tensor factor, matching :func:`levels.product_ket`.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (DIM, DIM):
        raise ValueError(f"local operator must be {DIM}x{DIM}, got {op.shape}")
    if not 0 <= atom_index < n_atoms:
        raise ValueError("atom_index out of range")
    out = np.array([[1.0 + 0j]])
    for i in range(n_atoms):
        out = np.kron(out, op if i == atom_index else np.eye(DIM))
    return out


def projector(level_sets) -> np.ndarray:
    """Projector onto per-atom level sets, e.g. ``[{Q1}, {Q0, X}]``."""
    mats = []
    for ls in level_sets:
        m = np.zeros((DIM, DIM), dtype=complex)
        for lv in ls:
            m[lv, lv] = 1.0
        mats.append(m)
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def measure_populations(state: QuantumState, level_sets) -> float:
    """Tr(P rho) for the projector built from ``level_sets``."""
    if len(level_sets) != state.n_atoms:
        raise ValueError("need one level set per atom")
    for ls in level_sets:
        for lv in ls:
            if not 0 <= lv < DIM:
                raise ValueError(f"invalid level index {lv}")
    p = float(np.trace(projector(level_sets) @ state.rho).real)
    if not -1e-9 <= p <= 1 + 1e-9:
        raise AssertionError(f"population {p} outside [0, 1]")
    return min(max(p, 0.0), 1.0)
