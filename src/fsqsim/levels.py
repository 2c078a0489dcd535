"""Six-level local basis used by every simulation in the package.

Index order is fixed and relied upon throughout:

    0  q0  --  3P2, m_J = 0 (lower qubit state)
    1  q1  --  3P0 (upper qubit state, Rydberg-coupled)
    2  r   --  Rydberg state
    3  g   --  1S0 ground state; outside the qubit subspace and visible to
               fast imaging, so population here is erasure-detectable
    4  x   --  3P2, m_J != 0; not a qubit state but read out as q0
    5  B   --  bucket: ionized, dark-decayed or otherwise lost population
"""

from dataclasses import dataclass

import numpy as np

LABELS = ("q0", "q1", "r", "g", "x", "B")
DIM = 6
Q0, Q1, R, G, X, B = range(DIM)

QUBIT_LEVELS = (Q0, Q1)


@dataclass(frozen=True)
class LevelScheme:
    """Ordered local basis labels; exactly six, unique, fixed order."""

    labels: tuple = LABELS

    def __post_init__(self):
        if len(self.labels) != DIM:
            raise ValueError(f"level scheme needs exactly {DIM} labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("level labels must be unique")

    def index(self, label: str) -> int:
        return self.labels.index(label)


def ket(level: int) -> np.ndarray:
    """Local basis vector |level>."""
    v = np.zeros(DIM, dtype=complex)
    v[level] = 1.0
    return v


def lop(a: int, b: int) -> np.ndarray:
    """Local operator |a><b| on the six-level space."""
    m = np.zeros((DIM, DIM), dtype=complex)
    m[a, b] = 1.0
    return m


def product_ket(levels) -> np.ndarray:
    """Tensor-product basis vector; atom 0 is the leftmost factor."""
    levels = tuple(levels)
    v = ket(levels[0])
    for lv in levels[1:]:
        v = np.kron(v, ket(lv))
    return v


def full_index(levels) -> int:
    """Flat index of a product basis state (atom 0 most significant)."""
    idx = 0
    for lv in levels:
        idx = idx * DIM + lv
    return idx


def unravel_index(idx: int, n_atoms: int) -> tuple:
    """Inverse of :func:`full_index`."""
    out = []
    for _ in range(n_atoms):
        out.append(idx % DIM)
        idx //= DIM
    return tuple(reversed(out))
