"""The 24-element single-qubit Clifford group and its pulse compilation.

Each Clifford is compiled to at most two physical pi/2 pulses plus virtual-Z
frame updates; the compilation table is generated once and verified by the
test suite (closure, inverses, pulse-count census).
"""

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .pulses import rotation, virtual_z_equivalent

PHASE_GRID = (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)
MATCH_TOL = 1e-10


def equal_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = MATCH_TOL) -> bool:
    """Whether ``v`` is ``u`` times a unit-modulus factor, to ``tol``."""
    i, j = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    if abs(v[i, j]) < tol or abs(u[i, j]) < tol:
        return False
    phase = v[i, j] / u[i, j]
    return bool(abs(abs(phase) - 1.0) < tol
                and np.max(np.abs(u * phase - v)) < tol)


def _canonical(u: np.ndarray) -> np.ndarray:
    """Fix the global phase: largest element real positive."""
    i, j = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    return u * (abs(u[i, j]) / u[i, j])


@dataclass(frozen=True)
class CliffordGate:
    index: int
    unitary: np.ndarray = field(repr=False)
    # compilation: virtual-z angles interleaved with pi/2 pulses at phase 0,
    # executed as z0 [X90 z1 [X90 z2]] in time order
    z_angles: tuple = ()
    n_pulses: int = 0


def _x90() -> np.ndarray:
    return rotation(np.pi / 2, 0.0)


def _compile_table():
    """Enumerate Z(a) X90 Z(b) X90 Z(c) products over quarter-turn angles."""
    x90 = _x90()
    entries = []
    for n_pulses in (0, 1, 2):
        # the first angle varies fastest
        for reversed_angles in itertools.product(PHASE_GRID,
                                                 repeat=n_pulses + 1):
            angles = reversed_angles[::-1]
            u = virtual_z_equivalent(angles[0])
            for a in angles[1:]:
                u = virtual_z_equivalent(a) @ x90 @ u
            entries.append((angles, n_pulses, u))
    return entries


def _phase_key(u: np.ndarray):
    """``u`` with its phase fixed at the first entry of modulus above 1/2,
    rounded to 6 decimals (None without such an entry). Clifford entries
    have modulus 0, 1/sqrt(2) or 1, so that reference entry, and the key,
    survive a global phase and rounding noise."""
    flat = np.asarray(u, dtype=complex).ravel()
    big = np.flatnonzero(np.abs(flat) > 0.5)
    if not len(big):
        return None
    ref = flat[big[0]]
    return tuple(np.round((flat * (abs(ref) / ref)).view(float), 6).tolist())


@lru_cache(maxsize=1)
def clifford_group() -> tuple:
    """Canonically ordered 24-element single-qubit Clifford group."""
    uniques = {}  # first compilation of each element, by phase key
    for angles, n_pulses, u in _compile_table():
        uniques.setdefault(_phase_key(u), (angles, n_pulses, u))
    assert len(uniques) == 24, f"expected 24 Cliffords, built {len(uniques)}"
    # deterministic order independent of enumeration details
    keyed = sorted(
        uniques.values(),
        key=lambda e: tuple(np.round(_canonical(e[2]).view(float).ravel(), 9)),
    )
    return tuple(
        CliffordGate(index=i, unitary=_canonical(u), z_angles=angles, n_pulses=n)
        for i, (angles, n, u) in enumerate(keyed)
    )


@lru_cache(maxsize=1)
def _index_by_key() -> dict:
    return {_phase_key(g.unitary): g.index for g in clifford_group()}


def find_index(u: np.ndarray) -> int:
    index = _index_by_key().get(_phase_key(u))
    if index is None or not equal_up_to_phase(u, clifford_group()[index].unitary):
        raise LookupError("matrix is not a Clifford group element (up to phase)")
    return index


@lru_cache(maxsize=1)
def _composition() -> tuple:
    """(products, inverses, identity) by group index: ``products[a][b]`` is
    the index of group[a] @ group[b] (``b`` applied first), ``inverses[a]``
    that of the inverse of group[a]. Built on first use, not at import: all
    products in one batched matmul, each read through its phase key."""
    group = clifford_group()
    u = np.array([g.unitary for g in group])
    flat = (u[:, None] @ u[None, :]).reshape(-1, 4)
    ref = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > 0.5, axis=1)]
    keys = np.round((flat * (np.abs(ref) / ref)[:, None]).view(float), 6)
    index = _index_by_key()
    products = np.reshape([index[tuple(k)] for k in keys.tolist()],
                          (len(group), len(group))).tolist()
    identity = find_index(np.eye(2))
    return products, [row.index(identity) for row in products], identity


def compose(a: CliffordGate, b: CliffordGate) -> CliffordGate:
    """Group element equal to applying ``b`` first, then ``a``."""
    return clifford_group()[_composition()[0][a.index][b.index]]


def invert(a: CliffordGate) -> CliffordGate:
    return clifford_group()[_composition()[1][a.index]]


def sequence_inverse(indices) -> int:
    """Index of the element that undoes the Cliffords ``indices``, applied
    first to last: a walk on the composition table."""
    products, inverses, g = _composition()
    for i in indices:
        g = products[i][g]
    return inverses[g]


def average_pulse_count() -> float:
    return float(np.mean([g.n_pulses for g in clifford_group()]))
