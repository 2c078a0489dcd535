"""Superoperators, Choi matrices and process fidelities.

Vectorization is column-stacking throughout: vec(M)[i + d*j] = M[i, j], so a
map rho -> A rho B has superoperator B^T (x) A and a unitary conjugation
rho -> U rho U^dag becomes conj(U) (x) U.
"""

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .levels import B, DIM, G, Q0, Q1, R, X
from .lindblad import evolve_rho

TP_TOL = 1e-8
CHOI_TOL = 1e-7
PAIR_LEAK_TOL = 1e-9  # largest entry channel_on_pairs lets leave its span

# Per-atom (row, col) level pairs of the gate's closed operator subspace: all
# pairs over {q0, q1, r} plus the sink populations (g,g), (x,x), (B,B).
LOCAL_PAIRS = tuple(itertools.product((Q0, Q1, R), repeat=2)) + (
    (G, G), (X, X), (B, B))


def vec(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).flatten(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.size)))
    return np.asarray(v).reshape((d, d), order="F")


@dataclass(frozen=True)
class Superoperator:
    """Column-stacking superoperator matrix acting on vec(rho)."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = int(round(np.sqrt(m.shape[0])))
        if m.shape != (d * d, d * d):
            raise ValueError("superoperator must be d^2 x d^2")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.matrix.shape[0])))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(rho))

    @classmethod
    def identity(cls, dim: int) -> "Superoperator":
        return cls(np.eye(dim * dim, dtype=complex))


def compose(second: Superoperator, first: Superoperator) -> Superoperator:
    """Channel that applies ``first`` then ``second``."""
    return Superoperator(second.matrix @ first.matrix)


def trace_preservation_defect(s: Superoperator) -> float:
    """Max deviation of the left trace eigenvector, tr(S rho) vs tr(rho)."""
    d = s.dim
    vid = vec(np.eye(d))
    return float(np.max(np.abs(vid @ s.matrix - vid)))


def choi_matrix(s: Superoperator) -> np.ndarray:
    """Unnormalized Choi matrix C = sum_ab |a><b| (x) Lambda(|a><b|)."""
    d = s.dim
    s4 = s.matrix.reshape(d, d, d, d)  # axes (j, i, b, a) from (i+dj, a+db)
    return s4.transpose(3, 1, 2, 0).reshape(d * d, d * d)


def min_choi_eigenvalue(s: Superoperator) -> float:
    c = choi_matrix(s)
    return float(np.linalg.eigvalsh(0.5 * (c + c.conj().T)).min())


def is_cptp(s: Superoperator) -> bool:
    return (
        trace_preservation_defect(s) <= TP_TOL
        and min_choi_eigenvalue(s) >= -CHOI_TOL
    )


def channel_superoperator(
    hamiltonian,
    collapses,
    duration: float,
    n_atoms: int,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> Superoperator:
    """Lindblad channel as a superoperator, by propagating all d^2 matrix
    units as one batch.

    For the two-atom gate channels used in the error budget prefer
    :func:`channel_on_pairs`, which propagates only the closed operator
    subspace.
    """
    d = DIM**n_atoms
    pairs = [(k % d, k // d) for k in range(d * d)]  # column-stacking order
    return Superoperator(
        channel_on_pairs(hamiltonian, collapses, duration, n_atoms, pairs,
                         rtol, atol)[0]
    )


def channel_on_pairs(
    hamiltonian,
    collapses,
    duration: float,
    n_atoms: int,
    pairs,
    rtol: float = 1e-8,
    atol: float = 1e-10,
):
    """Channel restricted to the operator subspace spanned by matrix units.

    ``pairs`` is a list of (row, col) full-space indices whose span must be
    closed under the dynamics; the residual outside the span is returned so
    callers can assert exactness. Returns (matrix, leak) where matrix[p, q]
    is the coefficient of E_pairs[p] in Lambda(E_pairs[q]).
    """
    d = DIM**n_atoms
    npairs = len(pairs)
    basis = np.zeros((npairs, d, d), dtype=complex)
    for k, (i, j) in enumerate(pairs):
        basis[k, i, j] = 1.0
    out = evolve_rho(basis, hamiltonian, collapses, duration, n_atoms, rtol, atol)
    rows = np.array([p[0] for p in pairs])
    cols = np.array([p[1] for p in pairs])
    m = out[:, rows, cols].T.copy()
    residual = out.copy()
    residual[:, rows, cols] = 0.0
    leak = float(np.max(np.abs(residual)))
    if leak > PAIR_LEAK_TOL:
        raise ValueError(
            f"operator subspace is not closed (leak {leak:.2e}); "
            "pass the full pair set for these collapse channels"
        )
    return m, leak


def conjugation_on_pairs(k: np.ndarray, pairs) -> np.ndarray:
    """Pair-basis matrix of rho -> K rho K^dag: entry [p, q] is the
    coefficient of E_pairs[p] in K E_pairs[q] K^dag."""
    rows = np.array([p[0] for p in pairs])
    cols = np.array([p[1] for p in pairs])
    return k[np.ix_(rows, rows)] * np.conj(k[np.ix_(cols, cols)])


def gate_pair_basis():
    """Two-atom matrix-unit pairs spanning the operator subspace closed under
    a Rydberg gate with decay, dephasing and ionization channels.

    The lexicographic product of ``LOCAL_PAIRS`` with itself (144 pairs):
    slot ``k1 * 12 + k2`` holds |a1 a2><b1 b2| for local pairs k1 = (a1, b1)
    and k2 = (a2, b2). Jumps only ever populate sink populations, never sink
    coherences, so this set is exactly closed: the engine's breadth-first
    support from these matrix units is this set, and channel_on_pairs asserts
    no leak at use time.
    """
    return [
        (r1 * DIM + r2, c1 * DIM + c2)
        for (r1, c1), (r2, c2) in itertools.product(LOCAL_PAIRS, repeat=2)
    ]


def pair_index(rows, cols) -> int:
    """Slot of |a1 a2><b1 b2| in :func:`gate_pair_basis`, for
    ``rows = (a1, a2)`` and ``cols = (b1, b2)``."""
    k1 = LOCAL_PAIRS.index((rows[0], cols[0]))
    k2 = LOCAL_PAIRS.index((rows[1], cols[1]))
    return k1 * len(LOCAL_PAIRS) + k2


def subspace_entanglement_fidelity(
    s: Superoperator, s_ideal: Superoperator, subspace_levels
) -> float:
    """Entanglement fidelity of s composed with the inverse ideal map,
    restricted to the product subspace spanned by ``subspace_levels``.

    The ideal map is LU-factored once; it is refused as numerically singular
    when LAPACK's estimate of its 1-norm condition number (``zgecon`` on that
    factorization) exceeds 1e10."""
    d = s.dim
    if s_ideal.dim != d:
        raise ValueError("superoperator dimensions differ")
    n_atoms = 1 if d == DIM else 2
    if DIM**n_atoms != d:
        raise ValueError("dimension is not a power of the local dimension")
    if n_atoms == 1:
        sub = list(subspace_levels)
    else:
        sub = [
            a * DIM + b for a in subspace_levels for b in subspace_levels
        ]
    # F_e averages lam[k, k] = vec(E_ij) . lam vec(E_ij) with lam = S S_ideal^-1
    # over i, j in the subspace, so only those columns of the inverse are solved
    idx = [i + d * j for i in sub for j in sub]
    units = np.zeros((d * d, len(idx)), dtype=complex)
    units[idx, np.arange(len(idx))] = 1.0
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
    from scipy.linalg.lapack import zgecon

    ideal = s_ideal.matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error", LinAlgWarning)  # an exactly zero pivot
        try:
            lu, piv = lu_factor(ideal)
        except LinAlgWarning as exc:
            raise ValueError("ideal superoperator is not invertible") from exc
    rcond, _ = zgecon(lu, np.abs(ideal).sum(axis=0).max())
    if rcond < 1e-10:
        raise ValueError("ideal superoperator is numerically singular")
    inv_cols = lu_solve((lu, piv), units)
    fe = np.einsum("km,mk->", s.matrix[idx], inv_cols)
    return float((fe / len(sub) ** 2).real)


def process_fidelity(
    s: Superoperator, s_ideal: Superoperator, subspace_levels=(Q0, Q1)
) -> float:
    """Average gate fidelity of ``s`` against ``s_ideal`` on a level subspace.

    F_avg = (d F_e + 1) / (d + 1) with d the subspace dimension.
    """
    if not subspace_levels:
        raise ValueError("subspace must be nonempty")
    d = s.dim
    n_atoms = 1 if d == DIM else 2
    ds = len(subspace_levels) ** n_atoms
    fe = subspace_entanglement_fidelity(s, s_ideal, subspace_levels)
    return (ds * fe + 1.0) / (ds + 1.0)
