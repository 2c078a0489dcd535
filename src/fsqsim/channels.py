"""Channels as matrices on lists of matrix units.

A channel is one matrix on a list of full-space matrix units
E_k = |i_k><j_k| (``pairs``, a list of (i_k, j_k)): entry [p, q] is the
coefficient of E_p in Lambda(E_q). On all d^2 units in the engine's row-major
order, k -> (k // d, k % d), this is the superoperator acting on
vec(rho)[i*d + j] = rho[i, j], so vec(rho) is ``rho.ravel()``, a map
rho -> A rho B has matrix A (x) B^T and a unitary conjugation is
U (x) conj(U). The two-atom gate channel lives on the 144 units of
:func:`gate_pair_basis`.
"""

import itertools

import numpy as np

from .levels import B, DIM, G, Q0, Q1, R, X, full_index
from .lindblad import evolve_rho

# Bounds on the two numbers :func:`cptp_defects` returns for a built channel:
# its trace-preservation defect, and minus the smallest Choi eigenvalue.
TP_TOL = 1e-8
CHOI_TOL = 1e-7
PAIR_LEAK_TOL = 1e-9  # largest entry channel_on_pairs lets leave its span

# Per-atom (row, col) level pairs of the gate's closed operator subspace: all
# pairs over {q0, q1, r} plus the sink populations (g,g), (x,x), (B,B).
LOCAL_PAIRS = tuple(itertools.product((Q0, Q1, R), repeat=2)) + (
    (G, G), (X, X), (B, B))


# All 36 one-atom matrix units in the engine's row-major order
ONE_ATOM_UNITS = tuple((k // DIM, k % DIM) for k in range(DIM * DIM))


def channel_superoperator(hamiltonian, collapses, duration: float) -> np.ndarray:
    """One-atom Lindblad channel on :data:`ONE_ATOM_UNITS`: the (36, 36)
    matrix acting on ``rho.ravel()``, checked by :func:`check_cptp` over all
    six levels.

    For the two-atom gate channels use :func:`channel_on_pairs` on
    :func:`gate_pair_basis`, which propagates only the closed operator
    subspace.
    """
    m = channel_on_pairs(hamiltonian, collapses, duration, 1,
                         ONE_ATOM_UNITS)[0]
    check_cptp(m, ONE_ATOM_UNITS, 1, range(DIM),
               f"the one-atom channel over {duration:.6g} us")
    return m


def channel_on_pairs(
    hamiltonian,
    collapses,
    duration: float,
    n_atoms: int,
    pairs,
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
    out = evolve_rho(basis, hamiltonian, collapses, duration)
    rows = np.array([p[0] for p in pairs])
    cols = np.array([p[1] for p in pairs])
    m = out[:, rows, cols].T.copy()
    out[:, rows, cols] = 0.0  # what is left is the residual
    leak = float(np.max(np.abs(out)))
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


def cptp_defects(m: np.ndarray, pairs, n_atoms: int, levels):
    """(TP defect, minimum Choi eigenvalue) of the channel with matrix ``m``
    on the matrix units ``pairs``.

    The TP defect is the largest |tr Lambda(E_q) - tr E_q| over the units,
    which needs the list closed under the channel (as channel_on_pairs
    asserts). The Choi block is C = sum_ab |a><b| (x) Lambda(|a><b|) over the
    product states a, b with every atom in ``levels``, so every such unit
    must be in ``pairs``: all 36 one-atom units, or the 81 units of
    {q0, q1, r}^2 in the gate pair basis. The channel restricted to that
    input space is completely positive iff C is positive semidefinite
    (Choi, Linear Algebra Appl. 10, 285 (1975)). C (Hermitian part) is
    split into the blocks its nonzero pattern connects, and each block goes
    to ``eigvalsh`` alone; an all-zero row only adds an eigenvalue 0. For
    the gate basis that is 16 blocks of at most 81 rows, not one dense 324
    x 324 matrix.
    """
    d = DIM**n_atoms
    m = np.asarray(m)
    rows = np.array([p[0] for p in pairs])
    cols = np.array([p[1] for p in pairs])
    diag = rows == cols
    tp_defect = float(np.max(np.abs(m[diag].sum(axis=0) - diag)))

    slot = {pair: k for k, pair in enumerate(pairs)}
    states = [full_index(s) for s in itertools.product(levels, repeat=n_atoms)]
    try:
        inputs = [[slot[a, b] for b in states] for a in states]
    except KeyError as exc:
        raise ValueError(f"the Choi block over levels {tuple(levels)} needs "
                         f"the unit {exc.args[0]}, which is not in the list"
                         ) from None
    n = len(states)
    # C[(a, row p), (b, col p)] = m[p, unit |a><b|], held at [a, b, p]
    vals = np.moveaxis(m[:, inputs], 0, -1)
    i = np.broadcast_to(np.arange(n)[:, None, None] * d + rows, vals.shape)
    j = np.broadcast_to(np.arange(n)[None, :, None] * d + cols, vals.shape)
    nz = vals != 0
    i, j, vals = i[nz], j[nz], vals[nz]
    label = np.arange(n * d)
    while True:  # each row takes the smallest label it is linked to
        linked = label.copy()
        np.minimum.at(linked, i, label[j])
        np.minimum.at(linked, j, label[i])
        if np.array_equal(linked, label):
            break
        label = linked
    used = np.zeros(n * d, dtype=bool)
    used[i] = used[j] = True
    min_eig = 0.0 if not used.all() else np.inf  # a zero row: eigenvalue 0
    at = np.zeros(n * d, dtype=int)  # a row's place in its block
    for root in np.flatnonzero(used & (label == np.arange(n * d))):
        block = np.flatnonzero(used & (label == root))
        at[block] = np.arange(block.size)
        mine = label[i] == root
        c = np.zeros((block.size, block.size), dtype=complex)
        c[at[i[mine]], at[j[mine]]] = vals[mine]
        c = 0.5 * (c + c.conj().T)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(c).min()))
    return tp_defect, min_eig


def check_cptp(m: np.ndarray, pairs, n_atoms: int, levels, source: str):
    """Raise ValueError naming ``source`` unless the channel ``m`` on
    ``pairs`` passes :func:`cptp_defects` within ``TP_TOL`` and
    ``CHOI_TOL``."""
    tp_defect, min_eig = cptp_defects(m, pairs, n_atoms, levels)
    if tp_defect > TP_TOL or min_eig < -CHOI_TOL:
        raise ValueError(
            f"{source} is not CPTP: trace-preservation defect "
            f"{tp_defect:.3g} (bound {TP_TOL:g}), minimum Choi eigenvalue "
            f"{min_eig:.3g} (bound {-CHOI_TOL:g})"
        )
