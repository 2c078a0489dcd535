"""The master-equation propagation engine.

The problem solved here is

    drho/dt = -i [H(t), rho] + sum_k L_k rho L_k^dag - 1/2 {G, rho}

with H(t) = H0 + exp(i*phi(t)) C + exp(-i*phi(t)) C^dag over one span
[0, duration], phi(t) = a*cos(w t + p) + s*t, G = sum_k L_k^dag L_k (any
pattern) and the decay rates folded into the L_k. A constant detuning is
part of H0. In row-major vector form, vec(rho)[i*d + j] = rho[i, j], the
generator is the sum of three sparse parts,

    L(t) = L0 + e^{i phi(t)} L_plus + e^{-i phi(t)} L_minus,

and only the entries reachable from the input's nonzeros along the pattern
of those parts (a breadth-first closure) are ever propagated: every other
entry starts at zero and stays exactly zero. The closure runs per batch
member, so the state is the flat vector of reachable (entry, member) pairs,
entry-major, and each part acts on it as one sparse matrix (a matrix unit
reaches only a small part of what a whole basis of them reaches).

A member is propagated only if it is not an image of an earlier one under
a symmetry of the generator: the adjoint rho -> rho^dag, which holds when
H0 is exactly Hermitian (the drive term e^{i phi} C + h.c. is Hermitian by
construction), the atom exchange rho -> P rho P^T, which holds when every
part is exactly invariant under the caller's ``exchange`` permutation, and
their product. The representatives are found first and only their supports
are closed; an image takes its result from its representative's result
(the CZ channel's 144 units propagate as 51).

Propagation is a fixed number of CF4:2 steps (the scheme of the sector
propagator in ``rydberg``), set by a bound on the generator before the
first step; each step applies two exponentials to the state by their
Taylor series. There is no tolerance to set. A constant generator is exact
to rounding at any step count, and each step is the exponential of a
Lindblad generator, so a built channel is completely positive and trace
preserving to rounding.

The parts are :class:`CSR` matrices, a small numpy compressed-row type, so
the engine imports no scipy: importing any scipy subpackage after numpy
costs a process 0.2-0.35 s, more than the products it would speed up.
"""

import math

import numpy as np

# CF4:2, the fourth-order commutator-free Magnus scheme of Blanes & Moan
# (Appl. Numer. Math. 56, 1519 (2006)). One step of length h samples the
# generator at the Gauss nodes t + c h, then applies exp(h (a+ L1 + a- L2))
# and after it exp(h (a- L1 + a+ L2)); for a constant generator the two
# multiply to exp(h L). The sector propagator in ``rydberg`` uses the same
# nodes and weights.
GAUSS_NODES = np.array([0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6])
WEIGHT_PLUS = (3 + 2 * np.sqrt(3)) / 12
WEIGHT_MINUS = (3 - 2 * np.sqrt(3)) / 12
# Steps per radian of the generator bound times the duration (see
# :func:`step_count`): the reference CZ channel takes 43 steps, and its
# largest entry is 3.1e-5 off a tight reference; the error falls 16x per
# doubling.
STEPS_PER_RADIAN = 0.25
MAX_STEPS = 10_000  # more steps than this: the input is stiff or over-long
_EPS = np.finfo(float).eps


def _expmv(a, y):
    """exp(A) y by its Taylor series, with ``a(x)`` = A x as a new array
    (each term is divided in place): terms A^k y / k! are added until the
    largest entry of one is within rounding of the largest of the sum
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)). A NaN stops
    the series."""
    total = y.copy()
    term, k = y, 0
    while True:
        k += 1
        term = a(term)
        term /= k
        total += term
        if not abs(term).max() > _EPS * abs(total).max():
            return total


class CSR:
    """A sparse matrix of ``shape`` (rows, cols), stored by rows.

    Built from (row, col, value) triplets: duplicates are summed in the
    order given and entries that sum to zero are dropped, as scipy's
    ``csr_array`` does. ``rows``, ``cols`` and ``vals`` hold the result,
    sorted by row, then column. ``m @ y`` accumulates the products with
    ``np.add.at``, which adds them one after another in that order, so each
    row sums its terms in column order whether ``y`` is 1-d or has one
    column per member: a 2-d product equals its columns taken one at a
    time, bit for bit. (``np.add.reduceat`` does not: it sums a long row
    pairwise.) Each term is one numpy complex product, which numpy may
    fuse (FMA) where scipy's sparse product does not, so a row can differ
    from ``csr_array``'s in its last bit.
    """

    def __init__(self, rows, cols, vals, shape):
        n = shape[1]
        key = np.asarray(rows, dtype=np.intp) * n + np.asarray(cols, dtype=np.intp)
        order = np.argsort(key, kind="stable")
        key, vals = key[order], np.asarray(vals)[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        summed = vals[first]
        np.add.at(summed, np.cumsum(first)[~first] - 1, vals[~first])
        keep = summed != 0
        self.shape = shape
        self.rows, self.cols = np.divmod(key[first][keep], n)
        self.vals = summed[keep]

    def __matmul__(self, y):
        # the transposes put the member axis of a 2-d ``y`` first, so the
        # values broadcast along it; on a 1-d ``y`` they cost nothing
        prod = (self.vals * y[self.cols].T).T
        out = np.zeros(self.shape[:1] + y.shape[1:], prod.dtype)
        np.add.at(out, self.rows, prod)
        return out

    def restrict(self, live):
        """The submatrix of a square matrix on rows and columns ``live``
        (sorted), renumbered from 0."""
        at = np.full(self.shape[0], -1)
        at[live] = np.arange(len(live))
        r, c = at[self.rows], at[self.cols]
        keep = (r >= 0) & (c >= 0)
        return CSR(r[keep], c[keep], self.vals[keep], (len(live), len(live)))


def _kron_terms(a, b, scale=1.0):
    """COO triplets (rows, cols, values) of scale * (a (x) b), a and b dense."""
    d = b.shape[0]
    ra, ca = np.nonzero(a)
    rb, cb = np.nonzero(b)
    return (
        (ra[:, None] * d + rb).ravel(),
        (ca[:, None] * d + cb).ravel(),
        (scale * np.outer(a[ra, ca], b[rb, cb])).ravel(),
    )


def _commutator_terms(h):  # rho -> -i [h, rho]
    eye = np.eye(h.shape[0])
    return [_kron_terms(h, eye, -1j), _kron_terms(eye, h.T, 1j)]


def _sparse(terms, shape):
    """The :class:`CSR` of the concatenated triplets ``terms``."""
    rows, cols, vals = (np.concatenate(x) for x in zip(*terms))
    return CSR(rows, cols, vals, shape)


def _stacked(mats):
    """The n x n matrices ``mats`` stacked into one (len(mats) n) x n matrix:
    one product with it gives every product, each row summed as alone."""
    n = mats[0].shape[0]
    return _sparse([(m.rows + i * n, m.cols, m.vals) for i, m in enumerate(mats)],
                   (len(mats) * n, n))


def liouvillian_parts(h0, coupling, jumps):
    """(L0, L_plus, L_minus) as sparse row-major superoperators.

    ``jumps`` are full-space operators with sqrt(rate) folded in. Without a
    ``coupling`` (None), L_plus and L_minus are None.
    """
    d = h0.shape[0]
    shape = (d * d, d * d)
    eye = np.eye(d)
    g = sum((op.conj().T @ op for op in jumps), np.zeros((d, d), dtype=complex))
    l0 = _commutator_terms(np.asarray(h0, dtype=complex))
    l0 += [_kron_terms(op, op.conj()) for op in jumps]
    l0 += [_kron_terms(g, eye, -0.5), _kron_terms(eye, g.T, -0.5)]
    if coupling is None:
        return _sparse(l0, shape), None, None
    coupling = np.asarray(coupling, dtype=complex)
    return (_sparse(l0, shape), _sparse(_commutator_terms(coupling), shape),
            _sparse(_commutator_terms(coupling.conj().T), shape))


def _closure(pattern, seed):
    """Boolean mask of what ``seed`` (1-d, or one column per member) reaches
    along the nonzero ``pattern``, breadth-first."""
    reach = seed.copy()
    frontier = reach
    while frontier.any():
        frontier = (pattern @ frontier.astype(float) != 0) & ~reach
        reach |= frontier
    return reach


def closed_support(parts, seed):
    """Sorted flat indices of the entries reachable from the ``seed`` mask
    along the nonzero pattern of the generator ``parts``.

    A ``(d*d, B)`` seed is closed per column, so index ``k * B + m`` is
    vector entry k of member m (entry-major). The union of the columns is
    closed first on the whole pattern; each column then closes on the small
    block of entries that union reaches."""
    parts = [p for p in parts if p is not None]
    pattern = _sparse([(p.rows, p.cols, np.ones(p.vals.size)) for p in parts],
                      parts[0].shape)
    seed = np.asarray(seed, dtype=bool)
    union = seed.reshape(len(seed), -1).any(axis=1)
    live = np.flatnonzero(_closure(pattern, union))
    if seed.ndim == 1 or seed.shape[1] == 1:
        return live
    reach = np.zeros(seed.shape, dtype=bool)
    reach[live] = _closure(pattern.restrict(live), seed[live])
    return np.flatnonzero(reach)


def _packed(sub, pos):
    """The live-restricted part ``sub`` as one sparse matrix on the packed
    (entry, member) vector; ``pos[k, m]`` is the packed index of live entry
    k of member m, or -1 where that pair is unreachable."""
    k, m = np.nonzero(pos[sub.cols] >= 0)  # a reachable column has its row too
    n = int(np.count_nonzero(pos >= 0))
    return CSR(pos[sub.rows[k], m], pos[sub.cols[k], m], sub.vals[k], (n, n))


def _moved(m, perm):
    """Sorted flat (row, col) keys and matching values of ``m`` with rows and
    columns renumbered by ``perm``."""
    key = perm[m.rows] * m.shape[1] + perm[m.cols]
    order = np.argsort(key)
    return key[order], m.vals[order]


def symmetries(parts, h0, exchange):
    """The generator's symmetries as maps x -> x[perms[i]] of a row-major
    vec(rho), conjugated where ``conj[i]``: the identity, then the adjoint,
    the exchange and their product, each where it holds.

    The adjoint needs ``h0`` exactly Hermitian and a pattern it maps onto
    itself (L_plus onto L_minus); the exchange rho -> P rho P^T, with P the
    permutation matrix of ``exchange``, needs every part exactly invariant,
    values included."""
    d = h0.shape[0]
    ij = np.arange(d * d).reshape(d, d)
    perms, conj = [ij.ravel()], [False]
    l0, lplus, lminus = parts
    if (np.array_equal(h0, h0.conj().T)
            and all(a is None or np.array_equal(_moved(a, ij.T.ravel())[0],
                                                b.rows * b.shape[1] + b.cols)
                    for a, b in [(l0, l0), (lplus, lminus)])):
        perms.append(ij.T.ravel())
        conj.append(True)
    perms, conj = np.array(perms), np.array(conj)
    if exchange is not None:
        swap = ij[np.ix_(exchange, exchange)].ravel()
        if all(np.array_equal(key, m.rows * m.shape[1] + m.cols)
               and np.array_equal(vals, m.vals)
               for m in parts if m is not None
               for key, vals in [_moved(m, swap)]):
            perms = np.concatenate([perms, perms[:, swap]])
            conj = np.concatenate([conj, conj])
    return perms, conj


def _key(x):
    """Hashable exact value of a 1-d array (-0.0 taken as 0.0)."""
    nz = np.flatnonzero(x)
    return nz.tobytes(), (x[nz] + 0.0).tobytes()


def representatives(flat, perms, conj):
    """(source, how) per member of the (B, n) batch ``flat``: member m is
    map ``how[m]`` of :func:`symmetries` applied to member ``source[m]``,
    the first member it is an image of; ``source[m] == m`` (``how`` 0, the
    identity) for a member that is propagated."""
    seen = {}
    source = np.arange(len(flat))
    how = np.zeros(len(flat), dtype=int)
    for m, x in enumerate(flat):
        hit = seen.get(_key(x))
        if hit is not None:
            source[m], how[m] = hit
            continue
        for i, (perm, c) in enumerate(zip(perms, conj)):
            y = x[perm]
            seen.setdefault(_key(y.conj() if c else y), (m, i))
    return source, how


def step_count(subs, phase, duration):
    """CF4:2 steps for the live-restricted generator parts ``subs`` over
    ``duration``: ceil(STEPS_PER_RADIAN * bound * duration), with bound the
    largest row sum of |L0| + |L_plus| + |L_minus| plus the phase's largest
    rate |amp * freq| + |slope|. Raises ValueError for a negative duration
    or beyond ``MAX_STEPS``, and for a bound that is not finite, naming
    the input that feeds it."""
    if duration < 0:
        raise ValueError("duration must be non-negative")
    amp, freq, _, slope = phase
    rows = sum(np.bincount(p.rows, np.abs(p.vals), p.shape[0]) for p in subs)
    generator = float(np.max(rows, initial=0.0))
    bound = generator + abs(amp * freq) + abs(slope)
    if not math.isfinite(bound):
        source = ("an entry of h0, coupling or jumps"
                  if not math.isfinite(generator)
                  else "the phase's amp * freq or slope")
        raise ValueError(f"the generator norm is not finite ({bound}): "
                         f"{source} is not finite")
    n = math.ceil(STEPS_PER_RADIAN * bound * duration)
    if n > MAX_STEPS:
        raise ValueError(
            f"a generator of norm {bound:.3g} /us over {duration!r} us needs "
            f"{n} steps, more than MAX_STEPS = {MAX_STEPS}: the input is "
            "stiff or over-long"
        )
    return n


def cf42_steps(parts, y, phase, duration, n):
    """``y`` after ``n`` equal CF4:2 steps over [0, ``duration``] of
    L0 + e^{i phi} L_plus + e^{-i phi} L_minus, given as the :class:`CSR`
    ``parts`` on the rows of ``y`` (L0 alone without a coupling).

    As a+ + a- = 1/2, each exponent is h (L0 / 2 + f L_plus + conj(f)
    L_minus) with f = a+ e^{i phi(t1)} + a- e^{i phi(t2)}, then with a+ and
    a- swapped. Its product with a vector is one product with the stacked
    parts, combined as c0 x0 + (c+ x+ + c- x-): under the adjoint x+ and x-
    trade places, so a self-adjoint member stays exactly self-adjoint.
    """
    ops = _stacked(parts)
    rows = len(y)
    amp, freq, offset, slope = phase
    h = duration / max(n, 1)
    half = 0.5 * h
    t = h * (np.arange(n)[:, None] + GAUSS_NODES)
    e = np.exp(1j * (amp * np.cos(freq * t + offset) + slope * t))
    for f in (WEIGHT_PLUS * e + WEIGHT_MINUS * e[:, ::-1]).ravel():
        def generator(x, plus=h * f, minus=h * np.conj(f)):
            x = ops @ x
            if len(parts) == 1:
                return half * x
            return half * x[:rows] + (plus * x[rows:2 * rows]
                                      + minus * x[2 * rows:])

        y = _expmv(generator, y)
    return y


def propagate(rho, h0, coupling, phase, duration, jumps, exchange=None):
    """Propagate a (B, d, d) batch of matrices over [0, ``duration``].

    ``phase`` is (amp, freq, offset, slope) of phi(t); ``jumps`` are
    full-space collapse operators with sqrt(rate) folded in. ``exchange`` is
    a permutation of range(d) to try as a symmetry (the atom swap of a
    two-atom space), or None. The span takes :func:`step_count` CF4:2 steps
    (:func:`cf42_steps`).
    """
    b, d, _ = rho.shape
    flat = rho.reshape(b, d * d)
    out = np.zeros((b, d * d), dtype=complex)
    parts = liouvillian_parts(h0, coupling, jumps)
    perms, conj = symmetries(parts, h0, exchange)
    source, how = representatives(flat, perms, conj)
    solved = np.flatnonzero(source == np.arange(b))  # members propagated
    entry, k = np.divmod(closed_support(parts, (flat[solved] != 0).T),
                         solved.size)
    if entry.size:
        live, row = np.unique(entry, return_inverse=True)
        subs = [p.restrict(live) for p in parts if p is not None]
        n = step_count(subs, phase, duration)
        pos = np.full((live.size, solved.size), -1)
        pos[row, k] = np.arange(entry.size)
        out[solved[k], entry] = cf42_steps([_packed(p, pos) for p in subs],
                                           flat[solved[k], entry], phase,
                                           duration, n)
    # row by row: one fancy-indexed copy of every image row would raise the
    # build's peak memory by a batch-sized temporary
    for m in np.flatnonzero(source != np.arange(b)):
        x = out[source[m], perms[how[m]]]
        out[m] = x.conj() if conj[how[m]] else x
    return out.reshape(b, d, d)
