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
of those parts (a breadth-first closure) are ever integrated: every other
entry starts at zero and stays exactly zero. The closure runs per batch
member, so the state is the flat vector of reachable (entry, member) pairs,
entry-major, and each part acts on it as one sparse matrix (a matrix unit
reaches only a small part of what a whole basis of them reaches).
Integration is adaptive Dormand-Prince 5(4), with the step error taken over
the dense (entry, member) grid as if every unreachable pair were held at 0.

A member is integrated only if it is not an image of an earlier one under
a symmetry of the generator: the adjoint rho -> rho^dag, which holds when
H0 is exactly Hermitian (the drive term e^{i phi} C + h.c. is Hermitian by
construction), the atom exchange rho -> P rho P^T, which holds when every
part is exactly invariant under the caller's ``exchange`` permutation, and
their product. An image takes its result from its representative's result
(the CZ channel's 144 units integrate as 51), and its grid positions in the
step error read the representative's error ratios, so the norm is still
over the full grid.

The parts are :class:`CSR` matrices, a small numpy compressed-row type, so
the engine imports no scipy: importing any scipy subpackage after numpy
costs a process 0.2-0.35 s, more than the products it would speed up.
"""

import numpy as np

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
# y5 uses row 7 of A (FSAL); embedded 4th-order weights:
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_E = np.concatenate([_A[6], [0.0]]) - _B4  # error weights, k7 included

MAX_STEPS = 1_000_000


def dopri5(rhs, y0, t0, t1, rtol, atol, *, grid=None):
    """Adaptive Dormand-Prince integration of dy/dt = rhs(t, y).

    ``y`` may be a complex array of any shape. Returns y(t1). The step error
    is the RMS norm over ``y``. ``grid`` is (shape, flat positions, source)
    for a packed 1-d ``y`` that stands for a 2-d grid: grid entry
    ``positions[n]`` has the squared error ratio of ``y[source[n]]`` (an
    entry may stand for several positions), every other entry is
    identically zero, and the RMS norm is taken over that whole grid.
    """
    span = t1 - t0
    if span < 0:
        raise ValueError("integration span must be non-negative")
    y = np.array(y0, dtype=complex)
    if span == 0:
        return y
    t = t0
    k = [None] * 7
    k[0] = rhs(t, y)
    h = span / 100.0
    nsteps = 0
    while t < t1:
        if nsteps > MAX_STEPS:
            raise RuntimeError(
                f"integrator exceeded the maximum step count at t = {t!r} "
                f"of [{t0!r}, {t1!r}], h = {h!r}, after {nsteps} steps"
            )
        nsteps += 1
        h = min(h, t1 - t)
        for i in range(1, 7):
            yi = y
            for j, a in enumerate(_A[i]):
                if a != 0.0:
                    yi = yi + (h * a) * k[j]
            k[i] = rhs(t + _C[i] * h, yi)
        y5 = yi  # stage 7 input is the 5th-order solution (FSAL)
        err_vec = k[0] * _E[0]
        for j in range(1, 7):
            if _E[j] != 0.0:
                err_vec = err_vec + _E[j] * k[j]
        err_vec = err_vec * h
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        ratio2 = np.abs(err_vec / scale) ** 2
        if grid is not None:
            shape, at, source = grid
            full = np.zeros(shape)
            full.flat[at] = ratio2[source]
            ratio2 = full
        err = np.sqrt(np.mean(ratio2))
        if err <= 1.0:
            t = t + h
            y = y5
            k[0] = k[6]  # FSAL
            factor = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
        else:
            factor = max(0.2, 0.9 * err ** -0.2)
            k0 = k[0]
            k = [None] * 7
            k[0] = k0
        h = h * factor
        if h <= 0 or not np.isfinite(h):
            raise RuntimeError(
                f"integrator step size underflow at t = {t!r} of "
                f"[{t0!r}, {t1!r}], h = {h!r}, after {nsteps} steps"
            )
    return y


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

    __array_ufunc__ = None  # a numpy scalar times a CSR is a CSR

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
        vals = self.vals.reshape((-1,) + (1,) * (y.ndim - 1))
        out = np.zeros(self.shape[:1] + y.shape[1:], np.result_type(vals, y))
        np.add.at(out, self.rows, vals * y[self.cols])
        return out

    def __add__(self, other):
        return _sparse([(m.rows, m.cols, m.vals) for m in (self, other)],
                       self.shape)

    def __rmul__(self, scale):
        return CSR(self.rows, self.cols, scale * self.vals, self.shape)

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


def _packed(part, live, pos):
    """``part`` restricted to ``live`` as one sparse matrix on the packed
    (entry, member) vector; ``pos[k, m]`` is the packed index of live entry
    k of member m, or -1 where that pair is unreachable."""
    sub = part.restrict(live)
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
    identity) for a member that is integrated."""
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


def propagate(rho, h0, coupling, phase, duration, jumps, rtol, atol,
              exchange=None):
    """Propagate a (B, d, d) batch of matrices over [0, ``duration``].

    ``phase`` is (amp, freq, offset, slope) of phi(t); ``jumps`` are
    full-space collapse operators with sqrt(rate) folded in. ``exchange`` is
    a permutation of range(d) to try as a symmetry (the atom swap of a
    two-atom space), or None.
    """
    b, d, _ = rho.shape
    flat = rho.reshape(b, d * d)
    out = np.zeros((b, d * d), dtype=complex)
    parts = liouvillian_parts(h0, coupling, jumps)
    entry, member = np.divmod(closed_support(parts, (flat != 0).T), b)
    if entry.size == 0:
        return out.reshape(b, d, d)
    live, row = np.unique(entry, return_inverse=True)
    perms, conj = symmetries(parts, h0, exchange)
    source, how = representatives(flat, perms, conj)
    solved = source[member] == member  # pairs of integrated members
    pos = np.full(live.size * b, -1)
    pos[row[solved] * b + member[solved]] = np.arange(np.count_nonzero(solved))
    pos = pos.reshape(live.size, b)
    at_live = np.full(d * d, -1)
    at_live[live] = np.arange(live.size)
    # grid pair (entry e, member m) reads pair (perm[e], source[m])
    src = pos[at_live[perms[how[member], entry]], source[member]]
    l0, lplus, lminus = (
        None if p is None else _packed(p, live, pos) for p in parts
    )
    ops = l0 if lplus is None else _stacked([l0, lplus, lminus])
    amp, freq, offset, slope = phase

    def rhs(t, y):
        out = ops @ y
        if lplus is not None:  # rows of l0 @ y, lplus @ y, lminus @ y
            n = len(y)
            e = np.exp(1j * (amp * np.cos(freq * t + offset) + slope * t))
            out, plus, minus = out[:n], out[n:2 * n], out[2 * n:]
            out += e * plus + np.conj(e) * minus
        return out

    y = dopri5(rhs, flat[member[solved], entry[solved]], 0.0, duration, rtol,
               atol, grid=(pos.shape, row * b + member, src))
    out[member[solved], entry[solved]] = y
    # row by row: one fancy-indexed copy of every image row would raise the
    # build's peak memory by a batch-sized temporary
    for m in np.flatnonzero(source != np.arange(b)):
        x = out[source[m], perms[how[m]]]
        out[m] = x.conj() if conj[how[m]] else x
    return out.reshape(b, d, d)
