"""The master-equation propagation engine.

The problem solved here is

    drho/dt = -i [H(t), rho] + sum_k L_k rho L_k^dag - 1/2 {G, rho}

with H(t) = H0 + exp(i*phi(t)) C + exp(-i*phi(t)) C^dag + delta * D,
phi(t) = a*cos(w t + p) + s*t, delta constant on each time segment, D
diagonal, G = sum_k L_k^dag L_k (any pattern) and the decay rates folded into
the L_k. In row-major vector form, vec(rho)[i*d + j] = rho[i, j], the
generator is the sum of four sparse parts,

    L(t) = L0 + delta * L_delta + e^{i phi(t)} L_plus + e^{-i phi(t)} L_minus,

and only the entries reachable from the input's nonzeros along the pattern
of those parts (a breadth-first closure) are ever integrated: every other
entry starts at zero and stays exactly zero. Integration is adaptive
Dormand-Prince 5(4).

``scipy.sparse`` is imported on first use, so importing the package does not
pay for it.
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


def dopri5(rhs, y0, t0, t1, rtol, atol, first_step=None):
    """Adaptive Dormand-Prince integration of dy/dt = rhs(t, y).

    ``y`` may be a complex array of any shape. Returns y(t1). A 3-d ``y`` is
    a stack of independent members along axis 0, each held to its own RMS
    error norm (the step error is the largest of them).
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
    h = first_step if first_step is not None else span / 100.0
    h = min(h, span)
    nsteps = 0
    while t < t1:
        if nsteps > MAX_STEPS:
            raise RuntimeError("integrator exceeded the maximum step count")
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
        err = np.sqrt(np.max(np.mean(ratio2, axis=(1, 2))) if ratio2.ndim == 3
                      else np.mean(ratio2))
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
            raise RuntimeError("integrator step size underflow")
    return y


def rk4(rhs, y0, t0, t1, n_steps):
    """Fixed-step classical RK4; kept as an independent order-4 oracle."""
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


def _sparse(terms, n):
    from scipy import sparse

    rows, cols, vals = (np.concatenate(x) for x in zip(*terms))
    m = sparse.csr_array((vals, (rows, cols)), shape=(n, n))  # sums duplicates
    m.eliminate_zeros()
    return m


def liouvillian_parts(h0, coupling, detuning_diag, jumps):
    """(L0, L_plus, L_minus, L_delta) as sparse row-major superoperators.

    ``jumps`` are full-space operators with sqrt(rate) folded in. A part
    whose Hamiltonian term is absent (``coupling`` or ``detuning_diag`` is
    None) is None.
    """
    d = h0.shape[0]
    eye = np.eye(d)
    g = sum((op.conj().T @ op for op in jumps), np.zeros((d, d), dtype=complex))
    l0 = _commutator_terms(np.asarray(h0, dtype=complex))
    l0 += [_kron_terms(op, op.conj()) for op in jumps]
    l0 += [_kron_terms(g, eye, -0.5), _kron_terms(eye, g.T, -0.5)]
    parts = [_sparse(l0, d * d), None, None, None]
    if coupling is not None:
        coupling = np.asarray(coupling, dtype=complex)
        parts[1] = _sparse(_commutator_terms(coupling), d * d)
        parts[2] = _sparse(_commutator_terms(coupling.conj().T), d * d)
    if detuning_diag is not None:
        parts[3] = _sparse(_commutator_terms(np.diag(detuning_diag)), d * d)
    return tuple(parts)


def closed_support(parts, seed):
    """Sorted vector indices reachable from the ``seed`` mask along the
    nonzero pattern of the generator ``parts`` (breadth-first)."""
    pattern = sum(abs(p) for p in parts if p is not None)
    reach = np.array(seed, dtype=bool)
    frontier = reach
    while frontier.any():
        frontier = (pattern @ frontier.astype(float) != 0) & ~reach
        reach |= frontier
    return np.flatnonzero(reach)


def propagate(rho, h0, coupling, phase, detuning_diag, segments, jumps, rtol, atol):
    """Propagate a (B, d, d) batch of matrices through ``segments``.

    ``phase`` is (amp, freq, offset, slope) of phi(t); ``segments`` lists
    (t0, t1, delta) pieces with a constant detuning delta along
    ``detuning_diag``; ``jumps`` are full-space collapse operators with
    sqrt(rate) folded in.
    """
    b, d, _ = rho.shape
    flat = rho.reshape(b, d * d)
    parts = liouvillian_parts(h0, coupling, detuning_diag, jumps)
    live = closed_support(parts, np.any(flat != 0, axis=0))
    l0, lplus, lminus, ldelta = (
        None if p is None else p[live][:, live] for p in parts
    )
    amp, freq, offset, slope = phase
    y = flat[:, live].T
    for t0, t1, delta in segments:
        a = l0 if ldelta is None or delta == 0.0 else l0 + delta * ldelta

        def rhs(t, y, a=a):
            out = a @ y
            if lplus is not None:
                e = np.exp(1j * (amp * np.cos(freq * t + offset) + slope * t))
                out += e * (lplus @ y) + np.conj(e) * (lminus @ y)
            return out

        y = dopri5(rhs, y, t0, t1, rtol, atol)
    out = np.zeros((b, d * d), dtype=complex)
    out[:, live] = y.T
    return out.reshape(b, d, d)
