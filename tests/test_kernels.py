import numpy as np

from fsqsim import _kernels, levels
from fsqsim.levels import B, G, Q0, Q1, R, X
from fsqsim.lindblad import (
    CollapseOperator,
    ModulatedDrive,
    _dense_lindblad_rhs,
    evolve_rho,
)


def _structured_problem(seed, d=6, batch=3):
    rng = np.random.default_rng(seed)
    rho = rng.normal(size=(batch, d, d)) + 1j * rng.normal(size=(batch, d, d))
    h0 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h0 = h0 + h0.conj().T
    coup = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    jumps = [0.3 * levels.lop(G, Q1) + 0.1j * levels.lop(G, R),
             0.2 * levels.lop(B, R)]
    det_diag = -np.arange(d).astype(complex)
    args = (h0, coup, (0.8, 14.0, 0.3, 2.0), det_diag,
            [(0.0, 0.5, 0.4), (0.5, 0.9, -1.1)], jumps, 1e-9, 1e-12)
    return rho, args


def test_engine_matches_dense_path():
    # coupling, phase modulation, piecewise detuning and a collapse set whose
    # sum L^dag L is not diagonal, against the generic dense right-hand side
    rng = np.random.default_rng(3)
    h0 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    drive = ModulatedDrive(
        h0=h0 + h0.conj().T,
        coupling=2.1 * levels.lop(Q1, R) + 0.7 * levels.lop(Q0, Q1),
        phase_amp=0.8,
        phase_freq=14.0,
        phase_offset=0.3,
        phase_slope=2.0,
        detuning_diag=-levels.lop(R, R).diagonal(),
        detuning_edges=np.array([0.0, 0.35, 0.7]),
        detuning_values=np.array([1.5, -2.0, 0.7]),
    )
    ops = [
        CollapseOperator(0.3, levels.lop(G, Q1) + 0.5 * levels.lop(G, R)),
        CollapseOperator(0.2, levels.lop(X, Q0) + 1j * levels.lop(X, Q1)),
        CollapseOperator(0.1, levels.lop(B, R)),
    ]
    g = sum(c.rate * c.operator.conj().T @ c.operator for c in ops)
    assert np.max(np.abs(g - np.diag(np.diag(g)))) > 0.1
    rho = rng.normal(size=(3, 6, 6)) + 1j * rng.normal(size=(3, 6, 6))

    out = evolve_rho(rho, drive, ops, 0.9, 1, rtol=1e-10, atol=1e-12)

    pairs = [p for c in ops for p in c.expand(1)]
    ref = rho
    for t0, t1, delta in [(0.0, 0.35, 1.5), (0.35, 0.7, -2.0), (0.7, 0.9, 0.7)]:
        def h_seg(t, delta=delta):
            # drive.hamiltonian(t) would switch detuning on the segment edge
            e = np.exp(1j * drive.phase(t))
            return (drive.h0 + e * drive.coupling
                    + np.conj(e) * drive.coupling.conj().T
                    + delta * np.diag(drive.detuning_diag))

        ref = _kernels.dopri5(_dense_lindblad_rhs(h_seg, pairs), ref, t0, t1,
                              1e-10, 1e-12)
    assert np.max(np.abs(out - ref)) <= 1e-8


def test_kernel_deterministic():
    rho, args = _structured_problem(9)
    a = _kernels.propagate(rho.copy(), *args)
    b = _kernels.propagate(rho.copy(), *args)
    assert np.array_equal(a, b)


def test_zero_span_returns_input():
    rho, args = _structured_problem(4)
    args = args[:4] + ([(0.0, 0.0, 0.4)],) + args[5:]
    out = _kernels.propagate(rho.copy(), *args)
    assert np.array_equal(out, rho)


def test_dopri5_stack_members_keep_their_own_tolerance():
    # y' = -i w y with one fast member among slow ones: under a joint RMS
    # norm the fast member's error would be diluted by the others and come
    # out about six times larger than when it is integrated alone
    w = np.ones((40, 1, 1))
    w[0] = 300.0
    y0 = np.ones((40, 2, 2), dtype=complex)
    stacked = _kernels.dopri5(lambda t, y: -1j * w * y, y0, 0.0, 1.0,
                              1e-8, 1e-10)
    solo = _kernels.dopri5(lambda t, y: -300j * y, y0[:1], 0.0, 1.0,
                           1e-8, 1e-10)
    assert np.max(np.abs(stacked[0] - solo[0])) <= 1e-12
    assert np.max(np.abs(solo[0] - np.exp(-300j))) < 1e-6

