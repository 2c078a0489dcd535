import re

import numpy as np
import pytest

from fsqsim import levels
from fsqsim._kernels import _lindblad_py
from fsqsim.levels import B, G, Q0, Q1, R
from fsqsim.lindblad import (
    CollapseOperator,
    ModulatedDrive,
    evolve_lindblad,
    evolve_rho,
)
from fsqsim.states import QuantumState
from oracles import dense_lindblad_rhs, dopri5, drive_hamiltonian, rk4


def test_identity_evolution():
    st = QuantumState.pure([Q1])
    out = evolve_lindblad(st, None, [], 10.0)
    assert np.max(np.abs(out.rho - st.rho)) < 1e-10


def test_exponential_decay_oracle():
    gamma = 0.21
    st = QuantumState.pure([Q1])
    c = CollapseOperator(gamma, levels.lop(B, Q1))
    for t in (0.5, 3.0, 11.0):
        out = evolve_lindblad(st, None, [c], t)
        assert out.rho[Q1, Q1].real == pytest.approx(np.exp(-gamma * t), abs=1e-6)


def test_resonant_rabi_formula():
    om = 2 * np.pi * 0.7
    h = (om / 2) * (levels.lop(Q0, Q1) + levels.lop(Q1, Q0))
    st = QuantumState.pure([Q1])
    for t in (0.13, 0.71):
        out = evolve_lindblad(st, h, [], t)
        assert out.rho[Q0, Q0].real == pytest.approx(np.sin(om * t / 2) ** 2, abs=1e-6)


def test_trace_preservation_with_many_channels():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = h + h.conj().T
    ops = [
        CollapseOperator(0.2, levels.lop(G, Q1)),
        CollapseOperator(0.1, levels.lop(B, R)),
        CollapseOperator(0.3, levels.lop(R, R)),
    ]
    st = QuantumState.from_ket(rng.normal(size=6) + 1j * rng.normal(size=6), 1)
    out = evolve_lindblad(st, h, ops, 4.0)
    assert abs(np.trace(out.rho).real - 1.0) < 1e-8
    assert np.linalg.eigvalsh(out.rho).min() > -1e-8


def test_integrator_order_rk4_oracle():
    # classical RK4 error should fall ~16x when the step count doubles
    gamma = 0.37
    c = np.sqrt(gamma) * levels.lop(B, Q1)
    cd = c.conj().T @ c

    def rhs(t, rho):
        return c @ rho @ c.conj().T - 0.5 * (cd @ rho + rho @ cd)

    rho0 = np.outer(levels.ket(Q1), levels.ket(Q1).conj())
    exact = np.exp(-gamma * 2.0)
    errs = []
    for n in (8, 16):
        out = rk4(rhs, rho0, 0.0, 2.0, n)
        errs.append(abs(out[Q1, Q1].real - exact))
    ratio = errs[0] / errs[1]
    assert 8 < ratio < 32


def test_structured_path_matches_callable_path(monkeypatch):
    monkeypatch.setattr(_lindblad_py, "STEPS_PER_RADIAN",
                        16 * _lindblad_py.STEPS_PER_RADIAN)
    drv = ModulatedDrive(
        h0=np.diag([0.0, 0.0, -1.5, 0, 0, 0]).astype(complex),
        coupling=2.2 * levels.lop(Q1, R),
        phase_amp=0.9,
        phase_freq=17.0,
        phase_offset=0.3,
        phase_slope=2.0,
    )
    ops = [CollapseOperator(0.15, levels.lop(G, R))]
    st = QuantumState.pure([Q1])
    a = evolve_lindblad(st, drv, ops, 1.3)
    rhs = dense_lindblad_rhs(drive_hamiltonian(drv),
                             [p for c in ops for p in c.expand(1)])
    b = dopri5(rhs, st.rho, 0.0, 1.3, 1e-10, 1e-12)
    assert np.max(np.abs(a.rho - b)) < 1e-7


def test_callable_hamiltonian_is_rejected():
    with pytest.raises(TypeError, match="ModulatedDrive, a static matrix or "
                                        "None"):
        evolve_rho(np.eye(6), lambda t: np.zeros((6, 6)), [], 1.0)


def test_state_dimension_must_match_atom_count():
    # the atom count is read off the matrix: 6x6 is one atom, 36x36 two
    with pytest.raises(ValueError, match=r"a 12x12 matrix is not one atom "
                                         r"\(6x6\) or two \(36x36\)"):
        evolve_rho(np.eye(12), None, [], 1.0)


def test_collapse_operator_validation():
    with pytest.raises(ValueError):
        CollapseOperator(-1.0, levels.lop(B, Q1))
    # only the single-atom form: no full-space operator, refused when built
    for shape in ((3, 4), (4, 4), (36, 36)):
        with pytest.raises(ValueError, match=re.escape(
                f"collapse operator must be 6x6, got {shape}")):
            CollapseOperator(1.0, np.zeros(shape))


def test_batched_evolution_matches_loop():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = h + h.conj().T
    ops = [CollapseOperator(0.2, levels.lop(G, Q1))]
    batch = rng.normal(size=(3, 6, 6)) + 1j * rng.normal(size=(3, 6, 6))
    out = evolve_rho(batch, h, ops, 0.9)
    for k in range(3):
        single = evolve_rho(batch[k], h, ops, 0.9)
        assert np.max(np.abs(out[k] - single)) < 1e-8
