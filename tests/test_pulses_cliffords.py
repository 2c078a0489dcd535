import numpy as np
import pytest

from fsqsim.cliffords import (
    CliffordGate,
    average_pulse_count,
    clifford_group,
    compose,
    equal_up_to_phase,
    find_index,
    invert,
)
from fsqsim.pulses import rotation, virtual_z_equivalent
from oracles import (
    RamanPulse,
    VirtualFrame,
    raman_unitary,
    reference_find_index,
    virtual_z,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def test_pi_pulse_is_x_gate():
    u = raman_unitary(RamanPulse(rabi_frequency=1.0, duration=np.pi))
    assert equal_up_to_phase(u, SX)


def test_quarter_pulse_at_phase_pi_half_is_y_rotation():
    u = raman_unitary(RamanPulse(1.0, phase=np.pi / 2, duration=np.pi / 2))
    want = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * SY
    assert np.max(np.abs(u - want)) < 1e-12


def test_generalized_rabi_maximum():
    om, det = 1.0, 0.63
    w = np.hypot(om, det)
    t_star = np.pi / w  # first maximum of the flip probability
    u = raman_unitary(RamanPulse(om, 0.0, det, t_star))
    p_flip = abs(u[0, 1]) ** 2
    assert p_flip == pytest.approx(om**2 / w**2, abs=1e-12)


def test_virtual_z_zero_is_identity():
    f = VirtualFrame.for_atoms(2)
    assert virtual_z(f, 1, 0.0) == f


def test_virtual_z_additivity():
    f = VirtualFrame.for_atoms(1)
    a = virtual_z(virtual_z(f, 0, 0.7), 0, 0.9)
    b = virtual_z(f, 0, 1.6)
    assert a.phases == pytest.approx(b.phases)


def test_virtual_z_pi_shifts_pulse_phase():
    f = virtual_z(VirtualFrame.for_atoms(1), 0, np.pi)
    pulse = RamanPulse(1.0, 0.0, 0.0, 1.1)
    shifted = RamanPulse(1.0, np.pi, 0.0, 1.1)
    assert np.max(np.abs(
        raman_unitary(pulse, f) - raman_unitary(shifted, VirtualFrame())
    )) < 1e-12


def test_virtual_z_matches_physical_z_circuit():
    # X90 . Zv(pi/2) . X90 on |q1>: populations equal the physical circuit
    f = VirtualFrame.for_atoms(1)
    u1 = raman_unitary(RamanPulse(1.0, 0.0, 0.0, np.pi / 2), f)
    f = virtual_z(f, 0, np.pi / 2)
    u2 = raman_unitary(RamanPulse(1.0, 0.0, 0.0, np.pi / 2), f)
    virtual = u2 @ u1
    physical = rotation(np.pi / 2, 0) @ virtual_z_equivalent(np.pi / 2) \
        @ rotation(np.pi / 2, 0)
    psi = np.array([0, 1], dtype=complex)
    assert np.max(np.abs(np.abs(virtual @ psi) ** 2
                         - np.abs(physical @ psi) ** 2)) < 1e-10


def test_virtual_z_negation_is_identity_for_observables():
    f = VirtualFrame.for_atoms(1)
    f = virtual_z(virtual_z(f, 0, 1.234), 0, -1.234)
    pulse = RamanPulse(1.0, 0.3, 0.0, 0.8)
    assert np.max(np.abs(
        raman_unitary(pulse, f) - raman_unitary(pulse, VirtualFrame())
    )) < 1e-12


def test_frame_wrapping():
    f = virtual_z(VirtualFrame.for_atoms(1), 0, 5 * np.pi)
    assert f.wrapped()[0] == pytest.approx(np.pi)


def test_group_has_24_unitary_elements():
    group = clifford_group()
    assert len(group) == 24
    for g in group:
        assert np.max(np.abs(g.unitary @ g.unitary.conj().T - np.eye(2))) < 1e-12


def test_identity_composition():
    group = clifford_group()
    identity = find_index(np.eye(2))
    for g in group:
        assert compose(group[identity], g).index == g.index


def test_full_composition_table_closes():
    group = clifford_group()
    for a in group:
        for b in group:
            c = compose(a, b)  # raises LookupError if the product is outside
            assert isinstance(c, CliffordGate)


def test_inverses():
    for g in clifford_group():
        assert equal_up_to_phase(invert(g).unitary @ g.unitary, np.eye(2))


def test_element_orders():
    allowed = {1, 2, 3, 4, 6}
    for g in clifford_group():
        u = np.eye(2)
        for order in range(1, 13):
            u = g.unitary @ u
            if equal_up_to_phase(u, np.eye(2)):
                break
        assert order in allowed


def test_compilation_matches_unitaries():
    # z0 [X90 z1 [X90 z2]] in time order reproduces each group element
    x90 = rotation(np.pi / 2, 0.0)
    for g in clifford_group():
        u = virtual_z_equivalent(g.z_angles[0])
        for ang in g.z_angles[1:]:
            u = virtual_z_equivalent(ang) @ x90 @ u
        assert equal_up_to_phase(u, g.unitary)


def test_at_most_two_pulses():
    counts = [g.n_pulses for g in clifford_group()]
    assert max(counts) <= 2
    assert average_pulse_count() == pytest.approx(1.0)


def test_non_clifford_rejected():
    near = clifford_group()[5].unitary @ rotation(1e-8, 0.0)  # same key
    for u in (rotation(0.3, 0.0), rotation(np.pi / 3, 0.0),
              rotation(np.pi / 2, 0.1), near):
        with pytest.raises(LookupError):
            reference_find_index(u)
        with pytest.raises(LookupError):
            find_index(u)
    # a phase has unit modulus: a scaled identity is not the identity
    assert not equal_up_to_phase(1e-3 * np.eye(2), np.eye(2))
    with pytest.raises(LookupError):
        reference_find_index(1e-3 * np.eye(2))
    for u in (np.zeros((2, 2)), 1e-3 * np.eye(2), 0.9 * np.eye(2)):
        with pytest.raises(LookupError):
            find_index(u)


def test_keyed_lookup_matches_linear_scan():
    rng = np.random.default_rng(14)
    group = clifford_group()
    for g in group:
        for _ in range(20):
            noise = 1e-12 * (rng.standard_normal((2, 2))
                             + 1j * rng.standard_normal((2, 2)))
            u = np.exp(2j * np.pi * rng.random()) * g.unitary + noise
            assert find_index(u) == reference_find_index(u) == g.index
    products = [a.unitary @ b.unitary for a in group for b in group]
    assert [find_index(u) for u in products] == \
        [reference_find_index(u) for u in products]

