import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsqsim import rydberg
from fsqsim.levels import B, G, Q0, Q1, R, X, full_index
from fsqsim.rydberg import (
    CZPulseProfile,
    RydbergDrive,
    assemble_unitary,
    computational_amplitudes,
    cz_average_fidelity,
    extract_phi_sq,
    hamiltonian_parts,
    residual_rydberg_population,
    sector_unitaries,
    time_optimal_cz,
)
from fsqsim.czopt import default_profile
from oracles import (dopri5, ideal_cz_unitary, reference_sector_unitaries,
                     rk4, two_atom_hamiltonian)


def test_hamiltonian_diagonal_at_zero_rabi():
    drive = RydbergDrive(rabi_frequency=0.0, detuning=1.7, interaction=50.0)
    h0, coup = hamiltonian_parts(drive)
    h = h0 + coup + coup.conj().T
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
    assert h[full_index([Q0, Q0]), full_index([Q0, Q0])] == 0.0
    assert h[full_index([Q0, R]), full_index([Q0, R])] == pytest.approx(-1.7)
    assert h[full_index([R, R]), full_index([R, R])] == pytest.approx(50.0 - 2 * 1.7)


def test_hamiltonian_hermitian_under_modulation():
    profile = default_profile()
    h0, coup = hamiltonian_parts(RydbergDrive())
    for t in (0.0, 0.05, 0.13):
        e = np.exp(1j * profile.phase(t))
        h = h0 + e * coup + np.conj(e) * coup.conj().T
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_blockade_enhanced_rabi():
    # V >> Omega: |q1q1> <-> symmetric one-r state at sqrt(2) Omega
    om = 2 * np.pi * 1.0
    drive = RydbergDrive(rabi_frequency=om, interaction=om * 4000.0)
    t_pi_collective = np.pi / (np.sqrt(2) * om)
    profile = CZPulseProfile(theta=(0, 0, 0, 0), t_gate=t_pi_collective)
    u2, u4 = sector_unitaries(profile, drive)
    p_return = abs(u4[0, 0]) ** 2
    assert p_return == pytest.approx(0.0, abs=5e-3)
    p_rr = abs(u4[3, 0]) ** 2
    assert p_rr < 1e-3


def _exponentiated_gate(theta4, pieces):
    # the full 36x36 gate under a constant laser phase, one matrix
    # exponential per (t0, t1, delta) piece of constant detuning
    from scipy.linalg import expm

    u = np.eye(36, dtype=complex)
    for t0, t1, delta in pieces:
        h = two_atom_hamiltonian(RydbergDrive(detuning=delta),
                                 lambda t: theta4)(0.0)
        u = expm(-1j * (t1 - t0) * h) @ u
    return u


def test_unmodulated_pieces_are_exact():
    # theta1 == theta3 == 0: each piece from the eigenbasis of its constant
    # Hamiltonian, for a stack with two gate times, for detuning pieces and
    # for a detuned drive
    profiles = [CZPulseProfile((0.0, 0.7, 0.0, 0.4), 0.6),
                CZPulseProfile((0.0, 0.2, 0.0, -1.0), 0.78)]
    u2, u4 = sector_unitaries(profiles, RydbergDrive())
    for m, p in enumerate(profiles):
        ref = _exponentiated_gate(p.theta[3], [(0.0, p.t_gate, 0.0)])
        assert np.max(np.abs(assemble_unitary(u2[m], u4[m]) - ref)) <= 1e-11
    u2, u4 = sector_unitaries(profiles[0], RydbergDrive(),
                              detuning_edges=[0.0, 0.25],
                              detuning_values=[1.5, -2.0])
    ref = _exponentiated_gate(0.4, [(0.0, 0.25, 1.5), (0.25, 0.6, -2.0)])
    assert np.max(np.abs(assemble_unitary(u2, u4) - ref)) <= 1e-11
    # a static drive detuning shifts r by -delta and rr by V - 2 delta
    u2, u4 = sector_unitaries(profiles[0], RydbergDrive(detuning=0.9))
    ref = _exponentiated_gate(0.4, [(0.0, 0.6, 0.9)])
    assert np.max(np.abs(assemble_unitary(u2, u4) - ref)) <= 1e-11


def test_double_excitation_bound():
    drive = RydbergDrive()  # reference drive, V/Omega = 19
    om = drive.rabi_frequency
    profile = CZPulseProfile(theta=(0, 0, 0, 0), t_gate=2 * np.pi / om)
    # track max |rr| population under resonant unmodulated drive from |q1q1>
    from fsqsim.rydberg import _SECTOR

    h4, c4 = (m[np.ix_(_SECTOR[2:], _SECTOR[2:])]
              for m in hamiltonian_parts(drive))
    psi = np.array([1, 0, 0, 0], dtype=complex)

    peak = 0.0

    def rhs(t, y):
        h = h4 + c4 + c4.conj().T
        return -1j * (h @ y)

    n_steps = 400
    dt = profile.t_gate / n_steps
    t = 0.0
    for _ in range(n_steps):
        psi = rk4(rhs, psi, t, t + dt, 4)
        t += dt
        peak = max(peak, abs(psi[3]) ** 2)
    bound = (om / (2 * drive.interaction)) ** 2 * 4
    assert peak < bound


def test_assembled_unitary_matches_full_integration():
    profile = default_profile()
    drive = RydbergDrive()
    u = assemble_unitary(*sector_unitaries(profile, drive))
    assert np.max(np.abs(u @ u.conj().T - np.eye(36))) < 1e-9

    h_of_t = two_atom_hamiltonian(drive, profile.phase)

    def rhs(t, y):
        return -1j * (h_of_t(t) @ y)

    u_full = dopri5(rhs, np.eye(36, dtype=complex), 0.0, profile.t_gate,
                    1e-9, 1e-11)
    assert np.max(np.abs(u - u_full)) < 1e-6


def test_default_profile_fidelity_and_phase_relation():
    profile = default_profile()
    drive = RydbergDrive()
    u2, u4 = sector_unitaries(profile, drive)
    a01, a11 = computational_amplitudes(u2, u4)
    f, phi = cz_average_fidelity(a01, a11)
    assert f > 0.9999
    # phi_11 = 2 phi_01 - pi for the optimized pulse
    gap = np.angle(a11) - (2 * np.angle(a01) - np.pi)
    gap = (gap + np.pi) % (2 * np.pi) - np.pi
    assert abs(gap) < 1e-3
    assert extract_phi_sq(u2) == pytest.approx(profile.phi_sq, abs=1e-6)
    assert residual_rydberg_population(u2, u4) < 1e-6


@settings(max_examples=3, deadline=None)
@given(pert=st.lists(st.floats(-0.05, 0.05), min_size=10, max_size=10))
def test_profile_stack_matches_solo(pert):
    # members differ in every modulation parameter and in t_gate
    base = default_profile()
    drive = RydbergDrive()
    profiles = [
        CZPulseProfile(
            theta=[x * (1 + d) for x, d in zip(base.theta, pert[5 * m:5 * m + 3])]
            + [0.3 * pert[5 * m + 3]],
            t_gate=base.t_gate * (1 + pert[5 * m + 4]),
        )
        for m in range(2)
    ]
    u2, u4 = sector_unitaries(profiles, drive)
    assert u2.shape == (2, 2, 2) and u4.shape == (2, 4, 4)
    for m, prof in enumerate(profiles):
        s2, s4 = sector_unitaries(prof, drive)
        assert np.max(np.abs(u2[m] - s2)) <= 1e-7
        assert np.max(np.abs(u4[m] - s4)) <= 1e-7


def test_constant_detuning_stack_matches_shifted_drive():
    profile = default_profile()
    deltas = np.array([-3.0, 0.0, 1.1, 5.0])
    u2, u4 = sector_unitaries(profile, RydbergDrive(), detuning_edges=[0.0],
                              detuning_values=deltas[:, None])
    for m, delta in enumerate(deltas):
        s2, s4 = sector_unitaries(profile, RydbergDrive(detuning=delta))
        assert np.max(np.abs(u2[m] - s2)) <= 1e-7
        assert np.max(np.abs(u4[m] - s4)) <= 1e-7


@pytest.mark.parametrize("delta", [-0.9, 0.4])
def test_engines_agree_on_a_detuned_gate(cz_profile, drive, delta,
                                        monkeypatch):
    # the master-equation engine with the detuning folded into h0 against
    # the sector propagator's one detuning piece (a flipped sign is 0.33
    # off or more)
    from fsqsim._kernels import _lindblad_py
    from fsqsim.channels import (channel_on_pairs, conjugation_on_pairs,
                                 gate_pair_basis)

    monkeypatch.setattr(_lindblad_py, "STEPS_PER_RADIAN",
                        8 * _lindblad_py.STEPS_PER_RADIAN)
    pairs = gate_pair_basis()
    md = rydberg.modulated_drive(cz_profile, drive, delta)
    engine, _ = channel_on_pairs(md, [], cz_profile.t_gate, 2, pairs)
    sector = conjugation_on_pairs(assemble_unitary(*sector_unitaries(
        cz_profile, drive, [0.0], [delta])), pairs)
    assert np.max(np.abs(engine - sector)) <= 1e-7


def _detuned_stack(members, pieces, seed):
    # modulated profiles with one gate time and a (members, pieces) detuning
    rng = np.random.default_rng(seed)
    base = default_profile()
    profiles = [
        CZPulseProfile([x * (1 + 0.05 * d) for x, d in
                        zip(base.theta, rng.uniform(-1, 1, 4))], base.t_gate)
        for _ in range(members)
    ]
    edges = np.arange(pieces) * base.t_gate / pieces
    return profiles, edges, rng.normal(0.0, 3.0, (members, pieces))


def test_modulated_detuned_stack_is_unitary():
    profiles, edges, values = _detuned_stack(40, 16, seed=2)
    u2, u4 = sector_unitaries(profiles, RydbergDrive(detuning=0.4),
                              detuning_edges=edges, detuning_values=values)
    for u in (u2, u4):
        eye = np.eye(u.shape[-1])
        assert np.max(np.abs(u @ np.swapaxes(u.conj(), -1, -2) - eye)) <= 1e-12


def test_detuned_stack_equals_solo_on_one_gate_time():
    profiles, edges, values = _detuned_stack(3, 5, seed=4)
    u2, u4 = sector_unitaries(profiles, RydbergDrive(), detuning_edges=edges,
                              detuning_values=values)
    for m, prof in enumerate(profiles):
        s2, s4 = sector_unitaries(prof, RydbergDrive(), detuning_edges=edges,
                                  detuning_values=values[m])
        assert np.max(np.abs(u2[m] - s2)) <= 1e-12
        assert np.max(np.abs(u4[m] - s4)) <= 1e-12


def test_stack_working_set_does_not_grow_with_members():
    # eigh batches hold at most EIGH_BATCH matrices: 400 members over 16
    # pieces peak near 4 MB, where 64 steps a batch took 58 MB
    profiles, edges, values = _detuned_stack(400, 16, seed=6)
    tracemalloc.start()
    try:
        sector_unitaries(profiles, RydbergDrive(), detuning_edges=edges,
                         detuning_values=values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_doubled_steps_move_the_default_gate_below_1e9(monkeypatch):
    def headline():
        u2, u4 = sector_unitaries(default_profile(), RydbergDrive())
        f, _ = cz_average_fidelity(*computational_amplitudes(u2, u4))
        return np.array([f, extract_phi_sq(u2)])

    before = headline()
    monkeypatch.setattr(rydberg, "STEPS_PER_RADIAN",
                        2 * rydberg.STEPS_PER_RADIAN)
    assert np.max(np.abs(headline() - before)) < 1e-9


@st.composite
def _sector_inputs(draw):
    # a solo profile or a stack, modulated or not, any Rabi frequency down
    # to 0, a drive detuning, and no detuning pieces, a constant or pieces;
    # pieces need one gate time, so only a stack without them has two
    base = default_profile()
    modulated = draw(st.booleans())
    members = draw(st.sampled_from([None, 1, 3]))
    pieces = draw(st.sampled_from([None, 1, 3]))
    n = 1 if members is None else members
    scale = st.floats(0.9, 1.1)
    profiles = [
        CZPulseProfile(
            [x * draw(scale) for x in base.theta] if modulated
            else [0.0, base.theta[1], 0.0, base.theta[3] * draw(scale)],
            base.t_gate * (draw(scale) if pieces is None and m else 1.0))
        for m in range(n)
    ]
    drive = RydbergDrive(
        rabi_frequency=draw(st.sampled_from([0.0, 1.0])) * draw(
            st.floats(0.5, 1.5)) * rydberg.OMEGA_DEFAULT,
        detuning=draw(st.floats(-5.0, 5.0)),
        interaction=draw(st.floats(0.2, 1.0)) * rydberg.V_DEFAULT)
    args = (profiles[0] if members is None else profiles, drive)
    if pieces is None:
        return args
    edges = np.arange(pieces) * base.t_gate / pieces
    values = np.array([[draw(st.floats(-8.0, 8.0)) for _ in range(pieces)]
                       for _ in range(n)])
    return args + (edges, values[0] if members is None else values)


@settings(max_examples=40, deadline=None)
@given(_sector_inputs())
def test_sector_blocks_match_the_whole_6x6_product(args):
    # the exchange blocks against CF4:2 on the whole 6x6 sector problem,
    # the same step count, to rounding
    u2, u4 = sector_unitaries(*args)
    r2, r4 = reference_sector_unitaries(*args)
    assert u2.shape == r2.shape and u4.shape == r4.shape
    assert np.max(np.abs(u2 - r2)) <= 1e-12
    assert np.max(np.abs(u4 - r4)) <= 1e-12
    # the antisymmetric W- neither takes nor gives amplitude, in either
    # (the whole-6x6 product mixes it by up to 3e-14 through rounding)
    x = rydberg._EXCHANGE[2:, 2:]
    dark = rydberg._DARK.start - 2
    for u in (u4, r4):
        ux = x @ u @ x.T
        assert np.max(np.abs(np.abs(ux[..., dark, dark]) - 1.0)) <= 1e-12
        rest = np.concatenate([np.delete(ux[..., dark, :], dark, axis=-1),
                               np.delete(ux[..., :, dark], dark, axis=-1)],
                              axis=-1)
        assert np.max(np.abs(rest)) <= 1e-12


def test_exchange_basis_is_the_swap_eigenbasis():
    # rows are orthonormal; the one-atom pair is kept, the two-atom states
    # are symmetric (chain) or antisymmetric (dark) under the atom swap
    x = rydberg._EXCHANGE
    assert np.allclose(x @ x.T, np.eye(len(x)), atol=1e-15)
    sector = list(rydberg._SECTOR)
    swap = [sector.index(full_index([b, a])) - 2 for a, b in
            ((Q1, Q1), (Q1, R), (R, Q1), (R, R))]
    p = np.eye(4)[swap]
    two = x[2:, 2:]
    for block, sign in ((rydberg._CHAIN, 1.0), (rydberg._DARK, -1.0)):
        rows = two[block.start - 2:block.stop - 2]
        assert np.array_equal(rows @ p.T, sign * rows)
    assert np.array_equal(x[rydberg._PAIR, rydberg._PAIR], np.eye(2))


def test_default_gate_step_count_is_unchanged():
    # the step count still comes from the 6x6 product-state norm
    norm = rydberg._sector_parts(RydbergDrive())[0]
    steps = math.ceil(rydberg.STEPS_PER_RADIAN * norm
                      * default_profile().t_gate)
    assert steps == 309


def test_stiff_modulated_gate_fails_before_stepping(monkeypatch):
    # V = 1e9 rad/us would take about 4e8 CF4:2 steps: the count is refused,
    # naming the drive and the count, before any exponential; a gate without
    # phase modulation takes one exact step per piece and is not capped
    def no_steps(*args):
        raise AssertionError("stepped")

    drive = RydbergDrive(interaction=1e9)
    with monkeypatch.context() as m:
        m.setattr(rydberg, "_pair_exponentials", no_steps)
        with pytest.raises(ValueError, match=r"the modulated gate under "
                                             r"RydbergDrive\(.*interaction="
                                             r"1000000000\.0\) needs \d+ "
                                             r"steps, more than MAX_STEPS"):
            sector_unitaries(default_profile(), drive)
    flat = CZPulseProfile((0.0, 0.0, 0.0, 0.3), default_profile().t_gate)
    u2, u4 = sector_unitaries(flat, drive)
    assert np.allclose(u4 @ u4.conj().T, np.eye(4), atol=1e-12)


def test_non_finite_drive_is_refused_by_name():
    # the step count reads the sector norm; a nan detuning (what an infinite
    # quasi-static sigma gives) is named, not passed to math.ceil
    with pytest.raises(ValueError, match=r"generator norm is not finite "
                                         r"\(nan\): a field of RydbergDrive"
                                         r"\(.*detuning=nan"):
        sector_unitaries(default_profile(), RydbergDrive(detuning=math.nan))


def test_detuning_needs_one_gate_time():
    base = default_profile()
    profiles = [base, CZPulseProfile(base.theta, base.t_gate * 1.01)]
    with pytest.raises(ValueError, match="gate time"):
        sector_unitaries(profiles, RydbergDrive(), detuning_edges=[0.0],
                         detuning_values=np.array([[0.1], [0.2]]))


def test_q0q0_is_spectator():
    u = time_optimal_cz(default_profile(), RydbergDrive())
    i00 = full_index([Q0, Q0])
    col = u[:, i00]
    assert abs(col[i00]) == pytest.approx(1.0, abs=1e-12)


def test_unclosed_gate_warns():
    profile = CZPulseProfile(theta=(0.0, 0.0, 0.0, 0.0), t_gate=0.05)
    with pytest.warns(UserWarning, match="not closed"):
        time_optimal_cz(profile, RydbergDrive())


def test_blockade_monotonicity():
    # fixed pulse tuned at V/Omega = 19: infidelity grows as V drops
    profile = default_profile()
    om = RydbergDrive().rabi_frequency
    ratios = (19, 16, 13, 11, 9.5, 8, 7, 6, 5, 4)
    infids = []
    for r in ratios:
        drive = RydbergDrive(interaction=r * om)
        u2, u4 = sector_unitaries(profile, drive)
        f, _ = cz_average_fidelity(*computational_amplitudes(u2, u4))
        infids.append(1.0 - f)
    assert all(b > a for a, b in zip(infids, infids[1:]))


def test_profile_text_round_trip():
    profile = default_profile()
    drive = RydbergDrive()
    text = profile.to_text(drive)
    back, drive_back = CZPulseProfile.from_text(text)
    assert back.theta == pytest.approx(profile.theta)
    assert back.t_gate == pytest.approx(profile.t_gate)
    assert back.phi_sq == pytest.approx(profile.phi_sq)
    assert drive_back.rabi_frequency == pytest.approx(drive.rabi_frequency)
    assert drive_back.interaction == pytest.approx(drive.interaction)
    with pytest.raises(ValueError):
        CZPulseProfile.from_text("theta1_rad = 1.0\n")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_DRIVE = st.builds(RydbergDrive, st.floats(0.0, allow_infinity=False),
                   st.just(0.0), _FINITE)


@settings(max_examples=200, deadline=None)
@given(st.lists(_FINITE, min_size=4, max_size=4),
       st.floats(0.0, exclude_min=True, allow_infinity=False), _FINITE,
       st.none() | _DRIVE)
def test_profile_text_round_trip_property(theta, t_gate, phi_sq, drive):
    # the document writes reprs, so profile and drive come back exactly
    profile = CZPulseProfile(theta, t_gate, phi_sq)
    assert CZPulseProfile.from_text(profile.to_text(drive)) == (profile, drive)


@pytest.mark.parametrize("line, message", [
    ("phi_sq_rads = 2.1", "line 2: unknown key 'phi_sq_rads'"),
    ("phi_sq_rad 2.1", "line 2: expected 'key = value', not 'phi_sq_rad 2.1'"),
    ("phi_sq_rad = 2,1", "line 2: bad number for 'phi_sq_rad'"),
])
def test_profile_text_rejects_bad_lines(line, message):
    # a typo'd key used to be dropped silently, leaving phi_sq at 0.0
    text = default_profile().to_text().replace("phi_sq_rad = ", "# ")
    lines = text.splitlines()
    lines.insert(1, line)
    with pytest.raises(ValueError, match=f"^{message}$"):
        CZPulseProfile.from_text("\n".join(lines))


# a profile parameter must be finite; the drive's two keys (the last two)
# are refused here only as bad numbers, a non-finite drive by the sector
# step count (test_non_finite_drive_is_refused_by_name)
@pytest.mark.parametrize("key,raw", [
    (key, raw) for i, key in enumerate(rydberg._PROFILE_KEYS)
    for raw in ("nan", "inf", "-inf", "1e3x") if raw == "1e3x" or i < 6])
def test_profile_text_refuses_bad_values(key, raw):
    lines = default_profile().to_text(RydbergDrive()).splitlines()
    line = [ln.split(" = ")[0] for ln in lines].index(key) + 1
    lines[line - 1] = f"{key} = {raw}"
    if raw == "1e3x":
        message = f"line {line}: bad number for {key!r}"
    else:
        name = {"t_gate_us": "t_gate", "phi_sq_rad": "phi_sq"}.get(key, "theta")
        at = f" at index {int(key[5]) - 1}" if name == "theta" else ""
        message = f"{name} must be finite, got {float(raw)!r}{at}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CZPulseProfile.from_text("\n".join(lines))


_UNIT_DISK = st.builds(lambda r, a: r * np.exp(1j * a), st.floats(0.0, 1.0),
                       st.floats(-np.pi, np.pi))


@settings(max_examples=100, deadline=None)
@given(_UNIT_DISK, _UNIT_DISK)
def test_closed_form_phase_beats_a_fine_grid(a01, a11):
    grid = np.linspace(0.0, 2 * np.pi, 20_000, endpoint=False)
    for a, b in ((a01, a11), (a01, 0.0), (0.0, 0.0)):
        f, phi = cz_average_fidelity(a, b)
        assert f >= np.max(cz_average_fidelity(a, b, grid)[0]) - 1e-12
        assert f == cz_average_fidelity(a, b, phi)[0]


def test_global_phase_invariance_of_populations():
    u = time_optimal_cz(default_profile(), RydbergDrive())
    psi = np.zeros(36, dtype=complex)
    psi[full_index([Q1, Q1])] = 1.0
    p1 = np.abs(u @ psi) ** 2
    p2 = np.abs((np.exp(1j * 0.73) * u) @ psi) ** 2
    assert np.max(np.abs(p1 - p2)) < 1e-14


def test_ideal_cz_unitary_identity_elsewhere():
    u = ideal_cz_unitary(phi=0.4)
    for lv in (R, G, X, B):
        i = full_index([lv, Q1])
        assert u[i, i] == 1.0
