import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsqsim import _kernels, levels
from fsqsim._kernels import _lindblad_py
from fsqsim._kernels._lindblad_py import (CSR, closed_support,
                                          liouvillian_parts)
from fsqsim.levels import B, G, Q0, Q1, R, X
from fsqsim.lindblad import CollapseOperator, ModulatedDrive, evolve_rho
from oracles import (breadth_first_support, dense_lindblad_rhs, dopri5,
                     drive_hamiltonian, pair_channel_reference)


def _structured_problem(seed, d=6, batch=3):
    rng = np.random.default_rng(seed)
    rho = rng.normal(size=(batch, d, d)) + 1j * rng.normal(size=(batch, d, d))
    h0 = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h0 = h0 + h0.conj().T
    coup = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    jumps = [0.3 * levels.lop(G, Q1) + 0.1j * levels.lop(G, R),
             0.2 * levels.lop(B, R)]
    args = (h0, coup, (0.8, 14.0, 0.3, 2.0), 0.9, jumps)
    return rho, args


def test_engine_matches_dense_path(monkeypatch):
    # coupling, phase modulation, a constant detuning of r folded into h0
    # and a collapse set whose sum L^dag L is not diagonal, against the
    # generic dense right-hand side
    rng = np.random.default_rng(3)
    h0 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    drive = ModulatedDrive(
        h0=h0 + h0.conj().T - 1.5 * levels.lop(R, R),
        coupling=2.1 * levels.lop(Q1, R) + 0.7 * levels.lop(Q0, Q1),
        phase_amp=0.8,
        phase_freq=14.0,
        phase_offset=0.3,
        phase_slope=2.0,
    )
    ops = [
        CollapseOperator(0.3, levels.lop(G, Q1) + 0.5 * levels.lop(G, R)),
        CollapseOperator(0.2, levels.lop(X, Q0) + 1j * levels.lop(X, Q1)),
        CollapseOperator(0.1, levels.lop(B, R)),
    ]
    g = sum(c.rate * c.operator.conj().T @ c.operator for c in ops)
    assert np.max(np.abs(g - np.diag(np.diag(g)))) > 0.1
    rho = rng.normal(size=(3, 6, 6)) + 1j * rng.normal(size=(3, 6, 6))

    monkeypatch.setattr(_lindblad_py, "STEPS_PER_RADIAN",
                        32 * _lindblad_py.STEPS_PER_RADIAN)
    out = evolve_rho(rho, drive, ops, 0.9, 1)

    rhs = dense_lindblad_rhs(drive_hamiltonian(drive),
                             [p for c in ops for p in c.expand(1)])
    ref = dopri5(rhs, rho, 0.0, 0.9, 1e-10, 1e-12)
    assert np.max(np.abs(out - ref)) <= 1e-8


def test_kernel_deterministic():
    rho, args = _structured_problem(9)
    a = _kernels.propagate(rho.copy(), *args)
    b = _kernels.propagate(rho.copy(), *args)
    assert np.array_equal(a, b)


def test_zero_span_returns_input():
    rho, args = _structured_problem(4)
    args = args[:3] + (0.0,) + args[4:]
    out = _kernels.propagate(rho.copy(), *args)
    assert np.array_equal(out, rho)
    with pytest.raises(ValueError, match="non-negative"):
        _kernels.propagate(rho, *args[:3], -0.1, *args[4:])


def _dense_grid_propagate(rho, h0, coupling, phase, duration, jumps):
    # the engine without per-member support or images: the same steps on
    # one (live, B) grid over the union of every member's reachable entries
    b, d, _ = rho.shape
    flat = rho.reshape(b, d * d)
    parts = liouvillian_parts(h0, coupling, jumps)
    live = closed_support(parts, np.any(flat != 0, axis=0))
    subs = [p.restrict(live) for p in parts if p is not None]
    n = _lindblad_py.step_count(subs, phase, duration)
    y = _lindblad_py.cf42_steps(subs, flat[:, live].T, phase, duration, n)
    out = np.zeros((b, d * d), dtype=complex)
    out[:, live] = y.T
    return out.reshape(b, d, d)


def _matrix_units(pairs, d):
    basis = np.zeros((len(pairs), d, d), dtype=complex)
    for k, (i, j) in enumerate(pairs):
        basis[k, i, j] = 1.0
    return basis


def _gate_problem(cz_profile, drive, reference_config, span):
    from fsqsim.channels import gate_pair_basis
    from fsqsim.noise import gate_collapse_ops
    from fsqsim.rydberg import modulated_drive

    md = modulated_drive(cz_profile, drive, 0.4)
    ops = gate_collapse_ops(reference_config, drive.rabi_frequency)
    jumps = [np.sqrt(r) * op for c in ops for r, op in c.expand(2) if r != 0]
    rho = _matrix_units(gate_pair_basis(), 36)
    args = (md.h0, md.coupling,
            (md.phase_amp, md.phase_freq, md.phase_offset, md.phase_slope),
            span, jumps)
    return rho, args


def test_packed_engine_matches_dense_grid_one_atom():
    # all 36 one-atom matrix units under a modulated drive and collapses,
    # with members whose supports differ (sink
    # coherences only decay). h0 is Hermitian, so each |j><i| (i < j) is
    # the adjoint image of |i><j|: it is exactly that image and within
    # rounding of the dense-grid engine. Batches with no images are
    # bit-identical to it.
    coupling = 2.1 * levels.lop(Q1, R) + 0.7 * levels.lop(Q0, Q1)
    jumps = [np.sqrt(0.3) * (levels.lop(G, Q1) + 0.5 * levels.lop(G, R)),
             np.sqrt(0.2) * (levels.lop(X, Q0) + 1j * levels.lop(X, Q1)),
             np.sqrt(0.1) * levels.lop(B, R)]
    args = (np.diag([0.0, 0.3, -1.2, 0.5, 0.0, 0.1]).astype(complex),
            coupling, (0.8, 14.0, 0.3, 2.0), 0.5, jumps)
    rho = _matrix_units([(i, j) for i in range(6) for j in range(6)], 6)
    parts = liouvillian_parts(args[0], coupling, jumps)
    seed = (rho.reshape(36, 36) != 0).T
    assert closed_support(parts, seed).size < 36 * 36
    packed = _kernels.propagate(rho, *args)
    units = packed.reshape(6, 6, 6, 6)  # (i, j) of the unit, then entry
    upper = np.triu_indices(6, 1)
    assert np.array_equal(units.transpose(1, 0, 3, 2)[upper],
                          units[upper].conj())
    assert np.max(np.abs(packed - _dense_grid_propagate(rho, *args))) <= 1e-13
    assert np.max(np.abs(packed - rho)) > 0.1
    full = rho.sum(axis=0)
    # one member, and members that all reach the whole live set
    for other in (rho[8:9], full[None], np.stack([full, 2j * full])):
        assert np.array_equal(_kernels.propagate(other, *args),
                              _dense_grid_propagate(other, *args))


def test_packed_engine_matches_dense_grid_gate_pairs(cz_profile, drive,
                                                     reference_config):
    rho, args = _gate_problem(cz_profile, drive, reference_config,
                              0.1 * cz_profile.t_gate)
    packed = _kernels.propagate(rho, *args)
    assert np.array_equal(packed, _dense_grid_propagate(rho, *args))


def test_packed_size_of_reference_gate(cz_profile, drive, reference_config):
    # 144 live entries, but each pair-basis unit reaches only its own block
    # (one of 64, four of 16, four of 4 entries): 2,116 of 144 x 144
    rho, (h0, coupling, _, _, jumps) = _gate_problem(
        cz_profile, drive, reference_config, cz_profile.t_gate)
    parts = liouvillian_parts(h0, coupling, jumps)
    seed = (rho.reshape(len(rho), -1) != 0).T
    assert closed_support(parts, seed).size == 2116
    assert closed_support(parts, seed.any(axis=1)).size == 144


@pytest.fixture(scope="module")
def reference_channel(cz_profile, drive, reference_config):
    """The reference CZ channel (one detuning node) as ``GateExecutor``
    builds it, with the members and (entry, member) pairs the engine
    integrated and its step count."""
    from fsqsim.channels import channel_on_pairs, gate_pair_basis
    from fsqsim.noise import gate_collapse_ops
    from fsqsim.rydberg import modulated_drive

    seen = {}
    reps, steps = _lindblad_py.representatives, _lindblad_py.cf42_steps

    def representatives(flat, perms, conj):
        source, how = reps(flat, perms, conj)
        seen["members"] = int(np.count_nonzero(source == np.arange(len(flat))))
        return source, how

    def cf42_steps(parts, y, phase, duration, n):
        seen["pairs"], seen["steps"] = len(y), n
        return steps(parts, y, phase, duration, n)

    pairs = gate_pair_basis()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_lindblad_py, "representatives", representatives)
        mp.setattr(_lindblad_py, "cf42_steps", cf42_steps)
        m, _ = channel_on_pairs(
            modulated_drive(cz_profile, drive, 0.0),
            gate_collapse_ops(reference_config, drive.rabi_frequency),
            cz_profile.t_gate, 2, pairs)
    return pairs, m, seen


def test_reference_gate_integrates_51_members(reference_channel):
    # the adjoint and the atom exchange leave 51 of the 144 units and 791 of
    # the 2,116 (entry, member) pairs to integrate, over 43 steps. A
    # rounding change that breaks the exchange's exact invariance (say in G)
    # shows here, not only as a slower build.
    _, _, seen = reference_channel
    assert seen == {"members": 51, "pairs": 791, "steps": 43}


def test_reference_channel_is_within_5e_5_of_a_tight_build(
        reference_channel, cz_profile, drive, reference_config):
    # the shipped step density against a Dormand-Prince build at rtol 1e-12,
    # in every entry (3.1e-5 measured)
    from fsqsim.noise import gate_collapse_ops
    from fsqsim.rydberg import modulated_drive

    pairs, m, _ = reference_channel
    jumps = [p for c in gate_collapse_ops(reference_config,
                                          drive.rabi_frequency)
             for p in c.expand(2)]
    ref = pair_channel_reference(modulated_drive(cz_profile, drive, 0.0),
                                 jumps, cz_profile.t_gate, pairs, 1e-12, 1e-12)
    assert np.max(np.abs(m - ref)) <= 5e-5


def test_reference_channel_columns_are_adjoint_images(reference_channel):
    # column |b><a| is the conjugate of column |a><b| with each output
    # pair transposed, bit for bit
    pairs, m, _ = reference_channel
    flip = [pairs.index((j, i)) for i, j in pairs]
    assert np.array_equal(m[np.ix_(flip, flip)], m.conj())


# a two-atom space of two 3-level atoms; |a1 a2> -> |a2 a1> on its basis
_SWAP = np.arange(9).reshape(3, 3).T.ravel()
_IMAGES = (
    lambda x: x.conj().T,
    lambda x: x[np.ix_(_SWAP, _SWAP)],
    lambda x: x.conj().T[np.ix_(_SWAP, _SWAP)],
)
_ARGS = ((0.8, 14.0, 0.3, 2.0), 0.3)


def _swap_symmetric(a):
    return a + a[np.ix_(_SWAP, _SWAP)]


def _two_atom_generator(rng, n_jumps):
    """Random exchange-symmetric (h0, coupling, jumps):
    h0 Hermitian, and each local jump a single matrix element on its own
    source level, on atom 0 then atom 1 (the order of
    ``CollapseOperator.expand``), so every part is exactly invariant."""
    def cnormal():
        return rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))

    h0 = _swap_symmetric(0.3 * cnormal())
    jumps = []
    for source in rng.choice(3, n_jumps, replace=False):
        local = np.zeros((3, 3))
        local[rng.integers(3), source] = rng.uniform(0.1, 0.8)
        jumps += [np.kron(local, np.eye(3)), np.kron(np.eye(3), local)]
    return h0 + h0.conj().T, _swap_symmetric(0.3 * cnormal()), jumps


def _engine_args(generator):
    h0, coupling, jumps = generator
    phase, duration = _ARGS
    return h0, coupling, phase, duration, jumps


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3),
       st.lists(st.tuples(st.integers(0, 80), st.integers(0, 7)),
                min_size=1, max_size=4))
def test_images_are_exact_and_match_dense_grid(seed, n_jumps, draws):
    # matrix units, each followed by the images its mask picks (bit 0 the
    # adjoint, bit 1 the exchange, bit 2 both): every image in the batch
    # comes out as exactly that image of its unit's result, and the batch
    # is within rounding of integrating every member
    generator = _two_atom_generator(np.random.default_rng(seed), n_jumps)
    args = _engine_args(generator)
    parts = liouvillian_parts(args[0], args[1], args[4])
    perms, _ = _lindblad_py.symmetries(parts, args[0], _SWAP)
    assert len(perms) == 4
    rho = []
    for unit, mask in draws:
        x = _matrix_units([divmod(unit, 9)], 9)[0]
        rho += [x] + [f(x) for bit, f in enumerate(_IMAGES) if mask >> bit & 1]
    rho = np.array(rho)
    out = _kernels.propagate(rho, *args, exchange=_SWAP)
    for m in range(len(rho)):  # the first earlier member m is an image of
        for n in range(m):     # is its representative
            maps = [f for f in (lambda x: x,) + _IMAGES
                    if np.array_equal(f(rho[n]), rho[m])]
            if maps:  # a unit may be its own adjoint or swap image
                assert any(np.array_equal(f(out[n]), out[m]) for f in maps)
                break
    assert np.max(np.abs(out - _dense_grid_propagate(rho, *args))) <= 1e-12


@pytest.mark.parametrize("broken", ["one-atom collapse", "non-Hermitian h0"])
def test_asymmetric_generator_is_not_reduced(broken, monkeypatch):
    # a batch of exchange images (no adjoints) under a collapse on atom 0
    # only, and of adjoint images (no exchange images) under a non-Hermitian
    # h0: each is reduced under the intact generator, integrated whole under
    # the broken one, and then bit-identical to the dense-grid engine
    h0, coupling, jumps = _two_atom_generator(np.random.default_rng(8), 2)
    if broken == "one-atom collapse":
        units = [(1, 2), (3, 6), (1, 5), (3, 7), (0, 4)]
        broken_generator = (h0, coupling, jumps[::2])
    else:
        units = [(i, j) for i in (1, 2, 5) for j in (1, 2, 5)]
        broken_generator = (h0 + 0.5j * np.eye(9), coupling, jumps)
    rho = _matrix_units(units, 9)
    sizes = []
    steps = _lindblad_py.cf42_steps

    def cf42_steps(parts, y, *args):
        sizes.append(len(y))
        return steps(parts, y, *args)

    def every_pair(args):  # the (entry, member) pairs of the whole batch
        parts = liouvillian_parts(args[0], args[1], args[4])
        return closed_support(parts, (rho.reshape(len(rho), -1) != 0).T).size

    monkeypatch.setattr(_lindblad_py, "cf42_steps", cf42_steps)
    args = _engine_args((h0, coupling, jumps))
    _kernels.propagate(rho, *args, exchange=_SWAP)
    assert sizes.pop() < every_pair(args)
    args = _engine_args(broken_generator)
    out = _kernels.propagate(rho, *args, exchange=_SWAP)
    assert sizes.pop() == every_pair(args)
    # bit-identical to the engine with no symmetry at all, and within
    # rounding of the dense grid: the grid's (entry, member) layout moves
    # numpy's fused complex products (1.3e-15 on this batch at the parent
    # engine too), so bit equality with it holds only for some batches
    monkeypatch.setattr(_lindblad_py, "symmetries", lambda parts, h0, *_: (
        np.arange(h0.size)[None], np.array([False])))
    assert np.array_equal(out, _kernels.propagate(rho, *args, exchange=_SWAP))
    assert np.max(np.abs(out - _dense_grid_propagate(rho, *args))) <= 1e-13


def test_closed_support_matches_breadth_first_oracle():
    # random sparse patterns and (d*d, B) seeds, including empty columns, an
    # empty seed, one member and a 1-d seed: the union-first closure gives
    # the flat indices of a breadth-first closure over the whole pattern
    from scipy import sparse

    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(4, 60))
        parts = []
        for _ in range(2):
            m = sparse.random_array((n, n), density=rng.uniform(0.01, 0.1),
                                    rng=rng, format="coo")
            parts.append(CSR(m.row, m.col, m.data, (n, n)))
        parts.insert(int(rng.integers(0, 3)), None)
        seed = rng.random((n, int(rng.integers(1, 6)))) < rng.uniform(0, 0.1)
        for s in (seed, seed[:, 0], np.zeros_like(seed)):
            assert np.array_equal(closed_support(parts, s),
                                  breadth_first_support(parts, s))


def test_zero_input_propagates_to_zero():
    _, args = _structured_problem(2)
    batch = np.zeros((3, 6, 6), dtype=complex)
    assert np.array_equal(_kernels.propagate(batch, *args), batch)
    ops = [CollapseOperator(0.2, levels.lop(B, R))]
    h = np.diag(np.arange(6.0))
    assert np.array_equal(evolve_rho(np.zeros((6, 6)), h, ops, 0.5, 1),
                          np.zeros((6, 6)))
    assert np.array_equal(evolve_rho(batch, h, ops, 0.5, 1), batch)


def test_stiff_input_fails_before_stepping(monkeypatch):
    # a 1e9 /us collapse over 1 us would take 2.5e8 steps: the step count is
    # refused, naming the norm, the duration and the count, before any step
    def no_steps(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr(_lindblad_py, "cf42_steps", no_steps)
    ops = [CollapseOperator(1e9, levels.lop(G, Q1))]
    with pytest.raises(ValueError, match=r"norm 1e\+09 /us over 1\.0 us "
                                         r"needs 250000000 steps, more than "
                                         r"MAX_STEPS"):
        evolve_rho(np.diag([0.0, 1.0, 0, 0, 0, 0]), None, ops, 1.0, 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rate,slope,source", [
    (np.inf, 0.0, r"an entry of h0, coupling or jumps"),
    (0.2, np.nan, r"the phase's amp \* freq or slope"),
])
def test_non_finite_generator_norm_is_named(rate, slope, source):
    # an infinite collapse rate makes the generator's row sums nan; a nan
    # phase slope makes its rate nan: either is refused by name, not by
    # math.ceil's "cannot convert float NaN to integer"
    jump = np.sqrt(rate) * levels.lop(B, R)
    h0 = np.diag(np.arange(6.0))
    subs = [p for p in liouvillian_parts(h0, h0, [jump]) if p is not None]
    with pytest.raises(ValueError, match=r"generator norm is not finite "
                                         r"\(nan\): " + source):
        _lindblad_py.step_count(subs, (1.0, 1.0, 0.0, slope), 1.0)


_VALUES = st.sampled_from([0.0, 1.0, -1.0, 0.5j, -0.5j, 2.0 + 3.0j,
                           -2.0 - 3.0j, 1e-300, 0.1 + 0.7j, -3.3])


@st.composite
def _triplets(draw):
    n = draw(st.integers(1, 9))
    size = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(size, size, _VALUES), max_size=60))
    rows, cols, vals = (np.array(x) for x in zip(*entries)) if entries else (
        np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
    return n, rows, cols, vals.astype(complex)


@settings(max_examples=200, deadline=None)
@given(_triplets(), st.integers(0, 2**32 - 1))
def test_csr_sums_duplicates_drops_zeros_and_multiplies_by_rows(problem, seed):
    n, rows, cols, vals = problem
    m = CSR(rows, cols, vals, (n, n))
    dense = np.zeros((n, n), dtype=complex)
    np.add.at(dense, (rows, cols), vals)  # duplicates summed in given order
    assert np.all(m.vals != 0)
    key = m.rows * n + m.cols
    assert np.all(np.diff(key) > 0)  # sorted by row, then column; unique
    back = np.zeros((n, n), dtype=complex)
    back[m.rows, m.cols] = m.vals
    assert np.array_equal(back, dense)
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    assert np.allclose(m @ y[:, 0], dense @ y[:, 0], rtol=1e-12, atol=1e-12)
    prod = m @ y
    assert np.allclose(prod, dense @ y, rtol=1e-12, atol=1e-12)
    for j in range(y.shape[1]):  # each column as its own 1-d product
        assert np.array_equal(prod[:, j], m @ y[:, j])
        assert np.array_equal(prod[:, j], m @ y[:, j].copy())
