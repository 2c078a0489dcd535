import numpy as np
import pytest
from oracles import reference_plan_rearrangement

from fsqsim import assembly
from fsqsim.assembly import (
    AffineMap,
    ArrayGeometry,
    EqualizationResult,
    Move,
    MovePlan,
    affine_fit,
    equalize_depths,
    pair_grid_geometry,
    plan_rearrangement,
    replay_plan,
    simulate_assembly,
)


@pytest.fixture(scope="module")
def geometry():
    return pair_grid_geometry()


@pytest.fixture(scope="module")
def target(geometry):
    t = np.zeros(geometry.n_sites, dtype=bool)
    t[[0, 1, 2, 3, 4, 5, 6, 7]] = True  # 2x4 block of pair columns
    return t


def test_affine_identity():
    pts = np.array([[0.0, 0], [1, 0], [0, 1], [2, 3]])
    m = affine_fit(pts, pts)
    assert np.max(np.abs(m.linear - np.eye(2))) < 1e-12
    assert np.max(np.abs(m.translation)) < 1e-12


def test_affine_recovery_rotation_scale_shear():
    rng = np.random.default_rng(1)
    th = np.deg2rad(17.0)
    lin = 1.3 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    lin = lin @ np.array([[1.0, 0.2], [0.0, 1.0]])
    tr = np.array([3.7, -1.2])
    src = rng.uniform(-10, 10, size=(9, 2))
    dst = src @ lin.T + tr
    m = affine_fit(src, dst)
    assert np.max(np.abs(m.linear - lin)) < 1e-10
    assert np.max(np.abs(m.translation - tr)) < 1e-10
    assert np.max(np.abs(m.apply(src) - dst)) < 1e-10


def test_affine_rejects_collinear():
    pts = np.array([[0.0, 0], [1, 1], [2, 2]])
    with pytest.raises(ValueError, match="collinear"):
        affine_fit(pts, pts)


def test_affine_rejects_singular_map():
    with pytest.raises(ValueError):
        AffineMap(linear=np.zeros((2, 2)), translation=np.zeros(2))


def test_plan_empty_when_already_assembled(geometry, target):
    plan = plan_rearrangement(target.copy(), target, geometry)
    assert len(plan) == 0


def test_plan_single_atom_single_move(geometry):
    occ = np.zeros(geometry.n_sites, dtype=bool)
    occ[31] = True
    tgt = np.zeros(geometry.n_sites, dtype=bool)
    tgt[0] = True
    plan = plan_rearrangement(occ, tgt, geometry)
    assert len(plan) == 1
    move = plan.moves[0]
    assert (move.source, move.destination) == (31, 0)
    assert 2 <= len(move.path) <= 4  # at most three straight segments


def test_plan_replay_invariant(geometry, target):
    rng = np.random.default_rng(7)
    for _ in range(150):
        occ = rng.random(geometry.n_sites) < 0.5
        plan = plan_rearrangement(occ, target, geometry)
        final = replay_plan(plan, occ, geometry)
        if occ.sum() >= target.sum():
            assert not plan.unplaced_targets
            assert np.all(final[target])
        assert not np.any(final & ~target)  # surplus cleared


def test_plan_reports_shortfall(geometry, target):
    occ = np.zeros(geometry.n_sites, dtype=bool)
    occ[20] = occ[22] = True
    plan = plan_rearrangement(occ, target, geometry)
    assert len(plan.unplaced_targets) == 6
    final = replay_plan(plan, occ, geometry)
    assert final[target].sum() == 2


def test_shortfall_ties_fill_in_target_index_order(geometry):
    # one atom, at site 27, is 13 um from both targets 23 and 31 and farther
    # from 8 and 17: the tie goes to the lower index, whatever the CPU's sort
    sites = geometry.sites
    assert np.hypot(*(sites[23] - sites[27])) == np.hypot(*(sites[31] - sites[27]))
    occ = np.zeros(geometry.n_sites, dtype=bool)
    occ[27] = True
    tgt = np.zeros(geometry.n_sites, dtype=bool)
    tgt[[8, 17, 23, 31]] = True
    plan = plan_rearrangement(occ, tgt, geometry)
    assert [(m.source, m.destination) for m in plan.moves] == [(27, 23)]
    assert plan.unplaced_targets == (8, 17, 31)
    assert plan == reference_plan_rearrangement(occ, tgt, geometry)


def test_replay_rejects_path_off_its_end_sites(geometry):
    occ = np.zeros(geometry.n_sites, dtype=bool)
    occ[31] = True
    detached = MovePlan((Move(31, 0, ((100, 100), (200, 200))),))
    with pytest.raises(AssertionError, match="move 0: path does not start "
                                             "at source 31"):
        replay_plan(detached, occ, geometry)
    good = plan_rearrangement(occ, np.arange(geometry.n_sites) == 0, geometry)
    path = good.moves[0].path
    wrong_end = MovePlan((Move(31, 0, path[:-1] + ((200, 200),)),))
    with pytest.raises(AssertionError, match="move 0: path does not end at "
                                             "destination 0"):
        replay_plan(wrong_end, occ, geometry)
    assert replay_plan(good, occ, geometry)[0]


def test_plan_beats_greedy_baseline(geometry, target):
    # optimal assignment is never longer than nearest-first greedy
    rng = np.random.default_rng(3)

    def greedy_length(occ):
        sites = geometry.sites
        free = [i for i in np.nonzero(occ & ~target)[0]]
        total = 0.0
        for tgt_i in np.nonzero(target & ~occ)[0]:
            dists = [np.hypot(*(sites[tgt_i] - sites[s])) for s in free]
            k = int(np.argmin(dists))
            total += dists[k]
            free.pop(k)
        return total

    for _ in range(40):
        occ = rng.random(geometry.n_sites) < 0.5
        if occ.sum() < 8 or np.all(occ[target]):
            continue
        plan = plan_rearrangement(occ, target, geometry)
        fill_moves = [m for m in plan.moves
                      if m.destination >= 0 and m.source >= 0]
        fill_length = sum(
            np.hypot(m.path[-1][0] - m.path[0][0], m.path[-1][1] - m.path[0][1])
            for m in fill_moves
        )
        assert fill_length <= greedy_length(occ) + 1e-9


def test_plan_matches_uncached_reference(geometry):
    # random targets and fills, so about a third of the pairs are short of
    # atoms and take the shortfall ordering
    rng = np.random.default_rng(2024)
    short = 0
    for _ in range(2000):
        occ = rng.random(geometry.n_sites) < rng.uniform(0.1, 0.8)
        tgt = rng.random(geometry.n_sites) < rng.uniform(0.05, 0.6)
        short += (occ & ~tgt).sum() < (tgt & ~occ).sum()
        assert plan_rearrangement(occ, tgt, geometry) == \
            reference_plan_rearrangement(occ, tgt, geometry)
    assert short > 300


def test_segment_hits_keyed_by_site_coordinates():
    # Both geometries contain the segment (0, 0) -> (10, 0); the second has
    # an occupied settled site on it, which a route table built for the
    # first geometry would miss.
    bare = ArrayGeometry(sites=np.array([[0.0, 0.0], [10.0, 0.0]]))
    plan = plan_rearrangement([True, False], [False, True], bare)
    assert [(m.source, m.destination, len(m.path))
            for m in plan.moves] == [(0, 1, 2)]
    crowded = ArrayGeometry(sites=np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 0.0]]))
    occ, tgt = [True, False, True], [False, True, True]
    plan = plan_rearrangement(occ, tgt, crowded)
    assert any(m.source == 2 for m in plan.moves)  # the middle atom is parked
    assert plan == reference_plan_rearrangement(occ, tgt, crowded)
    assert not plan.unplaced_targets


def _assert_assignment_matches_scipy(cost):
    from scipy.optimize import linear_sum_assignment

    rows, cols = assembly._linear_sum_assignment(cost.tolist())
    want_rows, want_cols = linear_sum_assignment(cost)
    assert rows == want_rows.tolist() and cols == want_cols.tolist(), cost


def test_assignment_port_matches_scipy_on_ties_and_shapes():
    rng = np.random.default_rng(5)
    for shape in [(0, 0), (0, 3), (3, 0), (1, 1), (1, 6), (6, 1)]:
        _assert_assignment_matches_scipy(rng.integers(0, 3, size=shape) * 1.0)
    for _ in range(1500):
        shape = tuple(rng.integers(1, 8, size=2))  # square, wide and tall
        _assert_assignment_matches_scipy(
            rng.integers(0, rng.integers(1, 5), size=shape) * 1.0)
        _assert_assignment_matches_scipy(rng.random(shape))
    _assert_assignment_matches_scipy(np.zeros((5, 5)))


def test_assignment_port_matches_scipy_on_pair_grid_costs(geometry, target):
    # the planner's cost matrices: sources (rows) by empty targets (columns)
    sites = geometry.sites
    rng = np.random.default_rng(9)
    for _ in range(1000):
        occ = rng.random(geometry.n_sites) < rng.uniform(0.2, 0.8)
        tgt = target if rng.random() < 0.5 else rng.random(geometry.n_sites) < 0.4
        needed = np.flatnonzero(tgt & ~occ)
        sources = np.flatnonzero(occ & ~tgt)
        cost = np.hypot(*(sites[needed] - sites[sources][:, None])
                        .transpose(2, 0, 1))
        _assert_assignment_matches_scipy(cost)


def test_assembly_seed7_pin(geometry, target):
    # the rearrange subcommand's Monte Carlo at configs/rearrange.ini
    assert simulate_assembly(geometry, target, n_trials=2000, seed=7)[0] == 0.95


def test_assembly_perfect_components(geometry, target):
    p, _ = simulate_assembly(geometry, target, loading_probability=0.95,
                             per_move_success=1.0, imaging_survival=1.0,
                             n_trials=300, seed=3)
    assert p == 1.0


def test_assembly_zero_move_success(geometry, target):
    # only trials whose targets came pre-filled can succeed
    p, _ = simulate_assembly(geometry, target, loading_probability=0.5,
                             per_move_success=0.0, imaging_survival=1.0,
                             n_trials=4000, seed=5)
    assert p == pytest.approx(0.5 ** 8, abs=0.004)


def test_assembly_monotone_in_move_success(geometry, target):
    probs = []
    for s in (0.90, 0.94, 0.97, 0.99, 1.0):
        p, err = simulate_assembly(geometry, target, per_move_success=s,
                                   n_trials=1500, seed=11)
        probs.append((p, err))
    for (p0, e0), (p1, e1) in zip(probs, probs[1:]):
        assert p1 - p0 > -3 * np.hypot(e0, e1)


def test_assembly_reproduces_target_rate(geometry, target):
    p, err = simulate_assembly(geometry, target, n_trials=6000, seed=11)
    assert p == pytest.approx(0.955, abs=0.01)


def test_equalize_noiseless_contraction_factor():
    rng = np.random.default_rng(5)
    gains = 1 + 0.05 * rng.standard_normal(32)
    res = equalize_depths(gains, noiseless=True, gain=0.5, iterations=6)
    spreads = np.array(res.spread_history)
    ratios = spreads[1:] / spreads[:-1]
    assert np.allclose(ratios, 0.5, atol=0.02)


def test_equalize_noiseless_reaches_1e4_in_five_iterations():
    rng = np.random.default_rng(8)
    gains = 1 + 0.05 * rng.standard_normal(32)
    res = equalize_depths(gains, noiseless=True, gain=0.8, iterations=5)
    assert res.spread_history[5] <= 1e-4


def test_equalize_uniform_input_unchanged():
    gains = np.ones(32)
    res = equalize_depths(gains, seed=3)
    assert res.final_spread < 0.005  # stays at the measurement noise floor
    assert np.max(np.abs(res.weights - 1.0)) < 0.02


def test_equalize_default_noise_reaches_three_permille():
    rng = np.random.default_rng(5)
    gains = 1 + 0.05 * rng.standard_normal(32)
    res = equalize_depths(gains, iterations=8, seed=2)
    assert res.converged
    assert res.final_spread <= 0.003


def test_equalize_divergence_flagged():
    rng = np.random.default_rng(5)
    gains = 1 + 0.05 * rng.standard_normal(32)
    res = equalize_depths(gains, gain=2.5, iterations=8, seed=2)
    assert isinstance(res, EqualizationResult)
    assert not res.converged
