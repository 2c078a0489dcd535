import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm, poisson

from fsqsim.levels import B, G, Q0, Q1, R, X
from fsqsim.readout import (
    DETECTED_0,
    DETECTED_1,
    LOSS,
    ClassifierReport,
    PhotonCountModel,
    _legendre_rule,
    _poisson_pmf,
    SRDModel,
    erasure_excise,
    operating_threshold,
    roc_sweep,
    sandwich_stats,
    srd_counts,
    srd_detect,
    srd_probabilities,
    state_prep_curve,
)


def test_degenerate_background_distribution():
    # zero background and zero-ish read noise: empty draws pile at zero
    m = PhotonCountModel(signal_mean=5.0, background_mean=1e-12,
                        read_noise=1e-9, early_departure_fraction=0.0,
                        background_bright_fraction=0.0)
    rng = np.random.default_rng(0)
    empty = [m.sample(False, rng) for _ in range(200)]
    assert np.max(np.abs(empty)) < 1e-6
    occupied = [m.sample(True, rng) for _ in range(4000)]
    assert np.mean(occupied) == pytest.approx(5.0, abs=3 * np.sqrt(5 / 4000))


def test_sample_mean_clt_bound(shallow_model):
    rng = np.random.default_rng(3)
    n = 100_000
    draws = np.array([shallow_model.sample(True, rng) for _ in range(n)])
    # analytic mean of the occupied mixture
    q = shallow_model.early_departure_fraction
    mean = (1 - q) * shallow_model.signal_mean + q * shallow_model.signal_mean / 2
    sigma = draws.std()
    assert abs(draws.mean() - mean) < 3 * sigma / np.sqrt(n)


def test_empirical_overlap_matches_integral():
    m = PhotonCountModel(signal_mean=40.0, background_mean=1e-9,
                        read_noise=2.0, early_departure_fraction=0.0,
                        background_bright_fraction=0.0)
    th = 20.0
    rng = np.random.default_rng(11)
    n = 30_000
    below = sum(m.sample(True, rng) < th for _ in range(n)) / n
    analytic = 1.0 - m.survival_function(th, occupied=True)
    assert below == pytest.approx(analytic, abs=0.02)


def test_roc_limits(shallow_model):
    reports = roc_sweep(shallow_model, [-1e6, 1e6])
    assert reports[0].true_positive == pytest.approx(1.0, abs=1e-9)
    assert reports[0].false_positive == pytest.approx(1.0, abs=1e-9)
    assert reports[1].true_positive == pytest.approx(0.0, abs=1e-9)
    assert reports[1].false_positive == pytest.approx(0.0, abs=1e-9)


def test_roc_monotone_and_tp_above_fp(shallow_model):
    ths = np.linspace(-6, shallow_model.signal_mean + 12, 60)
    reports = roc_sweep(shallow_model, ths)
    tps = [r.true_positive for r in reports]
    fps = [r.false_positive for r in reports]
    assert all(np.diff(tps) <= 1e-12)
    assert all(np.diff(fps) <= 1e-12)
    assert all(t >= f - 1e-12 for t, f in zip(tps, fps))


def test_calibrated_models(shallow_model, deep_model):
    assert shallow_model.optimal_threshold()[1] == pytest.approx(0.96, abs=0.005)
    assert deep_model.optimal_threshold()[1] == pytest.approx(0.9931, abs=0.002)


def test_classifier_report_validation():
    with pytest.raises(ValueError):
        ClassifierReport(0.0, 1.2, 0.0, 0.5)


def test_erasure_excise_threshold_below_everything():
    shots = [(False, 5.0), (True, 30.0)]
    retained, stats = erasure_excise(shots, threshold=-100.0)
    assert retained == []
    assert stats["excised_fraction"] == 1.0
    assert stats["retained_fraction"] + stats["excised_fraction"] == 1.0


def test_erasure_excise_perfect_separation():
    shots = [(True, 100.0)] * 50 + [(False, 0.0)] * 50
    retained, stats = erasure_excise(shots, threshold=50.0)
    assert stats["leakage_excised_fraction"] == 1.0
    assert stats["valid_discarded_fraction"] == 0.0
    assert len(retained) == 50


def test_erasure_operating_point(shallow_model):
    th = operating_threshold(shallow_model)
    captured, cost = sandwich_stats(shallow_model, th)
    assert captured == pytest.approx(0.91, abs=0.03)
    assert cost == pytest.approx(0.07, abs=0.03)


def test_erasure_excise_sampled_operating_point(shallow_model):
    th = operating_threshold(shallow_model)
    rng = np.random.default_rng(21)
    shots = []
    for _ in range(30_000):
        leaked = rng.random() < 0.05
        # sandwich: leakage is visible only to the closing image
        img1 = shallow_model.sample(False, rng)
        img2 = shallow_model.sample(leaked, rng)
        shots.append((leaked, (img1, img2)))
    _, stats = erasure_excise(shots, th)
    assert stats["leakage_excised_fraction"] == pytest.approx(0.91, abs=0.03)
    assert stats["valid_discarded_fraction"] == pytest.approx(0.07, abs=0.03)


def test_state_prep_curve_zero_error_is_flat(shallow_model):
    ths = np.linspace(-4, 30, 40)
    curve = state_prep_curve(0.0, shallow_model, 0.998, ths)
    assert np.nanmax(np.abs(curve - 0.998)) < 1e-12


def test_state_prep_curve_ceiling_and_plateau(shallow_model):
    ths = np.linspace(-6, shallow_model.signal_mean + 12, 80)
    curve = state_prep_curve(0.01, shallow_model, 0.998, ths)
    assert np.nanmax(curve) <= 0.998 + 1e-12
    assert np.nanmax(curve) > 0.996
    # residual infidelity at the conversion operating point ~0.4% (the
    # reference quotes 0.39 +0.47/-0.21 %)
    th_op = operating_threshold(shallow_model)
    idx = int(np.argmin(np.abs(ths - th_op)))
    assert 0.0015 < 1.0 - curve[idx] < 0.007


def test_srd_channel_probabilities():
    model = SRDModel()
    p_q0 = srd_probabilities(Q0, model)
    p_q1 = srd_probabilities(Q1, model)
    p_b = srd_probabilities(B, model)
    p_g = srd_probabilities(G, model)
    assert p_q0[DETECTED_0] > 0.993
    assert p_q1[DETECTED_1] > 0.998
    assert p_b[LOSS] == pytest.approx(1.0, abs=2 * model.fast_false_positive
                                      + 2 * model.slow_false_positive)
    assert p_g[DETECTED_0] > 0.99
    for p in (p_q0, p_q1, p_b, p_g):
        assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)


def test_srd_ideal_q1_always_detected():
    ideal = SRDModel(depump_leakage=0.0, fast_removal=1.0,
                     fast_classification=1.0, fast_false_positive=0.0,
                     slow_detection=1.0, slow_false_positive=0.0)
    rng = np.random.default_rng(0)
    assert all(srd_detect(Q1, ideal, rng) == DETECTED_1 for _ in range(100))
    assert all(srd_detect(Q0, ideal, rng) == DETECTED_0 for _ in range(100))


def test_srd_frequencies_match_channel():
    model = SRDModel()
    rng = np.random.default_rng(7)
    n = 100_000
    for state in (Q0, Q1, X, B, G):
        probs = srd_probabilities(state, model)
        counts = {DETECTED_0: 0, DETECTED_1: 0, LOSS: 0}
        for _ in range(n):
            counts[srd_detect(state, model, rng)] += 1
        for outcome, p in probs.items():
            sigma = np.sqrt(max(p * (1 - p), 1e-12) * n)
            assert abs(counts[outcome] - p * n) < 3 * sigma + 3


def test_x_population_biases_detected_zero():
    # adding x population raises the detected-0 frequency by that amount
    model = SRDModel()
    rng = np.random.default_rng(5)
    n = 60_000
    x_frac = 0.2

    def measure(states):
        return sum(srd_detect(s, model, rng) == DETECTED_0 for s in states) / len(states)

    pure_q1 = [Q1] * n
    mixed = [X if rng.random() < x_frac else Q1 for _ in range(n)]
    f0 = measure(pure_q1)
    f1 = measure(mixed)
    p0_x = srd_probabilities(X, model)[DETECTED_0]
    p0_q1 = srd_probabilities(Q1, model)[DETECTED_0]
    expected_shift = x_frac * (p0_x - p0_q1)
    assert f1 - f0 == pytest.approx(expected_shift, abs=4 * np.sqrt(0.25 / n) + 0.003)


def test_srd_rejects_unknown_state():
    with pytest.raises(ValueError):
        srd_probabilities(2, SRDModel())  # Rydberg is not a valid input


def _reference_optimal_threshold(m):
    """Scalar reference for ``optimal_threshold``: one threshold per call on
    mixtures built directly by ``_poisson_mixture``, scipy's brentq on the
    crossing of the two count densities, and the tail summed entry by entry
    from ``math.erfc``."""
    mix = {occ: m._poisson_mixture(occ) for occ in (False, True)}
    s = m.read_noise

    def pdf(t, occ):
        k, pk = mix[occ]
        z = (float(t) - k) / s
        return float((pk * (np.exp(-z**2 / 2.0) / math.sqrt(2 * math.pi) / s))
                     .sum())

    def sf(t, occ):
        k, pk = mix[occ]
        tail = [0.5 * math.erfc(z / math.sqrt(2)) for z in (t - k) / s]
        return float((pk * np.array(tail)).sum())

    def gap(t):
        return pdf(t, False) - pdf(t, True)

    grid = np.linspace(m.background_mean - 5 * s,
                       m.signal_mean + 5 * math.sqrt(m.signal_mean), 400)
    gaps = [gap(t) for t in grid]
    down = [i for i in range(len(grid) - 1) if gaps[i] > 0 >= gaps[i + 1]]
    assert len(down) == 1
    t = brentq(gap, grid[down[0]], grid[down[0] + 1], xtol=2e-12)
    return float(t), 1.0 - ((1.0 - sf(t, True)) + sf(t, False)) / 2.0


def _reference_signal_mean(fidelity, early, bright):
    def gap(signal):
        m = PhotonCountModel(signal, 1.0, 2.0, early, bright)
        return _reference_optimal_threshold(m)[1] - fidelity

    lo, hi = 1.5, 3.0
    while gap(hi) < 0:
        hi *= 2.0
    return brentq(gap, lo, hi, xtol=1e-4)


@pytest.mark.parametrize("which, fidelity, early, bright", [
    ("shallow", 0.96, 0.2, 0.05),
    ("deep", 0.9931, 0.02, 0.0),
])
def test_calibration_bit_identical_to_scalar_reference(
        which, fidelity, early, bright, shallow_model, deep_model):
    model = shallow_model if which == "shallow" else deep_model
    assert model.signal_mean == _reference_signal_mean(fidelity, early, bright)
    assert model.optimal_threshold() == _reference_optimal_threshold(model)


def test_mixture_built_once_per_model_and_occupancy(monkeypatch):
    built = []
    build = PhotonCountModel._poisson_mixture

    def counting(self, occupied):
        built.append((id(self), occupied))
        return build(self, occupied)

    monkeypatch.setattr(PhotonCountModel, "_poisson_mixture", counting)
    models = [PhotonCountModel(signal_mean=s) for s in (20.0, 30.0)]
    for m in models:
        for occ in (True, False):
            for _ in range(3):
                m.survival_function(np.linspace(-2.0, 25.0, 7), occ)
                m.survival_function(4.0, occ)
                m.pdf(4.0, occ)
        m.optimal_threshold()
    assert sorted(built) == sorted(
        (id(m), occ) for m in models for occ in (False, True))


def test_srd_counts_match_per_shot_tally():
    model = SRDModel()
    n = 20_000
    for state in (Q0, Q1, X, G, B):
        rng_shots = np.random.default_rng(13)
        rng_batch = np.random.default_rng(13)
        tally = {DETECTED_0: 0, DETECTED_1: 0, LOSS: 0}
        for _ in range(n):
            tally[srd_detect(state, model, rng_shots)] += 1
        assert srd_counts(state, model, n, rng_batch) == tally
        # both generators consumed the same draws
        assert rng_batch.random() == rng_shots.random()


def test_srd_counts_rejects_unknown_state():
    with pytest.raises(ValueError):
        srd_counts(R, SRDModel(), 10, np.random.default_rng(0))


def test_rate_functions_build_one_tail_per_call(monkeypatch, shallow_model):
    # each reads TP and FP off one read-noise tail; the rates are the two
    # survival functions, bit for bit
    from fsqsim import readout

    thresholds = np.linspace(-2.0, 30.0, 41)
    tp, fp = shallow_model.detection_rates(thresholds)
    assert np.array_equal(tp, shallow_model.survival_function(thresholds, True))
    assert np.array_equal(fp, shallow_model.survival_function(thresholds, False))
    assert shallow_model.detection_rates(7.5) == (
        shallow_model.survival_function(7.5, True),
        shallow_model.survival_function(7.5, False))
    tails = []
    build = PhotonCountModel._read_noise_tail

    def counting(self, threshold):
        tails.append(np.size(threshold))
        return build(self, threshold)

    monkeypatch.setattr(PhotonCountModel, "_read_noise_tail", counting)
    monkeypatch.setattr(readout, "shallow_trap_model", lambda: shallow_model)
    for call, n in [
        (lambda: roc_sweep(shallow_model, thresholds), 1),
        (lambda: sandwich_stats(shallow_model, 7.5), 1),
        (lambda: operating_threshold(shallow_model), 1),
        (lambda: state_prep_curve(1e-3, shallow_model, 0.99, thresholds), 1),
        # the threshold search, then the rates at its threshold
        (lambda: readout.erasure_operating_point.__wrapped__(), 2),
    ]:
        tails.clear()
        call()
        assert len(tails) == n


def test_classification_fidelity_shares_one_tail(shallow_model, deep_model):
    for m in (shallow_model, deep_model, PhotonCountModel(signal_mean=12.0)):
        grid = np.linspace(-8.0, m.signal_mean + 10.0, 97)
        expected = 1.0 - ((1.0 - m.survival_function(grid, True))
                          + m.survival_function(grid, False)) / 2.0
        assert np.array_equal(m.classification_fidelity(grid), expected)
        for t in grid[::8]:
            fid = m.classification_fidelity(t)
            assert type(fid) is float
            assert fid == 1.0 - ((1.0 - m.survival_function(t, True))
                                 + m.survival_function(t, False)) / 2.0


@pytest.mark.parametrize("which", ["shallow", "deep"])
def test_read_noise_tail_matches_normal_sf(which, shallow_model, deep_model):
    m = shallow_model if which == "shallow" else deep_model
    k = np.arange(m._kmax() + 1)
    ths = np.linspace(m.background_mean - 5 * m.read_noise,
                      m.signal_mean + 5 * math.sqrt(m.signal_mean), 800)
    ref = norm.sf(ths[:, None], loc=k[None, :], scale=m.read_noise)
    assert np.max(np.abs(m._read_noise_tail(ths) - ref)) <= 1e-15


@pytest.mark.parametrize("which", ["shallow", "deep"])
def test_poisson_pmf_matches_scipy(which, shallow_model, deep_model):
    # log k! from math.lgamma and from scipy's gammaln differ by up to 3 ulp
    # of lgamma(k + 1); exp turns an error e in the exponent into a relative
    # error e, so the bound scales with the size of the exponent's terms
    m = shallow_model if which == "shallow" else deep_model
    k = np.arange(m._kmax() + 1)[None, :]
    nodes, _ = _legendre_rule()
    mu = np.concatenate([0.5 * m.signal_mean * (nodes + 1.0),
                         [m.signal_mean, m.background_mean]])[:, None]
    ref = poisson.pmf(k, mu)
    got = _poisson_pmf(k, mu)
    size = k * np.abs(np.log(mu)) + np.vectorize(math.lgamma)(k + 1.0) + mu
    assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * size * ref
                  + 1e-300)
    assert np.array_equal(got[:, 0], np.exp(-mu[:, 0]))  # 0 log mu = 0


def test_optimal_threshold_without_a_crossing_names_the_means(monkeypatch):
    # identical densities never cross: fail fast instead of returning a
    # threshold that maximizes nothing
    model = PhotonCountModel(signal_mean=12.0)
    monkeypatch.setattr(PhotonCountModel, "_density_gap",
                        lambda self, counts: np.zeros(np.shape(counts)))
    with pytest.raises(ValueError, match=r"background mean 1\.0, signal mean "
                                         r"12\.0"):
        model.optimal_threshold()


def test_optimal_threshold_keeps_the_best_of_several_crossings(monkeypatch):
    # a narrow occupied-density bump at -4 counts adds a spurious downward
    # crossing left of the true one: both are solved, the better one is kept
    model = PhotonCountModel(signal_mean=12.0)
    best = model.optimal_threshold()
    density_gap = PhotonCountModel._density_gap

    def bumped(self, counts):
        c = np.asarray(counts, dtype=float)
        return density_gap(self, counts) - 0.1 * np.exp(-((c + 4.0) / 0.3) ** 2)

    grid = np.linspace(model.background_mean - 5 * model.read_noise,
                       model.signal_mean + 5 * math.sqrt(model.signal_mean),
                       400)
    gap = bumped(model, grid)
    down = np.flatnonzero((gap[:-1] > 0) & (gap[1:] <= 0))
    assert len(down) == 2 and grid[down[0]] < -4.0 < best[0]
    monkeypatch.setattr(PhotonCountModel, "_density_gap", bumped)
    assert model.optimal_threshold() == best
