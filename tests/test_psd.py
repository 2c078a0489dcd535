import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsqsim.psd import (
    FrequencyNoisePSD,
    NoiseTrajectory,
    gate_fidelity_with_detuning,
    mc_gate_infidelity,
    psd_to_uv,
    quasi_static_infidelity,
    sample_detuning_trajectory,
)

TWO_PI = 2 * np.pi


def white_psd(level=100.0, f_max=2e6, n=80):
    f = np.linspace(0.0, f_max, n)
    return FrequencyNoisePSD(f, np.full(n, level))


def test_psd_validation():
    with pytest.raises(ValueError):
        FrequencyNoisePSD(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        FrequencyNoisePSD(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


def test_psd_to_uv_unity_transfer():
    psd = white_psd()
    out = psd_to_uv(psd)
    assert np.allclose(out.psd_hz2_per_hz, 4.0 * psd.psd_hz2_per_hz)


def test_psd_to_uv_cutoff_transfer():
    f = np.linspace(0.0, 2e6, 50)
    psd = FrequencyNoisePSD(f, np.full(50, 10.0),
                            shg_transfer=lambda x: 0.0 if x > 1e6 else 1.0)
    out = psd_to_uv(psd)
    assert np.all(out.psd_hz2_per_hz[f > 1e6] == 0.0)
    assert np.allclose(out.psd_hz2_per_hz[f <= 1e6], 40.0)


def test_psd_to_uv_single_pole_half_power():
    fc = 5e5
    psd = FrequencyNoisePSD(
        np.array([0.0, fc, 2 * fc]),
        np.array([10.0, 10.0, 10.0]),
        shg_transfer=lambda x: 1.0 / np.sqrt(1.0 + (x / fc) ** 2),
    )
    out = psd_to_uv(psd)
    # at the corner |H|^2 = 1/2, so the factor-4 becomes a factor-2
    assert out.psd_hz2_per_hz[1] == pytest.approx(20.0)


def test_zero_psd_gives_zero_trajectory():
    f = np.linspace(0.0, 1e6, 20)
    psd = FrequencyNoisePSD(f, np.zeros(20))
    traj = sample_detuning_trajectory(psd, dt=0.5, duration=32.0, seed=4)
    assert np.all(traj.detuning_rad_per_us == 0.0)


def test_parseval_over_seeds():
    psd = white_psd(level=100.0, f_max=2e6)
    target = psd.variance_hz2()
    samples = []
    for seed in range(200):
        traj = sample_detuning_trajectory(psd, dt=0.25, duration=64.0, seed=seed)
        nu_hz = traj.detuning_rad_per_us / TWO_PI * 1e6
        samples.append(np.var(nu_hz))
    assert np.mean(samples) == pytest.approx(target, rel=0.05)


def test_periodogram_matches_target_psd():
    psd = white_psd(level=50.0, f_max=1e6)
    dt, duration = 0.5, 128.0
    n = int(duration / dt)
    acc = np.zeros(n // 2 + 1)
    for seed in range(200):
        traj = sample_detuning_trajectory(psd, dt, duration, seed=seed)
        nu = traj.detuning_rad_per_us / TWO_PI * 1e6
        spec = np.abs(np.fft.rfft(nu)) ** 2 * (dt * 1e-6) / n * 2.0
        acc += spec
    acc /= 200
    freqs = np.fft.rfftfreq(n, d=dt * 1e-6)
    band = (freqs > 5e4) & (freqs < 9e5)
    rms = np.sqrt(np.mean((acc[band] - 50.0) ** 2)) / 50.0
    assert rms < 0.10


def test_narrowband_autocorrelation():
    f0 = 2e5
    f = np.linspace(0.0, 5e5, 400)
    s = np.exp(-0.5 * ((f - f0) / 4e3) ** 2) * 1e4
    psd = FrequencyNoisePSD(f, s)
    traj = sample_detuning_trajectory(psd, dt=0.5, duration=256.0, seed=8)
    x = traj.detuning_rad_per_us
    ac = np.correlate(x, x, mode="full")[len(x) - 1:]
    ac /= ac[0]
    period_us = 1e6 / f0  # 5 us -> 10 samples at dt 0.5
    lag = int(round(period_us / 2 / 0.5))
    assert ac[lag] < -0.5  # half period later: anticorrelated
    assert ac[2 * lag] > 0.4


def test_trajectory_band_mismatch_rejected():
    f = np.linspace(0.0, 5e6, 50)
    psd = FrequencyNoisePSD(f, np.full(50, 10.0))
    with pytest.raises(ValueError, match="Nyquist"):
        sample_detuning_trajectory(psd, dt=1.0, duration=16.0, seed=0)
    sample_detuning_trajectory(psd, dt=1.0, duration=16.0, seed=0,
                               allow_truncation=True)
    with pytest.raises(ValueError):
        sample_detuning_trajectory(psd, dt=8.0, duration=8.0, seed=0)


def test_mc_zero_psd_is_zero_infidelity(cz_profile, drive):
    f = np.linspace(0.0, 4e7, 30)
    psd = FrequencyNoisePSD(f, np.zeros(30))
    mean, err = mc_gate_infidelity(psd, cz_profile, drive, 10, seed=1)
    assert mean < 1e-6


def test_mc_quasi_static_matches_quadrature(cz_profile, drive):
    sigma = TWO_PI * 0.08
    reference = quasi_static_infidelity(cz_profile, drive, sigma)
    rng = np.random.default_rng(3)
    draws = rng.normal(0.0, sigma, size=64)
    infs = [1.0 - gate_fidelity_with_detuning(cz_profile, drive, d)
            for d in draws]
    mean = np.mean(infs)
    se = np.std(infs, ddof=1) / np.sqrt(len(infs))
    assert abs(mean - reference) < 2 * se


def test_mc_infidelity_grows_with_psd_scale(cz_profile, drive):
    f = np.linspace(0.0, 4e7, 40)
    base = np.full(40, 2e3)
    results = []
    for scale in (0.5, 1.0, 2.0):
        psd = FrequencyNoisePSD(f, scale * base)
        mean, _ = mc_gate_infidelity(psd, cz_profile, drive, 24, seed=9)
        results.append(mean)
    assert results[0] < results[1] < results[2]


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_stacked_trajectories_match_solo(cz_profile, drive, seed):
    f = np.linspace(0.0, 4e7, 40)
    psd = FrequencyNoisePSD(f, np.full(40, 2e3))
    trajs = [
        sample_detuning_trajectory(psd, cz_profile.t_gate / 16,
                                   cz_profile.t_gate, seed=seed + k,
                                   allow_truncation=True)
        for k in range(3)
    ]
    stack = NoiseTrajectory(
        times_us=trajs[0].times_us,
        detuning_rad_per_us=np.stack([t.detuning_rad_per_us for t in trajs]),
    )
    stacked = gate_fidelity_with_detuning(cz_profile, drive, stack)
    solo = [gate_fidelity_with_detuning(cz_profile, drive, t) for t in trajs]
    assert stacked.shape == (3,)
    assert np.max(np.abs(stacked - solo)) <= 1e-10


def test_mc_deterministic_per_seed(cz_profile, drive):
    f = np.linspace(0.0, 4e7, 40)
    psd = FrequencyNoisePSD(f, np.full(40, 2e3))
    a = mc_gate_infidelity(psd, cz_profile, drive, 12, seed=5)
    b = mc_gate_infidelity(psd, cz_profile, drive, 12, seed=5)
    assert a == b


def test_psd_text_round_trip():
    psd = white_psd(level=7.5, n=12)
    back = FrequencyNoisePSD.from_text(psd.to_text())
    assert np.allclose(back.frequency_hz, psd.frequency_hz)
    assert np.allclose(back.psd_hz2_per_hz, psd.psd_hz2_per_hz)
