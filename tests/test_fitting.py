import math

import numpy as np
import pytest
from scipy import optimize

from fsqsim import fitting
from fsqsim.fitting import (
    DecayFit,
    FitError,
    brentq,
    fit_power_decay,
    fit_sinusoid_fixed_period,
)


def test_exact_decay_recovery():
    n = np.array([2, 6, 10, 14, 20, 26, 30])
    y = 0.95 * 0.99**n
    fit = fit_power_decay(n, y, sigma=np.full_like(y, 1e-4), offset=0.0)
    assert fit.amplitude == pytest.approx(0.95, abs=1e-9)
    assert fit.fidelity == pytest.approx(0.99, abs=1e-9)
    assert fit.converged


def test_decay_fit_needs_enough_lengths():
    with pytest.raises(FitError):
        fit_power_decay([3, 3, 3], [0.5, 0.5, 0.5], [0.01] * 3, offset=0.0)


def test_decay_fit_rejects_non_finite_values_and_sigmas():
    n = [2, 6, 10]
    y = [0.9, 0.8, 0.7]
    with pytest.raises(FitError, match="finite"):
        fit_power_decay(n, [0.9, np.nan, 0.7], [0.01] * 3, offset=0.0)
    with pytest.raises(FitError, match="finite"):
        fit_power_decay(n, y, [0.01, np.nan, 0.01], offset=0.5)
    with pytest.raises(FitError, match="finite"):
        fit_power_decay(n, y, [0.01, np.inf, 0.01], offset=0.0)


def test_shot_noise_recovery_study():
    # synthetic F = 0.9945, 1e4 shots per point: recovered within +-0.003
    rng = np.random.default_rng(17)
    n = np.arange(2, 31, 4)
    truth_a, truth_f = 0.97, 0.9945
    misses = 0
    for _ in range(20):
        p = truth_a * truth_f**n
        shots = 10_000
        y = rng.binomial(shots, p) / shots
        sigma = np.sqrt(np.maximum(y * (1 - y), 1e-9) / shots)
        fit = fit_power_decay(n, y, sigma, offset=0.0)
        if abs(fit.fidelity - truth_f) > 0.003:
            misses += 1
    assert misses == 0


def test_estimator_unbiased_over_regenerations():
    rng = np.random.default_rng(5)
    n = np.arange(2, 31, 4)
    truth_f, truth_a = 0.985, 0.96
    sigma = 0.004
    fits = []
    for _ in range(100):
        y = truth_a * truth_f**n + rng.normal(0, sigma, len(n))
        fit = fit_power_decay(n, y, np.full(len(n), sigma), offset=0.0)
        fits.append((fit.fidelity, fit.fidelity_err))
    mean_f = np.mean([f for f, _ in fits])
    typical_err = np.mean([e for _, e in fits])
    assert abs(mean_f - truth_f) < typical_err / 10 * 1.5


def test_decay_fit_validation():
    with pytest.raises(ValueError):
        DecayFit(amplitude=1.0, fidelity=1.2, covariance=np.eye(2),
                 residual_norm=0.0)


def test_sinusoid_fit_exact():
    ph = np.linspace(0, 2 * np.pi, 21)
    vals = 0.45 * np.cos(2 * ph + 0.3) + 0.5
    c, delta, off, cerr = fit_sinusoid_fixed_period(ph, vals, period=np.pi)
    assert c == pytest.approx(0.45, abs=1e-12)
    assert delta == pytest.approx(0.3, abs=1e-12)
    assert off == pytest.approx(0.5, abs=1e-12)


def _monotone(rng):
    """A random strictly monotone function and a bracket around its root."""
    r = rng.uniform(-5, 5)
    a, b, c = rng.exponential(1.0, 3) * (rng.random(3) < 0.7)
    a += 1e-3
    d = rng.uniform(0.1, 3.0)
    sign = rng.choice([-1.0, 1.0])

    def f(x):
        u = x - r
        return sign * (a * u + b * u**3 + c * math.expm1(d * u))

    return f, r - rng.exponential(2.0), r + rng.exponential(2.0)


def test_brentq_port_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        f, lo, hi = _monotone(rng)
        xtol = 10 ** rng.uniform(-12, -2)
        assert brentq(f, lo, hi, xtol) == optimize.brentq(f, lo, hi, xtol=xtol)


def test_brentq_exact_root_at_either_end():
    calls = []

    def f(x):
        calls.append(x)
        return x - 1.0

    assert brentq(f, 1.0, 3.0, 1e-8) == 1.0
    assert brentq(f, -2.0, 1.0, 1e-8) == 1.0
    assert len(calls) == 4  # both ends are evaluated, nothing more


def test_brentq_rejects_same_sign_bracket():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 2.0, 1e-8)


def test_brentq_names_iteration_count_when_not_converging(monkeypatch):
    monkeypatch.setattr(fitting, "BRENT_MAX_ITERATIONS", 3)
    with pytest.raises(RuntimeError, match="after 3 iterations, value is"):
        brentq(lambda x: math.atan(x - 0.3), -50.0, 70.0, 1e-12)
