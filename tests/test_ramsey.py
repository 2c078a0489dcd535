import numpy as np
import pytest

from fsqsim.benchmarking.ramsey import ramsey_envelope_time, simulate_ramsey
from oracles import reference_ramsey

TWO_PI = 2 * np.pi


def test_zero_sigma_full_contrast():
    times = np.linspace(0, 8, 9)
    contrast = simulate_ramsey(0.0, times)
    assert np.max(np.abs(contrast - 1.0)) < 1e-9


def test_envelope_matches_gaussian_dephasing():
    sigma = TWO_PI * 0.053
    times = np.linspace(0.05, 9.0, 25)
    contrast = simulate_ramsey(sigma, times)
    expected = np.exp(-(sigma**2) * times**2 / 2.0)
    rms = np.sqrt(np.mean((contrast - expected) ** 2))
    assert rms < 0.02


def test_t2_star_from_53khz_drift():
    sigma = TWO_PI * 0.053
    t2 = ramsey_envelope_time(sigma)
    assert t2 == pytest.approx(4.3, abs=0.2)
    # and the simulated envelope crosses 1/e there
    contrast = simulate_ramsey(sigma, np.array([t2]))
    assert contrast[0] == pytest.approx(np.exp(-1.0), abs=0.02)


def test_mid_circuit_erasure_block_has_no_backaction():
    sigma = TWO_PI * 0.053
    times = np.linspace(0.0, 8.0, 9)
    plain = simulate_ramsey(sigma, times, mid_circuit_erasure=False)
    blocked = simulate_ramsey(sigma, times, mid_circuit_erasure=True)
    assert np.max(np.abs(plain - blocked)) < 0.01


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        simulate_ramsey(-1.0, [1.0])


@pytest.mark.parametrize("sigma", [0.0, TWO_PI * 0.053])
@pytest.mark.parametrize("erasure", [False, True])
@pytest.mark.parametrize("n_points", [1, 2, 26])
def test_fringe_arrays_match_per_node_products(sigma, erasure, n_points):
    # one (nodes x phases) array per wait time against one 6-vector product
    # per node and closing phase
    times = np.linspace(0.0, 10.0, n_points)
    contrast = simulate_ramsey(sigma, times, mid_circuit_erasure=erasure)
    ref = reference_ramsey(sigma, times, mid_circuit_erasure=erasure)
    assert contrast.shape == ref.shape == (n_points,)
    assert np.max(np.abs(contrast - ref)) <= 1e-14
