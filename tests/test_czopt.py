import numpy as np
import pytest

from fsqsim.czopt import (
    DEFAULT_T_GATE,
    DEFAULT_THETA,
    default_profile,
    echo_return_probability,
    make_fidelity_objective,
    optimize_cz,
)
from fsqsim.rydberg import CZPulseProfile


def test_quadratic_objective_converges_in_three_iterations(drive):
    target = np.array([1.1, 1.5, 8.0, 0.21])

    def objective(profiles):
        p = np.array([[*pr.theta[:3], pr.t_gate] for pr in profiles])
        return 1.0 - np.sum((p - target) ** 2, axis=1)

    start = CZPulseProfile(theta=(1.0, 1.4, 7.5, 0.0), t_gate=0.19)
    res = optimize_cz(start, drive, objective, max_iterations=3)
    assert res.converged
    assert res.objective_value == pytest.approx(1.0, abs=1e-6)
    assert res.n_iterations <= 3


def test_stencil_is_one_objective_call(drive):
    target = np.array([1.1, 1.5, 8.0, 0.21])
    batches = []

    def objective(profiles):
        batches.append(len(profiles))
        p = np.array([[*pr.theta[:3], pr.t_gate] for pr in profiles])
        return 1.0 - np.sum((p - target) ** 2, axis=1)

    start = CZPulseProfile(theta=(1.0, 1.4, 7.5, 0.0), t_gate=0.19)
    res = optimize_cz(start, drive, objective, max_iterations=8)
    assert batches[0] == 21  # gradient and Hessian at the start
    assert 9 in batches  # gradient-only refresh
    assert set(batches) <= {1, 9, 21}
    assert res.n_evaluations == sum(batches)


def test_already_optimal_returns_input(drive, cz_profile):
    res = optimize_cz(cz_profile, drive, make_fidelity_objective(drive),
                      max_iterations=12)
    assert res.objective_value > 0.999999
    assert np.allclose(
        [*res.profile.theta[:3], res.profile.t_gate],
        [*cz_profile.theta[:3], cz_profile.t_gate],
        rtol=1e-3,
    )


def test_echo_objective_at_default_profile(drive, cz_profile):
    assert echo_return_probability(cz_profile, drive) > 1 - 1e-6


def test_echo_objective_improves_from_perturbation(drive, cz_profile):
    start = CZPulseProfile(
        theta=(cz_profile.theta[0] * 1.06, cz_profile.theta[1] * 0.95,
               cz_profile.theta[2] * 1.04, 0.0),
        t_gate=cz_profile.t_gate * 0.97,
    )
    before = echo_return_probability(start, drive)
    res = optimize_cz(start, drive, max_iterations=25)
    assert res.objective_value >= before
    assert res.objective_value > 0.9999


def test_perturbed_start_recovers_fidelity(drive, cz_profile):
    rng = np.random.default_rng(42)
    pert = 1 + 0.1 * rng.uniform(-1, 1, size=4)
    start = CZPulseProfile(
        theta=(cz_profile.theta[0] * pert[0], cz_profile.theta[1] * pert[1],
               cz_profile.theta[2] * pert[2], 0.0),
        t_gate=cz_profile.t_gate * pert[3],
    )
    res = optimize_cz(start, drive, make_fidelity_objective(drive),
                      max_iterations=50)
    assert res.objective_value >= 0.999


def test_optimizer_deterministic(drive):
    start = CZPulseProfile(theta=(1.0, 1.5, 7.0, 0.0), t_gate=0.20)
    obj = make_fidelity_objective(drive)
    a = optimize_cz(start, drive, obj, max_iterations=6)
    b = optimize_cz(start, drive, obj, max_iterations=6)
    assert a.profile.theta == b.profile.theta
    assert a.profile.t_gate == b.profile.t_gate
    assert a.n_evaluations == b.n_evaluations


def test_default_constants_are_the_optimizer_output(drive):
    # regression against the frozen reference parameters
    res = optimize_cz(default_profile(), drive, make_fidelity_objective(drive),
                      max_iterations=10)
    assert np.allclose(res.profile.theta[:3], DEFAULT_THETA[:3], atol=5e-4)
    assert res.profile.t_gate == pytest.approx(DEFAULT_T_GATE, abs=5e-5)
