import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsqsim.fitting import FitError
from fsqsim.ratedyn import (
    DecayModel,
    LifetimeDataset,
    analytic_populations,
    branching_ratios,
    fit_lifetimes,
    predicted_observables,
    rate_equation_rhs,
)
from oracles import dopri5

PAPER_MODEL = DecayModel(110.0, 37.0, 0.4)


def test_initial_condition():
    p_r, p_d, p_b = analytic_populations(0.0, PAPER_MODEL)
    assert (p_r, p_d, p_b) == (0.4, 0.0, 0.0)


def test_asymptotic_bucket_population():
    _, _, p_b = analytic_populations(1e9, PAPER_MODEL)
    assert p_b == pytest.approx(0.4 * 37 / 147, rel=1e-12)
    assert p_b == pytest.approx(0.1007, abs=2e-4)


def test_conservation_closed_form():
    t = np.linspace(0, 400, 100)
    p_r, p_d, p_b = analytic_populations(t, PAPER_MODEL)
    assert np.max(np.abs(p_r + p_d + p_b - PAPER_MODEL.amplitude)) < 1e-14


def test_observables_at_zero_and_infinity():
    p1, p2 = predicted_observables(0.0, PAPER_MODEL)
    assert (p1, p2) == (0.0, 0.4)
    p1_inf, p2_inf = predicted_observables(1e9, PAPER_MODEL)
    a, tb, td = 0.4, 110.0, 37.0
    assert p2_inf == pytest.approx(a - a * tb / (tb + td) - a * td / (9 * (tb + td)))


def test_observable_identity():
    t = np.linspace(0, 200, 60)
    p1, p2 = predicted_observables(t, PAPER_MODEL)
    _, p_d, _ = analytic_populations(t, PAPER_MODEL)
    assert np.max(np.abs(p2 - (PAPER_MODEL.amplitude - p_d - p1 / 9.0))) < 1e-12


def test_numeric_integration_matches_analytic():
    rng = np.random.default_rng(3)
    for _ in range(50):
        model = DecayModel(
            tau_bright=rng.uniform(20, 400),
            tau_dark=rng.uniform(5, 200),
            amplitude=rng.uniform(0.1, 1.0),
        )
        t_end = rng.uniform(10, 300)
        y = dopri5(
            lambda t, y: rate_equation_rhs(y.real, model).astype(complex),
            np.array([model.amplitude, 0, 0], dtype=complex),
            0.0, t_end, 1e-10, 1e-13,
        )
        exact = analytic_populations(t_end, model)
        assert np.max(np.abs(y.real - np.array(exact))) < 1e-8


def test_noise_free_fit_recovery():
    times = np.linspace(2, 150, 15)
    p1, p2 = predicted_observables(times, PAPER_MODEL)
    data = LifetimeDataset(times, p1, np.full(15, 1e-3), p2, np.full(15, 1e-3))
    fit = fit_lifetimes(data)
    assert fit.model.tau_bright == pytest.approx(110.0, rel=1e-6)
    assert fit.model.tau_dark == pytest.approx(37.0, rel=1e-6)
    assert fit.model.amplitude == pytest.approx(0.4, rel=1e-6)
    assert fit.converged and not fit.at_bound


def test_fit_requires_enough_times():
    with pytest.raises(FitError):
        fit_lifetimes(LifetimeDataset(
            [1.0, 2.0, 3.0], [0.1] * 3, [0.01] * 3, [0.3] * 3, [0.01] * 3
        ))


def test_p1_only_fit_inflates_bright_uncertainty():
    data = LifetimeDataset.synthesize(PAPER_MODEL, np.linspace(2, 150, 15),
                                      0.02, seed=4)
    joint = fit_lifetimes(data)
    p1_only = fit_lifetimes(data, observables=("p1",),
                            fix_amplitude=joint.model.amplitude)
    assert p1_only.tau_bright_err >= 2.0 * joint.tau_bright_err
    with pytest.raises(FitError):
        fit_lifetimes(data, observables=("p1",))


def test_fit_bias_shrinks_with_noise():
    biases = []
    for noise in (0.04, 0.02, 0.005):
        vals = []
        for seed in range(40):
            data = LifetimeDataset.synthesize(
                PAPER_MODEL, np.linspace(2, 150, 15), noise, seed=seed
            )
            vals.append(fit_lifetimes(data).model.tau_bright)
        biases.append(abs(np.mean(vals) - 110.0))
    assert biases[2] < biases[0]


def test_dataset_csv_round_trip():
    data = LifetimeDataset.synthesize(PAPER_MODEL, np.linspace(2, 150, 15),
                                      0.02, seed=9)
    back = LifetimeDataset.from_csv(data.to_csv())
    assert np.allclose(back.times, data.times)
    assert np.allclose(back.p1, data.p1, atol=1e-7)


_VALUE = st.floats(-1e300, 1e300)
_ERROR = st.floats(0.0, 1e300, exclude_min=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_VALUE, _VALUE, _ERROR, _VALUE, _ERROR),
                min_size=1, max_size=20))
def test_dataset_csv_round_trip_property(rows):
    # the CSV holds 8 significant digits: every column comes back as those
    # digits, and writes the same text again
    data = LifetimeDataset(*np.array(rows).T)
    back = LifetimeDataset.from_csv(data.to_csv())
    for name in ("times", "p1", "p1_err", "p2", "p2_err"):
        want = [float(f"{x:.8g}") for x in getattr(data, name)]
        assert np.array_equal(getattr(back, name), want), name
    assert back.to_csv() == data.to_csv()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", range(5))
def test_dataset_refuses_non_finite_entries_by_column(column, bad):
    # nan passes err <= 0, so it used to get through to the fit
    cols = [np.array([1.0, 2.0]) for _ in range(5)]
    cols[column][0] = bad
    name = ("T_us", "P1", "P1_err", "P2", "P2_err")[column]
    with pytest.raises(ValueError,
                       match=f"^{name} must be finite, got {bad} at index 0$"):
        LifetimeDataset(*cols)


def test_branching_single_channel_degenerate():
    out = branching_ratios(3.0, 3.0, 3.0)
    assert out["3P0"] == pytest.approx(1.0)
    assert out["3P1_path"] == 0.0
    assert out["3P2"] == 0.0
    assert out["dark"] == 0.0


def test_branching_degeneracy_weights():
    out = branching_ratios(9.0, 6.0, 1.0)
    assert out["3P2"] == pytest.approx(5 / 9)
    assert out["3P1_path"] == pytest.approx(3 / 9)
    assert out["3P0"] == pytest.approx(1 / 9)


def test_branching_dark_share_from_lifetimes():
    out = branching_ratios(9.0, 6.0, 1.0, tau_bright=110.0, tau_dark=37.0)
    assert out["dark"] == pytest.approx(110 / 147, rel=1e-12)
    assert sum(out.values()) == pytest.approx(1.0)


def test_branching_rejects_inconsistent_nesting():
    with pytest.raises(ValueError):
        branching_ratios(5.0, 6.0, 1.0)
    with pytest.raises(ValueError):
        branching_ratios(5.0, 3.0, 4.0)
