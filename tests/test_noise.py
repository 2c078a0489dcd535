import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsqsim.levels import B, G, Q0, Q1, R, X
from fsqsim.lindblad import evolve_lindblad
from fsqsim.noise import (
    DEFAULT_BRANCHING,
    NoiseConfig,
    clock_pi_pulse_error,
    clock_rabi_curve,
    ionization_collapse_ops,
    ionization_rate,
    noise_config_from_text,
    noise_config_to_text,
    raman_scatter_collapse_ops,
    rydberg_collapse_ops,
)
from fsqsim.states import QuantumState


def test_default_branching_sums_to_one():
    assert sum(DEFAULT_BRANCHING.values()) == pytest.approx(1.0, abs=1e-12)
    # degeneracy weights: g : q1 : (q0 + x) = 3 : 1 : 5, q0 : x = 1 : 4
    assert DEFAULT_BRANCHING["g"] == pytest.approx(3 / 9)
    assert DEFAULT_BRANCHING["q1"] == pytest.approx(1 / 9)
    assert DEFAULT_BRANCHING["q0"] == pytest.approx(1 / 9)
    assert DEFAULT_BRANCHING["x"] == pytest.approx(4 / 9)


def test_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(tau_bright=-1)
    with pytest.raises(ValueError):
        NoiseConfig(state_prep_error=1.5)
    with pytest.raises(ValueError):
        NoiseConfig(branching={"g": 1.0, "q1": 0.5, "q0": 0, "x": 0})


def test_rydberg_population_decay(reference_config):
    cfg = reference_config
    st = QuantumState.pure([R])
    total = 1 / cfg.tau_bright + 1 / cfg.tau_dark
    for t in (5.0, 40.0):
        out = evolve_lindblad(st, None, rydberg_collapse_ops(cfg), t)
        assert out.rho[R, R].real == pytest.approx(np.exp(-t * total), abs=1e-7)


def test_branching_split_follows_degeneracy(reference_config):
    cfg = reference_config
    st = QuantumState.pure([R])
    out = evolve_lindblad(st, None, rydberg_collapse_ops(cfg), 2000.0)
    diag = np.diag(out.rho).real
    bright = cfg.tau_dark / (cfg.tau_bright + cfg.tau_dark)
    assert diag[B] == pytest.approx(1 - bright, abs=1e-6)
    # bright share splits 3:1:1:4 over (g, q1, q0, x)
    assert diag[G] == pytest.approx(bright * 3 / 9, abs=1e-6)
    assert diag[Q1] == pytest.approx(bright * 1 / 9, abs=1e-6)
    assert diag[Q0] == pytest.approx(bright * 1 / 9, abs=1e-6)
    assert diag[X] == pytest.approx(bright * 4 / 9, abs=1e-6)


def test_infinite_dark_lifetime_lands_bright_only():
    cfg = NoiseConfig(tau_dark=np.inf)
    st = QuantumState.pure([R])
    out = evolve_lindblad(st, None, rydberg_collapse_ops(cfg), 3000.0)
    assert out.rho[B, B].real == pytest.approx(0.0, abs=1e-7)


def test_ionization_examples():
    assert ionization_rate(0.0, 610.0) == 0.0
    rate = ionization_rate(2 * np.pi * 6.0, 610.0)
    assert 1.0 / rate == pytest.approx(610.0 / 36.0, rel=1e-12)
    assert ionization_rate(2 * 2 * np.pi * 6.0, 610.0) == pytest.approx(4 * rate)
    with pytest.raises(ValueError):
        ionization_rate(1.0, 0.0)


def test_ionization_targets_q0_and_x(reference_config):
    ops = ionization_collapse_ops(reference_config, 2 * np.pi * 6.0)
    sources = set()
    for op in ops:
        rows, cols = np.nonzero(op.operator)
        assert rows[0] == B
        sources.add(cols[0])
    assert sources == {Q0, X}


def test_raman_scattering_has_no_loss_channel(reference_config):
    # ionization only acts while the UV drive is on; Raman-only circuits
    # must preserve the trace over the non-bucket levels
    for op in raman_scatter_collapse_ops(reference_config):
        rows, _ = np.nonzero(op.operator)
        assert B not in rows


def test_config_round_trip(reference_config):
    cfg = NoiseConfig(
        tau_bright=99.0, rydberg_dephasing_rate=0.05, raman_spinflip=2e-4
    )
    assert noise_config_from_text(noise_config_to_text(cfg)) == cfg
    assert noise_config_from_text(noise_config_to_text(reference_config)) == \
        reference_config


_RATE = st.one_of(st.floats(0.0, 1e300), st.just(math.inf))


def _branching(weights):
    total = sum(weights)
    return dict(zip(("g", "q1", "q0", "x"), (w / total for w in weights)))


@st.composite
def _noise_configs(draw):
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
                   .filter(lambda w: sum(w) > 0))
    return NoiseConfig(
        tau_bright=draw(_RATE), tau_dark=draw(_RATE),
        branching=_branching(weights), ionization_a=draw(_RATE),
        rydberg_detuning_sigma_mhz=draw(_RATE),
        rydberg_dephasing_rate=draw(_RATE), raman_scatter_g=draw(_RATE),
        raman_leak_x=draw(_RATE), raman_spinflip=draw(st.none() | _RATE),
        state_prep_error=draw(st.floats(0.0, 1.0)), clock_rabi=draw(_RATE),
        clock_dephasing=draw(_RATE),
    )


@settings(max_examples=300, deadline=None)
@given(_noise_configs())
def test_config_text_round_trip_property(cfg):
    # the text holds clock_rabi / 2 pi and clock_dephasing * 1e3, so those
    # two come back within 4 ulp; every other field, an unset
    # raman_spinflip included, comes back equal
    back = noise_config_from_text(noise_config_to_text(cfg))
    inexact = ("clock_rabi", "clock_dephasing")
    for name in NoiseConfig.__dataclass_fields__:
        if name not in inexact:
            assert getattr(back, name) == getattr(cfg, name), name
    for name in inexact:
        a, b = getattr(cfg, name), getattr(back, name)
        assert a == b or abs(b - a) <= 4 * np.spacing(a), name


def test_config_text_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown key"):
        noise_config_from_text("tau_bright_us = 100\nbanana = 3\n")
    with pytest.raises(ValueError, match="bad number"):
        noise_config_from_text("tau_bright_us = abc\n")


def test_source_slicing(reference_config):
    only_decay = reference_config.only("rydberg_decay")
    assert only_decay.tau_bright == reference_config.tau_bright
    assert np.isinf(only_decay.ionization_a)
    assert only_decay.rydberg_dephasing_rate == 0.0
    assert only_decay.raman_scatter_g == 0.0
    off = reference_config.without("rydberg_decay")
    assert np.isinf(off.tau_bright)


def test_clock_pulse_error():
    cfg = NoiseConfig()
    t_pi = np.pi / cfg.clock_rabi
    assert t_pi == pytest.approx(151.5, abs=1.0)  # ~150 us pulse
    err = clock_pi_pulse_error(cfg)
    assert 0.0005 < err < 0.01  # sub-percent preparation error
    assert clock_rabi_curve(0.0, cfg) == pytest.approx(0.0)
