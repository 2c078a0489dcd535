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


_RATE = st.floats(0.0, 1e300)
# inf turns a source off only where NoiseConfig.without sets it, and those
# fields (lifetimes and the ionization constant) must be positive with a
# finite reciprocal, which every normal float has
_OFF_RATE = st.one_of(st.floats(0.0, 1e300, exclude_min=True,
                                allow_subnormal=False),
                      st.just(math.inf))


def _branching(weights):
    total = sum(weights)
    return dict(zip(("g", "q1", "q0", "x"), (w / total for w in weights)))


@st.composite
def _noise_configs(draw):
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
                   .filter(lambda w: sum(w) > 0))
    return NoiseConfig(
        tau_bright=draw(_OFF_RATE), tau_dark=draw(_OFF_RATE),
        branching=_branching(weights), ionization_a=draw(_OFF_RATE),
        rydberg_detuning_sigma_mhz=draw(_RATE),
        rydberg_dephasing_rate=draw(_RATE), raman_scatter_g=draw(_RATE),
        raman_leak_x=draw(_RATE), raman_spinflip=draw(st.none() | _RATE),
        state_prep_error=draw(st.floats(0.0, 1.0)),
        clock_rabi_mhz=draw(_RATE), clock_dephasing_per_ms=draw(_RATE),
    )


@settings(max_examples=300, deadline=None)
@given(_noise_configs())
def test_config_text_round_trip_property(cfg):
    # every field is held in its document unit, so every field, an unset
    # raman_spinflip included, comes back equal
    assert noise_config_from_text(noise_config_to_text(cfg)) == cfg


def test_config_text_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown key"):
        noise_config_from_text("tau_bright_us = 100\nbanana = 3\n")
    with pytest.raises(ValueError, match="bad number"):
        noise_config_from_text("tau_bright_us = abc\n")


_NUMERIC_FIELDS = ("tau_bright", "tau_dark", "ionization_a",
                   "rydberg_detuning_sigma_mhz", "rydberg_dephasing_rate",
                   "raman_scatter_g", "raman_leak_x", "raman_spinflip",
                   "state_prep_error", "clock_rabi_mhz",
                   "clock_dephasing_per_ms")


def test_numeric_fields_are_listed():
    assert set(NoiseConfig.__dataclass_fields__) == \
        {*_NUMERIC_FIELDS, "branching"}


@pytest.mark.parametrize("name", _NUMERIC_FIELDS)
def test_config_rejects_nan_naming_the_field(name):
    # nan fails every comparison, so it must not slip past the range checks
    with pytest.raises(ValueError, match=f"^{name} must"):
        NoiseConfig(**{name: math.nan})


@pytest.mark.parametrize("name", sorted(set(_NUMERIC_FIELDS) - {
    "tau_bright", "tau_dark", "ionization_a", "state_prep_error"}))
def test_config_rejects_inf_naming_the_field(name):
    # inf turns off only the lifetimes and ionization; an infinite rate
    # would reach the engine as a nan generator
    with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
        NoiseConfig(**{name: math.inf})


@pytest.mark.parametrize("name", ["tau_bright", "tau_dark", "ionization_a"])
def test_config_rejects_a_lifetime_whose_rate_overflows(name):
    # 1 / 1e-320 is inf, which would reach the engine as a nan generator
    with pytest.raises(ValueError, match=f"^{name} is too small: its "
                                         f"reciprocal overflows, got 1e-320$"):
        NoiseConfig(**{name: 1e-320})
    assert getattr(NoiseConfig(**{name: 1e-300}), name) == 1e-300


def test_config_rejects_a_sigma_whose_angular_frequency_overflows():
    # 2 pi x 1e308 is inf, which the Gauss-Hermite average would multiply
    # by its zero node
    with pytest.raises(ValueError, match="^rydberg_detuning_sigma_mhz is too "
                                         "large: its angular frequency "
                                         "overflows, got 1e\\+308$"):
        NoiseConfig(rydberg_detuning_sigma_mhz=1e308)
    assert math.isfinite(
        NoiseConfig(rydberg_detuning_sigma_mhz=1e300).rydberg_detuning_sigma)


@pytest.mark.parametrize("key", sorted(DEFAULT_BRANCHING))
def test_config_rejects_nan_branching_naming_the_fraction(key):
    branching = dict(DEFAULT_BRANCHING, **{key: math.nan})
    with pytest.raises(ValueError, match=f"branching fraction '{key}' .*nan"):
        NoiseConfig(branching=branching)


def test_config_text_rejects_nan_rate():
    # rydberg_dephasing_rate_per_us = nan used to run as a config with a nan
    # rate; only raman_spinflip_per_us reads nan as unset
    with pytest.raises(ValueError, match="rydberg_dephasing_rate"):
        noise_config_from_text("rydberg_dephasing_rate_per_us = nan\n")
    with pytest.raises(ValueError, match="branching fraction 'x'"):
        noise_config_from_text("branch_x = nan\n")
    cfg = noise_config_from_text("raman_spinflip_per_us = nan\n")
    assert cfg.raman_spinflip is None
    assert cfg.raman_spinflip_rate == cfg.raman_scatter_g / 3


def test_infinite_lifetimes_and_ionization_turn_sources_off():
    cfg = NoiseConfig(tau_bright=math.inf, tau_dark=math.inf,
                      ionization_a=math.inf, rydberg_dephasing_rate=0.0)
    assert rydberg_collapse_ops(cfg) == []
    assert ionization_collapse_ops(cfg, 2 * np.pi * 6.0) == []


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
    t_pi = np.pi / (2 * np.pi * cfg.clock_rabi_mhz)
    assert t_pi == pytest.approx(151.5, abs=1.0)  # ~150 us pulse
    err = clock_pi_pulse_error(cfg)
    assert 0.0005 < err < 0.01  # sub-percent preparation error
    assert clock_rabi_curve(0.0, cfg) == pytest.approx(0.0)
