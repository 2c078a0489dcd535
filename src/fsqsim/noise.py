"""Error-source models and their collapse operators.

Rates are 1/us, angular frequencies rad/us. Optical frequencies in config
files carry explicit unit suffixes (_MHz ordinary frequency, _us, _per_us,
_per_ms) because unit slips are the dominant failure mode of this kind of
artifact.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .levels import B, G, Q0, Q1, R, X, lop
from .lindblad import CollapseOperator

TWO_PI = 2 * np.pi

# Bright-state branching from degeneracy weights 5:3:1 over
# (3P2 : 1S0-via-3P1 : 3P0); within 3P2, m_J = 0 vs m_J != 0 splits 1:4.
DEFAULT_BRANCHING = {
    "g": 3.0 / 9.0,
    "q1": 1.0 / 9.0,
    "q0": 1.0 / 9.0,
    "x": 4.0 / 9.0,
}


def gaussian_quadrature(sigma: float, n_nodes: int):
    """(points, weights) of an ``n_nodes`` Gauss-Hermite average over a
    zero-mean Gaussian of width ``sigma``; ``sigma`` = 0 gives ([0], [1])."""
    if sigma == 0.0:
        return np.array([0.0]), np.array([1.0])
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_nodes)
    return sigma * nodes, weights / np.sqrt(2 * np.pi)


def _check_branching(b):
    total = sum(b.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"branching fractions sum to {total}, not 1")
    if set(b) != {"g", "q1", "q0", "x"}:
        raise ValueError("branching table needs exactly the keys g, q1, q0, x")
    if any(v < 0 for v in b.values()):
        raise ValueError("branching fractions must be non-negative")


@dataclass(frozen=True)
class NoiseConfig:
    """All error-source parameters, each independently zeroable.

    ``rydberg_detuning_sigma_mhz`` is the r.m.s. of a quasi-static Gaussian
    detuning (slow drift); ``rydberg_dephasing_rate`` is the Markovian
    alternative (q1-r coherence decay rate). Both default to the drift model.
    """

    tau_bright: float = 110.0  # us
    tau_dark: float = 37.0  # us
    branching: dict = field(default_factory=lambda: dict(DEFAULT_BRANCHING))
    ionization_a: float = 610.0  # tau_ion = A / (Omega/2pi)^2, us
    rydberg_detuning_sigma_mhz: float = 0.053
    rydberg_dephasing_rate: float = 0.0  # 1/us, Lindblad alternative
    # drive-time scattering rates, calibrated so the reference-config
    # CRB lands at 0.992 raw / 0.993 erasure-corrected
    raman_scatter_g: float = 1.5e-4  # 1/us of Raman drive time, to g
    raman_leak_x: float = 4.4e-4  # 1/us of Raman drive time, to x
    # incoherent return into either qubit state (spin flip / Rayleigh);
    # None -> scatter_g / 3, the degeneracy-consistent share
    raman_spinflip: float | None = 3.6e-4
    state_prep_error: float = 1.0e-2
    clock_rabi: float = TWO_PI * 3.3e-3  # rad/us
    clock_dephasing: float = 2.2e-5  # 1/us (0.022 per ms)

    def __post_init__(self):
        for name in (
            "tau_bright",
            "tau_dark",
            "ionization_a",
            "rydberg_detuning_sigma_mhz",
            "rydberg_dephasing_rate",
            "raman_scatter_g",
            "raman_leak_x",
            "clock_rabi",
            "clock_dephasing",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.raman_spinflip is not None and self.raman_spinflip < 0:
            raise ValueError("raman_spinflip must be non-negative")
        if not 0.0 <= self.state_prep_error <= 1.0:
            raise ValueError("state_prep_error must be a probability")
        _check_branching(self.branching)

    @property
    def raman_spinflip_rate(self) -> float:
        if self.raman_spinflip is not None:
            return self.raman_spinflip
        return self.raman_scatter_g / 3.0

    @property
    def rydberg_detuning_sigma(self) -> float:
        """Quasi-static detuning r.m.s. in rad/us."""
        return TWO_PI * self.rydberg_detuning_sigma_mhz

    def without(self, *sources) -> "NoiseConfig":
        """Copy with the named error sources switched off."""
        cfg = self
        for s in sources:
            cfg = replace(cfg, **_SOURCE_OFF[s])
        return cfg

    def only(self, *sources) -> "NoiseConfig":
        return self.without(*(s for s in _SOURCE_OFF if s not in sources))


# Free parameter (see noise module open questions); calibrated so the full
# budget lands near the reference totals (raw ~2%, loss-corrected ~0.25%).
DEPHASING_RATE_DEFAULT = 0.070  # 1/us


def reference_budget_config() -> NoiseConfig:
    """Reference gate-error configuration: measured lifetimes and ionization
    constant, plus Markovian Rydberg dephasing at the calibrated default rate
    (the drift model used for coherence fits is turned off here; the
    dephasing rate behind the reported budget is a free parameter)."""
    return NoiseConfig(
        rydberg_detuning_sigma_mhz=0.0,
        rydberg_dephasing_rate=DEPHASING_RATE_DEFAULT,
    )


_SOURCE_OFF = {
    "rydberg_decay": {"tau_bright": np.inf, "tau_dark": np.inf},
    "ionization": {"ionization_a": np.inf},
    "rydberg_dephasing": {
        "rydberg_detuning_sigma_mhz": 0.0,
        "rydberg_dephasing_rate": 0.0,
    },
    "raman_scattering": {"raman_scatter_g": 0.0, "raman_leak_x": 0.0,
                         "raman_spinflip": 0.0},
    "state_prep": {"state_prep_error": 0.0},
}

BUDGET_SOURCES = tuple(_SOURCE_OFF)


def rydberg_collapse_ops(config: NoiseConfig) -> list:
    """Decay out of r (bright split per branching table, dark to bucket)
    plus optional Markovian dephasing of the q1-r coherence."""
    if config.tau_bright <= 0 or config.tau_dark <= 0:
        raise ValueError("lifetimes must be positive")
    ops = []
    bright = 0.0 if np.isinf(config.tau_bright) else 1.0 / config.tau_bright
    dark = 0.0 if np.isinf(config.tau_dark) else 1.0 / config.tau_dark
    targets = {"g": G, "q1": Q1, "q0": Q0, "x": X}
    if bright > 0:
        for name, level in targets.items():
            frac = config.branching[name]
            if frac > 0:
                ops.append(CollapseOperator(bright * frac, lop(level, R)))
    if dark > 0:
        ops.append(CollapseOperator(dark, lop(B, R)))
    if config.rydberg_dephasing_rate > 0:
        # L = sqrt(2 gamma) |r><r| makes the q1-r coherence decay at gamma
        ops.append(CollapseOperator(2.0 * config.rydberg_dephasing_rate, lop(R, R)))
    return ops


def ionization_rate(omega_uv: float, a: float) -> float:
    """3P2 loss rate (1/us) under UV Rabi frequency ``omega_uv`` (rad/us).

    The constant ``a`` follows the convention tau_us = a / (omega/2pi)^2,
    i.e. the Rabi frequency enters in ordinary-frequency MHz units; with
    a = 610 and omega = 2pi x 6 rad/us the lifetime is 610/36 = 16.9 us.
    """
    if a <= 0:
        raise ValueError("ionization constant must be positive")
    if np.isinf(a):
        return 0.0
    return (omega_uv / TWO_PI) ** 2 / a


def ionization_collapse_ops(config: NoiseConfig, omega_uv: float) -> list:
    """q0 -> B and x -> B while the UV drive is on."""
    rate = ionization_rate(omega_uv, config.ionization_a)
    if rate == 0.0:
        return []
    return [
        CollapseOperator(rate, lop(B, Q0)),
        CollapseOperator(rate, lop(B, X)),
    ]


def raman_scatter_collapse_ops(config: NoiseConfig) -> list:
    """Off-resonant scattering during Raman drive, fed equally from both
    qubit states: leak to g (erasure convertible), to x (reads as q0), and
    incoherent return into each qubit state (spin flip / Rayleigh), which is
    what randomizes the qubit rather than just losing it."""
    ops = []
    targets = [
        (config.raman_scatter_g, (G,)),
        (config.raman_leak_x, (X,)),
        (config.raman_spinflip_rate, (Q0, Q1)),
    ]
    for rate, levels_to in targets:
        if rate <= 0:
            continue
        for dst in levels_to:
            ops.append(CollapseOperator(rate / 2, lop(dst, Q0)))
            ops.append(CollapseOperator(rate / 2, lop(dst, Q1)))
    return ops


def gate_collapse_ops(config: NoiseConfig, omega_uv: float) -> list:
    """Everything active during a Rydberg gate pulse."""
    return rydberg_collapse_ops(config) + ionization_collapse_ops(config, omega_uv)


def clock_rabi_curve(times, config: NoiseConfig) -> np.ndarray:
    """Damped Rabi oscillation model used for the clock pi-pulse estimate,
    P_q1(t) = 1/2 - 1/2 exp(-gamma t) cos(Omega t)."""
    t = np.asarray(times, dtype=float)
    return 0.5 - 0.5 * np.exp(-config.clock_dephasing * t) * np.cos(
        config.clock_rabi * t
    )


def clock_pi_pulse_error(config: NoiseConfig) -> float:
    """Preparation infidelity of a single resonant clock pi-pulse."""
    if config.clock_rabi == 0:
        return 1.0
    t_pi = np.pi / config.clock_rabi
    return float(1.0 - clock_rabi_curve(t_pi, config))


# --- plain-text key-value serialization ------------------------------------

_FIELD_KEYS = {
    "tau_bright_us": "tau_bright",
    "tau_dark_us": "tau_dark",
    "branch_g": ("branching", "g"),
    "branch_q1": ("branching", "q1"),
    "branch_q0": ("branching", "q0"),
    "branch_x": ("branching", "x"),
    "ionization_a": "ionization_a",
    "rydberg_detuning_sigma_MHz": "rydberg_detuning_sigma_mhz",
    "rydberg_dephasing_rate_per_us": "rydberg_dephasing_rate",
    "raman_scatter_g_per_us": "raman_scatter_g",
    "raman_leak_x_per_us": "raman_leak_x",
    "raman_spinflip_per_us": "raman_spinflip",
    "state_prep_error": "state_prep_error",
    "clock_rabi_MHz": None,  # converted
    "clock_dephasing_per_ms": None,  # converted
}


def noise_config_to_text(config: NoiseConfig) -> str:
    # a line left out would read back as the default, not as unset
    spinflip = math.nan if config.raman_spinflip is None \
        else config.raman_spinflip
    lines = [
        "# noise configuration; all fields optional",
        f"tau_bright_us = {config.tau_bright!r}",
        f"tau_dark_us = {config.tau_dark!r}",
        f"branch_g = {config.branching['g']!r}",
        f"branch_q1 = {config.branching['q1']!r}",
        f"branch_q0 = {config.branching['q0']!r}",
        f"branch_x = {config.branching['x']!r}",
        f"ionization_a = {config.ionization_a!r}",
        f"rydberg_detuning_sigma_MHz = {config.rydberg_detuning_sigma_mhz!r}",
        f"rydberg_dephasing_rate_per_us = {config.rydberg_dephasing_rate!r}",
        f"raman_scatter_g_per_us = {config.raman_scatter_g!r}",
        f"raman_leak_x_per_us = {config.raman_leak_x!r}",
        f"raman_spinflip_per_us = {spinflip!r}",
        f"state_prep_error = {config.state_prep_error!r}",
        f"clock_rabi_MHz = {config.clock_rabi / TWO_PI!r}",
        f"clock_dephasing_per_ms = {config.clock_dephasing * 1e3!r}",
    ]
    return "\n".join(lines) + "\n"


def read_key_values(text: str, keys) -> dict:
    """{key: float} of a ``key = value`` document with ``#`` comments; a line
    without ``=``, a key not in ``keys`` or a value that is not a number is
    rejected, naming the line."""
    kv = {}
    for lineno, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, sep, val = ln.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value', "
                             f"not {ln!r}")
        if key not in keys:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        try:
            kv[key] = float(val.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad number for {key!r}") from exc
    return kv


def noise_config_from_text(text: str) -> NoiseConfig:
    """Parse a key-value document; unknown keys are rejected. A
    ``raman_spinflip_per_us`` of nan leaves the rate unset (derived from
    ``raman_scatter_g``)."""
    kv = read_key_values(text, _FIELD_KEYS)
    kwargs = {}
    branching = dict(DEFAULT_BRANCHING)
    for key, val in kv.items():
        target = _FIELD_KEYS[key]
        if key == "clock_rabi_MHz":
            kwargs["clock_rabi"] = TWO_PI * val
        elif key == "clock_dephasing_per_ms":
            kwargs["clock_dephasing"] = val * 1e-3
        elif target == "raman_spinflip" and math.isnan(val):
            kwargs[target] = None
        elif isinstance(target, tuple):
            branching[target[1]] = val
        else:
            kwargs[target] = val
    if any(k.startswith("branch_") for k in kv):
        kwargs["branching"] = branching
    return NoiseConfig(**kwargs)
