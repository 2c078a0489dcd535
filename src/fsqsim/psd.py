"""Laser frequency noise: PSD handling, trajectory synthesis, and the Monte
Carlo gate-infidelity estimate.

PSDs are one-sided frequency-noise spectra S_nu(f) in Hz^2/Hz on a grid in
Hz. Synthesized trajectories are instantaneous detunings in rad/us sampled on
a uniform grid in us.
"""

from dataclasses import dataclass, field

import numpy as np

from .noise import check_finite, gaussian_quadrature, read_columns
from .rydberg import (
    CZPulseProfile,
    RydbergDrive,
    computational_amplitudes,
    cz_average_fidelity,
    sector_unitaries,
)

TWO_PI = 2 * np.pi
QUASI_STATIC_NODES = 15  # Gauss-Hermite nodes of the quasi-static average
_COLUMNS = ("frequency_Hz", "psd_Hz^2_per_Hz")  # of the text document


@dataclass(frozen=True)
class FrequencyNoisePSD:
    """One-sided frequency-noise PSD with an optional SHG transfer function."""

    frequency_hz: np.ndarray = field(repr=False)
    psd_hz2_per_hz: np.ndarray = field(repr=False)
    shg_transfer: object = None  # callable f_hz -> |H(f)|, defaults to 1

    def __post_init__(self):
        f = np.asarray(self.frequency_hz, dtype=float)
        s = np.asarray(self.psd_hz2_per_hz, dtype=float)
        if f.ndim != 1 or f.shape != s.shape:
            raise ValueError("frequency and PSD arrays must be 1-d and equal length")
        for name, values in zip(_COLUMNS, (f, s)):
            check_finite(name, values)
        if len(f) < 2 or np.any(np.diff(f) <= 0):
            raise ValueError("frequency grid must be strictly increasing")
        if np.any(s < 0):
            raise ValueError("PSD values must be non-negative")
        object.__setattr__(self, "frequency_hz", f)
        object.__setattr__(self, "psd_hz2_per_hz", s)

    def interpolate(self, f_hz) -> np.ndarray:
        """Linear interpolation, zero outside the tabulated band."""
        return np.interp(
            f_hz, self.frequency_hz, self.psd_hz2_per_hz, left=0.0, right=0.0
        )

    def variance_hz2(self) -> float:
        return float(np.trapezoid(self.psd_hz2_per_hz, self.frequency_hz))

    def to_text(self) -> str:
        lines = ["# " + "  ".join(_COLUMNS)]
        for f, s in zip(self.frequency_hz, self.psd_hz2_per_hz):
            lines.append(f"{float(f)!r} {float(s)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FrequencyNoisePSD":
        return cls(*read_columns(text, _COLUMNS))


def psd_to_uv(psd: FrequencyNoisePSD) -> FrequencyNoisePSD:
    """Red-light PSD to UV: PSD_UV(f) = 4 * PSD_red(f) * |H_SHG(f)|^2."""
    if psd.shg_transfer is None:
        h2 = np.ones_like(psd.frequency_hz)
    else:
        h2 = np.asarray(
            [psd.shg_transfer(f) ** 2 for f in psd.frequency_hz], dtype=float
        )
    return FrequencyNoisePSD(psd.frequency_hz, 4.0 * psd.psd_hz2_per_hz * h2)


@dataclass(frozen=True)
class NoiseTrajectory:
    """Sampled instantaneous detuning, piecewise constant between samples;
    ``detuning_rad_per_us`` may be a ``(members, n)`` stack."""

    times_us: np.ndarray = field(repr=False)
    detuning_rad_per_us: np.ndarray = field(repr=False)
    seed: int = 0

    @property
    def dt(self) -> float:
        return float(self.times_us[1] - self.times_us[0])


def sample_detuning_trajectory(
    psd: FrequencyNoisePSD,
    dt: float,
    duration: float,
    seed: int,
    allow_truncation: bool = False,
) -> NoiseTrajectory:
    """Stationary Gaussian detuning trajectory with the target one-sided PSD.

    Standard spectral synthesis: independent complex Gaussian rFFT bins with
    E|X_k|^2 = S(f_k) N f_s / 2, inverse-transformed to N real samples.
    """
    n = int(round(duration / dt))
    if n < 2:
        raise ValueError("need at least two samples (duration/dt >= 2)")
    fs_hz = 1e6 / dt
    f_nyq = fs_hz / 2
    support = psd.frequency_hz[psd.psd_hz2_per_hz > 0]
    if support.size and support.max() > f_nyq * (1 + 1e-12) and not allow_truncation:
        raise ValueError(
            f"dt={dt} us does not resolve the PSD band "
            f"(Nyquist {f_nyq:.3g} Hz < {support.max():.3g} Hz); "
            "reduce dt or pass allow_truncation=True"
        )
    rng = np.random.default_rng(seed)
    freqs = np.fft.rfftfreq(n, d=dt * 1e-6)
    s = psd.interpolate(freqs)
    scale = np.sqrt(s * n * fs_hz / 2.0)
    re = rng.standard_normal(len(freqs))
    im = rng.standard_normal(len(freqs))
    x = scale * (re + 1j * im) / np.sqrt(2.0)
    x[0] = scale[0] * re[0]  # DC and Nyquist bins are real
    if n % 2 == 0:
        x[-1] = scale[-1] * re[-1]
    nu_hz = np.fft.irfft(x, n=n)
    detuning = TWO_PI * nu_hz * 1e-6  # rad/us
    times = np.arange(n) * dt
    return NoiseTrajectory(times_us=times, detuning_rad_per_us=detuning, seed=seed)


def gate_fidelity_with_detuning(
    profile: CZPulseProfile,
    drive: RydbergDrive,
    trajectory: NoiseTrajectory | float | np.ndarray,
) -> float | np.ndarray:
    """Noiseless-gate fidelity with a detuning trajectory added to the
    Rydberg level; the single-qubit phase stays at the calibrated profile
    value, as it would in an experiment.

    ``trajectory`` is a :class:`NoiseTrajectory`, a constant detuning in
    rad/us, or an array of constants. A stacked trajectory or an array is
    integrated at once and gives one fidelity per member; a single
    trajectory or constant gives a float."""
    if isinstance(trajectory, NoiseTrajectory):
        edges = np.append(
            trajectory.times_us, trajectory.times_us[-1] + trajectory.dt
        )
        values = trajectory.detuning_rad_per_us
    else:  # a constant is a one-piece trajectory
        edges, values = [0.0], np.asarray(trajectory, dtype=float)[..., None]
    u2, u4 = sector_unitaries(
        profile, drive, detuning_edges=edges, detuning_values=values,
    )
    a01, a11 = computational_amplitudes(u2, u4)
    f, _ = cz_average_fidelity(a01, a11, phi_sq=profile.phi_sq)
    return f


def quasi_static_infidelity(
    profile: CZPulseProfile,
    drive: RydbergDrive,
    sigma_rad_per_us: float,
) -> float:
    """Gauss-Hermite average of the gate infidelity over a Gaussian detuning
    ensemble; the deterministic reference for slow drift."""
    deltas, weights = gaussian_quadrature(sigma_rad_per_us, QUASI_STATIC_NODES)
    fids = gate_fidelity_with_detuning(profile, drive, deltas)
    return float(weights @ (1.0 - fids))


def mc_gate_infidelity(
    psd: FrequencyNoisePSD,
    profile: CZPulseProfile,
    drive: RydbergDrive,
    n_traj: int,
    seed: int,
):
    """Monte Carlo infidelity under sampled laser-noise trajectories.

    Returns (mean_infidelity, standard_error). Deterministic per seed:
    trajectory k has the child seed ``seed * 100003 + k``, and all
    trajectories are integrated together as one stack. The sample step is
    at most t_gate / 16 and puts the Nyquist frequency at twice the PSD band.
    """
    if n_traj < 10:
        raise ValueError("need at least 10 trajectories")
    support = psd.frequency_hz[psd.psd_hz2_per_hz > 0]
    f_max = support.max() if support.size else psd.frequency_hz[-1]
    dt = min(profile.t_gate / 16.0, 1e6 / (2.0 * f_max) / 2.0)
    trajs = [
        sample_detuning_trajectory(psd, dt, profile.t_gate, seed=seed * 100003 + k)
        for k in range(n_traj)
    ]
    stack = NoiseTrajectory(
        trajs[0].times_us, np.stack([t.detuning_rad_per_us for t in trajs]), seed
    )
    infs = 1.0 - gate_fidelity_with_detuning(profile, drive, stack)
    return float(np.mean(infs)), float(np.std(infs, ddof=1) / np.sqrt(n_traj))
