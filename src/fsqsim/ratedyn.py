"""Three-level (r / d / b) decay rate equations: closed-form populations,
the two measured observables with the 1/9 re-excitation term, joint lifetime
fitting, and branching-ratio extraction.

Rates out of r: 1/tau_d into the dark manifold (no fluorescence signal) and
1/tau_b into bright states; d-to-b transfer is folded into the latter, so the
model is strictly three-state with the closed-form solution used throughout.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .fitting import FitError, gauss_newton
from .noise import check_finite, read_columns

REEXCITATION_WEIGHT = 1.0 / 9.0
_COLUMNS = ("T_us", "P1", "P1_err", "P2", "P2_err")  # the CSV header


@dataclass(frozen=True)
class DecayModel:
    tau_bright: float  # us
    tau_dark: float  # us
    amplitude: float = 0.4  # free-flight normalization

    def __post_init__(self):
        if self.tau_bright <= 0 or self.tau_dark <= 0:
            raise ValueError("lifetimes must be positive")
        if not 0.0 < self.amplitude <= 1.0:
            raise ValueError("amplitude must be in (0, 1]")

    @property
    def total_rate(self) -> float:
        return 1.0 / self.tau_bright + 1.0 / self.tau_dark


def analytic_populations(t, model: DecayModel):
    """(P_r, P_d, P_b) at time t (us); P_r + P_d + P_b = amplitude exactly."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be non-negative")
    a = model.amplitude
    decay = np.exp(-t * model.total_rate)
    p_r = a * decay
    split = model.tau_bright + model.tau_dark
    p_d = a * (model.tau_bright / split) * (1.0 - decay)
    p_b = a * (model.tau_dark / split) * (1.0 - decay)
    return p_r, p_d, p_b


def predicted_observables(t, model: DecayModel):
    """(P1, P2): bright-state accumulation and depleted-return signals.

    P1(t) = P_b(t); P2(t) = A - P_d(t) - P_b(t)/9, the 1/9 accounting for
    re-excitation of returned population by the closing pulse and its
    subsequent removal.
    """
    _, p_d, p_b = analytic_populations(t, model)
    p1 = p_b
    p2 = model.amplitude - p_d - REEXCITATION_WEIGHT * p_b
    return p1, p2


def rate_equation_rhs(y, model: DecayModel):
    """Right-hand side of the rate equations for numeric cross-checks."""
    p_r = y[0]
    return np.array(
        [
            -model.total_rate * p_r,
            p_r / model.tau_dark,
            p_r / model.tau_bright,
        ]
    )


@dataclass(frozen=True)
class LifetimeDataset:
    times: np.ndarray = field(repr=False)
    p1: np.ndarray = field(repr=False)
    p1_err: np.ndarray = field(repr=False)
    p2: np.ndarray = field(repr=False)
    p2_err: np.ndarray = field(repr=False)

    def __post_init__(self):
        names = [f.name for f in fields(self)]
        arrays = [np.asarray(getattr(self, n), dtype=float) for n in names]
        n = len(arrays[0])
        if any(len(a) != n for a in arrays):
            raise ValueError("dataset columns must have equal length")
        for column, arr in zip(_COLUMNS, arrays):
            check_finite(column, arr)
        if np.any(arrays[2] <= 0) or np.any(arrays[4] <= 0):
            raise ValueError("uncertainties must be positive")
        for name, arr in zip(names, arrays):
            object.__setattr__(self, name, arr)

    def to_csv(self) -> str:
        lines = [",".join(_COLUMNS)]
        for row in zip(self.times, self.p1, self.p1_err, self.p2, self.p2_err):
            lines.append(",".join(f"{x:.8g}" for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "LifetimeDataset":
        return cls(*read_columns(text, _COLUMNS, sep=","))

    @classmethod
    def synthesize(
        cls, model: DecayModel, times, rel_noise: float, seed: int
    ) -> "LifetimeDataset":
        """Noisy draws from the analytic model, for fit studies."""
        rng = np.random.default_rng(seed)
        times = np.asarray(times, dtype=float)
        p1, p2 = predicted_observables(times, model)
        scale = model.amplitude * rel_noise
        return cls(
            times=times,
            p1=p1 + rng.normal(0, scale, len(times)),
            p1_err=np.full(len(times), scale),
            p2=p2 + rng.normal(0, scale, len(times)),
            p2_err=np.full(len(times), scale),
        )


@dataclass(frozen=True)
class LifetimeFit:
    model: DecayModel
    covariance: np.ndarray = field(repr=False)
    residual_norm: float
    converged: bool
    at_bound: bool

    @property
    def tau_bright_err(self) -> float:
        return float(np.sqrt(self.covariance[0, 0]))

    @property
    def tau_dark_err(self) -> float:
        return float(np.sqrt(self.covariance[1, 1]))


_BOUNDS = (np.array([1.0, 1.0, 1e-3]), np.array([1e4, 1e4, 1.0]))


def fit_lifetimes(
    data: LifetimeDataset, observables=("p1", "p2"), fix_amplitude=None
) -> LifetimeFit:
    """Joint weighted least squares over (P1, P2); parameters
    (tau_bright, tau_dark, amplitude) with Gauss-Newton covariance.

    ``observables`` restricts the fit (e.g. ("p1",) for the single-signal
    variant used in the information comparison). P1 alone cannot identify
    all three parameters, so that variant requires ``fix_amplitude``.
    """
    if len(set(np.ravel(data.times).tolist())) < 4:
        raise FitError("need at least 4 distinct times for the joint fit")
    use_p1 = "p1" in observables
    use_p2 = "p2" in observables
    if not (use_p1 or use_p2):
        raise ValueError("need at least one observable")
    if use_p1 and not use_p2 and fix_amplitude is None:
        raise FitError(
            "P1 alone determines only two parameter combinations; "
            "pass fix_amplitude for the single-observable fit"
        )
    blocks_y = ([data.p1] if use_p1 else []) + ([data.p2] if use_p2 else [])
    blocks_s = ([data.p1_err] if use_p1 else []) + ([data.p2_err] if use_p2 else [])
    x = np.concatenate([data.times] * len(blocks_y))
    y = np.concatenate(blocks_y)
    sigma = np.concatenate(blocks_s)

    def model(p, _x):
        amp = fix_amplitude if fix_amplitude is not None else p[2]
        m = DecayModel(tau_bright=p[0], tau_dark=p[1], amplitude=amp)
        p1, p2 = predicted_observables(data.times, m)
        parts = ([p1] if use_p1 else []) + ([p2] if use_p2 else [])
        return np.concatenate(parts)

    # moment-based start: asymptotes fix the tau ratio, early slope the sum
    a0 = max(np.max(data.p2), np.max(data.p1), 1e-2)
    p1_inf = np.clip(np.max(data.p1), 1e-3 * a0, 0.95 * a0)
    ratio = p1_inf / a0  # tau_d / (tau_b + tau_d)
    p0 = [100.0 * (1 - ratio) / max(ratio, 0.05),
          100.0 * ratio / max(1 - ratio, 0.05), a0]
    p0 = np.clip(p0, _BOUNDS[0] * 1.5, _BOUNDS[1] * 0.5)
    lo, hi = _BOUNDS
    if fix_amplitude is not None:
        p0 = p0[:2]
        lo, hi = lo[:2], hi[:2]
    params, cov, rn, conv = gauss_newton(model, p0, x, y, sigma, bounds=(lo, hi))
    at_bound = bool(
        np.any(np.isclose(params, lo)) or np.any(np.isclose(params, hi))
    )
    if fix_amplitude is not None:
        full_cov = np.zeros((3, 3))
        full_cov[:2, :2] = cov
        cov = full_cov
        params = np.append(params, fix_amplitude)
    return LifetimeFit(
        model=DecayModel(*params),
        covariance=cov,
        residual_norm=rn,
        converged=conv,
        at_bound=at_bound,
    )


def branching_ratios(
    gamma_b_total: float,
    gamma_after_461: float,
    gamma_after_496_461: float,
    tau_bright: float | None = None,
    tau_dark: float | None = None,
) -> dict:
    """Fractions over {dark, 3P0, 3P1-path, 3P2} from nested bright rates.

    The pushout variants successively remove the 1S0-bound share (461) and
    the 3P2 share (496+461), so the bright split follows from rate ratios.
    The dark share needs the lifetime pair; without it only the bright split
    is resolved and dark is reported as 0.
    """
    rates = (gamma_b_total, gamma_after_461, gamma_after_496_461)
    if any(r < 0 for r in rates):
        raise ValueError("rates must be non-negative")
    if not gamma_b_total >= gamma_after_461 >= gamma_after_496_461:
        raise ValueError("nested rates must satisfy total >= 461 >= 496+461")
    if gamma_b_total == 0:
        raise ValueError("total bright rate must be positive")
    f_g = (gamma_b_total - gamma_after_461) / gamma_b_total
    f_p2 = (gamma_after_461 - gamma_after_496_461) / gamma_b_total
    f_p0 = gamma_after_496_461 / gamma_b_total
    if tau_bright is not None and tau_dark is not None:
        dark = tau_bright / (tau_bright + tau_dark)
        bright = 1.0 - dark
    else:
        dark = 0.0
        bright = 1.0
    out = {
        "dark": dark,
        "3P0": bright * f_p0,
        "3P1_path": bright * f_g,
        "3P2": bright * f_p2,
    }
    assert abs(sum(out.values()) - 1.0) < 1e-9
    return out
