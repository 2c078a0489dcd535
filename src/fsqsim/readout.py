"""Photon-count models, threshold classification, erasure excision, and the
state-resolved detection channel.

Counts follow a Gaussian-smeared Poisson: photon number ~ Poisson(mean),
convolved with Gaussian camera read noise after exact bias subtraction, so
reported counts are continuous and can be negative.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fitting import brentq
from .levels import B, G, Q0, Q1, X

DETECTED_0 = "detected-0"
DETECTED_1 = "detected-1"
LOSS = "loss"

# The erasure sandwich's target operating point: leakage captured and
# valid-data cost.
CAPTURED_TARGET = 0.91
COST_TARGET = 0.07
THRESHOLD_XTOL = 2e-12  # absolute tolerance on a density crossing (counts)
_SQRT_2 = math.sqrt(2)
_SQRT_2PI = math.sqrt(2 * math.pi)


def _poisson_pmf(k, mu):
    """Poisson pmf exp(k log mu - log k! - mu) of the integer array ``k``,
    broadcast against ``mu``, with 0 log mu = 0 and log k! from
    ``math.lgamma``."""
    log_fact = np.array([math.lgamma(x + 1.0) for x in k.ravel().tolist()])
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 at mu = 0
        k_log_mu = np.where(k == 0, 0.0, k * np.log(mu))
    return np.exp(k_log_mu - log_fact.reshape(k.shape) - mu)


@lru_cache(maxsize=1)
def _legendre_rule():
    """64-node Gauss-Legendre rule on [-1, 1] for the shoulder integral.

    Built on first use (about 2 ms), not at import: modules that import
    this one only for the SRD channel then do not load numpy.polynomial.
    """
    return np.polynomial.legendre.leggauss(64)


@dataclass(frozen=True)
class PhotonCountModel:
    """Per-site count distributions for empty and occupied sites.

    Occupied sites additionally carry an early-departure component: fast
    imaging is destructive, so a fraction of atoms leaves partway through the
    exposure and scatters a uniformly truncated photon number. This low-count
    shoulder is what lets a 0.96-fidelity classifier sit at a strongly
    TP-biased operating point.
    """

    signal_mean: float
    background_mean: float = 1.0
    read_noise: float = 2.0
    early_departure_fraction: float = 0.2
    background_bright_fraction: float = 0.05

    def __post_init__(self):
        if self.signal_mean <= self.background_mean:
            raise ValueError("signal mean must exceed background mean")
        if self.read_noise <= 0:
            raise ValueError("read noise must be positive")
        for name in ("early_departure_fraction", "background_bright_fraction"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")

    def _kmax(self) -> int:
        lam = self.signal_mean
        return int(lam + 12 * math.sqrt(lam) + 25)

    def _shoulder(self, k: np.ndarray) -> np.ndarray:
        """Uniformly truncated signal: photon mean U*lam, U ~ Uniform(0, 1)."""
        nodes, weights = _legendre_rule()
        means = 0.5 * self.signal_mean * (nodes + 1.0)
        w = 0.5 * weights
        return (w[:, None] * _poisson_pmf(k[None, :], means[:, None])).sum(axis=0)

    def _poisson_mixture(self, occupied: bool):
        """(k, weight_k): Poisson mixture of photon numbers for one image.

        Occupied sites mix in an early-departure shoulder (the destructive
        image lets the atom leave mid-exposure); empty sites mix in the same
        truncated-signal shape at a small rate for stray or recaptured atoms.
        """
        k = np.arange(self._kmax() + 1)
        if occupied:
            q = self.early_departure_fraction
            pk = (1.0 - q) * _poisson_pmf(k, self.signal_mean)
        else:
            q = self.background_bright_fraction
            pk = (1.0 - q) * _poisson_pmf(k, self.background_mean)
        if q > 0:
            pk = pk + q * self._shoulder(k)
        return k, pk

    @cached_property
    def _mixtures(self) -> dict:
        """``_poisson_mixture`` for empty (False) and occupied (True) sites,
        built once per model; the model is frozen, so they never go stale."""
        return {occ: self._poisson_mixture(occ) for occ in (False, True)}

    def pdf(self, counts, occupied: bool) -> np.ndarray:
        k, pk = self._mixtures[bool(occupied)]
        c = np.atleast_1d(np.asarray(counts, dtype=float))
        s = self.read_noise
        z = (c[:, None] - k[None, :]) / s
        out = (pk[None, :] * (np.exp(-z**2 / 2.0) / _SQRT_2PI / s)).sum(axis=1)
        return out if np.ndim(counts) else float(out[0])

    def _read_noise_tail(self, threshold) -> np.ndarray:
        """P(k + read noise >= t): one row per threshold t, one column per
        photon number k. Both mixtures share the k axis, so one tail serves
        the occupied and the empty survival function. Each entry is
        0.5 erfc(z / sqrt 2), z = (t - k) / read_noise, from ``math.erfc``."""
        k = self._mixtures[True][0]
        th = np.atleast_1d(np.asarray(threshold, dtype=float))
        z = (th[:, None] - k[None, :]) / self.read_noise
        x = (z / _SQRT_2).ravel().tolist()
        erfc = np.fromiter(map(math.erfc, x), dtype=float, count=len(x))
        return 0.5 * erfc.reshape(z.shape)

    def _survival(self, tail: np.ndarray, occupied: bool) -> np.ndarray:
        return (self._mixtures[bool(occupied)][1][None, :] * tail).sum(axis=1)

    def survival_function(self, threshold, occupied: bool):
        """P(count >= threshold)."""
        out = self._survival(self._read_noise_tail(threshold), occupied)
        return out if np.ndim(threshold) else float(out[0])

    def sample(self, occupied: bool, rng: np.random.Generator) -> float:
        shoulder = (
            self.early_departure_fraction
            if occupied
            else self.background_bright_fraction
        )
        lam = self.signal_mean if occupied else self.background_mean
        if rng.random() < shoulder:
            lam = self.signal_mean * rng.random()
        k = rng.poisson(lam)
        return float(k + rng.normal(0.0, self.read_noise))

    def detection_rates(self, threshold):
        """(TP, FP): ``survival_function`` of an occupied and of an empty
        site, from one read-noise tail (elementwise for an array of
        thresholds)."""
        tail = self._read_noise_tail(threshold)
        tp = self._survival(tail, occupied=True)
        fp = self._survival(tail, occupied=False)
        return (tp, fp) if np.ndim(threshold) else (float(tp[0]), float(fp[0]))

    def classification_fidelity(self, threshold):
        """Equal-prior average accuracy: 1 - (FN + FP)/2 (elementwise for an
        array of thresholds)."""
        tp, fp = self.detection_rates(threshold)
        return 1.0 - ((1.0 - tp) + fp) / 2.0

    def optimal_threshold(self):
        """(threshold, fidelity) maximizing the classification fidelity.

        dF/dt = (pdf(t, empty) - pdf(t, occupied)) / 2, so a maximum sits
        where the empty density falls below the occupied one. Each downward
        sign change of that difference on a 400-point grid brackets one
        crossing, solved with ``brentq``; of several, the one of highest
        fidelity is kept.
        """

        def density_gap(t):
            return self.pdf(t, False) - self.pdf(t, True)

        lo = self.background_mean - 5 * self.read_noise
        hi = self.signal_mean + 5 * math.sqrt(self.signal_mean)
        grid = np.linspace(lo, hi, 400)
        gap = density_gap(grid)
        down = np.flatnonzero((gap[:-1] > 0) & (gap[1:] <= 0))
        if down.size == 0:
            raise ValueError(
                f"the empty and occupied count densities never cross downward "
                f"on [{lo}, {hi}] (background mean {self.background_mean}, "
                f"signal mean {self.signal_mean})"
            )
        ts = np.array([brentq(density_gap, grid[i], grid[i + 1],
                              xtol=THRESHOLD_XTOL) for i in down])
        fids = self.classification_fidelity(ts)
        i = int(np.argmax(fids))
        return float(ts[i]), float(fids[i])

    @classmethod
    def calibrated(
        cls,
        fidelity: float,
        early_departure_fraction: float = 0.2,
        background_bright_fraction: float = 0.05,
    ) -> "PhotonCountModel":
        """Solve for the signal mean whose optimal-threshold fidelity matches,
        at the default background mean and read noise."""
        if not 0.5 < fidelity < 1.0:
            raise ValueError("target fidelity must be in (0.5, 1)")

        def model(signal):
            return cls(
                signal,
                early_departure_fraction=early_departure_fraction,
                background_bright_fraction=background_bright_fraction,
            )

        def gap(signal):
            return model(signal).optimal_threshold()[1] - fidelity

        lo, hi = cls.background_mean + 0.5, cls.background_mean + 2.0
        while gap(hi) < 0:
            hi *= 2.0
            if hi > 1e5:
                raise RuntimeError("calibration failed to bracket the target")
        return model(brentq(gap, lo, hi, xtol=1e-4))


def shallow_trap_model() -> PhotonCountModel:
    """Erasure-conversion imaging in shallow traps (0.96 classification)."""
    return PhotonCountModel.calibrated(0.96)


def deep_trap_model() -> PhotonCountModel:
    """State-resolved fast imaging in deep traps (0.9931 classification)."""
    return PhotonCountModel.calibrated(
        0.9931,
        early_departure_fraction=0.02,
        background_bright_fraction=0.0,
    )


@dataclass(frozen=True)
class ClassifierReport:
    threshold: float
    true_positive: float
    false_positive: float
    fidelity: float

    def __post_init__(self):
        for v in (self.true_positive, self.false_positive, self.fidelity):
            if not -1e-12 <= v <= 1 + 1e-12:
                raise ValueError("probabilities must lie in [0, 1]")


def roc_sweep(model: PhotonCountModel, thresholds) -> list:
    """TP/FP/fidelity at each threshold; thresholds must be sorted."""
    th = np.asarray(thresholds, dtype=float)
    if np.any(np.diff(th) < 0):
        raise ValueError("thresholds must be sorted ascending")
    tps, fps = model.detection_rates(th)
    return [
        ClassifierReport(
            threshold=float(t),
            true_positive=float(tp),
            false_positive=float(fp),
            fidelity=1.0 - ((1.0 - tp) + fp) / 2.0,
        )
        for t, tp, fp in zip(th, tps, fps)
    ]


@lru_cache(maxsize=1)
def erasure_operating_point():
    """(TP, per-image FP) of the shallow-trap model at the threshold chosen
    to reproduce the conversion operating point; cached, as building it
    calibrates the shallow-trap model (about 60 ms)."""
    model = shallow_trap_model()
    return model.detection_rates(operating_threshold(model))


def sandwich_stats(model: PhotonCountModel, threshold: float):
    """(leakage captured, valid cost) of the two-image erasure sandwich.

    Mid-circuit leakage is visible only to the closing image (capture = TP);
    a valid shot is discarded when either image fires (cost = 1-(1-FP)^2).
    """
    tp, fp = model.detection_rates(threshold)
    return float(tp), float(1.0 - (1.0 - fp) ** 2)


def operating_threshold(model: PhotonCountModel) -> float:
    """Threshold whose sandwich operating point (leakage captured, valid
    cost) is closest in max-norm to (CAPTURED_TARGET, COST_TARGET); this
    biases the classifier toward capturing leakage at the price of
    discarding data."""
    grid = np.linspace(
        model.background_mean - 5 * model.read_noise,
        model.signal_mean + 5 * math.sqrt(model.signal_mean),
        800,
    )
    tps, fps = model.detection_rates(grid)
    cost = 1.0 - (1.0 - fps) ** 2
    miss = np.maximum(np.abs(tps - CAPTURED_TARGET), np.abs(cost - COST_TARGET))
    return float(grid[int(np.argmin(miss))])


def erasure_excise(shots, threshold: float):
    """Drop shots whose erasure image(s) clear the threshold.

    ``shots`` is a sequence of (leaked: bool, counts) where counts is a
    single image count or a per-image sequence (a shot is excised when any
    image fires). Returns (retained_shots, stats) where stats reports the
    ground-truth leakage capture and the valid-data cost.
    """

    def fired(counts):
        if np.ndim(counts) == 0:
            return counts >= threshold
        return any(c >= threshold for c in counts)

    retained = [s for s in shots if not fired(s[1])]
    n = len(shots)
    n_leak = sum(1 for s in shots if s[0])
    n_valid = n - n_leak
    excised_leak = sum(1 for s in shots if s[0] and fired(s[1]))
    excised_valid = sum(1 for s in shots if not s[0] and fired(s[1]))
    stats = {
        "n_shots": n,
        "retained_fraction": len(retained) / n if n else 1.0,
        "excised_fraction": 1.0 - (len(retained) / n if n else 1.0),
        "leakage_excised_fraction": excised_leak / n_leak if n_leak else 0.0,
        "valid_discarded_fraction": excised_valid / n_valid if n_valid else 0.0,
    }
    return retained, stats


def state_prep_curve(
    eps_sp: float, model: PhotonCountModel, imaging_survival: float, thresholds
) -> np.ndarray:
    """Apparent state-preparation fidelity vs erasure threshold.

    A preparation error leaves the atom in g, so its erasure image draws from
    the occupied distribution; valid shots draw from the empty one. Excising
    image counts >= threshold removes errors at rate TP and valid data at
    rate FP; survivors are scaled by the imaging ceiling.
    """
    th = np.asarray(thresholds, dtype=float)
    tp, fp = model.detection_rates(th)
    kept_valid = (1.0 - eps_sp) * (1.0 - fp)
    kept_error = eps_sp * (1.0 - tp)
    total = kept_valid + kept_error
    out = np.full_like(th, np.nan, dtype=float)
    ok = total > 1e-12
    out[ok] = imaging_survival * kept_valid[ok] / total[ok]
    return out


SRD_REPUMP_CYCLES = 2  # removal cycles of the transferred q0 population


@dataclass(frozen=True)
class SRDModel:
    """State-resolved detection parameters (all probabilities)."""

    depump_leakage: float = 3.5e-4  # q0 left behind in q1 after repump
    fast_removal: float = 0.9992  # per-cycle removal of transferred q0
    fast_classification: float = 0.9935
    fast_false_positive: float = 2.0e-4
    slow_detection: float = 0.9990  # survival+classification of the slow image
    slow_false_positive: float = 1.0e-4

    def __post_init__(self):
        for name in (
            "depump_leakage",
            "fast_removal",
            "fast_classification",
            "fast_false_positive",
            "slow_detection",
            "slow_false_positive",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability")


def srd_probabilities(true_state: int, model: SRDModel) -> dict:
    """Analytic outcome distribution of the detection channel."""
    residual = (1.0 - model.fast_removal) ** SRD_REPUMP_CYCLES
    if true_state in (Q0, X, G):
        leak = model.depump_leakage if true_state in (Q0, X) else 0.0
        transferred = 1.0 - leak
        p0 = transferred * (1.0 - residual) * model.fast_classification
        p1 = leak * model.slow_detection + transferred * residual * model.slow_detection
        return {DETECTED_0: p0, DETECTED_1: p1, LOSS: 1.0 - p0 - p1}
    if true_state == Q1:
        p0 = model.fast_false_positive
        p1 = (1.0 - p0) * model.slow_detection
        return {DETECTED_0: p0, DETECTED_1: p1, LOSS: 1.0 - p0 - p1}
    if true_state == B:
        p0 = model.fast_false_positive
        p1 = (1.0 - p0) * model.slow_false_positive
        return {DETECTED_0: p0, DETECTED_1: p1, LOSS: 1.0 - p0 - p1}
    raise ValueError(f"unsupported input state {true_state}")


def srd_detect(true_state: int, model: SRDModel, rng: np.random.Generator) -> str:
    probs = srd_probabilities(true_state, model)
    u = rng.random()
    if u < probs[DETECTED_0]:
        return DETECTED_0
    if u < probs[DETECTED_0] + probs[DETECTED_1]:
        return DETECTED_1
    return LOSS


def srd_counts(
    true_state: int, model: SRDModel, n: int, rng: np.random.Generator
) -> dict:
    """Outcome tally of ``n`` detection shots of one input state.

    Draws the same uniforms, in the same order, as ``n`` calls of
    ``srd_detect`` with the same comparisons, so the counts are identical.
    """
    probs = srd_probabilities(true_state, model)
    u = rng.random(n)
    n0 = int(np.count_nonzero(u < probs[DETECTED_0]))
    n01 = int(np.count_nonzero(u < probs[DETECTED_0] + probs[DETECTED_1]))
    return {DETECTED_0: n0, DETECTED_1: n01 - n0, LOSS: n - n01}
