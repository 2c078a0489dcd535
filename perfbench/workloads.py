"""The benchmark's workloads and the checks made on their outputs.

A workload is a list of fsqsim subcommands, each run at a fixed config with
the benchmark's seed. Every check compares a subcommand's output with a
computation made apart from the program, a property of the method, or a
value the source paper reports. A check returns the list of its failures.

A check on a sampled quantity must not fail a correct run on any seed,
or the share of failed operations would change from seed to seed. Where a
3-sigma allowance would fail a few percent of correct runs, the allowance
is 5 sigma: the SRD table (15 rows, rare outcomes) gets an exact two-sided
binomial test at the 5-sigma tail ALPHA, and the assembly probability,
whose Monte Carlo mean sits at 0.9505(14) rather than 0.955, gets 5 MC
standard errors.
"""

import configparser
import csv
import json
import math
from pathlib import Path

import numpy as np

ALPHA = math.erfc(5 / math.sqrt(2))  # two-sided tail of a 5-sigma deviation

WORKLOADS = {
    "cz-channel": [
        ("bell", "configs/bell.ini"),
    ],
    "small-problems": [
        ("psd-infidelity", "configs/psd.ini"),
        ("rydberg-rabi", "configs/rydberg_rabi.ini"),
        ("ramsey", "configs/ramsey.ini"),
        ("rearrange", "configs/rearrange.ini"),
    ],
    "readout": [
        ("erasure-roc", "configs/erasure_roc.ini"),
        ("srd", "configs/srd.ini"),
        ("crb", "perfbench/configs/crb_raw.ini"),
    ],
}


def config_section(root: Path, config: str, section: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string((root / config).read_text())
    return dict(parser[section]) if parser.has_section(section) else {}


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text())


def _rows(path: Path) -> list:
    with path.open() as f:
        return list(csv.DictReader(f))


def _within(name, value, centre, allowance, fails):
    if not abs(value - centre) <= allowance:
        fails.append(f"{name} = {value:.6g}, expected {centre} +- "
                     f"{allowance:.3g}")


# --- cz-channel -------------------------------------------------------------


def check_bell(out, cfg, seed, config):
    """Bell fidelities near the paper's 0.935 raw / 0.983 loss-excised."""
    s = _summary(out)
    fails = []
    _within("raw Bell fidelity", s["fidelity_raw"], 0.935,
            0.009 + 2 * s["fidelity_raw_err"], fails)
    _within("excised Bell fidelity", s["fidelity_excised"], 0.983,
            0.008 + 2 * s["fidelity_excised_err"], fails)
    if not s["fidelity_excised"] > s["fidelity_raw"]:
        fails.append("loss excision did not raise the Bell fidelity")
    for row in _rows(out / "bell_summary.csv"):
        if not 0.0 < float(row["retention"]) <= 1.0:
            fails.append(f"{row['variant']} retention {row['retention']} "
                         "outside (0, 1]")
    return fails


# --- small-problems ---------------------------------------------------------


def _sector_amplitude(h_const, coupling, n_rydberg, phase, segments):
    """<0|U|0> of i dpsi/dt = H(t) psi, solved with scipy's DOP853.

    H(t) = h_const - delta_k * n_rydberg + e^{i phase(t)} C + h.c. on each
    piecewise-constant detuning segment (t0, t1, delta_k)."""
    from scipy.integrate import solve_ivp

    psi = np.zeros(len(h_const), dtype=complex)
    psi[0] = 1.0
    for t0, t1, delta in segments:
        h_seg = h_const - delta * np.diag(n_rydberg)

        def rhs(t, y):
            e = np.exp(1j * phase(t))
            h = h_seg + e * coupling + np.conj(e) * coupling.conj().T
            return -1j * (h @ y)

        sol = solve_ivp(rhs, (t0, t1), psi, method="DOP853", rtol=1e-11,
                        atol=1e-13)
        psi = sol.y[:, -1]
    return psi[0]


def independent_gate_fidelity(profile, drive, times, detuning):
    """Average CZ fidelity (at the profile's single-qubit phase) under a
    piecewise-constant Rydberg detuning, from the two-atom Hamiltonian."""
    theta, t_gate = profile.theta, profile.t_gate

    def phase(t):
        return (theta[0] * math.cos(2 * math.pi * t / t_gate - theta[1])
                + theta[2] * t + theta[3])

    om, det, v = drive.rabi_frequency / 2, drive.detuning, drive.interaction
    # one atom: [q1, r]; two atoms: [q1q1, q1r, rq1, rr]
    c2 = np.array([[0, om], [0, 0]], dtype=complex)
    h2 = np.diag([0.0, -det]).astype(complex)
    c4 = np.zeros((4, 4), dtype=complex)
    c4[0, 1] = c4[0, 2] = c4[1, 3] = c4[2, 3] = om
    h4 = np.diag([0.0, -det, -det, v - 2 * det]).astype(complex)
    dt = times[1] - times[0]
    segments = [(t, min(t + dt, t_gate), d) for t, d in zip(times, detuning)]
    a01 = _sector_amplitude(h2, c2, [0, 1], phase, segments)
    a11 = _sector_amplitude(h4, c4, [0, 1, 1, 2], phase, segments)
    phi = profile.phi_sq
    m = np.diag([1.0, a01 * np.exp(-1j * phi), a01 * np.exp(-1j * phi),
                 a11 * np.exp(-1j * (2 * phi - math.pi))])
    return float((abs(np.trace(m)) ** 2 + np.trace(m.conj().T @ m).real) / 20)


def check_psd(out, cfg, seed, config):
    """Positive MC infidelity resolved by its standard error, and one
    sampled trajectory's gate fidelity recomputed apart from the engine."""
    from fsqsim.czopt import default_profile
    from fsqsim.psd import (FrequencyNoisePSD, gate_fidelity_with_detuning,
                            sample_detuning_trajectory)
    from fsqsim.rydberg import RydbergDrive

    s = _summary(out)
    fails = []
    if not 0.0 < s["std_error"] < s["infidelity"]:
        fails.append(f"infidelity {s['infidelity']:.3g} with std error "
                     f"{s['std_error']:.3g} is not resolved")
    profile, drive = default_profile(), RydbergDrive()
    psd = FrequencyNoisePSD.from_text(
        (config.parent / cfg["psd_file"]).read_text())
    traj = sample_detuning_trajectory(psd, profile.t_gate / 16, profile.t_gate,
                                      seed=seed, allow_truncation=True)
    engine = float(gate_fidelity_with_detuning(profile, drive, traj))
    ref = independent_gate_fidelity(profile, drive, traj.times_us,
                                    traj.detuning_rad_per_us)
    if not abs(engine - ref) <= 1e-8:  # the rtol the MC asks of the engine
        fails.append(f"trajectory gate fidelity {engine!r} vs solve_ivp "
                     f"{ref!r}")
    return fails


def check_rydberg_rabi(out, cfg, seed, config):
    """Populations follow sin^2(Omega t / 2) up to the decay and dephasing
    of the noise config in use."""
    from fsqsim.budget import reference_budget_config

    noise = reference_budget_config()
    rate = (1 / noise.tau_bright + 1 / noise.tau_dark
            + 2 * noise.rydberg_dephasing_rate)
    omega = 2 * math.pi * float(cfg.get("rabi_mhz", 6.0))
    fails = []
    for row in _rows(out / "rydberg_rabi.csv"):
        t = float(row["t_us"])
        p1, pr, lost = (float(row[k]) for k in ("p_q1", "p_r", "p_lost"))
        allowed = 1 - math.exp(-rate * t) + 1e-9
        ideal = math.sin(omega * t / 2) ** 2
        if abs(pr - ideal) > allowed or abs(p1 - (1 - ideal)) > allowed:
            fails.append(f"t = {t}: p_r {pr:.5f}, p_q1 {p1:.5f} vs ideal "
                         f"{ideal:.5f} beyond {allowed:.3g}")
        if not (lost >= -1e-12 and p1 + pr + lost <= 1 + 1e-9):
            fails.append(f"t = {t}: populations do not sum to <= 1")
    return fails


def check_ramsey(out, cfg, seed, config):
    """Contrast follows exp(-sigma^2 t^2 / 2); T2* = sqrt(2)/sigma = 4.3(2)."""
    sigma = 2 * math.pi * float(cfg.get("sigma_mhz", 0.053))
    rows = _rows(out / "ramsey.csv")
    t = np.array([float(r["t_us"]) for r in rows])
    c = np.array([float(r["contrast"]) for r in rows])
    fails = []
    rms = float(np.sqrt(np.mean((c - np.exp(-(sigma * t) ** 2 / 2)) ** 2)))
    if not rms <= 0.02:
        fails.append(f"contrast RMS deviation {rms:.4f} > 0.02")
    t2 = _summary(out)["t2_star_us"]
    _within("T2*", t2, math.sqrt(2) / sigma, 1e-9, fails)
    _within("T2* against the paper", t2, 4.3, 0.2, fails)
    return fails


def check_rearrange(out, cfg, seed, config):
    """Defect-free assembly probability near the paper's 0.955."""
    s = _summary(out)
    fails = []
    _within("defect-free probability", s["defect_free_probability"], 0.955,
            max(0.01, 5 * s["mc_error"]), fails)
    return fails


# --- readout ----------------------------------------------------------------

# Shallow-trap imaging model: background mean, read noise, and the early-
# departure and bright-background shares of the uniform photon shoulder.
BACKGROUND, READ_NOISE, EARLY, BRIGHT = 1.0, 2.0, 0.2, 0.05
CALIBRATION_TARGET = 0.96


def count_survival(threshold, mean, shoulder, signal):
    """P(count >= threshold): Poisson(mean) photons mixed with a share
    ``shoulder`` of Poisson(U * signal), U ~ Uniform(0, 1), plus Gaussian
    read noise. Direct Poisson summation; the shoulder by adaptive quad."""
    from scipy.integrate import quad
    from scipy.stats import norm, poisson

    k = np.arange(int(signal + 20 * math.sqrt(signal) + 60))
    sf = norm.sf(threshold, loc=k, scale=READ_NOISE)
    direct = float(np.sum(poisson.pmf(k, mean) * sf))
    tail, _ = quad(lambda u: float(np.sum(poisson.pmf(k, u * signal) * sf)),
                   0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    return (1 - shoulder) * direct + shoulder * tail


def _fidelity(threshold, signal):
    tp = count_survival(threshold, signal, EARLY, signal)
    fp = count_survival(threshold, BACKGROUND, BRIGHT, signal)
    return 1 - ((1 - tp) + fp) / 2


def check_roc(out, cfg, seed, config):
    """TP/FP recomputed at several thresholds; the best grid fidelity sits
    within grid resolution of the calibration target."""
    s = _summary(out)
    signal = s["signal_mean"]
    rows = _rows(out / "roc.csv")
    fails = []
    for i in np.linspace(0, len(rows) - 1, 6).astype(int):
        th = float(rows[i]["threshold"])
        tp = count_survival(th, signal, EARLY, signal)
        fp = count_survival(th, BACKGROUND, BRIGHT, signal)
        for name, got, ref in (("TP", rows[i]["tp"], tp),
                               ("FP", rows[i]["fp"], fp)):
            if not abs(float(got) - ref) <= 1e-8:
                fails.append(f"{name} at threshold {th:.4g}: {got} vs {ref!r}")
    step = float(rows[1]["threshold"]) - float(rows[0]["threshold"])
    best, th = s["best_fidelity"], s["best_threshold"]
    here = _fidelity(th, signal)
    resolution = max(abs(here - _fidelity(th + d, signal))
                     for d in (-step, step))
    if not -1e-4 <= CALIBRATION_TARGET - best <= resolution:
        fails.append(f"best fidelity {best:.6f} not within grid resolution "
                     f"{resolution:.2g} of {CALIBRATION_TARGET}")
    return fails


def check_srd(out, cfg, seed, config):
    """Empirical outcome frequencies match the analytic channel (exact
    binomial test), with the paper's P(0|q0) > 0.993, P(1|q1) > 0.998."""
    from scipy.stats import binom

    fails = []
    for row in _rows(out / "srd.csv"):
        n = int(row["n_trials"])
        p = float(row["p_analytic"])
        count = round(float(row["p_empirical"]) * n)
        tail = min(binom.cdf(count, n, p), binom.sf(count - 1, n, p))
        if not tail >= ALPHA / 2:
            fails.append(f"{row['input']} -> {row['outcome']}: {count}/{n} vs "
                         f"p = {p:.3g} (tail {tail:.2g})")
    s = _summary(out)
    if not s["detected0_fidelity_q0"] > 0.993:
        fails.append(f"P(0|q0) = {s['detected0_fidelity_q0']:.5f} <= 0.993")
    if not s["detected1_fidelity_q1"] > 0.998:
        fails.append(f"P(1|q1) = {s['detected1_fidelity_q1']:.5f} <= 0.998")
    return fails


def check_crb(out, cfg, seed, config):
    """Raw single-qubit Clifford fidelity near the paper's 0.992."""
    s = _summary(out)
    fails = []
    _within("raw F1q", s["f1q_raw"], 0.992, 1e-3 + s["f1q_raw_err"], fails)
    return fails


CHECKS = {
    "bell": check_bell,
    "psd-infidelity": check_psd,
    "rydberg-rabi": check_rydberg_rabi,
    "ramsey": check_ramsey,
    "rearrange": check_rearrange,
    "erasure-roc": check_roc,
    "srd": check_srd,
    "crb": check_crb,
}
