"""Batch command-line front end: one subcommand per protocol.

Every run takes an INI config (key = value under a section named after the
subcommand, plus a [run] section), a mandatory seed, and writes a directory
containing the config snapshot, CSV data and a JSON summary. Identical
(config, seed) pairs produce byte-identical outputs.
"""

import argparse
import configparser
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import KERNEL_BACKEND, __version__
from .channels import channel_superoperator
from .levels import B, DIM, G, Q0, Q1, R, X, lop
from .noise import (
    noise_config_from_text,
    raman_scatter_collapse_ops,
    reference_budget_config,
    rydberg_collapse_ops,
)
from .states import QuantumState

PROTOCOLS = {}
# Each subcommand's config keys and their defaults, kept apart from
# PROTOCOLS so that a wrapped entry there still finds its declaration.
CONFIG_KEYS = {}


def protocol(name):
    """Register a subcommand. Its config keys are the parameters after
    ``ctx``, with their defaults: ``main`` rejects any other key in the
    section and a missing key without a default, parses each value like its
    default (see ``_value``), passes it by keyword and writes the returned
    dict as ``summary.json``. The default ``float`` declares an optional
    number, None when absent."""
    def wrap(fn):
        PROTOCOLS[name] = fn
        params = list(inspect.signature(fn).parameters.values())[1:]
        CONFIG_KEYS[name] = {p.name: p.default for p in params}
        return fn

    return wrap


class ConfigError(ValueError):
    pass


def _parse_config(path: Path, section: str):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    text = path.read_text() if path else ""
    if path:
        parser.read_string(text)
    for sec in parser.sections():
        if sec not in ("run", section):
            raise ConfigError(f"unknown config section [{sec}]")
    run = dict(parser["run"]) if parser.has_section("run") else {}
    proto = dict(parser[section]) if parser.has_section(section) else {}
    return run, proto, text


_RUN_KEYS = {"seed", "shots", "noise_config", "out"}


def _known(d, allowed, where):
    for k in d:
        if k not in allowed:
            raise ConfigError(f"unknown key {k!r} in [{where}]")


def _read_document(path, base_dir: Path, parse):
    """``parse`` of the file at ``path``, relative to ``base_dir`` unless
    absolute; a document ``parse`` refuses is a ConfigError naming it."""
    p = Path(path)
    if not p.is_absolute():
        p = base_dir / p
    try:
        return parse(p.read_text())
    except ValueError as exc:
        raise ConfigError(f"{p}: {exc}") from None


def _ints(s):
    return [int(x) for x in s.replace(",", " ").split()]


def _bool(s):
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


_KINDS = {bool: "a boolean", int: "an integer", float: "a number",
          tuple: "a list of integers"}


def _value(raw, default, key, section):
    """The config string ``raw`` of ``key`` in ``[section]`` (None when the
    key is absent) parsed like ``default``: a bool, int or float; a tuple
    of ints, given as a list; for ``float``, a number or None; or, for a
    None default or none at all, the raw string the subcommand converts. A
    malformed value, or an absent key without a default, raises ConfigError
    naming the section and the key (and the malformed value)."""
    required = default is inspect.Parameter.empty
    if raw is None:
        if required:
            raise ConfigError(f"missing key {key!r} in [{section}]")
        if default is float:
            return None
        return list(default) if isinstance(default, tuple) else default
    if default is None or required:
        return raw
    kind = default if default is float else type(default)
    try:
        return {bool: _bool, tuple: _ints}.get(kind, kind)(raw)
    except ValueError:
        raise ConfigError(f"malformed value for {key!r} in [{section}]: "
                          f"{raw!r} is not {_KINDS[kind]}") from None


def write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float) or isinstance(x, np.floating):
        return f"{float(x):.10g}"
    return str(x)


def _summary(path: Path, payload: dict):
    """Write strict JSON, which has no NaN or Infinity, naming a bad key."""
    def default(o):
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(type(o))

    for key, value in payload.items():
        try:
            json.dumps(value, default=default, allow_nan=False)
        except ValueError:
            raise ValueError(f"summary value {key!r} is not finite: "
                             f"{value!r}") from None
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=1, default=default) + "\n"
    )


# --- protocol implementations ----------------------------------------------


def _rabi_rows(h, ops, t_max, n, groups):
    """(t, population of each level group) from |q1> at n evenly spaced
    times in [0, t_max]: one CPTP-checked channel over the spacing, applied
    to each sample to give the next."""
    times = np.linspace(0.0, t_max, n)
    rho = QuantumState.pure([Q1]).rho.ravel()
    if n > 1:
        step = channel_superoperator(h, ops, times[1] - times[0])
    rows = []
    for k, t in enumerate(times):
        if k:
            rho = step @ rho
        d = rho[::DIM + 1].real
        rows.append((t,) + tuple(sum(d[lv] for lv in group) for group in groups))
    return rows


@protocol("rabi")
def run_rabi(ctx, rabi_mhz=0.017, t_max_us=float, n_points=41,
             noiseless=False):
    rabi = 2 * np.pi * rabi_mhz
    t_max = t_max_us if t_max_us is not None else 2.2 * np.pi / rabi * 2
    ops = [] if noiseless else raman_scatter_collapse_ops(ctx.noise)
    h = (rabi / 2) * (lop(Q0, Q1) + lop(Q1, Q0))
    rows = _rabi_rows(h, ops, t_max, n_points, [(Q0,), (Q1,), (G, X)])
    ctx.emit("rabi", ["t_us", "p_q0", "p_q1", "p_leak"], rows)
    return {"rabi_rad_per_us": rabi, "points": n_points,
            "p_q0_max": max(r[1] for r in rows)}


@protocol("rydberg-rabi")
def run_rydberg_rabi(ctx, rabi_mhz=6.0, t_max_us=0.5, n_points=51,
                     noiseless=False):
    rabi = 2 * np.pi * rabi_mhz
    ops = [] if noiseless else rydberg_collapse_ops(ctx.noise)
    h = (rabi / 2) * (lop(Q1, R) + lop(R, Q1))
    rows = _rabi_rows(h, ops, t_max_us, n_points, [(Q1,), (R,), (B,)])
    ctx.emit("rydberg_rabi", ["t_us", "p_q1", "p_r", "p_lost"], rows)
    return {"rabi_rad_per_us": rabi, "points": n_points}


@protocol("crb")
def run_crb_cmd(ctx, lengths=(2, 8, 16, 28, 40), n_sequences=40, erasure=True,
                injected_depolarizing=float):
    from .benchmarking.singleq import run_crb

    injected = injected_depolarizing is not None
    res = run_crb(
        lengths,
        n_sequences,
        ctx.shots,
        None if injected else ctx.noise,
        erasure=erasure and not injected,
        seed=ctx.seed,
        injected_depolarizing=injected_depolarizing,
    )
    raw = [[m, res.raw_survival[i], res.raw_sem[i]]
           for i, m in enumerate(res.lengths)]
    if res.corrected_fit is None:
        header = ["length", "raw_mean", "raw_sem", "n_shots",
                  "retained_fraction"]
        rows = [r + [ctx.shots, 1.0] for r in raw]
    else:
        header = ["length", "raw_mean", "raw_sem", "corrected_mean",
                  "corrected_sem", "n_shots", "retained_fraction"]
        rows = [r + [res.corrected_survival[i], res.corrected_sem[i],
                     ctx.shots, res.retained_fraction]
                for i, r in enumerate(raw)]
    ctx.emit("crb", header, rows)
    payload = {
        "f1q_raw": res.f1q_raw,
        "f1q_raw_err": res.f1q_raw_err,
        "decay_raw": res.raw_fit.fidelity,
        "amplitude_raw": res.raw_fit.amplitude,
        "raw_fit_covariance": res.raw_fit.covariance.tolist(),
    }
    if res.corrected_fit is not None:
        payload.update(
            f1q_corrected=res.f1q_corrected,
            f1q_corrected_err=res.f1q_corrected_err,
            retained_fraction=res.retained_fraction,
        )
    return payload


@protocol("ssb")
def run_ssb_cmd(ctx, n_cz=(2, 6, 10, 14), n_sequences=12, noiseless=False):
    from .benchmarking.twoq import GateExecutor, run_ssb
    from .czopt import default_profile
    from .rydberg import RydbergDrive

    noise = None if noiseless else ctx.noise
    executor = GateExecutor(default_profile(), RydbergDrive(), noise)
    res = run_ssb(n_cz, n_sequences, ctx.shots, seed=ctx.seed,
                  executor=executor)
    ctx.emit(
        "ssb",
        ["n_cz", "p11_raw", "sem_raw", "p11_erasure", "sem_erasure",
         "p11_loss", "sem_loss", "n_shots"],
        [
            (n, res.p11_raw[i], res.sem_raw[i], res.p11_erasure[i],
             res.sem_erasure[i], res.p11_loss[i], res.sem_loss[i], ctx.shots)
            for i, n in enumerate(res.n_cz)
        ],
    )
    return {
        "f2q_raw": res.fit_raw.fidelity,
        "f2q_raw_err": res.fit_raw.fidelity_err,
        "f2q_erasure": res.fit_erasure.fidelity,
        "f2q_erasure_err": res.fit_erasure.fidelity_err,
        "f2q_loss_excised": res.fit_loss.fidelity,
        "f2q_loss_excised_err": res.fit_loss.fidelity_err,
        "retention_loss": res.retention_loss,
        "fit_covariances": {
            "raw": res.fit_raw.covariance.tolist(),
            "erasure": res.fit_erasure.covariance.tolist(),
            "loss": res.fit_loss.covariance.tolist(),
        },
    }


@protocol("bell")
def run_bell_cmd(ctx, n_phases=16, noiseless=False):
    from .benchmarking.twoq import GateExecutor, bell_protocol
    from .czopt import default_profile
    from .rydberg import RydbergDrive

    noise = None if noiseless else ctx.noise
    phases = np.linspace(0, 2 * np.pi, n_phases, endpoint=False)
    executor = GateExecutor(default_profile(), RydbergDrive(), noise)
    results = bell_protocol(phases, ctx.shots, ctx.seed, executor=executor)
    ctx.emit(
        "bell_summary",
        ["variant", "p00", "p11", "contrast", "fidelity", "fidelity_err",
         "retention"],
        [
            (tag, r.p00, r.p11, r.contrast, r.fidelity, r.fidelity_err,
             r.retention)
            for tag, r in results.items()
        ],
    )
    return {
        "fidelity_raw": results["raw"].fidelity,
        "fidelity_excised": results["excised"].fidelity,
        "fidelity_raw_err": results["raw"].fidelity_err,
        "fidelity_excised_err": results["excised"].fidelity_err,
        "parity_phase_offset": results["excised"].phase_offset,
    }


@protocol("ramsey")
def run_ramsey_cmd(ctx, sigma_mhz=0.053, t_max_us=10.0, n_points=26,
                   mid_circuit_erasure=False):
    from .benchmarking.ramsey import ramsey_envelope_time, simulate_ramsey

    sigma = 2 * np.pi * sigma_mhz
    times = np.linspace(0.0, t_max_us, n_points)
    contrast = simulate_ramsey(sigma, times,
                               mid_circuit_erasure=mid_circuit_erasure)
    ctx.emit("ramsey", ["t_us", "contrast"], list(zip(times, contrast)))
    return {
        "sigma_rad_per_us": sigma,
        "t2_star_us": ramsey_envelope_time(sigma) if sigma > 0 else None,
        "mid_circuit_erasure": mid_circuit_erasure,
    }


@protocol("erasure-roc")
def run_roc_cmd(ctx, n_thresholds=60):
    from .readout import roc_sweep, shallow_trap_model

    model = shallow_trap_model()
    ths = np.linspace(-5, model.signal_mean + 15, n_thresholds)
    reports = roc_sweep(model, ths)
    ctx.emit(
        "roc",
        ["threshold", "tp", "fp", "fidelity"],
        [(r.threshold, r.true_positive, r.false_positive, r.fidelity)
         for r in reports],
    )
    best = max(reports, key=lambda r: r.fidelity)
    return {
        "signal_mean": model.signal_mean,
        "best_threshold": best.threshold,
        "best_fidelity": best.fidelity,
    }


@protocol("state-prep-curve")
def run_prep_cmd(ctx, eps_sp=float, imaging_survival=0.998, n_thresholds=60):
    from .readout import shallow_trap_model, state_prep_curve

    eps = eps_sp if eps_sp is not None else ctx.noise.state_prep_error
    model = shallow_trap_model()
    ths = np.linspace(-5, model.signal_mean + 15, n_thresholds)
    curve = state_prep_curve(eps, model, imaging_survival, ths)
    ctx.emit("state_prep", ["threshold", "apparent_fidelity"],
             [(t, c) for t, c in zip(ths, curve)])
    return {
        "eps_sp": eps,
        "imaging_survival": imaging_survival,
        "plateau": float(np.nanmax(curve)),
    }


@protocol("srd")
def run_srd_cmd(ctx, n_trials=100000):
    from .readout import SRDModel, srd_counts, srd_probabilities

    model = SRDModel()
    rng = np.random.default_rng(ctx.seed)
    rows = []
    labels = {Q0: "q0", Q1: "q1", X: "x", G: "g", B: "B"}
    for lv, name in labels.items():
        probs = srd_probabilities(lv, model)
        counts = srd_counts(lv, model, n_trials, rng)
        for outcome in ("detected-0", "detected-1", "loss"):
            rows.append((name, outcome, probs[outcome],
                         counts[outcome] / n_trials, n_trials))
    ctx.emit("srd",
             ["input", "outcome", "p_analytic", "p_empirical", "n_trials"],
             rows)
    return {
        "detected0_fidelity_q0": srd_probabilities(Q0, model)["detected-0"],
        "detected1_fidelity_q1": srd_probabilities(Q1, model)["detected-1"],
        "n_trials": n_trials,
    }


@protocol("lifetime-fit")
def run_lifetime_cmd(ctx, dataset=None):
    from .ratedyn import LifetimeDataset, fit_lifetimes, predicted_observables

    if dataset is not None:
        data = _read_document(dataset, ctx.base_dir, LifetimeDataset.from_csv)
    else:
        from .ratedyn import DecayModel

        data = LifetimeDataset.synthesize(
            DecayModel(110.0, 37.0, 0.4), np.linspace(2, 150, 15), 0.02,
            seed=ctx.seed,
        )
    fit = fit_lifetimes(data)
    p1m, p2m = predicted_observables(data.times, fit.model)
    ctx.emit(
        "lifetime_fit",
        ["T_us", "P1", "P1_err", "P1_model", "P2", "P2_err", "P2_model"],
        list(zip(data.times, data.p1, data.p1_err, p1m, data.p2, data.p2_err,
                 p2m)),
    )
    return {
        "tau_bright_us": fit.model.tau_bright,
        "tau_bright_err": fit.tau_bright_err,
        "tau_dark_us": fit.model.tau_dark,
        "tau_dark_err": fit.tau_dark_err,
        "amplitude": fit.model.amplitude,
        "converged": fit.converged,
        "at_bound": fit.at_bound,
    }


@protocol("error-budget")
def run_budget_cmd(ctx, n_cz=(2, 4, 6), n_sequences=32):
    from .budget import error_budget

    rep = error_budget(ctx.noise, n_cz_list=tuple(n_cz), n_seq=n_sequences,
                       seed=ctx.seed)
    ctx.emit(
        "budget",
        ["source", "raw_process", "raw_ssb", "corrected_process",
         "corrected_ssb"],
        [e.as_row() for e in list(rep.entries) + [rep.total]],
    )
    return {
        "raw_total": rep.raw_total,
        "corrected_total": rep.corrected_total,
        "additivity_defect": rep.additivity_defect(),
        "sources": list(rep.sources),
    }


@protocol("psd-infidelity")
def run_psd_cmd(ctx, psd_file, n_trajectories=40, already_uv=False):
    from .czopt import default_profile
    from .psd import FrequencyNoisePSD, mc_gate_infidelity, psd_to_uv
    from .rydberg import RydbergDrive

    psd = _read_document(psd_file, ctx.base_dir, FrequencyNoisePSD.from_text)
    if not already_uv:
        psd = psd_to_uv(psd)
    mean, err = mc_gate_infidelity(
        psd, default_profile(), RydbergDrive(), n_trajectories, ctx.seed
    )
    ctx.emit("psd_infidelity",
             ["n_trajectories", "infidelity", "std_error"],
             [(n_trajectories, mean, err)])
    return {
        "infidelity": mean,
        "std_error": err,
        "n_trajectories": n_trajectories,
        "psd_variance_hz2": psd.variance_hz2(),
    }


@protocol("rearrange")
def run_rearrange_cmd(ctx, n_trials=2000, loading_probability=0.5,
                      per_move_success=float,
                      target_sites=(0, 1, 2, 3, 4, 5, 6, 7)):
    from .assembly import (PER_MOVE_SUCCESS, pair_grid_geometry,
                           plan_rearrangement, replay_plan, simulate_assembly)

    geom = pair_grid_geometry()
    target = np.zeros(geom.n_sites, dtype=bool)
    target[target_sites] = True
    p_move = (per_move_success if per_move_success is not None
              else PER_MOVE_SUCCESS)
    prob, err = simulate_assembly(
        geom, target, loading_probability=loading_probability,
        per_move_success=p_move, n_trials=n_trials, seed=ctx.seed,
    )
    rng = np.random.default_rng(ctx.seed)
    occ = rng.random(geom.n_sites) < loading_probability
    plan = plan_rearrangement(occ, target, geom)
    final = replay_plan(plan, occ, geom)
    ctx.emit(
        "occupancy",
        ["site_id", "x_um", "y_um", "initial", "final", "target"],
        [
            (i, geom.sites[i][0], geom.sites[i][1], int(occ[i]),
             int(final[i]), int(target[i]))
            for i in range(geom.n_sites)
        ],
    )
    lines = []
    for k, m in enumerate(plan.moves):
        wps = " ".join(f"({x:.3f},{y:.3f})" for x, y in m.path)
        lines.append(f"{k} {m.source} {m.destination} {wps}")
    (ctx.out / "plan.txt").write_text("\n".join(lines) + "\n")
    return {
        "defect_free_probability": prob,
        "mc_error": err,
        "n_trials": n_trials,
        "example_plan_moves": len(plan),
        "example_unplaced": list(plan.unplaced_targets),
    }


@protocol("equalize")
def run_equalize_cmd(ctx, n_sites=32, initial_spread=0.05, iterations=8,
                     gain=0.7):
    from .assembly import equalize_depths

    rng = np.random.default_rng(ctx.seed)
    gains = 1.0 + initial_spread * rng.standard_normal(n_sites)
    res = equalize_depths(gains, iterations=iterations, gain=gain,
                          seed=ctx.seed + 1)
    ctx.emit("equalize", ["iteration", "relative_spread"],
             list(enumerate(res.spread_history)))
    return {
        "final_spread": res.final_spread,
        "iterations": iterations,
        "converged": res.converged,
    }


# --- driver -----------------------------------------------------------------


class RunContext:
    def emit(self, stem, header, rows):
        rows = [list(r) for r in rows]
        write_csv(self.out / f"{stem}.csv", header, rows)
        if self.fmt == "json":
            payload = [
                {k: (v.item() if isinstance(v, (np.floating, np.integer))
                     else v) for k, v in zip(header, r)}
                for r in rows
            ]
            (self.out / f"{stem}.json").write_text(
                json.dumps(payload, sort_keys=True, indent=1) + "\n"
            )

    def __init__(self, args, run, base_dir):
        self.base_dir = base_dir
        seed = args.seed if args.seed is not None else run.get("seed")
        if seed is None:
            raise ConfigError("seed is mandatory (config [run] or --seed)")
        self.seed = _value(seed, 0, "seed", "run")
        self.shots = _value(run.get("shots"), 200, "shots", "run")
        if self.shots < 0:
            raise ConfigError(f"'shots' in [run] must be non-negative, got "
                              f"{self.shots}")
        self.fmt = args.format
        self.noise = (_read_document(run["noise_config"], base_dir,
                                     noise_config_from_text)
                      if "noise_config" in run else reference_budget_config())
        out_root = Path(args.out if args.out else run.get("out", "runs"))
        self.out = out_root
        self.out.mkdir(parents=True, exist_ok=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fsqsim",
        description="Simulation and benchmarking suite for a fine-structure "
        "qubit tweezer experiment",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in PROTOCOLS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    try:
        run, proto, snapshot = (
            _parse_config(args.config, args.command)
            if args.config
            else ({}, {}, "")
        )
        _known(run, _RUN_KEYS, "run")
        keys = CONFIG_KEYS[args.command]
        _known(proto, keys, args.command)
        params = {k: _value(proto.get(k), d, k, args.command)
                  for k, d in keys.items()}
        base = args.config.parent if args.config else Path.cwd()
        ctx = RunContext(args, run, base)
        (ctx.out / "config_snapshot.ini").write_text(
            snapshot or f"# no config file; seed={ctx.seed}\n"
        )
        summary = PROTOCOLS[args.command](ctx, **params)
        _summary(ctx.out / "summary.json",
                 {"protocol": args.command, **summary})
    except (ConfigError, configparser.Error, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failures and everything else
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"fsqsim {args.command}: wrote {ctx.out} (kernel: {KERNEL_BACKEND})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
