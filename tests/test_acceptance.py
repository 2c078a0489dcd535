"""Acceptance suite: one test per quantitative criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here, not calibrated at runtime; reference values and
windows are hard numbers in the assertions.
"""

import time

import numpy as np

SESSION_T0 = time.time()


def _report(num, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"criterion {num:02d} {tag} - {description}: {detail}")
    assert passed, f"criterion {num}: {description} ({detail})"


# -- 1: noiseless time-optimal CZ ---------------------------------------------


def test_criterion_01_noiseless_cz(drive, cz_profile):
    from fsqsim.czopt import make_fidelity_objective, optimize_cz
    from fsqsim.rydberg import CZPulseProfile

    t0 = time.time()
    rng = np.random.default_rng(1)
    pert = 1 + 0.1 * rng.uniform(-1, 1, size=4)
    start = CZPulseProfile(
        theta=(cz_profile.theta[0] * pert[0], cz_profile.theta[1] * pert[1],
               cz_profile.theta[2] * pert[2], 0.0),
        t_gate=cz_profile.t_gate * pert[3],
    )
    res = optimize_cz(start, drive, make_fidelity_objective(drive),
                      max_iterations=50)
    elapsed = time.time() - t0
    f = res.objective_value
    _report(1, "noiseless CZ optimization reaches 0.999 in under 60 s",
            f >= 0.999 and elapsed < 60.0,
            f"F={f:.6f}, {elapsed:.1f}s")


# -- 2: rate equations ---------------------------------------------------------


def test_criterion_02_rate_equations():
    from fsqsim.ratedyn import (DecayModel, LifetimeDataset,
                                analytic_populations, fit_lifetimes,
                                rate_equation_rhs)
    from oracles import dopri5

    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        model = DecayModel(rng.uniform(20, 400), rng.uniform(5, 200),
                           rng.uniform(0.1, 1.0))
        t_end = rng.uniform(10, 300)
        y = dopri5(
            lambda t, y: rate_equation_rhs(y.real, model).astype(complex),
            np.array([model.amplitude, 0, 0], dtype=complex),
            0.0, t_end, 1e-10, 1e-13,
        )
        worst = max(worst, np.max(np.abs(
            y.real - np.array(analytic_populations(t_end, model))
        )))

    truth = DecayModel(110.0, 37.0, 0.4)
    times = np.linspace(2, 150, 15)
    hit_b = hit_d = 0
    n_regen = 200
    for seed in range(n_regen):
        data = LifetimeDataset.synthesize(truth, times, 0.02, seed=seed)
        fit = fit_lifetimes(data)
        hit_b += abs(fit.model.tau_bright - 110.0) <= 8.0
        hit_d += abs(fit.model.tau_dark - 37.0) <= 2.0
    cov_b, cov_d = hit_b / n_regen, hit_d / n_regen
    _report(2, "rate equations: analytic vs ODE 1e-8; 110(8)/37(2) coverage",
            worst < 1e-8 and cov_b >= 0.68 and cov_d >= 0.68,
            f"ode_err={worst:.1e}, coverage tau_b={cov_b:.2f} tau_d={cov_d:.2f}")


# -- 3: CRB --------------------------------------------------------------------


def test_criterion_03_crb(reference_config):
    from fsqsim.benchmarking.singleq import run_crb

    res_inj = run_crb([2, 20, 50, 100, 160], n_seq=200, shots=200, noise=None,
                      injected_depolarizing=0.007, seed=11)
    ok_inj = abs(res_inj.f1q_raw - 0.993) <= 0.002

    res = run_crb([2, 8, 16, 28, 40], n_seq=50, shots=200, noise=reference_config,
                  erasure=True, seed=3)
    ok_raw = abs(res.f1q_raw - 0.992) <= 1e-3 + res.f1q_raw_err
    ok_cor = abs(res.f1q_corrected - 0.993) <= 1e-3 + res.f1q_corrected_err
    _report(3, "CRB: injected 0.007 -> 0.993(2); calibrated 0.992/0.993",
            ok_inj and ok_raw and ok_cor,
            f"injected={res_inj.f1q_raw:.4f}, raw={res.f1q_raw:.4f}, "
            f"corrected={res.f1q_corrected:.4f}")


# -- 4: SSB --------------------------------------------------------------------


def test_criterion_04_ssb(budget_report):
    from fsqsim.benchmarking.twoq import fit_ssb

    rng = np.random.default_rng(23)
    n = np.arange(2, 31, 4)
    hits = 0
    for _ in range(10):
        p = 0.97 * 0.9945**n
        y = rng.binomial(10_000, p) / 10_000
        sigma = np.sqrt(y * (1 - y) / 10_000)
        fit = fit_ssb(zip(n, y, sigma))
        hits += abs(fit.fidelity - 0.9945) <= 0.003
    f_raw = 1.0 - budget_report.raw_total
    f_loss = 1.0 - budget_report.corrected_total
    ok = hits == 10 and 0.972 <= f_raw <= 0.982 and 0.990 <= f_loss <= 0.998
    _report(4, "SSB: synthetic 0.9945(3); budget run raw/loss-excised windows",
            ok,
            f"synthetic hits {hits}/10, F_raw={f_raw:.4f}, F_loss={f_loss:.4f}")


# -- 5: Bell -------------------------------------------------------------------


def test_criterion_05_bell(noiseless_executor, reference_executor):
    from fsqsim.benchmarking.twoq import (IDEAL_READOUT, _bell_state_vector,
                                         _joint_outcomes, bell_protocol)

    phases = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    noiseless = bell_protocol(phases, shots=4000, seed=2,
                              executor=noiseless_executor)["raw"]
    ok_noiseless = noiseless.fidelity > 1 - 3.0 / np.sqrt(4000)

    bell = _bell_state_vector(noiseless_executor)
    dense = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    parities = []
    for phi in dense:
        v = noiseless_executor.global_pulse(phi) @ bell
        m = _joint_outcomes(noiseless_executor.populations(v),
                            IDEAL_READOUT)
        parities.append(m["00"] + m["11"] - m["01"] - m["10"])
    parities = np.array(parities)
    ok_period = np.max(np.abs(parities[:16] - parities[16:])) < 1e-6

    res = bell_protocol(phases, 2000, seed=5, executor=reference_executor)
    raw, exc = res["raw"], res["excised"]
    ok_raw = abs(raw.fidelity - 0.935) <= 0.009 + 2 * raw.fidelity_err
    ok_exc = abs(exc.fidelity - 0.983) <= 0.008 + 2 * exc.fidelity_err
    _report(5, "Bell: noiseless ~1, parity period pi, 0.983/0.935 pair",
            ok_noiseless and ok_period and ok_raw and ok_exc,
            f"noiseless={noiseless.fidelity:.4f}, raw={raw.fidelity:.4f}, "
            f"excised={exc.fidelity:.4f}")


# -- 6: error budget -----------------------------------------------------------


def test_criterion_06_error_budget(budget_report):
    rep = budget_report
    ok_raw = 0.012 <= rep.raw_total <= 0.025
    ok_cor = 0.0008 <= rep.corrected_total <= 0.0032
    ok_agree = True
    for e in list(rep.entries) + [rep.total]:
        for a, b in ((e.raw_process, e.raw_ssb),
                     (e.corrected_process, e.corrected_ssb)):
            # 10% relative with a 3e-4 absolute floor, see decisions ledger
            if abs(a - b) > max(0.10 * max(a, b), 3e-4):
                ok_agree = False
    _report(6, "budget: raw in [1.2,2.5]%, corrected in [0.08,0.32]%, "
               "routes agree",
            ok_raw and ok_cor and ok_agree,
            f"raw={rep.raw_total*100:.2f}%, corrected="
            f"{rep.corrected_total*100:.3f}%")


# -- 7: erasure conversion ------------------------------------------------------


def test_criterion_07_erasure(shallow_model):
    from fsqsim.readout import (operating_threshold, sandwich_stats,
                                state_prep_curve)

    th = operating_threshold(shallow_model)
    captured, cost = sandwich_stats(shallow_model, th)
    ok_point = abs(captured - 0.91) <= 0.03 and abs(cost - 0.07) <= 0.03

    ths = np.linspace(-6, shallow_model.signal_mean + 12, 80)
    curve = state_prep_curve(0.01, shallow_model, 0.998, ths)
    plateau = np.nanmax(curve)
    ok_curve = plateau > 0.996 and plateau <= 0.998 + 1e-12
    _report(7, "erasure: (~91% captured, ~7% cost) +-3pp; plateau windows",
            ok_point and ok_curve,
            f"captured={captured:.3f}, cost={cost:.3f}, plateau={plateau:.4f}")


# -- 8: Ramsey -----------------------------------------------------------------


def test_criterion_08_ramsey():
    from fsqsim.benchmarking.ramsey import (ramsey_envelope_time,
                                           simulate_ramsey)

    sigma = 2 * np.pi * 0.053
    times = np.linspace(0.05, 9.0, 25)
    contrast = simulate_ramsey(sigma, times)
    expected = np.exp(-(sigma**2) * times**2 / 2)
    rms = np.sqrt(np.mean((contrast - expected) ** 2))
    t2 = ramsey_envelope_time(sigma)
    blocked = simulate_ramsey(sigma, times, mid_circuit_erasure=True)
    delta = np.max(np.abs(blocked - contrast))
    ok = rms < 0.02 and abs(t2 - 4.3) <= 0.2 and delta < 0.01
    _report(8, "Ramsey: envelope 2% RMS, T2*=4.3(2) us, erasure block <0.01",
            ok, f"rms={rms:.4f}, T2*={t2:.2f} us, block delta={delta:.2e}")


# -- 9: SRD channel -------------------------------------------------------------


def test_criterion_09_srd():
    from fsqsim.levels import B, G, Q0, Q1, X
    from fsqsim.readout import SRDModel, srd_detect, srd_probabilities

    model = SRDModel()
    p0 = srd_probabilities(Q0, model)["detected-0"]
    p1 = srd_probabilities(Q1, model)["detected-1"]
    ok_fid = p0 > 0.993 and p1 > 0.998

    rng = np.random.default_rng(7)
    n = 100_000
    ok_freq = True
    for state in (Q0, Q1, X, B, G):
        probs = srd_probabilities(state, model)
        counts = {"detected-0": 0, "detected-1": 0, "loss": 0}
        for _ in range(n):
            counts[srd_detect(state, model, rng)] += 1
        for outcome, p in probs.items():
            sigma = np.sqrt(max(p * (1 - p), 1e-12) * n)
            if abs(counts[outcome] - p * n) > 3 * sigma + 3:
                ok_freq = False
    _report(9, "SRD: frequencies within 3 sigma; fidelities >0.993/>0.998",
            ok_fid and ok_freq, f"P(0|q0)={p0:.4f}, P(1|q1)={p1:.4f}")


# -- 10: array assembly ----------------------------------------------------------


def test_criterion_10_assembly():
    from fsqsim.assembly import (affine_fit, equalize_depths,
                                 pair_grid_geometry, plan_rearrangement,
                                 replay_plan, simulate_assembly)

    rng = np.random.default_rng(1)
    th = np.deg2rad(17.0)
    lin = 1.3 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    lin = lin @ np.array([[1.0, 0.2], [0.0, 1.0]])
    src = rng.uniform(-10, 10, size=(9, 2))
    dst = src @ lin.T + np.array([3.7, -1.2])
    m = affine_fit(src, dst)
    affine_err = max(np.max(np.abs(m.linear - lin)),
                     np.max(np.abs(m.translation - [3.7, -1.2])))

    geom = pair_grid_geometry()
    target = np.zeros(32, dtype=bool)
    target[:8] = True
    replay_ok = True
    for _ in range(50):
        occ = rng.random(32) < 0.5
        plan = plan_rearrangement(occ, target, geom)
        final = replay_plan(plan, occ, geom)
        if occ.sum() >= 8 and not np.all(final[target]):
            replay_ok = False

    prob, err = simulate_assembly(geom, target, n_trials=6000, seed=11)
    ok_rate = abs(prob - 0.955) <= 0.01

    gains = 1 + 0.05 * np.random.default_rng(5).standard_normal(32)
    eq = equalize_depths(gains, iterations=8, seed=2)
    ok_eq = eq.converged and eq.final_spread <= 0.003
    _report(10, "assembly: affine 1e-10, replay, 0.955 rate, 0.3% spread",
            affine_err < 1e-10 and replay_ok and ok_rate and ok_eq,
            f"affine={affine_err:.1e}, P={prob:.3f}+-{err:.3f}, "
            f"spread={eq.final_spread*100:.3f}%")


# -- 11: runtime -----------------------------------------------------------------


def test_criterion_11_runtime_budget():
    elapsed = time.time() - SESSION_T0
    _report(11, "suite runtime below 15 minutes, no network",
            elapsed < 15 * 60, f"{elapsed:.0f}s elapsed in this session")
