"""Per-source CZ error budget via two routes: process fidelity of the
simulated gate channel, and a simulated SSB decay with that channel.

Both routes run on the pair-basis channel (built once per source). The
loss-corrected variant conditions on population remaining in the valid
computational levels {q0, q1, x}, with x read out as q0.
"""

from dataclasses import dataclass

import numpy as np

from .benchmarking.twoq import KEPT_LEVELS, GateExecutor, run_ssb
from .channels import conjugation_on_pairs
from .czopt import default_profile
from .levels import DIM, Q0, Q1, X
# The reference config lives in noise, so the CLI builds it without importing
# this module; both names stay importable from here.
from .noise import (  # noqa: F401
    BUDGET_SOURCES,
    DEPHASING_RATE_DEFAULT,
    NoiseConfig,
    reference_budget_config,
)
from .rydberg import RydbergDrive

# sources that act during a Rydberg gate (raman_scattering and state_prep
# belong to the single-qubit benchmarks, not the CZ budget)
CZ_SOURCES = ("rydberg_decay", "ionization", "rydberg_dephasing")
DEPHASING_NODES = 5  # Gauss-Hermite nodes of each budget channel's detuning average


@dataclass(frozen=True)
class BudgetEntry:
    name: str
    raw_process: float
    raw_ssb: float
    corrected_process: float
    corrected_ssb: float

    def as_row(self):
        return (
            self.name,
            self.raw_process,
            self.raw_ssb,
            self.corrected_process,
            self.corrected_ssb,
        )


@dataclass(frozen=True)
class BudgetReport:
    entries: tuple
    total: BudgetEntry
    sources: tuple

    @property
    def raw_total(self) -> float:
        return self.total.raw_ssb

    @property
    def corrected_total(self) -> float:
        return self.total.corrected_ssb

    def additivity_defect(self) -> float:
        """Relative gap between the combined run and the sum of sources."""
        s = sum(e.raw_ssb for e in self.entries)
        return abs(self.total.raw_ssb - s) / max(self.total.raw_ssb, 1e-12)


def _qubit_indices():
    return [a * DIM + b for a in (Q0, Q1) for b in (Q0, Q1)]


def channel_retention(executor: GateExecutor) -> float:
    """Input-averaged probability of staying in the valid computational
    levels {q0, q1, x} over one gate."""
    s, index = executor._cz, executor._index
    kept_diag = [a * DIM + b for a in KEPT_LEVELS for b in KEPT_LEVELS]
    surv = 0.0
    for i in _qubit_indices():
        col = s[:, index[(i, i)]]
        surv += sum(col[index[(k, k)]].real for k in kept_diag)
    return surv / 4.0


def process_infidelity_from_executor(executor: GateExecutor) -> float:
    """Raw process-route infidelity: 1 - retention * F_conditional.

    Raw benchmarking decays carry both the conditional gate error and the
    per-gate fall-out of valid population, so the process route composes the
    two the same way; the conditional part is the standard average gate
    fidelity of the kept map (see corrected_process_infidelity_from_executor).
    """
    f_cond = 1.0 - corrected_process_infidelity_from_executor(executor)
    return 1.0 - channel_retention(executor) * f_cond


def _kept_map_matrix(executor: GateExecutor) -> np.ndarray:
    """Pair-basis matrix of the per-atom keep-and-relabel map
    {project onto q0/q1, relabel x -> q0}."""
    proj = np.zeros((DIM, DIM), dtype=complex)
    proj[Q0, Q0] = proj[Q1, Q1] = 1.0
    xq = np.zeros((DIM, DIM), dtype=complex)
    xq[Q0, X] = 1.0
    kraus_local = [proj, xq]
    return sum(
        conjugation_on_pairs(np.kron(a1, a2), executor.pairs)
        for a1 in kraus_local
        for a2 in kraus_local
    )


def corrected_process_infidelity_from_executor(executor: GateExecutor) -> float:
    """Conditional process infidelity: entanglement fidelity of the
    keep-map-composed channel divided by the input-averaged retention."""
    s, index = executor._cz, executor._index
    kept = _kept_map_matrix(executor) @ s
    qubit = _qubit_indices()
    phases = {qubit[0]: 1.0, qubit[1]: 1.0, qubit[2]: 1.0, qubit[3]: -1.0}
    fe = 0.0 + 0.0j
    for i in qubit:
        for j in qubit:
            col = kept[:, index[(i, j)]]
            fe += np.conj(phases[i]) * phases[j] * col[index[(i, j)]]
    fe /= 16.0
    fe_cond = fe.real / channel_retention(executor)
    favg = (4.0 * fe_cond + 1.0) / 5.0
    return 1.0 - favg


def ssb_infidelities_from_executor(
    executor: GateExecutor,
    n_cz_list=(2, 4, 6),
    n_seq: int = 32,
    seed: int = 12,
):
    """(raw, loss-corrected) infidelity from a shot-noise-free SSB decay."""
    res = run_ssb(n_cz_list, n_seq, shots=0, seed=seed, executor=executor)
    return 1.0 - res.fit_raw.fidelity, 1.0 - res.fit_loss.fidelity


def _entry(name: str, executor: GateExecutor, n_cz_list, n_seq, seed) -> BudgetEntry:
    raw_ssb, cor_ssb = ssb_infidelities_from_executor(
        executor, n_cz_list, n_seq, seed
    )
    return BudgetEntry(
        name=name,
        raw_process=process_infidelity_from_executor(executor),
        raw_ssb=raw_ssb,
        corrected_process=corrected_process_infidelity_from_executor(executor),
        corrected_ssb=cor_ssb,
    )


def error_budget(
    config: NoiseConfig,
    sources=CZ_SOURCES,
    n_cz_list=(2, 4, 6),
    n_seq: int = 32,
    seed: int = 12,
) -> BudgetReport:
    """Single-source and combined CZ infidelities, raw and loss-corrected,
    for the default CZ profile and drive."""
    profile, drive = default_profile(), RydbergDrive()
    for s in sources:
        if s not in BUDGET_SOURCES:
            raise ValueError(f"unknown error source {s!r}")
    entries = []
    for name in sources:
        executor = GateExecutor(
            profile, drive, config.only(name), dephasing_nodes=DEPHASING_NODES
        )
        entries.append(_entry(name, executor, n_cz_list, n_seq, seed))
    combined = GateExecutor(
        profile, drive, config.only(*sources), dephasing_nodes=DEPHASING_NODES
    )
    total = _entry("total", combined, n_cz_list, n_seq, seed)
    return BudgetReport(entries=tuple(entries), total=total, sources=tuple(sources))
