"""Per-source CZ error budget via two routes: process fidelity of the
simulated gate channel, and a simulated SSB decay with that channel.

Both routes run on the pair-basis channel (built once per source). The
loss-corrected variant conditions on population remaining in the valid
computational levels {q0, q1, x}, with x read out as q0.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .benchmarking.twoq import KEPT_LEVELS, GateExecutor, run_ssb
from .channels import LOCAL_PAIRS, conjugation_on_pairs, pair_index
from .czopt import default_profile
from .levels import DIM, Q0, Q1, QUBIT_LEVELS, X
# The reference config lives in noise, so the CLI builds it without importing
# this module; both names stay importable from here.
from .noise import (  # noqa: F401
    DEPHASING_RATE_DEFAULT,
    NoiseConfig,
    reference_budget_config,
)
from .rydberg import RydbergDrive

# sources that act during a Rydberg gate (raman_scattering and state_prep
# belong to the single-qubit benchmarks, not the CZ budget)
CZ_SOURCES = ("rydberg_decay", "ionization", "rydberg_dephasing")


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


# two-atom qubit basis states (a, b), in the order |00>, |01>, |10>, |11>
QUBIT_STATES = tuple(itertools.product(QUBIT_LEVELS, repeat=2))


def channel_retention(executor: GateExecutor) -> float:
    """Input-averaged probability of staying in the valid computational
    levels {q0, q1, x} over one gate."""
    kept = [pair_index(k, k) for k in itertools.product(KEPT_LEVELS, repeat=2)]
    surv = 0.0
    for q in QUBIT_STATES:
        col = executor.cz[:, pair_index(q, q)]
        surv += sum(col[k].real for k in kept)
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


def _kept_map_matrix() -> np.ndarray:
    """Pair-basis matrix of the per-atom keep-and-relabel map
    {project onto q0/q1, relabel x -> q0}: the Kronecker square of its
    12 x 12 matrix on ``LOCAL_PAIRS``."""
    proj = np.zeros((DIM, DIM), dtype=complex)
    proj[Q0, Q0] = proj[Q1, Q1] = 1.0
    xq = np.zeros((DIM, DIM), dtype=complex)
    xq[Q0, X] = 1.0
    local = sum(conjugation_on_pairs(a, LOCAL_PAIRS) for a in (proj, xq))
    return np.kron(local, local)


def corrected_process_infidelity_from_executor(executor: GateExecutor) -> float:
    """Conditional process infidelity: entanglement fidelity of the
    keep-map-composed channel divided by the input-averaged retention."""
    kept = _kept_map_matrix() @ executor.cz
    phases = (1.0, 1.0, 1.0, -1.0)  # the ideal CZ on QUBIT_STATES
    fe = 0.0 + 0.0j
    for i, pi in zip(QUBIT_STATES, phases):
        for j, pj in zip(QUBIT_STATES, phases):
            k = pair_index(i, j)
            fe += np.conj(pi) * pj * kept[k, k]
    fe /= 16.0
    fe_cond = fe.real / channel_retention(executor)
    favg = (4.0 * fe_cond + 1.0) / 5.0
    return 1.0 - favg


def _entry(name: str, executor: GateExecutor, n_cz_list, n_seq,
           seed) -> BudgetEntry:
    res = run_ssb(n_cz_list, n_seq, 0, seed, executor=executor)
    return BudgetEntry(
        name=name,
        raw_process=process_infidelity_from_executor(executor),
        raw_ssb=1.0 - res.fit_raw.fidelity,
        corrected_process=corrected_process_infidelity_from_executor(executor),
        corrected_ssb=1.0 - res.fit_loss.fidelity,
    )


def error_budget(
    config: NoiseConfig,
    n_cz_list=(2, 4, 6),
    n_seq: int = 32,
    seed: int = 12,
) -> BudgetReport:
    """Single-source and combined CZ infidelities, raw and loss-corrected,
    of each of ``CZ_SOURCES``, for the default CZ profile and drive."""
    profile, drive = default_profile(), RydbergDrive()
    # shot-noise-free, so every executor runs the same sequences
    entries = []
    for name in CZ_SOURCES:
        executor = GateExecutor(profile, drive, config.only(name))
        entries.append(_entry(name, executor, n_cz_list, n_seq, seed))
    combined = GateExecutor(profile, drive, config.only(*CZ_SOURCES))
    total = _entry("total", combined, n_cz_list, n_seq, seed)
    return BudgetReport(entries=tuple(entries), total=total,
                        sources=CZ_SOURCES)
