"""Desk-scale simulator of a strontium-88 fine-structure-qubit tweezer array:
gate benchmarking (CRB, SSB, Bell states), erasure-conversion readout
statistics, Rydberg decay rate equations, laser-noise and ionization error
budgets, and atom-array assembly and equalization."""

import os

# One OpenBLAS thread unless the caller chose a count. fsqsim's dense
# matrices are small (the two-qubit ones are 144 x 144): a second thread
# buys no wall time, and its worker spins after each threaded call, which
# doubles CPU time and stalls when the other core is busy. The variable is
# read when numpy first loads OpenBLAS, so a process that imported numpy
# before fsqsim keeps its own pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ._kernels import BACKEND as KERNEL_BACKEND
from .czopt import default_profile, optimize_cz
from .levels import LevelScheme
from .lindblad import CollapseOperator, ModulatedDrive, evolve_lindblad
from .channels import channel_superoperator
from .noise import NoiseConfig
from .rydberg import CZPulseProfile, RydbergDrive, time_optimal_cz
from .states import QuantumState, embed_local, measure_populations

__all__ = [
    "KERNEL_BACKEND",
    "LevelScheme",
    "QuantumState",
    "CollapseOperator",
    "ModulatedDrive",
    "NoiseConfig",
    "RydbergDrive",
    "CZPulseProfile",
    "evolve_lindblad",
    "channel_superoperator",
    "embed_local",
    "measure_populations",
    "time_optimal_cz",
    "optimize_cz",
    "default_profile",
]
__version__ = "0.1.0"
