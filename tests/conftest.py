# fsqsim before numpy, so that the suite runs on one OpenBLAS thread as
# an fsqsim process does
import fsqsim  # noqa: F401
import numpy as np
import pytest

import oracles
from fsqsim.benchmarking.twoq import GateExecutor
from fsqsim.budget import reference_budget_config
from fsqsim.czopt import default_profile
from fsqsim.rydberg import RydbergDrive


@pytest.fixture(scope="session")
def reference_config():
    return reference_budget_config()


@pytest.fixture(scope="session")
def drive():
    return RydbergDrive()


@pytest.fixture(scope="session")
def cz_profile():
    return default_profile()


@pytest.fixture(scope="session")
def noiseless_executor(cz_profile, drive):
    return GateExecutor(cz_profile, drive, None)


@pytest.fixture(scope="session")
def ideal_executor():
    return oracles.ideal_cz_executor()


@pytest.fixture(scope="session")
def reference_executor(cz_profile, drive, reference_config):
    # combined gate channel with every CZ error source on (0.5-0.65 s to
    # build in a fresh process, 0.26-0.37 s warm, on 2 cores)
    return GateExecutor(cz_profile, drive, reference_config)


@pytest.fixture(scope="session")
def shallow_model():
    from fsqsim.readout import shallow_trap_model

    return shallow_trap_model()


@pytest.fixture(scope="session")
def deep_model():
    from fsqsim.readout import deep_trap_model

    return deep_trap_model()


@pytest.fixture(scope="session")
def budget_report(reference_config):
    from fsqsim.budget import error_budget

    return error_budget(reference_config)


def rng(seed=0):
    return np.random.default_rng(seed)
