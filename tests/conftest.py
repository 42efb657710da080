import sys

import numpy as np
import pytest

from qndstab.core import hermitian_part
from qndstab.filters import laplacian_matrix
from qndstab.lyapunov import solve_alpha
from qndstab.spin import spin2_preset


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines past pytest's capture."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for line in verdicts:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def spin2_loose():
    """Spin-2 benchmark pair at p_min = 0.6 (fast convergence regime)."""
    return spin2_preset(p_min=0.6)


@pytest.fixture(scope="session")
def spin2_tight():
    """Spin-2 benchmark pair at p_min = 0.9 (conservative gain regime)."""
    return spin2_preset(p_min=0.9)


@pytest.fixture(scope="session")
def spin2_delta(spin2_loose):
    meas, ctrl = spin2_loose
    return laplacian_matrix(ctrl.H, meas.dec)


@pytest.fixture(scope="session")
def spin2_weights(spin2_loose, spin2_delta):
    _, ctrl = spin2_loose
    return solve_alpha(spin2_delta, ctrl.target)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_hermitian(n, rng):
    """GUE-style random Hermitian matrix with entries of order one."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(a)

