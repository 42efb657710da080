import csv
import sys

import numpy as np
import pytest

from qndstab.core import _require_square, hermitian_part
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


DENSITY_TOL = 1e-9  # Hermiticity, trace and positivity slack of validate_density_matrix


def trace(m: np.ndarray) -> np.ndarray:
    """Matrix trace over the last two axes."""
    return np.einsum("...ii->...", m)


def validate_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Check Hermiticity, unit trace and positivity, each within DENSITY_TOL."""
    rho = _require_square(rho, name)
    herm_dev = float(np.max(np.abs(rho - np.conj(np.swapaxes(rho, -1, -2)))))
    if herm_dev > DENSITY_TOL:
        raise ValueError(f"{name} is not Hermitian within {DENSITY_TOL:.1e}: deviation {herm_dev:.3e}")
    tr_dev = float(np.max(np.abs(trace(rho) - 1.0)))
    if tr_dev > DENSITY_TOL:
        raise ValueError(f"{name} does not have unit trace within {DENSITY_TOL:.1e}: deviation {tr_dev:.3e}")
    wmin = float(np.min(np.linalg.eigvalsh(hermitian_part(rho))))
    if wmin < -DENSITY_TOL:
        raise ValueError(f"{name} is not positive semidefinite: min eigenvalue {wmin:.3e} < -{DENSITY_TOL:.1e}")
    return rho


def read_csv(path) -> list[dict[str, str]]:
    """The rows of a CSV file with a header line, each a dict of its fields as strings."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
