import sys

import numpy as np
import pytest

from qndstab.core import _kraus_rows, hermitian_part
from qndstab.ensemble import _kraus_factor
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


def kraus_constants(lvec, eta, dt, pk, width):
    """The constant rows ensemble._integrate_chunk builds for ensemble._kraus_factor, for a chunk of this width."""
    cross = (1.0 - eta) * dt * (lvec[pk.i] * lvec[pk.j])
    return _kraus_rows(lvec, dt, width), np.repeat(cross[:, None], width, axis=1)


def kraus_factor(lvec, eta, dt, dy, pk):
    """ensemble._kraus_factor on the constant rows of a chunk as wide as dy."""
    return _kraus_factor(eta, dt, dy, pk, *kraus_constants(lvec, eta, dt, pk, dy.size))


def averaged_operands(gen):
    """The operands ensemble._integrate_chunk builds for filters._averaged_control from A = gen."""
    return gen, gen @ gen, np.ascontiguousarray(gen.T), np.eye(gen.shape[0])
