"""Spin model construction against the printed reference matrices."""

import numpy as np
import pytest

from qndstab.filters import graph_connected, laplacian_matrix
from qndstab.spin import build_spin_model, spin2_preset


def test_spin2_measurement_operator():
    L, _ = build_spin_model(2)
    assert L.shape == (5, 5)
    assert np.array_equal(np.diag(L).real, [2.0, 1.0, 0.0, -1.0, -2.0])
    assert np.all(L == np.diag(np.diag(L)))


def test_spin2_hamiltonian_entrywise():
    # superdiagonal couplings sqrt((m+1)(2J-m)) = (2, sqrt6, sqrt6, 2), each
    # divided by 2i with a minus sign, i.e. +0.5i c above the diagonal
    _, H = build_spin_model(2)
    c = np.array([2.0, np.sqrt(6.0), np.sqrt(6.0), 2.0])
    expected = np.zeros((5, 5), dtype=complex)
    for m in range(4):
        expected[m, m + 1] = 0.5j * c[m]
        expected[m + 1, m] = -0.5j * c[m]
    assert np.array_equal(H, expected)


def test_spin_half_hand_values():
    L, H = build_spin_model(0.5)
    assert np.array_equal(np.diag(L).real, [0.5, -0.5])
    assert np.array_equal(H, np.array([[0.0, 0.5j], [-0.5j, 0.0]]))


@pytest.mark.parametrize("J", [0.5, 1, 1.5, 2, 2.5, 3, 4])
def test_spin_family_hermitian_and_connected(J):
    L, H = build_spin_model(J)
    n = L.shape[0]
    assert H.shape == (n, n)
    assert np.array_equal(L, L.conj().T)
    assert np.array_equal(H, H.conj().T)
    meas, ctrl = spin2_preset(p_min=0.6, J=J)
    delta = laplacian_matrix(ctrl.H, meas.dec)
    assert graph_connected(delta)
    # the actuation graph is the path graph: only nearest-neighbour edges
    off = delta - np.diag(np.diag(delta))
    assert np.all(off[np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > 1] == 0.0)


@pytest.mark.parametrize("J", [0, -1, 0.7, 2.3, float("nan"), float("inf")])
def test_build_spin_model_rejects_bad_J(J):
    with pytest.raises(ValueError, match="half-integer"):
        build_spin_model(J)


def test_spin2_preset_reference_parameters():
    meas, ctrl = spin2_preset(p_min=0.9)
    assert meas.eta == 0.8
    assert ctrl.sigma_bar == 2.0
    assert ctrl.p_min == 0.9
    assert ctrl.p_max == pytest.approx(0.95)
    assert ctrl.saturation == "piecewise_linear"
    # target selects the zero eigenvalue of L
    assert ctrl.target == 2
    assert meas.dec.eigenvalues[ctrl.target] == 0.0


def test_spin2_preset_mixed_state_population():
    meas, ctrl = spin2_preset(p_min=0.9)
    from qndstab.core import populations

    p = populations(np.eye(5, dtype=complex) / 5, meas.dec)
    assert p[ctrl.target] == pytest.approx(0.2)


def test_spin2_preset_overrides():
    meas, ctrl = spin2_preset(p_min=0.6, sigma_bar=1.5, eta=0.5, p_max=0.8, saturation="smoothstep")
    assert meas.eta == 0.5
    assert ctrl.sigma_bar == 1.5
    assert ctrl.p_max == 0.8
    assert ctrl.saturation == "smoothstep"


def test_spin2_preset_rejects_pmax_overflow():
    # default p_max = p_min + 0.05 exceeds 1 here
    with pytest.raises(ValueError, match="p_max"):
        spin2_preset(p_min=0.97)
