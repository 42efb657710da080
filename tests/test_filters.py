"""Estimator layers: actuation Laplacian, observers, population filter."""

import numpy as np
import pytest
from numpy.random import default_rng

from qndstab.core import populations, random_density_matrix, random_hermitian
from qndstab.dynamics import StepInput, closed_loop_step, control_setup, feedback_gain, open_loop_step
from qndstab.filters import (
    full_observer_step,
    graph_connected,
    laplacian_matrix,
    population_filter_step,
    reduced_filter_step,
)
from qndstab.spin import spin2_preset

SPIN2_DELTA = np.array(
    [
        [-1.0, 1.0, 0.0, 0.0, 0.0],
        [1.0, -2.5, 1.5, 0.0, 0.0],
        [0.0, 1.5, -3.0, 1.5, 0.0],
        [0.0, 0.0, 1.5, -2.5, 1.0],
        [0.0, 0.0, 0.0, 1.0, -1.0],
    ]
)


# ---------------------------------------------------------------- laplacian


def test_spin2_laplacian_reference_matrix(spin2_delta):
    assert np.allclose(spin2_delta, SPIN2_DELTA, atol=1e-12, rtol=0.0)


def test_laplacian_diagonal_is_exact_negated_row_sum(spin2_delta):
    for k in range(5):
        row = spin2_delta[k].copy()
        row[k] = 0.0
        assert spin2_delta[k, k] == -np.sum(row)


def test_laplacian_diagonal_H_gives_zero(spin2_loose):
    meas, _ = spin2_loose
    delta = laplacian_matrix(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), meas.dec)
    assert np.all(delta == 0.0)


def test_laplacian_random_H_structure(spin2_loose, rng):
    meas, _ = spin2_loose
    h = random_hermitian(5, rng)
    delta = laplacian_matrix(h, meas.dec)
    assert np.array_equal(delta, delta.T)
    assert np.allclose(delta.sum(axis=1), 0.0, atol=1e-12)
    off = delta - np.diag(np.diag(delta))
    assert np.all(off >= 0.0)


def test_laplacian_degenerate_subspaces(rng):
    from qndstab.dynamics import measurement_setup

    meas = measurement_setup(np.diag([1.0, 1.0, -1.0]), eta=0.8)
    assert meas.dec.d == 2
    h = random_hermitian(3, rng)
    delta = laplacian_matrix(h, meas.dec)
    # single edge weight is the cross-block Frobenius mass of H
    expected = abs(h[0, 2]) ** 2 + abs(h[1, 2]) ** 2
    assert delta[0, 1] == pytest.approx(expected, rel=1e-12)
    assert delta[0, 0] == pytest.approx(-expected, rel=1e-12)


def test_laplacian_dimension_mismatch(spin2_loose):
    meas, _ = spin2_loose
    with pytest.raises(ValueError, match="dim"):
        laplacian_matrix(np.zeros((3, 3)), meas.dec)


def test_graph_connected_cases(spin2_delta, spin2_loose):
    meas, _ = spin2_loose
    assert graph_connected(spin2_delta)
    assert not graph_connected(np.zeros((5, 5)))
    assert graph_connected(np.zeros((1, 1)))
    # couple {0,1} and {2,3,4} separately: two components
    h = np.zeros((5, 5), dtype=complex)
    h[0, 1] = h[1, 0] = 1.0
    h[2, 3] = h[3, 2] = 1.0
    h[3, 4] = h[4, 3] = 1.0
    assert not graph_connected(laplacian_matrix(h, meas.dec))


# ------------------------------------------------------------ full observer


def test_full_observer_tracks_plant_from_true_state(spin2_loose, rng):
    meas, ctrl = spin2_loose
    rho = np.diag([0.63, 0.1, 0.09, 0.1, 0.08]).astype(complex)
    rho[1, 2] = rho[2, 1] = 0.04
    rho_hat = rho.copy()
    for _ in range(200):
        dw, db = rng.normal(scale=np.sqrt(1e-3), size=2)
        out = closed_loop_step(rho, meas, ctrl, StepInput(dt=1e-3, dW=dw, dB=db))
        rho_hat = full_observer_step(rho_hat, meas, ctrl, out.dY, db, 1e-3)
        rho = out.rho_next
        assert np.allclose(rho_hat, rho, atol=1e-10, rtol=0.0)


def test_full_observer_fixes_target_vertex(spin2_loose):
    meas, ctrl = spin2_loose
    vertex = meas.dec.projectors[ctrl.target].astype(complex)
    out = full_observer_step(vertex, meas, ctrl, dY=0.4, dB=-1.3, dt=1e-3)
    assert np.array_equal(out, vertex)


def test_full_observer_sigma_bar_zero_fixes_all_vertices(spin2_loose):
    meas, ctrl = spin2_loose
    ctrl0 = control_setup(ctrl.H, meas.dec, ctrl.target, 0.0, ctrl.p_min, ctrl.p_max)
    for k in range(5):
        vertex = meas.dec.projectors[k].astype(complex)
        out = full_observer_step(vertex, meas, ctrl0, dY=-0.9, dB=0.7, dt=1e-3)
        assert np.array_equal(out, vertex)


def test_full_observer_preserves_trace(spin2_loose, rng):
    meas, ctrl = spin2_loose
    rho_hat = random_density_matrix(5, rng)
    out = full_observer_step(rho_hat, meas, ctrl, dY=0.12, dB=0.3, dt=1e-3)
    assert np.trace(out).real == pytest.approx(1.0, rel=1e-12)
    assert abs(np.trace(out).imag) < 1e-15


# ----------------------------------------------------------- reduced filter


def test_reduced_filter_inactive_gain_equals_full_observer(spin2_loose, rng):
    meas, ctrl = spin2_loose
    # populations all below p_min: sigma = 0, the filters coincide exactly
    rho_hat = np.diag([0.3, 0.25, 0.2, 0.15, 0.1]).astype(complex)
    rho_hat[0, 4] = rho_hat[4, 0] = 0.05
    reduced = reduced_filter_step(rho_hat, meas, ctrl, dY=0.21, dt=1e-3)
    full = full_observer_step(rho_hat, meas, ctrl, dY=0.21, dB=1.9, dt=1e-3)
    assert np.array_equal(reduced, full)


def test_reduced_filter_fixes_target_vertex(spin2_loose):
    meas, ctrl = spin2_loose
    vertex = meas.dec.projectors[ctrl.target].astype(complex)
    out = reduced_filter_step(vertex, meas, ctrl, dY=-0.6, dt=1e-3)
    assert np.array_equal(out, vertex)


def test_reduced_filter_applies_average_control_drift(spin2_loose):
    meas, ctrl = spin2_loose
    from qndstab.core import dissipator

    rho_hat = np.diag([0.7, 0.1, 0.1, 0.05, 0.05]).astype(complex)
    sigma = feedback_gain(populations(rho_hat, meas.dec), ctrl)
    assert sigma == 2.0  # saturated
    dt = 1e-3
    ex = np.trace(meas.L @ rho_hat).real
    dY = 2.0 * np.sqrt(meas.eta) * ex * dt  # zero innovation record
    out = reduced_filter_step(rho_hat, meas, ctrl, dY=dY, dt=dt)
    # innovation ~ 0, dissipator of a diagonal state vanishes: only the
    # sigma^2 D_H drift moves the state
    from qndstab.core import project_to_physical

    expected = project_to_physical(rho_hat + sigma**2 * dissipator(ctrl.H, rho_hat) * dt)
    assert np.allclose(out, expected, atol=1e-12, rtol=0.0)
    assert np.linalg.norm(out - rho_hat) > 1e-4


# -------------------------------------------------------- population filter


def test_population_filter_fixes_target_vertex(spin2_loose):
    meas, ctrl = spin2_loose
    p = np.zeros(5)
    p[ctrl.target] = 1.0
    out = population_filter_step(p, meas, ctrl, SPIN2_DELTA, dY=0.9, dt=1e-3)
    assert np.array_equal(out, p)


def test_population_filter_hand_recursion():
    meas, ctrl = spin2_preset(p_min=0.6, J=0.5)
    lam = meas.dec.eigenvalues
    assert np.array_equal(lam, [0.5, -0.5])
    delta = np.array([[-0.25, 0.25], [0.25, -0.25]])
    p = np.array([0.37, 0.63])
    dY, dt = 0.07, 1e-3
    sigma = feedback_gain(p, ctrl)
    assert sigma == pytest.approx(np.sqrt(1.6) * 0.6)
    sqeta = np.sqrt(0.8)
    w = 0.5 * 0.37 - 0.5 * 0.63
    innovation = dY - 2.0 * sqeta * w * dt
    raw = p + 2.0 * sqeta * p * (lam - w) * innovation + sigma**2 * (delta @ p) * dt
    expected = raw / raw.sum()
    out = population_filter_step(p, meas, ctrl, delta, dY=dY, dt=dt)
    assert np.allclose(out, expected, atol=1e-14, rtol=0.0)


def test_population_filter_raw_increment_sums_to_zero(spin2_loose, spin2_delta, rng):
    meas, ctrl = spin2_loose
    lam = meas.dec.eigenvalues
    for _ in range(20):
        p = rng.dirichlet(np.ones(5))
        dY, dt = rng.normal(scale=0.05), 1e-3
        sigma = feedback_gain(p, ctrl)
        w = p @ lam
        innovation = dY - 2.0 * np.sqrt(meas.eta) * w * dt
        dp = 2.0 * np.sqrt(meas.eta) * p * (lam - w) * innovation + sigma**2 * (spin2_delta @ p) * dt
        assert abs(dp.sum()) <= 1e-12


def test_population_filter_safeguard_keeps_simplex(spin2_loose, spin2_delta):
    meas, ctrl = spin2_loose
    p = np.array([0.99, 0.0025, 0.0025, 0.0025, 0.0025])
    out = population_filter_step(p, meas, ctrl, spin2_delta, dY=-0.8, dt=1e-3)
    assert np.all(out >= 0.0)
    assert out.sum() == pytest.approx(1.0, rel=1e-12)


def test_population_filter_batch(spin2_loose, spin2_delta, rng):
    meas, ctrl = spin2_loose
    batch = rng.dirichlet(np.ones(5), size=4)
    dY = rng.normal(scale=0.03, size=4)
    out = population_filter_step(batch, meas, ctrl, spin2_delta, dY=dY, dt=1e-3)
    assert out.shape == (4, 5)
    for i in range(4):
        single = population_filter_step(batch[i], meas, ctrl, spin2_delta, dY=dY[i], dt=1e-3)
        assert np.array_equal(out[i], single)


# -------------------------------------------------- cross-filter consistency


def test_filters_agree_in_open_loop(spin2_loose, spin2_delta):
    """Shared record, diagonal start, gain disabled: all three layers coincide."""
    meas, ctrl = spin2_loose
    ctrl0 = control_setup(ctrl.H, meas.dec, ctrl.target, 0.0, ctrl.p_min, ctrl.p_max)
    rng = default_rng(7)
    rho = np.diag([0.3, 0.25, 0.2, 0.15, 0.1]).astype(complex)
    rho_full = rho.copy()
    rho_red = rho.copy()
    p_hat = np.diag(rho).real.copy()
    dt = 1e-3
    for _ in range(1000):
        dw = rng.normal(scale=np.sqrt(dt))
        out = open_loop_step(rho, meas, StepInput(dt=dt, dW=dw))
        rho = out.rho_next
        rho_full = full_observer_step(rho_full, meas, ctrl0, out.dY, 0.0, dt)
        rho_red = reduced_filter_step(rho_red, meas, ctrl0, out.dY, dt)
        p_hat = population_filter_step(p_hat, meas, ctrl0, spin2_delta, out.dY, dt)
    p_truth = populations(rho, meas.dec)
    p_full = populations(rho_full, meas.dec)
    p_red = populations(rho_red, meas.dec)
    assert np.max(np.abs(p_full - p_truth)) < 1e-6
    assert np.max(np.abs(p_red - p_full)) < 1e-6
    assert np.max(np.abs(p_hat - p_full)) < 1e-6


def test_full_observer_identifies_state_from_record(spin2_loose):
    """Observer started at the wrong state gains overlap with the plant."""
    meas, ctrl = spin2_loose
    ctrl0 = control_setup(ctrl.H, meas.dec, ctrl.target, 0.0, ctrl.p_min, ctrl.p_max)
    rng = default_rng(31)
    n_traj, n_steps, dt = 200, 1000, 2e-3
    rho = np.stack([random_density_matrix(5, rng) for _ in range(n_traj)])
    rho_hat = np.broadcast_to(np.eye(5, dtype=complex) / 5.0, rho.shape).copy()
    overlap0 = np.einsum("kij,kji->k", rho, rho_hat).real.mean()
    for _ in range(n_steps):
        dw = rng.standard_normal(n_traj) * np.sqrt(dt)
        out = open_loop_step(rho, meas, StepInput(dt=dt, dW=dw))
        rho_hat = full_observer_step(rho_hat, meas, ctrl0, out.dY, 0.0, dt)
        rho = out.rho_next
    overlap1 = np.einsum("kij,kji->k", rho, rho_hat).real.mean()
    assert overlap1 > overlap0 + 0.15
    # filter populations track the truth populations
    err = np.abs(populations(rho_hat, meas.dec) - populations(rho, meas.dec)).max(axis=1)
    assert np.median(err) < 0.05
