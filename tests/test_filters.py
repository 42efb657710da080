"""Estimator layers: actuation Laplacian, the engine's reduced and population filter updates."""

import numpy as np
import pytest
from numpy.random import default_rng

from qndstab.core import UnrecoverableStateError, _normalize, dissipator, random_density_matrix
from qndstab.dynamics import control_setup, feedback_gain
from qndstab.ensemble import _Kernel, _Packed
from qndstab.filters import (
    _band_sum,
    _bands,
    graph_connected,
    laplacian_matrix,
    population_filter_step,
)
from qndstab.spin import spin2_preset

from conftest import random_hermitian

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


# --------------------------------------------------------------- plant step
#
# Spin-2 states in the campaign engine's packed real layout: L = J_z is
# diagonal with descending eigenvalues, so the working basis needs no
# reordering, and H = i A with A = Im H real.

PK = _Packed(5)


def _lvec(meas):
    lvec = np.diagonal(meas.L).real
    assert np.array_equal(lvec, meas.dec.eigenvalues)
    return lvec


def _plant_step(rho, kern, dy):
    """The engine's open-loop Kraus step on packed states, in place, on the kernel's factor of dy; returns the factor."""
    factor = kern.factor(np.atleast_1d(dy))
    rho *= factor
    _normalize(rho, 5, 0, 1)
    return factor


def _reduced_step(rho_hat, kern, ctrl, factor):
    """The engine's reduced filter step on a copy of packed states, with the undelayed gain of rho_hat."""
    out = rho_hat.copy()
    kern.reduced(out, factor, np.atleast_1d(feedback_gain(rho_hat[:5].T, ctrl)))
    _normalize(out, 5, 0, 1)
    return out


def test_plant_step_fixes_target_vertex(spin2_loose):
    meas, ctrl = spin2_loose
    vertex = PK.pack(meas.dec.projectors[ctrl.target].real[None])
    # the gain is zero at the target, so no rotation follows the Kraus step
    assert feedback_gain(vertex[:5].T, ctrl) == 0.0
    out = vertex.copy()
    _plant_step(out, _Kernel(meas, ctrl, 1e-3, 1), 0.4)
    assert np.array_equal(out, vertex)


def test_plant_step_sigma_bar_zero_fixes_all_vertices(spin2_loose):
    meas, ctrl = spin2_loose
    kern = _Kernel(meas, ctrl, 1e-3, 1)
    # with sigma_bar = 0 no rotation follows the Kraus step, at any vertex
    for k in range(5):
        vertex = PK.pack(meas.dec.projectors[k].real[None])
        out = vertex.copy()
        _plant_step(out, kern, -0.9)
        assert np.array_equal(out, vertex)


# ----------------------------------------------------------- reduced filter


def test_reduced_filter_inactive_gain_equals_plant_step(spin2_loose):
    meas, ctrl = spin2_loose
    # populations all below p_min: sigma = 0, and the filter takes the plant's step
    rho_hat = np.diag([0.3, 0.25, 0.2, 0.15, 0.1])
    rho_hat[0, 4] = rho_hat[4, 0] = 0.05
    packed = PK.pack(rho_hat[None])
    assert np.array_equal(feedback_gain(packed[:5].T, ctrl), [0.0])
    kern = _Kernel(meas, ctrl, 1e-3, 1)
    plant = packed.copy()
    factor = _plant_step(plant, kern, 0.21)
    assert _reduced_step(packed, kern, ctrl, factor).tobytes() == plant.tobytes()


def test_reduced_filter_fixes_target_vertex(spin2_loose):
    meas, ctrl = spin2_loose
    vertex = PK.pack(meas.dec.projectors[ctrl.target].real[None])
    kern = _Kernel(meas, ctrl, 1e-3, 1)
    out = _reduced_step(vertex, kern, ctrl, kern.factor(np.array([-0.6])))
    assert np.array_equal(out, vertex)


def test_reduced_filter_applies_average_control_drift(spin2_loose):
    """The sigma_bar step minus the sigma = 0 step on one record is sigma^2 dt D_H(rho') + O(dt^2).

    The control stage acts on the measured state, so rho' is the sigma = 0
    step of rho.
    """
    meas, ctrl = spin2_loose
    rho_hat = np.diag([0.7, 0.1, 0.1, 0.05, 0.05])
    sigma = feedback_gain(np.diag(rho_hat), ctrl)
    assert sigma == 2.0  # saturated
    lvec = _lvec(meas)

    def step(sig, dt):
        # zero innovation record
        dy = np.array([2.0 * np.sqrt(meas.eta) * (lvec @ np.diag(rho_hat)) * dt])
        kern = _Kernel(meas, ctrl, dt, 1)
        out = PK.pack(rho_hat[None])
        kern.reduced(out, kern.factor(dy), np.array([sig]))
        out = PK.unpack(out)[0]
        return out / np.trace(out)

    errs = []
    for dt in (1e-3, 5e-4):
        measured = step(0.0, dt)
        drift = sigma**2 * dissipator(ctrl.H, measured.astype(complex)) * dt
        assert np.max(np.abs(drift.imag)) == 0.0
        errs.append(np.max(np.abs(step(sigma, dt) - measured - drift.real)))
    assert errs[0] <= 10.0 * 1e-3**2
    assert 3.5 <= errs[0] / errs[1] <= 4.5  # second order in dt
    assert np.linalg.norm(step(sigma, 1e-3) - rho_hat) > 1e-4


# -------------------------------------------------------- population filter


def test_population_filter_fixes_target_vertex(spin2_loose):
    meas, ctrl = spin2_loose
    p = np.zeros(5)
    p[ctrl.target] = 1.0
    out = population_filter_step(p, meas, ctrl, SPIN2_DELTA, dY=0.9, dt=1e-3)
    assert np.array_equal(out, p)


def test_population_filter_hand_recursion():
    meas, ctrl = spin2_preset(p_min=0.6, J=0.5)
    assert np.array_equal(meas.dec.eigenvalues, [0.5, -0.5])
    delta = np.array([[-0.25, 0.25], [0.25, -0.25]])
    p = np.array([0.37, 0.63])
    dY, dt = 0.07, 1e-3
    sigma = feedback_gain(p, ctrl)
    assert sigma == pytest.approx(np.sqrt(1.6) * 0.6)
    x = np.sqrt(0.8) * dY
    # Kraus diagonal 1 - l^2 dt/2 + sqrt(eta) l dY + (eta/2) l^2 (dY^2 - dt) at l = +1/2 and -1/2
    m_up = 1.0 - 0.125 * dt + 0.5 * x + 0.125 * (x * x - 0.8 * dt)
    m_down = 1.0 - 0.125 * dt - 0.5 * x + 0.125 * (x * x - 0.8 * dt)
    # measurement stage: the diagonal m^2 + (1 - eta) dt l^2 of the Schur factor
    meas_up = (m_up**2 + 0.2 * dt * 0.25) * 0.37
    meas_down = (m_down**2 + 0.2 * dt * 0.25) * 0.63
    # control stage: (1 + s Delta_kk / 2)^2 p_k + s Delta_kj p_j, Delta_kk = -1/4, Delta_kj = 1/4
    s = sigma**2 * dt
    up = (1.0 - 0.125 * s) ** 2 * meas_up + 0.25 * s * meas_down
    down = (1.0 - 0.125 * s) ** 2 * meas_down + 0.25 * s * meas_up
    expected = np.array([up, down]) / (up + down)
    out = population_filter_step(p, meas, ctrl, delta, dY=dY, dt=dt)
    assert np.allclose(out, expected, atol=1e-14, rtol=0.0)


def test_population_filter_is_reduced_filter_diagonal(spin2_loose, spin2_delta, rng):
    """At sigma = 0 one population step is the diagonal of one reduced filter step of diag(p)."""
    meas, ctrl = spin2_loose
    ctrl0 = control_setup(ctrl.H, meas.dec, ctrl.target, 0.0, ctrl.p_min, ctrl.p_max)
    p = rng.dirichlet(np.ones(5), size=20)
    dY, dt = rng.normal(scale=0.05, size=20), 1e-3
    kern = _Kernel(meas, ctrl0, dt, 20)
    reduced = PK.pack(p[:, :, None] * np.eye(5))
    kern.reduced(reduced, kern.factor(dY), np.zeros(20))
    _normalize(reduced, 5, 0, 1)
    out = population_filter_step(p, meas, ctrl0, spin2_delta, dY=dY, dt=dt)
    assert np.max(np.abs(out - reduced[:5].T)) <= 1e-15


def test_population_filter_step_is_engine_update(spin2_loose, spin2_delta):
    """population_filter_step is the engine kernel's population update on its Kraus factor and its trace division, bit for bit.

    The engine's factor comes from Kraus rows tiled to the chunk width,
    population_filter_step's from width-1 rows that broadcast; both give the
    same products.  The gain is on for some columns and off for the rest.
    """
    meas, ctrl = spin2_loose
    rng = default_rng(37)
    p = rng.dirichlet(np.ones(5), size=16)
    p[::2] = rng.dirichlet([8.0, 1.0, 1.0, 1.0, 1.0], size=8)
    sigma = feedback_gain(p, ctrl)
    assert 0 < np.count_nonzero(sigma) < len(p)
    dY, dt = rng.normal(scale=0.05, size=len(p)), 1e-3
    kern = _Kernel(meas, ctrl, dt, len(p))
    engine = np.ascontiguousarray(p.T)
    kern.population(engine, kern.factor(dY), sigma)
    _normalize(engine, 5, 0, 1, "estimate")
    out = population_filter_step(p, meas, ctrl, spin2_delta, dY=dY, dt=dt)
    assert out.tobytes() == engine.T.tobytes()


def test_population_filter_step_raises_on_lost_trace(spin2_loose, spin2_delta):
    """A record increment that leaves no finite positive sum raises, naming the estimate and its row, and leaves p_hat as it was."""
    meas, ctrl = spin2_loose
    p = np.full((3, 5), 0.2)
    with pytest.raises(UnrecoverableStateError, match="estimate of trajectory 1 has trace nan after step 1"):
        population_filter_step(p, meas, ctrl, spin2_delta, dY=np.array([0.0, np.nan, 0.0]), dt=1e-3)
    with pytest.raises(UnrecoverableStateError, match="estimate of trajectory 0 has trace nan"):
        population_filter_step(p[0], meas, ctrl, spin2_delta, dY=np.nan, dt=1e-3)
    assert np.all(p == 0.2)


@pytest.mark.parametrize("sigma_bar", [2.0, 20.0])
def test_population_filter_drops_only_second_order_gain_terms(spin2_loose, sigma_bar):
    """With the gain on, the population step is the reduced step's diagonal less its order-s^2 terms.

    Both filters first multiply by the plant's Schur factor, which takes
    diag(p) to diag(p') with p' = p * factor[:5].  The reduced filter's
    control Kraus operator is then K = I + (s/2) A^2 with s = sigma^2 dt and
    A = Im H, so the diagonal of K diag(p') K carries
    (s/2)^2 sum_{j != k} ((A^2)_kj)^2 p'_j, which the population filter
    drops; every other term agrees.  Both sides are compared before
    normalization.
    """
    meas, ctrl = spin2_loose
    gen = ctrl.H.imag
    rng = default_rng(29)
    p = np.vstack([[0.99, 0.0025, 0.0025, 0.0025, 0.0025], rng.dirichlet(np.ones(5), size=7)])
    k = len(p)
    dY, dt = np.concatenate([[0.0], rng.normal(scale=0.05, size=k - 1)]), 1e-3
    sigma = np.full(k, sigma_bar)
    kern = _Kernel(meas, ctrl, dt, k)
    factor = kern.factor(dY)
    reduced = PK.pack(p[:, :, None] * np.eye(5))
    kern.reduced(reduced, factor, sigma)
    reduced = reduced[:5].T
    a2 = gen @ gen
    off = a2 * a2
    np.fill_diagonal(off, 0.0)
    measured = p * factor[:5].T
    dropped = (0.5 * sigma_bar**2 * dt) ** 2 * (measured @ off.T)
    assert np.min(dropped) > 1e-8
    expected = reduced - dropped
    out = np.ascontiguousarray(p.T)
    kern.population(out, factor, sigma)
    assert np.max(np.abs(out.T - expected)) <= 1e-14


def test_band_sum_equals_dense_sum(spin2_delta):
    """The banded Laplacian sum equals the dense sum over j in ascending order, bit for bit.

    The dense reference accumulates sum_{j != k} Delta_kj p_j one column j at
    a time.  A Delta with every band nonzero (n = 5 and 9) checks the band
    bookkeeping; the spin-2 ladder checks that skipping its zero bands is exact.
    """
    rng = default_rng(31)

    def dense(delta, p):
        off = delta - np.diag(np.diagonal(delta))
        total = off[:, :1] * p[0]
        for j in range(1, len(p)):
            total += off[:, j : j + 1] * p[j]
        return total

    for d in (5, 9):
        full = rng.random((d, d)) + 0.1
        full = full + full.T
        np.fill_diagonal(full, -np.sum(full, axis=1) + np.diagonal(full))
        p = rng.dirichlet(np.ones(d), size=30).T.copy()
        assert _band_sum(_bands(full), p).tobytes() == dense(full, p).tobytes()
    p = rng.dirichlet(np.ones(5), size=30).T.copy()
    assert _band_sum(_bands(spin2_delta), p).tobytes() == dense(spin2_delta, p).tobytes()


def test_population_filter_safeguard_keeps_simplex(spin2_loose, spin2_delta):
    """Large record increments near a wrong vertex keep every population positive.

    The Kraus form is nonnegative term by term, so no component is clipped
    to zero, at the default gain and at sigma_bar = 20.
    """
    meas, ctrl = spin2_loose
    strong = control_setup(ctrl.H, meas.dec, ctrl.target, 20.0, ctrl.p_min, ctrl.p_max)
    p = np.array([0.99, 0.0025, 0.0025, 0.0025, 0.0025])
    for c in (ctrl, strong):
        for dY in (0.8, -0.8, 2.0, -2.0, 5.0, -5.0):
            out = population_filter_step(p, meas, c, spin2_delta, dY=dY, dt=1e-3)
            assert np.all(out > 0.0), (c.sigma_bar, dY)
            assert abs(out.sum() - 1.0) <= 1e-12


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
    """Shared record, diagonal start, gain disabled: Kraus plant, reduced and population filters coincide."""
    meas, ctrl = spin2_loose
    ctrl0 = control_setup(ctrl.H, meas.dec, ctrl.target, 0.0, ctrl.p_min, ctrl.p_max)
    rng = default_rng(7)
    p0 = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
    rho = PK.pack(np.diag(p0)[None])
    rho_red = rho.copy()
    p_hat = p0.copy()
    dt = 1e-3
    kern = _Kernel(meas, ctrl0, dt, 1)
    for _ in range(1000):
        dy = 2.0 * np.sqrt(meas.eta) * (_lvec(meas) @ rho[:5, 0]) * dt + rng.normal(scale=np.sqrt(dt))
        factor = _plant_step(rho, kern, dy)
        rho_red = _reduced_step(rho_red, kern, ctrl0, factor)
        p_hat = population_filter_step(p_hat, meas, ctrl0, spin2_delta, dy, dt)
    assert np.max(np.abs(rho_red[:5, 0] - rho[:5, 0])) < 1e-6
    assert np.max(np.abs(p_hat - rho_red[:5, 0])) < 1e-6


def test_filter_started_mixed_identifies_state_from_record(spin2_loose):
    """A filter started at I/n, not at the plant's state, gains overlap with the plant.

    In open loop the filter takes the plant's Kraus step, driven by the
    plant's record increments.
    """
    meas, ctrl = spin2_loose
    rng = default_rng(31)
    n_traj, n_steps, dt = 200, 1000, 2e-3
    kern = _Kernel(meas, ctrl, dt, n_traj)
    # the real part of a density matrix is a real density matrix
    rho = PK.pack(np.stack([random_density_matrix(5, rng).real for _ in range(n_traj)]))
    rho_hat = np.tile(PK.pack(np.eye(5)[None] / 5.0), (1, n_traj))

    def overlap():
        return np.einsum("kij,kji->k", PK.unpack(rho), PK.unpack(rho_hat)).mean()

    overlap0 = overlap()
    for _ in range(n_steps):
        factor = kern.measure(rho, rng.standard_normal(n_traj) * np.sqrt(dt))
        rho_hat *= factor
        _normalize(rho, 5, 0, 1)
        _normalize(rho_hat, 5, 0, 1)
    overlap1 = overlap()
    assert overlap1 > overlap0 + 0.15
    # filter populations track the truth populations
    err = np.abs(rho_hat[:5] - rho[:5]).max(axis=0)
    assert np.median(err) < 0.05
