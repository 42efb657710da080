"""Single-step dynamics: gain law, measurement update, control conjugation."""

import numpy as np
import pytest
from numpy.random import default_rng

from qndstab.core import (
    DEGENERACY_TOL,
    populations,
    project_to_physical,
    random_density_matrix,
    unitary_conjugate,
)
from qndstab.dynamics import (
    StepInput,
    closed_loop_step,
    control_setup,
    feedback_gain,
    measurement_setup,
)
from qndstab.spin import build_spin_model, spin2_preset

from conftest import plain_dissipator


def _innov(l, rho):
    ex = np.trace(l @ rho).real
    return l @ rho + rho @ l - 2.0 * ex * rho


# ---------------------------------------------------------------- gain law


def test_feedback_gain_hand_values(spin2_loose):
    meas, ctrl = spin2_loose
    assert ctrl.p_min == 0.6 and ctrl.p_max == 0.65 and ctrl.sigma_bar == 2.0
    p = np.array([0.7, 0.1, 0.1, 0.05, 0.05])
    assert feedback_gain(p, ctrl) == 2.0  # saturated
    p = np.array([0.625, 0.1, 0.075, 0.1, 0.1])
    assert feedback_gain(p, ctrl) == pytest.approx(1.0)  # halfway up the ramp
    p = np.array([0.5, 0.125, 0.125, 0.125, 0.125])
    assert feedback_gain(p, ctrl) == 0.0  # below threshold


def test_feedback_gain_ignores_target_population(spin2_loose):
    meas, ctrl = spin2_loose
    # target population huge, every wrong population below p_min: gain off
    p = np.zeros(5)
    p[ctrl.target] = 0.9
    p[0] = 0.1
    assert feedback_gain(p, ctrl) == 0.0


def test_feedback_gain_relabeling_invariance(spin2_loose):
    meas, ctrl = spin2_loose
    rng = default_rng(5)
    perm = rng.permutation(5)
    p = rng.dirichlet(np.ones(5))
    ctrl_perm = control_setup(
        ctrl.H, meas.dec, int(np.argwhere(perm == ctrl.target)[0, 0]),
        ctrl.sigma_bar, ctrl.p_min, ctrl.p_max, ctrl.saturation,
    )
    assert feedback_gain(p[perm], ctrl_perm) == pytest.approx(feedback_gain(p, ctrl))


def test_feedback_gain_smoothstep_values():
    meas, ctrl = spin2_preset(p_min=0.6, saturation="smoothstep")
    # s = 1/2 -> phi = 1/2 (smoothstep fixes the midpoint)
    p = np.array([0.625, 0.1, 0.075, 0.1, 0.1])
    assert feedback_gain(p, ctrl) == pytest.approx(1.0)
    # s = 1/4 -> phi = 3/16 - 1/32 = 5/32
    p = np.array([0.6125, 0.1, 0.0875, 0.1, 0.1])
    assert feedback_gain(p, ctrl) == pytest.approx(2.0 * 5.0 / 32.0)


def test_feedback_gain_broadcasts(spin2_loose):
    meas, ctrl = spin2_loose
    batch = np.array(
        [
            [0.7, 0.1, 0.1, 0.05, 0.05],
            [0.5, 0.125, 0.125, 0.125, 0.125],
            [0.625, 0.1, 0.075, 0.1, 0.1],
        ]
    )
    out = feedback_gain(batch, ctrl)
    assert out.shape == (3,)
    single = [feedback_gain(row, ctrl) for row in batch]
    assert np.array_equal(out, single)


@pytest.mark.parametrize("saturation", ["piecewise_linear", "smoothstep"])
@pytest.mark.parametrize("J", [2.0, 4.0])
def test_feedback_gain_layout_independent(J, saturation):
    """feedback_gain gives the same bits on batch-last populations, a C-order batch and single rows.

    The engine passes the transpose of its (d, m) populations.  The rows
    cover random states, a tie between two wrong levels, a target that
    holds the largest population, and a wrong population exactly at p_min,
    exactly at p_max and between them.
    """
    meas, ctrl = spin2_preset(p_min=0.6, J=J, saturation=saturation)
    d, t = meas.dec.d, ctrl.target
    rng = default_rng(17)
    p = rng.dirichlet(np.ones(d), size=40)
    special = np.full((6, d), 0.2 / (d - 1))
    for row, worst in enumerate((ctrl.p_min, ctrl.p_max, 0.5 * (ctrl.p_min + ctrl.p_max))):
        special[row, (t + 1 + row) % d] = worst
    special[3, t] = 0.9  # target largest, gain off
    special[4, [(t + 1) % d, (t - 1) % d]] = 0.62  # tie between two wrong levels
    special[5] = 1.0 / d
    p = np.vstack([p, special])
    expected = feedback_gain(p, ctrl)
    assert feedback_gain(np.ascontiguousarray(p.T).T, ctrl).tobytes() == expected.tobytes()
    assert np.array([feedback_gain(row, ctrl) for row in p]).tobytes() == expected.tobytes()
    assert np.any(expected == 0.0) and np.any(expected == ctrl.sigma_bar)
    assert np.any((expected > 0.0) & (expected < ctrl.sigma_bar))


# ------------------------------------------------------- measurement update


# closed_loop_step with dB = 0 is the measurement-only (open-loop) step


def test_open_loop_step_matches_reference_composition(spin2_loose, rng):
    meas, ctrl = spin2_loose
    rho = random_density_matrix(5, rng)
    dt, dw = 1e-3, 0.02
    out = closed_loop_step(rho, meas, ctrl, StepInput(dt=dt, dW=dw))
    moved = rho + plain_dissipator(meas.L, rho) * dt + np.sqrt(meas.eta) * _innov(meas.L, rho) * dw
    assert np.allclose(out.rho_next, project_to_physical(moved), atol=1e-13, rtol=0.0)
    ex = np.trace(meas.L @ rho).real
    assert out.dY == pytest.approx(2.0 * np.sqrt(meas.eta) * ex * dt + dw, rel=1e-12)
    assert out.dv == 0.0 and out.sigma_used == 0.0


def test_open_loop_step_eta_zero_fixes_diagonal_states(spin2_loose):
    # with eta = 0 the record carries no information and diagonal states only
    # feel the dissipator, which vanishes on anything commuting with L; dyadic
    # populations keep the projection renormalization exact
    _, ctrl = spin2_loose
    meas = measurement_setup(np.diag([2.0, 1.0, 0.0, -1.0, -2.0]), eta=0.0)
    rho = np.diag([0.25, 0.25, 0.25, 0.125, 0.125]).astype(complex)
    out = closed_loop_step(rho, meas, ctrl, StepInput(dt=1e-3, dW=0.37))
    assert np.array_equal(out.rho_next, rho)
    assert out.dY == 0.37


def test_open_loop_step_fixes_eigenprojectors_bitwise(spin2_loose):
    meas, ctrl = spin2_loose
    for k in range(5):
        vertex = meas.dec.projectors[k].astype(complex)
        for dw in (0.0, 0.5, -1.7, 4.0):
            out = closed_loop_step(vertex, meas, ctrl, StepInput(dt=1e-3, dW=dw))
            assert np.array_equal(out.rho_next, vertex)


def test_open_loop_step_batch(spin2_loose, rng):
    meas, ctrl = spin2_loose
    batch = np.stack([random_density_matrix(5, rng) for _ in range(4)])
    dw = rng.normal(size=4) * np.sqrt(1e-3)
    out = closed_loop_step(batch, meas, ctrl, StepInput(dt=1e-3, dW=dw))
    assert out.rho_next.shape == (4, 5, 5)
    for i in range(4):
        single = closed_loop_step(batch[i], meas, ctrl, StepInput(dt=1e-3, dW=dw[i]))
        assert np.array_equal(out.rho_next[i], single.rho_next)
        assert out.dY[i] == single.dY


# ------------------------------------------------------------- closed loop


def test_closed_loop_sigma_bar_zero_equals_open_loop(spin2_loose, rng):
    meas, ctrl = spin2_loose
    ctrl0 = control_setup(ctrl.H, meas.dec, ctrl.target, 0.0, ctrl.p_min, ctrl.p_max)
    rho = np.stack([random_density_matrix(5, rng) for _ in range(3)])
    step = StepInput(dt=1e-3, dW=rng.normal(size=3), dB=rng.normal(size=3))
    closed = closed_loop_step(rho, meas, ctrl0, step)
    opened = closed_loop_step(rho, meas, ctrl, StepInput(dt=step.dt, dW=step.dW))
    assert np.array_equal(closed.rho_next, opened.rho_next)
    assert np.array_equal(closed.dY, opened.dY)
    assert np.all(closed.dv == 0.0)
    assert np.all(closed.sigma_used == 0.0)


def test_closed_loop_target_vertex_is_exact_fixed_point(spin2_loose):
    meas, ctrl = spin2_loose
    vertex = meas.dec.projectors[ctrl.target].astype(complex)
    out = closed_loop_step(vertex, meas, ctrl, StepInput(dt=1e-3, dW=-0.8, dB=2.5))
    # gain is zero at the target, so the exploration noise never acts
    assert out.sigma_used == 0.0
    assert out.dv == 0.0
    assert np.array_equal(out.rho_next, vertex)


def test_closed_loop_step_matches_reference_composition(spin2_loose, rng):
    meas, ctrl = spin2_loose
    # state with its worst wrong population inside the active ramp
    rho = np.diag([0.63, 0.1, 0.09, 0.1, 0.08]).astype(complex)
    rho[0, 1] = rho[1, 0] = 0.05
    dt, dw, db = 1e-3, -0.4, 0.9
    out = closed_loop_step(rho, meas, ctrl, StepInput(dt=dt, dW=dw, dB=db))
    sigma = feedback_gain(populations(rho, meas.dec), ctrl)
    assert sigma == pytest.approx(1.2)
    moved = rho + plain_dissipator(meas.L, rho) * dt + np.sqrt(meas.eta) * _innov(meas.L, rho) * dw
    moved = unitary_conjugate(ctrl.H, sigma * db, moved)
    assert np.allclose(out.rho_next, project_to_physical(moved), atol=1e-13, rtol=0.0)
    assert out.dv == pytest.approx(sigma * db, rel=1e-15)
    assert out.sigma_used == pytest.approx(sigma)


def test_closed_loop_step_batch_matches_scalar(spin2_loose, rng):
    meas, ctrl = spin2_loose
    # mix of active rows, inactive rows, and an exact vertex row
    rows = [random_density_matrix(5, rng) for _ in range(3)]
    rows.append(meas.dec.projectors[ctrl.target].astype(complex))
    rows.append(np.diag([0.7, 0.1, 0.1, 0.05, 0.05]).astype(complex))
    batch = np.stack(rows)
    dw = rng.normal(size=5)
    db = rng.normal(size=5)
    out = closed_loop_step(batch, meas, ctrl, StepInput(dt=1e-3, dW=dw, dB=db))
    for i in range(5):
        single = closed_loop_step(batch[i], meas, ctrl, StepInput(dt=1e-3, dW=dw[i], dB=db[i]))
        assert np.array_equal(out.rho_next[i], single.rho_next)
        assert out.dY[i] == single.dY
        assert out.dv[i] == single.dv
        assert out.sigma_used[i] == single.sigma_used


def test_closed_loop_population_generator(spin2_loose):
    """Monte Carlo check of E[d tr(A rho)] = tr(A (D_L + sigma^2 D_H) rho) dt.

    The control conjugation is exact, so averaging over dB reproduces the
    sigma^2 D_H drift without Euler bias in the control channel; antithetic
    pairs cancel the dW and dB odd terms.
    """
    meas, ctrl = spin2_loose
    rho = np.diag([0.63, 0.1, 0.09, 0.1, 0.08]).astype(complex)
    rho[0, 1] = rho[1, 0] = 0.05
    sigma = feedback_gain(populations(rho, meas.dec), ctrl)
    rng = default_rng(20260814)
    a = np.diag([1.0, -0.5, 0.25, 2.0, -1.0]).astype(complex)
    a[0, 2] = a[2, 0] = 0.3

    n_pairs = 50_000
    dt = 1e-5
    z_w = rng.standard_normal(n_pairs) * np.sqrt(dt)
    z_b = rng.standard_normal(n_pairs) * np.sqrt(dt)
    dw = np.concatenate([z_w, -z_w])
    db = np.concatenate([z_b, -z_b])
    batch = np.broadcast_to(rho, (2 * n_pairs, 5, 5))
    out = closed_loop_step(batch, meas, ctrl, StepInput(dt=dt, dW=dw, dB=db))
    base = np.trace(a @ rho).real
    incr = (np.einsum("ij,kji->k", a, out.rho_next).real - base) / dt
    pair_means = 0.5 * (incr[:n_pairs] + incr[n_pairs:])
    mc = pair_means.mean()
    se = pair_means.std(ddof=1) / np.sqrt(n_pairs)

    expected = np.trace(a @ (plain_dissipator(meas.L, rho) + sigma**2 * plain_dissipator(ctrl.H, rho))).real
    assert abs(mc - expected) <= 3.0 * se + 1e-3


def test_open_loop_populations_are_martingale(spin2_loose):
    meas, ctrl = spin2_loose
    n_traj, n_steps, dt = 2000, 250, 1e-3
    rng = default_rng(99)
    rho = np.broadcast_to(np.eye(5, dtype=complex) / 5.0, (n_traj, 5, 5)).copy()
    for _ in range(n_steps):
        dw = rng.standard_normal(n_traj) * np.sqrt(dt)
        rho = closed_loop_step(rho, meas, ctrl, StepInput(dt=dt, dW=dw)).rho_next
    p = populations(rho, meas.dec)
    for k in range(5):
        se = p[:, k].std(ddof=1) / np.sqrt(n_traj)
        assert abs(p[:, k].mean() - 0.2) <= 3.0 * se


# ---------------------------------------------------------------- validation


def test_measurement_setup_rejects_bad_eta():
    l = np.diag([1.0, -1.0])
    with pytest.raises(ValueError, match="efficiency"):
        measurement_setup(l, eta=1.2)
    with pytest.raises(ValueError, match="efficiency"):
        measurement_setup(l, eta=-0.1)


def test_control_setup_rejects_bad_parameters(spin2_loose):
    meas, ctrl = spin2_loose
    with pytest.raises(ValueError, match="target"):
        control_setup(ctrl.H, meas.dec, 5, 2.0, 0.6, 0.65)
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="sigma_bar"):
            control_setup(ctrl.H, meas.dec, 2, bad, 0.6, 0.65)
    with pytest.raises(ValueError, match="p_max"):
        control_setup(ctrl.H, meas.dec, 2, 2.0, 0.65, 0.6)
    with pytest.raises(ValueError, match="p_max"):
        control_setup(ctrl.H, meas.dec, 2, 2.0, 0.4, 0.65)
    with pytest.raises(ValueError, match="saturation"):
        control_setup(ctrl.H, meas.dec, 2, 2.0, 0.6, 0.65, saturation="tanh")
    with pytest.raises(ValueError, match="dim"):
        control_setup(np.zeros((3, 3)), meas.dec, 2, 2.0, 0.6, 0.65)


def _spin2_pair_with(case):
    """The spin-2 (L, H) with one change named by case."""
    L, H = build_spin_model(2)
    if case == "off_diagonal_L":
        L[0, 1] = L[1, 0] = 0.1
    elif case == "complex_diagonal_entry":
        L[1, 1] += 0.5j
    elif case == "ascending_L":
        L = L[::-1, ::-1]
    elif case == "degenerate_L":
        L[2, 2] = L[1, 1]
    elif case == "gap_below_tolerance":
        L[2, 2] = L[1, 1] - 2.0**-27  # 7.5e-9, exactly
    elif case == "gap_above_tolerance":
        L[2, 2] = L[1, 1] - 2.0**-26  # 1.5e-8, exactly
    elif case == "H_with_real_part":
        H[0, 1] += 0.3
        H[1, 0] += 0.3
    return L, H


REFUSED = [
    ("off_diagonal_L", "real diagonal"),
    ("complex_diagonal_entry", "real diagonal"),
    ("ascending_L", "strictly descending"),
    ("degenerate_L", "strictly descending"),
    ("gap_below_tolerance", "strictly descending"),
    ("H_with_real_part", "purely imaginary"),
]


@pytest.mark.parametrize("case, match", REFUSED, ids=[case for case, _ in REFUSED])
def test_setups_refuse_pairs_outside_the_model_class(case, match):
    """The setups take L real diagonal with gaps > DEGENERACY_TOL, descending, and H purely imaginary; nothing else."""
    L, H = _spin2_pair_with(case)
    with pytest.raises(ValueError, match=match):
        meas = measurement_setup(L, eta=0.8)
        control_setup(H, meas.dec, 2, 2.0, 0.6, 0.65)


def test_setups_accept_the_model_class_up_to_its_edges():
    """A complex dtype with zero imaginary parts, and a gap just above DEGENERACY_TOL, are in the class."""
    L, H = _spin2_pair_with("gap_above_tolerance")
    assert L.dtype == H.dtype == complex
    meas = measurement_setup(L, eta=0.8)
    assert DEGENERACY_TOL < meas.dec.eigenvalues[1] - meas.dec.eigenvalues[2] < 2.0 * DEGENERACY_TOL
    assert meas.dec.eigenvalues.tobytes() == np.diagonal(L).real.copy().tobytes()
    ctrl = control_setup(H, meas.dec, 2, 2.0, 0.6, 0.65)
    assert np.array_equal(ctrl.H, H)
