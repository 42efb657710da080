"""Campaign engine: noise layout, delay buffer, integrator, rate fits, CSV I/O."""

from dataclasses import replace

import numpy as np
import pytest

from qndstab import ensemble
from qndstab.core import UnrecoverableStateError, _kraus_diagonal, populations, unitary_conjugate
from qndstab.dynamics import control_setup, feedback_gain
from qndstab.ensemble import (
    ESTIMATORS,
    CampaignConfig,
    DelayedGainBuffer,
    EnsembleResult,
    FitDomainError,
    estimate_rate,
    noise_generator,
    run_ensemble,
    run_trajectory,
    write_series_csv,
    write_summary_csv,
)
from qndstab.filters import laplacian_matrix, population_filter_step
from qndstab.lyapunov import v_open
from qndstab.spin import build_spin_model, spin2_preset

from conftest import read_csv, trace

SEED = 4242


# ------------------------------------------------------------- noise layout


def test_noise_generator_reproducible():
    a = noise_generator(SEED, 5, 0).standard_normal(16)
    b = noise_generator(SEED, 5, 0).standard_normal(16)
    assert np.array_equal(a, b)


def test_noise_generator_streams_distinct():
    draws = [noise_generator(SEED, i, s).standard_normal(8) for i in range(4) for s in (0, 1)]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])
    assert not np.array_equal(
        noise_generator(SEED, 0, 0).standard_normal(8),
        noise_generator(SEED + 1, 0, 0).standard_normal(8),
    )


def test_noise_block_concatenation_invariant():
    # the integrator consumes each stream in NOISE_BLOCK slices; the result
    # must not depend on the slicing
    g1 = noise_generator(SEED, 0, 0)
    parts = [g1.standard_normal(ensemble.NOISE_BLOCK), g1.standard_normal(452)]
    g2 = noise_generator(SEED, 0, 0)
    whole = g2.standard_normal(ensemble.NOISE_BLOCK + 452)
    assert np.array_equal(np.concatenate(parts), whole)


# -------------------------------------------------------------- delay buffer


def test_delay_buffer_passthrough():
    buf = DelayedGainBuffer(0.0, 1e-3, width=3)
    sig = np.array([0.5, 1.0, 2.0])
    assert np.array_equal(buf.push(sig), sig)


def test_delay_buffer_shifts_by_integer_steps():
    buf = DelayedGainBuffer(3e-3, 1e-3)
    outs = [buf.push(np.array([float(k)])) for k in range(1, 7)]
    flat = [float(o[0]) for o in outs]
    assert flat == [0.0, 0.0, 0.0, 1.0, 2.0, 3.0]


def test_delay_buffer_constant_after_warmup():
    buf = DelayedGainBuffer(2e-3, 1e-3, width=2)
    c = np.array([1.7, 0.3])
    buf.push(c)
    buf.push(c)
    for _ in range(5):
        assert np.array_equal(buf.push(c), c)


def test_delay_buffer_rejects_fractional_delay():
    with pytest.raises(ValueError, match="multiple"):
        DelayedGainBuffer(1.5e-3, 1e-3)


# ------------------------------------------------------------- config rules


def test_campaign_config_validation():
    ok = dict(p_min=0.9, t_final=1.0, fit_window=(0.2, 0.8))
    CampaignConfig(**ok)
    with pytest.raises(ValueError, match="estimator"):
        CampaignConfig(**ok, estimator="kalman")
    with pytest.raises(ValueError, match="trajectories"):
        CampaignConfig(**ok, trajectories=0)
    with pytest.raises(ValueError, match="positive"):
        CampaignConfig(p_min=0.9, t_final=-1.0)
    with pytest.raises(ValueError, match="multiple of dt"):
        CampaignConfig(p_min=0.9, t_final=1.0005, dt=1e-2)
    with pytest.raises(ValueError, match="record_stride"):
        CampaignConfig(**ok, record_stride=0)
    with pytest.raises(ValueError, match="record_stride"):
        CampaignConfig(**ok, record_stride=3)  # 1000 steps not divisible
    with pytest.raises(ValueError, match="feedback_delay"):
        CampaignConfig(**ok, feedback_delay=-0.1)
    with pytest.raises(ValueError, match="feedback_delay"):
        CampaignConfig(**ok, feedback_delay=0.0015)
    with pytest.raises(ValueError, match="fit_window"):
        CampaignConfig(p_min=0.9, t_final=1.0, fit_window=(0.5, 2.0))
    with pytest.raises(ValueError, match="initial"):
        CampaignConfig(**ok, initial="pure")
    with pytest.raises(ValueError, match="workers"):
        CampaignConfig(**ok, workers=0)
    # the model fields fail at construction, not later inside a worker
    for over, needle in (
        (dict(p_min=0.4), "p_min"),
        (dict(eta=1.4), "eta"),
        (dict(sigma_bar=-1.0), "sigma_bar"),
        (dict(saturation="cubic"), "saturation"),
        (dict(J=2.3), "J must be"),
        (dict(J=-1.0), "J must be"),
        (dict(base_seed=-1), "base_seed"),
        (dict(base_seed=2**64), "base_seed"),
        (dict(fit_window=(0.2, 0.5, 0.8)), "fit_window"),
    ):
        with pytest.raises(ValueError, match=needle):
            CampaignConfig(**{**ok, **over})
    CampaignConfig(**ok, base_seed=0)
    CampaignConfig(**ok, base_seed=2**64 - 1)


def test_campaign_config_steps_properties():
    cfg = CampaignConfig(p_min=0.9, t_final=2.0, dt=1e-3, feedback_delay=0.5, fit_window=(0.5, 1.5))
    assert cfg.n_steps == 2000


# ---------------------------------------------------------------- integrator


def _small_cfg(**over):
    base = dict(
        p_min=0.6,
        t_final=0.5,
        estimator="truth",
        trajectories=1,
        dt=1e-3,
        record_stride=1,
        base_seed=SEED,
        fit_window=(0.1, 0.4),
    )
    base.update(over)
    return CampaignConfig(**base)


def _kraus_step(rho, meas, dy, dt):
    """Complex Rouchon-Ralph measurement step from core primitives, before the trace division.

    M rho M^dag + (1 - eta) dt L rho L^dag with M = I - L^2 dt / 2 + sqrt(eta) L dy
    + (eta / 2) L^2 (dy^2 - dt).
    """
    L, eta = meas.L, meas.eta
    dy = np.asarray(dy, dtype=float)[..., None, None]
    l2 = L @ L
    kraus = np.eye(5) - 0.5 * dt * l2 + np.sqrt(eta) * dy * L + 0.5 * eta * (dy * dy - dt) * l2
    return kraus @ rho @ np.conj(np.swapaxes(kraus, -1, -2)) + (1.0 - eta) * dt * (L @ rho @ L)


def _averaged_control_step(rho, h, sigma, dt):
    """Complex Kraus map of the averaged control channel: K rho K^dag + s H rho H^dag, K = I - (s/2) H^2, s = sigma^2 dt."""
    s = (np.asarray(sigma) ** 2 * dt)[..., None, None]
    kraus = np.eye(5) - 0.5 * s * (h @ h)
    return kraus @ rho @ np.conj(np.swapaxes(kraus, -1, -2)) + s * (h @ rho @ h)


def _record_increment(rho, meas, dw, dt):
    return 2.0 * np.sqrt(meas.eta) * np.einsum("ij,...ji->...", meas.L, rho).real * dt + dw


def test_engine_matches_public_step_composition():
    """The lockstep integrator agrees with the Kraus step composed from core primitives.

    At p_min 0.51 the control engages after about 550 of the 1000 steps, so
    the rotation is pinned too.
    """
    cfg = _small_cfg(p_min=0.51, p_max=0.56, t_final=1.0)
    steps = cfg.n_steps
    trace_ = run_trajectory(cfg, 0)
    meas, ctrl = cfg.setups()
    dw = noise_generator(SEED, 0, 0).standard_normal(steps) * np.sqrt(cfg.dt)
    db = noise_generator(SEED, 0, 1).standard_normal(steps) * np.sqrt(cfg.dt)
    rho = np.eye(5, dtype=complex) / 5.0
    errs = [np.sqrt(1.0 - populations(rho, meas.dec)[ctrl.target])]
    vops = [v_open(populations(rho, meas.dec))]
    engaged = 0
    for j in range(steps):
        dv = feedback_gain(populations(rho, meas.dec), ctrl) * db[j]
        engaged += dv != 0.0
        dy = _record_increment(rho, meas, dw[j], cfg.dt)
        rho = unitary_conjugate(ctrl.H, dv, _kraus_step(rho, meas, dy, cfg.dt))
        rho = rho / trace(rho)
        p = populations(rho, meas.dec)
        errs.append(np.sqrt(max(1.0 - p[ctrl.target], 0.0)))
        vops.append(v_open(p))
    assert engaged > 0  # the control rotation is part of the composition
    assert trace_.error.shape == (steps + 1,)
    assert np.max(np.abs(trace_.error - errs)) < 1e-9
    assert np.max(np.abs(trace_.v_open - vops)) < 1e-9
    assert np.max(np.abs(trace_.final_populations - populations(rho, meas.dec))) < 1e-9


def test_engine_reduced_filter_matches_complex_kraus_step():
    """The engine's real reduced filter agrees with its complex Kraus form built from core primitives.

    The reference takes the complex Kraus measurement step, then the
    averaged control channel's Kraus map.  The plant's gain is read from
    the filter, so any difference in the filter moves the recorded errors
    of the true state.
    """
    cfg = _small_cfg(estimator="reduced_filter", p_min=0.51, p_max=0.56, trajectories=4, t_final=1.0)
    result = run_ensemble(cfg)
    meas, ctrl = cfg.setups()
    m, steps = cfg.trajectories, cfg.n_steps
    dw = np.stack([noise_generator(SEED, i, 0).standard_normal(steps) for i in range(m)]) * np.sqrt(cfg.dt)
    db = np.stack([noise_generator(SEED, i, 1).standard_normal(steps) for i in range(m)]) * np.sqrt(cfg.dt)
    rho = np.broadcast_to(np.eye(5, dtype=complex) / 5.0, (m, 5, 5)).copy()
    rho_hat = rho.copy()
    errs = [np.sqrt(1.0 - populations(rho, meas.dec)[:, ctrl.target])]
    engaged = 0
    for j in range(steps):
        sigma = feedback_gain(populations(rho_hat, meas.dec), ctrl)
        dv = sigma * db[:, j]
        engaged += np.count_nonzero(dv)
        dy = _record_increment(rho, meas, dw[:, j], cfg.dt)
        rho = unitary_conjugate(ctrl.H, dv, _kraus_step(rho, meas, dy, cfg.dt))
        rho = rho / trace(rho)[:, None, None]
        rho_hat = _averaged_control_step(_kraus_step(rho_hat, meas, dy, cfg.dt), ctrl.H, sigma, cfg.dt)
        rho_hat = rho_hat / trace(rho_hat)[:, None, None]
        errs.append(np.sqrt(np.clip(1.0 - populations(rho, meas.dec)[:, ctrl.target], 0.0, None)))
    assert engaged > steps  # the filter drives the plant on many steps
    assert np.max(np.abs(result.error_traces - np.stack(errs, axis=1))) < 1e-9
    assert np.max(np.abs(result.final_populations - populations(rho, meas.dec))) < 1e-9


def test_engine_population_filter_matches_public_filter_step():
    """The engine's population filter agrees with filters.population_filter_step beside a Kraus plant.

    The plant's gain is read from the filter, so any difference in the
    filter moves the recorded errors of the true state.
    """
    cfg = _small_cfg(estimator="population_filter", p_min=0.51, p_max=0.56, trajectories=4, t_final=1.0)
    result = run_ensemble(cfg)
    meas, ctrl = cfg.setups()
    delta = laplacian_matrix(ctrl.H, meas.dec)
    m, steps = cfg.trajectories, cfg.n_steps
    dw = np.stack([noise_generator(SEED, i, 0).standard_normal(steps) for i in range(m)]) * np.sqrt(cfg.dt)
    db = np.stack([noise_generator(SEED, i, 1).standard_normal(steps) for i in range(m)]) * np.sqrt(cfg.dt)
    rho = np.broadcast_to(np.eye(5, dtype=complex) / 5.0, (m, 5, 5)).copy()
    p_hat = np.full((m, 5), 0.2)
    errs = [np.sqrt(1.0 - populations(rho, meas.dec)[:, ctrl.target])]
    engaged = 0
    for j in range(steps):
        dv = feedback_gain(p_hat, ctrl) * db[:, j]
        engaged += np.count_nonzero(dv)
        dy = _record_increment(rho, meas, dw[:, j], cfg.dt)
        rho = unitary_conjugate(ctrl.H, dv, _kraus_step(rho, meas, dy, cfg.dt))
        rho = rho / trace(rho)[:, None, None]
        p_hat = population_filter_step(p_hat, meas, ctrl, delta, dy, cfg.dt)
        errs.append(np.sqrt(np.clip(1.0 - populations(rho, meas.dec)[:, ctrl.target], 0.0, None)))
    assert engaged > steps  # the filter drives the plant on many steps
    assert np.max(np.abs(result.error_traces - np.stack(errs, axis=1))) < 1e-9
    assert np.max(np.abs(result.final_populations - populations(rho, meas.dec))) < 1e-9


def test_engine_filters_agree_bitwise_in_open_loop(monkeypatch):
    """sigma_bar = 0: the reduced filter's diagonal is the population filter, bit for bit, on an engine chunk.

    Both filters then take only the plant's measurement stage; the gain
    reads each filter's estimate every step, so a spy on it records them.
    """
    seen = {}

    def spy(estimator):
        def gain(p, ctrl):
            seen[estimator].append(np.array(p))
            return feedback_gain(p, ctrl)

        return gain

    for estimator in ("reduced_filter", "population_filter"):
        seen[estimator] = []
        monkeypatch.setattr(ensemble, "feedback_gain", spy(estimator))
        ensemble._integrate_chunk(_small_cfg(estimator=estimator, sigma_bar=0.0, trajectories=6), 0, 6)
    reduced, population = np.array(seen["reduced_filter"]), np.array(seen["population_filter"])
    assert reduced.shape == (500, 6, 5)
    assert np.max(np.abs(reduced[-1] - reduced[0])) > 0.1  # the estimates move
    assert reduced.tobytes() == population.tobytes()


def test_engine_target_start_is_exact_fixed_point(monkeypatch):
    """Every eigenstate |k><k| of L, the target and each wrong one, is a bitwise fixed point in open loop.

    A wrong eigenstate is started through a control setup that names it as
    the target; with sigma_bar = 0 the loop is open.
    """
    meas, ctrl = _small_cfg().setups()
    cfg = _small_cfg(initial="target", sigma_bar=0.0, trajectories=3)
    for level in range(5):
        ctrl_k = control_setup(ctrl.H, meas.dec, level, 0.0, ctrl.p_min, ctrl.p_max)
        monkeypatch.setattr(ensemble, "spin2_preset", lambda ctrl_k=ctrl_k, **model: (meas, ctrl_k))
        result = run_ensemble(cfg)
        assert np.all(result.error_traces == 0.0), level
        assert np.all(result.v_open_traces == 0.0), level
        expected = np.zeros(5)
        expected[level] = 1.0
        assert np.array_equal(result.final_populations, np.tile(expected, (3, 1))), level


def test_schur_factor_rows_match_outer_product():
    """The kernel's packed factor holds m_i m_j + (1 - eta) dt l_i l_j at every (i, j), bit for bit.

    The expected factor packs the full outer products, with m from a
    width-1 kernel's Kraus rows, which broadcast against the increments.
    """
    rng = np.random.default_rng(23)
    for J in (0.5, 2.0, 4.0):
        meas, ctrl = spin2_preset(0.6, J=J, eta=0.7)
        lvec, dy, dt = meas.dec.eigenvalues, rng.normal(scale=0.05, size=7), 1e-3
        kern = ensemble._Kernel(meas, ctrl, dt, dy.size)
        mvec = _kraus_diagonal(0.7, dt, dy, ensemble._Kernel(meas, ctrl, dt, 1).rows).T
        full = mvec[:, :, None] * mvec[:, None, :] + (1.0 - 0.7) * dt * np.outer(lvec, lvec)
        assert kern.factor(dy).tobytes() == kern.pk.pack(full).tobytes(), J


def test_kraus_step_stays_positive_where_euler_fails():
    """One coarse step at eta = 1: the Euler factor leaves the state cone, the Kraus factor does not."""
    meas, ctrl = _small_cfg(eta=1.0).setups()
    lvec = np.diagonal(meas.L).real
    dt, dw = 0.1, 0.8
    psi = np.full(5, 1.0 / np.sqrt(5.0))
    rho = np.outer(psi, psi)
    ex = lvec @ np.diagonal(rho)
    euler = rho * (1.0 - 0.5 * dt * np.subtract.outer(lvec, lvec) ** 2 + (np.add.outer(lvec, lvec) - 2.0 * ex) * dw)
    assert np.min(np.linalg.eigvalsh(euler)) < -1e-12
    kern = ensemble._Kernel(meas, ctrl, dt, 1)
    kraus = kern.pk.pack(rho[None])
    kern.measure(kraus, np.array([dw]))
    ensemble._normalize(kraus, 5, 0, 1)
    kraus = kern.pk.unpack(kraus)[0]
    assert np.min(np.linalg.eigvalsh(kraus)) >= -1e-12
    assert abs(np.trace(kraus) - 1.0) <= 1e-12


def test_normalize_rejects_lost_trace():
    pk = ensemble._Packed(2)
    good = np.eye(2) / 2.0
    for bad in (np.zeros((2, 2)), -good, np.full((2, 2), np.nan), np.diag([np.inf, 0.0])):
        with pytest.raises(UnrecoverableStateError, match="trajectory 8 "):
            ensemble._normalize(pk.pack(np.stack([good, bad])), 2, 7, 3)
    rho = pk.pack(np.stack([2.0 * good, 4.0 * good]))
    ensemble._normalize(rho, 2, 0, 1)
    assert np.array_equal(pk.unpack(rho), np.stack([good, good]))


def test_engine_survives_coarse_step_and_strong_control():
    """dt = 0.02 at eta = 1 with a strong control: no exception, populations on the simplex."""
    cfg = _small_cfg(
        eta=1.0, sigma_bar=20.0, p_min=0.51, p_max=0.56, dt=0.02, t_final=4.0,
        record_stride=10, trajectories=50, fit_window=(1.0, 4.0),
    )
    result = run_ensemble(cfg)
    p = result.final_populations
    assert np.all(np.isfinite(result.error_traces))
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12


def test_run_trajectory_equals_ensemble_member():
    cfg = _small_cfg(trajectories=5)
    result = run_ensemble(cfg)
    for index in (0, 3, 4):
        trace = run_trajectory(cfg, index)
        assert np.array_equal(trace.error, result.error_traces[index])
        assert np.array_equal(trace.v_open, result.v_open_traces[index])
        assert np.array_equal(trace.final_populations, result.final_populations[index])
    with pytest.raises(ValueError, match="index"):
        run_trajectory(cfg, 5)


def test_truth_and_full_observer_agree_from_shared_start():
    # the full observer starts at the true state with shared noise, so it
    # takes the plant's own step; the control engages after the delay
    shared = dict(
        t_final=2.0, trajectories=3, record_stride=10, fit_window=(0.5, 1.5),
        p_min=0.51, p_max=0.56, feedback_delay=0.1,
    )
    r_t = run_ensemble(_small_cfg(**shared))
    r_o = run_ensemble(_small_cfg(estimator="full_observer", **shared))
    assert np.any(r_t.error_traces != run_ensemble(_small_cfg(sigma_bar=0.0, **shared)).error_traces)
    for name in ("error_traces", "v_open_traces", "final_populations"):
        assert getattr(r_t, name).tobytes() == getattr(r_o, name).tobytes()
    assert r_t.fitted_rate == r_o.fitted_rate


def test_delayed_loop_runs_open_prefix():
    """Gain is held at zero for the first delay interval, bit-exactly."""
    shared = dict(t_final=0.6, trajectories=5, p_min=0.51, p_max=0.56, fit_window=(0.1, 0.5))
    cfg_delay = _small_cfg(feedback_delay=0.2, **shared)
    cfg_open = _small_cfg(sigma_bar=0.0, **shared)
    r_delay = run_ensemble(cfg_delay)
    r_open = run_ensemble(cfg_open)
    prefix = r_delay.times <= 0.2
    assert np.array_equal(r_delay.error_traces[:, prefix], r_open.error_traces[:, prefix])
    # after the warmup the held gain activates and the paths separate
    assert np.any(r_delay.error_traces != r_open.error_traces)


def test_ensemble_chunked_workers_deterministic(monkeypatch):
    monkeypatch.setattr(ensemble, "CHUNK", 3)
    for estimator in ESTIMATORS:
        cfg = _small_cfg(trajectories=7, p_min=0.51, p_max=0.56, estimator=estimator)
        r1 = run_ensemble(cfg)
        # workers 1-3 give chunks of 2, 2, 3 rows; workers 4 gives 1, 2, 2, 2
        for workers in (2, 3, 4):
            rw = run_ensemble(replace(cfg, workers=workers))
            assert rw.error_traces.tobytes() == r1.error_traces.tobytes(), (estimator, workers)
            assert rw.final_populations.tobytes() == r1.final_populations.tobytes(), (estimator, workers)
            assert rw.fitted_rate == r1.fitted_rate
        # a lone twin of a row in the last chunk
        twin = run_trajectory(cfg, 6)
        assert twin.error.tobytes() == r1.error_traces[6].tobytes(), estimator
        assert twin.final_populations.tobytes() == r1.final_populations[6].tobytes(), estimator
    # chunk layout itself must not matter either
    r1 = run_ensemble(_small_cfg(trajectories=7))
    monkeypatch.setattr(ensemble, "CHUNK", 4)
    r3 = run_ensemble(_small_cfg(trajectories=7, workers=1))
    assert np.array_equal(r1.error_traces, r3.error_traces)


def test_noise_tiles_and_block_edges_keep_every_trajectory():
    """130 trajectories draw their noise in tiles of 64, 64 and 2, over 700 steps that NOISE_BLOCK does not divide.

    Members at both edges of each tile equal their width-1 twins, and
    workers 2 and 3 (chunks of 65 and of 43-44 rows, one tile each) give
    the same bytes and the same engaged column-steps.
    """
    assert 700 % ensemble.NOISE_BLOCK != 0 and -(-130 // ensemble.NOISE_TILE) == 3
    fields = ("error_traces", "v_open_traces", "final_populations")
    for estimator in ("truth", "population_filter"):
        cfg = _small_cfg(
            trajectories=130, t_final=0.7, record_stride=10, p_min=0.51, p_max=0.56,
            feedback_delay=0.05, estimator=estimator, fit_window=(0.1, 0.6),
        )
        r1 = run_ensemble(cfg)
        assert r1.engaged_column_steps > 0
        for index in (0, 63, 64, 127, 128, 129):
            twin = run_trajectory(cfg, index)
            assert twin.error.tobytes() == r1.error_traces[index].tobytes(), (estimator, index)
            assert twin.v_open.tobytes() == r1.v_open_traces[index].tobytes(), (estimator, index)
            assert twin.final_populations.tobytes() == r1.final_populations[index].tobytes(), (estimator, index)
        for workers in (2, 3):
            rw = run_ensemble(replace(cfg, workers=workers))
            for field in fields:
                assert getattr(rw, field).tobytes() == getattr(r1, field).tobytes(), (estimator, workers, field)
            assert rw.engaged_column_steps == r1.engaged_column_steps, (estimator, workers)


def test_engaged_column_steps_count_the_rotated_columns(monkeypatch):
    """The engine's counter equals the columns its rotation stage receives, and is zero in open loop."""
    rotated = []
    rotate = ensemble._rotate

    def counting_rotate(mats, x, *args):
        rotated.append(x.size)
        return rotate(mats, x, *args)

    monkeypatch.setattr(ensemble, "_rotate", counting_rotate)
    cfg = _small_cfg(trajectories=6, p_min=0.51, p_max=0.56, feedback_delay=0.1, estimator="reduced_filter")
    result = run_ensemble(cfg)
    assert 0 < result.engaged_column_steps == sum(rotated) < cfg.trajectories * cfg.n_steps
    assert run_ensemble(replace(cfg, sigma_bar=0.0)).engaged_column_steps == 0


def test_ensemble_layout_invariant_at_nine_levels(monkeypatch):
    """J = 4 (n = 9): numpy sums 8 or more contiguous terms pairwise, which a width-1 chunk must not reach.

    Workers 4 gives chunks of 1, 2, 2, 2 rows, and run_trajectory is a
    width-1 chunk too; the control engages on every row.
    """
    monkeypatch.setattr(ensemble, "CHUNK", 3)
    fields = ("error_traces", "v_open_traces", "final_populations")
    for estimator in ESTIMATORS:
        cfg = _small_cfg(J=4.0, trajectories=7, p_min=0.51, p_max=0.56, t_final=1.0, estimator=estimator, fit_window=(0.1, 0.9))
        r1 = run_ensemble(cfg)
        for workers in (2, 3, 4):
            rw = run_ensemble(replace(cfg, workers=workers))
            for field in fields:
                assert getattr(rw, field).tobytes() == getattr(r1, field).tobytes(), (estimator, workers, field)
        for index in (0, 6):
            twin = run_trajectory(cfg, index)
            assert twin.error.tobytes() == r1.error_traces[index].tobytes(), (estimator, index)
            assert twin.v_open.tobytes() == r1.v_open_traces[index].tobytes(), (estimator, index)
            assert twin.final_populations.tobytes() == r1.final_populations[index].tobytes(), (estimator, index)


def test_chunk_layout_follows_workers():
    assert ensemble._chunk_bounds(1000, 1) == [(0, 1000)]
    assert ensemble._chunk_bounds(1000, 2) == [(0, 500), (500, 1000)]
    assert ensemble._chunk_bounds(2500, 2) == [(0, 833), (833, 1666), (1666, 2500)]
    assert ensemble._chunk_bounds(3, 8) == [(0, 1), (1, 2), (2, 3)]


def test_engine_rejects_degenerate_control_spectrum(monkeypatch):
    """Two rotation planes at one frequency: the control rotation's pairing needs a nondegenerate spectrum."""
    meas, ctrl = _small_cfg().setups()
    gen = np.zeros((5, 5))
    gen[0, 1] = gen[3, 4] = 1.0
    h = 1j * (gen - gen.T)
    assert np.allclose(np.linalg.eigvalsh(h), [-1.0, -1.0, 0.0, 1.0, 1.0])
    ctrl_deg = control_setup(h, meas.dec, ctrl.target, ctrl.sigma_bar, ctrl.p_min, ctrl.p_max)
    monkeypatch.setattr(ensemble, "spin2_preset", lambda **model: (meas, ctrl_deg))
    with pytest.raises(ValueError, match="nondegenerate spectrum"):
        run_trajectory(_small_cfg(), 0)


@pytest.mark.parametrize("J", [0.5, 1.0, 2.0, 4.0, "random"])
def test_plane_rotations_match_eigen_sum(J):
    """One (cos, sin) pair per rotation plane gives the eigen-sum exp(-i H x) within 1e-14, orthogonal.

    The reference is the full complex eigen-sum over all n eigenvalues.
    Angles run from 0 to several turns; "random" is a dense purely
    imaginary H at n = 6, with no zero mode.
    """
    rng = np.random.default_rng(41)
    if J == "random":
        a = rng.standard_normal((6, 6))
        h = 1j * (a - a.T)
    else:
        _, h = build_spin_model(J)
    n = h.shape[0]
    x = np.concatenate([[0.0, 1e-3, -2.5], rng.normal(scale=3.0, size=40)])
    w, basis = ensemble._rotation_planes(h)
    assert w.shape == (n // 2,) and basis.shape == (n, n, n)
    rot = ensemble._rotations(x, w, basis)
    hw, hv = np.linalg.eigh(h)
    ref = (hv[None] * np.exp(-1j * x[:, None, None] * hw)) @ np.conj(hv.T)
    assert np.max(np.abs(ref.imag)) <= 1e-14
    assert np.max(np.abs(rot - ref.real)) <= 1e-14
    assert np.max(np.abs(rot @ np.swapaxes(rot, 1, 2) - np.eye(n))) <= 1e-14


def test_ensemble_aggregates_are_consistent():
    cfg = _small_cfg(trajectories=8, t_final=1.0, record_stride=10, fit_window=(0.2, 0.8))
    result = run_ensemble(cfg)
    assert result.error_traces.shape == (8, 101)
    # no trajectory is lost, so the series CSV's n_alive column is cfg.trajectories
    assert np.all(np.isfinite(result.error_traces))
    assert np.array_equal(result.mean_error, np.nanmean(result.error_traces, axis=0))
    assert np.array_equal(result.mean_v_open, np.nanmean(result.v_open_traces, axis=0))
    assert np.all(result.q10 <= result.q50 + 1e-15)
    assert np.all(result.q50 <= result.q90 + 1e-15)
    # the stored fit is reproducible from the result itself
    nu, ci = estimate_rate(result)
    assert result.fitted_rate == nu
    assert result.fit_ci == ci


# ---------------------------------------------------------------- rate fits


def _synthetic_result(traces, times, v_traces=None, base_seed=SEED, fit_window=(1.0, 9.0)):
    cfg = CampaignConfig(
        p_min=0.9, t_final=float(times[-1]), dt=1e-3,
        record_stride=int(round((times[1] - times[0]) / 1e-3)),
        trajectories=traces.shape[0], base_seed=base_seed, fit_window=fit_window,
    )
    if v_traces is None:
        v_traces = traces
    return EnsembleResult(
        cfg=cfg,
        times=times,
        mean_error=np.nanmean(traces, axis=0),
        q10=np.nanpercentile(traces, 10.0, axis=0),
        q50=np.nanpercentile(traces, 50.0, axis=0),
        q90=np.nanpercentile(traces, 90.0, axis=0),
        mean_v_open=np.nanmean(v_traces, axis=0),
        error_traces=traces,
        v_open_traces=v_traces,
        final_populations=np.full((traces.shape[0], 5), 0.2),
        fitted_rate=np.nan,
        fit_ci=(np.nan, np.nan),
    )


def test_estimate_rate_exact_exponential():
    times = np.arange(101) * 0.1
    traces = np.tile(np.exp(-0.3 * times), (32, 1))
    result = _synthetic_result(traces, times)
    nu, (lo, hi) = estimate_rate(result)
    assert nu == pytest.approx(0.3, abs=1e-9)
    # identical trajectories: every resample refits the same series
    assert lo == pytest.approx(nu, abs=1e-9)
    assert hi == pytest.approx(nu, abs=1e-9)


def test_estimate_rate_tolerates_modulation():
    times = np.arange(101) * 0.1
    clean = np.exp(-0.3 * times)
    traces = np.tile(clean * (1.0 + 0.01 * np.sin(2.0 * np.pi * times / 3.0)), (32, 1))
    nu, _ = estimate_rate(_synthetic_result(traces, times))
    assert abs(nu - 0.3) < 0.01


def test_estimate_rate_constant_series_gives_zero():
    times = np.arange(101) * 0.1
    traces = np.full((8, 101), 0.5)
    nu, _ = estimate_rate(_synthetic_result(traces, times))
    assert abs(nu) < 1e-12


def test_estimate_rate_selects_series():
    times = np.arange(101) * 0.1
    err = np.tile(np.exp(-0.3 * times), (8, 1))
    vop = np.tile(np.exp(-0.7 * times), (8, 1))
    result = _synthetic_result(err, times, v_traces=vop)
    nu_v, _ = estimate_rate(result, series="v_open")
    assert nu_v == pytest.approx(0.7, abs=1e-9)
    with pytest.raises(ValueError, match="series"):
        estimate_rate(result, series="martingale")


def test_estimate_rate_domain_errors():
    times = np.arange(101) * 0.1
    traces = np.tile(np.exp(-0.3 * times), (8, 1))
    with pytest.raises(FitDomainError, match="fewer than two"):
        estimate_rate(_synthetic_result(traces, times, fit_window=(1.0, 1.05)))
    dead = traces.copy()
    dead[:, 50] = 0.0
    with pytest.raises(FitDomainError, match="nonpositive"):
        estimate_rate(_synthetic_result(dead, times))


def test_estimate_rate_bootstrap_is_deterministic():
    times = np.arange(101) * 0.1
    rng = np.random.default_rng(3)
    traces = np.exp(-0.3 * times) * (1.0 + 0.05 * rng.standard_normal((32, 101)))
    traces = np.clip(traces, 1e-6, None)
    result = _synthetic_result(traces, times)
    first = estimate_rate(result)
    second = estimate_rate(result)
    assert first == second
    third = estimate_rate(_synthetic_result(traces, times, base_seed=SEED + 1))
    assert first[0] == third[0]  # point estimate ignores the bootstrap seed
    assert first[1] != third[1]


# -------------------------------------------------------------------- CSV IO


def test_csv_round_trips(tmp_path):
    cfg = CampaignConfig(
        p_min=0.6, t_final=2.0, estimator="population_filter", trajectories=16,
        dt=1e-3, record_stride=100, base_seed=77, fit_window=(0.5, 1.5),
    )
    result = run_ensemble(cfg)
    series_path = tmp_path / "series.csv"
    summary_path = tmp_path / "summary.csv"
    write_series_csv(result, str(series_path))
    write_summary_csv(result, str(summary_path))

    rows = read_csv(series_path)
    assert list(rows[0]) == ["t", "mean_error", "q10", "q50", "q90", "n_alive"]
    for key, column in (("t", result.times), ("mean_error", result.mean_error), ("q10", result.q10),
                        ("q50", result.q50), ("q90", result.q90)):
        assert np.array_equal([float(row[key]) for row in rows], column), key
    assert [row["n_alive"] for row in rows] == [str(cfg.trajectories)] * len(result.times)

    (summary,) = read_csv(summary_path)
    assert list(summary) == [
        "nu_hat", "ci_low", "ci_high", "trajectories", "t_final", "dt", "record_stride",
        "p_min", "p_max", "sigma_bar", "eta", "estimator", "feedback_delay", "base_seed",
        "fit_t_start", "fit_t_end", "saturation", "J", "initial",
    ]
    assert float(summary["nu_hat"]) == result.fitted_rate
    assert float(summary["ci_low"]) == result.fit_ci[0]
    assert float(summary["ci_high"]) == result.fit_ci[1]
    assert summary["trajectories"] == "16"
    assert summary["estimator"] == "population_filter"
    assert summary["initial"] == "mixed"
    assert float(summary["p_max"]) == 0.65
    assert float(summary["sigma_bar"]) == 2.0
    assert float(summary["J"]) == 2.0
