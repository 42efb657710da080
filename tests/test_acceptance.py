"""Acceptance gate: one test per shipping criterion, one printed verdict line each.

The verdict lines are collected in VERDICTS and echoed after the run by the
pytest_terminal_summary hook in conftest, so they appear without -s.  The
figure campaigns and the open-loop baseline are session fixtures shared
across criteria.
"""

import time

import numpy as np
import pytest
from numpy.random import default_rng

from qndstab.cli import main
from qndstab.core import (
    UnrecoverableStateError,
    _rowsum,
    populations,
    random_density_matrix,
    validate_density_matrix,
)
from qndstab.dynamics import StepInput, closed_loop_step, control_setup, feedback_gain
from qndstab.ensemble import (
    CampaignConfig,
    _kraus_factor,
    _normalize,
    _Packed,
    estimate_rate,
    read_series_csv,
    read_summary_csv,
    run_ensemble,
)
from qndstab.filters import _averaged_control, _bands, _population_update, laplacian_matrix
from qndstab.lyapunov import certify_decay, generator_terms, solve_alpha, v_alpha

from conftest import averaged_operands, kraus_constants

FIGURES = ("fig1", "fig2", "fig3", "fig4")

VERDICTS: list[str] = []


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    VERDICTS.append(line)
    print(line, flush=True)
    assert ok, line


def _status(msg: str) -> None:
    print(f"acceptance: {msg}", flush=True)


@pytest.fixture(scope="session")
def open_loop_campaign():
    cfg = CampaignConfig(
        p_min=0.9,
        t_final=10.0,
        estimator="truth",
        sigma_bar=0.0,
        trajectories=1000,
        dt=1e-3,
        record_stride=100,
        fit_window=(2.0, 8.0),
    )
    _status("running open-loop baseline campaign (1000 trajectories)")
    t0 = time.perf_counter()
    result = run_ensemble(cfg)
    elapsed = time.perf_counter() - t0
    return result, elapsed


@pytest.fixture(scope="session")
def fig_artifacts(tmp_path_factory):
    """Run the four benchmark campaigns; fig2 twice with different worker counts.

    Results do not depend on the worker count (criterion 12), so every
    campaign but the one-worker fig2 run uses both cores.
    """
    dirs = {}
    for fig in FIGURES:
        out = tmp_path_factory.mktemp(fig)
        workers = "1" if fig == "fig2" else "2"
        _status(f"running {fig} campaign (1000 trajectories, {workers} workers)")
        main(["reproduce", fig, "--out", str(out), "--workers", workers])
        dirs[fig] = out
    out2 = tmp_path_factory.mktemp("fig2_workers2")
    _status("re-running fig2 with workers=2")
    main(["reproduce", "fig2", "--out", str(out2), "--workers", "2"])
    dirs["fig2_workers2"] = out2
    return dirs


def _fig_summary(dirs, fig):
    return read_summary_csv(str(dirs[fig] / f"{fig}_summary.csv"))


def test_criterion_01_open_loop_rate(open_loop_campaign):
    result, elapsed = open_loop_campaign
    nu, _ = estimate_rate(result, series="v_open")
    ok = 0.32 <= nu <= 0.48 and elapsed < 300.0
    _report(1, "open-loop Lyapunov rate", ok, f"nu={nu:.4f} in [0.32, 0.48], runtime {elapsed:.1f}s < 300s")


def test_criterion_02_population_martingale(open_loop_campaign):
    result, _ = open_loop_campaign
    final_p = result.final_populations
    n = final_p.shape[0]
    worst = 0.0
    for k in range(5):
        dev = abs(final_p[:, k].mean() - 0.2)
        lim = 3.0 * final_p[:, k].std(ddof=1) / np.sqrt(n)
        worst = max(worst, dev / lim)
    _report(2, "QND population martingale", worst <= 1.0, f"max |mean-0.2| = {worst:.3f} of the 3 SE budget")


def test_criterion_03_fig1_band(fig_artifacts):
    s = _fig_summary(fig_artifacts, "fig1")
    nu = float(s["nu_hat"])
    lo, hi = float(s["ci_low"]), float(s["ci_high"])
    in_band = 0.02 <= nu <= 0.06
    ci_overlaps = lo <= 0.06 and hi >= 0.02
    _report(
        3, "threshold 0.9 truth-loop rate", in_band and ci_overlaps,
        f"nu={nu:.4f} in [0.02, 0.06], CI [{lo:.4f}, {hi:.4f}] overlaps band",
    )


def test_criterion_04_fig2_band(fig_artifacts):
    nu = float(_fig_summary(fig_artifacts, "fig2")["nu_hat"])
    _report(4, "threshold 0.6 truth-loop rate", 0.14 <= nu <= 0.26, f"nu={nu:.4f} in [0.14, 0.26]")


def test_criterion_05_fig3_band(fig_artifacts):
    nu = float(_fig_summary(fig_artifacts, "fig3")["nu_hat"])
    _report(5, "population-filter loop rate", 0.08 <= nu <= 0.16, f"nu={nu:.4f} in [0.08, 0.16]")


def test_criterion_06_fig4_band_and_convergence(fig_artifacts):
    nu = float(_fig_summary(fig_artifacts, "fig4")["nu_hat"])
    series = read_series_csv(str(fig_artifacts["fig4"] / "fig4_series.csv"))
    final_err = series["mean_error"][-1]
    ok = 0.03 <= nu <= 0.09 and final_err < 0.3
    _report(
        6, "delayed loop rate and convergence", ok,
        f"nu={nu:.4f} in [0.03, 0.09], mean error at t_final {final_err:.4f} < 0.3",
    )


def test_criterion_07_actuation_laplacian(spin2_tight):
    meas, ctrl = spin2_tight
    delta = laplacian_matrix(ctrl.H, meas.dec)
    printed = np.array(
        [
            [-1.0, 1.0, 0.0, 0.0, 0.0],
            [1.0, -2.5, 1.5, 0.0, 0.0],
            [0.0, 1.5, -3.0, 1.5, 0.0],
            [0.0, 0.0, 1.5, -2.5, 1.0],
            [0.0, 0.0, 0.0, 1.0, -1.0],
        ]
    )
    dev = float(np.max(np.abs(delta - printed)))
    _report(7, "spin-2 Laplacian matrix", dev <= 1e-12, f"max entry deviation {dev:.2e} <= 1e-12")


def test_criterion_08_generator_closed_form(spin2_loose, spin2_delta, spin2_weights):
    meas, ctrl = spin2_loose
    w = spin2_weights
    dec = meas.dec
    rng = default_rng(20260814)

    states = [random_density_matrix(5, rng) for _ in range(7)]
    for j in (0, 1, 3, 4, 0, 1, 3):
        u = rng.uniform(0.02, 0.3)
        states.append((1.0 - u) * dec.projectors[j].astype(complex) + u * random_density_matrix(5, rng))
    for _ in range(6):
        states.append(np.diag(rng.dirichlet(np.ones(5))).astype(complex))
    assert len(states) == 20

    dt = 1e-5
    n_pairs = 50_000
    worst_z = 0.0
    for rho in states:
        av = generator_terms(rho, meas, ctrl, w).AV
        zw = rng.standard_normal(n_pairs) * np.sqrt(dt)
        zb = rng.standard_normal(n_pairs) * np.sqrt(dt)
        dw = np.concatenate([zw, -zw])
        db = np.concatenate([zb, -zb])
        batch = np.broadcast_to(rho, (2 * n_pairs, 5, 5))
        out = closed_loop_step(batch, meas, ctrl, StepInput(dt=dt, dW=dw, dB=db))
        v0 = v_alpha(populations(rho, dec), w)
        incr = (v_alpha(populations(out.rho_next, dec), w) - v0) / dt
        pair_means = 0.5 * (incr[:n_pairs] + incr[n_pairs:])
        se = pair_means.std(ddof=1) / np.sqrt(n_pairs)
        worst_z = max(worst_z, abs(pair_means.mean() - av) / se)
    _report(
        8, "generator decomposition vs Monte Carlo", worst_z <= 3.0,
        f"20 states x 1e5 increments, worst |z| = {worst_z:.2f} <= 3",
    )


def test_criterion_09_certification(spin2_tight, spin2_delta):
    meas, ctrl = spin2_tight
    w = solve_alpha(spin2_delta, ctrl.target)
    report = certify_decay(meas, ctrl, w, samples=10_000)
    ctrl0 = control_setup(ctrl.H, meas.dec, ctrl.target, 0.0, ctrl.p_min, ctrl.p_max)
    report0 = certify_decay(meas, ctrl0, w, samples=10_000)
    ok = report.certified and report.nu_hat > 0.0 and not report0.certified
    _report(
        9, "sampled decay certificate", ok,
        f"nu_hat={report.nu_hat:.4f} > 0 on 1e4 samples; sigma_bar=0 gives nu_hat={report0.nu_hat:.4f}, not certified",
    )


def test_criterion_10_filter_agreement(spin2_loose, spin2_delta):
    """The engine's reduced and population filter updates beside its Kraus plant, in open loop.

    Each filter takes the plant's measurement stage, then its control stage
    on the columns with a nonzero gain, as the engine runs them.  Spin-2's
    L = J_z is diagonal with descending eigenvalues, so the engine's packed
    layout needs no reordering of the basis.
    """
    meas, ctrl = spin2_loose
    ctrl0 = control_setup(ctrl.H, meas.dec, ctrl.target, 0.0, ctrl.p_min, ctrl.p_max)
    rng = default_rng(1010)
    m, dt, n_steps = 50, 1e-3, 10_000
    n, eta = meas.dec.n, meas.eta
    lvec = np.diagonal(meas.L).real
    pk = _Packed(n)
    rho = np.tile(pk.pack(np.eye(n)[None] / n), (1, m))
    rho_red = rho.copy()
    p_hat = np.full((n, m), 1.0 / n)
    bands = _bands(spin2_delta)
    rows, cross = kraus_constants(lvec, eta, dt, pk, m)
    averaged = averaged_operands(ctrl0.H.imag)
    work = np.empty((4, m, n, n))
    sup = 0.0
    for step in range(n_steps):
        dy = 2.0 * np.sqrt(eta) * dt * _rowsum(rho[:n], lvec) + rng.standard_normal(m) * np.sqrt(dt)
        factor = _kraus_factor(eta, dt, dy, pk, rows, cross)
        rho *= factor
        _normalize(rho, n, 0, step + 1)
        sigma = feedback_gain(rho_red[:n].T, ctrl0)
        rho_red *= factor
        pk.update_active(rho_red, sigma * sigma * dt, _averaged_control, *averaged, work)
        _normalize(rho_red, n, 0, step + 1)
        sigma_pop = feedback_gain(p_hat.T, ctrl0)
        p_hat = _population_update(p_hat, factor[:n], sigma_pop * sigma_pop * dt, spin2_delta, bands)
        sup = max(sup, float(np.max(np.abs(rho_red[:n] - p_hat))))
    _report(
        10, "reduced vs population filter", sup <= 1e-4,
        f"50 records, t in [0, 10]: sup-norm gap {sup:.2e} <= 1e-4",
    )


def test_criterion_11_invariant_preservation(spin2_loose):
    meas, ctrl = spin2_loose
    rng = default_rng(1111)
    m, dt, n_steps = 1000, 1e-3, 1000
    rho = np.stack([random_density_matrix(5, rng) for _ in range(m)])
    unrecoverable = 0
    violations = 0
    for _ in range(n_steps):
        dw = rng.standard_normal(m) * np.sqrt(dt)
        db = rng.standard_normal(m) * np.sqrt(dt)
        try:
            rho = closed_loop_step(rho, meas, ctrl, StepInput(dt=dt, dW=dw, dB=db)).rho_next
        except UnrecoverableStateError:
            unrecoverable += 1
            break
        try:
            validate_density_matrix(rho)
        except ValueError:
            violations += 1
    ok = unrecoverable == 0 and violations == 0
    _report(
        11, "state invariants under feedback", ok,
        f"1e6 steps: {unrecoverable} unrecoverable, {violations} invariant violations",
    )


def test_criterion_12_worker_count_reproducibility(fig_artifacts):
    d1, d2 = fig_artifacts["fig2"], fig_artifacts["fig2_workers2"]
    same_series = (d1 / "fig2_series.csv").read_bytes() == (d2 / "fig2_series.csv").read_bytes()
    same_summary = (d1 / "fig2_summary.csv").read_bytes() == (d2 / "fig2_summary.csv").read_bytes()
    _report(
        12, "worker-count reproducibility", same_series and same_summary,
        f"fig2 CSVs byte-identical across workers: series={same_series}, summary={same_summary}",
    )


def test_threshold_monotonicity(fig_artifacts):
    """Looser threshold engages the control earlier: fig2 must beat fig1 cleanly."""
    s1 = _fig_summary(fig_artifacts, "fig1")
    s2 = _fig_summary(fig_artifacts, "fig2")
    assert float(s2["nu_hat"]) > float(s1["nu_hat"])
    assert float(s2["ci_low"]) > float(s1["ci_high"])


def test_recorded_error_quantiles_are_positive(fig_artifacts):
    """The error is recorded to full precision: no quantile row of fig1-fig4 rounds to 0.

    The errors fall far below 1e-8 once most trajectories have converged,
    where 1 - p_target rounds to 0 in float64; the summed wrong populations
    do not.
    """
    for fig in FIGURES:
        series = read_series_csv(str(fig_artifacts[fig] / f"{fig}_series.csv"))
        for q in ("q10", "q50", "q90"):
            zero = np.flatnonzero(series[q] <= 0.0)
            assert zero.size == 0, f"{fig} {q}: {zero.size} rows at 0, first at t = {series['t'][zero[0]]}"
