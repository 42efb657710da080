"""Acceptance gate: one test per shipping criterion, one printed verdict line each.

The verdict lines are collected in VERDICTS and echoed after the run by the
pytest_terminal_summary hook in conftest, so they appear without -s.  The
figure campaigns and the open-loop baseline are session fixtures shared
across criteria.
"""

import pathlib
import time

import numpy as np
import pytest
from numpy.random import default_rng

from qndstab import cli
from qndstab.cli import main
from qndstab.core import (
    UnrecoverableStateError,
    populations,
    random_density_matrix,
)
from qndstab.dynamics import StepInput, closed_loop_step, control_setup, feedback_gain
from qndstab.ensemble import (
    CampaignConfig,
    _Kernel,
    _normalize,
    estimate_rate,
    run_ensemble,
)
from qndstab.filters import laplacian_matrix
from qndstab.lyapunov import certify_decay, generator_terms, solve_alpha, v_alpha
from qndstab.spin import spin2_preset

from conftest import read_csv, validate_density_matrix

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
    campaign but the one-worker fig2 run uses both cores.  Each figure's
    EnsembleResult is kept under "results", from the run_ensemble call cli
    makes, so the tests can resample trajectories with no new campaign.
    """
    dirs, captured = {}, []

    def capture(cfg):
        captured.append(run_ensemble(cfg))
        return captured[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_ensemble", capture)
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
    dirs["results"] = dict(zip(FIGURES, captured))
    return dirs


def _fig_summary(dirs, fig):
    (summary,) = read_csv(dirs[fig] / f"{fig}_summary.csv")
    return summary


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
    final_err = float(read_csv(fig_artifacts["fig4"] / "fig4_series.csv")[-1]["mean_error"])
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


def filter_gap(meas, ctrl, seed: int, m: int = 50, n_steps: int = 10_000) -> float:
    """Sup-norm gap between the engine's reduced and population filters beside its Kraus plant, m records, n_steps.

    The engine's kernel runs every stage: the plant's measurement stage,
    then each filter's update on the plant's factor under the filter's own
    gain, as the campaigns run them; the plant takes no control.
    """
    rng = default_rng(seed)
    dt = 1e-3
    n = meas.dec.n
    kern = _Kernel(meas, ctrl, dt, m)
    rho = np.tile(kern.pk.pack(np.eye(n)[None] / n), (1, m))
    rho_red = rho.copy()
    p_hat = np.full((n, m), 1.0 / n)
    sup = 0.0
    for step in range(n_steps):
        factor = kern.measure(rho, rng.standard_normal(m) * np.sqrt(dt))
        _normalize(rho, n, 0, step + 1)
        kern.reduced(rho_red, factor, feedback_gain(rho_red[:n].T, ctrl))
        _normalize(rho_red, n, 0, step + 1)
        p_hat = kern.population(p_hat, factor, feedback_gain(p_hat.T, ctrl))
        sup = max(sup, float(np.max(np.abs(rho_red[:n] - p_hat))))
    return sup


def test_criterion_10_filter_agreement(spin2_loose):
    """The reduced and population filters agree on the plant's shared measurement stage (filter_gap at sigma_bar = 0).

    With sigma_bar = 0 neither filter's control stage runs, so both take
    only the plant's measurement stage and the gap reads 0 by
    construction: this checks that shared stage, not agreement under
    feedback.  With the gain on the gap is of order 0.1 (README, Tests),
    because the reduced filter's averaged channel creates coherences that
    the population filter drops.
    """
    meas, ctrl = spin2_loose
    ctrl0 = control_setup(ctrl.H, meas.dec, ctrl.target, 0.0, ctrl.p_min, ctrl.p_max)
    sup = filter_gap(meas, ctrl0, seed=1010)
    _report(
        10, "reduced vs population filter", sup <= 1e-4,
        f"sigma_bar=0, shared measurement stage only; 50 records, t in [0, 10]: sup-norm gap {sup:.2e} <= 1e-4",
    )


@pytest.mark.parametrize(("p_min", "gap"), [(0.6, 0.162), (0.9, 0.090)])
def test_readme_filter_gap_with_gain_on(p_min, gap):
    """The README's sup gap between the two filters with the gain on, at seed 1010, to its three digits."""
    assert round(filter_gap(*spin2_preset(p_min), seed=1010), 3) == gap


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
        rows = read_csv(fig_artifacts[fig] / f"{fig}_series.csv")
        for q in ("q10", "q50", "q90"):
            zero = [row["t"] for row in rows if float(row[q]) <= 0.0]
            assert not zero, f"{fig} {q}: {len(zero)} rows at 0, first at t = {zero[0]}"


# The rate ratios README.md states, each beside its paired-bootstrap 95% CI: fig2/fig1, fig2/fig3, fig3/fig4.
README_RATIOS = {("fig2", "fig1"): 5.48, ("fig2", "fig3"): 1.48, ("fig3", "fig4"): 2.02}


def _paired_ratio_cis(results, pairs, resamples=2000, seed=0):
    """Percentile 95% CIs of the rate ratios nu_a / nu_b, all figures resampled by one shared draw of trajectories.

    The figures run on the same base seed, so trajectory i reads the same
    noise streams in each, and a resample keeps the pairs.  Each resample
    refits nu as estimate_rate does: the least-squares slope of log(mean
    error) over the figure's fit window.
    """
    n = {len(r.error_traces) for r in results.values()}.pop()
    rng = default_rng(seed)
    weights = np.stack([np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(resamples)]) / n
    rates = {}
    for fig, result in results.items():
        w0, w1 = result.cfg.fit_window
        mask = (result.times >= w0) & (result.times <= w1)
        means = weights @ result.error_traces[:, mask]
        rates[fig] = -np.polyfit(result.times[mask], np.log(means).T, 1)[0]
    return {(a, b): tuple(np.percentile(rates[a] / rates[b], [2.5, 97.5])) for a, b in pairs}


def test_readme_rate_ratios_lie_in_their_paired_bootstrap_cis(fig_artifacts):
    """Each rate ratio README.md states lies in its paired-bootstrap 95% CI."""
    results = fig_artifacts["results"]
    cis = _paired_ratio_cis(results, README_RATIOS)
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    for (a, b), stated in README_RATIOS.items():
        lo, hi = cis[a, b]
        ratio = results[a].fitted_rate / results[b].fitted_rate
        _status(f"{a}/{b} = {ratio:.4f}, paired 95% CI [{lo:.4f}, {hi:.4f}]")
        assert lo <= stated <= hi, (a, b, stated, lo, hi)
        assert f"{stated:.2f} (95% CI" in " ".join(readme.split()), (a, b)
