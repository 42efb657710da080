"""Traced runs: spans around the calls into each qndstab module, and the per-layer figures.

Spans are recorded from the benchmark's side only: a traced cli.main call
runs with the module attributes whose spans feed a metric (run_ensemble,
estimate_rate, the two CSV writers, certify_decay) replaced by timing
wrappers, so every span has the cli.main call that caused it as its parent.
Spans stay in memory and are written out when the run ends.

The step replay drives the workload's start state through the public
one-step stages (core, dynamics, filters) at the workload's width and times
each stage; it first checks that the composed stages reproduce
dynamics.closed_loop_step bit for bit.  The campaign engine does not call
these public stages: ensemble._integrate_chunk has its own fused step, so
the replay's figures are proxies for the matching parts of that step, and a
speedup of a public stage alone does not move run_s.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

import numpy as np

from qndstab import cli, ensemble
from qndstab.core import (
    dissipator,
    innovation_superop,
    populations,
    project_to_physical,
    random_density_matrix,
    unitary_conjugate,
)
from qndstab.dynamics import StepInput, closed_loop_step, feedback_gain
from qndstab.ensemble import NOISE_BLOCK, DelayedGainBuffer, noise_generator
from qndstab.filters import laplacian_matrix, population_filter_step
from qndstab.lyapunov import generator_terms, solve_alpha
from qndstab.spin import spin2_preset

CAMPAIGN_LAYERS = (
    (cli, "run_ensemble", "ensemble.run_ensemble"),
    (ensemble, "estimate_rate", "ensemble.estimate_rate"),
    (cli, "write_series_csv", "ensemble.write_series_csv"),
    (cli, "write_summary_csv", "ensemble.write_summary_csv"),
)
CERTIFY_LAYERS = ((cli, "certify_decay", "lyapunov.certify_decay"),)

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "cli.overhead_s": "s",
    "ensemble.run_ensemble_s": "s",
    "ensemble.us_per_traj_step": "us",
    "ensemble.traj_steps": "count",
    "ensemble.cpu_per_wall": "ratio",
    "ensemble.estimate_rate_s": "s",
    "ensemble.write_csv_ms": "ms",
    "ensemble.noise_ns_per_sample": "ns",
    "dynamics.feedback_gain_us": "us",
    "core.measurement_us": "us",
    "core.unitary_conjugate_us": "us",
    "core.project_to_physical_us": "us",
    "filters.population_filter_step_us": "us",
    "dynamics.closed_loop_step_us": "us",
    "dynamics.gain_active_share": "ratio",
    "core.repair_needed_share": "ratio",
    "lyapunov.certify_decay_s": "s",
    "lyapunov.samples_per_s": "1/s",
    "lyapunov.samples": "count",
    "lyapunov.generator_terms_us": "us",
    "core.random_density_matrix_us": "us",
    "core.populations_us": "us",
    "lyapunov.solve_alpha_ms": "ms",
    "spin.spin2_preset_ms": "ms",
    "bench.trace_overhead_pct": "%",
}

REPLAY_STEPS = 1000  # covers the 0.5 feedback delay of fig4_filter and 0.5 units of engaged control
PUBLIC_EVERY = 5  # replay steps between timed closed_loop_step calls
CHECK_STEPS = 20
REPAIR_THRESHOLD = -1e-12
MICRO_CALLS = 2000


@contextlib.contextmanager
def patched(module, attr: str, wrap):
    """Replace module.attr by wrap(module.attr) for the duration of the block."""
    original = getattr(module, attr)
    setattr(module, attr, wrap(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class NullTracer:
    """Untraced runs: no wrappers, no spans."""

    def layers(self, points):
        return contextlib.nullcontext()

    def span(self, name):
        return contextlib.nullcontext()


class Tracer(NullTracer):
    """In-memory spans of one traced round: id, parent, name, start, end, cpu seconds."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None, "name": name}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        cpu = _cpu()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            rec.update(start=start - self.t0, end=end - self.t0, cpu=_cpu() - cpu)
            self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def layers(self, points):
        with contextlib.ExitStack() as stack:
            for module, attr, name in points:
                stack.enter_context(patched(module, attr, lambda fn, name=name: self._wrap(name, fn)))
            yield

    def total(self, name: str, field: str = "wall") -> float:
        """Summed wall (or cpu) seconds of the spans with the given name."""
        recs = [s for s in self.spans if s["name"] == name]
        if field == "cpu":
            return sum(s["cpu"] for s in recs)
        return sum(s["end"] - s["start"] for s in recs)


def _median_us(fn, calls: int) -> float:
    """Median over 5 batches of the per-call time of fn, in microseconds."""
    per_call = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(per_call)


def model_costs(p_min: float) -> dict[str, float]:
    """Set-up layers: the spin preset and the weight solve, ms per call."""
    meas, ctrl = spin2_preset(p_min=p_min)
    delta = laplacian_matrix(ctrl.H, meas.dec)
    return {
        "spin.spin2_preset_ms": _median_us(lambda: spin2_preset(p_min=p_min), 20) / 1e3,
        "lyapunov.solve_alpha_ms": _median_us(lambda: solve_alpha(delta, ctrl.target), 20) / 1e3,
    }


def noise_cost(base_seed: int, width: int) -> float:
    """ns per sample of the engine's block draw: one standard_normal(NOISE_BLOCK) per trajectory."""
    gens = [noise_generator(base_seed, i, 0) for i in range(width)]
    block = np.empty((width, NOISE_BLOCK))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for i, g in enumerate(gens):
            block[i] = g.standard_normal(NOISE_BLOCK)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / (width * NOISE_BLOCK) * 1e9


def certify_costs(threshold, samples: int, seed: int) -> dict[str, float]:
    """Per-sample state generation, single-state populations, and one stratum-wide generator call."""
    meas, ctrl, _, weights = threshold["models"]
    dec = meas.dec
    rng = np.random.default_rng(seed)
    state = random_density_matrix(dec.n, rng)
    batch = np.stack([random_density_matrix(dec.n, rng) for _ in range(samples // 3)])
    return {
        "core.random_density_matrix_us": _median_us(lambda: random_density_matrix(dec.n, rng), MICRO_CALLS),
        "core.populations_us": _median_us(lambda: populations(state, dec), MICRO_CALLS),
        "lyapunov.generator_terms_us": _median_us(lambda: generator_terms(batch, meas, ctrl, weights), 1),
    }


def composed_step(rho, sigma, dw, db, meas, ctrl, dt):
    """closed_loop_step's splitting from the public stages, each timed.

    Returns (rho_next, dY, pre-repair state, conjugated row count,
    (measurement, conjugation, projection) seconds).
    """
    t0 = time.perf_counter()
    ex = np.einsum("ij,...ji->...", meas.L, rho).real
    dy = 2.0 * np.sqrt(meas.eta) * ex * dt + dw
    moved = rho + (dissipator(meas.L, rho) * dt + np.sqrt(meas.eta) * innovation_superop(meas.L, rho) * dw[..., None, None])
    t1 = time.perf_counter()
    dv = sigma * db
    active = np.flatnonzero(dv)
    pre = moved.copy()
    if active.size:
        pre[active] = unitary_conjugate(ctrl.H, dv[active], moved[active])
    t2 = time.perf_counter()
    rho_next = project_to_physical(pre)
    t3 = time.perf_counter()
    return rho_next, dy, pre, active.size, (t1 - t0, t2 - t1, t3 - t2)


def check_composition(meas, ctrl, dt: float, width: int, seed: int) -> list[str]:
    """Composed stages against dynamics.closed_loop_step on identical inputs, bit for bit.

    The inputs mix each eigenstate with I/n, so the gain is on for part of
    the rows and the conjugation path is exercised.
    """
    rng = np.random.default_rng(seed)
    n = meas.dec.n
    u = rng.uniform(0.0, 1.0, width)[:, None, None]
    levels = np.arange(width) % n
    vertices = np.zeros((width, n, n), dtype=complex)
    vertices[np.arange(width), levels, levels] = 1.0
    rho = (1.0 - u) * vertices + u * np.eye(n) / n
    for step in range(CHECK_STEPS):
        dw = rng.standard_normal(width) * np.sqrt(dt)
        db = rng.standard_normal(width) * np.sqrt(dt)
        sigma = feedback_gain(populations(rho, meas.dec), ctrl)
        mine = composed_step(rho, sigma, dw, db, meas, ctrl, dt)[0]
        public = closed_loop_step(rho, meas, ctrl, StepInput(dt=dt, dW=dw, dB=db)).rho_next
        if not np.array_equal(mine, public):
            return [f"replay_composition: composed stages differ from closed_loop_step at check step {step}"]
        rho = public
    return []


def replay(wl, steps: int) -> tuple[dict[str, float], list[str]]:
    """Advance the workload's start at its width through the public stages and time each."""
    cfg = wl.last_result.cfg
    meas, ctrl = wl.meas, wl.ctrl
    dec = meas.dec
    m, n, d, dt = cfg.trajectories, dec.n, dec.d, cfg.dt
    problems = check_composition(meas, ctrl, dt, m, cfg.base_seed)
    use_filter = cfg.estimator == "population_filter"
    rho = np.broadcast_to(np.eye(n, dtype=complex) / n, (m, n, n)).copy()
    p_hat = np.full((m, d), 1.0 / d)
    buffer = DelayedGainBuffer(cfg.feedback_delay, dt, width=m)
    gens_w = [noise_generator(cfg.base_seed, i, 0) for i in range(m)]
    gens_b = [noise_generator(cfg.base_seed, i, 1) for i in range(m)]
    sqdt = np.sqrt(dt)
    busy = dict.fromkeys(("gain", "measurement", "conjugate", "project", "filter", "public"), 0.0)
    conjugated = repairs = publics = 0
    for block_start in range(0, steps, NOISE_BLOCK):
        blen = min(NOISE_BLOCK, steps - block_start)
        dw_block = np.stack([g.standard_normal(blen) for g in gens_w]) * sqdt
        db_block = np.stack([g.standard_normal(blen) for g in gens_b]) * sqdt
        for j in range(blen):
            dw, db = dw_block[:, j], db_block[:, j]
            start = time.perf_counter()
            p = populations(rho, dec)
            sigma = buffer.push(feedback_gain(p_hat if use_filter else p, ctrl))
            busy["gain"] += time.perf_counter() - start
            rho_next, dy, pre, active, (t_meas, t_conj, t_proj) = composed_step(rho, sigma, dw, db, meas, ctrl, dt)
            busy["measurement"] += t_meas
            busy["conjugate"] += t_conj
            busy["project"] += t_proj
            conjugated += active
            if use_filter:
                start = time.perf_counter()
                p_hat = population_filter_step(p_hat, meas, ctrl, wl.delta, dy, dt)
                busy["filter"] += time.perf_counter() - start
            herm = 0.5 * (pre + np.conj(np.swapaxes(pre, -1, -2)))
            repairs += int(np.count_nonzero(np.linalg.eigvalsh(herm)[:, 0] < REPAIR_THRESHOLD))
            if (block_start + j) % PUBLIC_EVERY == 0:
                start = time.perf_counter()
                public = closed_loop_step(rho, meas, ctrl, StepInput(dt=dt, dW=dw, dB=db))
                busy["public"] += time.perf_counter() - start
                publics += 1
                if not use_filter and not problems and not np.array_equal(public.rho_next, rho_next):
                    problems.append(f"replay_composition: replay step {block_start + j} differs from closed_loop_step")
            rho = rho_next
    state_steps = steps * m
    metrics = {
        "dynamics.feedback_gain_us": busy["gain"] / steps * 1e6,
        "core.measurement_us": busy["measurement"] / steps * 1e6,
        "core.unitary_conjugate_us": busy["conjugate"] / conjugated * 1e6 if conjugated else 0.0,
        "core.project_to_physical_us": busy["project"] / steps * 1e6,
        "filters.population_filter_step_us": busy["filter"] / steps * 1e6,
        "dynamics.closed_loop_step_us": busy["public"] / publics * 1e6,
        "dynamics.gain_active_share": conjugated / state_steps,
        "core.repair_needed_share": repairs / state_steps,
    }
    return metrics, problems


def campaign_round(wl, tracer: Tracer, replay_steps: int):
    """Per-layer figures of one traced campaign round; returns (metrics, problems)."""
    cfg = wl.last_result.cfg
    run_s = tracer.total("ensemble.run_ensemble")
    traj_steps = cfg.trajectories * cfg.n_steps
    metrics = {
        "cli.overhead_s": tracer.total("cli.main") - run_s,
        "ensemble.run_ensemble_s": run_s,
        "ensemble.us_per_traj_step": run_s / traj_steps * 1e6,
        "ensemble.traj_steps": float(traj_steps),
        "ensemble.cpu_per_wall": tracer.total("ensemble.run_ensemble", "cpu") / run_s,
        "ensemble.estimate_rate_s": tracer.total("ensemble.estimate_rate"),
        "ensemble.write_csv_ms": 1e3 * (tracer.total("ensemble.write_series_csv") + tracer.total("ensemble.write_summary_csv")),
        "ensemble.noise_ns_per_sample": noise_cost(cfg.base_seed, cfg.trajectories),
    }
    metrics.update(model_costs(cfg.p_min))
    with tracer.span("replay"):
        stage_metrics, problems = replay(wl, replay_steps)
    metrics.update(stage_metrics)
    return metrics, problems


def certify_round(wl, tracer: Tracer, seed: int):
    """Per-layer figures of one traced certify round (both thresholds)."""
    decay_s = tracer.total("lyapunov.certify_decay")
    samples = wl.samples * len(wl.thresholds)
    metrics = {
        "cli.overhead_s": tracer.total("cli.main") - decay_s,
        "lyapunov.certify_decay_s": decay_s,
        "lyapunov.samples_per_s": samples / decay_s,
        "lyapunov.samples": float(samples),
    }
    # the per-sample costs do not depend on the threshold; time them with the fig1 models
    threshold = wl.thresholds[-1]
    metrics.update(certify_costs(threshold, wl.samples, seed))
    metrics.update(model_costs(threshold["p_min"]))
    return metrics, []
