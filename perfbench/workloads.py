"""The benchmark's workloads: inputs made from the seed, timed cli.main calls, their checks.

Building a workload is the benchmark's set-up: it writes the workload's
config files and builds the models (spin2_preset, laplacian_matrix,
solve_alpha).  One operation is one cli.main call plus its correctness
check; a round is the fixed list of operations a workload repeats.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import time
import traceback

import numpy as np

import checks
import layers
from qndstab import cli
from qndstab.ensemble import run_trajectory
from qndstab.filters import laplacian_matrix
from qndstab.lyapunov import solve_alpha
from qndstab.spin import spin2_preset

SPIN_J = 2.0
N_LEVELS = 5  # 2J + 1
ETA = 0.8

# Shortened fig2/fig4 campaigns.  The fit windows sit late enough in the
# horizon that the fitted rate lands in the figure's README band for any seed.
CAMPAIGNS = {
    "fig2_truth": {
        "config": {"p_min": 0.6, "estimator": "truth", "t_final": 10.0, "fit_window": [4.0, 10.0]},
        "workers": 2,
        "band": (0.14, 0.26),
    },
    "fig4_filter": {
        "config": {
            "p_min": 0.6,
            "estimator": "population_filter",
            "feedback_delay": 0.5,
            "t_final": 6.0,
            "fit_window": [2.0, 6.0],
        },
        "workers": 1,
        "band": (0.03, 0.09),
    },
}
TRAJECTORIES = 1000
# Expected verdict per threshold (fig2 and fig1).  At p_min = 0.6 V_alpha grows
# on about 0.4% of diagonal states, e.g. p = (0, 0, 0.31, 0.68, 0), where the
# gain is on and the target still holds mass: 1e5 samples find such a state on
# every seed, so the right answer there is "not certified".
CERTIFY_THRESHOLDS = {0.6: False, 0.9: True}
CERTIFY_SAMPLES = 100_000
SIGMA_ZERO_SAMPLES = 3_000

# Self-test size: every code path, a fraction of the work.  Its campaigns are
# too short for the figures' rate bands, so their band is the whole line and
# only a NaN rate fails it; every other check is the full one.  20 000 samples
# give the p_min 0.6 certificate about 25 diagonal states where V_alpha grows,
# so it is refused on every seed, as at full size.
TINY = {"trajectories": 40, "t_final": 1.0, "fit_window": [0.2, 1.0], "band": (-math.inf, math.inf), "samples": 20_000}

WORKLOADS = ("fig2_truth", "fig4_filter", "certify_thresholds")


def call_cli(argv: list[str]) -> int:
    """cli.main in process, with its report lines sent to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


def guarded(operation, *args) -> tuple[float, list[str]]:
    """Run one operation; an exception from the program fails it instead of ending the run."""
    try:
        return operation(*args)
    except Exception as exc:  # the operation's failure is reported, the round goes on
        traceback.print_exc(file=sys.stderr)
        return 0.0, [f"exception: {exc!r}"]


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _build_models(p_min: float):
    meas, ctrl = spin2_preset(p_min=p_min)
    delta = laplacian_matrix(ctrl.H, meas.dec)
    return meas, ctrl, delta, solve_alpha(delta, ctrl.target)


class Campaign:
    """One `qndstab run` campaign per operation, checked against its series, summary and a lone twin."""

    def __init__(self, name: str, seed: int, workdir: str, tiny: bool = False):
        spec = CAMPAIGNS[name]
        rng = np.random.default_rng(seed)
        self.name = name
        self.band = spec["band"]
        self.config = dict(spec["config"], trajectories=TRAJECTORIES, seed=int(rng.integers(1, 2**31)))
        if tiny:
            self.config.update({k: TINY[k] for k in ("trajectories", "t_final", "fit_window")})
            self.band = TINY["band"]
        self.twin_index = int(rng.integers(self.config["trajectories"]))
        self.out = os.path.join(workdir, name)
        config_path = os.path.join(workdir, f"{name}.json")
        _write_json(config_path, self.config)
        self.argv = ["run", "--config", config_path, "--out", self.out, "--workers", str(spec["workers"])]
        self.meas, self.ctrl, self.delta, _ = _build_models(self.config["p_min"])
        self.last_result = None

    def operation(self, tracer) -> tuple[float, list[str]]:
        return guarded(self._operation, tracer)

    def _operation(self, tracer) -> tuple[float, list[str]]:
        captured = []

        def capture(run_ensemble):
            def run(cfg):
                result = run_ensemble(cfg)
                captured.append(result)
                return result

            return run

        with layers.patched(cli, "run_ensemble", capture), tracer.layers(layers.CAMPAIGN_LAYERS), tracer.span("cli.main"):
            start = time.perf_counter()
            code = call_cli(self.argv)
            seconds = time.perf_counter() - start
        if code != 0 or len(captured) != 1:
            return seconds, [f"exit: cli.main returned {code}"]
        self.last_result = result = captured[0]
        series = checks.parse_series(_read(os.path.join(self.out, "run_series.csv")))
        summary = checks.parse_summary(_read(os.path.join(self.out, "run_summary.csv")))
        alone = run_trajectory(result.cfg, self.twin_index)
        twin = (
            result.error_traces[self.twin_index],
            result.final_populations[self.twin_index],
            alone.error,
            alone.final_populations,
        )
        problems = checks.check_campaign(series, summary, self.config["trajectories"], N_LEVELS, self.band, twin)
        return seconds, problems

    def round(self, tracer) -> list[tuple[float, list[str]]]:
        return [self.operation(tracer)]


class Certify:
    """`qndstab certify` at the fig2 and fig1 thresholds, one operation per threshold."""

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        rng = np.random.default_rng(seed)
        self.name = "certify_thresholds"
        self.samples = TINY["samples"] if tiny else CERTIFY_SAMPLES
        self.thresholds = []
        for p_min, expect_certified in CERTIFY_THRESHOLDS.items():
            cert_seed = int(rng.integers(1, 2**31))
            paths = {}
            for kind, doc in (
                ("cert", {"p_min": p_min, "samples": self.samples, "seed": cert_seed}),
                ("zero", {"p_min": p_min, "sigma_bar": 0.0, "samples": SIGMA_ZERO_SAMPLES, "seed": cert_seed}),
            ):
                paths[kind] = os.path.join(workdir, f"{kind}-{p_min}")
                _write_json(paths[kind] + ".json", doc)
            self.thresholds.append(
                {
                    "p_min": p_min,
                    "expect_certified": expect_certified,
                    "paths": paths,
                    "models": _build_models(p_min),
                    "closed_form": checks.DiagonalClosedForm(SPIN_J, ETA, p_min),
                }
            )

    @staticmethod
    def _argv(path: str) -> list[str]:
        return ["certify", "--config", path + ".json", "--out", path]

    def operation(self, threshold, tracer) -> tuple[float, list[str]]:
        return guarded(self._operation, threshold, tracer)

    def _operation(self, threshold, tracer) -> tuple[float, list[str]]:
        paths = threshold["paths"]
        with tracer.layers(layers.CERTIFY_LAYERS), tracer.span("cli.main"):
            start = time.perf_counter()
            code = call_cli(self._argv(paths["cert"]))
            seconds = time.perf_counter() - start
        zero_code = call_cli(self._argv(paths["zero"]))
        cert = checks.parse_certificate(_read(os.path.join(paths["cert"], "certificate.csv")))
        zero = checks.parse_certificate(_read(os.path.join(paths["zero"], "certificate.csv")))
        return seconds, checks.check_certificate(
            code, cert, threshold["expect_certified"], threshold["closed_form"], zero_code, zero
        )

    def round(self, tracer) -> list[tuple[float, list[str]]]:
        return [self.operation(th, tracer) for th in self.thresholds]


def build(name: str, seed: int, workdir: str, tiny: bool = False):
    """Set up a workload: its config files under workdir and its models."""
    os.makedirs(workdir, exist_ok=True)
    if name in CAMPAIGNS:
        return Campaign(name, seed, workdir, tiny)
    if name == "certify_thresholds":
        return Certify(seed, workdir, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
