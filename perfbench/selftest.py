"""The benchmark's own tests.

    python3 perfbench/selftest.py

A tiny-size smoke run of every workload in both modes, whose printed metric
names must match BENCHMARK.json; a run outside a full checkout, which must
fail without a result; and, for every correctness check, a real output
that passes it and a perturbed copy that must fail it.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from qndstab.ensemble import CampaignConfig, run_ensemble, run_trajectory  # noqa: E402
from qndstab.ensemble import write_series_csv, write_summary_csv  # noqa: E402

RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(HERE, "_out")


def scratch_dir() -> str:
    os.makedirs(OUT, exist_ok=True)
    return tempfile.mkdtemp(dir=OUT)


def run_bench(*args, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


class SmokeRun(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for name in names:
                with self.subTest(workload=name, trace=trace):
                    proc = run_bench("--workload", name, "--seed", "1", "--seconds", "0.1", "--trace", str(trace), "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0, proc.stderr[-2000:])
                    self.assertTrue(result["correct"])
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertTrue(all(np.isfinite(v["value"]) for v in result["metrics"].values()))

    def test_fails_without_the_program(self):
        bare = scratch_dir()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("_out", "__pycache__"))
            proc = run_bench(
                "--workload", "fig2_truth", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=bare, script=os.path.join(bare, "perfbench", "run.py"),
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare)


class CampaignChecks(unittest.TestCase):
    """A real small campaign; each check passes on it and fails on one perturbation."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = scratch_dir()
        cfg = CampaignConfig(p_min=0.6, t_final=1.0, trajectories=30, fit_window=(0.2, 1.0), base_seed=5)
        result = run_ensemble(cfg)
        write_series_csv(result, os.path.join(cls.tmp, "s.csv"))
        write_summary_csv(result, os.path.join(cls.tmp, "m.csv"))
        with open(os.path.join(cls.tmp, "s.csv")) as fh:
            cls.series = checks.parse_series(fh.read())
        with open(os.path.join(cls.tmp, "m.csv")) as fh:
            cls.summary = checks.parse_summary(fh.read())
        nu = float(cls.summary["nu_hat"])
        cls.band = (nu - 0.01, nu + 0.01)  # a band this output meets, so only the perturbation can fail it
        alone = run_trajectory(cfg, 7)
        cls.twin = (result.error_traces[7], result.final_populations[7], alone.error, alone.final_populations)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def problems(self, series=None, summary=None, twin=None):
        return checks.check_campaign(
            series or self.series, summary or self.summary, 30, workloads.N_LEVELS, self.band, twin or self.twin
        )

    def assertOnlyFails(self, name, problems):
        self.assertTrue(problems, f"{name} did not fail")
        self.assertTrue(all(p.startswith(name + ":") for p in problems), problems)

    def test_unperturbed_output_passes(self):
        self.assertEqual(self.problems(), [])

    def test_series_perturbations(self):
        def perturbed(column, index, value):
            series = copy.deepcopy(self.series)
            series[column][index] = value
            return series

        first = self.series["mean_error"][0]
        cases = {
            "initial_error": perturbed("mean_error", 0, first * (1 + 1e-9)),
            "all_alive": perturbed("n_alive", -1, 29),
            "quantiles_ordered": perturbed("q10", 3, self.series["q50"][3] + 1e-3),
            "error_decays": perturbed("mean_error", -1, first),
        }
        for name, series in cases.items():
            with self.subTest(check=name):
                self.assertOnlyFails(name, self.problems(series=series))
        with self.subTest(check="quantiles_ordered above one"):
            self.assertOnlyFails("quantiles_ordered", self.problems(series=perturbed("q90", 2, 1.0 + 1e-12)))

    def test_rate_outside_band(self):
        summary = dict(self.summary, nu_hat=repr(self.band[1] + 1e-6))
        self.assertOnlyFails("rate_in_band", self.problems(summary=summary))

    def test_twin_off_by_one_ulp(self):
        alone = np.array(self.twin[2], copy=True)
        alone[4] = np.nextafter(alone[4], np.inf)
        self.assertOnlyFails("trajectory_twin", self.problems(twin=(self.twin[0], self.twin[1], alone, self.twin[3])))


class CertificateChecks(unittest.TestCase):
    """Real certificates at both thresholds; each check passes on them and fails on one perturbation."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = scratch_dir()
        cls.outputs = {}
        for p_min, samples in ((0.9, 3000), (0.6, 20000)):
            runs = {}
            for kind, doc in (
                ("cert", {"p_min": p_min, "samples": samples, "seed": 3}),
                ("zero", {"p_min": p_min, "sigma_bar": 0.0, "samples": 300, "seed": 3}),
            ):
                path = os.path.join(cls.tmp, f"{kind}-{p_min}")
                with open(path + ".json", "w") as fh:
                    json.dump(doc, fh)
                code = workloads.call_cli(["certify", "--config", path + ".json", "--out", path])
                with open(os.path.join(path, "certificate.csv")) as fh:
                    runs[kind] = (code, checks.parse_certificate(fh.read()))
            cls.outputs[p_min] = runs

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def problems(self, p_min, code=None, cert=None, zero_code=None, zero=None):
        runs = self.outputs[p_min]
        return checks.check_certificate(
            runs["cert"][0] if code is None else code,
            cert or runs["cert"][1],
            workloads.CERTIFY_THRESHOLDS[p_min],
            checks.DiagonalClosedForm(workloads.SPIN_J, workloads.ETA, p_min),
            runs["zero"][0] if zero_code is None else zero_code,
            zero or runs["zero"][1],
        )

    def cert(self, p_min, stratum, **changes):
        cert = copy.deepcopy(self.outputs[p_min]["cert"][1])
        cert[stratum].update(changes)
        return cert

    def assertOnlyFails(self, name, problems):
        self.assertTrue(problems, f"{name} did not fail")
        self.assertTrue(all(p.startswith(name + ":") for p in problems), problems)

    def test_unperturbed_outputs_pass(self):
        for p_min in self.outputs:
            with self.subTest(p_min=p_min):
                self.assertEqual(self.problems(p_min), [])

    def test_verdict(self):
        self.assertOnlyFails("verdict", self.problems(0.9, code=1))
        self.assertOnlyFails("verdict", self.problems(0.9, cert=self.cert(0.9, "bulk", min_ratio=-1e-12)))
        self.assertOnlyFails("verdict", self.problems(0.6, code=0))

    def test_refusal_needs_a_witness(self):
        # the same refusal, but with worst populations where the closed form is positive
        model = checks.DiagonalClosedForm(workloads.SPIN_J, workloads.ETA, 0.6)
        p = np.array([0.2, 0.2, 0.2, 0.2, 0.2])
        cert = self.cert(0.6, "diagonal", p=p, min_ratio=model.ratio(p))
        self.assertOnlyFails("verdict", self.problems(0.6, cert=cert))

    def test_diagonal_closed_form(self):
        for p_min in self.outputs:
            with self.subTest(p_min=p_min):
                row = self.outputs[p_min]["cert"][1]["diagonal"]
                cert = self.cert(p_min, "diagonal", min_ratio=row["min_ratio"] * (1 + 1e-8))
                self.assertOnlyFails("diagonal_closed_form", self.problems(p_min, cert=cert))

    def test_vertex_bound(self):
        vertex = min(checks.DiagonalClosedForm(workloads.SPIN_J, workloads.ETA, 0.9).vertex_ratios().values())
        cert = self.cert(0.9, "all", min_ratio=vertex * (1 + 1e-6))
        self.assertOnlyFails("vertex_bound", self.problems(0.9, cert=cert))

    def test_sigma_zero_rejected(self):
        self.assertOnlyFails("sigma_zero_rejected", self.problems(0.9, zero_code=0))
        zero = copy.deepcopy(self.outputs[0.9]["zero"][1])
        zero["all"]["min_ratio"] = 1e-6
        self.assertOnlyFails("sigma_zero_rejected", self.problems(0.9, zero=zero))


if __name__ == "__main__":
    unittest.main()
