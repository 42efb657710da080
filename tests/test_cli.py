"""Command-line interface: config parsing, artifact emission, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from qndstab import cli
from qndstab.cli import (
    _CAMPAIGN_KEYS,
    FIGURE_PRESETS,
    ConfigError,
    _campaign,
    _load,
    main,
    parse_certify_config,
)
from qndstab.ensemble import DEFAULT_SEED

from conftest import read_csv


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- parsing


def _run_config_text(tmp_path, capsys, text):
    """main's exit code and stderr for `run` on a config file holding text; asserts no output directory was made."""
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "x"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert not out.exists()
    return code, capsys.readouterr().err


def test_parse_config_minimal_defaults():
    cfg = _campaign(_load('{"J": 2, "p_min": 0.9}', _CAMPAIGN_KEYS, "campaign"))
    assert cfg.p_min == 0.9
    assert cfg.J == 2.0
    assert cfg.t_final == 50.0
    assert cfg.estimator == "truth"
    assert cfg.trajectories == 1000
    assert cfg.dt == 1e-3
    assert cfg.base_seed == DEFAULT_SEED
    assert cfg.fit_window == (5.0, 25.0)
    assert cfg.initial == "mixed"
    assert cfg.workers == 1
    assert cfg.p_max is None and cfg.sigma_bar is None


def test_parse_config_full_document():
    doc = {
        "J": 2.0,
        "eta": 0.8,
        "p_min": 0.6,
        "p_max": 0.7,
        "sigma_bar": 1.5,
        "saturation": "smoothstep",
        "estimator": "population_filter",
        "trajectories": 64,
        "t_final": 20.0,
        "dt": 0.002,
        "record_stride": 50,
        "feedback_delay": 0.5,
        "seed": 99,
        "fit_window": [2, 15],
        "initial": "target",
        "workers": 4,
    }
    cfg = _campaign(_load(json.dumps(doc), _CAMPAIGN_KEYS, "campaign"))
    assert cfg.base_seed == 99
    assert cfg.fit_window == (2.0, 15.0)
    assert cfg.saturation == "smoothstep"
    assert cfg.estimator == "population_filter"
    assert cfg.feedback_delay == 0.5
    assert cfg.initial == "target"
    assert cfg.workers == 4


@pytest.mark.parametrize(
    "text,needle",
    [
        ('{"p_min": 0.9, "pmin": 0.1}', "pmin"),
        (
            '{"pmin": 0.9, "trajectories": "many"}',
            "unknown keys: pmin; p_min: required key missing; trajectories: expected int, got str",
        ),
        ('{"t_final": 10.0}', "p_min: required"),
        ('{"p_min": 0.4}', "p_min"),
        ('{"p_min": 0.7, "p_max": 0.65}', "p_max"),
        ('{"p_min": 0.7, "p_max": 1.5}', "p_max"),
        ('{"p_min": 0.9, "eta": 1.4}', "eta"),
        ('{"p_min": 0.9, "sigma_bar": -2}', "sigma_bar"),
        ('{"p_min": 0.9, "estimator": "kalman"}', "estimator"),
        ('{"p_min": 0.9, "fit_window": [1, 2, 3]}', "fit_window"),
        ('{"p_min": 0.9, "model": "cavity"}', "model"),
        ('{"p_min": 0.9, "model": "spin"}', "unknown keys: model"),
        ('{"p_min": 0.9, "initial": "pure"}', "initial"),
        ('{"p_min": 0.9, "saturation": "bogus"}', "saturation"),
        ('{"p_min": 0.9, "J": 2.3}', "J must be"),
        ('{"p_min": 0.9, "J": -1}', "J must be"),
        ('{"p_min": 0.9, "seed": -5}', "base_seed"),
        ('{"p_min": 0.9, "seed": 18446744073709551616}', "base_seed"),
        ('{"p_min": 0.9, "fit_window": [1, null]}', "fit_window"),
        ('{"p_min": 0.6, "t_final": 1.0, "trajectories": 4, "fit_window": [0.5, 0.55]}', "fewer than two record times"),
        ('{"p_min": 0.9, "trajectories": true}', "expected int, got bool"),
        ('{"p_min": 0.9, "trajectories": 10.5}', "trajectories"),
        ('{"p_min": "high"}', "expected float, got str"),
        ("[1, 2]", "JSON object"),
        ("{not json", "not valid JSON"),
    ],
)
def test_parse_config_rejections(tmp_path, capsys, text, needle):
    code, err = _run_config_text(tmp_path, capsys, text)
    assert code == 2
    assert err.startswith("run: ") and needle in err
    assert err.count("\n") == 1


def test_parse_config_wraps_campaign_validation(tmp_path, capsys):
    # passes the schema but violates a cross-field rule checked downstream
    code, err = _run_config_text(tmp_path, capsys, '{"p_min": 0.9, "t_final": 1.0}')
    assert code == 2
    assert err.startswith("run: invalid campaign config: ") and "fit_window" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("verb", ["run", "certify"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, verb, kind):
    """A config file that cannot be read is a config error: one line on stderr and exit 2, not a traceback."""
    path = tmp_path / "configs"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b'\xff{"p_min": 0.9}')
    out = tmp_path / "x"
    assert main([verb, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{verb}: cannot read config: ")
    assert (str(path) in err) == (kind != "not_utf8")
    assert err.count("\n") == 1
    assert not out.exists()


def test_parse_certify_config_defaults():
    doc, (meas, ctrl) = parse_certify_config('{"p_min": 0.9}')
    assert (meas.eta, ctrl.p_min) == (0.8, 0.9) and ctrl.p_max == pytest.approx(0.95)
    assert doc["J"] == 2.0
    assert doc["eta"] == 0.8
    assert doc["saturation"] == "piecewise_linear"
    assert doc["samples"] == 10000
    assert doc["seed"] == 7
    assert "broken_link" not in doc


def test_parse_certify_config_rejections():
    with pytest.raises(ConfigError, match="required"):
        parse_certify_config('{"samples": 100}')
    with pytest.raises(ConfigError, match="trajectories"):
        parse_certify_config('{"p_min": 0.9, "trajectories": 100}')
    with pytest.raises(ConfigError, match="broken_link"):
        parse_certify_config('{"p_min": 0.9, "broken_link": 4}')
    with pytest.raises(ConfigError, match="broken_link"):
        parse_certify_config('{"p_min": 0.9, "broken_link": -1}')
    for text, needle in (
        ('{"p_min": 0.4}', "p_min"),
        ('{"p_min": 0.7, "p_max": 0.65}', "p_max"),
        ('{"p_min": 0.9, "eta": 1.4}', "eta"),
        ('{"p_min": 0.9, "sigma_bar": -2}', "sigma_bar"),
        ('{"p_min": 0.9, "model": "spin"}', "unknown keys: model"),
        ('{"p_min": 0.9, "saturation": "bogus"}', "saturation"),
        ('{"p_min": 0.9, "J": 2.3}', "J must be"),
        ('{"p_min": 0.9, "J": -1}', "J must be"),
        ('{"p_min": 0.9, "J": 2.3, "broken_link": 1}', "J must be"),
    ):
        with pytest.raises(ConfigError, match=needle):
            parse_certify_config(text)
    assert parse_certify_config('{"p_min": 0.9, "broken_link": 3}')[0]["broken_link"] == 3


# ------------------------------------------------------------------- verbs


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_CAMPAIGN = {
    "p_min": 0.6,
    "t_final": 2.0,
    "trajectories": 4,
    "dt": 1e-3,
    "record_stride": 100,
    "seed": 123,
    "fit_window": [0.5, 1.5],
}


def test_cmd_run_emits_artifacts(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, SMALL_CAMPAIGN)
    out = tmp_path / "artifacts"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("run: nu_hat=")

    assert len(read_csv(out / "run_series.csv")) == 21
    (summary,) = read_csv(out / "run_summary.csv")
    assert summary["trajectories"] == "4"
    assert summary["base_seed"] == "123"

    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "run"
    assert manifest["out_dir"] == str(out)
    assert manifest["config"]["base_seed"] == 123
    assert manifest["config"]["fit_window"] == [0.5, 1.5]
    assert "workers" not in manifest["config"]
    for name, digest in manifest["checksums"].items():
        assert _sha256(out / name) == digest
    assert set(manifest["checksums"]) == {"run_series.csv", "run_summary.csv"}
    counters = manifest["counters"]
    assert list(counters) == ["engaged_column_steps", "mean_active_columns", "steps", "trajectories"]
    assert counters["steps"] == 2000 and counters["trajectories"] == 4
    assert 0 < counters["engaged_column_steps"] <= 4 * 2000
    assert counters["mean_active_columns"] == counters["engaged_column_steps"] / 2000
    assert manifest["timing"] == {}


def test_cmd_run_counters_do_not_depend_on_workers(tmp_path):
    cfg_path = _write_config(tmp_path, SMALL_CAMPAIGN)
    manifests = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["run", "--config", cfg_path, "--out", str(out), "--workers", workers]) == 0
        manifests.append(json.loads((out / "run_manifest.json").read_text()))
    assert manifests[0]["checksums"] == manifests[1]["checksums"]
    assert manifests[0]["counters"] == manifests[1]["counters"]
    assert manifests[0]["counters"]["engaged_column_steps"] > 0


def test_cmd_run_cli_overrides(tmp_path):
    cfg_path = _write_config(tmp_path, SMALL_CAMPAIGN)
    out = tmp_path / "o"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--seed", "7", "--dt", "0.002"]) == 0
    (summary,) = read_csv(out / "run_summary.csv")
    assert summary["base_seed"] == "7"
    assert summary["dt"] == "0.002"


def test_cmd_run_honors_env_out(tmp_path, monkeypatch):
    cfg_path = _write_config(tmp_path, SMALL_CAMPAIGN)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("QNDSTAB_OUT", str(env_dir))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", cfg_path]) == 0
    assert (env_dir / "run_summary.csv").exists()


def test_cmd_run_bad_config_exits_2(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, {"p_min": 0.2})
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2
    assert "p_min" in capsys.readouterr().err


def test_cmd_run_bad_override_exits_2(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, dict(SMALL_CAMPAIGN, t_final=1.0, fit_window=[0.2, 0.8]))
    out = tmp_path / "x"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--dt", "0.003"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run: ") and "multiple of dt" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "verb,over,flags,needle",
    [
        ("run", {"saturation": "bogus"}, [], "saturation"),
        ("run", {"J": 2.3}, [], "J must be"),
        ("run", {"J": -1}, [], "J must be"),
        ("run", {"seed": -5}, [], "base_seed"),
        ("run", {}, ["--seed", "-1"], "base_seed"),
        ("reproduce", None, ["--seed", "-1"], "base_seed"),
        ("certify", {"saturation": "bogus"}, [], "saturation"),
        ("certify", {"J": 2.3}, [], "J must be"),
        ("certify", {"J": -1}, [], "J must be"),
        ("certify", {}, ["--seed", "-1"], "seed must be"),
        ("certify", {"seed": -3}, [], "seed must be"),
        ("certify", {}, ["--samples", "2"], "samples=2"),
        ("certify", {"broken_link": 4}, [], "broken_link"),
        ("certify", {"sigma_bar": float("nan")}, [], "sigma_bar must be finite"),
        ("certify", {"sigma_bar": float("inf")}, [], "sigma_bar must be finite"),
        ("run", {"t_final": float("inf")}, [], "t_final must be finite"),
        ("run", {"feedback_delay": float("inf")}, [], "feedback_delay must be finite"),
        ("run", {"dt": float("nan")}, [], "dt must be finite"),
        ("run", {}, ["--dt", "inf"], "dt must be finite"),
        ("run", {}, ["--dt", "1e10"], "at least dt"),
        ("run", {"sigma_bar": float("nan")}, [], "sigma_bar must be finite"),
        ("run", {"sigma_bar": float("inf")}, [], "sigma_bar must be finite"),
        ("run", {"J": float("inf")}, [], "J must be"),
        ("certify", {"J": float("nan")}, [], "J must be"),
    ],
)
def test_cmd_rule_violation_exits_2(tmp_path, capsys, verb, over, flags, needle):
    if verb == "reproduce":
        target = ["fig2"]
    else:
        base = SMALL_CAMPAIGN if verb == "run" else {"p_min": 0.9, "samples": 60}
        target = ["--config", _write_config(tmp_path, {**base, **over})]
    out = tmp_path / "x"
    assert main([verb, *target, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{verb}: ") and needle in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cmd_reproduce_bad_override_exits_2(tmp_path, capsys):
    assert main(["reproduce", "fig2", "--trajectories", "0", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("reproduce: ") and "trajectories" in err
    assert err.count("\n") == 1


def test_cmd_reproduce_smoke(tmp_path, capsys):
    out = tmp_path / "repro"
    code = main(["reproduce", "fig2", "--trajectories", "4", "--out", str(out)])
    assert code in (0, 1)  # 4 trajectories need not land in the band
    line = capsys.readouterr().out
    assert line.startswith("fig2: nu_hat=")
    assert "band=[0.14, 0.26]" in line
    assert (out / "fig2_series.csv").exists()
    assert (out / "fig2_summary.csv").exists()
    manifest = json.loads((out / "fig2_manifest.json").read_text())
    assert manifest["command"] == "reproduce fig2"
    assert manifest["counters"]["steps"] == 50000 and manifest["counters"]["trajectories"] == 4
    (summary,) = read_csv(out / "fig2_summary.csv")
    assert line.split("nu_hat=", 1)[1].split(" ", 1)[0] == summary["nu_hat"]
    assert summary["estimator"] == "truth"
    assert float(summary["p_min"]) == 0.6
    assert float(summary["fit_t_end"]) == 25.0


def test_figure_presets_cover_benchmark_campaigns():
    assert sorted(FIGURE_PRESETS) == ["fig1", "fig2", "fig3", "fig4"]
    assert FIGURE_PRESETS["fig1"]["config"]["p_min"] == 0.9
    assert FIGURE_PRESETS["fig1"]["config"]["t_final"] == 100.0
    assert FIGURE_PRESETS["fig3"]["config"]["estimator"] == "population_filter"
    assert FIGURE_PRESETS["fig4"]["config"]["feedback_delay"] == 0.5
    for preset in FIGURE_PRESETS.values():
        lo, hi = preset["band"]
        assert lo < preset["target"] < hi


@pytest.mark.parametrize("verb, seed", [("run", DEFAULT_SEED), ("certify", 7), ("reproduce", DEFAULT_SEED)])
def test_help_gives_each_verb_its_seed_default(capsys, verb, seed):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"base seed (default {seed})" in text


def test_cmd_certify_paths(tmp_path, capsys):
    out = tmp_path / "cert"
    cfg_path = _write_config(tmp_path, {"p_min": 0.9, "samples": 60})
    assert main(["certify", "--config", cfg_path, "--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert line.startswith("certify: nu_hat=")
    assert "(certified)" in line
    assert (out / "certificate.csv").exists()
    manifest = json.loads((out / "certificate_manifest.json").read_text())
    assert manifest["config"]["samples"] == 60
    assert _sha256(out / "certificate.csv") == manifest["checksums"]["certificate.csv"]
    counters = manifest["counters"]
    assert list(counters) == ["bulk", "diagonal", "near_vertex"]
    assert sum(c["samples"] for c in counters.values()) == 60
    assert counters["near_vertex"] == {"samples": 20}
    timing = manifest["timing"]
    assert list(timing) == ["bulk", "diagonal", "near_vertex"]
    for stratum in timing.values():
        assert sorted(stratum) == ["generator_s", "sample_s"]
        assert all(isinstance(v, float) and v >= 0.0 for v in stratum.values())


def test_cmd_certify_timing_stays_out_of_certificate(tmp_path):
    cfg_path = _write_config(tmp_path, {"p_min": 0.9, "samples": 60})
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert main(["certify", "--config", cfg_path, "--out", str(out)]) == 0
    first, second = ((out / "certificate.csv").read_bytes() for out in outs)
    assert first == second
    assert first.splitlines()[0] == b"stratum,samples,min_ratio,worst_populations"
    manifests = [json.loads((out / "certificate_manifest.json").read_text()) for out in outs]
    assert manifests[0]["checksums"] == manifests[1]["checksums"]
    assert manifests[0]["counters"] == manifests[1]["counters"]


def test_cmd_certify_zero_noise_not_certified(tmp_path, capsys):
    out = tmp_path / "cert0"
    cfg_path = _write_config(tmp_path, {"p_min": 0.6, "sigma_bar": 0.0, "samples": 60})
    assert main(["certify", "--config", cfg_path, "--out", str(out)]) == 1
    assert "NOT certified" in capsys.readouterr().out


def test_cmd_certify_broken_link_exits_2(tmp_path, capsys):
    out = tmp_path / "cert2"
    cfg_path = _write_config(tmp_path, {"p_min": 0.6, "samples": 60, "broken_link": 2})
    assert main(["certify", "--config", cfg_path, "--out", str(out)]) == 2
    assert "disconnected" in capsys.readouterr().err
    assert not (out / "certificate.csv").exists()


def test_cmd_certify_too_few_samples_exits_2(tmp_path, capsys):
    out = tmp_path / "cert_few"
    cfg_path = _write_config(tmp_path, {"p_min": 0.9})
    assert main(["certify", "--config", cfg_path, "--out", str(out), "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("certify: ") and "samples=2" in err
    assert err.count("\n") == 1
    assert not (out / "certificate.csv").exists()


def test_cmd_certify_samples_override(tmp_path):
    out = tmp_path / "cert_s"
    cfg_path = _write_config(tmp_path, {"p_min": 0.9})
    assert main(["certify", "--config", cfg_path, "--out", str(out), "--samples", "33"]) == 0
    manifest = json.loads((out / "certificate_manifest.json").read_text())
    assert manifest["config"]["samples"] == 33
    cert = (out / "certificate.csv").read_text().strip().splitlines()
    assert cert[0] == "stratum,samples,min_ratio,worst_populations"
    assert cert[-1].startswith("all,33,")


def test_manifests_record_the_environment_outside_the_csvs(tmp_path, monkeypatch):
    """run, reproduce and certify manifests carry an environment block; no CSV byte depends on it."""
    run_cfg = _write_config(tmp_path, SMALL_CAMPAIGN, "run.json")
    cert_cfg = _write_config(tmp_path, {"p_min": 0.9, "samples": 60}, "certify.json")
    commands = {
        "run_manifest.json": ["run", "--config", run_cfg],
        "fig2_manifest.json": ["reproduce", "fig2", "--trajectories", "2", "--dt", "0.01"],
        "certificate_manifest.json": ["certify", "--config", cert_cfg],
    }
    faked = {"python": "0.0", "numpy": "0.0", "blas": "none 0.0", "platform": "nowhere", "nproc": 1}
    runs = []
    for environment in (None, faked):
        if environment is not None:
            monkeypatch.setattr(cli, "_environment", lambda: dict(faked))
        out = tmp_path / ("real" if environment is None else "faked")
        manifests = {}
        for name, argv in commands.items():
            assert main(argv + ["--out", str(out)]) in (0, 1)  # 2 trajectories need not land in fig2's band
            manifests[name] = json.loads((out / name).read_text())
        csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        assert len(csvs) == 5
        for manifest in manifests.values():
            assert set(manifest["environment"]) == {"python", "numpy", "blas", "platform", "nproc"}
            for name, digest in manifest["checksums"].items():
                assert _sha256(out / name) == digest
        runs.append((manifests, csvs))
    (real, real_csvs), (fake, fake_csvs) = runs
    assert real["run_manifest.json"]["environment"]["python"] == ".".join(map(str, sys.version_info[:3]))
    assert real["certificate_manifest.json"]["environment"]["nproc"] == os.cpu_count()
    assert all(manifest["environment"] == faked for manifest in fake.values())
    assert fake_csvs == real_csvs
    for name in commands:
        assert fake[name]["checksums"] == real[name]["checksums"]


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    """run (the reduced filter's stacked matmuls) and certify write the same CSV bytes at 1 and 2 BLAS threads."""
    run_cfg = _write_config(tmp_path, {**SMALL_CAMPAIGN, "estimator": "reduced_filter", "trajectories": 32}, "run.json")
    cert_cfg = _write_config(tmp_path, {"p_min": 0.9}, "certify.json")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}"
        for verb, cfg_path in (("run", run_cfg), ("certify", cert_cfg)):
            proc = subprocess.run(
                [sys.executable, "-m", "qndstab.cli", verb, "--config", cfg_path, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr[-4000:]
        outputs.append({name: (out / name).read_bytes() for name in ("run_series.csv", "run_summary.csv", "certificate.csv")})
    assert outputs[0] == outputs[1]
