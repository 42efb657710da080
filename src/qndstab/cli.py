"""Command-line entry point: run campaigns, certify decay, reproduce reference figures.

Verbs:
    run        one campaign from a JSON config; writes series.csv, summary.csv
    certify    sampled Lyapunov certification from a JSON config; writes certificate.csv
    reproduce  named benchmark campaign (fig1..fig4); nonzero exit if the
               fitted rate leaves the target band

Every invocation writes a manifest.json with the resolved configuration,
sha256 checksums of the emitted artifacts and the environment that made
them.  The default output directory is $QNDSTAB_OUT or ./qndstab_out.
Worker count changes nothing but wall time: artifacts are a pure function
of the configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import asdict, fields

import numpy as np

from .dynamics import control_setup
from .ensemble import (
    DEFAULT_SEED,
    MODEL_FIELDS,
    CampaignConfig,
    EnsembleResult,
    run_ensemble,
    write_series_csv,
    write_summary_csv,
)
from .filters import laplacian_matrix
from .lyapunov import (
    CertificationImpossibleError,
    certificate_to_csv,
    certify_decay,
    solve_alpha,
)
from .spin import spin2_preset

__all__ = ["main"]

ENV_OUT = "QNDSTAB_OUT"

_CAMPAIGN_KEYS = {
    "J": float,
    "eta": float,
    "p_min": float,
    "p_max": float,
    "sigma_bar": float,
    "saturation": str,
    "estimator": str,
    "trajectories": int,
    "t_final": float,
    "dt": float,
    "record_stride": int,
    "feedback_delay": float,
    "seed": int,
    "fit_window": list,
    "initial": str,
    "workers": int,
}

_CERTIFY_KEYS = {
    **{k: _CAMPAIGN_KEYS[k] for k in MODEL_FIELDS},
    "samples": int,
    "seed": int,
    "broken_link": int,
}

# certify resolves the model defaults a campaign uses
_CERTIFY_DEFAULTS = {
    **{f.name: f.default for f in fields(CampaignConfig) if f.name in ("J", "eta", "saturation")},
    "samples": 10000,
    "seed": 7,
}

# Benchmark campaigns: config overrides, target rate, acceptance band.
FIGURE_PRESETS = {
    "fig1": {
        "config": {"p_min": 0.9, "estimator": "truth", "t_final": 100.0, "fit_window": (5.0, 60.0)},
        "target": 0.04,
        "band": (0.02, 0.06),
    },
    "fig2": {
        "config": {"p_min": 0.6, "estimator": "truth", "t_final": 50.0, "fit_window": (5.0, 25.0)},
        "target": 0.2,
        "band": (0.14, 0.26),
    },
    "fig3": {
        "config": {"p_min": 0.6, "estimator": "population_filter", "t_final": 50.0, "fit_window": (5.0, 25.0)},
        "target": 0.12,
        "band": (0.08, 0.16),
    },
    "fig4": {
        "config": {
            "p_min": 0.6,
            "estimator": "population_filter",
            "t_final": 50.0,
            "fit_window": (5.0, 25.0),
            "feedback_delay": 0.5,
        },
        "target": 0.06,
        "band": (0.03, 0.09),
    },
}


class ConfigError(ValueError):
    """Configuration document rejected; message lists field-level problems."""


# the JSON value types each schema type takes; a bool, though an int in python, is none of them
_ACCEPTS = {float: (int, float), int: int, str: str, list: (list, tuple)}


def _check_fields(doc: dict, schema: dict) -> list[str]:
    problems = []
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        problems.append(f"unknown keys: {', '.join(unknown)}")
    if "p_min" not in doc:
        problems.append("p_min: required key missing")
    for key, value in doc.items():
        want = schema.get(key)
        if want is not None and (isinstance(value, bool) or not isinstance(value, _ACCEPTS[want])):
            problems.append(f"{key}: expected {want.__name__}, got {type(value).__name__}")
    return problems


def _read(path: str) -> str:
    """The text of the config file at path; a file that cannot be read (missing, a directory, not UTF-8) is a config error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def _load(text: str, schema: dict, kind: str) -> dict:
    """Decode a JSON object and check its keys and types against schema; kind names the config in errors."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    problems = _check_fields(doc, schema)
    if problems:
        raise ConfigError(f"invalid {kind} config: " + "; ".join(problems))
    return doc


def _campaign(doc: dict) -> CampaignConfig:
    """The CampaignConfig of a campaign document, whose seed key sets base_seed; t_final defaults to 50."""
    kwargs = {k: v for k, v in doc.items() if k != "seed"}
    if "seed" in doc:
        kwargs["base_seed"] = doc["seed"]
    kwargs.setdefault("t_final", 50.0)
    try:
        return CampaignConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid campaign config: {exc}") from exc


def parse_certify_config(text: str) -> tuple[dict, tuple]:
    """Parse and validate a JSON certification document: (the document with its defaults, its model's (meas, ctrl))."""
    out = {**_CERTIFY_DEFAULTS, **_load(text, _CERTIFY_KEYS, "certification")}
    try:
        setups = spin2_preset(**{k: out.get(k) for k in MODEL_FIELDS})
    except ValueError as exc:
        raise ConfigError(f"invalid certification config: {exc}") from exc
    if "broken_link" in out:
        n_couplings = int(round(2 * out["J"]))
        if not 0 <= out["broken_link"] < n_couplings:
            raise ConfigError(
                f"invalid certification config: broken_link: must index a ladder "
                f"coupling 0..{n_couplings - 1}, got {out['broken_link']}"
            )
    return out, setups


def _environment() -> dict:
    """The python, numpy and BLAS builds, the platform and the processor count of this process.

    The platform is read from uname alone: platform.platform() also scans
    the python binary for its libc, which takes milliseconds.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):  # a numpy without show_config's dict mode
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "nproc": os.cpu_count(),
    }


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(
    out_dir: str, name: str, command: str, config: dict, artifacts, counters: dict, timing=None
) -> None:
    """Write out_dir/name, the record of one invocation.

    Its keys: command; config, the resolved configuration; out_dir;
    checksums, the sha256 of each artifact by file name; counters,
    deterministic run counts (a campaign's steps, trajectories, the
    column-steps on which its control rotation ran and their mean per
    step; certify's samples per stratum); timing, wall seconds (certify:
    each stratum's sampling and generator evaluation), so it varies by
    run; and environment, the python, numpy and BLAS builds, the platform
    and the processor count, which the artifacts' last bits may depend on
    (see _environment).
    """
    manifest = {
        "command": command,
        "config": config,
        "out_dir": out_dir,
        "checksums": {os.path.basename(path): _sha256(path) for path in artifacts},
        "counters": counters,
        "timing": timing or {},
        "environment": _environment(),
    }
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_out(arg_out: str | None) -> str:
    """The output directory, made when the artifacts are written; its nearest existing path must be a writable directory, else a config error."""
    out = arg_out or os.environ.get(ENV_OUT) or "qndstab_out"
    head = os.path.abspath(out)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not (os.path.isdir(head) and os.access(head, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot use output directory: {out}: {head} is not a writable directory")
    return out


# the command-line flags, each overriding the config key of its name
_OVERRIDES = ("seed", "workers", "dt", "trajectories", "samples")


def _overrides(doc: dict, args) -> dict:
    """doc with the config keys set by the command-line flags that were given."""
    return {**doc, **{k: getattr(args, k) for k in _OVERRIDES if getattr(args, k, None) is not None}}


def _emit_campaign(cfg: CampaignConfig, out_dir: str, prefix: str, command: str) -> EnsembleResult:
    result = run_ensemble(cfg)
    os.makedirs(out_dir, exist_ok=True)
    series = os.path.join(out_dir, f"{prefix}_series.csv")
    summary = os.path.join(out_dir, f"{prefix}_summary.csv")
    write_series_csv(result, series)
    write_summary_csv(result, summary)
    config = asdict(cfg)
    config.pop("workers")  # runtime-only, so it must not leak into artifacts
    _, ctrl = cfg.setups()
    config.update(p_max=ctrl.p_max, sigma_bar=ctrl.sigma_bar)  # the resolved defaults, as the summary prints them
    counters = {
        "steps": cfg.n_steps,
        "trajectories": cfg.trajectories,
        "engaged_column_steps": result.engaged_column_steps,
        "mean_active_columns": result.engaged_column_steps / cfg.n_steps,
    }
    _write_manifest(out_dir, f"{prefix}_manifest.json", command, config, (series, summary), counters)
    return result


def _cmd_run(args) -> int:
    cfg = _campaign(_overrides(_load(_read(args.config), _CAMPAIGN_KEYS, "campaign"), args))
    out_dir = _resolve_out(args.out)
    result = _emit_campaign(cfg, out_dir, "run", "run")
    print(f"run: nu_hat={float(result.fitted_rate)!r} artifacts in {out_dir}")
    return 0


def _cmd_certify(args) -> int:
    doc, (meas, ctrl) = parse_certify_config(_read(args.config))
    doc = _overrides(doc, args)  # no flag sets a model field, so the setups stand
    if "broken_link" in doc:
        # toy model with one ladder coupling removed; disconnects the actuation graph
        h = ctrl.H.copy()
        link = doc["broken_link"]
        h[link, link + 1] = 0.0
        h[link + 1, link] = 0.0
        ctrl = control_setup(
            h, meas.dec, ctrl.target, ctrl.sigma_bar, ctrl.p_min, ctrl.p_max, ctrl.saturation
        )
    delta = laplacian_matrix(ctrl.H, meas.dec)
    try:
        weights = solve_alpha(delta, ctrl.target)
    except CertificationImpossibleError as exc:
        print(f"certify: {exc}", file=sys.stderr)
        return 2
    out_dir = _resolve_out(args.out)
    try:
        report = certify_decay(meas, ctrl, weights, samples=doc["samples"], seed=doc["seed"])
    except ValueError as exc:
        raise ConfigError(f"invalid certification config: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)
    cert_path = os.path.join(out_dir, "certificate.csv")
    with open(cert_path, "w", newline="") as fh:
        fh.write(certificate_to_csv(report))
    counters = {s.name: {"samples": s.samples} for s in report.strata}
    config = {**doc, "p_max": ctrl.p_max, "sigma_bar": ctrl.sigma_bar}  # the resolved defaults
    _write_manifest(out_dir, "certificate_manifest.json", "certify", config, (cert_path,), counters, report.timing)
    flag = "certified" if report.certified else "NOT certified"
    print(
        f"certify: nu_hat={report.nu_hat!r} ({flag}) over {report.samples} samples; "
        f"equivalence constants c_low={report.c_low!r} c_high={report.c_high!r}"
    )
    return 0 if report.certified else 1


def _cmd_reproduce(args) -> int:
    preset = FIGURE_PRESETS[args.figure]
    cfg = _campaign(_overrides(preset["config"], args))
    out_dir = _resolve_out(args.out)
    nu_hat = float(_emit_campaign(cfg, out_dir, args.figure, f"reproduce {args.figure}").fitted_rate)
    lo, hi = preset["band"]
    ok = lo <= nu_hat <= hi
    verdict = "PASS" if ok else "FAIL"
    print(f"{args.figure}: nu_hat={nu_hat!r} target~{preset['target']} band=[{lo}, {hi}] {verdict}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qndstab",
        description="Simulate and certify noise-assisted feedback stabilization of QND eigenstates.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one campaign from a JSON config")
    p_run.add_argument("--config", required=True, help="path to JSON campaign config")
    p_certify = sub.add_parser("certify", help="sampled Lyapunov certification from a JSON config")
    p_certify.add_argument("--config", required=True, help="path to JSON certification config")
    p_certify.add_argument("--samples", type=int, default=None, help="override sample count")
    p_repro = sub.add_parser("reproduce", help="run a named benchmark campaign and check its band")
    p_repro.add_argument("figure", choices=sorted(FIGURE_PRESETS), help="benchmark id")
    p_repro.add_argument("--trajectories", type=int, default=None, help="override ensemble size (testing)")

    for p, seed in ((p_run, DEFAULT_SEED), (p_certify, _CERTIFY_DEFAULTS["seed"]), (p_repro, DEFAULT_SEED)):
        p.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT} or ./qndstab_out)")
        p.add_argument("--seed", type=int, default=None, help=f"base seed (default {seed})")
    for p in (p_run, p_repro):
        p.add_argument("--workers", type=int, default=None, help="worker processes (does not affect results)")
        p.add_argument("--dt", type=float, default=None, help="integration step override")

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "certify":
            return _cmd_certify(args)
        return _cmd_reproduce(args)
    except ConfigError as exc:
        print(f"{args.verb}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
