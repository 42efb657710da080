"""Correctness checks on the outputs of the benchmark's campaigns and certificates.

Every check is a plain function of parsed outputs and returns a list of
problems, each prefixed with the check's name; an empty list is a pass.
The checks compare against computations written here, independently of
qndstab (own CSV parsing, own spin-J operators, own Lyapunov closed form),
or against properties the method must have.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Relative slack for comparing the benchmark's closed form with the program's
# batched generator: both evaluate the same formula in double precision.
CLOSED_FORM_RTOL = 1e-9


def read_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def parse_series(text: str) -> dict[str, np.ndarray]:
    rows = read_rows(text)
    out = {k: np.array([float(r[k]) for r in rows]) for k in ("t", "mean_error", "q10", "q50", "q90")}
    out["n_alive"] = np.array([int(r["n_alive"]) for r in rows])
    return out


def parse_summary(text: str) -> dict[str, str]:
    rows = read_rows(text)
    if len(rows) != 1:
        raise ValueError(f"summary has {len(rows)} rows, expected 1")
    return rows[0]


def parse_certificate(text: str) -> dict[str, dict]:
    """Rows of certificate.csv keyed by stratum: samples, min_ratio, worst_populations."""
    out = {}
    for r in read_rows(text):
        pops = np.array([float(x) for x in r["worst_populations"].split(";")])
        out[r["stratum"]] = {"samples": int(r["samples"]), "min_ratio": float(r["min_ratio"]), "p": pops}
    return out


# --- campaigns ---------------------------------------------------------------


def initial_error(series, n_levels: int) -> list[str]:
    # every trajectory starts at I/n, so the error sqrt(1 - p_target) is sqrt(1 - 1/n)
    want = math.sqrt(1.0 - 1.0 / n_levels)
    got = float(series["mean_error"][0])
    if not abs(got - want) <= 1e-12 * want:
        return [f"initial_error: mean_error(0) = {got!r}, expected sqrt(1 - 1/{n_levels}) = {want!r}"]
    return []


def all_alive(series, trajectories: int) -> list[str]:
    bad = np.flatnonzero(series["n_alive"] != trajectories)
    if bad.size:
        return [f"all_alive: n_alive != {trajectories} in {bad.size} rows, first at t = {series['t'][bad[0]]}"]
    return []


def quantiles_ordered(series) -> list[str]:
    q10, q50, q90 = series["q10"], series["q50"], series["q90"]
    ok = (q10 >= 0.0) & (q10 <= q50) & (q50 <= q90) & (q90 <= 1.0)
    bad = np.flatnonzero(~ok)
    if bad.size:
        return [f"quantiles_ordered: 0 <= q10 <= q50 <= q90 <= 1 fails in {bad.size} rows, first at t = {series['t'][bad[0]]}"]
    return []


def error_decays(series) -> list[str]:
    first, last = float(series["mean_error"][0]), float(series["mean_error"][-1])
    if not last < first:
        return [f"error_decays: final mean error {last!r} is not below the initial {first!r}"]
    return []


def rate_in_band(summary, band: tuple[float, float]) -> list[str]:
    nu = float(summary["nu_hat"])
    lo, hi = band
    if not lo <= nu <= hi:
        return [f"rate_in_band: nu_hat = {nu!r} outside [{lo}, {hi}]"]
    return []


def trajectory_twin(ensemble_error, ensemble_final, alone_error, alone_final) -> list[str]:
    same = np.array_equal(np.asarray(ensemble_error), np.asarray(alone_error)) and np.array_equal(
        np.asarray(ensemble_final), np.asarray(alone_final)
    )
    if not same:
        diff = np.max(np.abs(np.asarray(ensemble_error, dtype=float) - np.asarray(alone_error, dtype=float)))
        return [f"trajectory_twin: trajectory recomputed alone differs from its ensemble row (max |d error| = {diff!r})"]
    return []


def check_campaign(series, summary, trajectories, n_levels, band, twin) -> list[str]:
    """All campaign checks; twin = (ensemble_error, ensemble_final, alone_error, alone_final)."""
    return (
        initial_error(series, n_levels)
        + all_alive(series, trajectories)
        + quantiles_ordered(series)
        + error_decays(series)
        + rate_in_band(summary, band)
        + trajectory_twin(*twin)
    )


# --- certificates ------------------------------------------------------------


class DiagonalClosedForm:
    """-A V_alpha / V_alpha on diagonal states of the spin-J model, written from the formulas.

    On a diagonal state rho = sum_k p_k |k><k| the generator terms reduce to
    c = Delta p with Delta_kk' = |H_kk'|^2 (k != k') and zero row sums, and
    m = 0, so A V_alpha = (sigma^2/2) f - (eta/2) g.  The weights alpha_s solve
    the grounded systems Delta alpha_s = -beta_s with beta_{s,k} = 1 + [k = s]/2
    off the target.
    """

    def __init__(self, J: float, eta: float, p_min: float, p_max: float | None = None, sigma_bar: float | None = None):
        n = int(round(2 * J)) + 1
        self.lam = J - np.arange(n)
        self.target = int(np.argmin(np.abs(self.lam)))
        self.eta = eta
        self.p_min = p_min
        self.p_max = p_min + 0.05 if p_max is None else p_max
        self.sigma_bar = math.sqrt(n * eta) if sigma_bar is None else sigma_bar
        # ladder couplings |H_{m,m+1}|^2 = (m+1)(2J-m)/4
        h2 = np.zeros((n, n))
        for k in range(n - 1):
            h2[k, k + 1] = h2[k + 1, k] = (k + 1) * (2 * J - k) / 4.0
        self.delta = h2 - np.diag(h2.sum(axis=1))
        self.wrong = [k for k in range(n) if k != self.target]
        alpha = np.zeros((n - 1, n))
        grounded = self.delta[np.ix_(self.wrong, self.wrong)]
        for row, s in enumerate(self.wrong):
            beta = np.array([1.5 if k == s else 1.0 for k in self.wrong])
            alpha[row, self.wrong] = np.linalg.solve(grounded, -beta)
        self.alpha = alpha

    def sigma(self, p: np.ndarray) -> float:
        worst = max(p[k] for k in self.wrong)
        s = min(max((worst - self.p_min) / (self.p_max - self.p_min), 0.0), 1.0)
        return self.sigma_bar * s

    def ratio(self, p) -> float:
        p = np.asarray(p, dtype=float)
        ap = self.alpha @ p
        c = self.delta @ p
        w = float(self.lam @ p)
        f = np.sum((self.alpha @ c) / np.sqrt(ap))
        g = np.sum((self.alpha @ ((self.lam - w) * p)) ** 2 / ap**1.5)
        sigma = self.sigma(p)
        av = 0.5 * sigma * sigma * f - 0.5 * self.eta * g
        return float(-av / np.sum(np.sqrt(ap)))

    def vertex_ratios(self) -> dict[int, float]:
        return {j: self.ratio(np.eye(len(self.lam))[j]) for j in self.wrong}


def verdict(exit_code: int, cert, expect_certified: bool, model: DiagonalClosedForm) -> list[str]:
    """Exit code and margins agree with the expected verdict.

    A refusal must come with a witness: the closed-form ratio at the
    diagonal stratum's worst populations is negative.
    """
    nu = cert["all"]["min_ratio"]
    if expect_certified:
        bad = [name for name, row in cert.items() if not row["min_ratio"] > 0.0]
        if exit_code != 0 or bad:
            return [f"verdict: expected certified, got exit code {exit_code} and non-positive min_ratio in {bad}"]
        return []
    witness = model.ratio(cert["diagonal"]["p"])
    if exit_code != 1 or nu > 0.0 or not witness < 0.0:
        return [f"verdict: expected not certified, got exit code {exit_code}, nu_hat = {nu!r}, closed-form witness {witness!r}"]
    return []


def diagonal_closed_form(cert, model: DiagonalClosedForm) -> list[str]:
    row = cert["diagonal"]
    want = model.ratio(row["p"])
    got = row["min_ratio"]
    if not abs(got - want) <= CLOSED_FORM_RTOL * abs(want):
        return [f"diagonal_closed_form: stratum min_ratio {got!r} != closed form {want!r} at p = {row['p'].tolist()}"]
    return []


def vertex_bound(cert, model: DiagonalClosedForm) -> list[str]:
    nu = cert["all"]["min_ratio"]
    over = {j: r for j, r in model.vertex_ratios().items() if nu > r + CLOSED_FORM_RTOL * abs(r)}
    if over:
        return [f"vertex_bound: nu_hat = {nu!r} exceeds the closed-form ratio at wrong eigenstates {over}"]
    return []


def sigma_zero_rejected(exit_code: int, cert) -> list[str]:
    nu = cert["all"]["min_ratio"]
    if exit_code != 1 or nu > 0.0:
        return [f"sigma_zero_rejected: sigma_bar = 0 gave exit code {exit_code} and nu_hat = {nu!r}, expected 1 and <= 0"]
    return []


def check_certificate(exit_code, cert, expect_certified, model, zero_exit_code, zero_cert) -> list[str]:
    if "diagonal" not in cert or "all" not in cert:
        return ["verdict: certificate lacks the diagonal or the all row"]
    return (
        verdict(exit_code, cert, expect_certified, model)
        + diagonal_closed_form(cert, model)
        + vertex_bound(cert, model)
        + sigma_zero_rejected(zero_exit_code, zero_cert)
    )
