"""Lyapunov constructions and numerical certification of exponential decay.

Two Lyapunov functions are built here:

* the open-loop function V_o(p) = sum_{k<k'} sqrt(p_k p_k'), which decays
  at rate r = (eta/2) min_{k != k'} (lambda_k - lambda_k')^2 under pure
  QND measurement;
* the closed-loop family V_alpha(p) = sum_{s != target} sqrt(alpha_s . p),
  with one weight row alpha_s per non-target eigenspace, obtained by
  solving grounded-Laplacian linear systems Delta alpha_s = -beta_s.

For V_alpha the Markov generator evaluates in closed form as

    A V_alpha = (sigma^2/2) f - (eta/2) g - (sigma^2/8) h,

    f = sum_s (alpha_s . c) / sqrt(alpha_s . p),        c_k = tr(D_H*(Pi_k) rho),
    g = sum_s (alpha_s . ((lambda - w) p))^2 / (alpha_s . p)^(3/2),
    h = sum_s (alpha_s . m)^2 / (alpha_s . p)^(3/2),    m_k = tr(i [Pi_k, H] rho),

with w = tr(L rho).  c and m are linear in rho: by duality
c_k = tr(Pi_k D_H(rho)) is the expectation of the Heisenberg-picture
observable D_H*(Pi_k) = H Pi_k H - (H^2 Pi_k + Pi_k H^2)/2, and m_k that of
i [Pi_k, H].  certify_decay samples the state space in stratified
fashion and reports the empirical contraction margin
nu_hat = min(-A V_alpha / V_alpha); a strictly positive margin certifies
E[V_alpha(rho_t)] <= V_alpha(rho_0) exp(-nu_hat t) on the sampled region.

The module also provides Monte Carlo checks of the sqrt-population
dynamics that underpin the open-loop rate (drift of xi_k = sqrt(p_k) and
exact exponential decay of the pairwise products xi_k xi_k').
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import ginibre_states, populations
from .dynamics import (
    ControlSetup,
    MeasurementSetup,
    StepInput,
    feedback_gain,
    open_loop_step,
)
from .filters import graph_connected

__all__ = [
    "CertificationImpossibleError",
    "EvaluatedAtTargetError",
    "AlphaWeights",
    "GeneratorTerms",
    "StratumResult",
    "CertificateReport",
    "XiDriftReport",
    "v_open",
    "open_loop_rate",
    "default_beta",
    "solve_alpha",
    "equivalence_constants",
    "v_alpha",
    "generator_terms",
    "certify_decay",
    "certificate_to_csv",
    "xi_dynamics_check",
]


class CertificationImpossibleError(RuntimeError):
    """The actuation graph is disconnected: no weight choice can certify the target."""


class EvaluatedAtTargetError(ValueError):
    """Generator terms requested at the target vertex, where V_alpha = 0."""


def v_open(p: np.ndarray):
    """Open-loop Lyapunov function V_o = sum_{k<k'} sqrt(p_k) sqrt(p_k')."""
    s = np.sqrt(np.clip(np.asarray(p, dtype=float), 0.0, None))
    total = np.sum(s, axis=-1)
    out = 0.5 * (total * total - np.sum(s * s, axis=-1))
    return out if out.ndim else float(out)


def open_loop_rate(meas: MeasurementSetup) -> float:
    """Guaranteed open-loop decay rate (eta/2) min over pairs of (lambda_k - lambda_k')^2."""
    lam = meas.dec.eigenvalues
    if len(lam) < 2:
        raise ValueError("open-loop contraction undefined for a single eigenspace (d = 1)")
    diffs = lam[:, None] - lam[None, :]
    gap2 = diffs[~np.eye(len(lam), dtype=bool)] ** 2
    return 0.5 * meas.eta * float(np.min(gap2))


def default_beta(d: int, target: int) -> np.ndarray:
    """Default right-hand-side rows: beta_{s,k} = 1 + delta_{s,k}/2 for k != target.

    The rows (one per non-target index s) are distinct, strictly positive
    off the target column, sum to zero, and have rank d-1.
    """
    wrong = [k for k in range(d) if k != target]
    beta = np.zeros((d - 1, d))
    for row, s in enumerate(wrong):
        beta[row, wrong] = 1.0
        beta[row, s] = 1.5
        beta[row, target] = -(d - 0.5)
    return beta


@dataclass(frozen=True)
class AlphaWeights:
    """Weight rows alpha_{s,k} (zero on the target column) and the beta rows they solve."""

    target: int
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def d(self) -> int:
        return self.alpha.shape[1]


def _validate_beta(beta: np.ndarray, d: int, target: int) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (d - 1, d):
        raise ValueError(f"beta must have shape {(d - 1, d)}, got {beta.shape}")
    wrong = [k for k in range(d) if k != target]
    if np.any(beta[:, wrong] <= 0):
        raise ValueError("beta must be strictly positive off the target column")
    row_sums = np.abs(beta.sum(axis=1))
    if np.any(row_sums > 1e-9 * np.max(np.abs(beta))):
        raise ValueError(f"beta rows must sum to zero, max |sum| = {row_sums.max():.3e}")
    if np.linalg.matrix_rank(beta) != d - 1:
        raise ValueError("beta must have rank d - 1")
    return beta


def solve_alpha(delta: np.ndarray, target: int, beta: np.ndarray | None = None) -> AlphaWeights:
    """Solve the d-1 grounded-Laplacian systems sum_k' Delta_{k,k'} alpha_{s,k'} = -beta_{s,k}.

    Grounding removes the target row and column; for a connected actuation
    graph the grounded Laplacian is invertible with entrywise-positive
    inverse, so positive beta rows yield strictly positive weights.
    """
    delta = np.asarray(delta, dtype=float)
    d = delta.shape[0]
    if delta.shape != (d, d):
        raise ValueError(f"Laplacian must be square, got {delta.shape}")
    if not 0 <= target < d:
        raise ValueError(f"target index {target} outside 0..{d - 1}")
    if not graph_connected(delta):
        raise CertificationImpossibleError(
            "actuation graph is disconnected: the target eigenspace is not "
            "reachable from every other eigenspace, certification impossible"
        )
    if beta is None:
        beta = default_beta(d, target)
    beta = _validate_beta(beta, d, target)
    keep = [k for k in range(d) if k != target]
    grounded = delta[np.ix_(keep, keep)]
    try:
        reduced = np.linalg.solve(grounded, -beta[:, keep].T).T
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(grounded))
        raise np.linalg.LinAlgError(
            f"grounded Laplacian solve failed (condition estimate {cond:.3e})"
        ) from exc
    alpha = np.zeros((d - 1, d))
    alpha[:, keep] = reduced
    residual = float(np.max(np.abs(alpha @ delta.T + beta)))
    if residual > 1e-8:
        raise np.linalg.LinAlgError(
            f"alpha solve residual {residual:.3e} exceeds 1e-8 "
            f"(grounded condition {np.linalg.cond(grounded):.3e})"
        )
    if np.any(reduced <= 0):
        raise ValueError("solved alpha weights are not strictly positive off the target column")
    if np.linalg.matrix_rank(alpha) != d - 1:
        raise ValueError("solved alpha matrix does not have rank d - 1")
    return AlphaWeights(target=int(target), alpha=alpha, beta=beta)


def equivalence_constants(w: AlphaWeights) -> tuple[float, float]:
    """(c_low, c_high) with c_low V_alpha <= sqrt(1 - p_target) <= c_high V_alpha.

    c_low = 1/((d-1) sqrt(max alpha)), c_high = 1/((d-1) sqrt(min positive alpha)).
    """
    wrong = [k for k in range(w.d) if k != w.target]
    amax = float(np.max(w.alpha[:, wrong]))
    amin = float(np.min(w.alpha[:, wrong]))
    return float(1.0 / ((w.d - 1) * np.sqrt(amax))), float(1.0 / ((w.d - 1) * np.sqrt(amin)))


def v_alpha(p: np.ndarray, w: AlphaWeights):
    """Closed-loop Lyapunov function V_alpha = sum_s sqrt(alpha_s . p)."""
    ap = np.clip(np.asarray(p, dtype=float) @ w.alpha.T, 0.0, None)
    out = np.sum(np.sqrt(ap), axis=-1)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class GeneratorTerms:
    """Closed-form generator pieces: AV = (sigma^2/2) f - (eta/2) g - (sigma^2/8) h."""

    f: float | np.ndarray
    g: float | np.ndarray
    h: float | np.ndarray
    AV: float | np.ndarray


def generator_terms(
    rho: np.ndarray,
    meas: MeasurementSetup,
    ctrl: ControlSetup,
    w: AlphaWeights,
) -> GeneratorTerms:
    """Evaluate f, g, h and AV at a state (or batch of states).

    c_k = tr(D_H*(Pi_k) rho) and m_k = tr(i [Pi_k, H] rho) are expectations
    of 2d fixed n x n observables, read off the full states by one einsum;
    a gemm there would round differently with the batch width and the BLAS
    thread count.  A state's result is the same in every batch of two or
    more states; a lone state (2-D input or a width-1 batch) takes other
    reduction paths in numpy and may differ in the last bits.  For
    non-diagonal rho, c differs from the Laplacian acting on the
    population vector, which is exact only on eigenspace mixtures.
    Raises EvaluatedAtTargetError when p_target = 1, where the denominators
    sqrt(alpha_s . p) vanish.
    """
    rho = np.asarray(rho, dtype=complex)
    dec = meas.dec
    p = populations(rho, dec)
    if np.any(p[..., w.target] >= 1.0):
        raise EvaluatedAtTargetError("generator terms are singular at the target vertex (p_target = 1)")
    ap = p @ w.alpha.T
    if np.any(ap <= 0.0):
        raise EvaluatedAtTargetError("alpha-weighted populations vanished; state is at the target vertex")
    sigma = np.asarray(feedback_gain(p, ctrl))
    hh, pi = ctrl.H, dec.projectors
    h2 = hh @ hh
    obs = np.concatenate([hh @ pi @ hh - 0.5 * (h2 @ pi + pi @ h2), 1j * (pi @ hh - hh @ pi)])
    cm = np.einsum("kij,...ji->...k", obs, rho).real
    c, m = cm[..., : dec.d], cm[..., dec.d :]
    lam = dec.eigenvalues
    varpi = p @ lam
    sq = np.sqrt(ap)
    f = np.sum((c @ w.alpha.T) / sq, axis=-1)
    gnum = ((lam - varpi[..., None]) * p) @ w.alpha.T
    g = np.sum(gnum * gnum / (ap * sq), axis=-1)
    hnum = m @ w.alpha.T
    h = np.sum(hnum * hnum / (ap * sq), axis=-1)
    av = 0.5 * sigma * sigma * f - 0.5 * meas.eta * g - 0.125 * sigma * sigma * h
    if av.ndim == 0:
        return GeneratorTerms(f=float(f), g=float(g), h=float(h), AV=float(av))
    return GeneratorTerms(f=f, g=g, h=h, AV=av)


@dataclass(frozen=True)
class StratumResult:
    """Contraction margin over one sampling stratum.

    draws counts every candidate state drawn, the rejected ones included.
    """

    name: str
    samples: int
    min_ratio: float
    worst_populations: np.ndarray
    draws: int


@dataclass(frozen=True)
class CertificateReport:
    """Sampled certification of A V_alpha <= -nu_hat V_alpha outside the target vertex."""

    nu_hat: float
    certified: bool
    samples: int
    worst_populations: np.ndarray
    strata: list[StratumResult] = field(default_factory=list)
    c_low: float = 0.0
    c_high: float = 0.0
    timing: dict = field(default_factory=dict)  # per stratum: wall seconds sample_s, generator_s


def _near_vertex_states(dec, target, count, tv_radius, rng) -> np.ndarray:
    """count mixtures (1 - u) vertex + u rho, split over the wrong vertices.

    Each vertex block is led by its exact vertex.  Every other row draws u
    and then its Ginibre factor, so the draws stay in a loop; the states
    are then built once per vertex block.
    """
    n = dec.n
    wrong = [k for k in range(dec.d) if k != target]
    per_vertex = [count // len(wrong)] * len(wrong)
    for i in range(count - sum(per_vertex)):
        per_vertex[i] += 1
    states = np.empty((count, n, n), dtype=complex)
    row = 0
    for j, block in zip(wrong, per_vertex):
        if block == 0:
            continue
        vert = dec.projectors[j] / dec.multiplicities[j]
        u = np.empty(block - 1)
        z = np.empty((block - 1, 2, n, n))
        for i in range(block - 1):
            u[i] = rng.uniform(0.0, tv_radius)
            rng.standard_normal(out=z[i])
        states[row] = vert
        states[row + 1 : row + block] = (
            (1.0 - u)[:, None, None] * vert + u[:, None, None] * ginibre_states(z)
        )
        row += block
    return states


def _screened_states(draw, count, dec, target, target_exclusion) -> tuple[np.ndarray, int]:
    """count states with 1 - p_target >= target_exclusion, and the candidates drawn.

    Each round draws exactly the missing count and keeps its admissible rows
    in order.  Sequential rejection would draw at least that many more, so
    the random stream is consumed exactly as one-at-a-time rejection does.
    """
    states = np.empty((count, dec.n, dec.n), dtype=complex)
    kept = draws = 0
    while kept < count:
        batch = draw(count - kept)
        draws += len(batch)
        batch = batch[1.0 - populations(batch, dec)[:, target] >= target_exclusion]
        states[kept : kept + len(batch)] = batch
        kept += len(batch)
    return states, draws


def _sample_strata(dec, target, samples, seed, tv_radius, target_exclusion):
    """Yield (name, states, draws) for the near-vertex, bulk and diagonal strata, in draw order."""
    rng = np.random.default_rng(seed)
    d, n = dec.d, dec.n
    n_near = samples // 3
    n_bulk = samples // 3
    yield "near_vertex", _near_vertex_states(dec, target, n_near, tv_radius, rng), n_near
    yield "bulk", *_screened_states(
        lambda k: ginibre_states(rng.standard_normal((k, 2, n, n))),
        n_bulk, dec, target, target_exclusion,
    )
    yield "diagonal", *_screened_states(
        lambda k: np.einsum(
            "...k,kij->...ij",
            (rng.dirichlet(np.ones(d), k) / dec.multiplicities).astype(complex),
            dec.projectors,
        ),
        samples - n_near - n_bulk, dec, target, target_exclusion,
    )


def certify_decay(
    meas: MeasurementSetup,
    ctrl: ControlSetup,
    w: AlphaWeights,
    samples: int,
    seed: int = 7,
    tv_radius: float = 0.05,
    target_exclusion: float = 1e-6,
) -> CertificateReport:
    """Stratified sampling of the contraction ratio -A V_alpha / V_alpha.

    Strata: one third of the samples near the wrong vertices (within trace
    distance tv_radius, including the exact vertices), one third
    Hilbert-Schmidt-uniform bulk states, one third diagonal mixtures of
    the eigenspaces.  States with 1 - p_target < target_exclusion are
    excluded from the bulk and diagonal strata (the ratio is singular at
    the target).  nu_hat is the global minimum ratio; certification
    requires nu_hat > 0.

    All three strata draw from one generator seeded by seed, in this
    order: near-vertex, then bulk, then diagonal.  Near-vertex rows draw
    their mixing weight u and then their Ginibre factor, so those draws
    stay in a per-row loop.  Bulk and diagonal candidates are drawn in
    rounds of exactly the missing count and screened as one batch, which
    reads the stream exactly as drawing and screening one state at a time.
    """
    if samples < 3:
        raise ValueError(f"need at least one sample per stratum, got samples={samples}")
    if not 0.0 <= tv_radius <= 1.0:
        raise ValueError(f"tv_radius must lie in [0, 1], got {tv_radius}")
    if not 0.0 < target_exclusion < 1.0:
        raise ValueError(f"target_exclusion must lie in (0, 1), got {target_exclusion}")
    dec = meas.dec
    strata = []
    timing = {}
    global_min = np.inf
    global_worst = None
    clock = time.perf_counter()
    for name, batch, draws in _sample_strata(dec, w.target, samples, seed, tv_radius, target_exclusion):
        sampled = time.perf_counter()
        terms = generator_terms(batch, meas, ctrl, w)
        timing[name] = {"sample_s": sampled - clock, "generator_s": time.perf_counter() - sampled}
        p = populations(batch, dec)
        ratio = -np.asarray(terms.AV) / v_alpha(p, w)
        worst = int(np.argmin(ratio))
        stratum_min = float(ratio[worst])
        worst_p = p[worst].copy()
        strata.append(
            StratumResult(
                name=name, samples=len(batch), min_ratio=stratum_min,
                worst_populations=worst_p, draws=draws,
            )
        )
        if stratum_min < global_min:
            global_min = stratum_min
            global_worst = worst_p
        clock = time.perf_counter()
    c_low, c_high = equivalence_constants(w)
    return CertificateReport(
        nu_hat=float(global_min),
        certified=bool(global_min > 0.0),
        samples=samples,
        worst_populations=global_worst,
        strata=strata,
        c_low=c_low,
        c_high=c_high,
        timing=timing,
    )


def certificate_to_csv(report: CertificateReport) -> str:
    """Serialize a certificate report; one row per stratum plus a global summary row."""
    lines = ["stratum,samples,min_ratio,worst_populations"]
    for s in report.strata:
        pops = ";".join(repr(float(x)) for x in s.worst_populations)
        lines.append(f"{s.name},{s.samples},{repr(s.min_ratio)},{pops}")
    pops = ";".join(repr(float(x)) for x in report.worst_populations)
    lines.append(f"all,{report.samples},{repr(report.nu_hat)},{pops}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class XiDriftReport:
    """Monte Carlo validation of the sqrt-population dynamics in open loop."""

    drift_z: np.ndarray
    pair_indices: list[tuple[int, int]]
    fitted_rates: np.ndarray
    expected_rates: np.ndarray

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.drift_z)))

    @property
    def max_rate_rel_error(self) -> float:
        return float(np.max(np.abs(self.fitted_rates - self.expected_rates) / self.expected_rates))


def xi_dynamics_check(
    meas: MeasurementSetup,
    trajectories: int = 1000,
    dt: float = 1e-3,
    drift_horizon: float = 0.1,
    product_horizon: float = 1.5,
    seed: int = 11,
) -> XiDriftReport:
    """Simulate open-loop trajectories from the maximally mixed state and check xi dynamics.

    Checks two consequences of the Ito equation for xi_k = sqrt(p_k):
    the one-step drift -(eta/2)(lambda_k - w(xi))^2 xi_k dt (z-scores of
    the mean residual over the first drift_horizon time units), and the
    exact exponential decay of E[xi_k xi_k'] at rate
    (eta/2)(lambda_k - lambda_k')^2 (log-linear fits per pair).
    """
    rng = np.random.default_rng(seed)
    dec = meas.dec
    d, n = dec.d, dec.n
    lam = dec.eigenvalues
    n_steps = int(round(product_horizon / dt))
    drift_steps = int(round(drift_horizon / dt))
    rho = np.broadcast_to(np.eye(n, dtype=complex) / n, (trajectories, n, n)).copy()
    pairs = [(k, k2) for k in range(d) for k2 in range(k + 1, d)]
    prod_means = np.empty((n_steps + 1, len(pairs)))
    xi = np.sqrt(populations(rho, dec))
    prod_means[0] = [np.mean(xi[:, a] * xi[:, b]) for a, b in pairs]
    resid_sum = np.zeros(d)
    resid_sqsum = np.zeros(d)
    resid_count = 0
    for step in range(n_steps):
        dw = rng.standard_normal(trajectories) * np.sqrt(dt)
        out = open_loop_step(rho, meas, StepInput(dt=dt, dW=dw))
        xi_next = np.sqrt(populations(out.rho_next, dec))
        if step < drift_steps:
            varpi = np.sum(lam * xi * xi, axis=-1, keepdims=True)
            predicted = -0.5 * meas.eta * (lam - varpi) ** 2 * xi * dt
            resid = xi_next - xi - predicted
            resid_sum += resid.sum(axis=0)
            resid_sqsum += (resid * resid).sum(axis=0)
            resid_count += trajectories
        rho = out.rho_next
        xi = xi_next
        prod_means[step + 1] = [np.mean(xi[:, a] * xi[:, b]) for a, b in pairs]
    mean_resid = resid_sum / resid_count
    var_resid = resid_sqsum / resid_count - mean_resid**2
    se = np.sqrt(var_resid / resid_count)
    drift_z = mean_resid / se
    times = np.arange(n_steps + 1) * dt
    fitted = np.empty(len(pairs))
    expected = np.empty(len(pairs))
    for i, (a, b) in enumerate(pairs):
        rate = 0.5 * meas.eta * (lam[a] - lam[b]) ** 2
        expected[i] = rate
        # fit over the stretch where the exact mean has decayed by at most e^-3
        horizon = min(product_horizon, 3.0 / rate)
        mask = (times <= horizon) & (prod_means[:, i] > 1e-6)
        slope = np.polyfit(times[mask], np.log(prod_means[mask, i]), 1)[0]
        fitted[i] = -slope
    return XiDriftReport(
        drift_z=drift_z,
        pair_indices=pairs,
        fitted_rates=fitted,
        expected_rates=expected,
    )
