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
i [Pi_k, H].  For H = iA both observables are real, so c and m read only
Re rho: one float64 einsum over each state's n^2 real coordinates against
fixed weight rows (core._expectations).  On a diagonal state rho = diag(p),
c = Delta p and m = 0 exactly, and since Delta alpha_s = -beta_s with Delta
symmetric, alpha_s . c = -beta_s . p: f = -sum_s (beta_s . p) / sqrt(alpha_s . p).
certify_decay samples populations p in stratified fashion, evaluates the
ratio at diag(p) from p alone in one pass per block (_diagonal_ratio), and
reports the empirical contraction margin nu_hat = min(-A V_alpha / V_alpha);
a strictly positive margin certifies A V_alpha <= -nu_hat V_alpha on the
sampled diagonal states.  It says nothing about coherent states, where
V_alpha can grow at populations whose diagonal state decays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import _expectations, _rowsum, populations
from .dynamics import ControlSetup, MeasurementSetup, feedback_gain
from .filters import graph_connected

__all__ = [
    "CertificationImpossibleError",
    "default_beta",
    "solve_alpha",
    "certify_decay",
    "certificate_to_csv",
]

# certify_decay's sampling recipe
TV_RADIUS = 0.05  # total-variation distance of the near-vertex populations from their wrong vertex, at most
BLOCK = 2048  # population rows sampled and evaluated at a time, so certify_decay's memory does not grow with samples


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


def solve_alpha(delta: np.ndarray, target: int) -> AlphaWeights:
    """Solve the d-1 grounded-Laplacian systems sum_k' Delta_{k,k'} alpha_{s,k'} = -beta_{s,k}.

    beta is default_beta(d, target).  Grounding removes the target row and
    column; for a connected actuation graph the grounded Laplacian is
    invertible with entrywise-positive inverse, so the positive beta rows
    yield strictly positive weights.
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
    beta = default_beta(d, target)
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
    of 2d fixed real n x n observables, read off Re rho, complex or real, by
    one real einsum (core._expectations); a gemm there would round
    differently with the batch width and the BLAS thread count.  A state's
    result is the same in every batch of two or more states; a lone state
    (2-D input or a width-1 batch) takes other reduction paths in numpy and
    may differ in the last bits.  For non-diagonal rho, c differs from the
    Laplacian acting on the population vector, which is exact only on
    eigenspace mixtures.
    Raises EvaluatedAtTargetError when p_target = 1, where the denominators
    sqrt(alpha_s . p) vanish.
    """
    rho, d = np.asarray(rho), meas.dec.d
    cm = _expectations(rho, _cm_rows(meas.dec, ctrl))
    p = populations(rho, meas.dec)
    ap, sq, g = _weighted(p, meas, w)
    sigma = np.asarray(feedback_gain(p, ctrl))
    f = np.sum((cm[..., :d] @ w.alpha.T) / sq, axis=-1)
    hnum = cm[..., d:] @ w.alpha.T
    h = np.sum(hnum * hnum / (ap * sq), axis=-1)
    av = 0.5 * sigma * sigma * f - 0.5 * meas.eta * g - 0.125 * sigma * sigma * h
    if av.ndim == 0:
        return GeneratorTerms(f=float(f), g=float(g), h=float(h), AV=float(av))
    return GeneratorTerms(f=f, g=g, h=h, AV=av)


def _cm_rows(dec, ctrl):
    """Rows (2d, n^2) of the transposed observables D_H*(Pi_k) and i [Pi_k, H], whose expectations are c and m.

    With H = iA both are real, built from A = Im H in real arithmetic:
    D_H*(Pi_k) = -A Pi_k A + (A^2 Pi_k + Pi_k A^2)/2 and i [Pi_k, H] = A Pi_k - Pi_k A.
    """
    a, pi = ctrl.H.imag, dec.projectors
    a2 = a @ a
    obs = np.concatenate([0.5 * (a2 @ pi + pi @ a2) - a @ pi @ a, a @ pi - pi @ a])
    return np.swapaxes(obs, -1, -2).reshape(len(obs), -1)


def _diagonal_ratio(p, meas, ctrl, w) -> np.ndarray:
    """-A V_alpha / V_alpha at the diagonal states diag(p) of a (rows, d) population block.

    There c = Delta p and m = 0, so h = 0; the weights solve Delta alpha_s = -beta_s
    on every column (solve_alpha checks it) and Delta is symmetric, so alpha_s . c =
    -beta_s . p.  V_alpha sums the same square roots; sums over s run column by column.
    """
    ap, sq, g = _weighted(p, meas, w)
    sigma = feedback_gain(p, ctrl)
    f = -_rowsum(((p @ w.beta.T) / sq).T)
    return (0.5 * meas.eta * g - 0.5 * sigma * sigma * f) / _rowsum(sq.T)


def _weighted(p, meas, w):
    """(ap, sq, g): ap = p @ alpha^T, sq its square roots, g at populations p; EvaluatedAtTargetError at p_target = 1."""
    if np.any(p[..., w.target] >= 1.0):
        raise EvaluatedAtTargetError("generator terms are singular at the target vertex (p_target = 1)")
    ap = p @ w.alpha.T
    if np.any(ap <= 0.0):
        raise EvaluatedAtTargetError("alpha-weighted populations vanished; state is at the target vertex")
    sq = np.sqrt(ap)
    lam = meas.dec.eigenvalues
    gnum = ((lam - (p @ lam)[..., None]) * p) @ w.alpha.T
    return ap, sq, _rowsum(np.moveaxis(gnum * gnum / (ap * sq), -1, 0))


@dataclass(frozen=True)
class StratumResult:
    """Contraction margin over one sampling stratum."""

    name: str
    samples: int
    min_ratio: float
    worst_populations: np.ndarray


@dataclass(frozen=True)
class CertificateReport:
    """Sampled certification of A V_alpha <= -nu_hat V_alpha on diagonal states outside the target vertex."""

    nu_hat: float
    certified: bool
    samples: int
    worst_populations: np.ndarray
    strata: list[StratumResult] = field(default_factory=list)
    c_low: float = 0.0
    c_high: float = 0.0
    timing: dict = field(default_factory=dict)  # per stratum: wall seconds sample_s, generator_s


def _blocks(count):
    """Near-equal block sizes, each at most BLOCK, that add up to count (as ensemble._chunk_bounds cuts).

    With BLOCK >= 3 no block holds a lone row unless the whole stratum
    does, so the cut changes no row's generator bits (see generator_terms).
    """
    k = -(-count // BLOCK)
    return [count * (i + 1) // k - count * i // k for i in range(k)]


def _sample_strata(dec, target, samples, seed):
    """Yield (name, populations) blocks of the near-vertex, bulk and diagonal strata, in draw order.

    Each stratum draws the populations of the states it stands for.  Bulk
    rows are q ~ Dirichlet(n/2, ..., n/2), the law of the diagonal of a real
    Ginibre state G G^T / tr(G G^T) (the squared row norms of G are
    independent chi^2_n).  Diagonal rows are Dirichlet(1, ..., 1).
    Near-vertex rows split evenly over the wrong vertices, the first
    segments one row longer; each row is (1 - u) e_k + u q, u q then 1 - u
    added on the vertex's entry, with u in [0, TV_RADIUS) from a stream of
    its own, a child of SeedSequence(seed), and q a bulk draw from
    default_rng(seed), which the bulk and diagonal strata read after it;
    each segment's first row is then set to its exact vertex.  Each stream
    is read in order, row after row, so no row depends on the block size.
    """
    rng = np.random.default_rng(seed)
    u_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    d = dec.d
    ginibre = np.full(d, dec.n / 2)
    n_near = n_bulk = samples // 3
    wrong = np.array([k for k in range(d) if k != target])
    starts = np.cumsum([0] + [n_near // len(wrong) + (i < n_near % len(wrong)) for i in range(len(wrong) - 1)])
    drawn = 0

    def near_vertex(size):
        nonlocal drawn
        at = np.arange(drawn, drawn + size)
        drawn += size
        owner = np.searchsorted(starts, at, side="right") - 1
        u = u_rng.uniform(0.0, TV_RADIUS, size)
        p = rng.dirichlet(ginibre, size)
        p *= u[:, None]
        level = wrong[owner]
        p[np.arange(size), level] += 1.0 - u
        first = at == starts[owner]
        p[first] = np.eye(d)[level[first]]
        return p

    for name, draw, count in (
        ("near_vertex", near_vertex, n_near),
        ("bulk", lambda size: rng.dirichlet(ginibre, size), n_bulk),
        ("diagonal", lambda size: rng.dirichlet(np.ones(d), size), samples - n_near - n_bulk),
    ):
        for size in _blocks(count):
            yield name, draw(size)


def certify_decay(
    meas: MeasurementSetup,
    ctrl: ControlSetup,
    w: AlphaWeights,
    samples: int,
    seed: int = 7,
) -> CertificateReport:
    """Stratified sampling of the contraction ratio -A V_alpha / V_alpha on diagonal states diag(p).

    Strata: one third of the samples near the wrong vertices (within total
    variation distance TV_RADIUS, including the exact vertices), one third
    with the populations of bulk states G G^T / tr from real Ginibre
    factors G, one third uniform on the simplex; see _sample_strata.  The
    ratio is evaluated at diag(p) from p alone (_diagonal_ratio): there
    m = 0 and the weights turn alpha_s . Delta p into -beta_s . p, so no
    state is built.  The bulk and diagonal laws put 1 - p_target < 1e-6,
    near the singular target, with probability at most 1e-6^(d-1) per row,
    and near-vertex rows keep p_target < TV_RADIUS.  nu_hat is the global
    minimum ratio; certification requires nu_hat > 0, a claim about the
    sampled diagonal states only.

    Each stratum is sampled and evaluated in near-equal blocks of at most
    BLOCK rows, so memory does not grow with samples; the blocks fold into
    the stratum's result in draw order, and the report does not depend on
    BLOCK (at least 3, see _blocks).  A seed fixes every sampled row: the
    near-vertex mixing weights read a child stream of SeedSequence(seed),
    every other draw np.random.default_rng(seed).
    """
    if samples < 3:
        raise ValueError(f"need at least one sample per stratum, got samples={samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got seed={seed}")
    strata = {}
    timing = {}
    clock = time.perf_counter()
    for name, p in _sample_strata(meas.dec, w.target, samples, seed):
        sampled = time.perf_counter()
        ratio = _diagonal_ratio(p, meas, ctrl, w)
        lap = timing.setdefault(name, {"sample_s": 0.0, "generator_s": 0.0})
        lap["sample_s"] += sampled - clock
        lap["generator_s"] += time.perf_counter() - sampled
        worst = int(np.argmin(ratio))
        # a stratum's first block sets its row, even at a ratio of +inf; later
        # blocks fold in draw order, and strict < keeps the first occurrence
        # of a tie, as argmin does
        prev = strata.get(name)
        if prev is None or ratio[worst] < prev.min_ratio:
            strata[name] = StratumResult(name, len(p) + (prev.samples if prev else 0), float(ratio[worst]), p[worst])
        else:
            strata[name] = replace(prev, samples=prev.samples + len(p))
        clock = time.perf_counter()
    strata = list(strata.values())
    worst = min(strata, key=lambda s: s.min_ratio)  # the first stratum on a tie
    c_low, c_high = equivalence_constants(w)
    return CertificateReport(
        nu_hat=worst.min_ratio,
        certified=bool(worst.min_ratio > 0.0),
        samples=samples,
        worst_populations=worst.worst_populations,
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

