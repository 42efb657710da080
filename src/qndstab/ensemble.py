"""Seeded Monte Carlo campaigns, feedback delay, rate fitting, CSV reports.

The campaign engine advances a batch of trajectories in lockstep with the
positivity-preserving Kraus step of Rouchon and Ralph (Phys. Rev. A 91,
012118, 2015) followed by the exact control rotation.  With the record
increment dy = 2 sqrt(eta) tr(L rho) dt + dW, one step is

    rho <- M rho M + (1 - eta) dt L rho L,
    M    = I - L^2 dt / 2 + sqrt(eta) L dy + (eta / 2) L^2 (dy^2 - dt),

then rho <- U rho U^T with U = exp(-i H sigma dB), then rho <- rho / tr(rho).
The engine is specialized to nondegenerate measurement operators that are
diagonal in the working basis, L = diag(l); it sorts the basis by descending
l, so the state diagonal lists the populations in eigenvalue order.  Then
M = diag(m), and the measurement update is the elementwise product of rho
with m m^T + (1 - eta) dt l l^T.  That factor is positive semidefinite, so
by the Schur product theorem the state stays positive semidefinite with no
repair, and every eigenstate of L is an exact fixed point (the update only
rescales its one nonzero entry, and the trace division restores it).  A
nonpositive or non-finite trace raises UnrecoverableStateError.  The engine
is also specialized to purely imaginary control Hamiltonians H = iA (A = Im H
real antisymmetric), so every control rotation exp(-iH x) = exp(A x) is a
real orthogonal matrix; from a real initial state the state stays real
symmetric.

States are float64, packed and batch-last: a chunk of m trajectories
carries its n x n states as one (n(n+1)/2, m) array, the n diagonal entries
first, then the upper triangle row by row, one trajectory per column (the
population filter's estimate is a (d, m) array).  The measurement update,
the trace, the record increment and the population filter are row
operations on contiguous rows of m; the populations are the view [:n].
Only the columns whose control angle is nonzero are unpacked to (k, n, n)
matrices for the rotation, as are the reduced filter's states for its
matrix products, and repacked after.

The full observer takes the same step with the same dy and dB, so started at
the true state it stays on it.  The reduced filter adds the averaged control
channel sigma^2 D_H as Kraus terms: M gains (sigma^2 dt / 2) A^2 and the sum
gains sigma^2 dt A rho A^T.  The population filter is the Euler update of
filters.population_filter_step.  The public one-step functions in dynamics
and filters keep Euler-Maruyama with the physicality projection as the
reference scheme; both schemes are first order in dt.

Reproducibility contract: every trajectory owns two counter-based noise
streams (Philox) keyed by (base_seed, 4*index) for the measurement noise
W and (base_seed, 4*index + 1) for the control noise B, and every
reduction over a state index takes a fixed order at every batch width: an
explicit accumulation over rows, a per-matrix product, the per-row einsum
that builds each rotation, a max, or v_open on an (m, n) C-order copy.
numpy's own sums pick their order from the memory layout, and a width-1
chunk is contiguous along the state axis, so they are not used over that
axis.  A trajectory's bits therefore do not depend on which rows share its
batch.
run_ensemble cuts the ensemble into contiguous chunks, at least one per
worker; worker count, chunk layout and recording stride therefore never
change the bits of any trajectory, and ensembles aggregate in index
order.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import UnrecoverableStateError
from .dynamics import ControlSetup, MeasurementSetup, feedback_gain
from .filters import laplacian_matrix
from .lyapunov import v_open
from .spin import spin2_preset

__all__ = [
    "DEFAULT_SEED",
    "ESTIMATORS",
    "MODEL_FIELDS",
    "CampaignConfig",
    "TrajectoryTrace",
    "EnsembleResult",
    "FitDomainError",
    "DelayedGainBuffer",
    "resolve_setups",
    "noise_generator",
    "run_trajectory",
    "run_ensemble",
    "estimate_rate",
    "write_series_csv",
    "write_summary_csv",
    "read_series_csv",
    "read_summary_csv",
]

DEFAULT_SEED = 20260814
# The CampaignConfig fields that resolve_setups turns into the model.
MODEL_FIELDS = ("model", "J", "eta", "p_min", "p_max", "sigma_bar", "saturation")
ESTIMATORS = ("truth", "full_observer", "reduced_filter", "population_filter")

# Most trajectories one chunk advances in lockstep; it bounds a chunk's memory.
# run_ensemble cuts [0, trajectories) into max(workers, ceil(trajectories /
# CHUNK)) contiguous, near-equal chunks, so every worker gets a chunk; no
# layout changes the bits of any trajectory.
CHUNK = 1000
NOISE_BLOCK = 2048


class FitDomainError(ValueError):
    """Rate fit requested on a window containing nonpositive values."""


@dataclass(frozen=True)
class CampaignConfig:
    """Full description of one simulation campaign.

    p_max defaults to p_min + 0.05 and sigma_bar to sqrt((2J+1) eta) when
    left as None.  fit_window is two times, stored as floats, inside
    [0, t_final].  feedback_delay is a zero-order hold on the gain signal
    sigma and must be an integer multiple of dt; the gain is zero for
    t < feedback_delay (open-loop warm start).  initial selects the shared
    starting state: "mixed" is the maximally mixed state I/n, "target" the
    target eigenstate (plant and estimator always start at the same state).
    Construction checks every field, the model fields through
    resolve_setups, so an invalid config fails here and not in a worker.
    """

    p_min: float
    t_final: float
    estimator: str = "truth"
    model: str = "spin"
    J: float = 2.0
    eta: float = 0.8
    p_max: float | None = None
    sigma_bar: float | None = None
    saturation: str = "piecewise_linear"
    trajectories: int = 1000
    dt: float = 1e-3
    record_stride: int = 100
    feedback_delay: float = 0.0
    base_seed: int = DEFAULT_SEED
    fit_window: tuple[float, float] = (5.0, 25.0)
    initial: str = "mixed"
    workers: int = 1

    def __post_init__(self):
        self.setups()
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if self.trajectories < 1:
            raise ValueError("trajectories must be >= 1")
        if self.t_final <= 0 or self.dt <= 0:
            raise ValueError("t_final and dt must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-6:
            raise ValueError(f"t_final must be an integer multiple of dt, got {steps} steps")
        if round(steps) % self.record_stride != 0:
            raise ValueError("step count t_final/dt must be a multiple of record_stride")
        if self.feedback_delay < 0:
            raise ValueError("feedback_delay must be >= 0")
        lag = self.feedback_delay / self.dt
        if abs(lag - round(lag)) > 1e-6:
            raise ValueError("feedback_delay must be an integer multiple of dt")
        try:
            w0, w1 = map(float, self.fit_window)
        except (TypeError, ValueError):
            raise ValueError(f"fit_window must be two numbers [t_start, t_end], got {self.fit_window}") from None
        object.__setattr__(self, "fit_window", (w0, w1))
        if not (0.0 <= w0 < w1 <= self.t_final):
            raise ValueError(f"fit_window must satisfy 0 <= start < end <= t_final, got {self.fit_window}")
        if self.initial not in ("mixed", "target"):
            raise ValueError(f"initial must be 'mixed' or 'target', got {self.initial!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0 <= self.base_seed < 2**64:
            raise ValueError(f"base_seed must satisfy 0 <= base_seed < 2**64, got {self.base_seed}")

    def setups(self) -> tuple[MeasurementSetup, ControlSetup]:
        """The (measurement, control) pair of this config's model fields."""
        return resolve_setups(**{k: getattr(self, k) for k in MODEL_FIELDS})

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def delay_steps(self) -> int:
        return int(round(self.feedback_delay / self.dt))


def resolve_setups(
    *, model: str, J: float, eta: float, p_min: float, p_max: float | None, sigma_bar: float | None, saturation: str
) -> tuple[MeasurementSetup, ControlSetup]:
    """Build the (measurement, control) pair the model fields describe.

    This is the one check of the model fields: model here, J in
    build_spin_model, eta in measurement_setup and the gain law (p_min,
    p_max, sigma_bar, saturation) in control_setup.
    """
    if model != "spin":
        raise ValueError(f"model: only 'spin' is available, got {model!r}")
    return spin2_preset(p_min=p_min, sigma_bar=sigma_bar, eta=eta, J=J, p_max=p_max, saturation=saturation)


def noise_generator(base_seed: int, index: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one trajectory's noise stream (0 = W, 1 = B)."""
    key = [np.uint64(base_seed), np.uint64(4 * index + stream)]
    return np.random.Generator(np.random.Philox(key=key))


class DelayedGainBuffer:
    """Zero-order-hold ring buffer: push sigma(t), receive sigma(t - delay).

    Pre-history is zero, so the loop runs open loop for the first delay
    interval.  delay = 0 degenerates to a pass-through.
    """

    def __init__(self, delay: float, dt: float, width: int = 1):
        lag = delay / dt
        if abs(lag - round(lag)) > 1e-6:
            raise ValueError("delay must be an integer multiple of dt")
        self.steps = int(round(lag))
        self._buf = np.zeros((self.steps, width)) if self.steps else None
        self._ptr = 0

    def push(self, sigma: np.ndarray) -> np.ndarray:
        sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
        if self.steps == 0:
            return sigma
        out = self._buf[self._ptr].copy()
        self._buf[self._ptr] = sigma
        self._ptr = (self._ptr + 1) % self.steps
        return out


class _Packed:
    """Packed batch-last layout of real symmetric n x n matrices.

    A (n(n+1)/2, m) array holds m matrices, one per column.  Row r holds
    entry (i[r], j[r]) of each: the n diagonal entries first, in order, then
    the upper triangle row by row, so the diagonals are the view [:n].
    """

    def __init__(self, n: int):
        iu, ju = np.triu_indices(n, 1)
        self.n = n
        self.i = np.concatenate([np.arange(n), iu])
        self.j = np.concatenate([np.arange(n), ju])
        rows = np.empty((n, n), dtype=np.intp)
        rows[self.i, self.j] = rows[self.j, self.i] = np.arange(self.i.size)
        self._rows = rows.ravel()
        self._upper = self.i * n + self.j
        self._lower = self.j * n + self.i

    def pack(self, mats: np.ndarray) -> np.ndarray:
        """(k, n, n) -> (n(n+1)/2, k), symmetrized: entry (i, j) becomes (a_ij + a_ji) / 2."""
        flat = mats.reshape(-1, self.n * self.n).T
        return 0.5 * (flat[self._upper] + flat[self._lower])

    def unpack(self, cols: np.ndarray) -> np.ndarray:
        """(n(n+1)/2, k) -> (k, n, n)."""
        return cols.T[:, self._rows].reshape(-1, self.n, self.n)


def _rowsum(rows: np.ndarray, weights=None) -> np.ndarray:
    """sum_r weights[r] * rows[r] over the leading (state) axis, accumulated in row order.

    numpy picks a reduction's summation order from the memory layout
    (pairwise over a contiguous axis of 8 or more, SIMD kernels inside
    einsum), and a width-1 batch-last array is contiguous along the state
    axis; a fixed order keeps a trajectory's bits independent of the width.
    """
    if weights is None:
        total = rows[0].copy()
        for row in rows[1:]:
            total += row
        return total
    total = weights[0] * rows[0]
    for w, row in zip(weights[1:], rows[1:]):
        total += w * row
    return total


def _kraus_factor(lvec: np.ndarray, eta: float, dt: float, dy: np.ndarray, pk: _Packed) -> tuple[np.ndarray, np.ndarray]:
    """Kraus measurement step for L = diag(lvec), one column per record increment in dy.

    Returns the diagonal m of M, shape (n, k), and the packed Schur factor
    m m^T + (1 - eta) dt l l^T, shape (n(n+1)/2, k), so that
    M rho M + (1 - eta) dt L rho L = rho * factor in the packed layout.
    """
    x = np.sqrt(eta) * dy
    l2 = (lvec * lvec)[:, None]
    mvec = 1.0 - 0.5 * dt * l2 + lvec[:, None] * x + 0.5 * (x * x - eta * dt) * l2
    factor = mvec[pk.i] * mvec[pk.j]
    factor += ((1.0 - eta) * dt * (lvec[pk.i] * lvec[pk.j]))[:, None]
    return mvec, factor


def _normalize(rho: np.ndarray, n: int, start: int, step: int) -> None:
    """Divide every packed column by its trace in place; a nonpositive or non-finite trace is unrecoverable."""
    tr = _rowsum(rho[:n])
    ok = (tr > 0.0) & (tr < np.inf)
    if not ok.all():
        bad = int(np.flatnonzero(~ok)[0])
        raise UnrecoverableStateError(f"trajectory {start + bad} has trace {tr[bad]!r} after step {step}")
    rho /= tr


@dataclass(frozen=True)
class TrajectoryTrace:
    """Strided record of one trajectory."""

    times: np.ndarray
    error: np.ndarray
    v_open: np.ndarray
    final_populations: np.ndarray


@dataclass(frozen=True)
class EnsembleResult:
    """Aggregated campaign output; per-trajectory traces retained for bootstrap fits."""

    cfg: CampaignConfig
    times: np.ndarray
    mean_error: np.ndarray
    q10: np.ndarray
    q50: np.ndarray
    q90: np.ndarray
    n_alive: np.ndarray
    mean_v_open: np.ndarray
    error_traces: np.ndarray
    v_open_traces: np.ndarray
    final_populations: np.ndarray
    fitted_rate: float
    fit_ci: tuple[float, float]


def _integrate_chunk(cfg: CampaignConfig, start: int, stop: int):
    """Advance trajectories start..stop-1 in lockstep in real arithmetic; see module docstring."""
    meas, ctrl = cfg.setups()
    dec = meas.dec
    n = dec.n
    lvec = np.diagonal(meas.L).real
    if np.max(np.abs(meas.L - np.diag(lvec))) != 0.0:
        raise ValueError("campaign integrator requires a measurement operator diagonal in the working basis")
    if dec.d != n:
        raise ValueError("campaign integrator requires a nondegenerate measurement operator")
    if np.any(ctrl.H.real != 0.0):
        raise ValueError("campaign integrator requires a purely imaginary control Hamiltonian (real rotations)")
    # reorder the basis by descending eigenvalue of L, so that the state
    # diagonal lists the populations in the decomposition's order
    order = np.argsort(-lvec, kind="stable")
    lvec = lvec[order]
    h = ctrl.H[np.ix_(order, order)]
    lam = dec.eigenvalues
    target = ctrl.target
    eta, dt = meas.eta, cfg.dt
    sqeta = np.sqrt(eta)
    pk = _Packed(n)
    # exp(-iH x) = sum_k e^{-i w_k x} v_k v_k^dagger is real for H = iA, so it is
    # the real part sum_k cos(w_k x) Re(v_k v_k^dagger) + sin(w_k x) Im(v_k v_k^dagger)
    hw, hv = np.linalg.eigh(h)
    outer = hv.T[:, :, None] * np.conj(hv.T)[:, None, :]
    rot_basis = np.concatenate([outer.real, outer.imag])
    need_b = ctrl.sigma_bar > 0.0
    estimator = cfg.estimator

    m = stop - start
    if cfg.initial == "target":
        p0 = np.zeros(n)
        p0[target] = 1.0
    else:
        p0 = np.full(n, 1.0 / n)
    rho = np.tile(pk.pack(np.diag(p0)[None]), (1, m))
    rho_hat = rho.copy() if estimator in ("full_observer", "reduced_filter") else None
    p_hat = np.tile(p0[:, None], (1, m)) if estimator == "population_filter" else None
    if estimator == "population_filter":
        # column k' of Delta, as weights over the rows of p_hat
        delta_cols = laplacian_matrix(ctrl.H, dec).T[:, :, None]
    if estimator == "reduced_filter":
        # H rho H = A rho A^T and H^2 = -A^2 for A = Im H
        gen = h.imag
        gen2 = gen @ gen
    buffer = DelayedGainBuffer(cfg.feedback_delay, dt, width=m)
    gens_w = [noise_generator(cfg.base_seed, i, 0) for i in range(start, stop)]
    gens_b = [noise_generator(cfg.base_seed, i, 1) for i in range(start, stop)] if need_b else None

    n_steps = cfg.n_steps
    stride = cfg.record_stride
    n_rec = n_steps // stride + 1
    err = np.empty((m, n_rec))
    vop = np.empty((m, n_rec))
    sqdt = np.sqrt(dt)

    def _record(slot: int, p: np.ndarray):
        err[:, slot] = np.sqrt(np.clip(1.0 - p[target], 0.0, 1.0))
        # v_open sums over its last axis; an (m, n) C-order copy keeps that
        # sum's order the same at every width
        vop[:, slot] = v_open(np.ascontiguousarray(p.T))

    _record(0, rho[:n])

    # the rotation and the reduced filter's products run per matrix on
    # unpacked (k, n, n) copies: a 2D BLAS gemm over the batch would round
    # differently at different widths
    def _conjugate_rows(states: np.ndarray, dv: np.ndarray) -> None:
        active = np.flatnonzero(dv)
        if active.size == 0:
            return
        angle = dv[active, None] * hw
        rot = np.einsum("mk,kij->mij", np.concatenate([np.cos(angle), np.sin(angle)], axis=1), rot_basis)
        # numpy's stacked matmul is about 3x slower on a transposed view than on a copy
        rot_t = np.ascontiguousarray(np.swapaxes(rot, -1, -2))
        states[:, active] = pk.pack(rot @ pk.unpack(states[:, active]) @ rot_t)

    step = 0
    while step < n_steps:
        blen = min(NOISE_BLOCK, n_steps - step)
        dw_block = np.empty((m, blen))
        for i, g in enumerate(gens_w):
            dw_block[i] = g.standard_normal(blen)
        dw_block *= sqdt
        if need_b:
            db_block = np.empty((m, blen))
            for i, g in enumerate(gens_b):
                db_block[i] = g.standard_normal(blen)
            db_block *= sqdt
        for j in range(blen):
            p_true = rho[:n]
            if estimator == "truth":
                p_est = p_true
            elif estimator == "population_filter":
                p_est = p_hat
            else:
                p_est = rho_hat[:n]
            # the gain's only reduction is a max, exact in any order
            sigma_app = buffer.push(feedback_gain(p_est.T, ctrl))
            dv = sigma_app * db_block[:, j] if need_b else np.zeros(m)

            dy = 2.0 * sqeta * dt * _rowsum(p_true, lvec) + dw_block[:, j]
            mvec, factor = _kraus_factor(lvec, eta, dt, dy, pk)
            rho *= factor
            _conjugate_rows(rho, dv)
            _normalize(rho, n, start, step + 1)

            if estimator == "full_observer":
                rho_hat *= factor
                _conjugate_rows(rho_hat, dv)
                _normalize(rho_hat, n, start, step + 1)
            elif estimator == "reduced_filter":
                mats = pk.unpack(rho_hat)
                s2dt = (sigma_app * sigma_app * dt)[:, None, None]
                kraus = mvec.T[:, :, None] * np.eye(n) + 0.5 * s2dt * gen2
                out = kraus @ mats @ kraus + (1.0 - eta) * dt * (lvec[:, None] * mats * lvec)
                out += s2dt * (gen @ mats @ gen.T)
                rho_hat = pk.pack(out)
                _normalize(rho_hat, n, start, step + 1)
            elif estimator == "population_filter":
                varpi = _rowsum(p_hat, lam)
                innov = dy - 2.0 * sqeta * varpi * dt
                p_new = p_hat + 2.0 * sqeta * p_hat * (lam[:, None] - varpi) * innov
                p_new += (sigma_app * sigma_app) * _rowsum(p_hat, delta_cols) * dt
                np.clip(p_new, 0.0, None, out=p_new)
                p_hat = p_new / _rowsum(p_new)

            step += 1
            if step % stride == 0:
                _record(step // stride, rho[:n])

    return err, vop, np.ascontiguousarray(rho[:n].T)


def _chunk_task(args):
    cfg, start, stop = args
    return _integrate_chunk(cfg, start, stop)


def run_trajectory(cfg: CampaignConfig, index: int) -> TrajectoryTrace:
    """Integrate a single trajectory, bit-identical to its appearance in any ensemble.

    The noise keys depend on the global trajectory index, not on the chunk
    layout, so a width-1 integration reproduces the ensemble member exactly.
    """
    if not 0 <= index < cfg.trajectories:
        raise ValueError(f"trajectory index {index} outside 0..{cfg.trajectories - 1}")
    err, vop, final_p = _integrate_chunk(cfg, index, index + 1)
    times = np.arange(err.shape[-1]) * cfg.dt * cfg.record_stride
    return TrajectoryTrace(times=times, error=err[0], v_open=vop[0], final_populations=final_p[0])


def _chunk_bounds(trajectories: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal (start, stop) chunks: max(workers, ceil(trajectories / CHUNK)) of them."""
    k = min(trajectories, max(workers, -(-trajectories // CHUNK)))
    return [(trajectories * i // k, trajectories * (i + 1) // k) for i in range(k)]


def run_ensemble(cfg: CampaignConfig) -> EnsembleResult:
    """Run all trajectories of a campaign and aggregate statistics in index order."""
    bounds = _chunk_bounds(cfg.trajectories, cfg.workers)
    if cfg.workers > 1 and len(bounds) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(bounds))) as pool:
            parts = list(pool.map(_chunk_task, [(cfg, a, b) for a, b in bounds]))
    else:
        parts = [_integrate_chunk(cfg, a, b) for a, b in bounds]
    err = np.concatenate([p[0] for p in parts], axis=0)
    vop = np.concatenate([p[1] for p in parts], axis=0)
    final_p = np.concatenate([p[2] for p in parts], axis=0)
    times = np.arange(err.shape[1]) * cfg.dt * cfg.record_stride
    n_alive = np.sum(~np.isnan(err), axis=0)
    mean_error = np.mean(err, axis=0)
    q10, q50, q90 = np.percentile(err, [10.0, 50.0, 90.0], axis=0)
    mean_v_open = np.mean(vop, axis=0)
    result = EnsembleResult(
        cfg=cfg,
        times=times,
        mean_error=mean_error,
        q10=q10,
        q50=q50,
        q90=q90,
        n_alive=n_alive,
        mean_v_open=mean_v_open,
        error_traces=err,
        v_open_traces=vop,
        final_populations=final_p,
        fitted_rate=np.nan,
        fit_ci=(np.nan, np.nan),
    )
    try:
        nu, ci = estimate_rate(result, window=cfg.fit_window)
    except FitDomainError:
        nu, ci = np.nan, (np.nan, np.nan)
    return replace(result, fitted_rate=nu, fit_ci=ci)


def _fit_slope(times: np.ndarray, values: np.ndarray) -> float:
    return float(np.polyfit(times, np.log(values), 1)[0])


def estimate_rate(
    result: EnsembleResult,
    window: tuple[float, float] | None = None,
    series: str = "error",
    resamples: int = 200,
) -> tuple[float, tuple[float, float]]:
    """Least-squares exponential rate of a mean series, with a bootstrap CI.

    Fits the slope of log(mean) over the window; the confidence interval
    resamples trajectories with replacement (200 resamples, percentile
    2.5/97.5).  series selects the stabilization error sqrt(1 - p_target)
    or the open-loop Lyapunov mean ("v_open").
    """
    if series == "error":
        mean, traces = result.mean_error, result.error_traces
    elif series == "v_open":
        mean, traces = result.mean_v_open, result.v_open_traces
    else:
        raise ValueError(f"series must be 'error' or 'v_open', got {series!r}")
    if window is None:
        window = result.cfg.fit_window
    w0, w1 = window
    mask = (result.times >= w0) & (result.times <= w1)
    if mask.sum() < 2:
        raise FitDomainError(f"fit window {window} selects fewer than two grid points")
    vals = mean[mask]
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
        raise FitDomainError("mean series is nonpositive inside the fit window")
    nu_hat = -_fit_slope(result.times[mask], vals)
    sub = traces[:, mask]
    rng = np.random.Generator(np.random.Philox(key=[np.uint64(result.cfg.base_seed), np.uint64(2**62)]))
    n_traj = sub.shape[0]
    boot = np.empty(resamples)
    twin = result.times[mask]
    for r in range(resamples):
        pick = rng.integers(0, n_traj, size=n_traj)
        mboot = np.mean(sub[pick], axis=0)
        if np.any(~np.isfinite(mboot)) or np.any(mboot <= 0.0):
            boot[r] = np.nan
            continue
        boot[r] = -_fit_slope(twin, mboot)
    lo, hi = np.nanpercentile(boot, [2.5, 97.5])
    return float(nu_hat), (float(lo), float(hi))


def _fmt(x) -> str:
    return repr(float(x))


def write_series_csv(result: EnsembleResult, path: str) -> None:
    """Time series CSV: t, mean_error, q10, q50, q90, n_alive (full float precision)."""
    with open(path, "w", newline="") as fh:
        fh.write("t,mean_error,q10,q50,q90,n_alive\n")
        for i in range(len(result.times)):
            fh.write(
                f"{_fmt(result.times[i])},{_fmt(result.mean_error[i])},{_fmt(result.q10[i])},"
                f"{_fmt(result.q50[i])},{_fmt(result.q90[i])},{int(result.n_alive[i])}\n"
            )


SUMMARY_FIELDS = (
    "nu_hat",
    "ci_low",
    "ci_high",
    "trajectories",
    "t_final",
    "dt",
    "record_stride",
    "p_min",
    "p_max",
    "sigma_bar",
    "eta",
    "estimator",
    "feedback_delay",
    "base_seed",
    "fit_t_start",
    "fit_t_end",
    "saturation",
    "J",
    "initial",
)


def write_summary_csv(result: EnsembleResult, path: str) -> None:
    """One-row campaign summary with the fitted rate, its CI, and the resolved parameters."""
    cfg = result.cfg
    meas, ctrl = cfg.setups()
    values = {
        "nu_hat": _fmt(result.fitted_rate),
        "ci_low": _fmt(result.fit_ci[0]),
        "ci_high": _fmt(result.fit_ci[1]),
        "trajectories": str(cfg.trajectories),
        "t_final": _fmt(cfg.t_final),
        "dt": _fmt(cfg.dt),
        "record_stride": str(cfg.record_stride),
        "p_min": _fmt(ctrl.p_min),
        "p_max": _fmt(ctrl.p_max),
        "sigma_bar": _fmt(ctrl.sigma_bar),
        "eta": _fmt(meas.eta),
        "estimator": cfg.estimator,
        "feedback_delay": _fmt(cfg.feedback_delay),
        "base_seed": str(cfg.base_seed),
        "fit_t_start": _fmt(cfg.fit_window[0]),
        "fit_t_end": _fmt(cfg.fit_window[1]),
        "saturation": cfg.saturation,
        "J": _fmt(cfg.J),
        "initial": cfg.initial,
    }
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SUMMARY_FIELDS) + "\n")
        fh.write(",".join(values[k] for k in SUMMARY_FIELDS) + "\n")


def read_series_csv(path: str) -> dict[str, np.ndarray]:
    """Parse a series CSV back into arrays (exact float round trip)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out: dict[str, np.ndarray] = {}
    for key in ("t", "mean_error", "q10", "q50", "q90"):
        out[key] = np.array([float(r[key]) for r in rows])
    out["n_alive"] = np.array([int(r["n_alive"]) for r in rows])
    return out


def read_summary_csv(path: str) -> dict[str, str]:
    """Parse a summary CSV into its single row of raw string fields."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"summary CSV must contain exactly one row, found {len(rows)}")
    return dict(rows[0])
