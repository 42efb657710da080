"""Seeded Monte Carlo campaigns, feedback delay, rate fitting, CSV reports.

The campaign engine advances a batch of trajectories in lockstep with the
positivity-preserving Kraus step of Rouchon and Ralph (Phys. Rev. A 91,
012118, 2015) followed by the exact control rotation.  With the record
increment dy = 2 sqrt(eta) tr(L rho) dt + dW, one step is

    rho <- M rho M + (1 - eta) dt L rho L,
    M    = I - L^2 dt / 2 + sqrt(eta) L dy + (eta / 2) L^2 (dy^2 - dt),

then rho <- U rho U^T with U = exp(-i H sigma dB), then rho <- rho / tr(rho).
In the package's model class (dynamics: L = diag(l) with descending l,
H = iA with A real) M = diag(m), and the measurement update is the
elementwise product of rho with m m^T + (1 - eta) dt l l^T.  That factor
is positive semidefinite, so by the Schur product theorem the state stays
positive semidefinite with no repair, and every eigenstate of L is an
exact fixed point (the update only rescales its one nonzero entry, and
the trace division restores it).  A nonpositive or non-finite trace, of
the plant or of an estimate, raises UnrecoverableStateError.  Every
control rotation exp(-iH x) = exp(A x) is real orthogonal, so from a real
initial state the state stays real symmetric; _rotation_planes builds it
from one (cos, sin) pair per rotation plane of A, which needs H to have a
nondegenerate spectrum.

States are float64, packed and batch-last: a chunk of m trajectories
carries its n x n states as one (n(n+1)/2, m) array, the n diagonal entries
first, then the upper triangle row by row, one trajectory per column (the
population filter's estimate is a (d, m) array).  The noise draws, the
gain, the measurement update, the trace, the record increment and the
population filter are row operations on contiguous rows of m; the
populations are the view [:n].

Every state the engine carries takes the same two-stage step in place,
which one kernel (_Kernel, its constants built once per chunk) runs: it is
multiplied by the plant's Schur factor, then its control stage runs; then
core._normalize divides it by its trace.  An estimator is a state and the
stage that steps it after the plant (for truth, the plant and none).  The
matrix control stages run only on the columns where they are nonzero:
_Packed.update_active unpacks those columns into (k, n, n) matrices and
packs the stage's products back, symmetrized, so no other state is
unpacked.  The two filters replace the rotation by its average under
the delayed gain sigma: the reduced filter applies
filters._averaged_control, and the population filter, on the factor's
rows [:n], that channel's first-order diagonal (filters._population_update,
which filters.population_filter_step runs too).  Where sigma = 0 both take
exactly the plant's measurement stage.  dynamics.closed_loop_step keeps
Euler-Maruyama with the physicality projection as the reference scheme;
both schemes are first order in dt.

Reproducibility contract: every trajectory owns two counter-based noise
streams (Philox) keyed by (base_seed, 4*index) for the measurement noise
W and (base_seed, 4*index + 1) for the control noise B.  A chunk draws
them NOISE_BLOCK steps at a time into (step, trajectory) rows, one tile of
NOISE_TILE trajectories at a time: each tile is transposed into the rows
while it is still in cache, so no (m, NOISE_BLOCK) draw buffer exists.
Each trajectory reads its own streams in order, and a stream's normals do
not depend on how its draws are split, so neither size changes a bit.

Every reduction over a state index takes a fixed order at every batch
width: an explicit accumulation over rows, a banded sum over the nonzero
bands of the actuation Laplacian in ascending index, a per-matrix product,
the per-row einsum over one (cos, sin) pair per rotation plane that builds
each rotation, or a max.  numpy's own sums pick their order from the
memory layout, and a width-1 chunk is contiguous along the state axis, so
they are not used over that axis.  A trajectory's bits therefore do not
depend on which rows share its batch.
run_ensemble cuts the ensemble into contiguous chunks, at least one per
worker; worker count, chunk layout and recording stride therefore never
change the bits of any trajectory, and ensembles aggregate in index order.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import DEGENERACY_TOL, _normalize, _rowsum, _SchurFactor
from .dynamics import CONTROL_RATE_MAX, ControlSetup, MeasurementSetup, feedback_gain
from .filters import _averaged_control, _bands, _population_update, laplacian_matrix
from .spin import DEFAULT_EFFICIENCY, spin2_preset

__all__ = [
    "DEFAULT_SEED",
    "MODEL_FIELDS",
    "CampaignConfig",
    "EnsembleResult",
    "run_trajectory",
    "run_ensemble",
    "write_series_csv",
    "write_summary_csv",
]

DEFAULT_SEED = 20260814
# The CampaignConfig fields that spin2_preset turns into the model.
MODEL_FIELDS = ("J", "eta", "p_min", "p_max", "sigma_bar", "saturation")
ESTIMATORS = ("truth", "reduced_filter", "population_filter")

# Most trajectories one chunk advances in lockstep; it bounds a chunk's memory.
# run_ensemble cuts [0, trajectories) into max(workers, ceil(trajectories /
# CHUNK)) contiguous, near-equal chunks, so every worker gets a chunk; no
# layout changes the bits of any trajectory.
CHUNK = 1000
# Steps of noise drawn per block, and trajectories per tile of the draw (see
# _integrate_chunk): the noise buffers take 2 * NOISE_BLOCK * m + NOISE_TILE *
# NOISE_BLOCK doubles for a chunk of m trajectories.
NOISE_BLOCK = 256
NOISE_TILE = 64
# Trajectory resamples behind estimate_rate's bootstrap confidence interval.
BOOTSTRAP_RESAMPLES = 200


class FitDomainError(ValueError):
    """Rate fit requested on a window containing nonpositive values."""


@dataclass(frozen=True)
class CampaignConfig:
    """Full description of one simulation campaign.

    p_max defaults to p_min + 0.05 and sigma_bar to sqrt((2J+1) eta) when
    left as None.  fit_window is two times, stored as floats, inside
    [0, t_final].  feedback_delay is a zero-order hold on the gain signal
    sigma, an integer multiple of dt and at most t_final; the gain is zero
    for t < feedback_delay (open-loop warm start).  initial selects the shared
    starting state: "mixed" is the maximally mixed state I/n, "target" the
    target eigenstate (plant and estimator always start at the same state).
    Construction checks every field, the model fields through
    spin2_preset, so an invalid config fails here and not in a worker.
    """

    p_min: float
    t_final: float
    estimator: str = "truth"
    J: float = 2.0
    eta: float = DEFAULT_EFFICIENCY
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
        ctrl = self.setups()[1]
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if self.trajectories < 1:
            raise ValueError("trajectories must be >= 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if not 0.0 < self.dt < np.inf:  # a NaN fails too
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if ctrl.sigma_bar**2 * float(np.linalg.norm(ctrl.H.imag, 2)) ** 2 * self.dt > CONTROL_RATE_MAX:
            raise ValueError(f"sigma_bar must satisfy sigma_bar^2 ||A||^2 dt <= {CONTROL_RATE_MAX:g}, got sigma_bar={ctrl.sigma_bar}, dt={self.dt}")
        steps = self.t_final / self.dt
        if not 1.0 - 1e-6 <= steps < np.inf:
            raise ValueError(f"t_final must be finite and positive, at least dt, got t_final={self.t_final}, dt={self.dt}")
        if abs(steps - round(steps)) > 1e-6:
            raise ValueError(f"t_final must be an integer multiple of dt, got {steps} steps")
        if round(steps) % self.record_stride != 0:
            raise ValueError("step count t_final/dt must be a multiple of record_stride")
        lag = self.feedback_delay / self.dt
        if not 0.0 <= lag < np.inf:
            raise ValueError(f"feedback_delay must be finite and >= 0, got {self.feedback_delay}")
        if abs(lag - round(lag)) > 1e-6:
            raise ValueError("feedback_delay must be an integer multiple of dt")
        if round(lag) > round(steps):
            raise ValueError(f"feedback_delay must be at most t_final, got feedback_delay={self.feedback_delay}, t_final={self.t_final}")
        try:
            w0, w1 = map(float, self.fit_window)
        except (TypeError, ValueError):
            raise ValueError(f"fit_window must be two numbers [t_start, t_end], got {self.fit_window}") from None
        object.__setattr__(self, "fit_window", (w0, w1))
        if not (0.0 <= w0 < w1 <= self.t_final):
            raise ValueError(f"fit_window must satisfy 0 <= start < end <= t_final, got {self.fit_window}")
        times = self.record_times
        if np.count_nonzero((times >= w0) & (times <= w1)) < 2:
            raise ValueError(f"fit_window {self.fit_window} holds fewer than two record times, one every {self.dt * self.record_stride:g}")
        if self.initial not in ("mixed", "target"):
            raise ValueError(f"initial must be 'mixed' or 'target', got {self.initial!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0 <= self.base_seed < 2**64:
            raise ValueError(f"base_seed must satisfy 0 <= base_seed < 2**64, got {self.base_seed}")

    def setups(self) -> tuple[MeasurementSetup, ControlSetup]:
        """The (measurement, control) pair of this config's model fields."""
        return spin2_preset(**{k: getattr(self, k) for k in MODEL_FIELDS})

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def record_times(self) -> np.ndarray:
        return np.arange(self.n_steps // self.record_stride + 1) * self.dt * self.record_stride


def noise_generator(base_seed: int, index: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one trajectory's noise stream (0 = W, 1 = B)."""
    key = [np.uint64(base_seed), np.uint64(4 * index + stream)]
    return np.random.Generator(np.random.Philox(key=key))


class DelayedGainBuffer:
    """Zero-order hold as a queue of steps = delay / dt gains: push sigma(t), receive sigma(t - delay).

    The queue starts as steps references to one zeros array of width
    entries, so the loop runs open loop for the first delay interval; at
    delay 0 it is empty and push hands back what it was given.  The line
    keeps each pushed array by reference, with no copy, so a caller must
    not write into an array once pushed: the engine pushes a fresh
    feedback_gain output on every step.
    """

    def __init__(self, delay: float, dt: float, width: int = 1):
        lag = delay / dt
        if lag < 0 or abs(lag - round(lag)) > 1e-6:
            raise ValueError("delay must be a nonnegative integer multiple of dt")
        self.steps = int(round(lag))
        self._line = deque([np.zeros(width)] * self.steps)

    def push(self, sigma: np.ndarray) -> np.ndarray:
        self._line.append(np.atleast_1d(np.asarray(sigma, dtype=float)))
        return self._line.popleft()


class _Packed:
    """Packed batch-last layout of real symmetric n x n matrices.

    A (n(n+1)/2, m) array holds m matrices, one per column.  Row r holds
    entry (i[r], j[r]) of each: the n diagonal entries first, in order, then
    the upper triangle row by row, so the diagonals are the view [:n] and
    the packed outer product of two vectors v, w is v[i] * w[j].
    """

    def __init__(self, n: int):
        iu, ju = np.triu_indices(n, 1)
        self.n = n
        self.i = np.concatenate([np.arange(n), iu])
        self.j = np.concatenate([np.arange(n), ju])
        rows = np.empty((n, n), dtype=np.intp)
        rows[self.i, self.j] = rows[self.j, self.i] = np.arange(self.i.size)
        self.rows = rows.ravel()
        self.upper = self.i * n + self.j
        self.lower = self.j * n + self.i

    def pack(self, mats: np.ndarray) -> np.ndarray:
        """(k, n, n) -> (n(n+1)/2, k), symmetrized: entry (i, j) becomes (a_ij + a_ji) / 2."""
        flat = mats.reshape(-1, self.n * self.n).T
        return 0.5 * (flat[self.upper] + flat[self.lower])

    def unpack(self, cols: np.ndarray) -> np.ndarray:
        """(n(n+1)/2, k) -> (k, n, n)."""
        return cols.T[:, self.rows].reshape(-1, self.n, self.n)

    def update_active(self, states: np.ndarray, coef: np.ndarray, update, *args) -> int:
        """In place, replace each column of packed states whose coef is nonzero by update(mats, coef[active], *args).

        mats are those columns unpacked; no other column is touched.  Returns
        the number of columns updated.
        """
        active = coef.nonzero()[0]
        if active.size:
            states[:, active] = self.pack(update(self.unpack(states[:, active]), coef[active], *args))
        return active.size


def _rotation_planes(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and basis of the control rotations exp(-i h x) = exp(A x), for h = iA purely imaginary.

    A is real antisymmetric, so eigh lists the spectrum of h in ascending
    order with eigenvalue n-1-k equal to -w_k, w_k the k-th, and a zero
    mode in the middle when n is odd.  The eigen-sum sum_k e^{-i w_k x} P_k,
    P_k = v_k v_k^dagger, is real, so each pair (k, n-1-k), k < n // 2,
    contributes cos(w_k x) Re(P_k + P_{n-1-k}) + sin(w_k x) Im(P_k - P_{n-1-k}):
    one (cos, sin) pair per rotation plane of A, whose frequency is |w_k|.
    The zero mode's term Re P does not move.  Returns w_k for k < n // 2
    and the n basis matrices, shape (n, n, n): the zero mode (odd n), the
    cos matrices, then the sin matrices.  Like the measurement operator, h
    must have a nondegenerate spectrum, so each frequency names one plane.
    """
    n = h.shape[0]
    w, v = np.linalg.eigh(h)
    if np.any(np.diff(w) <= DEGENERACY_TOL):
        raise ValueError("campaign integrator requires a control Hamiltonian with a nondegenerate spectrum (distinct rotation frequencies)")
    outer = v.T[:, :, None] * np.conj(v.T)[:, None, :]
    half = n // 2
    low, high = outer[:half], outer[::-1][:half]
    # outer takes the column-major layout of eigh's eigenvectors, and einsum
    # runs the rotations about 2.5x slower on that layout than on a C-order copy
    basis = np.concatenate([outer[half : n - half].real, (low + high).real, (low - high).imag])
    return w[:half], np.ascontiguousarray(basis)


def _rotations(x: np.ndarray, w: np.ndarray, basis: np.ndarray, out=None) -> np.ndarray:
    """exp(A x) for each angle in x, shape (k, n, n), from _rotation_planes' eigenvalues and basis.

    Each matrix is one per-row einsum over its n coefficients, so its bits
    do not depend on k.  The matrices are written into out when it is given.
    """
    angle = np.multiply.outer(x, w)
    fixed = basis.shape[0] - 2 * w.size
    coef = np.empty((x.size, basis.shape[0]))
    coef[:, :fixed] = 1.0
    np.cos(angle, out=coef[:, fixed : fixed + w.size])
    np.sin(angle, out=coef[:, fixed + w.size :])
    return np.einsum("mk,kij->mij", coef, basis, out=out)


def _rotate(mats: np.ndarray, x: np.ndarray, w: np.ndarray, basis: np.ndarray, work: np.ndarray) -> np.ndarray:
    """exp(A x) rho exp(A x)^T for each state rho of mats (k, n, n) and angle x, in the buffers work[:, :k]."""
    rot, rot_t, prod, out = work[:, : x.size]
    _rotations(x, w, basis, out=rot)
    # numpy's stacked matmul is about 3x slower on a transposed view than on a copy
    rot_t[...] = np.swapaxes(rot, -1, -2)
    np.matmul(rot, mats, out=prod)
    np.matmul(prod, rot_t, out=out)
    return out


class _Kernel:
    """One step of the scheme for a chunk of width packed states, its constants built once.

    Its stages, in the engine's order: factor, the packed Schur factor
    m m^T + (1 - eta) dt l l^T of record increments dy (m the Kraus
    diagonal), a core._SchurFactor on the packed (i, j); measure, the
    plant's measurement stage (dy from rho and dW, then rho <- rho *
    factor); rotate, the control rotation of the columns with a nonzero
    angle; reduced and population, each filter's update in place on the
    plant's factor under its own gain sigma.  The trace division is core._normalize.  The matrix stages run
    per matrix (a 2D BLAS gemm over the batch would round differently at
    different widths) in work arrays allocated once: as temporaries of a
    varying size they cost about 16 page faults per step.
    """

    def __init__(self, meas: MeasurementSetup, ctrl: ControlSetup, dt: float, width: int):
        self.n, self.lvec, self.dt = meas.dec.n, meas.dec.eigenvalues, dt
        self.pk = pk = _Packed(self.n)
        self.drift = 2.0 * np.sqrt(meas.eta) * dt
        self.factor = _SchurFactor(self.lvec, meas.eta, dt, width, pk.i, pk.j)
        self.planes = _rotation_planes(ctrl.H)
        gen = ctrl.H.imag
        self.averaged = (gen, gen @ gen, np.ascontiguousarray(gen.T), np.eye(self.n))
        self.delta = laplacian_matrix(ctrl.H, meas.dec)
        self.bands = _bands(self.delta)
        self.work = np.empty((4, width, self.n, self.n))

    def measure(self, rho: np.ndarray, dw: np.ndarray) -> np.ndarray:
        factor = self.factor(self.drift * _rowsum(rho[: self.n], self.lvec) + dw)
        rho *= factor
        return factor

    def rotate(self, rho: np.ndarray, dv: np.ndarray) -> int:
        return self.pk.update_active(rho, dv, _rotate, *self.planes, self.work)

    def reduced(self, rho_hat: np.ndarray, factor: np.ndarray, sigma: np.ndarray) -> None:
        rho_hat *= factor
        self.pk.update_active(rho_hat, sigma * sigma * self.dt, _averaged_control, *self.averaged, self.work)

    def population(self, p_hat: np.ndarray, factor: np.ndarray, sigma: np.ndarray) -> None:
        _population_update(p_hat, factor[: self.n], sigma * sigma * self.dt, self.delta, self.bands)


@dataclass(frozen=True)
class TrajectoryTrace:
    """Strided record of one trajectory."""

    error: np.ndarray
    final_populations: np.ndarray


@dataclass(frozen=True)
class EnsembleResult:
    """A campaign's measurements, in trajectory index order, and estimate_rate's fit of error_traces.

    The traces are (trajectories, records), recorded at times; the fit is
    NaN where estimate_rate raises FitDomainError.
    engaged_column_steps counts the column-steps on which the plant's
    control rotation ran, over all trajectories.
    """

    cfg: CampaignConfig
    times: np.ndarray
    error_traces: np.ndarray
    final_populations: np.ndarray
    fitted_rate: float
    fit_ci: tuple[float, float]
    engaged_column_steps: int


def _integrate_chunk(cfg: CampaignConfig, start: int, stop: int):
    """Advance trajectories start..stop-1 in lockstep in real arithmetic; see module docstring.

    Returns the recorded errors (m, n_rec), the final populations (m, n)
    and the number of column-steps the plant rotated.
    """
    meas, ctrl = cfg.setups()
    n, target, dt = meas.dec.n, ctrl.target, cfg.dt

    m = stop - start
    kern = _Kernel(meas, ctrl, dt, m)
    p0 = np.eye(n)[target] if cfg.initial == "target" else np.full(n, 1.0 / n)
    rho = np.tile(kern.pk.pack(np.diag(p0)[None]), (1, m))
    # the state whose rows [:n] the gain reads, and the stage that steps it after the plant
    est, stage = rho, None
    if cfg.estimator == "reduced_filter":
        est, stage = rho.copy(), kern.reduced
    elif cfg.estimator == "population_filter":
        est, stage = np.tile(p0[:, None], (1, m)), kern.population
    buffer = DelayedGainBuffer(cfg.feedback_delay, dt, width=m)
    # the generators of each stream drawn: W, then B only where sigma_bar > 0
    drawn = 2 if ctrl.sigma_bar > 0.0 else 1
    streams = [[noise_generator(cfg.base_seed, i, s) for i in range(start, stop)] for s in range(drawn)]

    n_steps = cfg.n_steps
    stride = cfg.record_stride
    n_rec = n_steps // stride + 1
    err = np.empty((m, n_rec))
    sqdt = np.sqrt(dt)
    # allocated once and refilled in place, so a chunk's peak memory does not
    # depend on where the allocator puts the rotation's data-dependent arrays;
    # each trajectory's stream fills one row of a tile of NOISE_TILE
    # trajectories, which is transposed into the (block, m) rows while it is
    # still in cache, so a step reads contiguous rows; at sigma_bar = 0 the B
    # rows are never drawn and stay zero, so every control angle is zero
    width = min(NOISE_BLOCK, n_steps)
    tile = np.empty((min(m, NOISE_TILE), width))
    dw_rows, db_rows = noise = np.zeros((2, width, m))

    wrong = [k for k in range(n) if k != target]

    def _record(slot: int, p: np.ndarray):
        # the error is the root of the summed wrong populations, which keep
        # their full relative precision where 1 - p_target rounds to 0
        err[:, slot] = np.sqrt(np.clip(_rowsum([p[k] for k in wrong]), 0.0, 1.0))

    _record(0, rho[:n])

    step = engaged = 0
    while step < n_steps:
        blen = min(NOISE_BLOCK, n_steps - step)
        for gens, rows in zip(streams, noise):
            for a in range(0, m, NOISE_TILE):
                draws = tile[: min(NOISE_TILE, m - a), :blen]
                for g, row in zip(gens[a : a + NOISE_TILE], draws):
                    g.standard_normal(out=row)
                rows[:blen, a : a + NOISE_TILE] = draws.T
            # one contiguous pass; a strided multiply into the tile's columns costs more
            rows[:blen] *= sqdt
        for j in range(blen):
            sigma_app = buffer.push(feedback_gain(est[:n].T, ctrl))
            dv = sigma_app * db_rows[j]

            factor = kern.measure(rho, dw_rows[j])
            engaged += kern.rotate(rho, dv)
            _normalize(rho, n, start, step + 1)
            if stage is not None:
                stage(est, factor, sigma_app)
                _normalize(est, n, start, step + 1, "estimate")

            step += 1
            if step % stride == 0:
                _record(step // stride, rho[:n])

    return err, np.ascontiguousarray(rho[:n].T), engaged


def run_trajectory(cfg: CampaignConfig, index: int) -> TrajectoryTrace:
    """Integrate a single trajectory, bit-identical to its appearance in any ensemble.

    The noise keys depend on the global trajectory index, not on the chunk
    layout, so a width-1 integration reproduces the ensemble member exactly.
    """
    if not 0 <= index < cfg.trajectories:
        raise ValueError(f"trajectory index {index} outside 0..{cfg.trajectories - 1}")
    err, final_p, _ = _integrate_chunk(cfg, index, index + 1)
    return TrajectoryTrace(error=err[0], final_populations=final_p[0])


def _chunk_bounds(trajectories: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal (start, stop) chunks: max(workers, ceil(trajectories / CHUNK)) of them."""
    k = min(trajectories, max(workers, -(-trajectories // CHUNK)))
    return [(trajectories * i // k, trajectories * (i + 1) // k) for i in range(k)]


def run_ensemble(cfg: CampaignConfig) -> EnsembleResult:
    """Run all trajectories of a campaign, concatenate their traces in index order and fit the error's rate."""
    bounds = _chunk_bounds(cfg.trajectories, cfg.workers)
    if cfg.workers > 1 and len(bounds) > 1:
        # imported here, so single-worker campaigns never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # at most one process per processor: a pool forks all of its workers at once
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(bounds), os.cpu_count() or 1)) as pool:
            starts, stops = zip(*bounds)
            parts = list(pool.map(_integrate_chunk, [cfg] * len(bounds), starts, stops))
    else:
        parts = [_integrate_chunk(cfg, a, b) for a, b in bounds]
    err = np.concatenate([p[0] for p in parts], axis=0)
    final_p = np.concatenate([p[1] for p in parts], axis=0)
    times = cfg.record_times
    try:
        nu, ci = estimate_rate(times, err, cfg.fit_window, cfg.base_seed)
    except FitDomainError:
        nu, ci = np.nan, (np.nan, np.nan)
    return EnsembleResult(
        cfg=cfg, times=times, error_traces=err, final_populations=final_p,
        fitted_rate=nu, fit_ci=ci, engaged_column_steps=sum(p[2] for p in parts),
    )


def _fit_slope(times: np.ndarray, values: np.ndarray) -> float:
    return float(np.polyfit(times, np.log(values), 1)[0])


def estimate_rate(
    times: np.ndarray, traces: np.ndarray, fit_window: tuple[float, float], seed: int
) -> tuple[float, tuple[float, float]]:
    """Least-squares exponential rate of the mean of traces (trajectories, records), with a bootstrap CI.

    Fits the slope of log(mean over trajectories) against times inside
    fit_window = (t_start, t_end); the CI resamples trajectories with
    replacement (BOOTSTRAP_RESAMPLES resamples keyed by seed, percentile
    2.5/97.5).  FitDomainError: fewer than two records in the window, or a
    mean there that is not positive and finite.
    """
    w0, w1 = fit_window
    mask = (times >= w0) & (times <= w1)
    if mask.sum() < 2:
        raise FitDomainError(f"fit window {fit_window} selects fewer than two grid points")
    vals = np.mean(traces, axis=0)[mask]
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
        raise FitDomainError("mean series is nonpositive inside the fit window")
    twin = times[mask]
    nu_hat = -_fit_slope(twin, vals)
    sub = traces[:, mask]
    rng = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(2**62)]))
    n_traj = sub.shape[0]
    boot = np.empty(BOOTSTRAP_RESAMPLES)
    for r in range(BOOTSTRAP_RESAMPLES):
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
    """Time series CSV, full float precision: t, then mean_error, q10, q50, q90 of error_traces, n_alive = trajectories."""
    err = result.error_traces
    columns = (result.times, np.mean(err, axis=0), *np.percentile(err, [10.0, 50.0, 90.0], axis=0))
    with open(path, "w", newline="") as fh:
        fh.write("t,mean_error,q10,q50,q90,n_alive\n")
        for row in zip(*columns):
            fh.write(",".join(map(_fmt, row)) + f",{result.cfg.trajectories}\n")


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
        fh.write(",".join(values) + "\n")
        fh.write(",".join(values.values()) + "\n")
