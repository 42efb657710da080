"""State estimators driven by the measurement record.

Three estimation layers, in decreasing order of fidelity and cost:

1. full observer: the matrix-valued filter that knows both the record Y
   and the control noise B; its step is dynamics.closed_loop_step, the
   plant's own step, driven by the innovation in place of dW;
2. reduced filter: a matrix-valued filter that discards knowledge of B;
   the control channel enters only through its average effect, the
   sigma^2 D_H drift added to the plant's Euler measurement update driven
   by the innovation, so the whole step is plain Euler-Maruyama;
3. population filter: a d-dimensional vector filter for the eigenspace
   populations only, whose actuation term is the Laplacian matrix
   Delta_{k,k'} = tr(Pi_k D_H(Pi_{k'})).

The population filter is exact in open loop (gain identically zero) and
is the cheapest usable estimator for the feedback law, since the gain
depends on the state only through the populations.
"""

from __future__ import annotations

import numpy as np

from .core import SpectralDecomposition, _rowsum, dissipator, populations, project_to_physical
from .dynamics import ControlSetup, MeasurementSetup, StepInput, _measurement_update, closed_loop_step, feedback_gain

__all__ = [
    "laplacian_matrix",
    "graph_connected",
    "full_observer_step",
    "reduced_filter_step",
    "population_filter_step",
]

CONNECTIVITY_TOL = 1e-10  # Laplacian entries at or below this are not edges of the actuation graph


def laplacian_matrix(H: np.ndarray, dec: SpectralDecomposition) -> np.ndarray:
    """Actuation Laplacian Delta_{k,k'} = tr(Pi_k D_H(Pi_{k'})) on the eigenspace index set.

    Off-diagonal entries equal tr(Pi_k H Pi_{k'} H) >= 0; diagonal entries
    are the negated row sums, so rows (and by symmetry columns) sum to zero
    exactly as floating-point sums.
    """
    H = np.asarray(H, dtype=complex)
    if H.shape[-1] != dec.n:
        raise ValueError(f"H dim {H.shape[-1]} does not match decomposition dim {dec.n}")
    ph = dec.projectors @ H
    off = np.einsum("kij,lji->kl", ph, ph).real
    off = 0.5 * (off + off.T)
    np.fill_diagonal(off, 0.0)
    # exact zeros can round to tiny negatives; the true off-diagonals are
    # trace inner products tr(B^dag B) and cannot be negative
    off[off < 0] = 0.0
    delta = off.copy()
    np.fill_diagonal(delta, -np.sum(off, axis=1))
    return delta


def graph_connected(delta: np.ndarray) -> bool:
    """True iff the graph with edges {Delta_{k,k'} > CONNECTIVITY_TOL, k != k'} is connected."""
    delta = np.asarray(delta)
    d = delta.shape[-1]
    if d == 1:
        return True
    adjacency = delta > CONNECTIVITY_TOL
    np.fill_diagonal(adjacency, False)
    seen = np.zeros(d, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        k = stack.pop()
        for k2 in np.flatnonzero(adjacency[k]):
            if not seen[k2]:
                seen[k2] = True
                stack.append(int(k2))
    return bool(seen.all())


def _innovation(rho_hat: np.ndarray, meas: MeasurementSetup, dY, dt: float) -> np.ndarray:
    """Innovation dY - 2 sqrt(eta) tr(L rho_hat) dt, the filter's stand-in for dW."""
    ex = np.einsum("ij,...ji->...", meas.L, rho_hat).real
    return np.asarray(dY, dtype=float) - 2.0 * np.sqrt(meas.eta) * ex * dt


def full_observer_step(
    rho_hat: np.ndarray,
    meas: MeasurementSetup,
    ctrl: ControlSetup,
    dY,
    dB,
    dt: float,
) -> np.ndarray:
    """Observer step with full knowledge of the record Y and the control noise B.

    closed_loop_step on rho_hat, with the innovation in place of dW and the
    plant's dB.  Started at the true state with the plant's dY, it matches
    the plant to the round-off in the innovation, not exactly.
    """
    step = StepInput(dt=dt, dW=_innovation(rho_hat, meas, dY, dt), dB=dB)
    return closed_loop_step(rho_hat, meas, ctrl, step).rho_next


def reduced_filter_step(
    rho_hat: np.ndarray,
    meas: MeasurementSetup,
    ctrl: ControlSetup,
    dY,
    dt: float,
) -> np.ndarray:
    """Filter step that discards knowledge of B: Euler-Maruyama with the sigma^2 D_H drift."""
    sigma = np.asarray(feedback_gain(populations(rho_hat, meas.dec), ctrl))
    moved, _ = _measurement_update(rho_hat, meas, dt, _innovation(rho_hat, meas, dY, dt))
    moved = moved + (sigma * sigma)[..., None, None] * dissipator(ctrl.H, rho_hat) * dt
    return project_to_physical(moved)


def _population_update(p_hat: np.ndarray, meas: MeasurementSetup, delta: np.ndarray, sigma, dY, dt: float) -> np.ndarray:
    """Population filter update on batch-last populations p_hat, shape (d, m), one column per record.

    sigma and dY hold one gain and one record increment per column.  Every
    sum over the eigenspace index is a _rowsum, so a column's bits do not
    depend on the batch width.
    """
    lam = meas.dec.eigenvalues
    sqeta = np.sqrt(meas.eta)
    varpi = _rowsum(p_hat, lam)
    innov = dY - 2.0 * sqeta * varpi * dt
    p_new = p_hat + 2.0 * sqeta * p_hat * (lam[:, None] - varpi) * innov
    # column k' of Delta, as weights over the rows of p_hat
    p_new += (sigma * sigma) * _rowsum(p_hat, delta.T[:, :, None]) * dt
    np.clip(p_new, 0.0, None, out=p_new)
    return p_new / _rowsum(p_new)


def population_filter_step(
    p_hat: np.ndarray,
    meas: MeasurementSetup,
    ctrl: ControlSetup,
    delta: np.ndarray,
    dY,
    dt: float,
) -> np.ndarray:
    """d-dimensional population filter step, on p_hat of shape (d,) or (m, d).

    dp_k = 2 sqrt(eta) p_k (lambda_k - w) (dY - 2 sqrt(eta) w dt)
           + sigma(p)^2 sum_k' Delta_{k,k'} p_k' dt,   w = sum_k lambda_k p_k,

    followed by a clamp of negative components to zero and renormalization
    of the sum to one (Euler steps can leave the simplex for large noise
    increments; the continuous flow preserves it).  It is the campaign
    engine's update, with sigma = feedback_gain(p_hat) undelayed.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    sigma = np.asarray(feedback_gain(p_hat, ctrl))
    cols = _population_update(np.atleast_2d(p_hat).T, meas, delta, sigma, np.asarray(dY, dtype=float), dt)
    return cols.T.reshape(p_hat.shape)
