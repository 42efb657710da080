"""State estimators driven by the measurement record.

The actuation Laplacian Delta_{k,k'} = tr(Pi_k D_H(Pi_{k'})) and the two
filter updates the campaign engine (ensemble) runs beside its Kraus plant
step (Rouchon and Ralph, Phys. Rev. A 91, 012118, 2015):

1. reduced filter: a matrix-valued filter that discards knowledge of the
   control noise B; the control channel enters only through its average
   effect sigma^2 D_H, as Kraus terms next to the plant's measurement step;
2. population filter: a d-dimensional vector filter for the eigenspace
   populations only, the diagonal of the reduced filter's step on a
   diagonal state to first order in sigma^2 dt; in open loop (gain
   identically zero) the two agree exactly.

The full observer knows both Y and B and, started at the true state, is
the plant itself, so it has no update of its own.  The population filter
is the cheapest usable estimator for the feedback law, since the gain
depends on the state only through the populations.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import SpectralDecomposition, _kraus_diagonal, _rowsum
from .dynamics import ControlSetup, MeasurementSetup, feedback_gain

__all__ = [
    "laplacian_matrix",
    "graph_connected",
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


def _reduced_update(mats: np.ndarray, lvec: np.ndarray, eta: float, gen: np.ndarray, sigma, mvec, dt: float) -> np.ndarray:
    """Reduced filter's Kraus step on real states mats, shape (k, n, n), before the trace division.

    The states are in the eigenbasis of L = diag(lvec), the control
    Hamiltonian is H = i gen, and mvec is the (n, k) Kraus diagonal of the
    record increments (core._kraus_diagonal).  With s = sigma^2 dt per state,
    H rho H = A rho A^T and H^2 = -A^2 for A = gen, so the averaged control
    channel s D_H adds (s/2) A^2 to M = diag(m) and s A rho A^T to the sum:

        rho <- M rho M + (1 - eta) dt L rho L + s A rho A^T.

    The products run per matrix, so a state's bits do not depend on the batch.
    """
    s2dt = (sigma * sigma * dt)[:, None, None]
    kraus = mvec.T[:, :, None] * np.eye(lvec.size) + 0.5 * s2dt * (gen @ gen)
    out = kraus @ mats @ kraus + (1.0 - eta) * dt * (lvec[:, None] * mats * lvec)
    out += s2dt * (gen @ mats @ gen.T)
    return out


@functools.lru_cache(maxsize=16)
def _bands(raw: bytes, d: int) -> tuple[tuple[int, int, int, np.ndarray], ...]:
    """(lo, hi, b, Delta_{k, k+b} for k in lo..hi-1 as a column) for each nonzero off-diagonal band b of Delta, b ascending.

    Delta arrives as the bytes of its C-order float array, so a chunk's
    steps share one entry.
    """
    delta = np.frombuffer(raw).reshape(d, d)
    rows, cols = np.nonzero(delta)
    return tuple(
        (max(0, -b), min(d, d - b), b, delta.diagonal(b)[:, None].copy())
        for b in sorted(set((cols - rows).tolist()) - {0})
    )


def _band_sum(delta: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_{j != k} Delta_kj p_j for every row k of batch-last p, shape (d, m).

    Only the off-diagonal bands of Delta with a nonzero entry are summed, in
    ascending j; every skipped term is an exact zero, so the bits equal the
    dense sum over j in ascending order.  The spin ladder has two bands.
    """
    total = np.zeros(p.shape)
    for lo, hi, b, coeff in _bands(np.ascontiguousarray(delta, dtype=float).tobytes(), delta.shape[0]):
        total[lo:hi] += coeff * p[lo + b : hi + b]
    return total


def _population_update(p_hat: np.ndarray, meas: MeasurementSetup, delta: np.ndarray, sigma, mvec, dt: float) -> np.ndarray:
    """Population filter update on batch-last populations p_hat, shape (d, m), one column per record.

    sigma holds one gain per column and mvec the (d, m) Kraus diagonal of
    each column's record increment (core._kraus_diagonal).  With
    s = sigma^2 dt, p_k becomes ((m_k + s Delta_kk / 2)^2 + (1 - eta) dt
    lambda_k^2) p_k + s sum_{j != k} Delta_kj p_j, computed in place, then
    each column is divided by its sum.  The Laplacian term runs over the
    nonzero bands of Delta (_band_sum) and the column sum is a _rowsum, so
    every sum over the eigenspace index has a fixed order and a column's
    bits do not depend on the batch width.
    """
    lam = meas.dec.eigenvalues
    s = sigma * sigma * dt
    p_new = delta.diagonal()[:, None] * (0.5 * s)
    p_new += mvec
    p_new *= p_new
    p_new += (1.0 - meas.eta) * dt * (lam * lam)[:, None]
    p_new *= p_hat
    p_new += s * _band_sum(delta, p_hat)
    p_new /= _rowsum(p_new)
    return p_new


def population_filter_step(
    p_hat: np.ndarray,
    meas: MeasurementSetup,
    ctrl: ControlSetup,
    delta: np.ndarray,
    dY,
    dt: float,
) -> np.ndarray:
    """d-dimensional population filter step, on p_hat of shape (d,) or (m, d).

    The diagonal of the reduced filter's Kraus step on diag(p_hat), with
    the terms of order s^2 dropped, s = sigma(p)^2 dt:

        p_k <- ((m_k + s Delta_kk / 2)^2 + (1 - eta) dt lambda_k^2) p_k
               + s sum_{k' != k} Delta_kk' p_k',
        m_k  = 1 - lambda_k^2 dt / 2 + sqrt(eta) lambda_k dY + (eta / 2) lambda_k^2 (dY^2 - dt),

    then divided by its sum.  Every term is nonnegative, so the step stays
    on the simplex with no clamp.  It is the campaign engine's update, with
    sigma = feedback_gain(p_hat) undelayed.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    sigma = np.asarray(feedback_gain(p_hat, ctrl))
    mvec = _kraus_diagonal(meas.dec.eigenvalues, meas.eta, dt, np.asarray(dY, dtype=float))
    cols = _population_update(np.atleast_2d(p_hat).T, meas, delta, sigma, mvec, dt)
    return cols.T.reshape(p_hat.shape)
