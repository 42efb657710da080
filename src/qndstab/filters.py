"""State estimators driven by the measurement record.

The actuation Laplacian Delta_{k,k'} = tr(Pi_k D_H(Pi_{k'})) and the two
filter updates the campaign engine (ensemble) runs beside its Kraus plant
step (Rouchon and Ralph, Phys. Rev. A 91, 012118, 2015):

1. reduced filter: a matrix-valued filter that discards knowledge of the
   control noise B.  It takes the plant's measurement stage (its Schur
   factor), then, for a nonzero gain, the averaged control channel, the
   Kraus form of rho + sigma^2 dt D_H(rho) (_averaged_control);
2. population filter: a d-dimensional vector filter for the eigenspace
   populations only: the same two stages on the diagonal, the control
   stage to first order in sigma^2 dt (_population_update).  In open loop
   (gain identically zero) both take exactly the plant's measurement
   stage, so the population filter is the reduced filter's diagonal.

The full observer knows both Y and B and, started at the true state, is
the plant itself, so it has no update of its own.  The population filter
is the cheapest usable estimator for the feedback law, since the gain
depends on the state only through the populations.
"""

from __future__ import annotations

import numpy as np

from .core import SpectralDecomposition, _kraus_diagonal, _kraus_rows, _rowsum
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


def _averaged_control(mats, s, gen, gen2, gen_t, eye, work) -> np.ndarray:
    """Reduced filter's control stage rho <- K rho K + s A rho A^T, K = I + (s/2) A^2, on real states mats (k, n, n).

    With H = i gen = i A and s = sigma^2 dt per state, this is the Kraus
    form of rho + s D_H(rho), the averaged rotation to first order in s.
    The caller builds gen2 = A^2, gen_t = A^T as a C-order copy (numpy's
    stacked matmul is slower on a transposed view) and eye = I once per
    chunk.  The result goes into the buffers work[:, :k]; the products run
    per matrix, so a state's bits do not depend on the batch.
    """
    kraus, prod, out, side = work[:, : s.size]
    np.multiply((0.5 * s)[:, None, None], gen2, out=kraus)
    kraus += eye
    np.matmul(kraus, mats, out=prod)
    np.matmul(prod, kraus, out=out)
    np.matmul(gen, mats, out=side)
    np.matmul(side, gen_t, out=prod)
    prod *= s[:, None, None]
    out += prod
    return out


def _bands(delta: np.ndarray) -> tuple[tuple[int, int, int, np.ndarray], ...]:
    """(lo, hi, b, Delta_{k, k+b} for k in lo..hi-1 as a column) for each nonzero off-diagonal band b of Delta, b ascending."""
    d = delta.shape[0]
    rows, cols = np.nonzero(delta)
    return tuple(
        (max(0, -b), min(d, d - b), b, delta.diagonal(b)[:, None].copy())
        for b in sorted(set((cols - rows).tolist()) - {0})
    )


def _band_sum(bands, p: np.ndarray) -> np.ndarray:
    """sum_{j != k} Delta_kj p_j for every row k of batch-last p, shape (d, m), over _bands(Delta).

    Only the off-diagonal bands of Delta with a nonzero entry are summed, in
    ascending j; every skipped term is an exact zero, so the bits equal the
    dense sum over j in ascending order.  The spin ladder has two bands.
    """
    total = np.zeros(p.shape)
    for lo, hi, b, coeff in bands:
        total[lo:hi] += coeff * p[lo + b : hi + b]
    return total


def _population_update(p_hat: np.ndarray, factor: np.ndarray, s, delta: np.ndarray, bands) -> np.ndarray:
    """Population filter step on batch-last populations p_hat, shape (d, m), with s = sigma^2 dt per column.

    The measurement stage multiplies p_hat by factor, the rows [:d] of the
    plant's Schur factor; the control stage is the averaged channel's
    diagonal to first order in s, p_k <- (1 + s Delta_kk / 2)^2 p_k +
    s sum_{j != k} Delta_kj p_j; then each column is divided by its sum.
    Where s = 0 the control stage is an exact identity, so it runs on every
    column (a gather of the active ones costs more than it saves).  Every
    term is nonnegative, so no clamp is needed.  The sums over the
    eigenspace index (_band_sum over bands = _bands(delta), _rowsum) have a
    fixed order, so a column's bits do not depend on the batch width.
    """
    p = p_hat * factor
    out = delta.diagonal()[:, None] * (0.5 * s)
    out += 1.0
    out *= out
    out *= p
    out += s * _band_sum(bands, p)
    out /= _rowsum(out)
    return out


def population_filter_step(
    p_hat: np.ndarray,
    meas: MeasurementSetup,
    ctrl: ControlSetup,
    delta: np.ndarray,
    dY,
    dt: float,
) -> np.ndarray:
    """d-dimensional population filter step, on p_hat of shape (d,) or (m, d).

    The campaign engine's update (_population_update) with the undelayed
    sigma = feedback_gain(p_hat), on the Schur factor's diagonal
    m_k^2 + (1 - eta) dt lambda_k^2 with m the Kraus diagonal (core._kraus_diagonal).
    """
    p_hat = np.asarray(p_hat, dtype=float)
    lam, eta = meas.dec.eigenvalues, meas.eta
    sigma = np.asarray(feedback_gain(p_hat, ctrl))
    mvec = _kraus_diagonal(eta, dt, np.asarray(dY, dtype=float), _kraus_rows(lam, dt, 1))
    factor = mvec * mvec + ((1.0 - eta) * dt * (lam * lam))[:, None]
    cols = _population_update(np.atleast_2d(p_hat).T, factor, sigma * sigma * dt, delta, _bands(delta))
    return cols.T.reshape(p_hat.shape)
