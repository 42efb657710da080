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

Both updates step their state in place and leave its trace division to
core._normalize, which the engine applies to the plant too.

The population filter is the cheapest usable estimator for the feedback
law, since the gain depends on the state only through the populations.
"""

from __future__ import annotations

import numpy as np

from .core import SpectralDecomposition, _normalize, _SchurFactor
from .dynamics import ControlSetup, MeasurementSetup, feedback_gain

__all__ = [
    "laplacian_matrix",
    "graph_connected",
    "population_filter_step",
]

CONNECTIVITY_TOL = 1e-10  # Laplacian entries at or below this are not edges of the actuation graph


def laplacian_matrix(H: np.ndarray, dec: SpectralDecomposition) -> np.ndarray:
    """Actuation Laplacian Delta_{k,k'} = tr(Pi_k D_H(Pi_{k'})) on the eigenspace index set.

    With the coordinate projectors Pi_k = e_k e_k^T, the off-diagonal
    entries are tr(Pi_k H Pi_{k'} H) = |H_{kk'}|^2; the diagonal entries are
    the negated row sums, so rows (and by symmetry columns) sum to zero
    exactly as floating-point sums.
    """
    H = np.asarray(H, dtype=complex)
    if H.shape[-1] != dec.n:
        raise ValueError(f"H dim {H.shape[-1]} does not match decomposition dim {dec.n}")
    off = np.abs(H) ** 2
    np.fill_diagonal(off, 0.0)
    delta = off.copy()
    np.fill_diagonal(delta, -np.sum(off, axis=1))
    return delta


def graph_connected(delta: np.ndarray) -> bool:
    """True iff every vertex is reachable from vertex 0 along edges {Delta_{k,k'} > CONNECTIVITY_TOL} (connectivity, for a symmetric Delta).

    Row 0 of (A + I)^(d-1), A the edge matrix, marks what d - 1 steps reach.
    """
    reach = np.asarray(delta) > CONNECTIVITY_TOL
    np.fill_diagonal(reach, True)
    return bool(np.linalg.matrix_power(reach, len(reach) - 1)[0].all())


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


def _population_update(p_hat: np.ndarray, factor: np.ndarray, s, delta: np.ndarray, bands) -> None:
    """Unnormalized population filter step, in place, on batch-last populations p_hat, shape (d, m), with s = sigma^2 dt per column.

    The measurement stage multiplies p_hat by factor, the rows [:d] of the
    plant's Schur factor; the control stage is the averaged channel's
    diagonal to first order in s, p_k <- (1 + s Delta_kk / 2)^2 p_k +
    s sum_{j != k} Delta_kj p_j.  The caller divides each column by its sum
    (core._normalize), as for the reduced filter.  Where s = 0 the control
    stage is an exact identity, so it runs on every column (a gather of the
    active ones costs more than it saves).  Every term is nonnegative, so no
    clamp is needed.  The sum over the eigenspace index (_band_sum over
    bands = _bands(delta)) has a fixed order, so a column's bits do not
    depend on the batch width.
    """
    p_hat *= factor
    side = s * _band_sum(bands, p_hat)
    p_hat *= (1.0 + delta.diagonal()[:, None] * (0.5 * s)) ** 2
    p_hat += side


def population_filter_step(p_hat: np.ndarray, meas: MeasurementSetup, ctrl: ControlSetup, delta: np.ndarray, dY, dt: float) -> np.ndarray:
    """d-dimensional population filter step, on p_hat of shape (d,) or (m, d), into a new array.

    The campaign engine's update (_population_update) on a copy of p_hat with
    the undelayed sigma = feedback_gain(p_hat), on the diagonal of the
    plant's Schur factor, m_k^2 + (1 - eta) dt lambda_k^2 (core._SchurFactor
    at (k, k)), then its trace division, core._normalize, which raises
    UnrecoverableStateError.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    diag = slice(None)  # rows (k, k), as views where an index array would copy
    sigma = np.asarray(feedback_gain(p_hat, ctrl))
    factor = _SchurFactor(meas.dec.eigenvalues, meas.eta, dt, 1, diag, diag)(np.asarray(dY, dtype=float))
    cols = np.atleast_2d(p_hat).T.copy()
    _population_update(cols, factor, sigma * sigma * dt, delta, _bands(delta))
    _normalize(cols, len(cols), 0, 1, "estimate")
    return cols.T.reshape(p_hat.shape)
