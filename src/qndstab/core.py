"""Density-matrix primitives for diffusive quantum measurement models.

States are ndarrays of shape (n, n), or batches with arbitrary leading
axes, shape (..., n, n).  Complex states live only in the Euler reference
(dissipator, innovation_superop, unitary_conjugate and project_to_physical,
which dynamics.closed_loop_step composes) and in random_density_matrix,
the one complex sampler, which its checks and the benchmark draw from;
the campaign engine carries real states, the certificate only their
populations, and populations reads either.  Every operation here
broadcasts over the leading axes, so trajectory ensembles can be pushed
through as a single array.

The measurement operator is real diagonal with strictly descending
entries, L = diag(l), so each eigenspace is one basis vector: its
spectral decomposition (the entries of l, in order, with the coordinate
projectors) is the object the rest of the package consumes, and the
eigenspace populations the feedback laws act on are the state diagonal.

Conventions: all tolerances are absolute unless stated otherwise, and all
random sampling takes an explicit numpy Generator so callers own seeding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "UnrecoverableStateError",
    "SpectralDecomposition",
    "validate_hermitian",
    "spectral_decomposition",
    "populations",
    "dissipator",
    "innovation_superop",
    "unitary_conjugate",
    "project_to_physical",
]

HERMITIAN_TOL = 1e-12  # entrywise |M - M^dag| allowed by validate_hermitian
DEGENERACY_TOL = 1e-8  # gap between consecutive entries of L at or below which spectral_decomposition refuses L
TRACE_FLOOR = 1e-12  # clipped trace at or below which project_to_physical gives up


class UnrecoverableStateError(RuntimeError):
    """A numerical state lost essentially all of its trace and cannot be repaired."""


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2, broadcasting over leading axes."""
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def _require_square(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def validate_hermitian(op: np.ndarray, name: str = "operator") -> np.ndarray:
    """Check Hermiticity entrywise within HERMITIAN_TOL; returns the input on success."""
    op = _require_square(op, name)
    dev = float(np.max(np.abs(op - np.conj(np.swapaxes(op, -1, -2)))))
    if dev > HERMITIAN_TOL:
        raise ValueError(
            f"{name} is not Hermitian: max |M - M^dag| = {dev:.3e} exceeds {HERMITIAN_TOL:.3e}"
        )
    return op


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) and spectral projectors of a measurement operator.

    eigenvalues: (d,) real, strictly decreasing.
    projectors: (d, n, n) real, the coordinate projectors e_k e_k^T (d = n).
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray

    @property
    def d(self) -> int:
        return len(self.eigenvalues)

    @property
    def n(self) -> int:
        return self.projectors.shape[-1]


def spectral_decomposition(op: np.ndarray) -> SpectralDecomposition:
    """The decomposition of a real diagonal measurement operator L with strictly descending entries.

    This is the one check of L: an entry off the diagonal, a diagonal
    entry with an imaginary part, or a gap l_k - l_{k+1} <= DEGENERACY_TOL
    (an ascending or degenerate spectrum) raises ValueError.  A complex
    dtype with zero imaginary part is accepted.
    """
    op = _require_square(op, "measurement operator")
    if op.ndim != 2:
        raise ValueError("spectral_decomposition takes a single matrix, not a batch")
    lvec = np.diagonal(op).real.astype(float)
    if np.any(op != np.diag(lvec)):
        raise ValueError("measurement operator must be real diagonal, L = diag(l)")
    if np.any(lvec[:-1] - lvec[1:] <= DEGENERACY_TOL):
        raise ValueError(
            f"measurement operator must have strictly descending diagonal entries, each gap > {DEGENERACY_TOL:.1e}"
        )
    eye = np.eye(len(lvec))
    return SpectralDecomposition(lvec, eye[:, :, None] * eye[:, None, :])


def _expectations(rho: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Re tr(obs_k rho) for real observables obs_k given as rows (k, n^2) of obs_k^T, shape (..., k).

    rho is complex or real, shape (..., n, n); a real observable reads only
    Re rho, so one real einsum runs over its n^2 coordinates.  The einsum
    runs without optimize, so no BLAS call sums over the batch axis.
    """
    x = np.ascontiguousarray(np.real(rho), dtype=float)
    return np.einsum("...x,kx->...k", x.reshape(x.shape[:-2] + (-1,)), rows)


def populations(rho: np.ndarray, dec: SpectralDecomposition) -> np.ndarray:
    """Eigenspace populations p_k = tr(rho Pi_k) = Re rho_kk, shape (..., d), clipped to [0, 1]; rho is complex or real."""
    rho = np.asarray(rho)
    if rho.shape[-1] != dec.n:
        raise ValueError(f"state dim {rho.shape[-1]} does not match decomposition dim {dec.n}")
    return np.clip(np.diagonal(rho, axis1=-2, axis2=-1).real, 0.0, 1.0)


def dissipator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D_A(rho) = A rho A^dag - (A^dag A rho + rho A^dag A)/2."""
    op = _require_square(op, "operator")
    ad = np.conj(np.swapaxes(op, -1, -2))
    ada = ad @ op
    return op @ rho @ ad - 0.5 * (ada @ rho + rho @ ada)


def innovation_superop(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Measurement backaction M_L(rho) = L rho + rho L^dag - tr((L + L^dag) rho) rho."""
    op = _require_square(op, "operator")
    ad = np.conj(np.swapaxes(op, -1, -2))
    ex = np.einsum("...ij,...ji->...", (op + ad), rho).real
    return op @ rho + rho @ ad - ex[..., None, None] * rho


def unitary_conjugate(h: np.ndarray, x, rho: np.ndarray) -> np.ndarray:
    """exp(-i H x) rho exp(i H x), exact via the eigendecomposition of H.

    x may be a scalar or an array broadcastable against the leading axes of
    rho, so a batch of states can be rotated by per-state angles.
    """
    h = validate_hermitian(h, name="control Hamiltonian")
    w, v = np.linalg.eigh(h)
    x = np.asarray(x, dtype=float)
    phase = np.exp(-1j * x[..., None] * w)
    t = np.conj(v.T) @ rho @ v
    t = phase[..., :, None] * t * np.conj(phase)[..., None, :]
    return v @ t @ np.conj(v.T)


def project_to_physical(m: np.ndarray) -> np.ndarray:
    """Repair a numerically drifted state: hermitize, clip negative eigenvalues, renormalize.

    Raises UnrecoverableStateError when the clipped trace is <= TRACE_FLOOR,
    i.e. the matrix retains no usable positive part.  Idempotent on valid
    states up to 1e-12.
    """
    m = _require_square(np.asarray(m, dtype=complex), "state")
    sym = hermitian_part(m)
    w, v = np.linalg.eigh(sym)
    w = np.clip(w, 0.0, None)
    tr = np.sum(w, axis=-1)
    if np.any(tr <= TRACE_FLOOR):
        bad = np.argwhere(np.atleast_1d(tr) <= TRACE_FLOOR).ravel()
        raise UnrecoverableStateError(
            f"state trace after clipping <= {TRACE_FLOOR:.1e} at batch indices {bad.tolist()}"
        )
    w = w / tr[..., None]
    out = (v * w[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    return hermitian_part(out)


def random_density_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Hilbert-Schmidt random state G G^dag / tr(G G^dag) of a full-rank complex Ginibre factor G = A + iB.

    A and B are one (2, n, n) standard normal draw.  G G^dag is built from
    real products of the factors with C-order copies of their transposes:
    A A^T + B B^T is its real part and B A^T - A B^T its imaginary part, so
    the state is exactly Hermitian.  It is then multiplied by the
    reciprocal of the real trace, which is what numpy's complex-by-real
    division computes.
    """
    a, b = rng.standard_normal((2, n, n))
    at, bt = a.T.copy(), b.T.copy()
    rho = np.empty((n, n), dtype=complex)
    np.add(a @ at, b @ bt, out=rho.real)
    np.subtract(b @ at, a @ bt, out=rho.imag)
    x = rho.view(float)
    x *= 1.0 / np.trace(rho.real)
    return rho


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


def _normalize(x: np.ndarray, n: int, start: int, step: int, state: str = "plant") -> None:
    """Divide each column of batch-last x by its trace, the sum of its rows [:n], in place; a nonpositive or non-finite trace is unrecoverable."""
    tr = _rowsum(x[:n])
    if not (tr.min() > 0.0 and tr.max() < np.inf):  # a NaN fails both
        bad = int(np.flatnonzero(~((tr > 0.0) & (tr < np.inf)))[0])
        raise UnrecoverableStateError(f"{state} of trajectory {start + bad} has trace {float(tr[bad])!r} after step {step}")
    x /= tr


class _SchurFactor:
    """The Schur factor m_i m_j + (1 - eta) dt l_i l_j of record increments dy, at rows (i, j) (index arrays or slices), L = diag(lvec).

    m is the diagonal of the Kraus operator of Rouchon and Ralph (Phys. Rev.
    A 91, 012118, 2015), M = I - L^2 dt/2 + sqrt(eta) L dy + (eta/2) L^2 (dy^2 - dt),
    each entry (1 - l^2 dt/2 + l x) + (x^2 - eta dt)/2 l^2 with x = sqrt(eta) dy.
    Called on dy of shape (width,), or on any dy at width 1 (both give the
    same products), it returns the factor's rows (i, j), one column per
    increment.  Its constant rows l, l^2, 1 - l^2 dt/2 and the cross term
    are tiled to width once: a row times a contiguous row is a cheaper numpy
    call than an (n, 1) column broadcast against a (k,) vector.
    """

    def __init__(self, lvec: np.ndarray, eta: float, dt: float, width: int, i, j):
        l2 = lvec * lvec
        cols = np.stack([lvec, l2, 1.0 - 0.5 * dt * l2])
        self.lrow, self.l2row, self.c0row = np.repeat(cols[:, :, None], width, axis=2)
        self.cross = np.repeat(((1.0 - eta) * dt * (lvec[i] * lvec[j]))[:, None], width, axis=1)
        self.eta, self.dt, self.i, self.j = eta, dt, i, j

    def __call__(self, dy) -> np.ndarray:
        x = np.sqrt(self.eta) * dy
        m = self.lrow * x
        m += self.c0row
        q = x * x
        q -= self.eta * self.dt
        q *= 0.5
        m += self.l2row * q
        factor = m[self.i] * m[self.j]
        factor += self.cross
        return factor
