"""Density-matrix primitives for diffusive quantum measurement models.

States are complex ndarrays of shape (n, n), or batches with arbitrary
leading axes, shape (..., n, n); populations also reads real states.
Every operation here broadcasts over the leading axes, so trajectory
ensembles can be pushed through as a single array.  The measurement operator is Hermitian throughout; its spectral
decomposition (distinct eigenvalues, descending, with orthogonal
projectors) is the object the rest of the package consumes, because the
eigenspace populations are what the feedback laws act on.

Conventions: all tolerances are absolute unless stated otherwise, and all
random sampling takes an explicit numpy Generator so callers own seeding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "UnrecoverableStateError",
    "SpectralDecomposition",
    "hermitian_part",
    "trace",
    "validate_hermitian",
    "validate_density_matrix",
    "spectral_decomposition",
    "populations",
    "dissipator",
    "innovation_superop",
    "unitary_conjugate",
    "project_to_physical",
    "random_density_matrix",
]

HERMITIAN_TOL = 1e-12  # entrywise |M - M^dag| allowed by validate_hermitian
DENSITY_TOL = 1e-9  # Hermiticity, trace and positivity slack of validate_density_matrix
DEGENERACY_TOL = 1e-8  # eigenvalue gap below which spectral_decomposition merges eigenspaces
TRACE_FLOOR = 1e-12  # clipped trace at or below which project_to_physical gives up


class UnrecoverableStateError(RuntimeError):
    """A numerical state lost essentially all of its trace and cannot be repaired."""


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2, broadcasting over leading axes."""
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def trace(m: np.ndarray) -> np.ndarray:
    """Matrix trace over the last two axes."""
    return np.einsum("...ii->...", m)


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


def validate_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Check Hermiticity, unit trace and positivity, each within DENSITY_TOL."""
    rho = _require_square(rho, name)
    herm_dev = float(np.max(np.abs(rho - np.conj(np.swapaxes(rho, -1, -2)))))
    if herm_dev > DENSITY_TOL:
        raise ValueError(f"{name} is not Hermitian within {DENSITY_TOL:.1e}: deviation {herm_dev:.3e}")
    tr_dev = float(np.max(np.abs(trace(rho) - 1.0)))
    if tr_dev > DENSITY_TOL:
        raise ValueError(f"{name} does not have unit trace within {DENSITY_TOL:.1e}: deviation {tr_dev:.3e}")
    wmin = float(np.min(np.linalg.eigvalsh(hermitian_part(rho))))
    if wmin < -DENSITY_TOL:
        raise ValueError(f"{name} is not positive semidefinite: min eigenvalue {wmin:.3e} < -{DENSITY_TOL:.1e}")
    return rho


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues (descending) and spectral projectors of a Hermitian operator.

    eigenvalues: (d,) real, strictly decreasing.
    projectors: (d, n, n) complex, Hermitian, idempotent, mutually orthogonal,
        resolving the identity.
    multiplicities: (d,) int, eigenspace dimensions, summing to n.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray
    multiplicities: np.ndarray

    @property
    def d(self) -> int:
        return len(self.eigenvalues)

    @property
    def n(self) -> int:
        return self.projectors.shape[-1]

    @cached_property
    def _rows(self) -> np.ndarray:
        """The projectors as real weight rows for _expectations, built once."""
        return _real_rows(self.projectors)


def spectral_decomposition(op: np.ndarray) -> SpectralDecomposition:
    """Group the spectrum of a Hermitian operator into distinct eigenspaces.

    Eigenvalues closer than DEGENERACY_TOL (chained by consecutive
    gaps) are merged into a single eigenspace; the reported eigenvalue of a
    group is the group mean.  Output ordering is descending.
    """
    op = validate_hermitian(op, name="measurement operator")
    if op.ndim != 2:
        raise ValueError("spectral_decomposition takes a single matrix, not a batch")
    w, v = np.linalg.eigh(op)
    n = len(w)
    # cluster ascending eigenvalues by consecutive gaps
    boundaries = [0]
    for i in range(1, n):
        if w[i] - w[i - 1] > DEGENERACY_TOL:
            boundaries.append(i)
    boundaries.append(n)
    eigenvalues = []
    projectors = []
    multiplicities = []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        block = v[:, a:b]
        proj = block @ np.conj(block.T)
        eigenvalues.append(float(np.mean(w[a:b])))
        projectors.append(hermitian_part(proj))
        multiplicities.append(b - a)
    # descending order to match the eigenvalue-indexing convention
    eigenvalues = np.asarray(eigenvalues[::-1], dtype=float)
    projectors = np.asarray(projectors[::-1], dtype=complex)
    multiplicities = np.asarray(multiplicities[::-1], dtype=int)
    return SpectralDecomposition(eigenvalues, projectors, multiplicities)


def _real_rows(obs: np.ndarray) -> np.ndarray:
    """Weight rows, shape (k, 2 n^2), that read Re tr(obs_k rho) off rho's real coordinates.

    Row k interleaves Re obs_k^T and -Im obs_k^T in the order of the float64
    view of a C-ordered complex rho, so Re(obs_k[j, i] rho[i, j]) is the
    sum of the two products at rho[i, j]'s real and imaginary parts.
    """
    t = np.swapaxes(obs, -1, -2)
    return np.stack([t.real, -t.imag], axis=-1).reshape(len(obs), -1)


def _expectations(rho: np.ndarray, rows: np.ndarray, out=None) -> np.ndarray:
    """Re tr(obs_k rho) for the rows of _real_rows(obs), shape (..., k), from one real einsum.

    rho is complex or real, shape (..., n, n), and the einsum reads the
    float64 view of whichever it is: a complex rho's 2 n^2 coordinates
    against the full rows, a real rho's n^2 against their even columns,
    the weights Re obs_k^T.  The einsum runs without optimize, so no BLAS
    call sums over the batch axis.  The result is written into out when
    given.
    """
    rho = np.ascontiguousarray(rho, dtype=complex if np.iscomplexobj(rho) else float)
    x = rho.view(float).reshape(rho.shape[:-2] + (-1,))
    if x.shape[-1] < rows.shape[-1]:
        rows = np.ascontiguousarray(rows[:, ::2])
    return np.einsum("...x,kx->...k", x, rows, out=out)


def populations(rho: np.ndarray, dec: SpectralDecomposition) -> np.ndarray:
    """Eigenspace populations p_k = tr(rho Pi_k), shape (..., d), clipped to [0, 1].

    rho is complex or real; the trace runs over the real coordinates of
    either (_expectations).
    """
    rho = np.asarray(rho)
    if rho.shape[-1] != dec.n:
        raise ValueError(f"state dim {rho.shape[-1]} does not match decomposition dim {dec.n}")
    return _populations(rho, dec)


def _populations(rho: np.ndarray, dec: SpectralDecomposition, out=None) -> np.ndarray:
    """populations without the dimension check, written into out (shape (..., d)) when given."""
    return np.clip(_expectations(rho, dec._rows, out), 0.0, 1.0, out=out)


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


def ginibre_states(z: np.ndarray) -> np.ndarray:
    """States G G^dag / tr(G G^dag) with G = z[..., 0, :, :] + i z[..., 1, :, :].

    z holds real standard normals of shape (..., 2, n, rank); every leading
    index gives one state, bit for bit the state a lone (2, n, rank) draw
    gives.  This allocates the states and the workspace of _ginibre_into,
    the one Ginibre kernel, which callers that build states block after
    block run on buffers of their own.
    """
    lead, n = z.shape[:-3], z.shape[-2]
    out = np.empty(lead + (n, n), dtype=complex)
    _ginibre_into(z, out, np.empty(np.swapaxes(z, -1, -2).shape), np.empty((2,) + out.shape), np.empty(lead))
    return out


def _ginibre_into(z: np.ndarray, out: np.ndarray, zt: np.ndarray, prod, tr: np.ndarray) -> None:
    """Write the states G G^dag / tr(G G^dag) of the factors in z into out, allocating nothing.

    out is real or complex, (..., n, n) with a contiguous last axis.  A
    real out takes real factors G = z, shape (..., n, rank), and G G^T is
    one stacked product written into out.  A complex out takes the pairs
    of ginibre_states, G = A + i B with A, B = z[..., 0, :, :], z[..., 1, :, :],
    and G G^dag is built from real products: A A^T + B B^T is written into
    the real part of out and B A^T - A B^T into its imaginary part.  Either
    way the state is then multiplied by the reciprocal of the real trace,
    which is what numpy's complex-by-real division computes, so the bits
    are those of the division.  Workspace: zt, the shape of z with its
    last two axes swapped, takes a C-order copy of the transposed factors
    (a stacked matmul on a swapaxes view runs several times slower, with
    the same bits); prod, shape (2, ..., n, n), takes a complex pair's
    products (a real out needs none, and prod may be None); tr, shape
    (...), the trace.
    """
    np.copyto(zt, np.swapaxes(z, -1, -2))
    if np.iscomplexobj(out):
        a, b = z[..., 0, :, :], z[..., 1, :, :]
        at, bt = zt[..., 0, :, :], zt[..., 1, :, :]
        np.matmul(a, at, out=prod[0])
        np.matmul(b, bt, out=prod[1])
        np.add(prod[0], prod[1], out=out.real)
        np.matmul(b, at, out=prod[0])
        np.matmul(a, bt, out=prod[1])
        np.subtract(prod[0], prod[1], out=out.imag)
    else:
        np.matmul(z, zt, out=out)
    np.trace(out.real, axis1=-2, axis2=-1, out=tr)
    np.divide(1.0, tr, out=tr)
    x = out.view(float)
    x *= tr[..., None, None]


def random_density_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Hilbert-Schmidt random state from a full-rank complex Ginibre factor."""
    return ginibre_states(rng.standard_normal((2, n, n)))


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


def _kraus_rows(lvec: np.ndarray, dt: float, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constant rows of the Kraus diagonal for L = diag(lvec): l, l^2 and 1 - l^2 dt/2, each tiled to (n, width).

    A row times a contiguous row is a cheaper numpy call than an (n, 1)
    column broadcast against a (k,) vector, and gives the same products.
    """
    l2 = lvec * lvec
    cols = np.stack([lvec, l2, 1.0 - 0.5 * dt * l2])
    return tuple(np.repeat(cols[:, :, None], width, axis=2))


def _kraus_diagonal(eta: float, dt: float, dy, rows) -> np.ndarray:
    """Diagonal m of the Kraus operator M = I - L^2 dt/2 + sqrt(eta) L dy + (eta/2) L^2 (dy^2 - dt), L = diag(lvec).

    This is the measurement step of Rouchon and Ralph (Phys. Rev. A 91,
    012118, 2015); m has shape (n, k), one column per record increment in
    dy, and rows is _kraus_rows(lvec, dt, width) at width k or 1 (both give
    the same products).  Each entry is (1 - l^2 dt/2 + l x) + (x^2 - eta dt)/2 l^2
    with x = sqrt(eta) dy.
    """
    lrow, l2row, c0row = rows
    x = np.sqrt(eta) * dy
    m = lrow * x
    m += c0row
    q = x * x
    q -= eta * dt
    q *= 0.5
    m += l2row * q
    return m
