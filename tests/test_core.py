"""Density-matrix primitives against hand-built and series-expansion oracles."""

import numpy as np
import pytest

from qndstab.core import (
    UnrecoverableStateError,
    _ginibre_into,
    dissipator,
    hermitian_part,
    innovation_superop,
    populations,
    project_to_physical,
    random_density_matrix,
    spectral_decomposition,
    trace,
    unitary_conjugate,
    validate_density_matrix,
    validate_hermitian,
)

from conftest import random_hermitian


def _low_rank_state(n, rank, rng):
    """G G^dag / tr(G G^dag) of a complex Ginibre factor G of shape (n, rank)."""
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    s = g @ np.conj(g.T)
    return s / np.trace(s).real


def _expm_series(a: np.ndarray, terms: int = 25) -> np.ndarray:
    # Taylor series reference, valid for small ||a||
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def test_trace_and_hermitian_part_batch():
    m = np.arange(8.0).reshape(2, 2, 2) + 1j
    assert np.allclose(trace(m), [3.0 + 2j, 11.0 + 2j])
    hp = hermitian_part(m)
    assert np.allclose(hp, np.conj(np.swapaxes(hp, -1, -2)))


def test_validate_hermitian():
    ok = np.array([[1.0, 2j], [-2j, 0.5]])
    assert validate_hermitian(ok) is ok
    with pytest.raises(ValueError, match="not Hermitian"):
        validate_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        validate_hermitian(np.zeros((2, 3)))


def test_validate_density_matrix(rng):
    rho = random_density_matrix(4, rng)
    assert validate_density_matrix(rho) is rho
    with pytest.raises(ValueError, match="unit trace"):
        validate_density_matrix(2.0 * rho)
    with pytest.raises(ValueError, match="not Hermitian"):
        validate_density_matrix(rho + 1e-6 * np.eye(4, k=1))
    neg = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        validate_density_matrix(neg)


def test_spectral_decomposition_known_subspaces():
    # L = diag(3, -1, -2.5): eigenspace k is the coordinate line e_k, in the order of the diagonal
    dec = spectral_decomposition(np.diag([3.0, -1.0, -2.5]).astype(complex))
    assert dec.d == 3
    assert dec.eigenvalues.tolist() == [3.0, -1.0, -2.5]
    for k in range(3):
        expected = np.zeros((3, 3))
        expected[k, k] = 1.0
        assert np.array_equal(dec.projectors[k], expected)


def test_spectral_decomposition_invariants(rng):
    op = np.diag(np.cumsum(-rng.uniform(0.1, 2.0, 6)))
    dec = spectral_decomposition(op)
    pi = dec.projectors
    assert np.allclose(np.sum(pi, axis=0), np.eye(6), atol=1e-12)
    for k in range(dec.d):
        assert np.allclose(pi[k] @ pi[k], pi[k], atol=1e-12)
        for k2 in range(k + 1, dec.d):
            assert np.allclose(pi[k] @ pi[k2], 0.0, atol=1e-12)
    rebuilt = np.einsum("k,kij->ij", dec.eigenvalues, pi)
    assert np.allclose(rebuilt, op, atol=1e-12)
    assert np.all(np.diff(dec.eigenvalues) < 0)


def test_spectral_decomposition_single_eigenvalue():
    dec = spectral_decomposition(np.array([[3.0]]))
    assert dec.d == 1
    assert dec.eigenvalues[0] == 3.0
    assert np.array_equal(dec.projectors[0], np.eye(1))


def test_populations_clipped(rng):
    op = np.diag([1.0, 0.0]).astype(complex)
    dec = spectral_decomposition(op)
    rho = np.diag([1.0 + 1e-12, -1e-12]).astype(complex)
    p = populations(rho, dec)
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_dissipator_hand_formula(rng):
    # for diagonal Hermitian L, D_L(rho)_{ij} = -(l_i - l_j)^2 rho_{ij} / 2
    lvals = np.array([2.0, 1.0, 0.0, -1.0, -2.0])
    op = np.diag(lvals).astype(complex)
    rho = random_density_matrix(5, rng)
    expected = -0.5 * (lvals[:, None] - lvals[None, :]) ** 2 * rho
    assert np.allclose(dissipator(op, rho), expected, atol=1e-14)


def test_dissipator_traceless_generic(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = random_density_matrix(4, rng)
    assert abs(trace(dissipator(a, rho))) < 1e-13


def test_innovation_traceless_and_eigenstate_kernel(rng):
    lvals = np.array([2.0, 1.0, 0.0, -1.0, -2.0])
    op = np.diag(lvals).astype(complex)
    rho = random_density_matrix(5, rng)
    assert abs(trace(innovation_superop(op, rho))) < 1e-13
    # QND invariance: backaction vanishes identically on an eigenprojector
    vert = np.zeros((5, 5), dtype=complex)
    vert[1, 1] = 1.0
    assert np.all(innovation_superop(op, vert) == 0.0)


def test_unitary_conjugate_series_oracle(rng):
    h = random_hermitian(4, rng)
    rho = random_density_matrix(4, rng)
    x = 0.37
    u = _expm_series(-1j * x * h)
    expected = u @ rho @ np.conj(u.T)
    assert np.allclose(unitary_conjugate(h, x, rho), expected, atol=1e-12)


def test_unitary_conjugate_group_property(rng):
    h = random_hermitian(3, rng)
    rho = random_density_matrix(3, rng)
    once = unitary_conjugate(h, 0.4, unitary_conjugate(h, 0.25, rho))
    assert np.allclose(once, unitary_conjugate(h, 0.65, rho), atol=1e-13)


def test_unitary_conjugate_preserves_spectrum_and_trace(rng):
    h = random_hermitian(5, rng)
    rho = _low_rank_state(5, 2, rng)
    out = unitary_conjugate(h, 1.3, rho)
    assert abs(trace(out) - 1.0) < 1e-12
    assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-12)
    assert abs(trace(out @ out) - trace(rho @ rho)) < 1e-12


def test_unitary_conjugate_batch_angles(rng):
    h = random_hermitian(3, rng)
    batch = np.stack([random_density_matrix(3, rng) for _ in range(4)])
    x = np.array([0.0, 0.1, -0.2, 1.0])
    out = unitary_conjugate(h, x, batch)
    for i in range(4):
        assert np.allclose(out[i], unitary_conjugate(h, float(x[i]), batch[i]), atol=1e-14)
    assert np.allclose(out[0], batch[0], atol=1e-14)


def test_project_to_physical_idempotent_on_valid(rng):
    rho = random_density_matrix(5, rng)
    assert np.allclose(project_to_physical(rho), rho, atol=1e-12)
    # exact eigenprojector states pass through bitwise (diagonal eigh is exact)
    vert = np.zeros((5, 5), dtype=complex)
    vert[2, 2] = 1.0
    assert np.array_equal(project_to_physical(vert), vert)


def test_project_to_physical_repairs(rng):
    rho = random_density_matrix(4, rng)
    w, v = np.linalg.eigh(rho)
    w[0] = -1e-3
    busted = (v * w) @ np.conj(v.T) + 1e-13 * 1j * np.eye(4)
    fixed = project_to_physical(busted)
    validate_density_matrix(fixed)
    assert np.min(np.linalg.eigvalsh(fixed)) >= -1e-15


def test_project_to_physical_batch_and_unrecoverable(rng):
    good = random_density_matrix(3, rng)
    batch = np.stack([good, -np.eye(3, dtype=complex)])
    with pytest.raises(UnrecoverableStateError, match=r"\[1\]"):
        project_to_physical(batch)
    with pytest.raises(UnrecoverableStateError):
        project_to_physical(np.zeros((3, 3)))


def test_random_state_helpers(rng):
    rho = random_density_matrix(6, rng)
    validate_density_matrix(rho)
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 6
    low = _low_rank_state(6, 3, rng)
    validate_density_matrix(low)
    assert np.linalg.matrix_rank(low, tol=1e-10) == 3
    h = random_hermitian(4, rng)
    validate_hermitian(h)


@pytest.mark.parametrize("n", [5, 6])
def test_random_density_matrix_real_products(n):
    states = [random_density_matrix(n, np.random.default_rng(seed)) for seed in range(40)]
    for seed, rho in enumerate(states):
        a, b = np.random.default_rng(seed).standard_normal((2, n, n))
        g = a + 1j * b
        ref = g @ np.conj(g.T)
        ref /= np.real(np.trace(ref))
        # within a few ulp of the state's largest entry (at most 4.0 measured at n <= 9)
        assert np.all(np.abs(rho - ref) <= 8 * np.spacing(np.max(np.abs(ref))))
        # the real products make the state exactly Hermitian
        assert np.array_equal(rho, np.conj(rho.T))
    assert np.linalg.matrix_rank(states[0], tol=1e-10) == n


def _real_ginibre(z):
    """_ginibre_into's real states from real factors z, shape (..., n, rank), on fresh buffers."""
    out = np.empty(z.shape[:-1] + z.shape[-2:-1])
    _ginibre_into(z, out, np.empty(np.swapaxes(z, -1, -2).shape), np.empty(z.shape[:-2]))
    return out


@pytest.mark.parametrize("n, rank", [(5, 5), (7, 7), (5, 2)])
def test_ginibre_real_factor_states(rng, n, rank):
    z = rng.standard_normal((3, 40, n, rank))
    states = _real_ginibre(z)
    assert states.shape == (3, 40, n, n) and states.dtype == float
    ref = z @ np.swapaxes(z, -1, -2)
    ref /= np.trace(ref, axis1=-2, axis2=-1)[..., None, None]
    ulp = np.spacing(np.max(np.abs(ref), axis=(-2, -1), keepdims=True))
    assert np.all(np.abs(states - ref) <= 8 * ulp)
    # one product of the factor with its transposed copy gives an exactly symmetric state
    assert np.array_equal(states, np.swapaxes(states, -1, -2))
    for i, j in ((0, 0), (1, 17), (2, 39)):
        assert _real_ginibre(z[i, j]).tobytes() == states[i, j].tobytes()
    validate_density_matrix(states[0])
    assert np.linalg.matrix_rank(states[0, 0], tol=1e-10) == rank


def test_ginibre_workspace_reuse_matches_fresh_states(rng):
    """One workspace, reused over blocks of falling size and rank 2-5, gives fresh buffers' bytes."""
    n, rows = 5, 40
    out = np.full((rows, n, n), np.nan)
    zt, tr = np.full(rows * n * n, np.nan), np.full(rows, np.nan)
    for k, rank in ((40, 5), (33, 2), (32, 4), (17, 3), (2, 5), (1, 2)):
        z = rng.standard_normal((k, n, rank))
        block = out[:k]
        _ginibre_into(z, block, zt[: z.size].reshape(k, rank, n), tr[:k])
        assert block.tobytes() == _real_ginibre(z).tobytes(), (k, rank)
