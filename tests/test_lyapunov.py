"""Lyapunov functions, weight solve, closed-form generator, certification."""

import csv
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from qndstab.core import _normalize, _rowsum, populations, random_density_matrix
from qndstab.dynamics import control_setup, feedback_gain, measurement_setup
from qndstab.spin import spin2_preset
from qndstab.ensemble import _Kernel
from qndstab import lyapunov
from qndstab.filters import laplacian_matrix
from qndstab.lyapunov import (
    CertificationImpossibleError,
    EvaluatedAtTargetError,
    _sample_strata,
    certificate_to_csv,
    certify_decay,
    default_beta,
    equivalence_constants,
    generator_terms,
    solve_alpha,
    v_alpha,
    v_open,
)

from conftest import plain_dissipator


# ------------------------------------------------------- open-loop Lyapunov


def test_v_open_hand_values():
    assert v_open(np.full(5, 0.2)) == pytest.approx(2.0)
    assert v_open(np.array([0.5, 0.5, 0.0, 0.0, 0.0])) == pytest.approx(0.5)
    for k in range(5):
        e = np.zeros(5)
        e[k] = 1.0
        assert v_open(e) == 0.0


def test_v_open_zero_iff_vertex(rng):
    for _ in range(50):
        p = rng.dirichlet(np.ones(5))
        assert v_open(p) > 0.0


def test_v_open_batch(rng):
    batch = rng.dirichlet(np.ones(5), size=7)
    out = v_open(batch)
    assert out.shape == (7,)
    assert np.array_equal(out, [v_open(row) for row in batch])


def test_default_beta_structure():
    beta = default_beta(5, 2)
    expected = np.array(
        [
            [1.5, 1.0, -4.5, 1.0, 1.0],
            [1.0, 1.5, -4.5, 1.0, 1.0],
            [1.0, 1.0, -4.5, 1.5, 1.0],
            [1.0, 1.0, -4.5, 1.0, 1.5],
        ]
    )
    assert np.array_equal(beta, expected)
    assert np.all(beta.sum(axis=1) == 0.0)


def test_solve_alpha_two_level_hand_case():
    delta = np.array([[-1.0, 1.0], [1.0, -1.0]])
    w = solve_alpha(delta, target=1)
    assert np.allclose(w.alpha, [[1.5, 0.0]], atol=1e-14)
    assert w.target == 1 and w.d == 2


def test_solve_alpha_spin2_properties(spin2_delta, spin2_weights):
    w = spin2_weights
    assert w.alpha.shape == (4, 5)
    # grounded column is exactly zero, everything else strictly positive
    assert np.all(w.alpha[:, w.target] == 0.0)
    wrong = [k for k in range(5) if k != w.target]
    assert np.all(w.alpha[:, wrong] > 0.0)
    assert np.max(np.abs(w.alpha @ spin2_delta.T + w.beta)) < 1e-10
    assert np.linalg.matrix_rank(w.alpha) == 4


def test_solve_alpha_disconnected_graph():
    with pytest.raises(CertificationImpossibleError, match="disconnected"):
        solve_alpha(np.zeros((4, 4)), target=0)


def test_solve_alpha_beta_validation(spin2_delta):
    with pytest.raises(ValueError, match="target"):
        solve_alpha(spin2_delta, 9)
    with pytest.raises(ValueError, match="square"):
        solve_alpha(np.zeros((4, 5)), 0)


# -------------------------------------------------- closed-loop Lyapunov


def test_v_alpha_vertex_values(spin2_weights):
    w = spin2_weights
    e = np.zeros(5)
    e[w.target] = 1.0
    assert v_alpha(e, w) == 0.0
    for j in range(5):
        if j == w.target:
            continue
        e = np.zeros(5)
        e[j] = 1.0
        assert v_alpha(e, w) == pytest.approx(np.sum(np.sqrt(w.alpha[:, j])), rel=1e-15)


def test_equivalence_bounds_on_simplex(spin2_weights):
    w = spin2_weights
    c_low, c_high = equivalence_constants(w)
    assert 0.0 < c_low < c_high
    rng = np.random.default_rng(17)
    p = rng.dirichlet(np.ones(5), size=100_000)
    v = v_alpha(p, w)
    root = np.sqrt(1.0 - p[:, w.target])
    assert np.all(c_low * v <= root + 1e-12)
    assert np.all(root <= c_high * v + 1e-12)


# --------------------------------------------------------------- generator


def test_generator_wrong_vertex_closed_form(spin2_tight, spin2_weights):
    meas, ctrl = spin2_tight
    w = spin2_weights
    for j in range(5):
        if j == w.target:
            continue
        vertex = meas.dec.projectors[j].astype(complex)
        terms = generator_terms(vertex, meas, ctrl, w)
        expected_f = -np.sum(w.beta[:, j] / np.sqrt(w.alpha[:, j]))
        assert terms.f == pytest.approx(expected_f, rel=1e-10)
        assert terms.f < 0.0
        assert terms.g == 0.0
        assert terms.h == 0.0
        # gain saturates at a wrong vertex, so the decay is pure f
        assert terms.AV == pytest.approx(0.5 * ctrl.sigma_bar**2 * expected_f, rel=1e-10)
        assert terms.AV < 0.0


def test_generator_diagonal_state_uses_laplacian(spin2_tight, spin2_weights, spin2_delta, rng):
    meas, ctrl = spin2_tight
    w = spin2_weights
    p = rng.dirichlet(np.ones(5))
    rho = np.diag(p).astype(complex)
    terms = generator_terms(rho, meas, ctrl, w)
    # diagonal states: c = Delta p exactly, and the coherence term vanishes
    c = spin2_delta @ p
    ap = p @ w.alpha.T
    expected_f = np.sum((c @ w.alpha.T) / np.sqrt(ap))
    assert terms.f == pytest.approx(expected_f, rel=1e-9)
    assert terms.h == 0.0


def test_generator_matches_reference_formulas(spin2_tight, spin2_weights, rng):
    meas, ctrl = spin2_tight
    w = spin2_weights
    lam = meas.dec.eigenvalues
    batch = np.stack([random_density_matrix(5, rng) for _ in range(16)])
    terms = generator_terms(batch, meas, ctrl, w)
    for i in range(16):
        rho = batch[i]
        p = populations(rho, meas.dec)
        ap = p @ w.alpha.T
        dh = plain_dissipator(ctrl.H, rho)
        c = np.array([np.trace(pi @ dh).real for pi in meas.dec.projectors])
        com = ctrl.H @ rho - rho @ ctrl.H
        m = np.array([np.real(1j * np.trace(pi @ com)) for pi in meas.dec.projectors])
        varpi = p @ lam
        f = np.sum(c @ w.alpha.T / np.sqrt(ap))
        g = np.sum(((lam - varpi) * p @ w.alpha.T) ** 2 / ap**1.5)
        h = np.sum((m @ w.alpha.T) ** 2 / ap**1.5)
        assert terms.f[i] == pytest.approx(f, rel=1e-9)
        assert terms.g[i] == pytest.approx(g, rel=1e-9)
        assert terms.h[i] == pytest.approx(h, rel=1e-9)
        sigma = feedback_gain(p, ctrl)
        av = 0.5 * sigma**2 * f - 0.5 * meas.eta * g - 0.125 * sigma**2 * h
        assert terms.AV[i] == pytest.approx(av, rel=1e-9)


def _general_pair(rng, saturation="piecewise_linear"):
    """A random pair of the model class beyond the spin ladder; target level 1.

    L = diag(l) with l strictly descending and unequal gaps, H = i(A - A^T)
    with A dense, so every level couples to every other.
    """
    meas = measurement_setup(np.diag(1.0 - np.cumsum(rng.uniform(0.3, 1.5, 5))), eta=0.7)
    a = rng.standard_normal((5, 5))
    ctrl = control_setup(1j * (a - a.T), meas.dec, 1, 2.0, 0.51, 0.7, saturation)
    return meas, ctrl, solve_alpha(laplacian_matrix(ctrl.H, meas.dec), ctrl.target)


def _mixed_batch(dec, target, rng, count):
    """Ginibre states, two in three pulled toward a wrong vertex so that the gain engages."""
    states = np.stack([random_density_matrix(dec.n, rng) for _ in range(count)])
    wrong = [dec.projectors[j] for j in range(dec.d) if j != target]
    for i in range(count):
        if i % 3:
            u = rng.uniform(0.0, 0.4)
            states[i] = (1.0 - u) * wrong[i % len(wrong)] + u * states[i]
    return states


def test_generator_matches_reference_formulas_on_general_pair(rng):
    meas, ctrl, w = _general_pair(rng)
    dec, lam, h = meas.dec, meas.dec.eigenvalues, ctrl.H
    gaps = lam[:-1] - lam[1:]
    assert np.all(gaps >= 0.3) and len(set(gaps.tolist())) == 4
    assert np.all(h.real == 0.0) and np.all(np.abs(h.imag) + np.eye(5) > 0.0)
    batch = _mixed_batch(dec, ctrl.target, rng, 30)
    terms = generator_terms(batch, meas, ctrl, w)
    engaged = 0
    for i, rho in enumerate(batch):
        p = populations(rho, dec)
        ap = p @ w.alpha.T
        dh = plain_dissipator(h, rho)
        c = np.array([np.trace(pi @ dh).real for pi in dec.projectors])
        com = h @ rho - rho @ h
        m = np.array([np.real(1j * np.trace(pi @ com)) for pi in dec.projectors])
        f = np.sum(c @ w.alpha.T / np.sqrt(ap))
        g = np.sum(((lam - p @ lam) * p @ w.alpha.T) ** 2 / ap**1.5)
        hh = np.sum((m @ w.alpha.T) ** 2 / ap**1.5)
        sigma = feedback_gain(p, ctrl)
        engaged += sigma > 0.0
        av = 0.5 * sigma**2 * f - 0.5 * meas.eta * g - 0.125 * sigma**2 * hh
        assert terms.f[i] == pytest.approx(f, rel=1e-12)
        assert terms.g[i] == pytest.approx(g, rel=1e-12)
        assert terms.h[i] == pytest.approx(hh, rel=1e-12)
        assert terms.AV[i] == pytest.approx(av, rel=1e-12)
    assert engaged >= 10


def test_generator_terms_do_not_depend_on_batch_mates(spin2_tight, spin2_weights, rng):
    general = _general_pair(rng)
    for meas, ctrl, w in ((*spin2_tight, spin2_weights), general):
        batch = _mixed_batch(meas.dec, ctrl.target, rng, 40)
        whole = generator_terms(batch, meas, ctrl, w)
        parts = [generator_terms(batch[a:b], meas, ctrl, w) for a, b in ((0, 7), (7, 40))]
        for name in ("f", "g", "h", "AV"):
            joined = np.concatenate([getattr(part, name) for part in parts])
            assert joined.tobytes() == getattr(whole, name).tobytes(), name
        # a lone state may round differently in the last bits, but no further
        for i in (0, 13, 39):
            for lone in (generator_terms(batch[i : i + 1], meas, ctrl, w), generator_terms(batch[i], meas, ctrl, w)):
                for name in ("f", "g", "h", "AV"):
                    np.testing.assert_allclose(getattr(lone, name), getattr(whole, name)[i : i + 1], rtol=1e-12, atol=0)


def _complex_trace(obs, rho):
    """Re tr(obs_k rho) from the complex einsum, and the sum of |products| that scales its rounding."""
    return np.einsum("kij,...ji->...k", obs, rho).real, np.einsum("kij,...ji->...k", np.abs(obs), np.abs(rho))


def test_real_contractions_equal_complex_traces(monkeypatch, spin2_tight, spin2_weights, rng):
    general = _general_pair(rng)
    read = []
    real_expectations = lyapunov._expectations

    def spy(rho, rows):
        out = real_expectations(rho, rows)
        read.append(out)
        return out

    monkeypatch.setattr(lyapunov, "_expectations", spy)
    for meas, ctrl, w in ((*spin2_tight, spin2_weights), general):
        dec, hh = meas.dec, ctrl.H
        pi, h2 = dec.projectors, hh @ hh
        obs = np.concatenate([hh @ pi @ hh - 0.5 * (h2 @ pi + pi @ h2), 1j * (pi @ hh - hh @ pi)])
        # both pairs' observables are real, as H = iA
        assert np.all(obs.imag == 0.0)
        batch = _mixed_batch(dec, ctrl.target, rng, 24)
        for rho in (batch, batch[5], batch[9:10]):
            read.clear()
            generator_terms(rho, meas, ctrl, w)
            (cm,) = read
            ref, scale = _complex_trace(obs, rho)
            assert cm.shape == ref.shape
            assert np.all(np.abs(cm - ref) <= 1e-15 * scale)
            p = populations(rho, dec)
            ref, scale = _complex_trace(dec.projectors, rho)
            assert p.shape == ref.shape
            assert np.all(np.abs(p - np.clip(ref, 0.0, 1.0)) <= 1e-15 * scale)


@pytest.mark.parametrize("saturation", ["piecewise_linear", "smoothstep"])
@pytest.mark.parametrize("J", [1, 1.5, 2, 3])
def test_spin_generator_reads_only_the_real_part(rng, J, saturation):
    """For the spin pair (L real diagonal, H = iA with A real) p, c and m, hence the ratio, depend on Re rho alone.

    The generator reads Re rho only, so a complex state and its real part,
    held as a complex or as a real array, give the same bits.
    """
    meas, ctrl = spin2_preset(0.6, J=J, saturation=saturation)
    dec = meas.dec
    w = solve_alpha(laplacian_matrix(ctrl.H, dec), ctrl.target)
    batch = _mixed_batch(dec, ctrl.target, rng, 200)
    assert np.max(np.abs(batch.imag)) > 0.1
    assert np.count_nonzero(feedback_gain(populations(batch, dec), ctrl)) >= 100
    full = generator_terms(batch, meas, ctrl, w)
    for part in (batch.real + 0j, np.ascontiguousarray(batch.real)):
        assert populations(part, dec).tobytes() == populations(batch, dec).tobytes()
        terms = generator_terms(part, meas, ctrl, w)
        for name in ("f", "g", "h", "AV"):
            assert getattr(terms, name).tobytes() == getattr(full, name).tobytes(), name


@pytest.mark.parametrize("saturation", ["piecewise_linear", "smoothstep"])
@pytest.mark.parametrize("p_min", [0.6, 0.9])
def test_qubit_generator_matches_angle_sde_on_pure_states(p_min, saturation):
    """At J = 1/2 and eta = 1, -A V_alpha / V_alpha on cos(t/2)|+1/2> + sin(t/2)|-1/2> has a closed form in t.

    Written from the SDE of the Bloch angle, not from the package's traces:
    L = sigma_z / 2 and H = -sigma_y / 2, so a pure state stays pure and
    dt = -(1/2) sin t cos t dt - sin t dW + sigma dB (up to the sign of dB).
    V_alpha = sqrt(a) sin(t/2) for the one wrong level, and Ito's rule gives
    -A V / V = (1/4) cos t (1 + cos t) + (sin^2 t + sigma^2) / 8.
    """
    meas, ctrl = spin2_preset(p_min, J=0.5, eta=1.0, saturation=saturation)
    assert ctrl.target == 0
    w = solve_alpha(laplacian_matrix(ctrl.H, meas.dec), ctrl.target)
    theta = np.linspace(0.0, np.pi, 401)[1:]
    v = np.stack([np.cos(theta / 2), np.sin(theta / 2)], axis=-1)
    p = v * v
    sigma = feedback_gain(p, ctrl)
    assert np.count_nonzero(sigma == 0.0) and np.count_nonzero(sigma == ctrl.sigma_bar)
    assert np.count_nonzero((sigma > 0.0) & (sigma < ctrl.sigma_bar))
    got = -generator_terms(v[:, :, None] * v[:, None, :], meas, ctrl, w).AV / v_alpha(p, w)
    want = 0.25 * np.cos(theta) * (1.0 + np.cos(theta)) + (np.sin(theta) ** 2 + sigma**2) / 8.0
    assert np.max(np.abs(got - want) / want) <= 1e-12


def test_generator_raises_at_target(spin2_tight, spin2_weights):
    meas, ctrl = spin2_tight
    vertex = meas.dec.projectors[ctrl.target].astype(complex)
    with pytest.raises(EvaluatedAtTargetError):
        generator_terms(vertex, meas, ctrl, spin2_weights)


# ------------------------------------------------------------ certification


def test_certify_decay_report_structure(spin2_tight, spin2_weights):
    # the weights depend only on H and the target, which both thresholds share
    meas, ctrl = spin2_tight
    report = certify_decay(meas, ctrl, spin2_weights, samples=300)
    assert report.certified
    assert report.nu_hat > 0.0
    assert report.samples == 300
    assert [s.name for s in report.strata] == ["near_vertex", "bulk", "diagonal"]
    assert sum(s.samples for s in report.strata) == 300
    assert report.nu_hat == min(s.min_ratio for s in report.strata)
    assert report.worst_populations.shape == (5,)
    assert (report.c_low, report.c_high) == equivalence_constants(spin2_weights)
    assert list(report.timing) == ["near_vertex", "bulk", "diagonal"]
    assert all(sorted(t) == ["generator_s", "sample_s"] for t in report.timing.values())


def test_certify_decay_refuses_fig2_threshold(spin2_loose, spin2_delta, spin2_weights):
    """At p_min = 0.6 V_alpha grows on some diagonal states; enough samples find one."""
    meas, ctrl = spin2_loose
    report = certify_decay(meas, ctrl, spin2_weights, samples=20000)
    assert not report.certified
    assert report.nu_hat < 0.0
    # witness: the diagonal closed form -A V_alpha / V_alpha at the diagonal stratum's worst populations
    # (written from the formulas, apart from the package's generator),
    # A V_alpha = (sigma^2/2) sum_s a_s.Delta p / sqrt(a_s.p) - (eta/2) sum_s (a_s.((lam - w) p))^2 / (a_s.p)^(3/2)
    (diagonal,) = [s for s in report.strata if s.name == "diagonal"]
    assert report.nu_hat <= diagonal.min_ratio < 0.0
    p = diagonal.worst_populations
    alpha, lam = spin2_weights.alpha, meas.dec.eigenvalues
    ap = alpha @ p
    sigma = feedback_gain(p, ctrl)
    f = np.sum((alpha @ (spin2_delta @ p)) / np.sqrt(ap))
    g = np.sum((alpha @ ((lam - lam @ p) * p)) ** 2 / ap**1.5)
    av = 0.5 * sigma * sigma * f - 0.5 * meas.eta * g
    assert -av / np.sum(np.sqrt(ap)) < 0.0


def test_certify_decay_is_deterministic(spin2_loose, spin2_weights):
    meas, ctrl = spin2_loose
    a = certify_decay(meas, ctrl, spin2_weights, samples=90, seed=3)
    b = certify_decay(meas, ctrl, spin2_weights, samples=90, seed=3)
    assert a.nu_hat == b.nu_hat
    assert np.array_equal(a.worst_populations, b.worst_populations)


def test_certify_decay_zero_noise_fails(spin2_loose, spin2_weights):
    meas, ctrl = spin2_loose
    ctrl0 = control_setup(ctrl.H, meas.dec, ctrl.target, 0.0, ctrl.p_min, ctrl.p_max)
    report = certify_decay(meas, ctrl0, spin2_weights, samples=90)
    # the exact wrong vertices are sampled first in each near-vertex block;
    # without exploration noise the generator vanishes there
    assert not report.certified
    assert report.nu_hat <= 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_certify_decay_stratum_of_infinite_ratios(spin2_tight, spin2_weights):
    """sigma_bar^2 overflows, so every near-vertex ratio is +inf: that stratum still reports its first row, and the others decide.

    control_setup refuses such a sigma_bar, so only a ControlSetup built around it reaches this fold.
    """
    meas, ctrl = spin2_tight
    report = certify_decay(meas, dataclasses.replace(ctrl, sigma_bar=1e155), spin2_weights, samples=300, seed=7)
    assert report.certified
    rows = {row["stratum"]: row for row in csv.DictReader(io.StringIO(certificate_to_csv(report)))}
    assert list(rows) == ["near_vertex", "bulk", "diagonal", "all"]
    assert rows["near_vertex"]["min_ratio"] == "inf"
    # the first near-vertex row is the exact wrong eigenstate 0
    assert rows["near_vertex"]["worst_populations"] == "1.0;0.0;0.0;0.0;0.0"
    assert 0.0 < float(rows["all"]["min_ratio"]) < float("inf")


def test_certify_decay_rejects_tiny_sample_budget(spin2_loose, spin2_weights):
    meas, ctrl = spin2_loose
    with pytest.raises(ValueError, match="stratum"):
        certify_decay(meas, ctrl, spin2_weights, samples=2)


def _sequential_strata(dec, target, samples, seed, tv_radius):
    """Reference sampler: every stratum's population rows, each drawn alone.

    Each near-vertex row draws its mixing weight u from the weight stream,
    a child of SeedSequence(seed), and its populations q ~ Dirichlet(n/2)
    (the law of the diagonal of a real n x n Ginibre state) from the main
    stream default_rng(seed); the row is (1 - u) e_k + u q, and a wrong
    vertex's first row is e_k itself, whose draws go unused.  Bulk rows are
    q alone, then diagonal rows Dirichlet(1), both from the main stream.
    """
    rng = np.random.default_rng(seed)
    u_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    ginibre = np.full(dec.d, dec.n / 2)
    wrong = [k for k in range(dec.d) if k != target]
    n_near, n_bulk = samples // 3, samples // 3
    per_vertex = [n_near // len(wrong)] * len(wrong)
    for i in range(n_near - sum(per_vertex)):
        per_vertex[i] += 1
    near = []
    for j, count in zip(wrong, per_vertex):
        for i in range(count):
            u = u_rng.uniform(0.0, tv_radius)
            row = u * rng.dirichlet(ginibre)
            row[j] += 1.0 - u
            near.append(np.eye(dec.d)[j] if i == 0 else row)
    bulk = [rng.dirichlet(ginibre) for _ in range(n_bulk)]
    diag = [rng.dirichlet(np.ones(dec.d)) for _ in range(samples - n_near - n_bulk)]
    return {"near_vertex": np.stack(near), "bulk": np.stack(bulk), "diagonal": np.stack(diag)}


def _strata_rows(blocks):
    """Each stratum's population rows: the blocks _sample_strata yields, concatenated in order."""
    strata = {}
    for name, p in blocks:
        strata.setdefault(name, []).append(p)
    return {name: np.concatenate(parts) for name, parts in strata.items()}


def _certificate_csv(strata, meas, ctrl, w, samples):
    """certificate.csv of the population rows strata, each stratum evaluated as one batch."""
    lines = ["stratum,samples,min_ratio,worst_populations"]
    best, best_p = np.inf, None
    for name, p in strata.items():
        ratio = lyapunov._diagonal_ratio(p, meas, ctrl, w)
        worst = int(np.argmin(ratio))
        lines.append(f"{name},{len(p)},{float(ratio[worst])!r},{';'.join(repr(float(x)) for x in p[worst])}")
        if ratio[worst] < best:
            best, best_p = float(ratio[worst]), p[worst]
    lines.append(f"all,{samples},{best!r},{';'.join(repr(float(x)) for x in best_p)}")
    return "\n".join(lines) + "\n"


def _assert_clear_of_target(strata, target, exclusion):
    """No bulk or diagonal row lies within exclusion of the target vertex: 1 - p_target >= exclusion."""
    for name in ("bulk", "diagonal"):
        assert np.all(1.0 - strata[name][:, target] >= exclusion), name


@pytest.mark.parametrize(
    "preset, samples, seed, tv_radius, target_exclusion",
    [
        ("spin2_tight", 3000, 7, 0.05, 1e-6),
        ("spin2_loose", 1000, 11, 0.3, 1e-6),
        ("general", 1000, 5, 0.05, 1e-6),
    ],
)
def test_certify_decay_matches_sequential_sampler(
    request, monkeypatch, rng, spin2_weights, preset, samples, seed, tv_radius, target_exclusion
):
    """The block sampler draws the reference's rows bit for bit, and certify_decay prints their certificate.

    No bulk or diagonal row comes within target_exclusion of the target, where the ratio is singular.
    """
    if preset == "general":
        meas, ctrl, w = _general_pair(rng)
    else:
        (meas, ctrl), w = request.getfixturevalue(preset), spin2_weights
    monkeypatch.setattr(lyapunov, "TV_RADIUS", tv_radius)
    expected = _sequential_strata(meas.dec, ctrl.target, samples, seed, tv_radius)
    batched = _strata_rows(_sample_strata(meas.dec, ctrl.target, samples, seed))
    # every row, bit for bit, not just the worst one the certificate prints
    assert list(batched) == list(expected)
    for name, ref in expected.items():
        assert batched[name].shape == ref.shape and batched[name].dtype == ref.dtype == float
        assert batched[name].tobytes() == ref.tobytes()
    _assert_clear_of_target(expected, ctrl.target, target_exclusion)
    report = certify_decay(meas, ctrl, w, samples=samples, seed=seed)
    assert certificate_to_csv(report) == _certificate_csv(expected, meas, ctrl, w, samples)


@pytest.mark.parametrize("pair, samples", [("spin2_tight", 4), ("spin2_tight", 3000), ("general", 1000)])
def test_near_vertex_stratum_specification(request, rng, pair, samples):
    """The near-vertex stratum's recipe, checked on the population rows alone and not on their draw order."""
    meas, ctrl = _general_pair(rng)[:2] if pair == "general" else request.getfixturevalue(pair)
    dec, target = meas.dec, ctrl.target
    strata = _strata_rows(_sample_strata(dec, target, samples, 5))
    p = strata["near_vertex"]
    count = samples // 3
    assert list(strata)[0] == "near_vertex" and p.shape == (count, dec.d) and p.dtype == float
    assert np.all(p >= 0.0) and np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12)
    wrong = [k for k in range(dec.d) if k != target]
    vertices = np.eye(dec.d)[wrong]
    # segments split count evenly over the wrong vertices, the first segments one row longer
    sizes = [count // len(wrong) + (i < count % len(wrong)) for i in range(len(wrong))]
    # every row lies within TV_RADIUS of its own segment's vertex, in total variation distance
    dist = 0.5 * np.abs(p[:, None] - vertices).sum(axis=-1)
    owner = np.repeat(np.arange(len(wrong)), sizes)
    assert np.array_equal(np.argmin(dist, axis=1), owner)
    assert np.all(dist[np.arange(count), owner] < lyapunov.TV_RADIUS)
    # each nonempty segment is led by its exact vertex
    for start, size, vert in zip(np.cumsum([0] + sizes[:-1]), sizes, vertices):
        assert size == 0 or p[start].tobytes() == vert.tobytes()


def test_bulk_rows_follow_the_populations_of_real_ginibre_states(spin2_tight):
    """Bulk rows and the diagonals of real Ginibre states G G^T / tr(G G^T) share one law, Dirichlet(n/2).

    Two-sample Kolmogorov-Smirnov distance of the first population, 2e4
    rows each: under one law it exceeds 0.03 with probability below 1e-7;
    Dirichlet(n), the law of complex Ginibre states, lies about 0.1 away.
    """
    meas, ctrl = spin2_tight
    bulk = _strata_rows(_sample_strata(meas.dec, ctrl.target, 60_000, 3))["bulk"]
    z = np.random.default_rng(4).standard_normal((20_000, 5, 5))
    gram = z @ np.swapaxes(z, -1, -2)
    states = np.diagonal(gram, axis1=-2, axis2=-1) / np.trace(gram, axis1=-2, axis2=-1)[:, None]
    a, b = np.sort(bulk[:, 0]), np.sort(states[:, 0])
    grid = np.concatenate([a, b])
    ks = np.max(np.abs(np.searchsorted(a, grid, side="right") / a.size - np.searchsorted(b, grid, side="right") / b.size))
    assert bulk.shape == (20_000, 5) and ks < 0.03, ks


@pytest.mark.parametrize(
    "pair, target_exclusion", [("spin2_tight", 1e-6), ("general", 1e-6), ("zero_noise", 1e-6)]
)
def test_certificate_does_not_depend_on_blocks(request, monkeypatch, rng, spin2_weights, pair, target_exclusion):
    """Strata cut into blocks of BLOCK, 2, 3 or 7 rows give the sequential reference's rows and one certificate."""
    if pair == "general":
        meas, ctrl, w = _general_pair(rng)
    else:
        (meas, ctrl), w = request.getfixturevalue("spin2_tight"), spin2_weights
    if pair == "zero_noise":
        # the generator vanishes at every exact wrong vertex: the near-vertex minimum 0 ties across blocks
        ctrl = control_setup(ctrl.H, meas.dec, ctrl.target, 0.0, ctrl.p_min, ctrl.p_max)
    args = (meas.dec, ctrl.target, 300, 5)
    expected = {name: ref.tobytes() for name, ref in _sequential_strata(*args, lyapunov.TV_RADIUS).items()}
    # 300 samples make strata of 100 rows.  Blocks of 2 hold no lone row, whose generator bits may
    # differ (generator_terms); blocks of 3 and 7 are uneven and cut across the near-vertex segments.
    csvs = []
    for block in (lyapunov.BLOCK, 2, 3, 7):
        monkeypatch.setattr(lyapunov, "BLOCK", block)
        report = certify_decay(meas, ctrl, w, samples=300, seed=5)
        assert [(s.name, s.samples) for s in report.strata] == [("near_vertex", 100), ("bulk", 100), ("diagonal", 100)]
        batched = _strata_rows(_sample_strata(*args))
        assert {name: p.tobytes() for name, p in batched.items()} == expected, block
        csvs.append(certificate_to_csv(report))
    assert csvs[1:] == csvs[:1] * 3
    _assert_clear_of_target(batched, ctrl.target, target_exclusion)
    if pair == "zero_noise":
        assert report.strata[0].min_ratio == 0.0


@pytest.mark.parametrize("saturation", ["piecewise_linear", "smoothstep"])
@pytest.mark.parametrize("J", [1, 1.5, 2, 3, "general"])
def test_population_path_matches_generator_terms(rng, J, saturation):
    """certify_decay's one-pass ratio equals -A V_alpha / V_alpha from generator_terms at diag(p), to 1e-12 of the size of the terms.

    The pairs: the spin ladder at each J, and _general_pair (A dense), so
    the identity alpha_s . Delta p = -beta_s . p that the one-pass f reads
    is checked off the ladder.  The rows: Dirichlet(1) points, the exact
    wrong eigenstates, and points on the gain ramp, whose largest wrong
    population lies inside (p_min, p_max).  h is 0 at diag(p).  The two f
    sum different products of one value; as f and g may cancel, 1e-12 is
    taken relative to the sum of the magnitudes of A V's products, over V_alpha.
    """
    if J == "general":
        meas, ctrl, w = _general_pair(rng, saturation)
    else:
        meas, ctrl = spin2_preset(0.6, J=J, saturation=saturation)
        w = solve_alpha(laplacian_matrix(ctrl.H, meas.dec), ctrl.target)
    dec, target = meas.dec, ctrl.target
    delta = laplacian_matrix(ctrl.H, dec)
    wrong = [k for k in range(dec.d) if k != target]
    top = rng.uniform(ctrl.p_min, ctrl.p_max, 200)
    rest = rng.dirichlet(np.ones(dec.d - 1), 200) * (1.0 - top)[:, None]
    ramp = np.stack([np.insert(r, wrong[i % len(wrong)], t) for i, (r, t) in enumerate(zip(rest, top))])
    sigma = feedback_gain(ramp, ctrl)
    assert np.all((sigma > 0.0) & (sigma < ctrl.sigma_bar))
    p = np.concatenate([rng.dirichlet(np.ones(dec.d), 400), np.eye(dec.d)[wrong], ramp])
    got = lyapunov._diagonal_ratio(p, meas, ctrl, w)
    ref = generator_terms(p[:, :, None] * np.eye(dec.d), meas, ctrl, w)
    assert np.all(ref.h == 0.0)
    sq = np.sqrt(p @ w.alpha.T)
    v = np.sum(sq, axis=-1)
    f_size = np.sum((p @ np.abs(delta).T @ w.alpha.T) / sq, axis=-1)
    av_size = 0.5 * feedback_gain(p, ctrl) ** 2 * f_size + 0.5 * meas.eta * ref.g
    assert np.all(np.abs(got + ref.AV / v) <= 1e-12 * av_size / v)
    assert np.count_nonzero(got > 0.0) and np.count_nonzero(got < 0.0)


def test_readme_coherent_witness(spin2_tight, spin2_weights):
    """README: at p_min 0.9 V_alpha grows at a coherent state whose diagonal state decays, so certify says nothing about it."""
    meas, ctrl = spin2_tight
    v = np.sqrt([0.0, 0.923, 0.0, 0.077, 0.0])
    terms = generator_terms(np.outer(v, v), meas, ctrl, spin2_weights)
    diagonal = lyapunov._diagonal_ratio(np.stack([v * v] * 2), meas, ctrl, spin2_weights)
    v_a = v_alpha(v * v, spin2_weights)
    assert round(terms.AV, 3) == 0.108 and round(v_a, 2) == 4.89
    assert round(-terms.AV / v_a, 3) == -0.022
    assert round(diagonal[0], 3) == 0.318


def test_readme_verdict_table(spin2_weights):
    """The README's verdicts on seeds 0-19 at 1e4 and 1e5 samples, 240 runs, each on its own.

    p_min 0.6 is refused, and its diagonal row, the witness that
    perfbench's verdict check reads, is negative; sigma_bar = 0 is refused at
    p_min 0.6 and 0.9; p_min 0.77, 0.8 and 0.9 are certified.  The weights
    depend only on H and the target, which every case shares.
    """
    flipped = []
    for p_min, sigma_bar, certified in (
        (0.6, None, False), (0.77, None, True), (0.8, None, True), (0.9, None, True), (0.6, 0.0, False), (0.9, 0.0, False)
    ):
        meas, ctrl = spin2_preset(p_min, sigma_bar=sigma_bar)
        for samples in (10_000, 100_000):
            for seed in range(20):
                report = certify_decay(meas, ctrl, spin2_weights, samples=samples, seed=seed)
                (diagonal,) = [s.min_ratio for s in report.strata if s.name == "diagonal"]
                witness = certified or sigma_bar == 0.0 or diagonal < 0.0
                if report.certified != certified or not witness:
                    flipped.append((p_min, sigma_bar, samples, seed, report.nu_hat, diagonal))
    assert not flipped


def test_certify_decay_memory_does_not_grow_with_samples(spin2_tight, spin2_weights):
    """Traced peak memory at 4x the samples stays within 1.5x: numpy reports its buffers to tracemalloc."""
    meas, ctrl = spin2_tight
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    peaks = []
    try:
        for samples in (30_000, 120_000):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            certify_decay(meas, ctrl, spin2_weights, samples=samples, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_certify_decay_memory_does_not_grow_with_samples_in_small_blocks(monkeypatch, spin2_tight, spin2_weights):
    """With blocks of 64 states, traced peak memory at 4x the samples still stays within 1.5x.

    The blocks' own buffers are then small, so any array that grows with the
    samples, such as one wrong vertex's near-vertex mixing weights drawn in
    one call, shows in the peak.
    """
    meas, ctrl = spin2_tight
    monkeypatch.setattr(lyapunov, "BLOCK", 64)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    peaks = []
    try:
        certify_decay(meas, ctrl, spin2_weights, samples=300, seed=5)  # first-call allocations stay out of the peaks
        for samples in (60_000, 240_000):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            certify_decay(meas, ctrl, spin2_weights, samples=samples, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_certificate_csv_round_trip(spin2_loose, spin2_weights):
    meas, ctrl = spin2_loose
    report = certify_decay(meas, ctrl, spin2_weights, samples=120)
    text = certificate_to_csv(report)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [r["stratum"] for r in rows] == ["near_vertex", "bulk", "diagonal", "all"]
    assert float(rows[-1]["min_ratio"]) == report.nu_hat
    assert int(rows[-1]["samples"]) == 120
    pops = np.array([float(x) for x in rows[-1]["worst_populations"].split(";")])
    assert np.array_equal(pops, report.worst_populations)


# ------------------------------------------------- sqrt-population dynamics


def test_xi_dynamics_check(spin2_tight):
    """Ito dynamics of xi_k = sqrt(p_k) under the campaign engine's open-loop step.

    2000 trajectories start at I/5 and take the engine's Kraus measurement
    step at dt = 1e-3 (seed 11); its Schur factor keeps a diagonal state
    diagonal, so the factor and the trace division are the whole update.
    Checks the one-step drift -(eta/2)(lambda_k - w)^2 xi_k dt, as z-scores
    of the mean residual over the first 0.1 time units, and the exact
    exponential decay of E[xi_k xi_k'] at rate (eta/2)(lambda_k - lambda_k')^2,
    by a log-linear fit per pair.
    """
    meas, _ = spin2_tight
    eta, n = meas.eta, meas.dec.n
    trajectories, dt = 2000, 1e-3
    lvec = -np.sort(-np.diagonal(meas.L).real)
    pairs = [(k, k2) for k in range(n) for k2 in range(k + 1, n)]
    ia, ib = np.array(pairs).T
    expected = 0.5 * eta * (lvec[ia] - lvec[ib]) ** 2
    # every pair is fitted over the stretch where its exact mean has decayed
    # by at most e^-3, so the run lasts until the slowest pair gets there
    horizons = 3.0 / expected
    n_steps = int(round(horizons.max() / dt))
    drift_steps = int(round(0.1 / dt))
    kern = _Kernel(*spin2_tight, dt, trajectories)
    rho = np.tile(kern.pk.pack(np.eye(n)[None] / n), (1, trajectories))
    rng = np.random.default_rng(11)
    prod_means = np.empty((n_steps + 1, len(pairs)))
    xi = np.sqrt(rho[:n])
    prod_means[0] = (xi @ xi.T)[ia, ib] / trajectories
    resid_sum = np.zeros(n)
    resid_sqsum = np.zeros(n)
    for step in range(n_steps):
        kern.measure(rho, rng.standard_normal(trajectories) * np.sqrt(dt))
        _normalize(rho, n, 0, step + 1)
        xi_next = np.sqrt(rho[:n])
        if step < drift_steps:
            varpi = _rowsum(xi * xi, lvec)
            resid = xi_next - xi + 0.5 * eta * (lvec[:, None] - varpi) ** 2 * xi * dt
            resid_sum += resid.sum(axis=1)
            resid_sqsum += (resid * resid).sum(axis=1)
        xi = xi_next
        prod_means[step + 1] = (xi @ xi.T)[ia, ib] / trajectories
    count = drift_steps * trajectories
    mean_resid = resid_sum / count
    drift_z = mean_resid / np.sqrt((resid_sqsum / count - mean_resid**2) / count)
    times = np.arange(n_steps + 1) * dt
    fitted = np.empty(len(pairs))
    for i, horizon in enumerate(horizons):
        mask = (times <= horizon) & (prod_means[:, i] > 1e-6)
        fitted[i] = -np.polyfit(times[mask], np.log(prod_means[mask, i]), 1)[0]

    assert drift_z.shape == (5,)
    assert len(pairs) == 10
    gaps2 = [(meas.dec.eigenvalues[a] - meas.dec.eigenvalues[b]) ** 2 for a, b in pairs]
    assert np.allclose(expected, 0.5 * meas.eta * np.array(gaps2))
    assert np.max(np.abs(drift_z)) < 3.0
    assert np.max(np.abs(fitted - expected) / expected) < 0.1
