"""Lyapunov functions, weight solve, closed-form generator, certification."""

import csv
import io

import numpy as np
import pytest

from qndstab.core import ginibre_states, populations, random_density_matrix, random_hermitian
from qndstab.dynamics import control_setup, feedback_gain, measurement_setup
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
    open_loop_rate,
    solve_alpha,
    v_alpha,
    v_open,
    xi_dynamics_check,
)
from qndstab.spin import spin2_preset


def _diss(a, rho):
    return a @ rho @ a - 0.5 * (a @ a @ rho + rho @ a @ a)


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


def test_open_loop_rate_values(spin2_tight):
    meas, _ = spin2_tight
    assert open_loop_rate(meas) == pytest.approx(0.4)
    assert open_loop_rate(measurement_setup(np.diag([1.0, -1.0]), eta=0.0)) == 0.0
    meas3 = measurement_setup(np.diag([0.0, 3.0, 7.0]), eta=1.0)
    assert open_loop_rate(meas3) == pytest.approx(4.5)
    with pytest.raises(ValueError, match="single eigenspace"):
        open_loop_rate(measurement_setup(np.eye(3), eta=0.8))


# ----------------------------------------------------------- weight solving


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


def test_solve_alpha_scales_linearly(spin2_delta, spin2_weights):
    w2 = solve_alpha(spin2_delta, target=2, beta=2.0 * spin2_weights.beta)
    assert np.allclose(w2.alpha, 2.0 * spin2_weights.alpha, rtol=1e-12)


def test_solve_alpha_disconnected_graph():
    with pytest.raises(CertificationImpossibleError, match="disconnected"):
        solve_alpha(np.zeros((4, 4)), target=0)


def test_solve_alpha_beta_validation(spin2_delta):
    with pytest.raises(ValueError, match="shape"):
        solve_alpha(spin2_delta, 2, beta=np.ones((2, 5)))
    bad = default_beta(5, 2)
    bad[0, 0] = -1.0
    with pytest.raises(ValueError, match="positive"):
        solve_alpha(spin2_delta, 2, beta=bad)
    bad = default_beta(5, 2)
    bad[0, 2] = 0.0
    with pytest.raises(ValueError, match="sum to zero"):
        solve_alpha(spin2_delta, 2, beta=bad)
    bad = default_beta(5, 2)
    bad[1] = bad[0]
    bad[2] = bad[0]
    bad[3] = bad[0]
    with pytest.raises(ValueError, match="rank"):
        solve_alpha(spin2_delta, 2, beta=bad)
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
        dh = _diss(ctrl.H, rho)
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


def _general_pair(rng):
    """Degenerate L and a random H with a real part; target the nondegenerate level 0."""
    meas = measurement_setup(np.diag([1.0, 1.0, 0.0, -1.0, -1.0]), eta=0.7)
    h = random_hermitian(5, rng)
    ctrl = control_setup(h, meas.dec, 1, 2.0, 0.51, 0.7)
    return meas, ctrl, solve_alpha(laplacian_matrix(h, meas.dec), ctrl.target)


def _mixed_batch(dec, target, rng, count):
    """Ginibre states, two in three pulled toward a wrong vertex so that the gain engages."""
    states = ginibre_states(rng.standard_normal((count, 2, dec.n, dec.n)))
    wrong = [dec.projectors[j] / dec.multiplicities[j] for j in range(dec.d) if j != target]
    for i in range(count):
        if i % 3:
            u = rng.uniform(0.0, 0.4)
            states[i] = (1.0 - u) * wrong[i % len(wrong)] + u * states[i]
    return states


def test_generator_matches_reference_formulas_on_general_pair(rng):
    meas, ctrl, w = _general_pair(rng)
    dec, lam, h = meas.dec, meas.dec.eigenvalues, ctrl.H
    assert list(dec.multiplicities) == [2, 1, 2]
    assert np.max(np.abs(np.triu(h.real, 1))) > 0.1
    batch = _mixed_batch(dec, ctrl.target, rng, 30)
    terms = generator_terms(batch, meas, ctrl, w)
    engaged = 0
    for i, rho in enumerate(batch):
        p = populations(rho, dec)
        ap = p @ w.alpha.T
        dh = _diss(h, rho)
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
    # witness: the diagonal closed form -A V_alpha / V_alpha at the worst populations,
    # A V_alpha = (sigma^2/2) sum_s a_s.Delta p / sqrt(a_s.p) - (eta/2) sum_s (a_s.((lam - w) p))^2 / (a_s.p)^(3/2)
    p = report.worst_populations
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


def test_certify_decay_rejects_tiny_sample_budget(spin2_loose, spin2_weights):
    meas, ctrl = spin2_loose
    with pytest.raises(ValueError, match="stratum"):
        certify_decay(meas, ctrl, spin2_weights, samples=2)


def _sequential_strata(dec, target, samples, seed, tv_radius, target_exclusion):
    """One-state-at-a-time sampler: each candidate is drawn, screened and kept alone."""
    rng = np.random.default_rng(seed)
    wrong = [k for k in range(dec.d) if k != target]
    n_near, n_bulk = samples // 3, samples // 3
    per_vertex = [n_near // len(wrong)] * len(wrong)
    for i in range(n_near - sum(per_vertex)):
        per_vertex[i] += 1
    near = []
    for j, count in zip(wrong, per_vertex):
        vert = dec.projectors[j] / dec.multiplicities[j]
        for i in range(count):
            if i == 0:
                near.append(vert)
                continue
            u = rng.uniform(0.0, tv_radius)
            near.append((1.0 - u) * vert + u * random_density_matrix(dec.n, rng))

    rejected = 0

    def until(maker, count):
        nonlocal rejected
        out = []
        while len(out) < count:
            rho = maker()
            if 1.0 - populations(rho, dec)[target] >= target_exclusion:
                out.append(rho)
            else:
                rejected += 1
        return out

    def diagonal():
        weights = rng.dirichlet(np.ones(dec.d)) / dec.multiplicities
        return np.einsum("k,kij->ij", weights.astype(complex), dec.projectors)

    bulk = until(lambda: random_density_matrix(dec.n, rng), n_bulk)
    diag = until(diagonal, samples - n_near - n_bulk)
    return [("near_vertex", np.stack(near)), ("bulk", np.stack(bulk)), ("diagonal", np.stack(diag))], rejected


def _certificate_csv(strata, meas, ctrl, w, samples):
    lines = ["stratum,samples,min_ratio,worst_populations"]
    best, best_p = np.inf, None
    for name, batch in strata:
        ratio = -generator_terms(batch, meas, ctrl, w).AV / v_alpha(populations(batch, meas.dec), w)
        worst = int(np.argmin(ratio))
        p = populations(batch[worst], meas.dec)
        lines.append(f"{name},{len(batch)},{float(ratio[worst])!r},{';'.join(repr(float(x)) for x in p)}")
        if ratio[worst] < best:
            best, best_p = float(ratio[worst]), p
    lines.append(f"all,{samples},{best!r},{';'.join(repr(float(x)) for x in best_p)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "preset, samples, seed, tv_radius, target_exclusion",
    [
        ("spin2_tight", 3000, 7, 0.05, 1e-6),
        ("spin2_loose", 1000, 11, 0.3, 1e-6),
        ("spin2_loose", 600, 123, 1.0, 0.9),
    ],
)
def test_certify_decay_matches_sequential_sampler(
    request, spin2_weights, preset, samples, seed, tv_radius, target_exclusion
):
    meas, ctrl = request.getfixturevalue(preset)
    args = (meas.dec, ctrl.target, samples, seed, tv_radius, target_exclusion)
    expected, rejected = _sequential_strata(*args)
    batched = list(_sample_strata(*args))
    # every state, bit for bit, not just the worst one the certificate prints
    assert [name for name, _, _ in batched] == [name for name, _ in expected]
    for (_, states, _), (_, ref) in zip(batched, expected):
        assert states.shape == ref.shape
        assert states.tobytes() == ref.tobytes()
    report = certify_decay(
        meas, ctrl, spin2_weights, samples=samples, seed=seed,
        tv_radius=tv_radius, target_exclusion=target_exclusion,
    )
    assert certificate_to_csv(report) == _certificate_csv(expected, meas, ctrl, spin2_weights, samples)
    assert sum(s.draws - s.samples for s in report.strata) == rejected
    if target_exclusion == 0.9:
        # the rejection rounds ran: the reference rejected, and redrew, at least once
        assert rejected > 0


def test_certify_decay_counts_draws(spin2_tight, spin2_weights):
    meas, ctrl = spin2_tight
    for target_exclusion in (1e-6, 0.9):
        report = certify_decay(meas, ctrl, spin2_weights, samples=300, target_exclusion=target_exclusion)
        for s in report.strata:
            assert s.draws >= s.samples
        near = report.strata[0]
        assert near.name == "near_vertex" and near.draws == near.samples
    # the last report excludes states with p_target > 0.1, so the bulk stratum rejected some
    assert report.strata[1].draws > report.strata[1].samples


@pytest.mark.parametrize("tv_radius", [-0.01, 1.01])
def test_certify_decay_rejects_tv_radius_outside_unit_interval(spin2_tight, spin2_weights, tv_radius):
    meas, ctrl = spin2_tight
    with pytest.raises(ValueError, match="tv_radius"):
        certify_decay(meas, ctrl, spin2_weights, samples=30, tv_radius=tv_radius)


@pytest.mark.parametrize("target_exclusion", [0.0, 1.0, 1.5])
def test_certify_decay_rejects_target_exclusion_outside_open_unit_interval(
    spin2_tight, spin2_weights, target_exclusion
):
    meas, ctrl = spin2_tight
    with pytest.raises(ValueError, match="target_exclusion"):
        certify_decay(meas, ctrl, spin2_weights, samples=30, target_exclusion=target_exclusion)


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
    meas, _ = spin2_tight
    report = xi_dynamics_check(meas, trajectories=2000, seed=11)
    assert report.drift_z.shape == (5,)
    assert len(report.pair_indices) == 10
    gaps2 = [
        (meas.dec.eigenvalues[a] - meas.dec.eigenvalues[b]) ** 2
        for a, b in report.pair_indices
    ]
    assert np.allclose(report.expected_rates, 0.5 * meas.eta * np.array(gaps2))
    assert report.max_abs_z < 3.0
    assert report.max_rate_rel_error < 0.1
