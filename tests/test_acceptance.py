"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kernelbridge as kb
from conftest import random_spectral_measure

PSD_ZOO = ["gaussian", "laplacian", "cauchy", "cosine", "constant"]


def _report(number: int, name: str, started: float) -> None:
    print(f"[criterion {number}] {name}: PASS ({time.perf_counter() - started:.1f}s)")


def test_c1_centering_equivalence_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        raw = rng.uniform(-1.0, 1.0, (n, n))
        sym = 0.5 * (raw + raw.T)
        np.fill_diagonal(sym, 0.0)
        nd = kb.is_negative_definite(sym, tol=1e-9).verdict
        for base in range(n):
            psd = kb.is_positive_definite(kb.nd_to_psd(sym, base), tol=1e-9).verdict
            assert psd == nd, f"verdicts disagree at base {base}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, budget 10s"
    _report(1, "ND/PSD centering equivalence (1000 random samples, all bases)",
            started)


def test_c2_embedding_accepts_zoo_metrics_and_rejects_quartic():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    for name in PSD_ZOO:
        d2 = kb.metric_from_kernel(kb.zoo(name))
        for _ in range(200):
            n = int(rng.integers(2, 9))
            pts = rng.uniform(-5.0, 5.0, n)
            matrix = d2(pts[:, None] - pts[None, :])
            result = kb.euclidean_embedding(matrix)
            assert result.residual <= 1e-8 * float(np.max(matrix))

    quartic = np.array([[0.0, 1.0, 16.0], [1.0, 0.0, 1.0], [16.0, 1.0, 0.0]])
    with pytest.raises(kb.NotHilbertianError) as err:
        kb.euclidean_embedding(quartic)
    witness = np.asarray(err.value.witness_vector)
    direction = np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0)
    assert abs(float(witness @ direction)) > 1 - 1e-10
    scaled = np.sqrt(6.0) * witness
    assert_allclose(scaled @ quartic @ scaled, 24.0, rtol=1e-10)
    _report(2, "embedding accepts zoo metrics, rejects t^4 with (1,-2,1)", started)


def test_c3_bochner_pair_round_trips():
    started = time.perf_counter()

    result = kb.bochner_inversion(kb.zoo("laplacian"))
    mu = result.measure
    assert abs(mu.density_at(0.0) - 1.0 / np.pi) <= 1e-3
    mids = 0.5 * (mu.bin_edges[:-1] + mu.bin_edges[1:])
    widths = np.diff(mu.bin_edges)
    l1 = float(np.sum(np.abs(mu.bin_values - (1.0 / np.pi) / (1.0 + mids ** 2))
                      * widths))
    assert l1 <= 1e-2

    result = kb.bochner_inversion(kb.zoo("cauchy"))
    mu = result.measure
    mids = 0.5 * (mu.bin_edges[:-1] + mu.bin_edges[1:])
    widths = np.diff(mu.bin_edges)
    l1 = float(np.sum(np.abs(mu.bin_values - np.exp(-mids)) * widths))
    assert l1 <= 1e-2

    result = kb.bochner_inversion(kb.zoo("gaussian"))
    grid = np.linspace(-5.0, 5.0, 201)
    recon = kb.bochner_synthesis(result.measure, grid)
    assert float(np.max(np.abs(recon - np.exp(-grid ** 2 / 2.0)))) <= 1e-3

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s, budget 30s"
    _report(3, "Bochner pair round trips (laplacian, cauchy, gaussian)", started)


def test_c4_screw_bochner_consistency():
    started = time.perf_counter()
    grid = kb.probe_grid()

    mu = kb.SpectralMeasure(atoms=[(1.0, 0.5)])
    gamma, _ = kb.gamma_from_spectral(mu)
    lhs = kb.screw_synthesis(gamma, grid)
    assert float(np.max(np.abs(lhs - (2.0 - 2.0 * np.cos(grid))))) <= 1e-10

    mu = kb.gaussian_measure()
    gamma, _ = kb.gamma_from_spectral(mu)
    k0 = kb.bochner_synthesis(mu, 0.0)
    lhs = kb.screw_synthesis(gamma, grid)
    rhs = 2.0 * k0 - 2.0 * kb.bochner_synthesis(mu, grid)
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-12 * max(k0, 1.0)
    _report(4, "screw/Bochner consistency (atomic 1e-10, binned 1e-12)", started)


def test_c5_quadratic_decay_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(1005)
    for _ in range(100):
        mu = random_spectral_measure(rng)
        gamma, atom0 = kb.gamma_from_spectral(mu)
        k0 = kb.bochner_synthesis(mu, 0.0)
        integral = kb.int_bound_integral(gamma)
        scale = max(k0, 1.0)
        assert abs(integral - 4.0 * (k0 - atom0)) <= 1e-10 * scale
        if atom0 == 0.0:
            assert abs(integral - 4.0 * k0) <= 1e-10 * scale
        else:
            assert integral < 4.0 * k0

    tight = kb.GammaMeasure(atoms=[(0.5, 1.0)])
    assert kb.int_bound_integral(tight) == 4.0
    _report(5, "quadratic-decay integral equals 4(k(0) - atom0)", started)


def test_c6_zero_atom_detection():
    started = time.perf_counter()

    mix = kb.KernelProfile(fn=lambda t: 0.3 + 0.7 * np.exp(-t ** 2 / 2.0), name="mix")
    assert abs(kb.atom_at_zero(mix, window=200.0) - 0.3) <= 5e-3

    shifted = kb.KernelProfile(fn=lambda t: np.cos(t) - 0.3, name="cos-0.3")
    with pytest.raises(kb.NotPositiveDefiniteError):
        kb.bochner_inversion(shifted)

    gram = kb.build_gram(shifted, [0.0, np.pi, 2.0 * np.pi])
    verdict = kb.is_positive_definite(gram)
    assert not verdict.verdict
    oracle = float(np.min(np.linalg.eigvalsh(gram.entries)))
    assert_allclose(verdict.witness_eigenvalue, oracle, rtol=1e-12)
    assert abs(oracle - (-0.822)) <= 1e-3
    _report(6, "zero-frequency mass detection (estimate and Gram witness)", started)


def test_c7_asymmetry_of_the_correspondence():
    started = time.perf_counter()

    squared = kb.MetricProfile(fn=lambda t: t ** 2, name="t^2")
    kernel = kb.kernel_from_metric(squared)
    probes = kb.grid_probes()
    assert not kb.check_translation_invariance(kernel, probes).invariant
    assert kb.check_translation_invariance(kb.lift_metric(squared), probes).invariant

    absolute_value_gamma = kb.GammaMeasure(edges=[0.0, 1e4], values=[2.0 / np.pi])
    with pytest.raises(kb.UnboundedMetricError):
        kb.spectral_from_gamma(absolute_value_gamma, k0=1.0)
    _report(7, "asymmetry: t^2 kernel not invariant; |t| metric unbounded", started)


def test_c8_separable_gaussian_in_three_dimensions():
    started = time.perf_counter()
    inversion = kb.bochner_inversion(kb.zoo("gaussian"))
    measure = kb.ProductSpectralMeasure(factors=(inversion.measure,) * 3)
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-3.0, 3.0, 3)
        y = rng.uniform(-3.0, 3.0, 3)
        exact = float(np.exp(-np.sum((x - y) ** 2) / 2.0))
        synth = kb.product_synthesis(measure, x - y)
        worst = max(worst, abs(synth - exact))
    assert worst <= 3e-3
    _report(8, "separable gaussian on R^3 via per-factor inversions", started)


def test_c9_random_features_fixture_and_determinism():
    started = time.perf_counter()
    mu = kb.gaussian_measure()
    sample = kb.sample_frequencies(mu, m=4096, seed=42)
    pair_rng = np.random.default_rng(0)
    pairs = pair_rng.uniform(-3.0, 3.0, (100, 2))
    worst = max(abs(kb.approximate_kernel(sample, x, y)
                    - float(np.exp(-(x - y) ** 2 / 2.0)))
                for x, y in pairs)
    assert worst <= 0.05

    again = kb.sample_frequencies(mu, m=4096, seed=42)
    assert np.array_equal(sample.frequencies, again.frequencies)
    assert np.array_equal(sample.phases, again.phases)
    assert kb.approximate_kernel(sample, 0.25, -1.5) \
        == kb.approximate_kernel(again, 0.25, -1.5)
    _report(9, "random features: seed-42 error bound and bit determinism", started)
