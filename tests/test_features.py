"""Randomized Fourier features: determinism, unbiasedness, fixture errors."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import kernelbridge as kb
from kernelbridge import features, spectral
from kernelbridge._pcg64 import _uniforms
from kernelbridge.measures import _scaled

GAUSS = kb.gaussian_measure()


def _pairs(n=100, span=3.0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-span, span, (n, 2))


class TestSampleFrequencies:
    def test_zero_atom_measure_gives_zero_frequencies(self):
        sample = kb.sample_frequencies(kb.constant_measure(), m=64, seed=1)
        assert_array_equal(sample.frequencies, 0.0)
        assert sample.total_mass == 1.0

    def test_pure_tone_histogram_and_sign_balance(self):
        m = 100_000
        sample = kb.sample_frequencies(kb.cosine_measure(), m=m, seed=5)
        assert np.all(np.abs(sample.frequencies) == 1.0)
        n_pos = int(np.sum(sample.frequencies > 0))
        sigma = 0.5 * np.sqrt(m)
        assert abs(n_pos - m / 2) <= 3 * sigma

    def test_gaussian_frequency_variance(self):
        sample = kb.sample_frequencies(GAUSS, m=100_000, seed=7)
        assert abs(np.var(sample.frequencies) - 1.0) <= 0.02

    def test_determinism_bit_identical(self):
        a = kb.sample_frequencies(GAUSS, m=512, seed=42)
        b = kb.sample_frequencies(GAUSS, m=512, seed=42)
        assert_array_equal(a.frequencies, b.frequencies)
        assert_array_equal(a.phases, b.phases)

    def test_samples_compare_by_identity(self):
        # two bit-identical draws raised ValueError on ==, and hash raised TypeError
        a = kb.sample_frequencies(GAUSS, m=16, seed=42)
        b = kb.sample_frequencies(GAUSS, m=16, seed=42)
        assert a == a and (a == b) is False and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_different_seeds_differ(self):
        a = kb.sample_frequencies(GAUSS, m=512, seed=1)
        b = kb.sample_frequencies(GAUSS, m=512, seed=2)
        assert not np.array_equal(a.frequencies, b.frequencies)

    def test_zero_mass_rejected(self):
        empty = kb.SpectralMeasure(atoms=[(1.0, 0.0)])
        with pytest.raises(ValueError, match="zero-mass"):
            kb.sample_frequencies(empty, m=8, seed=0)

    def test_total_mass_is_the_measure_total_mass(self, measure_factory):
        # the draw's total differed from total_mass() in the last bit on
        # about half of the measures with atoms
        rng = np.random.default_rng(31)
        for _ in range(100):
            mu = measure_factory(rng)
            assert kb.sample_frequencies(mu, m=8, seed=0).total_mass == mu.total_mass()

    @pytest.mark.parametrize("frequencies, phases", [([1.0, 2.0], [0.5]), ([], [])])
    def test_frequencies_and_phases_share_a_positive_length(self, frequencies, phases):
        with pytest.raises(ValueError,
                           match="^frequencies and phases must share a positive length$"):
            features.FrequencySample(frequencies, phases, total_mass=1.0, seed=0)

    def test_phases_in_range(self):
        sample = kb.sample_frequencies(GAUSS, m=4096, seed=3)
        assert np.all(sample.phases >= 0.0)
        assert np.all(sample.phases < 2 * np.pi)


class TestApproximateKernel:
    def test_zero_atom_expectation_over_seeds(self):
        # phi at x == y reduces to (2/m) sum cos^2(b); mean over seeds -> 1
        values = [kb.approximate_kernel(
            kb.sample_frequencies(kb.constant_measure(), m=256, seed=s), 0.7, 0.7)
            for s in range(100)]
        assert abs(np.mean(values) - 1.0) <= 0.01

    def test_gaussian_fixture_seed_42(self):
        # frozen fixture: observed max error 0.0230 over these 100 pairs
        sample = kb.sample_frequencies(GAUSS, m=4096, seed=42)
        worst = max(abs(kb.approximate_kernel(sample, x, y)
                        - np.exp(-(x - y) ** 2 / 2.0))
                    for x, y in _pairs(seed=0))
        assert worst <= 0.05
        assert_allclose(worst, 0.023007, atol=2e-4)

    def test_cosine_fixture(self):
        sample = kb.sample_frequencies(kb.cosine_measure(), m=2048, seed=42)
        worst = max(abs(kb.approximate_kernel(sample, x, y) - np.cos(x - y))
                    for x, y in _pairs(seed=0))
        assert worst <= 0.08
        assert_allclose(worst, 0.015936, atol=2e-4)

    def test_unbiasedness(self):
        x, y = 0.7, -0.4
        estimates = np.array([
            kb.approximate_kernel(kb.sample_frequencies(GAUSS, m=256, seed=s), x, y)
            for s in range(200)])
        truth = kb.bochner_synthesis(GAUSS, x - y)
        band = 3.0 * np.std(estimates, ddof=1) / np.sqrt(200)
        assert abs(np.mean(estimates) - truth) <= band

    def test_mass_scaling_linearity(self):
        scaled = kb.SpectralMeasure(atoms=zip(GAUSS.atom_locations, 3.0 * GAUSS.atom_masses),
                                    edges=GAUSS.bin_edges, values=3.0 * GAUSS.bin_values)
        a = kb.sample_frequencies(GAUSS, m=1024, seed=9)
        b = kb.sample_frequencies(scaled, m=1024, seed=9)
        assert_array_equal(a.frequencies, b.frequencies)
        va = kb.approximate_kernel(a, 0.3, -0.9)
        vb = kb.approximate_kernel(b, 0.3, -0.9)
        assert abs(vb - 3.0 * va) <= 1e-12 * max(abs(vb), 1.0)

    def test_feature_matrix_matches_inner_product(self):
        sample = kb.sample_frequencies(GAUSS, m=128, seed=21)
        x, y = 1.1, -0.4
        direct = float(kb.feature_matrix(sample, x) @ kb.feature_matrix(sample, y))
        assert_allclose(direct, kb.approximate_kernel(sample, x, y), rtol=1e-12)


def per_pair(sample, x, y):
    """The per-pair formula 2 M/m * cos(w.x + b) @ cos(w.y + b), one pair at a time."""
    freqs = sample.frequencies.reshape(sample.m, -1)
    cx = np.cos(freqs @ np.atleast_1d(x) + sample.phases)
    cy = np.cos(freqs @ np.atleast_1d(y) + sample.phases)
    return 2.0 * sample.total_mass / sample.m * float(cx @ cy)


def cosines(sample, points):
    """features._cosines at an (n, d) array of points, in fresh arrays."""
    n = len(points)
    out = np.empty((n, sample.m))
    assert features._cosines(sample, points, out, np.empty((2, n, sample.m))) is out
    return out


def cosines_of(a, n=1):
    """n rows of the cosines of the angles a, through a sample that forms them
    exactly: frequencies a, phases 0 and the point 1."""
    a = np.ravel(a)
    sample = features.FrequencySample(a, np.zeros(a.size), total_mass=1.0, seed=0)
    return cosines(sample, np.ones((n, 1)))


class TestCos:
    """features._cosines, the plain-arithmetic cosine of the feature sweeps."""

    @pytest.mark.parametrize("span", [1.0, 300.0, 3e4, 2.5e7])
    def test_within_1e15_of_libm(self, span):
        a = np.random.default_rng(7).uniform(-span, span, (40, 500))
        values = cosines_of(a)[0]  # computed in place in the caller's array
        assert np.max(np.abs(values - np.cos(a.ravel()))) <= 1e-15

    def test_exact_turns(self):
        a = np.array([0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -64 * np.pi])
        assert_allclose(cosines_of(a)[0], [1, 1, -1, -1, 1, 1], rtol=0, atol=1e-15)
        assert cosines_of(a, n=0).size == 0

    def test_past_the_turn_limit_is_np_cos(self):
        # one argument past _MAX_TURNS sends the whole array to np.cos
        a = np.array([0.3, 2.0 * np.pi * (features._MAX_TURNS + 2)])
        assert_array_equal(cosines_of(a)[0], np.cos(a))


class TestBatchedApproximateKernel:
    CAUCHY = kb.bochner_inversion(kb.zoo("cauchy")).measure

    @pytest.mark.parametrize("d, m", [(1, 4096), (3, 4096), (3, 20_000)])
    def test_matches_the_per_pair_formula(self, d, m):
        # m = 20,000 is one pair per chunk: each half is one row of the sweep
        product = kb.ProductSpectralMeasure(factors=(self.CAUCHY,) * d)
        k0 = product.total_mass()
        sample = kb.sample_product_frequencies(product, m=m, seed=8)
        rng = np.random.default_rng(d)
        xs, ys = rng.uniform(-3, 3, (300, d)), rng.uniform(-3, 3, (300, d))
        batch = kb.approximate_kernel(sample, xs, ys)
        assert batch.shape == (300,)
        oracle = np.array([per_pair(sample, x, y) for x, y in zip(xs, ys)])
        assert np.max(np.abs(batch - oracle)) <= 1e-14 * max(k0, 1.0)

    @pytest.mark.parametrize("d", [1, 3])
    def test_one_sweep_keeps_the_two_sweep_bits(self, d):
        # the benchmark's shapes: both halves of a chunk in one _cosines call give
        # the bits of one call per half
        product = kb.ProductSpectralMeasure(factors=(self.CAUCHY,) * d)
        sample = kb.sample_product_frequencies(product, m=4096, seed=d)
        rng = np.random.default_rng(d)
        xs, ys = rng.uniform(-3, 3, (500, d)), rng.uniform(-3, 3, (500, d))
        step = spectral._chunk_rows(sample.m)
        inner = np.concatenate([
            (cosines(sample, xs[lo:lo + step]) * cosines(sample, ys[lo:lo + step])).sum(axis=1)
            for lo in range(0, len(xs), step)])
        back, mass = _scaled(sample.total_mass)
        assert_array_equal(kb.approximate_kernel(sample, xs, ys),
                           back(2.0 * mass / sample.m * inner))

    def test_empty_batches_give_empty_arrays(self):
        line = kb.sample_frequencies(self.CAUCHY, m=64, seed=1)
        product = kb.sample_product_frequencies(
            kb.ProductSpectralMeasure(factors=(self.CAUCHY,) * 3), m=64, seed=1)
        for sample, shape in ((line, (0,)), (line, (0, 1)), (product, (0, 3))):
            values = kb.approximate_kernel(sample, np.zeros(shape), np.zeros(shape))
            assert isinstance(values, np.ndarray) and values.shape == (0,)

    def test_line_batches(self):
        sample = kb.sample_frequencies(self.CAUCHY, m=2048, seed=4)
        pairs = _pairs(n=200, seed=2)
        batch = kb.approximate_kernel(sample, pairs[:, 0], pairs[:, 1])
        oracle = np.array([per_pair(sample, x, y) for x, y in pairs])
        assert np.max(np.abs(batch - oracle)) <= 1e-14 * max(sample.total_mass, 1.0)
        # an (n, 1) array is the same batch
        assert_array_equal(kb.approximate_kernel(sample, pairs[:, :1], pairs[:, 1:]), batch)

    def test_line_projections_are_the_matmul_products(self):
        # one product per entry, as a matmul computes them: the line sample and its
        # (m, 1) twin take np.multiply, and a twin with a zero second frequency,
        # at points with a zero second coordinate, takes np.matmul
        sample = kb.sample_frequencies(self.CAUCHY, m=4096, seed=6)
        points = np.random.default_rng(6).uniform(-3.0, 3.0, (500, 1))
        freqs = sample.frequencies.reshape(sample.m, 1)
        twins = ((replace(sample, frequencies=freqs), points),
                 (replace(sample, frequencies=np.hstack([freqs, np.zeros_like(freqs)])),
                  np.hstack([points, np.zeros_like(points)])))
        for twin, twin_points in twins:
            assert_array_equal(cosines(sample, points), cosines(twin, twin_points))

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n, m, step", [(7, 4096, 4), (3, 20_000, 1)])
    def test_chunks_are_evaluated_as_fresh_calls(self, d, n, m, step):
        # chunks of 4 then 3 rows, and of one row past _CHUNK, all in one block per
        # call: the last chunk of 3 rows is shorter than the one before it
        assert step == spectral._chunk_rows(m)
        product = kb.ProductSpectralMeasure(factors=(self.CAUCHY,) * d)
        sample = kb.sample_product_frequencies(product, m=m, seed=n)
        rng = np.random.default_rng(n)
        xs, ys = rng.uniform(-3, 3, (n, d)), rng.uniform(-3, 3, (n, d))
        chunks = [kb.approximate_kernel(sample, xs[lo:lo + step], ys[lo:lo + step])
                  for lo in range(0, n, step)]
        assert_array_equal(kb.approximate_kernel(sample, xs, ys), np.concatenate(chunks))

    def test_single_points_give_floats(self):
        line = kb.sample_frequencies(GAUSS, m=64, seed=1)
        value = kb.approximate_kernel(line, 0.3, -0.2)
        assert isinstance(value, float)
        assert value == pytest.approx(per_pair(line, 0.3, -0.2), abs=1e-14)
        product = kb.ProductSpectralMeasure(factors=(GAUSS,) * 3)
        sample = kb.sample_product_frequencies(product, m=64, seed=1)
        value = kb.approximate_kernel(sample, [0.1, 0.2, 0.3], np.zeros(3))
        assert isinstance(value, float)
        assert value == pytest.approx(per_pair(sample, [0.1, 0.2, 0.3], np.zeros(3)),
                                      abs=1e-14)

    def test_wrong_shapes_rejected(self):
        product = kb.ProductSpectralMeasure(factors=(GAUSS,) * 2)
        sample = kb.sample_product_frequencies(product, m=16, seed=0)
        line = kb.sample_frequencies(GAUSS, m=16, seed=0)
        for s, x, y in ((sample, np.zeros((4, 3)), np.zeros((4, 3))),
                        (sample, np.zeros((4, 2)), np.zeros((5, 2))),
                        (sample, np.zeros((4, 2)), np.zeros(2)),
                        (sample, np.zeros((2, 2, 2)), np.zeros((2, 2, 2))),
                        (sample, 0.5, 0.5),
                        (line, np.zeros((4, 2)), np.zeros((4, 2))),
                        (line, np.zeros(4), np.zeros(3)),
                        (line, np.zeros((2, 2, 1)), np.zeros((2, 2, 1)))):
            with pytest.raises(ValueError):
                kb.approximate_kernel(s, x, y)
        # an empty batch is read as points of its width
        with pytest.raises(ValueError, match="^point has dimension 3, expected 2$"):
            kb.approximate_kernel(sample, np.zeros((0, 3)), np.zeros((0, 3)))

    def test_overflowing_projections_rejected(self):
        # w x past the float range gave nan with RuntimeWarnings
        line = kb.sample_frequencies(GAUSS, m=64, seed=1)
        product = kb.sample_product_frequencies(
            kb.ProductSpectralMeasure(factors=(GAUSS,) * 3), m=64, seed=1)
        assert np.max(np.abs(line.frequencies)) > 2.0  # so 1e308 w overflows
        for sample, x, y in ((line, 1e308, -1e308), (line, [0.0, 1e308], [0.0, 0.0]),
                             (product, [1e308, -1e308, 1.0], np.zeros(3))):
            with pytest.raises(ValueError, match="a point times a frequency overflows"):
                kb.approximate_kernel(sample, x, y)
            with pytest.raises(ValueError, match="a point times a frequency overflows"):
                kb.feature_matrix(sample, np.max(x) if sample is line else x)

    def test_feature_matrix_takes_one_point(self):
        sample = kb.sample_frequencies(GAUSS, m=16, seed=0)
        with pytest.raises(ValueError, match="^feature_matrix takes one point, got 2$"):
            kb.feature_matrix(sample, [0.0, 1.0])

    def test_non_finite_points_rejected(self):
        sample = kb.sample_frequencies(GAUSS, m=16, seed=0)
        for x in (np.inf, [0.0, np.nan]):
            with pytest.raises(ValueError, match="points must be finite"):
                kb.approximate_kernel(sample, x, np.zeros(np.shape(x)))

    def test_ragged_points_are_not_numbers(self):
        # x and y are read before their shapes are compared
        sample = kb.sample_frequencies(GAUSS, m=16, seed=0)
        for x, y in (([[1.0], [1.0, 2.0]], [[1.0], [1.0, 2.0]]), ([[1.0], [1.0, 2.0]], [0.0, 0.0]),
                     ([0.0, 0.0], [[1.0], [1.0, 2.0]])):
            with pytest.raises(ValueError, match="^points must be real numbers$"):
                kb.approximate_kernel(sample, x, y)


class TestProductSampling:
    def test_separable_gaussian_approximation(self):
        measure = kb.ProductSpectralMeasure(factors=(GAUSS, GAUSS))
        sample = kb.sample_product_frequencies(measure, m=4096, seed=42)
        assert sample.frequencies.shape == (4096, 2)
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-3, 3, 2)
            y = rng.uniform(-3, 3, 2)
            exact = np.exp(-np.sum((x - y) ** 2) / 2.0)
            worst = max(worst, abs(kb.approximate_kernel(sample, x, y) - exact))
        assert worst <= 0.1  # 1-d bound compounded over two factors

    def test_determinism(self):
        measure = kb.ProductSpectralMeasure(factors=(GAUSS, kb.cosine_measure()))
        a = kb.sample_product_frequencies(measure, m=64, seed=3)
        b = kb.sample_product_frequencies(measure, m=64, seed=3)
        assert_array_equal(a.frequencies, b.frequencies)
        assert_array_equal(a.phases, b.phases)

    def test_total_mass_is_product(self):
        measure = kb.ProductSpectralMeasure(factors=(kb.constant_measure(2.0),
                                                     kb.cosine_measure()))
        sample = kb.sample_product_frequencies(measure, m=16, seed=0)
        assert sample.total_mass == 2.0

    def test_line_draw_is_the_one_factor_product_draw(self, measure_factory):
        rng = np.random.default_rng(23)
        zoo = [kb.gaussian_measure(), kb.laplacian_measure(), kb.cauchy_measure(),
               kb.cosine_measure(), kb.constant_measure()]
        for seed, mu in enumerate(zoo + [measure_factory(rng) for _ in range(40)]):
            line = kb.sample_frequencies(mu, m=257, seed=seed)
            one = kb.sample_product_frequencies(kb.ProductSpectralMeasure(factors=(mu,)),
                                                m=257, seed=seed)
            assert line.frequencies.shape == (257,)
            assert line.frequencies.tobytes() == one.frequencies[:, 0].tobytes()
            assert line.phases.tobytes() == one.phases.tobytes()
            assert line.total_mass == one.total_mass

    def test_frozen_draw_order(self):
        # per factor: selectors, positions, signs; then one phase block.  A
        # single atom makes each frequency its sign times the atom location.
        measure = kb.ProductSpectralMeasure(factors=(kb.cosine_measure(1.0),
                                                     kb.cosine_measure(2.0)))
        sample = kb.sample_product_frequencies(measure, m=64, seed=5)
        blocks = np.random.default_rng(5).random((7, 64))
        signs = np.where(blocks[[2, 5]] < 0.5, -1.0, 1.0)
        assert_array_equal(sample.frequencies, (signs * [[1.0], [2.0]]).T)
        assert_array_equal(sample.phases, blocks[6] * (2.0 * np.pi))
        line = kb.sample_frequencies(kb.cosine_measure(1.0), m=64, seed=5)
        assert_array_equal(line.frequencies, signs[0])
        assert_array_equal(line.phases, blocks[3] * (2.0 * np.pi))

    def test_dimension_mismatch_rejected(self):
        measure = kb.ProductSpectralMeasure(factors=(GAUSS, GAUSS))
        sample = kb.sample_product_frequencies(measure, m=16, seed=0)
        with pytest.raises(ValueError):
            kb.approximate_kernel(sample, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])


class TestStream:
    """The in-package PCG64 stream against numpy's own ``default_rng``."""

    @given(seed=st.integers(0, 2 ** 130),
           sizes=st.lists(st.integers(0, 3 * 256 + 1), min_size=1, max_size=4))
    @example(seed=0, sizes=[1])
    @example(seed=2 ** 32 - 1, sizes=[255, 257])
    @example(seed=2 ** 32, sizes=[511, 513, 767, 769])
    @example(seed=2 ** 64, sizes=[4 * 4096])  # the d = 1 draw at m = 4096, in one call
    @example(seed=2 ** 128 + 1, sizes=[4096] * 10)  # the d = 3 draw: 10 blocks of m
    @example(seed=5, sizes=[10 * 4096])
    def test_draws_are_default_rngs_bit_for_bit(self, seed, sizes):
        # every seed word past SeedSequence's pool of four is mixed in too, and
        # a call that ends inside a row of 256 lanes leaves the stream there
        random, rng = _uniforms(seed), np.random.default_rng(seed)
        for n in sizes:
            assert_array_equal(random(n), rng.random(n), strict=True)
