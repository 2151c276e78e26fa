"""Spectral pipeline: synthesis both ways, conversions, bounds, inversion."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

import kernelbridge as kb
from conftest import random_spectral_measure
from kernelbridge import spectral
from kernelbridge.spectral import MAX_ELEMENTS, _midpoint_cosine_sums

GRID = kb.probe_grid()


def dense_cosine_sums(g, t_max, freq_max, n_bins):
    """Oracle: sum_i g_i cos(t_i tau_j) over a dense table, one bin at a time."""
    t = np.linspace(0.0, t_max, g.size)
    mid = (np.arange(n_bins) + 0.5) * (freq_max / n_bins)
    return np.array([g @ np.cos(t * tau) for tau in mid])


def chirp_z_cosine_sums(g, t_max, freq_max, n_bins):
    return _midpoint_cosine_sums(g, (t_max / (g.size - 1)) * (freq_max / n_bins), n_bins)


def plain_bochner_synthesis(mu, t):
    """Oracle: one t and one component at a time, 2 v 2 cos(t c) sin(t h) / t per bin.

    sin(t h) / t is taken as h where |t h| < 1e-8, at which the two agree
    to rounding and the quotient would lose its digits to underflow.
    """
    locs, masses, edges, values = mu.positive_part()
    out = []
    for ti in t:
        terms = [mu.zero_atom] + [2.0 * m * math.cos(ti * loc) for loc, m in zip(locs, masses)]
        for a, b, v in zip(edges[:-1], edges[1:], values):
            h = 0.5 * (b - a)
            ratio = h if abs(ti * h) < 1e-8 else math.sin(ti * h) / ti
            terms.append(2.0 * v * 2.0 * math.cos(ti * 0.5 * (a + b)) * ratio)
        out.append(math.fsum(terms))
    return np.array(out)


@st.composite
def binned_measures(draw):
    """Measures with uniform or non-uniform bins, optional atoms and zero atom."""
    n = draw(st.integers(1, 64))
    if draw(st.booleans()):
        # power-of-two width from a multiple of it: every width is equal in float
        width = 2.0 ** -draw(st.integers(0, 8))
        edges = (draw(st.integers(0, 64)) + np.arange(n + 1)) * width
    else:
        gaps = draw(st.lists(st.floats(1e-3, 2.0), min_size=n, max_size=n))
        edges = draw(st.floats(0.0, 4.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    atoms = draw(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 1.0)),
                          max_size=3))
    return kb.SpectralMeasure(atoms=atoms, edges=edges, values=values)


class TestBochnerSynthesis:
    def test_unit_atom_at_zero_is_constant(self):
        mu = kb.SpectralMeasure(atoms=[(0.0, 1.0)])
        assert_allclose(kb.bochner_synthesis(mu, GRID), 1.0)

    def test_half_atom_gives_cosine(self):
        mu = kb.SpectralMeasure(atoms=[(1.0, 0.5)])
        assert_allclose(kb.bochner_synthesis(mu, GRID), np.cos(GRID), rtol=1e-14)

    def test_binned_gaussian_quadrature_oracle(self):
        # independent oracle: adaptive quadrature of the binned integrand
        mu = kb.gaussian_measure()
        value = kb.bochner_synthesis(mu, 1.0)
        oracle = 0.0
        for a, b, v in zip(mu.bin_edges[:-1], mu.bin_edges[1:], mu.bin_values):
            oracle += 2.0 * v * quad(lambda tau: np.cos(tau), a, b)[0]
        assert_allclose(value, oracle, atol=1e-12)
        assert_allclose(value, np.exp(-0.5), atol=1e-6)

    def test_scalar_and_array_agree(self):
        mu = kb.gaussian_measure(n_bins=64)
        arr = kb.bochner_synthesis(mu, np.array([0.0, 0.7]))
        assert arr[0] == kb.bochner_synthesis(mu, 0.0)
        assert arr[1] == kb.bochner_synthesis(mu, 0.7)

    def test_zero_argument_equals_total_mass(self, measure_factory):
        rng = np.random.default_rng(8)
        for _ in range(20):
            mu = measure_factory(rng)
            assert_allclose(kb.bochner_synthesis(mu, 0.0), mu.total_mass(),
                            rtol=1e-10)

    @pytest.mark.parametrize("t", [np.nan, np.inf, [np.nan, np.inf, 1.0], [[0.0, -np.inf]]])
    def test_nonfinite_t_rejected(self, t):
        # used to return NaN with only a RuntimeWarning
        with pytest.raises(ValueError):
            kb.bochner_synthesis(kb.gaussian_measure(n_bins=8), t)

    @settings(max_examples=150, deadline=None)
    @given(mu=binned_measures(),
           t=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40).map(
               lambda ts: np.array([0.0] + ts)))
    def test_array_matches_plain_per_bin_formula(self, mu, t):
        k0 = mu.total_mass()
        assert np.max(np.abs(kb.bochner_synthesis(mu, t) - plain_bochner_synthesis(mu, t))) \
            <= 1e-14 * max(k0, 1.0)

    @pytest.mark.parametrize("t", [5e-324, -1e-320, 1e-310])
    def test_subnormal_t_takes_the_zero_value(self, t):
        # t h underflowed: 5e-324 gave 0.0 and 1e-320 gave 1.20158 for k(0) = 1.2
        mu = kb.SpectralMeasure(edges=[0.0, 0.3, 0.6], values=[1.0, 1.0])
        assert kb.bochner_synthesis(mu, t) == kb.bochner_synthesis(mu, 0.0) == 1.2
        for law in ("constant", "s2"):
            gamma = kb.GammaMeasure(edges=[0.0, 0.3, 0.6], values=[1.0, 1.0], law=law)
            assert kb.screw_synthesis(gamma, t) == 0.0

    def test_inverted_measure_matches_plain_per_bin_formula(self):
        mu = kb.bochner_inversion(kb.zoo("cauchy")).measure
        assert spectral._shared(np.diff(mu.bin_edges)).size == 1
        t = np.concatenate([[0.0], np.random.default_rng(5).uniform(-6.0, 6.0, 300)])
        assert np.max(np.abs(kb.bochner_synthesis(mu, t) - plain_bochner_synthesis(mu, t))) \
            <= 1e-14 * max(mu.total_mass(), 1.0)


class TestOneSinePerWidth:
    """A shared bin width is evaluated once per t, with the per-bin bits."""

    T = np.concatenate([[0.0], np.random.default_rng(9).uniform(-40.0, 40.0, 2000)])

    @staticmethod
    def per_bin(monkeypatch, synthesis, measure, t):
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_shared", lambda widths: widths)
            return synthesis(measure, t)

    def test_inverted_measure_has_one_width(self):
        widths = np.diff(kb.bochner_inversion(kb.zoo("gaussian")).measure.bin_edges)
        assert_array_equal(spectral._shared(widths), widths[:1])
        uneven = np.array([0.25, 0.25, 0.5])
        assert spectral._shared(uneven) is uneven

    @pytest.mark.parametrize("name", ["gaussian", "laplacian", "cauchy"])
    def test_bochner_rows_are_bit_identical(self, monkeypatch, name):
        mu = kb.bochner_inversion(kb.zoo(name)).measure
        assert_array_equal(kb.bochner_synthesis(mu, self.T),
                           self.per_bin(monkeypatch, kb.bochner_synthesis, mu, self.T))

    @pytest.mark.parametrize("name", ["gaussian", "laplacian", "cauchy"])
    def test_screw_rows_are_bit_identical(self, monkeypatch, name):
        gamma, _ = kb.gamma_from_spectral(kb.bochner_inversion(kb.zoo(name)).measure)
        assert gamma.law == "s2"
        assert_array_equal(kb.screw_synthesis(gamma, self.T),
                           self.per_bin(monkeypatch, kb.screw_synthesis, gamma, self.T))


class TestScrewSynthesis:
    def test_atom_closed_form(self):
        # one atom of mass 1 at 1/2: sin^2(t/2)/(1/4) = 2 - 2 cos t
        gamma = kb.GammaMeasure(atoms=[(0.5, 1.0)])
        assert_allclose(kb.screw_synthesis(gamma, GRID), 2.0 - 2.0 * np.cos(GRID),
                        atol=1e-12)

    def test_flat_density_approaches_absolute_value(self):
        # (2/pi) int_0^T sin^2(ts)/s^2 ds -> |t| as T grows;
        # oracle: adaptive quadrature of the same integrand
        gamma = kb.GammaMeasure(edges=[0.0, 1e4], values=[2.0 / np.pi])
        value = kb.screw_synthesis(gamma, 1.0)
        oracle = (2.0 / np.pi) * quad(lambda s: np.sin(s) ** 2 / s ** 2,
                                      0.0, 1e4, limit=2000)[0]
        assert_allclose(value, oracle, rtol=1e-6)
        assert value >= 0.99

    def test_empty_measure_is_zero(self):
        gamma = kb.GammaMeasure()
        assert_allclose(kb.screw_synthesis(gamma, GRID), 0.0)

    @pytest.mark.parametrize("law", ["constant", "s2"])
    def test_nonfinite_t_rejected(self, law):
        gamma = kb.GammaMeasure(atoms=[(0.7, 0.4)], edges=[0.2, 1.0], values=[0.3],
                                law=law)
        for t in (np.nan, -np.inf, [np.nan, np.inf, 1.0]):
            with pytest.raises(ValueError):
                kb.screw_synthesis(gamma, t)

    @pytest.mark.parametrize("law", ["constant", "s2"])
    def test_overflow_rejected(self, law):
        # used to give inf, with a RuntimeWarning from the row sums
        gamma = kb.GammaMeasure(edges=[1e-3, 1e300], values=[1e308], law=law)
        with pytest.raises(ValueError, match="overflows the float range"):
            kb.screw_synthesis(gamma, [0.5, 2.0])

    def test_even_and_zero_at_origin(self):
        for law in ("constant", "s2"):
            gamma = kb.GammaMeasure(atoms=[(0.7, 0.4)], edges=[0.2, 1.0], values=[0.3],
                                    law=law)
            assert kb.screw_synthesis(gamma, 0.0) == 0.0
            assert_allclose(kb.screw_synthesis(gamma, GRID),
                            kb.screw_synthesis(gamma, -GRID), rtol=1e-14)

    def test_s2_law_bin_quadrature_oracle(self):
        # density v s^2 on [c, d]: the integrand reduces to v sin^2(ts)
        gamma = kb.GammaMeasure(edges=[0.0, 0.3, 1.7], values=[2.0, 0.5], law="s2")
        for t in (0.01, 0.8, 3.0, 40.0):
            oracle = sum(v * quad(lambda s: np.sin(t * s) ** 2, c, d, limit=200)[0]
                         for c, d, v in ((0.0, 0.3, 2.0), (0.3, 1.7, 0.5)))
            assert_allclose(kb.screw_synthesis(gamma, t), oracle, rtol=1e-12)


class TestGammaFromSpectral:
    def test_atom_conversion(self):
        mu = kb.SpectralMeasure(atoms=[(1.0, 0.5)])
        gamma, atom0 = kb.gamma_from_spectral(mu)
        assert atom0 == 0.0
        assert_allclose(gamma.atom_locations, [0.5])
        assert_allclose(gamma.atom_masses, [1.0])
        assert_allclose(kb.screw_synthesis(gamma, GRID), 2.0 - 2.0 * np.cos(GRID),
                        atol=1e-12)

    def test_pure_zero_atom(self):
        gamma, atom0 = kb.gamma_from_spectral(kb.SpectralMeasure(atoms=[(0.0, 1.0)]))
        assert atom0 == 1.0
        assert gamma.atom_locations.size == 0
        assert gamma.bin_values.size == 0

    def test_binned_gaussian_defining_identity(self):
        mu = kb.gaussian_measure()
        gamma, atom0 = kb.gamma_from_spectral(mu)
        k0 = kb.bochner_synthesis(mu, 0.0)
        assert gamma.bin_values.size == mu.bin_values.size
        for t in (0.5, 1.0, 2.0):
            lhs = kb.screw_synthesis(gamma, t)
            rhs = 2.0 * k0 - 2.0 * kb.bochner_synthesis(mu, t)
            assert abs(lhs - rhs) <= 1e-12 * max(k0, 1.0)

    def test_defining_identity_atomic(self, measure_factory):
        rng = np.random.default_rng(12)
        probes = np.array([0.25, 0.5, 1.0, 2.0, 5.0])
        for _ in range(25):
            mu = measure_factory(rng, binned=False)
            gamma, _ = kb.gamma_from_spectral(mu)
            k0 = kb.bochner_synthesis(mu, 0.0)
            lhs = kb.screw_synthesis(gamma, probes)
            rhs = 2.0 * k0 - 2.0 * kb.bochner_synthesis(mu, probes)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(k0, 1.0)

    def test_defining_identity_binned(self, measure_factory):
        rng = np.random.default_rng(13)
        probes = np.array([0.25, 0.5, 1.0, 2.0, 5.0])
        for _ in range(10):
            mu = measure_factory(rng)
            gamma, _ = kb.gamma_from_spectral(mu)
            k0 = kb.bochner_synthesis(mu, 0.0)
            lhs = kb.screw_synthesis(gamma, probes)
            rhs = 2.0 * k0 - 2.0 * kb.bochner_synthesis(mu, probes)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(k0, 1.0)

    def test_no_atom_at_zero_ever(self, measure_factory):
        rng = np.random.default_rng(14)
        for _ in range(20):
            gamma, _ = kb.gamma_from_spectral(measure_factory(rng))
            assert np.all(gamma.atom_locations > 0)
            if gamma.bin_edges.size:
                assert gamma.bin_edges[0] > 0 or gamma.law == "s2"
                assert np.isfinite(kb.int_bound_integral(gamma))


class TestIntBoundIntegral:
    def test_tight_atom_case(self):
        gamma = kb.GammaMeasure(atoms=[(0.5, 1.0)])
        assert kb.int_bound_integral(gamma) == 4.0

    def test_empty(self):
        assert kb.int_bound_integral(kb.GammaMeasure()) == 0.0

    def test_density_touching_zero_is_infinite(self):
        gamma = kb.GammaMeasure(edges=[0.0, 1.0], values=[0.5])
        assert kb.int_bound_integral(gamma) == np.inf

    def test_gaussian_identity(self):
        mu = kb.gaussian_measure()
        gamma, atom0 = kb.gamma_from_spectral(mu)
        k0 = kb.bochner_synthesis(mu, 0.0)
        assert abs(kb.int_bound_integral(gamma) - 4.0 * (k0 - atom0)) <= 1e-10

    def test_identity_random_measures(self, measure_factory):
        rng = np.random.default_rng(15)
        for _ in range(100):
            mu = measure_factory(rng)
            gamma, atom0 = kb.gamma_from_spectral(mu)
            k0 = kb.bochner_synthesis(mu, 0.0)
            integral = kb.int_bound_integral(gamma)
            assert abs(integral - 4.0 * (k0 - atom0)) <= 1e-10 * max(k0, 1.0)
            # equality with 4 k(0) exactly when the zero atom vanishes
            if atom0 == 0.0:
                assert abs(integral - 4.0 * k0) <= 1e-10 * max(k0, 1.0)
            else:
                assert integral < 4.0 * k0

    def test_alpha_partial_integral(self):
        gamma = kb.GammaMeasure(atoms=[(0.5, 1.0)], edges=[1.0, 2.0], values=[1.0])
        assert gamma.alpha(0.4) == 0.0
        assert gamma.alpha(0.5) == 4.0
        assert_allclose(gamma.alpha(2.0), 4.0 + (1.0 / 1.0 - 1.0 / 2.0))

    def test_s2_law_integral(self):
        # s^-2 * v s^2 = v: each bin contributes v times its covered width,
        # also when it touches 0
        gamma = kb.GammaMeasure(atoms=[(0.5, 1.0)], edges=[0.0, 1.0, 2.0],
                                values=[1.0, 3.0], law="s2")
        assert gamma.alpha(1.5) == 4.0 + 1.0 + 1.5
        assert kb.int_bound_integral(gamma) == gamma.alpha(np.inf) == 4.0 + 1.0 + 3.0

    def test_bound_report(self):
        assert kb.bound_report(4.0, 1.0) == {"integral": 4.0, "bound": 4.0,
                                             "ok": True, "tight": True}
        assert kb.bound_report(3.0, 1.0)["tight"] is False
        assert kb.bound_report(np.inf, 1.0)["ok"] is False
        for k0 in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                kb.bound_report(1.0, k0)


class TestSpectralFromGamma:
    def test_round_trip_atom(self):
        gamma = kb.GammaMeasure(atoms=[(0.5, 1.0)])
        mu = kb.spectral_from_gamma(gamma, k0=1.0)
        assert_allclose(mu.atom_locations, [1.0])
        assert_allclose(mu.atom_masses, [0.5])
        assert mu.zero_atom == 0.0

    def test_leftover_mass_becomes_zero_atom(self):
        gamma = kb.GammaMeasure(atoms=[(0.5, 1.0)])
        mu = kb.spectral_from_gamma(gamma, k0=1.3)
        assert_allclose(mu.zero_atom, 0.3, atol=1e-15)
        assert_allclose(kb.bochner_synthesis(mu, GRID), 0.3 + np.cos(GRID),
                        rtol=1e-12, atol=1e-12)

    def test_absolute_value_metric_is_rejected(self):
        gamma = kb.GammaMeasure(edges=[0.0, 1e4], values=[2.0 / np.pi])
        with pytest.raises(kb.UnboundedMetricError) as err:
            kb.spectral_from_gamma(gamma, k0=1.0)
        assert err.value.integral == np.inf
        assert err.value.bound == 4.0

    def test_strictly_positive_unbounded_density(self):
        # same metric but bins bounded away from zero: still far beyond 4 k0
        gamma = kb.GammaMeasure(edges=[1e-6, 1e4], values=[2.0 / np.pi])
        with pytest.raises(kb.UnboundedMetricError):
            kb.spectral_from_gamma(gamma, k0=1.0)

    def test_tight_case_is_accepted(self):
        gamma = kb.GammaMeasure(atoms=[(0.5, 1.0)])
        mu = kb.spectral_from_gamma(gamma, k0=1.0)  # integral == 4 k0 exactly
        assert mu.zero_atom == 0.0

    def test_round_trip_through_gamma(self, measure_factory):
        rng = np.random.default_rng(16)
        for _ in range(20):
            mu = measure_factory(rng)
            k0 = kb.bochner_synthesis(mu, 0.0)
            gamma, _ = kb.gamma_from_spectral(mu)
            back = kb.spectral_from_gamma(gamma, k0=k0)
            assert_allclose(back.zero_atom, mu.zero_atom, atol=1e-12 * max(k0, 1.0))
            pos = mu.atom_locations > 0
            back_pos = back.atom_locations > 0
            assert_allclose(back.atom_locations[back_pos], mu.atom_locations[pos],
                            rtol=1e-12)
            assert_allclose(back.atom_masses[back_pos], mu.atom_masses[pos],
                            rtol=1e-12)
            if mu.bin_values.size:
                mids = 0.5 * (mu.bin_edges[:-1] + mu.bin_edges[1:])
                ours = np.array([back.density_at(m) for m in mids])
                assert_allclose(ours, mu.bin_values, rtol=1e-10, atol=1e-14)
            assert_allclose(back.total_mass(), mu.total_mass(),
                            rtol=1e-10)

    def test_round_trip_is_bit_exact(self, measure_factory):
        # the s^2-law map scales by powers of two, so bins come back unchanged
        rng = np.random.default_rng(17)
        for mu in [kb.gaussian_measure()] + [measure_factory(rng) for _ in range(50)]:
            k0 = kb.bochner_synthesis(mu, 0.0)
            gamma, _ = kb.gamma_from_spectral(mu)
            back = kb.spectral_from_gamma(gamma, k0=k0)
            assert_array_equal(back.bin_edges, mu.bin_edges)
            assert_array_equal(back.bin_values, mu.bin_values)
            scale = 1e-12 * max(k0, 1.0)
            assert abs(back.zero_atom - mu.zero_atom) <= scale
            assert abs(back.total_mass() - mu.total_mass()) <= scale


class TestAtomAtZero:
    def test_constant_kernel(self):
        for window in (1.0, 10.0, 500.0):
            assert_allclose(kb.atom_at_zero(kb.zoo("constant"), window), 1.0,
                            rtol=1e-12)

    def test_cosine_mean_vanishes(self):
        estimate = kb.atom_at_zero(kb.zoo("cosine"), window=1000.0)
        assert abs(estimate) <= 1e-3

    def test_offset_gaussian_mixture(self):
        profile = kb.KernelProfile(fn=lambda t: 0.3 + 0.7 * np.exp(-t ** 2 / 2.0),
                                   name="mix")
        estimate = kb.atom_at_zero(profile, window=200.0)
        assert abs(estimate - 0.3) <= 5e-3
        # tail bound: the non-atomic part contributes 0.7*sqrt(2 pi)/(2 T)
        assert_allclose(estimate, 0.3 + 0.7 * np.sqrt(2 * np.pi) / 400.0, atol=1e-6)

    def test_bad_window(self):
        for window, step in ((0.0, 0.01), (np.inf, 0.01), (np.nan, 0.01),
                             (10.0, 0.0), (10.0, np.nan)):
            with pytest.raises(ValueError):
                kb.atom_at_zero(kb.zoo("constant"), window=window, step=step)


class TestChirpZCosineSums:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 400), n_bins=st.integers(1, 64),
           t_max=st.floats(1e-2, 200.0), freq_max=st.floats(1e-2, 50.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_sum(self, n, n_bins, t_max, freq_max, seed):
        g = np.random.default_rng(seed).standard_normal(n)
        fast = chirp_z_cosine_sums(g, t_max, freq_max, n_bins)
        dense = dense_cosine_sums(g, t_max, freq_max, n_bins)
        assert fast.shape == (n_bins,)
        assert np.max(np.abs(fast - dense)) <= 1e-11 * np.sum(np.abs(g))

    def test_long_grid_matches_dense_sum(self):
        # the chirp phases reach ~1e6 rad here; round-off must not grow with them
        g = np.random.default_rng(400001).standard_normal(400001)
        fast = chirp_z_cosine_sums(g, 40.0, 8.0, 64)
        dense = dense_cosine_sums(g, 40.0, 8.0, 64)
        assert np.max(np.abs(fast - dense)) <= 1e-11 * np.sum(np.abs(g))

    @pytest.mark.parametrize("name", ["gaussian", "laplacian", "cauchy"])
    def test_inversion_density_is_the_trapezoid_sum(self, name):
        config = kb.InversionConfig(t_max=30.0, n_samples=3001, n_bins=256)
        kernel = kb.zoo(name)
        result = kb.bochner_inversion(kernel, config)
        t = np.linspace(0.0, config.t_max, config.n_samples)
        g = (kernel(t) - result.atom0) * (config.t_max / (config.n_samples - 1))
        g[[0, -1]] *= 0.5
        dense = dense_cosine_sums(g, config.t_max, config.freq_max, config.n_bins) / np.pi
        assert np.max(np.abs(result.measure.bin_values - np.clip(dense, 0.0, None))) <= 1e-12


class TestBochnerInversion:
    def test_laplacian_recovers_cauchy_density(self):
        result = kb.bochner_inversion(kb.zoo("laplacian"))
        measure = result.measure
        assert result.atom0 == 0.0
        assert abs(measure.density_at(0.0) - 1.0 / np.pi) <= 1e-3
        mids = 0.5 * (measure.bin_edges[:-1] + measure.bin_edges[1:])
        widths = np.diff(measure.bin_edges)
        oracle = (1.0 / np.pi) / (1.0 + mids ** 2)
        l1 = float(np.sum(np.abs(measure.bin_values - oracle) * widths))
        assert l1 <= 1e-2

    def test_cauchy_kernel_recovers_exponential_density(self):
        result = kb.bochner_inversion(kb.zoo("cauchy"))
        measure = result.measure
        mids = 0.5 * (measure.bin_edges[:-1] + measure.bin_edges[1:])
        widths = np.diff(measure.bin_edges)
        l1 = float(np.sum(np.abs(measure.bin_values - np.exp(-mids)) * widths))
        assert l1 <= 1e-2

    def test_gaussian_round_trip_sup(self):
        result = kb.bochner_inversion(kb.zoo("gaussian"))
        grid = np.linspace(-5, 5, 201)
        recon = kb.bochner_synthesis(result.measure, grid)
        assert np.max(np.abs(recon - np.exp(-grid ** 2 / 2.0))) <= 1e-3
        assert result.residual <= 1e-3

    def test_constant_kernel_is_pure_atom(self):
        result = kb.bochner_inversion(kb.zoo("constant"))
        assert_allclose(result.atom0, 1.0, rtol=1e-10)
        assert result.residual <= 1e-10
        assert np.max(result.measure.bin_values) <= 1e-10

    def test_shifted_cosine_rejected_via_atom(self):
        profile = kb.KernelProfile(fn=lambda t: np.cos(t) - 0.3, name="cos-0.3")
        with pytest.raises(kb.NotPositiveDefiniteError) as err:
            kb.bochner_inversion(profile)
        assert abs(err.value.atom0 - (-0.3)) <= 5e-3

    def test_pure_tone_is_outside_the_density_model(self):
        # cos has an atom at frequency 1; the density-only inversion
        # certifies negativity instead of silently smearing the spike
        with pytest.raises(kb.NotPositiveDefiniteError):
            kb.bochner_inversion(kb.zoo("cosine"))

    def test_truncation_dip_inside_the_tail_allowance_passes(self):
        # cauchy stops at k(10) = 2/101; the missing monotone tail dips the
        # density to -4.4e-4 past the floor (2e-4), but inside 2 tail_gap/(pi tau)
        config = kb.InversionConfig(t_max=10.0, n_samples=4001)
        result = kb.bochner_inversion(kb.zoo("cauchy"), config)
        assert result.tail_gap == pytest.approx(2.0 / 101.0, rel=1e-12)
        assert -5e-4 < result.min_density < -2.0 * config.clamp_tol
        assert np.min(result.measure.bin_values) == 0.0

    def test_gaussian_has_no_tail_allowance(self):
        # exp(-800) underflows: the floor alone decides, as before the allowance
        assert kb.bochner_inversion(kb.zoo("gaussian")).tail_gap == 0.0

    def test_box_kernel_is_still_rejected(self):
        # 1{|t| < 1} has a sinc spectrum and no tail left at t_max
        box = kb.KernelProfile(fn=lambda t: (np.abs(t) < 1.0).astype(float), name="box")
        for config in (kb.InversionConfig(), kb.InversionConfig(t_max=10.0, n_samples=4001)):
            with pytest.raises(kb.NotPositiveDefiniteError) as err:
                kb.bochner_inversion(box, config)
            assert err.value.worst_density < -0.06

    def test_clamp_reporting(self):
        result = kb.bochner_inversion(kb.zoo("gaussian"))
        assert result.clamped_mass >= 0.0
        assert result.clamped_mass <= 1e-6
        assert result.min_density >= -1e-4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            kb.InversionConfig(t_max=-1.0)
        with pytest.raises(ValueError):
            kb.InversionConfig(atom_step=0.0)

    @pytest.mark.parametrize("field", ["n_samples", "n_bins", "residual_points"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", np.nan])
    def test_config_rejects_non_integer_sizes(self, field, value):
        with pytest.raises(ValueError):
            kb.InversionConfig(**{field: value})

    @pytest.mark.parametrize("field", ["t_max", "freq_max", "atom_window", "atom_step",
                                       "clamp_tol", "residual_span"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, None, True, 1j])
    def test_config_rejects_non_finite_reals(self, field, value):
        with pytest.raises(ValueError):
            kb.InversionConfig(**{field: value})

    def test_config_accepts_numpy_scalars(self):
        config = kb.InversionConfig(t_max=np.float64(20.0), n_samples=np.int64(101),
                                    n_bins=np.int32(16), residual_points=7)
        assert config.n_samples == 101

    def test_health_readings_name_the_missing_tail(self):
        # the laplacian's spectral density 1/(pi (1 + tau^2)) has mass
        # (2/pi) atan 8 below freq_max = 8; the rest is the residual at t = 0
        result = kb.bochner_inversion(kb.zoo("laplacian"))
        tail = 1.0 - (2.0 / np.pi) * np.arctan(8.0)
        assert abs(result.mass_gap - tail) <= 1e-4
        assert_allclose(result.mass_gap, 1.0 - result.measure.total_mass(), rtol=1e-15)
        config = result.config
        assert result.nyquist_margin == np.pi / (config.t_max / (config.n_samples - 1)) \
            - config.freq_max
        assert 0.0 < result.atom_window_gap < 0.05

    def test_health_readings_of_a_pure_atom(self):
        result = kb.bochner_inversion(kb.zoo("constant"))
        assert abs(result.mass_gap) <= 1e-10
        assert result.atom_window_gap <= 1e-12

    def test_tail_gap_is_the_last_sample(self):
        # cauchy 2/(1 + t^2) is still 2/1601 at t_max = 40
        result = kb.bochner_inversion(kb.zoo("cauchy"))
        assert result.atom0 == 0.0
        assert result.tail_gap == 2.0 / 1601.0
        assert 1.2e-3 < result.tail_gap < 1.3e-3

    def test_tail_gap_grows_on_a_short_window(self):
        kernel = kb.zoo("gaussian")
        assert kb.bochner_inversion(kernel).tail_gap <= 1e-300
        # cutting the samples at t = 2 rings the density below 0; let it clamp
        config = kb.InversionConfig(t_max=2.0, n_samples=801, clamp_tol=0.1)
        short = kb.bochner_inversion(kernel, config)
        assert short.atom0 == 0.0 and short.clamped_mass > 0.0
        assert short.tail_gap == float(kernel(2.0))
        assert_allclose(short.tail_gap, np.exp(-2.0), rtol=1e-12)

    def test_nyquist_margin_goes_negative_on_coarse_sampling(self):
        config = kb.InversionConfig(t_max=40.0, n_samples=11, n_bins=64)
        result = kb.bochner_inversion(kb.zoo("gaussian"), config)
        assert result.nyquist_margin == pytest.approx(np.pi / 4.0 - 8.0)


def _never_called(t):
    raise AssertionError("an oversized request evaluated the kernel")


class TestElementBudget:
    """Sizes over MAX_ELEMENTS are rejected from their estimate, unallocated."""

    @staticmethod
    def assert_rejected_without_allocating(call):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_budget_edge(self):
        spectral.check_elements(MAX_ELEMENTS, "at the budget")
        with pytest.raises(ValueError, match="budget"):
            spectral.check_elements(MAX_ELEMENTS + 1, "over the budget")

    def test_inversion_estimate_is_the_chirp_fft_length(self):
        defaults = kb.InversionConfig()
        size = spectral._chirp_size(defaults.n_samples, defaults.n_bins)
        assert size >= defaults.n_samples + defaults.n_bins - 1
        assert size < 2 * (defaults.n_samples + defaults.n_bins - 1)
        assert 2 * spectral._chirp_size(MAX_ELEMENTS // 2, 2048) > MAX_ELEMENTS

    @pytest.mark.parametrize("sizes", [{"n_samples": 10 ** 12}, {"n_bins": MAX_ELEMENTS},
                                       {"n_samples": MAX_ELEMENTS // 2, "n_bins": 2},
                                       {"residual_points": MAX_ELEMENTS + 1}])
    def test_inversion_config(self, sizes):
        self.assert_rejected_without_allocating(lambda: kb.InversionConfig(**sizes))

    def test_largest_inversion_within_budget_is_accepted(self):
        kb.InversionConfig(n_samples=MAX_ELEMENTS // 4 - 2048, n_bins=2048)

    @pytest.mark.parametrize("window,step", [(1e7, 1e-3), (1e300, 1e-300),
                                             (float(MAX_ELEMENTS), 1.0)])
    def test_atom_at_zero(self, window, step):
        kernel = kb.KernelProfile(fn=_never_called, name="unused")
        self.assert_rejected_without_allocating(
            lambda: kb.atom_at_zero(kernel, window=window, step=step))

    def test_sample_sizes(self):
        mu = kb.gaussian_measure(n_bins=8)
        self.assert_rejected_without_allocating(
            lambda: kb.sample_frequencies(mu, m=MAX_ELEMENTS + 1, seed=0))
        product = kb.ProductSpectralMeasure(factors=(mu,) * 3)
        self.assert_rejected_without_allocating(
            lambda: kb.sample_product_frequencies(product, m=MAX_ELEMENTS // 3 + 1, seed=0))


class TestSynthesizedKernelsArePositiveDefinite:
    def test_random_measures_give_psd_grams(self, measure_factory):
        rng = np.random.default_rng(77)
        for _ in range(15):
            mu = measure_factory(rng)
            profile = kb.KernelProfile(fn=lambda t, m=mu: kb.bochner_synthesis(m, t),
                                       name="synth")
            pts = rng.uniform(-4, 4, int(rng.integers(2, 9)))
            gram = kb.build_gram(profile, pts)
            assert kb.is_positive_definite(gram).verdict
