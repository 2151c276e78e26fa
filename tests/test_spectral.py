"""Spectral pipeline: synthesis both ways, conversions, bounds, inversion."""

import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

import kernelbridge as kb
from conftest import gamma_measures, random_spectral_measure
from kernelbridge import spectral
from kernelbridge.measures import MAX_ELEMENTS
from kernelbridge.spectral import _midpoint_cosine_sums

GRID = kb.probe_grid()


def dense_cosine_sums(g, t_max, freq_max, n_bins, bins=None):
    """Oracle: sum_i g_i cos(t_i tau_j) over a dense table, one bin at a time.

    ``bins`` picks the j to sum (default: all n_bins)."""
    t = np.linspace(0.0, t_max, g.size)
    j = np.arange(n_bins) if bins is None else np.asarray(bins)
    return np.array([g @ np.cos(t * tau) for tau in (j + 0.5) * (freq_max / n_bins)])


def chirp_z_cosine_sums(g, t_max, freq_max, n_bins):
    return _midpoint_cosine_sums(g, (t_max / (g.size - 1)) * (freq_max / n_bins), n_bins)


def exact_cos_sin(t, c):
    """cos(t c) and sin(t c) of the exact product t c = p + e (Dekker's
    two-product, Veltkamp split): cos p - e sin p and sin p + e cos p, within
    e**2 of them."""
    p = t * c

    def split(x):
        y = 134217729.0 * x  # 2**27 + 1
        head = y - (y - x)
        return head, x - head

    (t_head, t_tail), (c_head, c_tail) = split(t), split(c)
    e = ((t_head * c_head - p) + t_head * c_tail + t_tail * c_head) + t_tail * c_tail
    return math.cos(p) - e * math.sin(p), math.sin(p) + e * math.cos(p)


def plain_bochner_synthesis(mu, t):
    """Oracle: one t and one component at a time, 2 v 2 cos(t c) sin(t h) / t per bin.

    Every cosine and sine, of atoms and bins, is taken of the exact product,
    so the oracle carries no rounding of order |t c| eps.  sin(t h) / t is
    taken as h where |t h| < 1e-8, at which the two agree to rounding and the
    quotient would lose its digits to underflow.
    """
    locs, masses, edges, values = mu.positive_part()
    out = []
    for ti in t:
        terms = [mu.zero_atom] + [2.0 * m * exact_cos_sin(ti, loc)[0]
                                  for loc, m in zip(locs, masses)]
        for a, b, v in zip(edges[:-1], edges[1:], values):
            h = 0.5 * (b - a)
            ratio = h if abs(ti * h) < 1e-8 else exact_cos_sin(ti, h)[1] / ti
            terms.append(2.0 * v * 2.0 * exact_cos_sin(ti, 0.5 * (a + b))[0] * ratio)
        out.append(math.fsum(terms))
    return np.array(out)


@st.composite
def binned_measures(draw):
    """Measures with uniform or non-uniform bins, optional atoms and zero atom.

    Equal-width draws reach 4,500 bins, past the 2,048 of an inverted measure.
    """
    if draw(st.booleans()):
        n = draw(st.integers(1, 64) | st.integers(2000, 4500))
        # power-of-two width from a multiple of it: every width is equal in float
        width = 2.0 ** -draw(st.integers(0, 8))
        edges = (draw(st.integers(0, 64)) + np.arange(n + 1)) * width
    else:
        n = draw(st.integers(1, 64))
        gaps = draw(st.lists(st.floats(1e-3, 2.0), min_size=n, max_size=n))
        edges = draw(st.floats(0.0, 4.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    if n <= 64:
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    else:  # thousands of floats drawn one at a time would dominate the test
        values = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(0.0, 1.0, n)
    atoms = draw(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 1.0)),
                          max_size=3))
    return kb.SpectralMeasure(atoms=atoms, edges=edges, values=values)


class TestBochnerSynthesis:
    def test_unit_atom_at_zero_is_constant(self):
        mu = kb.SpectralMeasure(atoms=[(0.0, 1.0)])
        assert_allclose(kb.bochner_synthesis(mu, GRID), 1.0)

    def test_values_near_the_float_maximum_sum_as_their_scaled_copy(self):
        # two bins of 1e308 (mass 4e298): their sum passed the float range, and the
        # kernel read inf with a RuntimeWarning
        values = np.ldexp([1e308, 1e308], -1024)
        small = kb.SpectralMeasure(edges=[0.0, 1e-10, 2e-10], values=values)
        tall = kb.SpectralMeasure(edges=[0.0, 1e-10, 2e-10], values=np.ldexp(values, 1024))
        assert_array_equal(kb.bochner_synthesis(tall, GRID),
                           np.ldexp(kb.bochner_synthesis(small, GRID), 1024))

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
           t=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40).map(
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
        widths = np.diff(mu.bin_edges)
        assert (widths == widths[0]).all()
        t = np.concatenate([[0.0], np.random.default_rng(5).uniform(-6.0, 6.0, 300)])
        assert np.max(np.abs(kb.bochner_synthesis(mu, t) - plain_bochner_synthesis(mu, t))) \
            <= 1e-14 * max(mu.total_mass(), 1.0)


def equal_width_measure(n, seed):
    """n bins of one power-of-two width near 8/n from a multiple of it, as in
    an inverted measure, with random values."""
    rng = np.random.default_rng(seed)
    width = 2.0 ** -math.ceil(math.log2(max(n, 8) / 8.0))
    edges = (int(rng.integers(0, 64)) + np.arange(n + 1)) * width
    return kb.SpectralMeasure(edges=edges, values=rng.uniform(0.0, 1.0, n))


class TestOneSinePerWidth:
    """Bins of one width share one sine per t and take the split cosine sum."""

    @staticmethod
    def count_splits(monkeypatch):
        calls = []
        split = spectral._split_cosine_sums

        def counting(*args):
            calls.append(args[-1].size)
            return split(*args)

        monkeypatch.setattr(spectral, "_split_cosine_sums", counting)
        return calls

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 2047, 2048, 2049, 4099])
    def test_equal_widths_match_the_exact_oracle(self, monkeypatch, n):
        mu = equal_width_measure(n, seed=n)
        rng = np.random.default_rng(n + 1)
        t = np.concatenate([[0.0, 5e-324, -1e-300], rng.uniform(-6.0, 6.0, 30),
                            rng.uniform(-1e3, 1e3, 30), [1e3, -1e3]])
        calls = self.count_splits(monkeypatch)
        got = kb.bochner_synthesis(mu, t)
        assert calls == [n]
        assert np.max(np.abs(got - plain_bochner_synthesis(mu, t))) \
            <= 1e-14 * max(mu.total_mass(), 1.0)

    @pytest.mark.parametrize("t", [1e16, 1e300, -1e307])
    def test_huge_lags_stay_bounded(self, t):
        # the rest e of t c is then past 1/2, and e sin(t c) overflowed
        mu = kb.bochner_inversion(kb.zoo("cauchy")).measure
        assert abs(kb.bochner_synthesis(mu, t)) <= 4.0 * np.sum(mu.bin_values) / abs(t)

    def test_inverted_measure_has_one_width(self, monkeypatch):
        mu = kb.bochner_inversion(kb.zoo("gaussian")).measure
        widths = np.diff(mu.bin_edges)
        assert (widths == widths[0]).all()
        gamma, _ = kb.gamma_from_spectral(mu)
        calls = self.count_splits(monkeypatch)
        kb.bochner_synthesis(mu, [0.5, 1.5])
        kb.screw_synthesis(gamma, [0.5])
        assert calls == [2048] * 3  # k(t), then 2 D(0) - 2 D(t)

    @pytest.mark.parametrize("build, n", [(kb.gaussian_measure, 2000),
                                          (kb.laplacian_measure, 1000),
                                          (kb.cauchy_measure, 3000),
                                          (lambda n_bins: kb.bochner_inversion(
                                              kb.zoo("cauchy"),
                                              kb.InversionConfig(n_bins=n_bins)).measure,
                                           1000)],
                             ids=["gaussian-2000", "laplacian-1000", "cauchy-3000",
                                  "inverted-1000"])
    def test_built_measures_take_the_split_at_any_bin_count(self, monkeypatch, build, n):
        # linspace edges had 9 to 13 widths at these counts, and took the dense table
        mu = build(n_bins=n)
        calls = self.count_splits(monkeypatch)
        t = np.random.default_rng(n).uniform(-1e3, 1e3, 20)
        got = kb.bochner_synthesis(mu, t)
        assert calls == [n]
        assert np.max(np.abs(got - plain_bochner_synthesis(mu, t))) \
            <= 1e-14 * max(mu.total_mass(), 1.0)

    def test_unequal_widths_take_the_dense_table(self, monkeypatch):
        calls = self.count_splits(monkeypatch)
        kb.bochner_synthesis(kb.SpectralMeasure(edges=[0.0, 0.25, 0.75],
                                                values=[1.0, 1.0]), [0.5])
        assert calls == []

    @pytest.mark.parametrize("name", ["gaussian", "laplacian", "cauchy"])
    def test_a_lag_alone_agrees_with_the_batch(self, name):
        # the matrix products may round a row differently in another batch shape
        mu = kb.bochner_inversion(kb.zoo(name)).measure
        t = np.random.default_rng(12).uniform(-6.0, 6.0, 500)
        batch = kb.bochner_synthesis(mu, t)
        alone = np.array([kb.bochner_synthesis(mu, ti) for ti in t[::10]])
        assert np.max(np.abs(alone - batch[::10])) <= 1e-15 * max(mu.total_mass(), 1.0)


def atom_free(mu):
    return kb.SpectralMeasure(edges=mu.bin_edges, values=mu.bin_values)


def top_with_a_value(edges, values):
    """The top edge of the bins up to the last one with a value (of all, if none has)."""
    return edges[len(np.trim_zeros(values, "b")) or len(values)]


def small_lag_oracle(gamma, t):
    """Oracle: screw_synthesis(gamma, t) at 40 digits, for 2 |t| T <= 1/2, T the
    top edge of the bins up to the last with a value.

    Atoms are m sin^2(ts)/s^2 and constant-law bins t (F(t d) - F(t c)) with
    F(u) = Si(2u) - sin^2(u)/u.  An s^2-law bin, g int_c^d sin^2(ts) ds, is
    the Taylor series of sin^2 integrated term by term, g sum_k (-1)^(k+1)
    2^(2k-1) t^(2k) (d^(2k+1) - c^(2k+1)) / ((2k)! (2k+1)) (its closed form
    cancels to (t d)^2), whose moments are exact in integers: the edges and
    values over powers of two.  At 2 |t| T <= 1/2, 12 terms leave < 1e-33 of
    it, and fewer at smaller lags.
    """
    if not np.any(t):
        return np.zeros(np.shape(t))
    with mpmath.workdps(40):
        atoms = list(zip(map(mpmath.mpf, gamma.atom_locations),
                         map(mpmath.mpf, gamma.atom_masses)))
        bins, moments = [], []
        if gamma.law == "constant":
            edges = list(map(mpmath.mpf, gamma.bin_edges))
            bins = list(zip(edges[:-1], edges[1:], map(mpmath.mpf, gamma.bin_values)))
        elif gamma.bin_values.size:  # the bins past T add nothing
            top = top_with_a_value(gamma.bin_edges, gamma.bin_values)
            x = 2 * mpmath.mpf(np.max(np.abs(t))) * mpmath.mpf(top)
            (edge_ints, edge_scale), (value_ints, value_scale) = map(
                as_integers, (gamma.bin_edges[gamma.bin_edges <= top],
                              gamma.bin_values[gamma.bin_edges[1:] <= top]))
            for k in range(1, 13):
                p = 2 * k + 1
                powers = [n ** p for n in edge_ints]
                exact = sum(g * (d - c) for g, c, d in zip(value_ints, powers, powers[1:]))
                moments.append(mpmath.mpf(exact) / (value_scale * edge_scale ** p)
                               * 2 ** (2 * k - 1) / (mpmath.factorial(2 * k) * p))
                if x ** (2 * k) / mpmath.factorial(2 * k) < 1e-34 * x ** 2:
                    break  # the later terms are below 1e-33 of the first

        def antiderivative(u):
            return mpmath.si(2 * u) - mpmath.sin(u) ** 2 / u if u > 0 else mpmath.mpf(0)

        out = []
        for ti in map(mpmath.mpf, np.abs(t)):
            terms = [m * mpmath.sin(ti * s) ** 2 / s ** 2 for s, m in atoms]
            terms += [(-1) ** k * ti ** (2 * k + 2) * moment for k, moment in enumerate(moments)]
            terms += [g * ti * (antiderivative(ti * d) - antiderivative(ti * c))
                      for c, d, g in bins]
            out.append(float(mpmath.fsum(terms)))
    return np.array(out)


def as_integers(floats):
    """Integers n_i and one power of two N with floats_i = n_i / N exactly."""
    ratios = [x.as_integer_ratio() for x in map(float, floats)]
    scale = max(den for _, den in ratios)
    return [num * (scale // den) for num, den in ratios], scale


def bochner_identity(mu, t):
    """The two sides of screw(gamma(mu), t) = 2 k(0) - 2 k(t)."""
    gamma, _ = kb.gamma_from_spectral(mu)
    return (kb.screw_synthesis(gamma, t),
            2.0 * kb.bochner_synthesis(mu, 0.0) - 2.0 * kb.bochner_synthesis(mu, t))


class TestOneDensitySum:
    """s^2-law screw rows are the Bochner density sum of their spectral bins."""

    @settings(max_examples=1000, deadline=None)
    @given(mu=binned_measures().map(atom_free),
           t=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20).map(np.array))
    def test_identity_is_bit_exact_without_atoms(self, mu, t):
        # bit for bit past the small lags; below, 2 k(0) - 2 k(t) cancels to eps k(0),
        # and screw takes a series without cancellation: it meets the oracle instead
        screw, bochner = bochner_identity(mu, t)
        small = np.abs(t) * top_with_a_value(mu.bin_edges, mu.bin_values) <= spectral._SMALL_LAG
        assert_array_equal(screw[~small], bochner[~small])
        # relative where the value is a normal float
        assert_allclose(screw[small], small_lag_oracle(kb.gamma_from_spectral(mu)[0], t[small]),
                        rtol=1e-14, atol=np.finfo(float).tiny)

    @pytest.mark.parametrize("name", ["gaussian", "laplacian", "cauchy"])
    def test_identity_is_bit_exact_on_inverted_measures(self, name):
        mu = kb.bochner_inversion(kb.zoo(name)).measure
        assert mu.zero_atom == 0.0 and mu.atom_locations.size == 0
        t = np.concatenate([[0.0, 5e-324, -1e-310],
                            np.random.default_rng(6).uniform(-1e3, 1e3, 1000)])
        screw, bochner = bochner_identity(mu, t)
        assert_array_equal(screw, bochner)

    def test_constant_law_evaluates_each_edge_once(self, monkeypatch):
        rng = np.random.default_rng(21)
        n = 300
        edges = 0.05 + np.cumsum(rng.uniform(1e-3, 0.1, n + 1))
        gamma = kb.GammaMeasure(edges=edges, values=rng.uniform(0.0, 1.0, n))
        t = rng.uniform(-30.0, 30.0, 200)
        antiderivative = spectral._screw_antiderivative

        def per_bin(ts):  # both ends of every bin, and t pi/2 where only d is past 8
            (phi_c, high_c), (phi_d, high_d) = (antiderivative(ts, edges[:-1]),
                                                antiderivative(ts, edges[1:]))
            return (phi_d - phi_c + 0.5 * np.pi * ts[:, None] * (high_d & ~high_c)) \
                @ gamma.bin_values

        reference = spectral._row_sums(np.abs(t), n, per_bin)  # on the same chunks
        points = []

        def counting(ts, edges):
            points.append(ts.size * edges.size)
            return antiderivative(ts, edges)

        monkeypatch.setattr(spectral, "_screw_antiderivative", counting)
        assert_array_equal(kb.screw_synthesis(gamma, t), reference)
        assert sum(points) == (n + 1) * t.size


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

    # the last case has the finite spectral mass D(0) = 1e308, but 2 D(0) - 2 D(t) overflows
    @pytest.mark.parametrize("law, edges", [("constant", [1e-3, 1e300]),
                                            ("s2", [1e-3, 1e300]), ("s2", [0.0, 4.0])],
                             ids=["constant", "s2", "s2-doubling"])
    def test_overflow_rejected(self, law, edges):
        # used to give inf, with a RuntimeWarning from the row sums
        gamma = kb.GammaMeasure(edges=edges, values=[1e308], law=law)
        with pytest.raises(ValueError, match="overflows the float range"):
            kb.screw_synthesis(gamma, [0.5, 2.0])

    def test_even_and_zero_at_origin(self):
        for law in ("constant", "s2"):
            gamma = kb.GammaMeasure(atoms=[(0.7, 0.4)], edges=[0.2, 1.0], values=[0.3],
                                    law=law)
            assert kb.screw_synthesis(gamma, 0.0) == 0.0
            assert_allclose(kb.screw_synthesis(gamma, GRID),
                            kb.screw_synthesis(gamma, -GRID), rtol=1e-14)

    @staticmethod
    def constant_law_oracle(c, d, t):
        """t (F(t d) - F(t c)), F(u) = Si(2u) - sin^2(u)/u, at 60 digits."""
        with mpmath.workdps(60):
            t, c, d = mpmath.mpf(t), mpmath.mpf(c), mpmath.mpf(d)

            def antiderivative(u):
                return mpmath.si(2 * u) - mpmath.sin(u) ** 2 / u if u > 0 else mpmath.mpf(0)

            return float(t * (antiderivative(t * d) - antiderivative(t * c)))

    @settings(max_examples=300, deadline=None)
    @given(c=st.floats(-4.0, 4.0), span=st.floats(-6.0, 8.0), t=st.floats(-3.0, 15.0))
    @example(c=0.0, span=float(np.log10(3.0)), t=12.0)  # [1, 4]: 0.37503, not 0.375
    @example(c=0.0, span=float(np.log10(3.0)), t=14.0)  # 0.39968
    @example(c=-4.0, span=8.0, t=15.0)
    # a narrow bin at t c ~ 6 pi, where the value is near a zero of sin^2(t c):
    # 8.8e-13 relative with sici
    @example(c=float(np.log10(0.0029023)), span=float(np.log10(0.0029033 / 0.0029023 - 1)),
             t=float(np.log10(6466.2)))
    def test_constant_law_bin_matches_mpmath(self, c, span, t):
        # edges and lags log-uniform: c = 10**c, d = c (1 + 10**span), t = 10**t; the
        # bound is relative, or absolute at the scale min(t, 1/c) of Phi where the
        # bin value is small
        lo = 10.0 ** c
        hi = lo * (1.0 + 10.0 ** span)
        t = 10.0 ** t
        gamma = kb.GammaMeasure(edges=[lo, hi], values=[1.0])
        oracle = self.constant_law_oracle(lo, hi, t)
        assert abs(kb.screw_synthesis(gamma, t) - oracle) \
            <= max(5e-14 * hi / (hi - lo) * abs(oracle), 1e-14 * min(t, 1.0 / lo))

    @pytest.mark.parametrize("t", [1e16, 1e20, 1e50, 1e100, 1e200, 1e300, -1e300])
    def test_constant_law_reaches_its_limit(self, t):
        # the limit (1/c - 1/d)/2 of the bin [1, 4]; the cancelled form t (F(t d) - F(t c))
        # gives 0 from t = 1e16 on
        gamma = kb.GammaMeasure(edges=[1.0, 4.0], values=[1.0])
        assert abs(kb.screw_synthesis(gamma, t) - 0.375) <= 1e-15

    def test_constant_law_grows_like_the_absolute_value(self):
        # (2/pi) sin^2(ts)/s^2 on (0, S] gives |t| - 1/(pi S) + O(1/(t S^2))
        gamma = kb.GammaMeasure(edges=[0.0, 1e6], values=[2.0 / np.pi])
        t = np.array([1.0, 1e3, 1e6, 1e9, 1e12, 1e15, 1e300])
        assert_allclose(kb.screw_synthesis(gamma, -t), t - 1.0 / (np.pi * 1e6), rtol=1e-12)

    def test_constant_law_lag_overflow_rejected(self):
        gamma = kb.GammaMeasure(edges=[0.0, 2.0, 4.0], values=[1.0, 1.0])
        with pytest.raises(ValueError, match="a lag times a frequency overflows"):
            kb.screw_synthesis(gamma, [1.0, 1e308])

    @settings(max_examples=300, deadline=None)
    @given(gamma=gamma_measures(),
           exponents=st.lists(st.floats(-60.0, 0.0), min_size=1, max_size=6))
    def test_small_lags_match_mpmath(self, gamma, exponents):
        # lags up to |t| (top spectral edge) = 1/2, where the s^2-law rows take the
        # even-moment series
        top = 2.0 * top_with_a_value(gamma.bin_edges, gamma.bin_values) \
            if gamma.bin_edges.size else 1.0
        t = 0.5 / top * 10.0 ** np.array(exponents) * (-1.0) ** np.arange(len(exponents))
        value = kb.screw_synthesis(gamma, t)
        assert (value >= 0.0).all()
        assert_allclose(value, small_lag_oracle(gamma, t), rtol=1e-14)

    def test_small_lags_below_an_empty_top_bin_match_mpmath(self):
        # the threshold came from the top edge 1: past t = 0.25, 2 D(0) - 2 D(t)
        # read 14 zeros and steps of 8.3e-25, where d2 is ~2.3e-24 t^2
        gamma = kb.GammaMeasure(edges=[1e-8, 2e-8, 1.0], values=[1.0, 0.0], law="s2")
        t = np.linspace(0.25, 3.0, 400)
        value = kb.screw_synthesis(gamma, t)
        assert (value > 0.0).all()
        assert_allclose(value, small_lag_oracle(gamma, t), rtol=1e-14)

    def test_inverted_gaussian_is_accurate_at_small_lags(self):
        # 2 D(0) - 2 D(t) was negative at 816 of these lags, and read -4.4e-16 at
        # t = 1e-8 on gaussian_measure(), where d2 is 1e-16
        for mu in (kb.bochner_inversion(kb.zoo("gaussian")).measure, kb.gaussian_measure()):
            gamma, _ = kb.gamma_from_spectral(mu)
            t = np.logspace(-12.0, -2.0, 2001)
            value = kb.screw_synthesis(gamma, t)
            assert (value > 0.0).all()
            assert_allclose(value[::40], small_lag_oracle(gamma, t[::40]), rtol=1e-14)

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
                                             "ok": True, "tight": True,
                                             "margin": 4.0 * (1.0 + spectral.BOUND_RTOL) - 4.0}
        assert kb.bound_report(3.0, 1.0)["tight"] is False
        assert kb.bound_report(np.inf, 1.0)["ok"] is False
        for k0 in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                kb.bound_report(1.0, k0)

    @pytest.mark.parametrize("gamma", [
        kb.GammaMeasure(edges=[0.0, 1e4], values=[0.6366]),  # the |t| metric
        kb.GammaMeasure(atoms=[(1e-160, 1.0)])])  # integral 1e320
    @pytest.mark.parametrize("k0", [4.4e307, 4.5e307, 1e308])
    def test_an_infinite_integral_is_never_ok(self, gamma, k0):
        # from k0 = 4.5e307 on the bound 4 k0 reads inf, and inf <= inf was ok:
        # spectral_from_gamma then divided by a bin edge at 0
        assert kb.bound_report(kb.int_bound_integral(gamma), k0)["ok"] is False
        with pytest.raises(kb.UnboundedMetricError):
            kb.spectral_from_gamma(gamma, k0)

    def test_a_finite_integral_is_below_an_infinite_bound(self):
        # 4 k0 past the float range exceeds every finite integral, which never meets it
        assert kb.bound_report(1.0, 1e308) == {"integral": 1.0, "bound": np.inf,
                                               "ok": True, "tight": False, "margin": np.inf}

    @given(integral=st.floats(0.0) | st.sampled_from([np.inf, 4.0, 4.0 + 4e-12, 4.0 + 5e-12]),
           k0=st.floats(0.0, allow_infinity=False) | st.just(1.0))
    def test_margin_is_non_negative_exactly_when_ok(self, integral, k0):
        report = kb.bound_report(integral, k0)
        assert (report["margin"] >= 0.0) == report["ok"]
        assert report["margin"] == (-np.inf if integral == np.inf
                                    else 4.0 * k0 * (1.0 + spectral.BOUND_RTOL) - integral)


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

    def test_constant_law_bin_of_tiny_edges(self):
        # 16 c d underflowed to 0, and the value 3.125e98 read inf
        gamma = kb.GammaMeasure(edges=[1e-200, 2e-200], values=[1e-300])
        values = kb.spectral_from_gamma(gamma, k0=1.0).bin_values
        assert values.tolist() == [pytest.approx(3.125e98, rel=1e-15)]

    def test_constant_law_values_keep_their_bits(self):
        # taking the exponents out changes no value whose steps are normal floats
        rng = np.random.default_rng(5)
        edges = np.sort(10.0 ** rng.uniform(-150.0, 150.0, 401))
        g = 10.0 ** rng.uniform(-300.0, -160.0, 400)
        back = kb.spectral_from_gamma(kb.GammaMeasure(edges=edges, values=g), k0=1.0)
        with np.errstate(under="ignore"):
            den = 16.0 * edges[:-1] * edges[1:]
            plain = g / den
        normal = (den >= np.finfo(float).tiny) & (plain >= np.finfo(float).tiny)
        assert normal.sum() > 100
        assert_array_equal(back.bin_values[normal], plain[normal])

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
    @pytest.mark.parametrize("name", ["gaussian", "laplacian", "cauchy"])
    def test_a_finite_sum_keeps_its_bits(self, name):
        t = np.linspace(0.0, 200.0, 20001)
        assert kb.atom_at_zero(kb.zoo(name), 200.0) == np.trapezoid(kb.zoo(name)(t), t) / 200.0

    @pytest.mark.parametrize("value", [1e306, 1e308, np.finfo(float).max])
    def test_a_sum_past_the_float_range_is_taken_on_scaled_values(self, value):
        # the 20,001 trapezoids of a constant of 1e306 summed past the float range
        assert kb.atom_at_zero(kb.zoo("constant", value=value), 200.0) == \
            pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("name", ["constant", "gaussian", "laplacian", "cauchy"])
    def test_the_two_window_estimate(self, name):
        kernel = kb.zoo(name)
        full, half = kb.atom_at_zero(kernel, 200.0), kb.atom_at_zero(kernel, 100.0)
        assert spectral._estimate_zero_atom(kernel, 200.0, 0.01) == (2.0 * full - half,
                                                                     abs(full - half))

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

    @settings(max_examples=100, deadline=None)
    @given(n_bins=st.integers(1, 5000), blocks=st.integers(0, 3), shift=st.integers(-1, 1),
           t_max=st.floats(1e-2, 200.0), freq_max=st.floats(1e-2, 50.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n_bins=2048, blocks=8, shift=0, t_max=40.0, freq_max=8.0, seed=0)
    @example(n_bins=2049, blocks=2, shift=1, t_max=40.0, freq_max=8.0, seed=0)
    @example(n_bins=5000, blocks=0, shift=0, t_max=40.0, freq_max=8.0, seed=0)
    def test_blocks_match_dense_sum(self, n_bins, blocks, shift, t_max, freq_max, seed):
        # n at k L - 1, k L and k L + 1 for blocks of L samples, on both sides
        # of the least FFT length; blocks = 0 draws n below n_bins instead
        rng = np.random.default_rng(seed)
        block = spectral._block_fft_size(n_bins) - n_bins + 1
        n = max(2, blocks * block + shift if blocks else int(rng.integers(2, max(3, n_bins))))
        g = rng.standard_normal(n)
        fast = chirp_z_cosine_sums(g, t_max, freq_max, n_bins)
        assert fast.shape == (n_bins,)
        # every sample enters each bin's sum: the first and last bins and a
        # random draw of the others see every block
        bins = np.unique(np.r_[0:4, n_bins - 4:n_bins, rng.integers(0, n_bins, 24)] % n_bins)
        dense = dense_cosine_sums(g, t_max, freq_max, n_bins, bins)
        assert np.max(np.abs(fast[bins] - dense)) <= 1e-11 * np.sum(np.abs(g))

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
    @pytest.mark.parametrize("name", ["gaussian", "laplacian", "cauchy"])
    def test_a_density_near_the_float_maximum_scales_exactly(self, name):
        # at 2**1020 (~1e307) the unscaled transform overflowed inside its FFT, and
        # the inversion said the recovered density passed the float range
        kernel = kb.zoo(name)
        big = kb.KernelProfile(fn=lambda t: np.ldexp(kernel(t), 1020), name="big")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            measure, scaled = (kb.bochner_inversion(k).measure for k in (kernel, big))
        assert_array_equal(scaled.bin_edges, measure.bin_edges)
        assert_array_equal(scaled.bin_values, np.ldexp(measure.bin_values, 1020))
        assert_array_equal(scaled.atom_masses, np.ldexp(measure.atom_masses, 1020))

    @pytest.mark.parametrize("exponent", [-990, -600, 1, 9, 600, 1020])
    @pytest.mark.parametrize("name", ["gaussian", "laplacian", "cauchy"])
    def test_every_reading_scales_exactly_by_a_power_of_two(self, name, exponent):
        # the noise floor is relative to |k(0)|, and the transform is scaled only
        # when max |g| >= 2 (from 2**9 at the defaults): no bit moves either way
        kernel = kb.zoo(name)
        scaled = kb.KernelProfile(fn=lambda t: np.ldexp(kernel(t), exponent), name="scaled")
        base, result = (kb.bochner_inversion(k) for k in (kernel, scaled))
        assert_array_equal(result.measure.bin_values,
                           np.ldexp(base.measure.bin_values, exponent))
        assert_array_equal(result.measure.atom_masses,
                           np.ldexp(base.measure.atom_masses, exponent))
        for reading in ("atom0", "residual", "clamped_mass", "min_density", "mass_gap",
                        "atom_window_gap", "tail_gap"):
            assert getattr(result, reading) == np.ldexp(getattr(base, reading), exponent)
        assert result.nyquist_margin == base.nyquist_margin

    @pytest.mark.parametrize("j", [-20, -3, 1, 20])
    @pytest.mark.parametrize("name", ["gaussian", "laplacian", "cauchy"])
    def test_a_dilated_kernel_inverts_to_the_dilated_measure(self, name, j):
        # k(t / 2**j) has the measure with every frequency divided by 2**j; the
        # residual, read on [-5, 5] whatever t_max, read 1.3e-15 for the
        # gaussian at 2**20 against 4.7e-7 at 1
        a, unit = 2.0 ** j, kb.InversionConfig()
        config = dataclasses.replace(unit, t_max=unit.t_max * a, freq_max=unit.freq_max / a,
                                     atom_window=unit.atom_window * a,
                                     atom_step=unit.atom_step * a)
        base = kb.bochner_inversion(kb.zoo(name))
        result = kb.bochner_inversion(kb.zoo(name, scale=a), config)
        assert_array_equal(result.measure.bin_edges, base.measure.bin_edges / a)
        assert_array_equal(result.measure.bin_values, base.measure.bin_values * a)
        assert_array_equal(result.measure.atom_masses, base.measure.atom_masses)
        assert result.residual == base.residual

    @pytest.mark.parametrize("t_max", [1.0, 3.0, 8.0, 40.0])
    @pytest.mark.parametrize("name", ["gaussian", "laplacian", "cauchy"])
    def test_the_residual_is_read_on_the_sampled_lags(self, name, t_max):
        # the residual grid was [-5, 5] whatever t_max: samples up to t < 5
        # inverted, then failed as queried beyond their range
        t = np.linspace(0.0, t_max, 1201)
        samples = kb.profile_from_samples(t, kb.zoo(name)(t))
        config = kb.InversionConfig(t_max=t_max, n_samples=1201, atom_window=t_max)
        result = kb.bochner_inversion(samples, config)
        grid = kb.probe_grid(t_max / 8)
        if t_max == kb.InversionConfig().t_max:  # the 201 lags on [-5, 5] of the defaults
            assert_array_equal(grid, np.linspace(-5.0, 5.0, 201))
        assert result.residual == np.max(np.abs(kb.bochner_synthesis(result.measure, grid)
                                                - samples(grid)))

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
        assert -5e-4 < result.min_density < -2.0 * spectral.CLAMP_RTOL
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

    @pytest.mark.parametrize("field", ["n_samples", "n_bins"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", np.nan])
    def test_config_rejects_non_integer_sizes(self, field, value):
        with pytest.raises(ValueError):
            kb.InversionConfig(**{field: value})

    @pytest.mark.parametrize("field", ["t_max", "freq_max", "atom_window", "atom_step"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, None, True, 1j])
    def test_config_rejects_non_finite_reals(self, field, value):
        with pytest.raises(ValueError):
            kb.InversionConfig(**{field: value})

    @pytest.mark.parametrize("t_max, n_samples", [(5e-324, 65), (4.9e-324, 3),
                                                  (2.2250738585072014e-308, 3)])
    def test_config_rejects_a_step_below_the_normal_floats(self, t_max, n_samples):
        # a step of 0 ended invert in a ZeroDivisionError at the Nyquist margin pi / dt
        with pytest.raises(ValueError, match="^the sampling step t_max / "
                                             r"\(n_samples - 1\) must be a normal float"):
            kb.InversionConfig(t_max=t_max, n_samples=n_samples)
        config = kb.InversionConfig(t_max=2.2250738585072014e-308, n_samples=2, n_bins=2)
        assert np.isfinite(kb.bochner_inversion(kb.zoo("gaussian"), config).nyquist_margin)

    def test_config_accepts_numpy_scalars(self):
        config = kb.InversionConfig(t_max=np.float64(20.0), n_samples=np.int64(101),
                                    n_bins=np.int32(16))
        assert config.n_samples == 101

    def test_health_readings_name_the_missing_tail(self):
        # the laplacian's spectral density 1/(pi (1 + tau^2)) has mass
        # (2/pi) atan 8 below freq_max = 8; the rest is the residual at t = 0
        result = kb.bochner_inversion(kb.zoo("laplacian"))
        tail = 1.0 - (2.0 / np.pi) * np.arctan(8.0)
        assert abs(result.mass_gap - tail) <= 1e-4
        assert_allclose(result.mass_gap, 1.0 - result.measure.total_mass(), rtol=1e-15)
        config = kb.InversionConfig()
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
        config = kb.InversionConfig(t_max=2.0, n_samples=801)
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
    def traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @classmethod
    def assert_rejected_without_allocating(cls, call):
        def rejected():
            with pytest.raises(ValueError, match="budget"):
                call()
        assert cls.traced_peak(rejected) < 2 ** 20

    def test_budget_edge(self):
        kb.check_elements(MAX_ELEMENTS, "at the budget")
        with pytest.raises(ValueError, match="budget"):
            kb.check_elements(MAX_ELEMENTS + 1, "over the budget")

    @pytest.mark.parametrize("sizes", [{"n_samples": 200001}, {"n_bins": 8192}])
    def test_inversion_estimate_bounds_its_traced_peak(self, sizes):
        # per sample the lags, the values and one temporary; per slot of the
        # block FFT 16 floats: the complex buffer, filter and chirp tables
        config = kb.InversionConfig(**sizes)
        estimate = 3 * config.n_samples + 16 * spectral._block_fft_size(config.n_bins)
        peak = self.traced_peak(lambda: kb.bochner_inversion(kb.zoo("gaussian"), config))
        assert peak <= 8 * estimate

    def test_default_inversion_peak(self):
        # one 4096-long complex buffer serves every block of samples; one
        # transform over all 16,001 samples would take 32,768-long buffers
        assert spectral._block_fft_size(kb.InversionConfig().n_bins) == 4096
        assert self.traced_peak(lambda: kb.bochner_inversion(kb.zoo("gaussian"))) < 2 * 2 ** 20

    @pytest.mark.parametrize("sizes", [{"n_samples": 10 ** 12}, {"n_bins": MAX_ELEMENTS},
                                       {"n_samples": (MAX_ELEMENTS - 16 * 4096) // 3 + 1,
                                        "n_bins": 2}])
    def test_inversion_config(self, sizes):
        self.assert_rejected_without_allocating(lambda: kb.InversionConfig(**sizes))

    def test_largest_inversion_within_budget_is_accepted(self):
        kb.InversionConfig(n_samples=(MAX_ELEMENTS - 16 * 4096) // 3, n_bins=2048)

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
