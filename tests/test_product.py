"""Separable kernels on R^d and factored product measures."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kernelbridge as kb


class TestSeparableEval:
    def test_two_gaussian_factors(self):
        kernel = kb.SeparableKernel(factors=(kb.zoo("gaussian"), kb.zoo("gaussian")))
        value = kb.separable_eval(kernel, [0.0, 0.0], [1.0, 1.0])
        assert_allclose(value, np.exp(-1.0), rtol=1e-14)

    def test_three_laplacian_factors(self):
        kernel = kb.SeparableKernel(factors=tuple(kb.zoo("laplacian") for _ in range(3)))
        value = kb.separable_eval(kernel, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert_allclose(value, np.exp(-3.0), rtol=1e-14)

    def test_diagonal_value(self):
        kernel = kb.SeparableKernel(factors=(kb.zoo("cauchy"), kb.zoo("constant")))
        x = np.array([0.3, -1.2])
        assert_allclose(kb.separable_eval(kernel, x, x), 2.0 * 1.0, rtol=1e-14)

    def test_dimension_mismatch(self):
        kernel = kb.SeparableKernel(factors=(kb.zoo("gaussian"),))
        with pytest.raises(ValueError):
            kb.separable_eval(kernel, [0.0, 1.0], [0.0, 1.0])

    @pytest.mark.parametrize("record", [kb.SeparableKernel, kb.ProductSpectralMeasure])
    def test_empty_factors_rejected(self, record):
        with pytest.raises(ValueError, match="^need at least one factor$"):
            record(factors=())

    def test_factors_are_a_tuple(self):
        kernel = kb.SeparableKernel(factors=[kb.zoo("gaussian")] * 2)
        measure = kb.ProductSpectralMeasure(factors=[kb.cosine_measure()] * 3)
        assert (type(kernel.factors), kernel.dim) == (tuple, 2)
        assert (type(measure.factors), measure.dim) == (tuple, 3)


class TestProductSpectralMeasure:
    def test_overflowing_total_mass_rejected(self):
        # each factor holds 2e200, the product 1.6e801
        factor = kb.SpectralMeasure(edges=[0.0, 1e100], values=[1e100])
        assert kb.ProductSpectralMeasure(factors=(factor,)).total_mass() == 2e200
        with pytest.raises(ValueError, match="product measure total mass overflows"):
            kb.ProductSpectralMeasure(factors=(factor,) * 4)


class TestProductSynthesis:
    def test_all_zero_atoms(self):
        m = kb.ProductSpectralMeasure(factors=(kb.constant_measure(),
                                               kb.constant_measure()))
        assert kb.product_synthesis(m, [3.0, -4.0]) == 1.0

    def test_cosine_factors(self):
        m = kb.ProductSpectralMeasure(factors=(kb.cosine_measure(),
                                               kb.cosine_measure()))
        t = np.array([0.7, -1.1])
        assert_allclose(kb.product_synthesis(m, t), np.cos(0.7) * np.cos(-1.1),
                        rtol=1e-14)

    def test_gaussian_factors_quadrature(self):
        m = kb.ProductSpectralMeasure(factors=(kb.gaussian_measure(),
                                               kb.gaussian_measure()))
        t = np.array([1.0, 0.5])
        assert_allclose(kb.product_synthesis(m, t),
                        np.exp(-(1.0 + 0.25) / 2.0), atol=2e-6)

    def test_factorization_exactness(self):
        # guards the factored evaluation against future refactors
        factors = (kb.gaussian_measure(n_bins=128), kb.cosine_measure(),
                   kb.constant_measure(0.5))
        m = kb.ProductSpectralMeasure(factors=factors)
        t = np.array([0.3, 1.7, -2.0])
        direct = 1.0
        for factor, ti in zip(factors, t):
            direct *= kb.bochner_synthesis(factor, float(ti))
        assert abs(kb.product_synthesis(m, t) - direct) <= 1e-14

    def test_rows_match_per_row_calls(self):
        factors = (kb.bochner_inversion(kb.zoo("cauchy")).measure, kb.cosine_measure(),
                   kb.gaussian_measure(n_bins=128))
        m = kb.ProductSpectralMeasure(factors=factors)
        lags = np.random.default_rng(3).uniform(-6.0, 6.0, (300, 3))
        lags[0] = 0.0
        batched = kb.product_synthesis(m, lags)
        assert batched.shape == (300,)
        per_row = np.array([kb.product_synthesis(m, row) for row in lags])
        assert np.max(np.abs(batched - per_row)) <= 1e-14 * max(m.total_mass(), 1.0)

    def test_one_lag_vector_is_a_float(self):
        m = kb.ProductSpectralMeasure(factors=(kb.cosine_measure(),))
        for t in (0.5, [0.5], np.array([0.5])):
            value = kb.product_synthesis(m, t)
            assert type(value) is float
            assert_allclose(value, np.cos(0.5), rtol=1e-14)
        assert kb.product_synthesis(m, [[0.5]]).shape == (1,)

    @pytest.mark.parametrize("lags", [np.zeros((4, 2)), np.zeros((4, 4)), np.zeros(2),
                                      np.zeros((2, 4, 3)), [[0.0, np.nan, 1.0]],
                                      [[0.0, 1.0, 2.0], [np.inf, 0.0, 0.0]]])
    def test_rejects_bad_lags(self, lags):
        m = kb.ProductSpectralMeasure(factors=(kb.cosine_measure(),) * 3)
        with pytest.raises(ValueError):
            kb.product_synthesis(m, lags)

    def test_total_mass_is_product(self):
        m = kb.ProductSpectralMeasure(factors=(kb.constant_measure(2.0),
                                               kb.cosine_measure()))
        assert m.total_mass() == 2.0 * 1.0

    def test_json_round_trip(self):
        m = kb.ProductSpectralMeasure(factors=(kb.cosine_measure(),
                                               kb.gaussian_measure(n_bins=16)))
        again = kb.ProductSpectralMeasure.from_dict(m.to_dict())
        assert again.factors[0] == m.factors[0]
        assert again.factors[1] == m.factors[1]

    @pytest.mark.parametrize("data", [{"factors": 3}, {"factors": None}, {}, [1, 2],
                                      {"factors": []}, {"factors": [[1, 2]]},
                                      {"factors": [{"atoms": [1]}]}])
    def test_malformed_layouts_raise_value_error(self, data):
        with pytest.raises(ValueError):
            kb.ProductSpectralMeasure.from_dict(data)


class TestSeparableInversionConsistency:
    @pytest.mark.parametrize("name,dim", [("gaussian", 2), ("cauchy", 2),
                                          ("laplacian", 2)])
    def test_matches_per_factor_inversions(self, name, dim):
        profile = kb.zoo(name)
        inversion = kb.bochner_inversion(profile)
        # per-factor errors enter multiplied by the other factors' values
        budget = dim * profile.k0 ** (dim - 1) * (inversion.residual + 1e-6)
        measure = kb.ProductSpectralMeasure(factors=(inversion.measure,) * dim)
        kernel = kb.SeparableKernel(factors=(profile,) * dim)
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(40):
            x = rng.uniform(-3, 3, dim)
            y = rng.uniform(-3, 3, dim)
            direct = kb.separable_eval(kernel, x, y)
            synth = kb.product_synthesis(measure, x - y)
            worst = max(worst, abs(direct - synth))
        assert worst <= budget

    def test_psd_in_higher_dimensions(self):
        rng = np.random.default_rng(32)
        for name in ("gaussian", "laplacian", "cauchy"):
            for d in (1, 2, 3):
                kernel = kb.SeparableKernel(factors=tuple(kb.zoo(name)
                                                          for _ in range(d)))
                n = int(rng.integers(2, 9))
                pts = rng.uniform(-3, 3, (n, d))
                entries = np.empty((n, n))
                for i in range(n):
                    for j in range(n):
                        entries[i, j] = kb.separable_eval(kernel, pts[i], pts[j])
                assert kb.is_positive_definite(entries).verdict
