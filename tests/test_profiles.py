"""Profiles: the kernel zoo, the kernel <-> metric bridge, invariance checks."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kernelbridge as kb

GRID = kb.probe_grid()
ZOO_PSD = ["gaussian", "laplacian", "cauchy", "cosine", "constant"]


class TestZoo:
    def test_gaussian_at_zero(self):
        assert kb.zoo("gaussian")(0.0) == 1.0

    def test_cauchy_at_zero(self):
        assert kb.zoo("cauchy")(0.0) == 2.0

    def test_laplacian_at_one(self):
        assert_allclose(kb.zoo("laplacian")(1.0), np.exp(-1.0), rtol=1e-15)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            kb.zoo("sinc")

    def test_bad_parameter_name(self):
        with pytest.raises(ValueError):
            kb.zoo("gaussian", bandwidth=2.0)

    def test_evaluate_hides_numpy_warnings_on_finite_values(self):
        # (1e300)**2 overflows inside the gaussian; the value, 0, is finite
        assert kb.zoo("gaussian")(np.array([0.0, 1e300])).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("name,params", [
        ("gaussian", {"scale": -1.0}),
        ("laplacian", {"scale": 0.0}),
        ("cosine", {"omega": 0.0}),
        ("constant", {"value": -0.5}),
    ])
    def test_invalid_parameters(self, name, params):
        with pytest.raises(ValueError):
            kb.zoo(name, **params)

    @pytest.mark.parametrize("name", ZOO_PSD)
    def test_evenness_on_probe_grid(self, name):
        k = kb.zoo(name)
        assert np.max(np.abs(k(GRID) - k(-GRID))) <= 1e-12

    @pytest.mark.parametrize("name", ZOO_PSD)
    def test_bounded_by_value_at_zero(self, name):
        k = kb.zoo(name)
        assert np.all(np.abs(k(GRID)) <= k.k0 + 1e-12)

    def test_descriptor_round_trip(self):
        k = kb.zoo("gaussian", scale=2.0)
        d = k.descriptor()
        k2 = kb.zoo(d["name"], **d["params"])
        assert_allclose(k2(GRID), k(GRID), rtol=1e-15)


class TestMetricFromKernel:
    def test_gaussian(self):
        d2 = kb.metric_from_kernel(kb.zoo("gaussian"))
        assert d2(0.0) == 0.0
        assert_allclose(d2(1.0), 2.0 - 2.0 * np.exp(-0.5), rtol=1e-15)

    def test_cosine_at_pi(self):
        d2 = kb.metric_from_kernel(kb.zoo("cosine"))
        assert_allclose(d2(np.pi), 4.0, rtol=1e-15)

    def test_constant_kernel_gives_zero_metric(self):
        d2 = kb.metric_from_kernel(kb.zoo("constant"))
        assert np.max(np.abs(d2(GRID))) == 0.0

    @pytest.mark.parametrize("name", ZOO_PSD)
    def test_metric_profile_invariants(self, name):
        d2 = kb.metric_from_kernel(kb.zoo(name))
        vals = d2(GRID)
        assert d2(0.0) == 0.0
        assert np.max(np.abs(vals - d2(-GRID))) <= 1e-12
        assert np.min(vals) >= -1e-12


class TestKernelFromMetric:
    def test_squared_distance_gives_inner_product(self):
        d2 = kb.MetricProfile(fn=lambda t: t ** 2, name="t^2")
        K = kb.kernel_from_metric(d2)
        xs = np.linspace(-3, 3, 13)
        x, y = np.meshgrid(xs, xs)
        assert_allclose(K(x, y), x * y, atol=1e-12)

    def test_zero_metric(self):
        d2 = kb.MetricProfile(fn=lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        K = kb.kernel_from_metric(d2)
        assert K(1.3, -2.0) == 0.0

    def test_cosine_metric_pointwise(self):
        d2 = kb.metric_from_kernel(kb.zoo("cosine"))
        K = kb.kernel_from_metric(d2)
        assert_allclose(K(np.pi / 2, np.pi / 2), 2.0, rtol=1e-14)
        # K(x, x) recovers d2(x) for any base-pointed kernel
        xs = np.linspace(-4, 4, 21)
        assert_allclose(K(xs, xs), d2(xs), atol=1e-13)

    def test_nonvanishing_metric_rejected(self):
        bad = kb.MetricProfile(fn=lambda t: t ** 2 + 1.0)
        with pytest.raises(ValueError, match="vanish"):
            kb.kernel_from_metric(bad)

    def test_configurable_base_point(self):
        d2 = kb.MetricProfile(fn=lambda t: t ** 2)
        K = kb.kernel_from_metric(d2, base=1.0)
        # (x-1)(y-1) is the inner product centered at 1
        assert_allclose(K(2.0, 3.0), 2.0, atol=1e-14)

    def test_round_trip_discrepancy_identity(self):
        # kernel_from_metric(metric_from_kernel(k))(x, y)
        #     == k(x - y) - k(x) - k(y) + k(0)
        xs = np.linspace(-5, 5, 11)
        x, y = np.meshgrid(xs, xs)
        for name in ZOO_PSD:
            k = kb.zoo(name)
            K = kb.kernel_from_metric(kb.metric_from_kernel(k))
            expected = k(x - y) - k(x) - k(y) + k.k0
            assert_allclose(K(x, y), expected, atol=1e-12)


class TestTranslationInvariance:
    def test_inner_product_is_not_invariant(self):
        K = kb.BivariateKernel(fn=lambda x, y: x * y)
        report = kb.check_translation_invariance(K, [(0.0, 0.0, 1.0)])
        assert not report.invariant
        assert report.worst_violation == 1.0  # K(1,1) - K(0,0)

    def test_cosine_difference_kernel(self):
        K = kb.BivariateKernel(fn=lambda x, y: np.cos(x - y))
        report = kb.check_translation_invariance(K, kb.grid_probes())
        assert report.invariant

    def test_base_pointed_cosine_kernel_is_not_invariant(self):
        # a metric born translation invariant does not hand its invariance
        # to the base-pointed kernel; only k(0) - d2(t)/2 would be invariant
        d2 = kb.metric_from_kernel(kb.zoo("cosine"))
        K = kb.kernel_from_metric(d2)
        report = kb.check_translation_invariance(K, kb.grid_probes())
        assert not report.invariant
        x, y, s = report.worst_probe
        direct = abs(float(K(x + s, y + s)) - float(K(x, y)))
        assert_allclose(direct, report.worst_violation, rtol=1e-12)

    def test_lifted_metric_is_invariant(self):
        d2 = kb.metric_from_kernel(kb.zoo("cosine"))
        report = kb.check_translation_invariance(kb.lift_metric(d2), kb.grid_probes())
        assert report.invariant

    def test_empty_probes_rejected(self):
        K = kb.BivariateKernel(fn=lambda x, y: x * y)
        with pytest.raises(ValueError):
            kb.check_translation_invariance(K, [])


class TestFiniteSampleBridge:
    @pytest.mark.parametrize("name", ZOO_PSD)
    def test_zoo_metrics_are_negative_definite(self, name):
        d2 = kb.metric_from_kernel(kb.zoo(name))
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            pts = rng.uniform(-5, 5, n)
            matrix = d2(pts[:, None] - pts[None, :])
            assert kb.is_negative_definite(matrix).verdict

    @pytest.mark.parametrize("name", ZOO_PSD)
    def test_zoo_grams_are_positive_definite(self, name):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            pts = rng.uniform(-5, 5, n)
            gram = kb.build_gram(kb.zoo(name), pts)
            assert kb.is_positive_definite(gram).verdict


class TestSampledProfiles:
    def test_interpolates_and_is_even(self):
        t = np.linspace(0, 5, 501)
        profile = kb.profile_from_samples(t, np.exp(-t))
        assert_allclose(profile(-2.0), profile(2.0))
        assert_allclose(profile(1.5), np.exp(-1.5), atol=1e-4)

    def test_out_of_range_rejected(self):
        profile = kb.profile_from_samples([0.0, 1.0], [1.0, 0.5])
        with pytest.raises(kb.EvaluationError):
            profile(1.5)

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            kb.profile_from_samples([-1.0, 0.0, 1.0], [0.5, 1.0, 0.5])
