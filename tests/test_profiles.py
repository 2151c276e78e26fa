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

    # inf made the constant kernel 1, nan constructed, and True read as 1.0
    @pytest.mark.parametrize("name, key", [("gaussian", "scale"), ("laplacian", "scale"),
                                           ("cauchy", "scale"), ("cosine", "omega"),
                                           ("constant", "value")])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, True, False, None, "2",
                                       10 ** 400],
                             ids=["inf", "-inf", "nan", "True", "False", "None", "str",
                                  "int-past-float"])
    def test_parameters_must_be_finite_numbers(self, name, key, value):
        with pytest.raises(ValueError, match=f"kernel param '{key}' must be a finite number"):
            kb.zoo(name, **{key: value})

    def test_parameters_take_numpy_and_integer_numbers(self):
        assert kb.zoo("gaussian", scale=np.float32(2.0)).params == {"scale": 2.0}
        assert kb.zoo("cosine", omega=3).params == {"omega": 3.0}

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

    def test_terms_near_the_float_maximum_are_halved_before_the_sum(self):
        # (1e308 + 1e308 - 1e308) / 2 read inf with a RuntimeWarning
        d2 = kb.MetricProfile(fn=lambda t: np.where(t == 0, 0.0, 1e308))
        assert kb.kernel_from_metric(d2)(1.0, 2.0) == 5e307

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


class TestBivariateKernel:
    def test_a_non_finite_value_names_its_first_argument(self):
        # a NaN from the user's function was returned as it came
        K = kb.BivariateKernel(fn=lambda x, y: np.where(x > 1, np.nan, x * y), name="xy")
        with pytest.raises(kb.EvaluationError,
                           match=r"^kernel 'xy' evaluated to a non-finite value at t=2\.0$") \
                as info:
            K([0.5, 2.0, 3.0], 1.0)
        assert info.value.argument == 2.0

    def test_a_value_its_argument_cannot_broadcast_to_names_no_argument(self):
        K = kb.BivariateKernel(fn=lambda x, y: np.array([np.nan, 1.0]), name="two")
        with pytest.raises(kb.EvaluationError,
                           match=r"^kernel 'two' evaluated to a non-finite value at t=nan$") \
                as info:
            K([0.5, 2.0, 3.0], 1.0)
        assert np.isnan(info.value.argument)

    def test_arguments_must_be_real_numbers(self):
        K = kb.BivariateKernel(fn=lambda x, y: x * y, name="xy")
        with pytest.raises(ValueError, match="^the arguments of kernel 'xy' must be real numbers$"):
            K(1.0, "a")


class TestProfileRecords:
    def test_kernel_and_metric_profiles_differ_by_kind(self):
        def fn(t):
            return np.exp(-np.abs(t))

        kernel, metric = kb.KernelProfile(fn, "e"), kb.MetricProfile(fn, "e")
        assert kernel != metric and kernel == kb.KernelProfile(fn, "e")
        assert repr(metric).startswith("MetricProfile(fn=")
        assert kernel.descriptor() == metric.descriptor() == {"name": "e", "params": {}}
        for profile, noun in ((kernel, "kernel"), (metric, "metric")):
            with pytest.raises(kb.EvaluationError, match=f"^{noun} profile 'e' evaluated"):
                profile(np.nan)


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

    def test_a_violation_past_the_float_range_is_rejected(self):
        # 1e308 - (-1e308) read worst_violation=inf with a RuntimeWarning
        K = kb.BivariateKernel(fn=lambda x, y: np.where(x > 0, 1e308, -1e308))
        with pytest.raises(ValueError, match="^the translation-invariance violation "
                                             "overflows the float range$"):
            kb.check_translation_invariance(K, [(-1.0, 0.0, 2.0)])
        assert kb.check_translation_invariance(K, [(1.0, 0.0, 2.0)]).worst_violation == 0.0

    def test_a_shift_past_the_float_range_is_rejected(self):
        K = kb.BivariateKernel(fn=lambda x, y: np.cos(x - y))
        with pytest.raises(ValueError, match="^a shifted probe overflows the float range$"):
            kb.check_translation_invariance(K, [(1e308, 0.0, 1e308)])


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

    @pytest.mark.parametrize("t, values", [([0.0, 1.0], [1.0]), ([0.0], [1.0]),
                                           ([[0.0, 1.0]], [[1.0, 0.5]])])
    def test_mismatched_or_single_samples_rejected(self, t, values):
        with pytest.raises(ValueError,
                           match="^need matching 1-d arrays with at least two samples$"):
            kb.profile_from_samples(t, values)

    def test_samples_further_apart_than_the_float_maximum(self):
        # np.interp's slope (1e308 + 1.5e308) / 5 passed the float range
        profile = kb.profile_from_samples([0.0, 5.0, 200.0], [-1.5e308, 1e308, 1e308])
        assert_allclose(profile([0.01, 2.5, 5.0, 100.0]), [-1.495e308, -2.5e307, 1e308, 1e308],
                        rtol=1e-15)

    def test_halves_changing_faster_than_the_float_maximum(self):
        # the halves change by 9e307 / 0.5 per unit t: np.interp's slope passed the
        # float range, and points there are (1 - w) a + w b of the two neighbours
        t, values = [0.0, 0.5, 1.2, 200.0], [-9e307, 9e307, 0.0, 0.0]
        profile = kb.profile_from_samples(t, values)
        assert_allclose(profile([0.01, 0.25, -0.25, 0.5]), [-8.64e307, 0.0, 0.0, 9e307],
                        rtol=1e-15, atol=0.0)
        assert profile(0.01) == profile([0.01])[0]
        finite = [0.6, 1.0, 100.0]  # np.interp's bits where its slope is finite
        assert (profile(finite) == 2.0 * np.interp(finite, t, 0.5 * np.array(values))).all()

    @pytest.mark.parametrize("t, values, u, value", [
        # samples 1e-310 apart: the slope passes the float range
        ([0.0, 1e-310, 1.0], [0.0, 1.0, 1.0], 0.75e-310, 0.75),
        # a slope below the normal floats: np.interp read 1e-200
        ([0.0, 1e200], [1e-200, 0.0], 5e199, 5e-201),
        # samples far below the largest, far apart: scaled below 1, their slope is too
        ([0.0, 4.6e-49, 2.2e124, 2e292], [-1e-201, 1.3e231, 5.1e194, 3.4e102], 5e291,
         3.825e194)])
    def test_points_where_the_slope_is_not_a_normal_float(self, t, values, u, value):
        profile = kb.profile_from_samples(t, values)
        assert profile(u) == pytest.approx(value, rel=1e-9)
        assert profile([u, t[1]]).tolist() == [profile(u), values[1]]

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            kb.profile_from_samples([-1.0, 0.0, 1.0], [0.5, 1.0, 0.5])

    # an inf t made up a flat tail between the last finite sample and inf
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("column", ["t", "value"])
    def test_non_finite_samples_rejected(self, column, bad):
        t, values = np.array([0.0, 0.5, 1.0, 2.0]), np.array([1.0, 0.8, 0.5, 0.2])
        (t if column == "t" else values)[-1] = bad
        with pytest.raises(ValueError, match="samples must be finite"):
            kb.profile_from_samples(t, values)
