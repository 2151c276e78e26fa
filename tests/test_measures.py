"""Measure storage: validation, mass accounting, serialization, closed forms."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import kernelbridge as kb
from kernelbridge.measures import MAX_ELEMENTS, frequency_grid

BUILDERS = (kb.gaussian_measure, kb.laplacian_measure, kb.cauchy_measure)


class TestValidation:
    def test_negative_atom_mass_rejected(self):
        with pytest.raises(ValueError):
            kb.SpectralMeasure(atoms=[(1.0, -0.1)])

    def test_negative_atom_location_rejected(self):
        with pytest.raises(ValueError):
            kb.SpectralMeasure(atoms=[(-1.0, 0.1)])

    def test_gamma_rejects_atom_at_zero(self):
        with pytest.raises(ValueError, match="no discrete component at 0"):
            kb.GammaMeasure(atoms=[(0.0, 1.0)])

    def test_nonincreasing_edges_rejected(self):
        with pytest.raises(ValueError):
            kb.SpectralMeasure(edges=[0.0, 1.0, 1.0], values=[0.5, 0.5])

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            kb.SpectralMeasure(edges=[0.0, 1.0], values=[-0.5])

    def test_edge_value_count_mismatch(self):
        with pytest.raises(ValueError):
            kb.SpectralMeasure(edges=[0.0, 1.0, 2.0], values=[0.5])

    def test_negative_edge_rejected(self):
        with pytest.raises(ValueError):
            kb.GammaMeasure(edges=[-1.0, 1.0], values=[0.5])

    def test_unknown_density_law_rejected(self):
        with pytest.raises(ValueError, match="law"):
            kb.GammaMeasure(edges=[0.0, 1.0], values=[0.5], law="s3")
        # a spectral density is always held constant per bin
        with pytest.raises(ValueError, match="law"):
            kb.SpectralMeasure.from_dict(
                {"density": {"edges": [0.0, 1.0], "values": [0.5], "law": "s2"}})

    @pytest.mark.parametrize("atoms, edges, values", [
        ((), [0.0, 1e300], [1e300]),  # one bin of mass 2e600
        ([(0.0, 1e308), (1.0, 1e308)], (), ()),  # finite atoms, mass 3e308
        ((), [0.0, 1.0, 2.0], [1e308, 1e308]),  # finite bin masses, sum 4e308
    ])
    def test_overflowing_total_mass_rejected(self, atoms, edges, values):
        # a Bochner measure is finite; its mass used to read as inf
        with pytest.raises(ValueError, match="total mass overflows"):
            kb.SpectralMeasure(atoms=atoms, edges=edges, values=values)


@pytest.mark.parametrize("cls", [kb.SpectralMeasure, kb.GammaMeasure])
@pytest.mark.parametrize("data", [
    [1, 2], "measure", 3, None,
    {"atoms": [1, 2]}, {"atoms": {"loc": 1.0}}, {"atoms": None},
    {"atoms": [{"loc": "1", "mass": 0.5}]}, {"atoms": [{"loc": 1.0}]},
    {"atoms": [{"loc": [1.0], "mass": 0.5}]}, {"atoms": [{"loc": True, "mass": 0.5}]},
    {"atoms": [{"loc": 10 ** 400, "mass": 0.5}]},
    {"density": {"edges": [0.0, 10 ** 400], "values": [0.5]}},
    {"density": [0.0, 1.0]}, {"density": []}, {"density": 0}, {"density": None},
    {"density": ""}, {"density": {"edges": 1.0, "values": []}},
    {"density": {"edges": [0.0, 1.0], "values": [[0.5]]}},
    {"density": {"edges": [0.0, [1.0]], "values": [0.5]}},
    {"density": {"edges": [0.0, "1"], "values": [0.5]}},
    {"density": {"edges": [0.0, None], "values": [0.5]}},
    {"density": {"edges": [0.0, 1.0], "values": [True]}},
    {"density": {"edges": {"a": 1}, "values": [0.5]}},
    {"density": {"edges": [0.0, 1.0], "values": [0.5], "law": ["s2"]}},
])
def test_malformed_layouts_raise_value_error(cls, data):
    with pytest.raises(ValueError):
        cls.from_dict(data)


class TestMassAccounting:
    def test_total_mass_matches_synthesis_at_zero(self):
        mu = kb.SpectralMeasure(atoms=[(0.0, 0.3), (2.0, 0.2)],
                                edges=[0.0, 1.0, 3.0], values=[0.1, 0.05])
        k0 = kb.bochner_synthesis(mu, 0.0)
        assert abs(k0 - mu.total_mass()) <= 1e-10 * max(abs(k0), 1.0)

    def test_zero_atom_mass(self):
        mu = kb.SpectralMeasure(atoms=[(0.0, 0.25), (1.0, 0.5)])
        assert mu.zero_atom == 0.25
        assert mu.total_mass() == 0.25 + 2 * 0.5

    def test_component_masses_count_a_zero_atom_once(self):
        mu = kb.SpectralMeasure(atoms=[(1.0, 0.5), (0.0, 0.25)],
                                edges=[0.0, 1.0, 3.0], values=[0.1, 0.05])
        assert mu.component_masses().tolist() == [0.25, 1.0, 0.2, 0.2]
        assert mu.total_mass() == float(np.sum(mu.component_masses()))

    def test_a_bin_of_value_near_the_float_maximum_has_a_finite_mass(self):
        # (2 v) w overflowed, and the measure was rejected: the mass is 4e298
        mu = kb.SpectralMeasure(edges=[0.0, 1e-10, 2e-10], values=[1e308, 1e308])
        assert mu.total_mass() == pytest.approx(4e298, rel=1e-15)

    def test_density_lookup(self):
        mu = kb.SpectralMeasure(edges=[0.0, 1.0, 2.0], values=[0.7, 0.1])
        assert mu.density_at(0.0) == 0.7
        assert mu.density_at(1.5) == 0.1
        assert mu.density_at(3.0) == 0.0

    def test_s2_density_lookup(self):
        gamma = kb.GammaMeasure(edges=[0.0, 1.0, 2.0], values=[0.7, 0.1], law="s2")
        assert gamma.density_at(0.0) == 0.0
        assert gamma.density_at(0.5) == 0.7 * 0.25
        assert gamma.density_at(1.5) == 0.1 * 2.25
        assert gamma.density_at(3.0) == 0.0


class TestSerialization:
    def test_round_trip_exact(self):
        mu = kb.SpectralMeasure(atoms=[(0.0, 0.3), (1.5, 0.25)],
                                edges=[0.0, 0.5, 2.0], values=[0.4, 0.1])
        again = kb.SpectralMeasure.from_dict(mu.to_dict())
        assert again == mu

    def test_gamma_round_trip(self):
        gamma = kb.GammaMeasure(atoms=[(0.5, 1.0)], edges=[0.1, 1.0], values=[0.2])
        assert kb.GammaMeasure.from_dict(gamma.to_dict()) == gamma

    def test_gamma_law_serialization(self):
        old = {"atoms": [], "density": {"edges": [0.1, 1.0], "values": [0.2]}}
        gamma = kb.GammaMeasure.from_dict(old)
        assert gamma.law == "constant"
        assert gamma.to_dict() == old  # constant-law files keep their format
        s2 = kb.GammaMeasure(edges=[0.1, 1.0], values=[0.2], law="s2")
        assert s2.to_dict()["density"]["law"] == "s2"
        assert kb.GammaMeasure.from_dict(s2.to_dict()) == s2
        assert s2 != gamma

    def test_comparison_with_another_type_and_repr(self):
        mu = kb.SpectralMeasure(atoms=[(0.0, 0.3)], edges=[0.0, 0.5, 2.0], values=[0.4, 0.1])
        assert mu != mu.to_dict() and mu.__eq__(mu.to_dict()) is NotImplemented
        assert repr(mu) == "SpectralMeasure(n_atoms=1, n_bins=2)"

    def test_empty_measure(self):
        mu = kb.SpectralMeasure()
        assert mu.total_mass() == 0.0
        assert kb.SpectralMeasure.from_dict(mu.to_dict()) == mu


class TestClosedFormMeasures:
    def test_gaussian_pair(self):
        mu = kb.gaussian_measure()
        assert_allclose(kb.bochner_synthesis(mu, 1.0), np.exp(-0.5), atol=1e-6)

    def test_laplacian_pair(self):
        mu = kb.laplacian_measure(freq_max=400.0, n_bins=65536)
        assert_allclose(kb.bochner_synthesis(mu, 1.0), np.exp(-1.0), atol=1e-3)

    def test_cauchy_pair(self):
        mu = kb.cauchy_measure()
        assert_allclose(kb.bochner_synthesis(mu, 1.0), 1.0, atol=1e-3)

    def test_cosine_pair_exact(self):
        mu = kb.cosine_measure(omega=2.0)
        t = np.linspace(-3, 3, 7)
        assert_allclose(kb.bochner_synthesis(mu, t), np.cos(2.0 * t), rtol=1e-15)

    def test_constant_pair_exact(self):
        mu = kb.constant_measure(0.7)
        assert kb.bochner_synthesis(mu, 123.4) == 0.7

    def test_scaled_gaussian(self):
        mu = kb.gaussian_measure(scale=2.0, freq_max=8.0)
        assert_allclose(kb.bochner_synthesis(mu, 1.0), np.exp(-1.0 / 8.0), atol=1e-6)

    def test_defaults_are_the_inversion_grid(self):
        # one source for n_bins and freq_max: the builders and InversionConfig
        config = kb.InversionConfig()
        assert (config.n_bins, config.freq_max) == (kb.measures.N_BINS, kb.measures.FREQ_MAX)
        grid = np.linspace(0.0, config.freq_max, config.n_bins + 1)
        for build in BUILDERS:
            assert np.array_equal(build().bin_edges, grid)

    @pytest.mark.parametrize("build", BUILDERS)
    @pytest.mark.parametrize("kwargs", [
        {"n_bins": 0}, {"n_bins": -3}, {"n_bins": True}, {"n_bins": 2.0}, {"n_bins": "8"},
        {"freq_max": 0.0}, {"freq_max": -1.0}, {"freq_max": np.nan}, {"freq_max": np.inf},
        {"freq_max": None}, {"freq_max": True},
        {"scale": 0.0}, {"scale": -1.0}, {"scale": np.nan}, {"scale": np.inf},
        {"scale": None}, {"scale": 1j}])
    def test_builders_reject_degenerate_arguments(self, build, kwargs):
        # n_bins=0 gave a zero measure with one stray edge, n_bins=True one bin,
        # and scale=0 an all-zero measure
        with pytest.raises(ValueError):
            build(**kwargs)

    @pytest.mark.parametrize("build", BUILDERS)
    def test_builders_reject_oversized_grids_unallocated(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                build(n_bins=MAX_ELEMENTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def product_error(a, b):
    """a b - fl(a b), exactly: Dekker's two-product on Veltkamp halves."""
    def split(x):
        y = 134217729.0 * x  # 2**27 + 1
        head = y - (y - x)
        return head, x - head

    p = a * b
    (a_head, a_tail), (b_head, b_tail) = split(a), split(b)
    return ((a_head * b_head - p) + a_head * b_tail + a_tail * b_head) + a_tail * b_tail


class TestFrequencyGrid:
    """One grid for every binned measure: edges j w of one float width w."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 5000),
           freq_max=st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e))
    def test_one_width_and_exact_centres(self, n, freq_max):
        edges, centres = frequency_grid(n, freq_max)
        w = edges[1]
        j = np.arange(n + 1.0)
        assert edges.size == n + 1 and edges[0] == 0.0
        # every edge j w and centre (j + 1/2) w is the exact product
        assert not product_error(j, w).any() and np.array_equal(edges, j * w)
        odd = 2.0 * j[:-1] + 1.0
        assert not product_error(odd, w).any() and np.array_equal(centres, 0.5 * (odd * w))
        assert (np.diff(edges) == w).all()
        # the top edge n w is at most freq_max, within the truncation of w
        assert 0.0 <= freq_max - edges[-1] <= freq_max * 2.0 ** (n.bit_length() - 51)

    @pytest.mark.parametrize("n", [1000, 2000, 3000, 4097, 100_000])
    def test_bin_counts_that_are_not_powers_of_two(self, n):
        # np.linspace(0, 8, n + 1) has 9, 10 and 13 widths at n = 1000, 2000, 3000
        edges, _ = frequency_grid(n, 8.0)
        assert np.unique(np.diff(edges)).size == 1
        assert 8.0 - 8.0 * 2.0 ** (n.bit_length() - 51) <= edges[-1] <= 8.0

    def test_powers_of_two_keep_the_linspace_edges(self):
        for n in (1, 2, 1024, 2048, 4096):
            assert np.array_equal(frequency_grid(n, 8.0)[0], np.linspace(0.0, 8.0, n + 1))

    @pytest.mark.parametrize("n", [1, 1000, 2048, 3000])
    def test_builders_and_inversion_share_the_grid(self, n):
        edges = frequency_grid(n, 8.0)[0]
        for build in BUILDERS:
            assert np.array_equal(build(n_bins=n).bin_edges, edges)
        config = kb.InversionConfig(n_samples=1001, n_bins=n, atom_window=20.0)
        assert np.array_equal(kb.bochner_inversion(kb.zoo("cauchy"), config).measure.bin_edges,
                              edges)


_D2 = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
_GAUSSIAN_METRIC = kb.metric_from_kernel(kb.zoo("gaussian"))
_MU = kb.cosine_measure()


def _config(field):
    return lambda value: kb.InversionConfig(**{field: value})


def _atom(key):
    return lambda value: kb.SpectralMeasure.from_dict(
        {"atoms": [{"loc": 1.0, "mass": 1.0, key: value}]})


#: every scalar parameter of the library: (call with the value, a valid value,
#: the values past its bound, whether it is an integer)
SCALARS = {
    "InversionConfig.t_max": (_config("t_max"), 20, (0.0,), False),
    "InversionConfig.freq_max": (_config("freq_max"), 8, (0.0,), False),
    "InversionConfig.atom_window": (_config("atom_window"), 20, (0.0,), False),
    "InversionConfig.atom_step": (_config("atom_step"), 1, (0.0,), False),
    "InversionConfig.n_samples": (_config("n_samples"), 2, (1,), True),
    "InversionConfig.n_bins": (_config("n_bins"), 1, (0,), True),
    "gaussian_measure.n_bins": (lambda v: kb.gaussian_measure(n_bins=v), 1, (0,), True),
    "gaussian_measure.freq_max": (lambda v: kb.gaussian_measure(8, freq_max=v), 8, (0.0,),
                                  False),
    "gaussian_measure.scale": (lambda v: kb.gaussian_measure(8, scale=v), 2, (0.0,), False),
    "cosine_measure.omega": (kb.cosine_measure, 3, (0.0,), False),
    "constant_measure.value": (kb.constant_measure, 0, (-5e-324,), False),
    "from_dict.loc": (_atom("loc"), 0, (-5e-324,), False),
    "from_dict.mass": (_atom("mass"), 0, (-5e-324,), False),
    "zoo.scale": (lambda v: kb.zoo("laplacian", scale=v), 2, (0.0,), False),
    "zoo.omega": (lambda v: kb.zoo("cosine", omega=v), 3, (0.0,), False),
    "zoo.value": (lambda v: kb.zoo("constant", value=v), 0, (-5e-324,), False),
    "is_positive_definite.tol": (lambda v: kb.is_positive_definite(_D2, v), 0, (-5e-324,),
                                 False),
    "is_negative_definite.tol": (lambda v: kb.is_negative_definite(_D2, v), 0, (-5e-324,),
                                 False),
    "euclidean_embedding.tol": (lambda v: kb.euclidean_embedding(_D2, v), 0, (-5e-324,), False),
    "nd_to_psd.base_index": (lambda v: kb.nd_to_psd(_D2, v), 2, (-1,), True),
    "bound_report.k0": (lambda v: kb.bound_report(4.0, v), 1, (-5e-324,), False),
    "spectral_from_gamma.k0": (lambda v: kb.spectral_from_gamma(
        kb.GammaMeasure(atoms=[(0.5, 1.0)]), v), 1, (-5e-324,), False),
    "atom_at_zero.window": (lambda v: kb.atom_at_zero(kb.zoo("gaussian"), v, 1), 20, (0.0,),
                            False),
    "atom_at_zero.step": (lambda v: kb.atom_at_zero(kb.zoo("gaussian"), 20, v), 1, (0.0,),
                          False),
    "sample_frequencies.m": (lambda v: kb.sample_frequencies(_MU, v, 1), 1, (0,), True),
    "sample_frequencies.seed": (lambda v: kb.sample_frequencies(_MU, 4, v), 0, (-1,), True),
    "FrequencySample.total_mass": (lambda v: kb.FrequencySample([1.0], [0.0], v, 0), 1,
                                   (0.0,), False),
    "FrequencySample.seed": (lambda v: kb.FrequencySample([1.0], [0.0], 1.0, v), 0, (-1,), True),
    "sample_product_frequencies.m": (lambda v: kb.sample_product_frequencies(
        kb.ProductSpectralMeasure(factors=(_MU, _MU)), v, 1), 1, (0,), True),
    "check_translation_invariance.tol": (lambda v: kb.check_translation_invariance(
        kb.lift_metric(_GAUSSIAN_METRIC), kb.grid_probes(), v), 0, (-5e-324,), False),
    "probe_grid.span": (lambda v: kb.probe_grid(span=v), 10, (0.0, 1e308), False),
    "probe_grid.n": (lambda v: kb.probe_grid(n=v), 2, (1,), True),
    "grid_probes.span": (lambda v: kb.grid_probes(span=v), 4, (0.0, 1e308), False),
    "grid_probes.n": (lambda v: kb.grid_probes(n=v), 2, (1,), True),
    "kernel_from_metric.base": (lambda v: kb.kernel_from_metric(_GAUSSIAN_METRIC, v),
                                -3, (), False),
}
#: the reader's own rejections, for every parameter
NOT_SCALARS = [True, "2", None, np.nan, np.inf, -np.inf]
#: past the float range (an integer parameter runs past its element budget or
#: its range instead) and the values past each bound (a probe span also may not
#: double past it); numpy seeds from every integer >= 0, 10**400 included
PAST_BOUNDS = [(name, value) for name, (_, _, past, _) in SCALARS.items()
               for value in ([10 ** 400] if not name.endswith(".seed") else []) + list(past)]


class TestScalarRule:
    """One rule for every scalar parameter: ``measures._number`` and ``_count``."""

    @pytest.mark.parametrize("value", NOT_SCALARS, ids=repr)
    @pytest.mark.parametrize("name", SCALARS)
    def test_anything_but_a_number_is_rejected_by_the_reader(self, name, value):
        # True read as 1 and "2" as 2 in some, and NaN passed in the probe helpers
        with pytest.raises(ValueError, match=r" must be (a finite number|an integer)\b"):
            SCALARS[name][0](value)

    @pytest.mark.parametrize("name, value", PAST_BOUNDS,
                             ids=[f"{name}-{'10**400' if value == 10 ** 400 else value}"
                                  for name, value in PAST_BOUNDS])
    def test_values_past_the_float_range_or_the_bound_are_rejected(self, name, value):
        with pytest.raises(ValueError):
            SCALARS[name][0](value)

    @pytest.mark.parametrize("name", SCALARS)
    def test_numpy_and_plain_numbers_are_accepted(self, name):
        call, valid, _, integer = SCALARS[name]
        call(np.int64(valid))
        call(int(valid))
        if integer:
            with pytest.raises(ValueError, match="must be an integer"):
                call(np.float64(valid))
        else:
            call(np.float64(valid))

    @pytest.mark.parametrize("tau", [np.nan, True, "2", None])
    def test_a_frequency_argument_is_a_number_or_an_infinity(self, tau):
        # density_at(nan) read the last bin's value and alpha(nan) read 0
        mu = kb.SpectralMeasure(edges=[0.0, 1.0, 2.0], values=[0.5, 0.25])
        gamma = kb.GammaMeasure(atoms=[(0.5, 1.0)], edges=[1.0, 2.0], values=[1.0])
        for call in (mu.density_at, gamma.density_at, gamma.alpha):
            with pytest.raises(ValueError, match="tau must be a finite number"):
                call(tau)
        assert mu.density_at(np.inf) == mu.density_at(-np.inf) == 0.0
        assert gamma.alpha(np.inf) == kb.int_bound_integral(gamma) == 4.5
        assert gamma.alpha(-np.inf) == 0.0


def _density(key):
    """The other density array valid, and ``key`` the value."""
    return lambda value: {"edges": [0.0, 1.0, 2.0], "values": [1.0, 2.0], key: value}


_PRODUCT = kb.ProductSpectralMeasure(factors=(_MU, _MU))
_SAMPLE = kb.sample_product_frequencies(_PRODUCT, 4, 1)


def _as_is(value):
    return value


def _one_row(value):
    return [value]


#: every array the library reads as data: (call with the array, the array's
#: shape around a row of numbers, a valid row)
ARRAYS = {
    "SpectralMeasure.atoms": (lambda v: kb.SpectralMeasure(atoms=v), _one_row, [1.0, 2.0]),
    "SpectralMeasure.edges": (lambda v: kb.SpectralMeasure(**_density("edges")(v)), _as_is,
                              [0.0, 1.0, 2.0]),
    "SpectralMeasure.values": (lambda v: kb.SpectralMeasure(**_density("values")(v)), _as_is,
                               [1.0, 2.0]),
    "from_dict.edges": (lambda v: kb.SpectralMeasure.from_dict(
        {"density": _density("edges")(v)}), _as_is, [0.0, 1.0, 2.0]),
    "from_dict.values": (lambda v: kb.SpectralMeasure.from_dict(
        {"density": _density("values")(v)}), _as_is, [1.0, 2.0]),
    "GammaMeasure.from_dict.edges": (lambda v: kb.GammaMeasure.from_dict(
        {"density": _density("edges")(v)}), _as_is, [0.0, 1.0, 2.0]),
    "bochner_synthesis.t": (lambda v: kb.bochner_synthesis(_MU, v), _as_is, [0.0, 1.0]),
    "screw_synthesis.t": (lambda v: kb.screw_synthesis(
        kb.GammaMeasure(atoms=[(0.5, 1.0)]), v), _as_is, [0.0, 1.0]),
    "product_synthesis.t": (lambda v: kb.product_synthesis(_PRODUCT, v), _as_is, [0.0, 1.0]),
    "separable_eval.x": (lambda v: kb.separable_eval(
        kb.SeparableKernel((kb.zoo("gaussian"),) * 2), v, [0.0, 0.0]), _as_is, [0.0, 1.0]),
    "FrequencySample.frequencies": (lambda v: kb.FrequencySample(v, [0.0, 1.0], 1.0, 0),
                                    _as_is, [1.0, 2.0]),
    "FrequencySample.phases": (lambda v: kb.FrequencySample([1.0, 2.0], v, 1.0, 0),
                               _as_is, [0.0, 1.0]),
    "feature_matrix.x": (lambda v: kb.feature_matrix(_SAMPLE, v), _as_is, [0.0, 1.0]),
    "GramMatrix.points": (lambda v: kb.GramMatrix(v, [[1.0]]), _as_is, [0.0]),
    "GramMatrix.entries": (lambda v: kb.GramMatrix([0.0], v), _one_row, [1.0]),
    "build_gram.points": (lambda v: kb.build_gram(kb.zoo("gaussian"), v), _as_is, [0.0, 1.0]),
    "is_positive_definite.matrix": (kb.is_positive_definite, _one_row, [1.0]),
    "nd_to_psd.matrix": (kb.nd_to_psd, _one_row, [0.0]),
    "profile_from_samples.t": (lambda v: kb.profile_from_samples(v, [1.0, 0.0]), _as_is,
                               [0.0, 1.0]),
    "profile_from_samples.values": (lambda v: kb.profile_from_samples([0.0, 1.0], v), _as_is,
                                    [1.0, 0.0]),
    "check_translation_invariance.probes": (lambda v: kb.check_translation_invariance(
        kb.lift_metric(_GAUSSIAN_METRIC), v), _one_row, [0.0, 1.0, 2.0]),
}
#: rows the reader rejects, each with the end of its message; the shape of a
#: parameter is built around the row, or around None and the ragged nesting
NOT_ARRAYS = [(["1"], "real numbers"), ([True], "real numbers"),
              ([0.5, True], "real numbers"), ([1 + 5j], "real numbers"),
              ([10 ** 400], "real numbers"), ([[1.0], [1.0, 2.0]], "real numbers"),
              (None, "real numbers"), ([np.nan], "finite"), ([np.inf], "finite")]
#: the arguments of the profile and kernel call operators, read by
#: ``measures._reals``: the array rule, where a profile may take +-inf
CALL_ARGUMENTS = {
    "KernelProfile.__call__": (kb.zoo("gaussian"), _as_is, [0.0, 1.0]),
    "MetricProfile.__call__": (_GAUSSIAN_METRIC, _as_is, [0.0, 1.0]),
    "BivariateKernel.__call__.x": (lambda v: kb.lift_metric(_GAUSSIAN_METRIC)(v, 0.0), _as_is,
                                   [0.0, 1.0]),
    "BivariateKernel.__call__.y": (lambda v: kb.lift_metric(_GAUSSIAN_METRIC)(0.0, v), _as_is,
                                   [0.0, 1.0]),
}
NOT_REALS = [(row, message) for row, message in NOT_ARRAYS if message != "finite"]


class TestArrayRule:
    """One rule for every array the library reads: ``measures._numbers``."""

    @pytest.mark.parametrize("row, message", NOT_ARRAYS, ids=[repr(r) for r, _ in NOT_ARRAYS])
    @pytest.mark.parametrize("name", ARRAYS)
    def test_anything_but_finite_real_numbers_is_rejected_by_the_reader(self, name, row,
                                                                         message):
        # "1" read as 1.0, True as 1.0 (also among floats), 1+5j as 1.0 with a
        # ComplexWarning, 10**400 an OverflowError, NaN a wrong message or none
        call, shape, _ = ARRAYS[name]
        with pytest.raises(ValueError, match=f" must be {message}$"):
            call(shape(row))

    @pytest.mark.parametrize("name", ARRAYS)
    def test_lists_and_numpy_arrays_are_accepted(self, name):
        call, shape, valid = ARRAYS[name]
        call(shape(valid))
        call(np.asarray(shape(valid), dtype=np.float32))
        call(np.asarray(shape(valid), dtype=np.int64))

    @pytest.mark.parametrize("row, message", NOT_REALS, ids=[repr(r) for r, _ in NOT_REALS])
    @pytest.mark.parametrize("name", CALL_ARGUMENTS)
    def test_call_operators_take_the_rule_but_infinities(self, name, row, message):
        # "1" and True were read as k(1), 1+5j as k(1) with a ComplexWarning
        call, shape, _ = CALL_ARGUMENTS[name]
        with pytest.raises(ValueError, match=f" must be {message}$"):
            call(shape(row))

    @pytest.mark.parametrize("name", CALL_ARGUMENTS)
    def test_call_operators_accept_numbers_and_infinities(self, name):
        call, shape, valid = CALL_ARGUMENTS[name]
        expected = call(shape(valid))
        for dtype in (np.float32, np.int64):
            assert_allclose(call(np.asarray(shape(valid), dtype=dtype)), expected)
        assert np.isfinite(call(shape([np.inf, -np.inf]))).all()

    def test_a_nan_argument_is_an_evaluation_error(self):
        with pytest.raises(kb.EvaluationError, match="non-finite value at t=nan"):
            kb.zoo("gaussian")([np.nan])

    @pytest.mark.parametrize("call", [
        lambda: kb.bochner_synthesis(_MU, 10 ** 400),
        lambda: kb.bochner_synthesis(_MU, np.array([1 + 5j])),
        lambda: kb.screw_synthesis(kb.GammaMeasure(atoms=[(0.5, 1.0)]), True),
        lambda: kb.SpectralMeasure(atoms=[(10 ** 400, 0.5)]),
        lambda: kb.SpectralMeasure(atoms=[(0.5, True)]),
    ], ids=["t=10**400", "t=complex-array", "t=True", "atom-loc=10**400", "atom-mass=True"])
    def test_scalars_and_ndarrays_take_the_same_rule(self, call):
        with pytest.raises(ValueError, match=" must be real numbers$"):
            call()

    def test_a_nan_frequency_is_named(self):
        # was "a point times a frequency overflows the float range", at the first use
        with pytest.raises(ValueError, match="^frequencies must be finite$"):
            kb.FrequencySample([np.nan], [0.0], 1.0, 0)

    def test_density_arrays_are_not_ravelled(self):
        # the 2 x 2 edges were read as 4 edges of 3 bins
        with pytest.raises(ValueError, match="must be 1-d"):
            kb.SpectralMeasure(edges=[[0, 1], [2, 3]], values=[[0.5], [0.25], [0.1]])

    def test_atoms_are_pairs(self):
        for atoms in ([1.0, 0.5], [(1.0, 0.5, 0.2)]):
            with pytest.raises(ValueError, match="atoms must be \\(location, mass\\) pairs"):
                kb.SpectralMeasure(atoms=atoms)
        assert kb.SpectralMeasure(atoms=iter([(2.0, 0.5), (1.0, 0.25)])).atom_locations \
            .tolist() == [1.0, 2.0]
