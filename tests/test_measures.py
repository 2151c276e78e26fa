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
