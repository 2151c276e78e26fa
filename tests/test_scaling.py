"""Every transform commutes with scaling its values by a power of two.

Each map of the correspondence is homogeneous in the values it carries, and
``measures._scaled`` runs each on its values scaled by one power of two.  So
the outputs on 2**e x are 2**e times the outputs on x (2**(e/2) for the
embedding's coordinates), bit for bit wherever both are normal floats, and an
output past the float range is a ValueError, exit 2 from the CLI.  The
exponents are drawn so that every scaled input is a normal float: a member
below 2**-1022 loses bits, which is the limit of the rule.  The inversion's
property is ``test_spectral.py``'s
``test_every_reading_scales_exactly_by_a_power_of_two``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

import kernelbridge as kb
from kernelbridge import spectral
from kernelbridge.cli import main

TINY, HUGE = np.finfo(float).tiny, np.finfo(float).max
GRID = np.linspace(-6.0, 6.0, 49)
EDGES, CENTRES = kb.measures.frequency_grid(64, 8.0)
#: a measure with a zero atom, an atom and 64 gaussian bins: values 5e-15 .. 0.4
MEASURE = kb.SpectralMeasure(atoms=[(0.0, 0.3), (1.5, 0.25)], edges=EDGES,
                             values=np.exp(-CENTRES ** 2 / 2.0) / np.sqrt(2.0 * np.pi))
GAMMA = kb.gamma_from_spectral(MEASURE)[0]
#: a constant-law gamma measure: an atom and three bins
CONSTANT_LAW = kb.GammaMeasure(atoms=[(0.5, 0.125)], edges=[0.25, 1.0, 2.0, 4.0],
                               values=[0.5, 0.25, 1e-3])
POINTS = np.array([0.0, 1.0, 2.0, 3.0, 5.5])
D2 = np.subtract.outer(POINTS, POINTS) ** 2
#: d2 of five planar points: rank 2
PLANAR = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.5, 1.0], [-1.0, 0.5]])
PLANAR_D2 = np.sum((PLANAR[:, None] - PLANAR[None]) ** 2, axis=-1)
GRAM = np.exp(-D2 / 2.0)
#: least and greatest magnitude of each input's values
RANGES = {"measure": (5e-15, 0.4), "gamma": (16 * 5e-15, 16 * 0.4), "constant": (1e-3, 0.5),
          "matrix": (GRAM.min(), D2.max() ** 2), "kernel": (2.0 / (1.0 + 200.0 ** 2), 2.0)}


def exponents(name, low=-1022, high=1023, even=False):
    """Exponents e that keep every value of the input ``name`` a normal float."""
    least, greatest = RANGES[name]
    lo = max(low, int(np.ceil(np.log2(TINY) - np.log2(least))) + 1)
    hi = min(high, int(np.floor(np.log2(HUGE) - np.log2(greatest))) - 1)
    return st.integers(lo, hi).map(lambda e: e - e % 2 if even else e)


def assert_scaled(scaled, base, e, degree=1):
    """scaled == 2**(degree e) base bit for bit wherever both are normal floats."""
    scaled, base = np.atleast_1d(scaled), np.atleast_1d(base)
    expected = np.ldexp(base, int(degree * e))
    normal = (np.abs(base) >= TINY) & (np.abs(scaled) >= TINY) & np.isfinite(expected)
    assert_array_equal(scaled[normal], expected[normal])


def scaled_measure(measure, e):
    return kb.SpectralMeasure(atoms=np.column_stack((measure.atom_locations,
                                                     np.ldexp(measure.atom_masses, e))),
                              edges=measure.bin_edges, values=np.ldexp(measure.bin_values, e))


def scaled_gamma(gamma, e):
    return kb.GammaMeasure(atoms=np.column_stack((gamma.atom_locations,
                                                  np.ldexp(gamma.atom_masses, e))),
                           edges=gamma.bin_edges, values=np.ldexp(gamma.bin_values, e),
                           law=gamma.law)


def scaled_kernel(e):
    kernel = kb.zoo("cauchy")
    return kb.KernelProfile(fn=lambda t: np.ldexp(kernel(t), e), name="scaled")


def outputs_or_overflow(transform, base, e, degree=1):
    """transform() and base compared by assert_scaled; or, where transform raises
    the overflow rule's ValueError, 2**(degree e) base passes the float range."""
    try:
        scaled = transform()
    except ValueError as exc:
        assert str(exc).endswith("overflows the float range")
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.ldexp(np.atleast_1d(base), int(degree * e))).all()
        return
    assert_scaled(scaled, base, e, degree)


class TestMeasures:
    @settings(max_examples=40, deadline=None)
    @given(e=exponents("measure"))
    def test_synthesis(self, e):
        base = kb.bochner_synthesis(MEASURE, GRID)
        outputs_or_overflow(lambda: kb.bochner_synthesis(scaled_measure(MEASURE, e), GRID),
                            base, e)

    @settings(max_examples=40, deadline=None)
    @given(e=exponents("gamma"), law=st.sampled_from(["s2", "constant"]))
    def test_screw(self, e, law):
        gamma = GAMMA if law == "s2" else CONSTANT_LAW
        base = kb.screw_synthesis(gamma, GRID)
        outputs_or_overflow(lambda: kb.screw_synthesis(scaled_gamma(gamma, e), GRID), base, e)

    @settings(max_examples=40, deadline=None)
    @given(e=exponents("measure", high=1018))
    def test_gamma_from_spectral(self, e):
        (gamma, zero), (base, base_zero) = (kb.gamma_from_spectral(mu) for mu in (
            scaled_measure(MEASURE, e), MEASURE))
        assert_scaled(gamma.atom_masses, base.atom_masses, e)
        assert_scaled(gamma.bin_values, base.bin_values, e)
        assert_scaled(zero, base_zero, e)

    @settings(max_examples=40, deadline=None)
    @given(e=exponents("gamma"), law=st.sampled_from(["s2", "constant"]))
    def test_spectral_from_gamma(self, e, law):
        gamma, k0 = (GAMMA, MEASURE.total_mass()) if law == "s2" else (CONSTANT_LAW, 1.0)
        base = kb.spectral_from_gamma(gamma, k0)
        measure = kb.spectral_from_gamma(scaled_gamma(gamma, e), np.ldexp(k0, e))
        assert_array_equal(measure.atom_locations, base.atom_locations)
        assert_scaled(measure.atom_masses, base.atom_masses, e)
        assert_scaled(measure.bin_values, base.bin_values, e)


class TestKernels:
    @settings(max_examples=40, deadline=None)
    @given(e=exponents("kernel"))
    def test_atom0(self, e):
        base = spectral._estimate_zero_atom(kb.zoo("cauchy"), 200.0, 0.01)
        assert_scaled(spectral._estimate_zero_atom(scaled_kernel(e), 200.0, 0.01), base, e)


class TestMatrices:
    @settings(max_examples=60, deadline=None)
    @given(e=exponents("matrix"))
    def test_nd_to_psd(self, e):
        base = kb.nd_to_psd(D2, base_index=2)
        outputs_or_overflow(lambda: kb.nd_to_psd(np.ldexp(D2, e), base_index=2), base, e)

    @settings(max_examples=60, deadline=None)
    @given(e=exponents("matrix"), matrix=st.sampled_from(["gram", "d2"]))
    def test_check_psd(self, e, matrix):
        entries = GRAM if matrix == "gram" else D2
        base = kb.is_positive_definite(entries)
        outputs_or_overflow(lambda: self.readings(kb.is_positive_definite(np.ldexp(entries, e)),
                                                  base), self.readings(base, base), e)

    @settings(max_examples=60, deadline=None)
    @given(e=exponents("matrix"), matrix=st.sampled_from(["d2", "quartic"]))
    def test_check_nd(self, e, matrix):
        entries = D2 if matrix == "d2" else D2 ** 2
        base = kb.is_negative_definite(entries)
        outputs_or_overflow(lambda: self.readings(kb.is_negative_definite(np.ldexp(entries, e)),
                                                  base), self.readings(base, base), e)

    @staticmethod
    def readings(verdict, base):
        """The witness, threshold and margin; the witness vector equal to the base's."""
        assert_array_equal(verdict.witness_vector, base.witness_vector)
        return [verdict.witness_eigenvalue, verdict.threshold, verdict.margin]

    @settings(max_examples=60, deadline=None)
    @given(e=exponents("matrix", even=True))
    def test_embed(self, e):
        base = kb.euclidean_embedding(PLANAR_D2)
        result = kb.euclidean_embedding(np.ldexp(PLANAR_D2, e))
        assert result.rank == base.rank == 2
        assert_scaled(result.coordinates, base.coordinates, e, degree=0.5)
        assert_scaled(result.residual, base.residual, e)

    def test_the_psd_witness_scales_exactly_across_the_float_range(self):
        # the eigensolver rescaled a matrix below its safe minimum by a ratio that is
        # not a power of two: the witness moved by 8.3e-16 relative from 2**-450 down
        base = kb.is_positive_definite(GRAM)
        for k in range(-1000, 1001):
            verdict = kb.is_positive_definite(np.ldexp(GRAM, k))
            assert verdict.witness_eigenvalue == np.ldexp(base.witness_eigenvalue, k)
            assert_array_equal(verdict.witness_vector, base.witness_vector)


def csv(matrix):
    return "".join(",".join(map(repr, row)) + "\n" for row in matrix.tolist())


#: inputs whose output is larger than the input: command, CSV or JSON document,
#: the output's greatest magnitude at scale 1 and the input's
CLI_CASES = [
    ("check-psd C", csv(D2), abs(kb.is_positive_definite(D2).witness_eigenvalue), D2.max()),
    ("check-nd C", csv(np.outer([1.0, -1.0, 1.0, -1.0], [1.0, -1.0, 1.0, -1.0])), 4.0, 1.0),
    ("gamma J -o O", MEASURE.to_dict(), GAMMA.bin_values.max(), MEASURE.bin_values.max()),
]


@pytest.mark.parametrize("command, document, output, largest", CLI_CASES)
def test_the_cli_exits_2_exactly_where_the_scaled_result_passes_the_float_range(
        tmp_path, capsys, command, document, output, largest):
    past = 1025 - int(np.frexp(output)[1])  # output 2**past passes the range
    assert np.isfinite(np.ldexp(largest, past))  # while every input is finite
    for e, code in ((past - 1, 0), (past, 2)):
        files = {"C": tmp_path / "in.csv", "J": tmp_path / "in.json", "O": tmp_path / "out"}
        files["O"].unlink(missing_ok=True)
        if isinstance(document, str):
            files["C"].write_text(csv(np.ldexp(np.loadtxt(document.splitlines(),
                                                          delimiter=","), e)))
        else:
            files["J"].write_text(json.dumps(scaled_measure(MEASURE, e).to_dict()))
        assert main([str(files.get(w, w)) for w in command.split()]) == code, (command, e)
        err = capsys.readouterr().err
        assert err == "" if code == 0 else (
            err.startswith("error: ") and err.endswith(" overflows the float range\n"))
