"""JSON output: strict encoding first, sanitized only for non-finite floats."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kernelbridge as kb
from kernelbridge import io

FINITE = {"a": 1.5, "b": [0.1, -2.0, np.float64(3.25)], "c": {"d": np.arange(3.0)},
          "e": (1, 2), "f": "text", "g": None, "h": True}
NON_FINITE = {"a": float("inf"), "b": [1.0, float("-inf"), float("nan")],
              "c": {"d": np.array([1.0, np.nan])}, "e": np.float64("inf")}


def sanitized(data, **kwargs):
    """The encoding before the strict pass: every object walked by _sanitize."""
    return json.dumps(io._sanitize(data), default=io._json_default, **kwargs)


PRODUCT = kb.ProductSpectralMeasure(factors=(kb.gaussian_measure(n_bins=32),) * 3)
ROWS = {"rows": [[1.5, -2.0], [3.0, 1e-300]], "ragged": [[1.0, 2.0], [3.0]],
        "empty_rows": [[], []], "tuples": [(1.0, 2.0), (3.0, 4.0)], "ints": [[1, 2], [3, 4]],
        "overflowing_sum": [1e308, 1e308], "overflowing_rows": [[1e308], [1e308]],
        "non_finite_row": [[1.0, float("inf")]], "numpy": [np.float64(0.5), np.arange(2.0)],
        "nested": {"a": [], "b": {}, "c": [{"d": [0.25]}]}, 1.5: "float key", 7: None}


#: arrays write_json writes from their values, in several pieces where long or wide
ARRAYS = {"line": np.linspace(-1.0, 1.0, 1500), "rows": np.arange(3000.0).reshape(-1, 3) / 7,
          "wide": np.arange(1030.0).reshape(2, -1) / 3, "column": np.ones((3, 1)),
          "empty": np.empty(0), "no_rows": np.empty((0, 3)), "ints": np.arange(3),
          "float32": np.arange(3, dtype=np.float32) / 3, "scalar": np.array(0.5),
          "nested": {"a": np.array([1e-300, -1e308]), "b": [1.0, {"c": None}], "d": {}},
          "list": [np.arange(2.0)], 2.5: np.zeros(2)}


@pytest.mark.parametrize("data", [FINITE, NON_FINITE, kb.gaussian_measure(n_bins=32).to_dict(),
                                  kb.sample_frequencies(kb.cosine_measure(), 64, 1).to_dict(),
                                  kb.sample_product_frequencies(PRODUCT, 64, 1).to_dict(), ROWS,
                                  ARRAYS, {"one_inf": np.array([[1.0, np.inf]]), **ARRAYS},
                                  {"x": {"y": np.arange(3.0)}}])
def test_bytes_equal_the_sanitized_encoding(tmp_path, data):
    assert io.dumps_json(data) == sanitized(data)
    io.write_json(tmp_path / "out.json", data)
    assert (tmp_path / "out.json").read_text() == sanitized(data, indent=2) + "\n"


def test_writing_a_sample_holds_a_few_pieces(tmp_path):
    # to_dict's lists of 16,384 Python floats, held while json.dump wrote them,
    # peaked at ~829 KB
    sample = kb.sample_product_frequencies(
        kb.ProductSpectralMeasure(factors=(kb.gaussian_measure(),) * 3), m=4096, seed=1)
    tracemalloc.start()
    try:
        io.write_json(tmp_path / "sample.json", sample.to_dict())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000


JSON_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.floats(-1e308, 1e308)
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_FLOATS | st.text(max_size=4)
    | st.lists(JSON_FLOATS, max_size=6)
    | st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(JSON_FLOATS, min_size=n, max_size=n), max_size=4)),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3) | st.integers(), inner, max_size=3),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(data=JSON_TREES)
def test_write_json_matches_the_indented_encoder(tmp_path_factory, data):
    # the bytes of json.dump after the strict pass: sanitized only where non-finite
    path = tmp_path_factory.mktemp("json") / "out.json"
    io.write_json(path, data)
    assert path.read_text() == sanitized(data, indent=2) + "\n"


def test_finite_data_skips_the_walk(tmp_path, monkeypatch):
    def walk(obj):
        raise AssertionError("finite data was sanitized")

    monkeypatch.setattr(io, "_sanitize", walk)
    io.dumps_json(FINITE)
    io.write_json(tmp_path / "out.json", FINITE)


def test_non_finite_floats_become_strings(tmp_path):
    io.write_json(tmp_path / "out.json", {"x": [1.0, float("inf")], "y": float("nan")})
    assert io.read_json(tmp_path / "out.json") == {"x": [1.0, "inf"], "y": "nan"}


def test_numpy_non_finite_values_become_strings():
    # numpy scalars once came out as their repr, "np.float64(inf)", and NaN
    # inside an ndarray as a bare NaN token, which strict JSON rejects
    data = {"a": np.float64("inf"), "b": np.float32("-inf"),
            "d": np.array([np.nan, 1.5]), "e": [np.float64("nan")]}
    text = io.dumps_json(data)
    assert text == '{"a": "inf", "b": "-inf", "d": ["nan", 1.5], "e": ["nan"]}'
    assert json.loads(text, parse_constant=pytest.fail) == json.loads(text)


def test_numpy_scalars_encode_as_numbers_and_other_objects_are_rejected():
    assert io.dumps_json({"n": np.int64(3), "x": np.float32(0.5)}) == '{"n": 3, "x": 0.5}'
    with pytest.raises(TypeError, match="^not JSON serializable: <class 'object'>$"):
        io.dumps_json({"o": object()})


def test_deeply_nested_json_is_a_value_error(tmp_path):
    # the parser's RecursionError is not a ValueError, so the CLI printed a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 10_000 + "]" * 10_000)
    with pytest.raises(ValueError, match="deep.json: JSON nested too deeply"):
        io.read_json(path)
    with pytest.raises(ValueError, match="^--params: JSON nested too deeply$"):
        io.parse_json('{"a": ' * 10_000 + "1" + "}" * 10_000, "--params")
    assert io.parse_json('{"a": [[1.5]]}', "--params") == {"a": [[1.5]]}
