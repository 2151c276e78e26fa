"""JSON output: strict encoding first, sanitized only for non-finite floats."""

import json

import numpy as np
import pytest

import kernelbridge as kb
from kernelbridge import io

FINITE = {"a": 1.5, "b": [0.1, -2.0, np.float64(3.25)], "c": {"d": np.arange(3.0)},
          "e": (1, 2), "f": "text", "g": None, "h": True}
NON_FINITE = {"a": float("inf"), "b": [1.0, float("-inf"), float("nan")],
              "c": {"d": np.array([1.0, np.nan])}, "e": np.float64("inf")}


def sanitized(data, **kwargs):
    """The encoding before the strict pass: every object walked by _sanitize."""
    return json.dumps(io._sanitize(data), default=io._json_default, **kwargs)


@pytest.mark.parametrize("data", [FINITE, NON_FINITE, kb.gaussian_measure(n_bins=32).to_dict(),
                                  kb.sample_frequencies(kb.cosine_measure(), 64, 1).to_dict()])
def test_bytes_equal_the_sanitized_encoding(tmp_path, data):
    assert io.dumps_json(data) == sanitized(data)
    io.write_json(tmp_path / "out.json", data)
    assert (tmp_path / "out.json").read_text() == sanitized(data, indent=2) + "\n"


def test_finite_data_skips_the_walk(tmp_path, monkeypatch):
    def walk(obj):
        raise AssertionError("finite data was sanitized")

    monkeypatch.setattr(io, "_sanitize", walk)
    io.dumps_json(FINITE)
    io.write_json(tmp_path / "out.json", FINITE)


def test_non_finite_floats_become_strings(tmp_path):
    io.write_json(tmp_path / "out.json", {"x": [1.0, float("inf")], "y": float("nan")})
    assert io.read_json(tmp_path / "out.json") == {"x": [1.0, "inf"], "y": "nan"}
