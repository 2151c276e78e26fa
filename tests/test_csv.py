"""CSV codec: numpy's C parser and one row format, against the pure-Python codec.

The oracle below is the reader and writer the codec replaced.  Writes must
be byte-identical to it and reads bit-equal, apart from four inputs the
C parser rejects on purpose (see EDGE_CASES).
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from kernelbridge import io
from kernelbridge.cli import main


def oracle_read_matrix(path):
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([float(cell) for cell in line.split(",")])
    if not rows:
        raise ValueError("empty")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("ragged")
    return np.asarray(rows, dtype=float)


def oracle_read_points(path):
    values = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            values.extend(float(cell) for cell in line.split(",") if cell.strip())
    if not values:
        raise ValueError("empty")
    return np.asarray(values, dtype=float)


def oracle_read_profile(path):
    t, v = [], []
    for i, line in enumerate(Path(path).read_text().splitlines()):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) < 2:
            raise ValueError("one column")
        try:
            ti, vi = float(cells[0]), float(cells[1])
        except ValueError:
            if i == 0:
                continue
            raise
        t.append(ti)
        v.append(vi)
    if not t:
        raise ValueError("empty")
    return np.asarray(t, dtype=float), np.asarray(v, dtype=float)


def fmt(x):
    return "%.17g" % float(x)


def oracle_matrix_text(matrix, header=None):
    lines = [header] if header else []
    lines += [",".join(fmt(x) for x in row) for row in np.atleast_2d(matrix)]
    return "\n".join(lines) + "\n"


def oracle_points_text(points):
    return "\n".join(fmt(x) for x in np.ravel(points)) + "\n"


def oracle_profile_text(t, values, header="t,value"):
    lines = [header] if header else []
    lines += [f"{fmt(ti)},{fmt(vi)}" for ti, vi in zip(t, values)]
    return "\n".join(lines) + "\n"


def bits(a):
    """The float64 bit patterns, so -0.0 and NaN payloads compare exactly."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


SPECIAL = np.array([[0.0, -0.0, 5e-324, -2.2250738585072009e-308],
                    [1e308, -1e308, 1e-308, 1.7976931348623157e308],
                    [np.inf, -np.inf, np.nan, -np.nan],
                    [0.1, 1 / 3, -2.5e-17, 123456789.123456789]])
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
TABLES = hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                    elements=FLOATS)


class TestWrites:
    def test_special_values(self, tmp_path):
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, SPECIAL)
        assert path.read_text() == oracle_matrix_text(SPECIAL)
        io.write_points_csv(path, SPECIAL)
        assert path.read_text() == oracle_points_text(SPECIAL)
        io.write_profile_csv(path, SPECIAL[:, 0], SPECIAL[:, 1], header="t,d2")
        assert path.read_text() == oracle_profile_text(SPECIAL[:, 0], SPECIAL[:, 1], "t,d2")
        io.write_profile_csv(path, SPECIAL[0], SPECIAL[1], header="")
        assert path.read_text() == oracle_profile_text(SPECIAL[0], SPECIAL[1], "")

    def test_matrix_header_and_one_dimensional_input(self, tmp_path):
        path = tmp_path / "m.csv"
        io.write_matrix_csv(path, SPECIAL[:, :3], header="exact,approx,abs_error")
        assert path.read_text() == oracle_matrix_text(SPECIAL[:, :3], "exact,approx,abs_error")
        io.write_matrix_csv(path, [1.5, -0.0])
        assert path.read_text() == "1.5,-0\n"

    @settings(max_examples=150, deadline=None)
    @given(table=TABLES)
    def test_random_tables(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        io.write_matrix_csv(path, table)
        assert path.read_text() == oracle_matrix_text(table)
        io.write_points_csv(path, table)
        assert path.read_text() == oracle_points_text(table)


class TestReads:
    def test_special_values_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(oracle_matrix_text(SPECIAL))
        assert np.array_equal(bits(io.read_matrix_csv(path)), bits(oracle_read_matrix(path)))
        assert np.array_equal(bits(io.read_points_csv(path)), bits(oracle_read_points(path)))
        path.write_text(oracle_profile_text(SPECIAL[:, 0], SPECIAL[:, 1]))
        for new, old in zip(io.read_profile_csv(path), oracle_read_profile(path)):
            assert np.array_equal(bits(new), bits(old))

    @settings(max_examples=150, deadline=None)
    @given(table=TABLES)
    def test_random_tables(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_text(oracle_matrix_text(table))
        got = io.read_matrix_csv(path)
        assert got.shape == table.shape
        assert np.array_equal(bits(got), bits(oracle_read_matrix(path)))
        if table.shape[1] == 2:
            for new, old in zip(io.read_profile_csv(path), oracle_read_profile(path)):
                assert np.array_equal(bits(new), bits(old))

    def test_wide_rows_read_bit_equal(self, tmp_path):
        path = tmp_path / "m.csv"
        table = np.random.default_rng(3).standard_normal((40, 300)) * 1e-200
        path.write_text(oracle_matrix_text(table))
        assert np.array_equal(bits(io.read_matrix_csv(path)), bits(table))


REJECT = "reject"
READERS = {"matrix": (io.read_matrix_csv, oracle_read_matrix),
           "points": (io.read_points_csv, oracle_read_points),
           "profile": (lambda p: np.stack(io.read_profile_csv(p)),
                       lambda p: np.stack(oracle_read_profile(p)))}
#: (reader, file text, oracle's result, codec's result); the four rows whose
#: results differ are the deliberate changes
EDGE_CASES = {
    "plain": ("matrix", "1,2\n3,4\n", [[1, 2], [3, 4]], [[1, 2], [3, 4]]),
    "no_final_newline": ("matrix", "1,2\n3,4", [[1, 2], [3, 4]], [[1, 2], [3, 4]]),
    "empty_lines": ("matrix", "\n1,2\n\n3,4\n\n", [[1, 2], [3, 4]], [[1, 2], [3, 4]]),
    "crlf": ("matrix", "1,2\r\n3,4\r\n", [[1, 2], [3, 4]], [[1, 2], [3, 4]]),
    "padded_cells": ("matrix", " 1 , 2 \n\t3,\t4\n", [[1, 2], [3, 4]], [[1, 2], [3, 4]]),
    "non_finite": ("matrix", "inf,-inf\nnan,Infinity\n", [[np.inf, -np.inf], [np.nan, np.inf]],
                   [[np.inf, -np.inf], [np.nan, np.inf]]),
    "signs_and_range": ("matrix", "+1,-0\n1e400,-1e-400\n", [[1, -0.0], [np.inf, -0.0]],
                        [[1, -0.0], [np.inf, -0.0]]),
    "single_cell": ("matrix", "5\n", [[5]], [[5]]),
    "empty_file": ("matrix", "", REJECT, REJECT),
    "only_empty_lines": ("matrix", "\n\n", REJECT, REJECT),
    "empty_cell": ("matrix", "1,,2\n", REJECT, REJECT),
    "trailing_comma": ("matrix", "1,2,\n", REJECT, REJECT),
    "comment": ("matrix", "1,2 # note\n", REJECT, REJECT),
    "byte_order_mark": ("matrix", "\ufeff1,2\n", REJECT, REJECT),
    "hex_float": ("matrix", "0x1p3,1\n", REJECT, REJECT),
    "ragged_rows": ("matrix", "1,2\n3\n", REJECT, REJECT),
    "text_cell": ("matrix", "1,a\n", REJECT, REJECT),
    "points_column": ("points", "1\n2.5\n-0\n", [1, 2.5, -0.0], [1, 2.5, -0.0]),
    "profile_header": ("profile", "t,value\n0,1\n1,0.5\n", [[0, 1], [1, 0.5]],
                       [[0, 1], [1, 0.5]]),
    "profile_one_column": ("profile", "0\n1\n", REJECT, REJECT),
    "profile_text_after_first_line": ("profile", "0,1\nx,2\n", REJECT, REJECT),
    # deliberate changes: each was read by the oracle, and is rejected now
    "digit_underscores": ("matrix", "1_0,2\n", [[10, 2]], REJECT),
    "ragged_points": ("points", "1,2,\n3\n", [1, 2, 3], REJECT),
    "profile_three_columns": ("profile", "0,1,9\n1,0.5,9\n", [[0, 1], [1, 0.5]], REJECT),
    "blank_line_of_spaces": ("matrix", "1,2\n  \n3,4\n", [[1, 2], [3, 4]], REJECT),
}


def outcome(read, path):
    try:
        return read(path)
    except ValueError:
        return REJECT


@pytest.mark.parametrize("name", EDGE_CASES)
def test_edge_cases(tmp_path, name):
    kind, text, old, new = EDGE_CASES[name]
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    read, oracle = READERS[kind]
    for got, want in ((outcome(oracle, path), old), (outcome(read, path), new)):
        if isinstance(want, str):
            assert isinstance(got, str)
        else:
            want = np.asarray(want, dtype=float).T if kind == "profile" else want
            assert np.array_equal(bits(got), bits(np.asarray(want, dtype=float)))


def test_empty_file_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="empty matrix file"):
        io.read_matrix_csv(path)
    assert main(["check-nd", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: empty matrix file\n"
