"""File formats used by the command-line front end.

Matrices and points travel as header-free row-major CSV; sampled profiles
as two-column CSV (t, value) with an optional header row; structured
objects (measures, samples, verdicts) as JSON.  Every CSV table is read by
_read_table (numpy's C parser) and written by _write_table (one format
per row).  Floats are written with 17 significant digits so a write/read
round trip is bit stable.
"""

from __future__ import annotations

import json
import math
import warnings
from itertools import chain
from pathlib import Path

import numpy as np

__all__ = [
    "read_matrix_csv", "write_matrix_csv",
    "read_points_csv", "write_points_csv",
    "read_profile_csv", "write_profile_csv",
    "read_json", "write_json", "dumps_json",
]

FLOAT_FMT = "%.17g"
#: list items formatted per piece handed to the file by write_json
_ROWS_PER_PIECE = 512


def _read_table(path, header: bool = False) -> np.ndarray:
    """The rows of a CSV file of floats, as a 2-D array read by numpy's C parser.

    Empty lines are skipped.  An empty cell, a line of only blanks, a
    ``#``, digit underscores or rows of unequal width are a ValueError.
    With ``header``, a first line that is not all numbers is skipped.
    """
    with open(path) as fh:
        if header:
            try:
                list(map(float, fh.readline().split(",")))
            except ValueError:
                pass  # a header line: numpy reads on from the second line
            else:
                fh.seek(0)
        with warnings.catch_warnings():
            # an empty file is reported below, not as numpy's warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                table = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
    if table.size == 0:
        raise ValueError(f"{path}: empty matrix file")
    return table


def _write_table(path, table, header: str | None = None) -> None:
    """Write the rows of a 2-D table as CSV, each float as FLOAT_FMT, one row at a time."""
    table = np.asarray(table, dtype=float)
    row = ",".join([FLOAT_FMT] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        fh.writelines(row % tuple(values.tolist()) for values in table)


def read_matrix_csv(path) -> np.ndarray:
    return _read_table(path)


def write_matrix_csv(path, matrix, header: str | None = None) -> None:
    _write_table(path, np.atleast_2d(matrix), header)


def read_points_csv(path) -> np.ndarray:
    return _read_table(path).ravel()


def write_points_csv(path, points) -> None:
    _write_table(path, np.reshape(points, (-1, 1)))


def read_profile_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read exactly two columns (t, value); a non-numeric first line is a header."""
    table = _read_table(path, header=True)
    if table.shape[1] != 2:
        raise ValueError(f"{path}: profile rows need exactly two columns (t, value), "
                         f"not {table.shape[1]}")
    t, values = table.T.copy()
    return t, values


def write_profile_csv(path, t, values, header: str = "t,value") -> None:
    _write_table(path, np.column_stack((np.ravel(t), np.ravel(values))), header)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _sanitize(obj):
    """Replace non-finite floats with strings; strict JSON has no Infinity."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (float, np.floating)) and not np.isfinite(obj):
        return str(float(obj))  # 'inf', '-inf', 'nan', also for numpy scalars
    return obj


def _strict_first(encode, data):
    """``encode(data, allow_nan=False)``; sanitized and re-encoded only if that raises.

    Only data holding a non-finite float pays for the _sanitize walk, and
    the output is the same either way.
    """
    try:
        return encode(data, allow_nan=False)
    except ValueError:
        return encode(_sanitize(data), allow_nan=True)


def dumps_json(data: dict) -> str:
    return _strict_first(
        lambda obj, **kwargs: json.dumps(obj, default=_json_default, **kwargs), data)


def _float_rows(items, level: int):
    """For a list at depth ``level`` holding finite floats, or equal-length
    lists of finite floats: a function giving one item's ``indent=2`` text.
    None for any other list.
    """
    kinds = set(map(type, items))
    if kinds == {float}:
        return float.__repr__ if math.isfinite(sum(items)) else None
    if kinds != {list} or len(widths := set(map(len, items))) != 1 or 0 in widths:
        return None
    if set(map(type, chain.from_iterable(items))) != {float} \
            or not math.isfinite(sum(map(sum, items))):
        return None
    pad = "\n" + "  " * (level + 1)
    fmt = "[" + pad + ("," + pad).join(["%r"] * widths.pop()) + "\n" + "  " * level + "]"
    return lambda row: fmt % tuple(row)


def _indented(obj, allow_nan: bool, level: int = 0):
    """Yield, in pieces, the text ``json.dump(obj, indent=2)`` writes.

    The bytes are the same.  A list of finite floats, or of equal-length
    lists of them, is joined from ``float.__repr__`` (what the encoder
    writes for a finite float) in blocks, not built one element per step
    by the pure-Python encoder that ``indent`` selects.
    """
    if isinstance(obj, (np.floating, np.integer, np.ndarray)):
        obj = _json_default(obj)
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        yield json.dumps(obj, default=_json_default, allow_nan=allow_nan)
        return
    pad = "\n" + "  " * (level + 1)
    if isinstance(obj, dict):
        for i, (key, value) in enumerate(obj.items()):
            # the encoder's text for the key: '{"k": 0}' without '{' and ': 0}'
            key = json.dumps({key: 0}, allow_nan=allow_nan)[1:-4]
            yield ("," if i else "{") + pad + key + ": "
            yield from _indented(value, allow_nan, level + 1)
        yield "\n" + "  " * level + "}"
        return
    line = _float_rows(obj, level + 1)
    for lo in range(0, len(obj), _ROWS_PER_PIECE if line else 1):
        if line:
            yield ("," if lo else "[") + pad + ("," + pad).join(
                map(line, obj[lo:lo + _ROWS_PER_PIECE]))
        else:
            yield ("," if lo else "[") + pad
            yield from _indented(obj[lo], allow_nan, level + 1)
    yield "\n" + "  " * level + "]"


def write_json(path, data: dict) -> None:
    """``json.dump(data, indent=2)`` plus a newline, written in pieces (see _indented)."""
    def dump(obj, allow_nan):
        with open(path, "w") as fh:
            fh.writelines(_indented(obj, allow_nan))
            fh.write("\n")

    _strict_first(dump, data)


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
