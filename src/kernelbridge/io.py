"""File formats used by the command-line front end.

Matrices and points travel as header-free row-major CSV; sampled profiles
as two-column CSV (t, value) with an optional header row; structured
objects (measures, samples, verdicts) as JSON.  Every CSV table is read by
_read_table (numpy's C parser) and written by _write_table (one format
per row).  Floats are written with 17 significant digits so a write/read
round trip is bit stable.  JSON is written by ``json.dump(indent=2)`` (or
``json.dumps``) after a strict pass: only data holding a non-finite float
is walked by _sanitize, which writes such floats as strings.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

__all__ = [
    "read_matrix_csv", "write_matrix_csv",
    "read_points_csv", "write_points_csv",
    "read_profile_csv", "write_profile_csv",
    "parse_json", "read_json", "write_json", "dumps_json",
]

FLOAT_FMT = "%.17g"


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


def write_json(path, data: dict) -> None:
    """``json.dump(data, indent=2)`` plus a newline, strict first (see _strict_first)."""
    def dump(obj, allow_nan):
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=2, default=_json_default, allow_nan=allow_nan)
            fh.write("\n")

    _strict_first(dump, data)


def parse_json(text: str, source) -> dict:
    """``json.loads(text)``; a document nested past the recursion limit is a ValueError.

    ``source`` (a path or flag) names the text in the message.
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{source}: JSON nested too deeply") from None


def read_json(path) -> dict:
    return parse_json(Path(path).read_text(), path)
