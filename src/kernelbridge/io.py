"""File formats used by the command-line front end.

Matrices and points travel as header-free row-major CSV; sampled profiles
as two-column CSV (t, value) with an optional header row; structured
objects (measures, samples, verdicts) as JSON.  Every CSV table is read by
_read_table (numpy's C parser) and written by _write_table (one format
per row).  Floats are written with 17 significant digits so a write/read
round trip is bit stable.  JSON is written as ``json.dump(indent=2)`` (or
``json.dumps``) writes it, after a strict pass: only data holding a
non-finite float is walked by _sanitize, which writes such floats as
strings.  write_json writes the finite float arrays among a dict's values
from the arrays themselves, a piece at a time (_pieces), with the same
bytes.
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
#: most array values write_json formats into one piece of text
_VALUES_PER_PIECE = 512


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


def _float_array(obj) -> bool:
    """Whether obj is a non-empty 1-D or 2-D float64 array of finite values:
    an array _pieces writes itself."""
    return (isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim in (1, 2)
            and obj.size > 0 and bool(np.isfinite(obj).all()))


def _pieces(obj, allow_nan: bool, level: int = 0):
    """Yield, in pieces, the text ``json.dump(obj, indent=2)`` writes for obj
    nested ``level`` deep.

    An array of _float_array is written from its values, at most
    _VALUES_PER_PIECE to a ``tolist`` and a piece, joined from
    ``float.__repr__`` (what the encoder writes for a finite float); the
    encoder would hold it whole as Python floats.  A dict holding such an
    array among its values is written key by key.  Anything else is the
    encoder's own text.
    """
    pad = "\n" + "  " * (level + 1)
    end = "\n" + "  " * level
    if _float_array(obj):
        if obj.ndim == 1:
            line = float.__repr__
        else:
            item = pad + "  "
            fmt = "[" + item + ("," + item).join(["%r"] * obj.shape[1]) + pad + "]"
            line = lambda row: fmt % tuple(row)
        step = max(1, _VALUES_PER_PIECE * len(obj) // obj.size)
        for lo in range(0, len(obj), step):
            yield ("," if lo else "[") + pad + ("," + pad).join(
                map(line, obj[lo:lo + step].tolist()))
        yield end + "]"
    elif isinstance(obj, dict) and any(map(_float_array, obj.values())):
        for i, (key, value) in enumerate(obj.items()):
            # the encoder's text for the key: '{"k": 0}' without '{' and ': 0}'
            key = json.dumps({key: 0}, allow_nan=allow_nan)[1:-4]
            yield ("," if i else "{") + pad + key + ": "
            yield from _pieces(value, allow_nan, level + 1)
        yield end + "}"
    else:
        encoder = json.JSONEncoder(indent=2, default=_json_default, allow_nan=allow_nan)
        for chunk in encoder.iterencode(obj):
            yield chunk.replace("\n", end) if level else chunk


def write_json(path, data: dict) -> None:
    """``json.dump(data, indent=2)`` plus a newline, strict first (see _strict_first).

    The bytes are json.dump's.  Finite float arrays among a dict's values
    are written from the arrays a piece at a time (see _pieces), never all
    as Python floats at once.  An array holding a non-finite value takes the
    sanitized encoding, as a list.
    """
    def dump(obj, allow_nan):
        with open(path, "w") as fh:
            fh.writelines(_pieces(obj, allow_nan))
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
