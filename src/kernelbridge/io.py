"""File formats used by the command-line front end.

Matrices travel as header-free row-major CSV; sampled profiles as
two-column CSV (t, value) with an optional header row; structured objects
(measures, samples, verdicts) as JSON.  Floats are written with 17
significant digits so a write/read round trip is bit stable.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = [
    "read_matrix_csv", "write_matrix_csv",
    "read_points_csv", "write_points_csv",
    "read_profile_csv", "write_profile_csv",
    "read_json", "write_json", "dumps_json",
]

FLOAT_FMT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


def read_matrix_csv(path) -> np.ndarray:
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([float(cell) for cell in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged rows in matrix file")
    return np.asarray(rows, dtype=float)


def write_matrix_csv(path, matrix) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [",".join(_fmt(x) for x in row) for row in matrix]
    Path(path).write_text("\n".join(lines) + "\n")


def read_points_csv(path) -> np.ndarray:
    values = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        values.extend(float(cell) for cell in line.split(",") if cell.strip())
    if not values:
        raise ValueError(f"{path}: no points found")
    return np.asarray(values, dtype=float)


def write_points_csv(path, points) -> None:
    Path(path).write_text("\n".join(_fmt(x) for x in np.asarray(points).ravel()) + "\n")


def read_profile_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read (t, value) columns; a leading non-numeric header row is skipped."""
    t, v = [], []
    for i, line in enumerate(Path(path).read_text().splitlines()):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) < 2:
            raise ValueError(f"{path}: line {i + 1} does not have two columns")
        try:
            ti, vi = float(cells[0]), float(cells[1])
        except ValueError:
            if i == 0:
                continue  # header row
            raise ValueError(f"{path}: line {i + 1} is not numeric") from None
        t.append(ti)
        v.append(vi)
    if not t:
        raise ValueError(f"{path}: no samples found")
    return np.asarray(t, dtype=float), np.asarray(v, dtype=float)


def write_profile_csv(path, t, values, header: str = "t,value") -> None:
    t = np.asarray(t, dtype=float).ravel()
    values = np.asarray(values, dtype=float).ravel()
    lines = [header] if header else []
    lines += [f"{_fmt(ti)},{_fmt(vi)}" for ti, vi in zip(t, values)]
    Path(path).write_text("\n".join(lines) + "\n")


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
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)  # 'inf', '-inf', 'nan'
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
    def dump(obj, **kwargs):
        # streamed to the file: the whole text is never held in memory
        with open(path, "w") as fh:
            json.dump(obj, fh, default=_json_default, indent=2, **kwargs)
            fh.write("\n")

    _strict_first(dump, data)


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
