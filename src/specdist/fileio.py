"""File formats and deterministic serialization.

All floats are rendered with 17 significant digits so values survive a
write/read round trip bit-exactly, and all containers serialize in a fixed
key order; identical inputs therefore produce byte-identical output files.

Formats:

* grid spectrum: CSV with header ``omega_index,row,col,re,im`` plus a JSON
  sidecar (same stem, ``.meta.json``) holding dim, n_freq and the
  real-symmetry flag;
* rational model: JSON object with ``ar``, ``ma``, ``noise_cov`` arrays;
* autocovariance: JSON object with a ``lags`` array of matrices (a JSON
  source is classified by these keys);
* time series: CSV of numeric rows, one sample per row, one column per
  channel, no header.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import ParseError
from .hermitian import DEFAULT_POLICY, PsdPolicy
from .spectra import Autocovariance, GridSpectrum, RationalSpectrum

__all__ = [
    "format_float",
    "grid_csv_text",
    "json_dumps",
    "load_json_object",
    "read_grid_csv",
    "read_json_source",
    "read_timeseries_csv",
    "sidecar_path",
    "write_grid_csv",
]

GRID_HEADER = ("omega_index", "row", "col", "re", "im")

#: One grid CSV body row as the fast parse reads it.
_GRID_ROW = np.dtype([("l", np.int64), ("i", np.int64), ("j", np.int64),
                      ("re", np.float64), ("im", np.float64)])

_GRID_ROW_FORMAT = "%d,%d,%d,%.17g,%.17g\n"

#: Rows rendered per format call when writing a grid CSV.
_WRITE_BLOCK_ROWS = 4096


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    if not np.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    return f"{float(x):.17g}"


def json_dumps(obj) -> str:
    """Deterministic JSON: fixed float rendering, insertion-ordered keys."""
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, out: list) -> None:
    if isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def sidecar_path(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def grid_csv_text(grid: GridSpectrum) -> str:
    """CSV body for a grid spectrum (header plus one line per entry).

    Raises
    ------
    ValueError
        If any value is non-finite, with the message of :func:`format_float`.
    """
    n, m = grid.n_freq, grid.dim
    table = np.empty((n, m, m, 5))
    table[..., 0] = np.arange(n)[:, None, None]
    table[..., 1] = np.arange(m)[:, None]
    table[..., 2] = np.arange(m)
    table[..., 3] = grid.values.real
    table[..., 4] = grid.values.imag
    table = table.reshape(-1, 5)
    parts = table[:, 3:]
    finite = np.isfinite(parts)
    if not finite.all():
        format_float(parts.flat[np.argmin(finite)])  # raises for the first bad value
    # ``%d`` renders the integral float indices exactly, and ``%.17g`` is
    # the format ``format_float`` applies, so the text is identical to a
    # per-entry rendering.  Blocks bound the temporary argument tuples.
    pieces = [",".join(GRID_HEADER) + "\n"]
    for start in range(0, len(table), _WRITE_BLOCK_ROWS):
        block = table[start:start + _WRITE_BLOCK_ROWS]
        pieces.append(_GRID_ROW_FORMAT * len(block) % tuple(block.ravel().tolist()))
    return "".join(pieces)


def write_grid_csv(path, grid: GridSpectrum) -> None:
    """Write a grid spectrum CSV together with its metadata sidecar."""
    path = Path(path)
    path.write_text(grid_csv_text(grid))
    meta = {
        "dim": grid.dim,
        "n_freq": grid.n_freq,
        "real_symmetry": grid.real_symmetry,
    }
    sidecar_path(path).write_text(json_dumps(meta) + "\n")


def _grid_rows_fast(path: Path):
    """Body rows from numpy's C parser, or None when it rejects the body.

    It accepts a subset of what :func:`_grid_rows_by_line` accepts (plain
    numeric fields, one record per line) and yields bit-identical values,
    so a file either parses here or falls through to the row loop.
    """
    with warnings.catch_warnings():
        # A header-only file warns "input contained no data"; the row loop
        # reports it instead.
        warnings.simplefilter("ignore", UserWarning)
        try:
            rows = np.loadtxt(path, delimiter=",", skiprows=1, comments=None,
                              ndmin=1, dtype=_GRID_ROW)
        except ValueError:
            return None
    return rows if rows.size else None


def _grid_rows_by_line(path: Path, reader) -> list:
    """Parse the body row by row; the only source of per-row error text."""
    entries = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 5:
            raise ParseError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
        try:
            entries.append(
                (int(row[0]), int(row[1]), int(row[2]), float(row[3]), float(row[4]))
            )
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    if not entries:
        raise ParseError(f"{path}: grid file has no data rows")
    return entries


def read_grid_csv(path, policy: PsdPolicy = DEFAULT_POLICY) -> GridSpectrum:
    """Load a grid spectrum CSV, consulting the sidecar when present.

    A repeated ``(omega_index, row, col)`` entry overrides earlier ones.

    Raises
    ------
    ParseError
        On a bad header, malformed row, out-of-range index, missing or
        non-finite grid entry, or a sidecar that contradicts the data.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(c.strip() for c in next(reader))
        except StopIteration:
            raise ParseError(f"{path}: empty grid file") from None
        if header != GRID_HEADER:
            raise ParseError(
                f"{path}: expected header {','.join(GRID_HEADER)}, "
                f"got {','.join(header)}"
            )
        rows = _grid_rows_fast(path)
        if rows is not None:
            l, i, j, re, im = (rows[name] for name in _GRID_ROW.names)
        else:
            l, i, j, re, im = zip(*_grid_rows_by_line(path, reader))
            # Object arrays keep the loop's Python ints exact beyond int64.
            l, i, j = (np.array(a, dtype=object) for a in (l, i, j))
            re, im = np.array(re), np.array(im)

    n_freq = int(l.max()) + 1
    m = max(int(i.max()), int(j.max())) + 1

    meta_file = sidecar_path(path)
    if meta_file.exists():
        try:
            meta = json.loads(meta_file.read_text())
        except ValueError as exc:
            raise ParseError(f"{meta_file}: {exc}") from None
        md, mn = int(meta.get("dim", m)), int(meta.get("n_freq", n_freq))
        if md < m or mn < n_freq:
            raise ParseError(
                f"{path}: data indices exceed sidecar shape "
                f"(dim {md}, n_freq {mn})"
            )
        m, n_freq = md, mn

    bad = (l < 0) | (l >= n_freq) | (i < 0) | (i >= m) | (j < 0) | (j >= m)
    if bad.any():
        k = int(np.argmax(bad))
        raise ParseError(f"{path}: entry ({l[k]},{i[k]},{j[k]}) out of range")
    size = n_freq * m * m
    # Fewer rows than entries cannot fill the grid; checking before any
    # allocation also keeps a huge sidecar shape from being allocated.
    if len(l) < size:
        raise ParseError(f"{path}: grid is missing entries")
    slot = (l.astype(np.intp) * m + i.astype(np.intp)) * m + j.astype(np.intp)
    # Fancy assignment leaves the winner among repeated indices unspecified,
    # so find the last row for each entry explicitly: it overrides the rest.
    last = np.full(size, -1, dtype=np.intp)
    np.maximum.at(last, slot, np.arange(len(slot)))
    if (last < 0).any():
        raise ParseError(f"{path}: grid is missing entries")
    re, im = re[last], im[last]
    finite = np.isfinite(re) & np.isfinite(im)
    if not finite.all():
        lb, ib, jb = np.unravel_index(int(np.argmin(finite)), (n_freq, m, m))
        raise ParseError(f"{path}: entry ({lb},{ib},{jb}) is not a finite number")
    values = re + 1j * im
    return GridSpectrum.build(values.reshape(n_freq, m, m), policy, name=str(path))


def load_json_object(path) -> dict:
    """Load a JSON file that must contain an object at top level."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return obj


def _as_float_array(obj, path, key) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: field {key!r}: {exc}") from None
    if not np.isfinite(arr).all():  # json reads NaN, Infinity and 1e999
        raise ParseError(f"{path}: field {key!r} holds a non-finite number")
    return arr


def _as_matrix_stack(arr: np.ndarray, path, key) -> np.ndarray:
    """Promote scalar-coefficient lists and bare matrices to (k, m, m)."""
    if arr.ndim == 1:
        return arr[:, None, None]
    if arr.ndim == 2:
        return arr[None]
    if arr.ndim == 3:
        return arr
    raise ParseError(f"{path}: field {key!r} must be a list of matrices")


def read_json_source(path, policy: PsdPolicy = DEFAULT_POLICY):
    """Load a JSON source, read once and classified by its keys.

    An object with ``lags`` is an autocovariance sequence
    ``{"lags": [R0, R1, ...]}``: scalar sequences may be flat lists, matrix
    sequences have shape (K+1, m, m).  Otherwise an object with ``ma`` or
    ``noise_cov`` is a rational model: ``ar`` may be absent or empty (pure
    moving average), and scalar models can be written with flat coefficient
    lists and a scalar noise variance; everything is promoted to matrix
    stacks.  ``policy`` reaches the ``R(0)`` and ``noise_cov`` checks.

    Returns
    -------
    Autocovariance or RationalSpectrum

    Raises
    ------
    ParseError
        If the object has neither kind's fields, or a field is malformed.
    """
    obj = load_json_object(path)
    if "lags" in obj:
        lags = _as_float_array(obj["lags"], path, "lags")
        if lags.ndim == 1:
            lags = lags[:, None, None]
        elif lags.ndim == 2 and lags.shape[1] == 1:
            lags = lags[:, :, None]
        elif lags.ndim != 3:
            raise ParseError(f"{path}: 'lags' must be a list of matrices")
        return Autocovariance(lags=lags, policy=policy)
    if "ma" not in obj and "noise_cov" not in obj:
        raise ParseError(
            f"{path}: JSON source has neither model fields (ar/ma/noise_cov) "
            "nor autocovariance field (lags)"
        )
    for key in ("ma", "noise_cov"):
        if key not in obj:
            raise ParseError(f"{path}: model is missing the {key!r} field")
    q = np.atleast_2d(_as_float_array(obj["noise_cov"], path, "noise_cov"))
    if q.ndim != 2:
        raise ParseError(f"{path}: noise_cov must be a matrix")
    ar = _as_matrix_stack(_as_float_array(obj.get("ar", []), path, "ar"), path, "ar")
    ma = _as_matrix_stack(_as_float_array(obj["ma"], path, "ma"), path, "ma")
    return RationalSpectrum(ar=ar, ma=ma, noise_cov=q, policy=policy)


def read_timeseries_csv(path) -> np.ndarray:
    """Load a time series CSV into an array of shape (T, m); a non-finite
    sample is refused."""
    path = Path(path)
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if data.size == 0:
        raise ParseError(f"{path}: time series is empty")
    finite = np.isfinite(data)
    if not finite.all():
        t, c = np.unravel_index(int(np.argmin(finite)), data.shape)
        raise ParseError(f"{path}: sample {t}, channel {c} is not a finite number")
    return data
