"""File formats and deterministic serialization.

Every output is rendered here: JSON and CSV reports and grid files.  All
floats are rendered with 17 significant digits so values survive a
write/read round trip bit-exactly, a non-finite value is refused, and all
containers serialize in a fixed key order (a dataclass in its field
order); identical inputs therefore produce byte-identical output files.
A float array in a JSON or CSV report, like a grid, renders each distinct
number once.

Formats:

* grid spectrum: CSV with header ``omega_index,row,col,re,im``, written in
  blocks with each distinct number rendered once, plus a JSON sidecar (same
  stem, ``.meta.json``) holding dim, n_freq and the real-symmetry flag;
* rational model: JSON object with ``ar``, ``ma``, ``noise_cov`` arrays;
* autocovariance: JSON object with a ``lags`` array of matrices (a JSON
  source is classified by these keys);
* time series: CSV of numeric rows, one sample per row, one column per
  channel, no header.

Both CSV kinds are parsed by numpy's C reader alone (``np.loadtxt``):
comma-delimited fields, empty lines skipped, numpy's number syntax.  A
grid body also takes ``"``-quoted fields and has no comment character; a
series line may end in a ``#`` comment.  Whatever the reader rejects, a
byte that is not UTF-8 included, is a ``ParseError`` carrying its message.
"""

from __future__ import annotations

import dataclasses
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

#: One grid CSV body row as numpy's reader parses it.
_GRID_ROW = np.dtype([("l", np.int64), ("i", np.int64), ("j", np.int64),
                      ("re", np.float64), ("im", np.float64)])

#: Rows rendered per format call.
_WRITE_BLOCK_ROWS = 4096


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    if not np.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    return f"{float(x):.17g}"


def _refuse_non_finite(values: np.ndarray) -> None:
    """Raise :func:`format_float`'s error for the first non-finite entry, in C order."""
    finite = np.isfinite(values)
    if not finite.all():
        format_float(values.flat[np.argmin(finite)])  # always raises


def _format_rows(row_format: str, table: np.ndarray) -> str:
    """Apply ``row_format`` to each row of a 2-D table in one ``%`` call
    (``%.17g`` is :func:`format_float`'s format)."""
    return row_format * len(table) % tuple(table.ravel().tolist())


def _float_texts(values) -> list:
    """:func:`format_float` of each entry, each distinct value rendered once."""
    values = np.ascontiguousarray(values, dtype=float)
    _refuse_non_finite(values)  # in array order, so the first bad value is named
    bits, index = np.unique(values.view(np.uint64), return_inverse=True)
    texts = _format_rows("%.17g\n", bits.view(float)[:, None]).split("\n")
    return [texts[i] for i in index.tolist()]


def _csv_text(obj, meta: tuple, columns: dict) -> str:
    """CSV text: a ``# key=value`` line per ``meta`` field of ``obj``,
    rendered as in JSON, a header, then a line per element of the equally
    long 1-D ``columns``; integer columns render as Python ints."""
    lines = [f"# {k}={json_dumps(getattr(obj, k))}\n" for k in meta]
    cols = [np.asarray(c) for c in columns.values()]
    _refuse_non_finite(np.stack(cols, axis=-1))  # names the first bad value in row order
    texts = [c.tolist() if c.dtype.kind in "iu" else _float_texts(c) for c in cols]
    head = "".join(lines) + ",".join(columns) + "\n"
    return head + _format_rows(",".join(["%s"] * len(cols)) + "\n",
                               np.array(texts, dtype=object).T)


def json_dumps(obj) -> str:
    """Deterministic JSON: fixed float rendering, insertion-ordered keys,
    dataclasses by field order; a key or field holding None is left out."""
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
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f":
        out.append("[" + ", ".join(_float_texts(obj)) + "]")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _emit({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate((k, v) for k, v in obj.items() if v is not None):
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


def _grid_csv_blocks(grid: GridSpectrum):
    """Yield :func:`grid_csv_text` in blocks once the whole grid is checked.
    Each cell of the kept rows ``0..h-1`` (``h = N/2+1`` if ``mirrored``, else
    ``N``) is rendered once as ``re,im``; a lower entry bitwise ``conj`` of its
    transpose, and a mirror's row ``N-l`` (held, yielded last), flip ``im`` in
    that text."""
    n, m, h = grid.n_freq, grid.dim, len(grid.values)
    parts = np.ascontiguousarray(grid.values, dtype=complex).view(float).reshape(h, m, m, 2)
    _refuse_non_finite(parts)
    yield ",".join(GRID_HEADER) + "\n"
    row = "".join(f"@,{i},{j},%s\n" for i in range(m) for j in range(m))  # @: omega_index

    def lines(labels, texts):
        return "".join([row.replace("@", str(l)) for l in labels]) % tuple(texts.flat)

    step, images = max(1, _WRITE_BLOCK_ROWS // (m * m)), []
    for s in range(0, h, step):
        block = parts[s:min(s + step, h)]
        bits = block.view(np.uint64)
        conj = np.swapaxes(bits, 1, 2) ^ np.array([0, 1 << 63], dtype=np.uint64)
        reused = (bits == conj).all(-1) & np.tri(m, k=-1, dtype=bool)
        pos = np.cumsum(~reused).reshape(reused.shape) - 1
        src = np.where(reused, np.swapaxes(pos, 1, 2), pos)
        text = _format_rows("%.17g,%.17g\n", block[~reused])
        flipped = text.replace(",-", ",@").replace(",", ",-").replace(",-@", ",")
        cells = np.array((text + flipped).split("\n"), dtype=object)
        k = (len(cells) - 1) // 2  # cell c's flipped text is at c + k
        yield lines(range(s, s + len(block)), cells[src + k * reused])
        lo, hi = max(s, 1), min(s + step, n - h + 1)  # sources of image rows
        if lo < hi:
            images.append(lines(range(n - hi + 1, n - lo + 1),
                                cells[(src + k * ~reused)[lo - s:hi - s][::-1]]))
    yield from reversed(images)


def grid_csv_text(grid: GridSpectrum) -> str:
    """CSV body for a grid spectrum (header plus one line per entry).

    Raises
    ------
    ValueError
        If any value is non-finite, with the message of :func:`format_float`.
    """
    return "".join(_grid_csv_blocks(grid))


def write_grid_csv(path, grid: GridSpectrum) -> None:
    """Write a grid spectrum CSV block by block, together with its metadata
    sidecar; a non-finite value leaves neither file."""
    path = Path(path)
    blocks = _grid_csv_blocks(grid)
    header = next(blocks)  # the whole grid is checked before the file opens
    with open(path, "w") as fh:
        fh.write(header)
        fh.writelines(blocks)
    meta = {"dim": grid.dim, "n_freq": grid.n_freq, "real_symmetry": grid.real_symmetry}
    sidecar_path(path).write_text(json_dumps(meta) + "\n")


def _loadtxt(path: Path, **kw) -> np.ndarray:
    """``np.loadtxt`` on a comma-delimited file: numpy's C reader is the one
    CSV parser, and anything it rejects, undecodable bytes included, is a
    ``ParseError`` carrying its message.  An empty body yields an empty array.
    Its row number counts data rows (not ``skiprows``, empty or comment
    lines): from 0 in a conversion error (``could not convert string 'x' to
    float64 at row 0, column 4.``, columns from 1), from 1 in a field-count
    error (``the number of columns changed from 2 to 1 at row 2``)."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", ".*input contained no data", UserWarning)
        try:
            return np.loadtxt(path, delimiter=",", **kw)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None


def read_grid_csv(path, policy: PsdPolicy = DEFAULT_POLICY) -> GridSpectrum:
    """Load a grid spectrum CSV, consulting the sidecar when present.

    A repeated ``(omega_index, row, col)`` entry overrides earlier ones.

    Raises
    ------
    ParseError
        On a bad header, malformed row, out-of-range index, missing or
        non-finite grid entry, or a sidecar that is not a JSON object with
        integer ``dim`` and ``n_freq`` or that contradicts the data.
    """
    path = Path(path)
    with open(path, errors="replace") as fh:  # U+FFFD fails the header check
        line = fh.readline()
    if not line:
        raise ParseError(f"{path}: empty grid file")
    header = tuple(c.strip() for c in line.split(","))
    if header != GRID_HEADER:
        raise ParseError(f"{path}: expected header {','.join(GRID_HEADER)}, "
                         f"got {','.join(header)}")
    rows = _loadtxt(path, skiprows=1, comments=None, quotechar='"', ndmin=1,
                    dtype=_GRID_ROW)
    if not rows.size:
        raise ParseError(f"{path}: grid file has no data rows")
    l, i, j, re, im = (rows[name] for name in _GRID_ROW.names)

    n_freq = int(l.max()) + 1
    m = max(int(i.max()), int(j.max())) + 1

    meta_file = sidecar_path(path)
    if meta_file.exists():
        meta = load_json_object(meta_file)
        for key in ("dim", "n_freq"):
            if key in meta and type(meta[key]) is not int:
                raise ParseError(f"{meta_file}: {key!r} must be an integer, "
                                 f"got {json.dumps(meta[key])}")
        md, mn = meta.get("dim", m), meta.get("n_freq", n_freq)
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
    slot = (l * m + i) * m + j
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
    values = np.stack([re, im], axis=-1).view(complex)  # re + 1j * im loses a -0.0
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
    data = _loadtxt(path, ndmin=2)
    if data.size == 0:
        raise ParseError(f"{path}: time series is empty")
    finite = np.isfinite(data)
    if not finite.all():
        t, c = np.unravel_index(int(np.argmin(finite)), data.shape)
        raise ParseError(f"{path}: sample {t}, channel {c} is not a finite number")
    return data
