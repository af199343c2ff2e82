"""Unit tests for serialization and the on-disk formats."""

import csv
import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_grid_spectrum
from specdist.distances import DistanceReport
from specdist.errors import NotPositiveDefinite, ParseError
from specdist.fileio import (
    GRID_HEADER,
    format_float,
    grid_csv_text,
    json_dumps,
    load_json_object,
    read_grid_csv,
    read_json_source,
    read_timeseries_csv,
    sidecar_path,
    write_grid_csv,
)
from specdist.hermitian import PsdPolicy
from specdist.spectra import Autocovariance, GridSpectrum, RationalSpectrum

GRID_HEADER_LINE = "omega_index,row,col,re,im"


def test_format_float():
    assert format_float(1.0) == "1"
    assert format_float(0.1) == "0.10000000000000001"
    assert float(format_float(np.pi)) == np.pi
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            format_float(bad)


def test_json_dumps():
    payload = {"b": 1, "a": [True, False, None, 2, 0.5], "s": "x"}
    text = json_dumps(payload)
    assert text == '{"b": 1, "a": [true, false, null, 2, 0.5], "s": "x"}'
    assert json.loads(text) == payload
    assert json_dumps(np.float64(1.5)) == "1.5"
    assert json_dumps(np.int32(7)) == "7"
    with pytest.raises(TypeError):
        json_dumps(object())


def per_entry_json(values) -> str:
    return "[" + ", ".join(format_float(v) for v in values) + "]"


def test_json_float_arrays_match_per_entry_rendering():
    # Signed zero, the smallest subnormal and a huge value, past one block.
    values = np.array([-0.0, 5e-324, 1e300, 0.1, -2.5, 1.0] * 700)
    assert json_dumps(values) == per_entry_json(values)
    assert json_dumps(values[:0]) == "[]"
    report = DistanceReport(
        value=1e300, squared=-0.0, n_freq=len(values), per_freq_trace=values,
        alt_gap=values[::-1], commutation_residual=5e-324, flooring_count=3,
        is_lower_bound=True,
    )
    assert json_dumps(report) == (
        f'{{"value": 1.0000000000000001e+300, "squared": -0, "n_freq": {len(values)}, '
        f'"per_freq_trace": {per_entry_json(values)}, '
        f'"alt_gap": {per_entry_json(values[::-1])}, '
        '"commutation_residual": 4.9406564584124654e-324, "flooring_count": 3, '
        '"is_lower_bound": true}'
    )
    bad = values.copy()
    bad[4100] = np.nan
    with pytest.raises(ValueError) as expected:
        format_float(bad[4100])
    with pytest.raises(ValueError) as exc:
        json_dumps(dataclasses.replace(report, alt_gap=bad))
    assert str(exc.value) == str(expected.value)


def test_sidecar_path(tmp_path):
    assert sidecar_path(tmp_path / "x.csv").name == "x.meta.json"


def test_grid_csv_roundtrip_is_bitwise(tmp_path):
    grid = random_grid_spectrum(2, np.random.default_rng(5), 8)
    path = tmp_path / "grid.csv"
    write_grid_csv(path, grid)
    meta = json.loads(sidecar_path(path).read_text())
    assert meta == {"dim": 2, "n_freq": 8, "real_symmetry": grid.real_symmetry}
    back = read_grid_csv(path)
    assert np.array_equal(back.values, grid.values)
    assert back.real_symmetry == grid.real_symmetry
    assert path.read_text().splitlines()[0] == GRID_HEADER_LINE


def test_grid_csv_text_layout():
    grid = random_grid_spectrum(1, np.random.default_rng(6), 2)
    lines = grid_csv_text(grid).splitlines()
    assert lines[0] == GRID_HEADER_LINE
    assert len(lines) == 3
    assert lines[1].startswith("0,0,0,")


def test_grid_csv_text_matches_per_entry_rendering(tmp_path):
    # dim 8 with 80 frequencies spans more than one write block.
    grid = random_grid_spectrum(8, np.random.default_rng(7), 80)
    expected = [GRID_HEADER_LINE] + [
        f"{l},{i},{j},{float(v.real):.17g},{float(v.imag):.17g}"
        for (l, i, j), v in np.ndenumerate(grid.values)
    ]
    text = grid_csv_text(grid)
    assert text == "\n".join(expected) + "\n"
    path = tmp_path / "grid8.csv"
    write_grid_csv(path, grid)
    assert path.read_text() == text
    back = read_grid_csv(path)
    assert back.values.tobytes() == grid.values.tobytes()


def test_write_grid_csv_refuses_non_finite(tmp_path):
    values = np.ones((4, 2, 2), dtype=complex)
    values[1, 0, 1] = complex(1.0, np.inf)
    values[2, 1, 1] = np.nan
    grid = GridSpectrum(values=values, root=values, real_symmetry=False,
                        min_eigenvalue=np.nan, max_eigenvalue=np.nan)
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError) as exc:
        write_grid_csv(path, grid)
    # Same text format_float gives the first non-finite part in file order.
    assert str(exc.value) == f"refusing to serialize non-finite value {np.float64(np.inf)!r}"
    assert not path.exists()
    assert not sidecar_path(path).exists()


def reference_read_grid_csv(path):
    """Row-by-row reader with a per-entry scatter, which read_grid_csv must match."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(c.strip() for c in next(reader))
        except StopIteration:
            raise ParseError(f"{path}: empty grid file") from None
        if header != GRID_HEADER:
            raise ParseError(f"{path}: expected header {','.join(GRID_HEADER)}, "
                             f"got {','.join(header)}")
        entries = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 5:
                raise ParseError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            try:
                entries.append((int(row[0]), int(row[1]), int(row[2]),
                                float(row[3]), float(row[4])))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    if not entries:
        raise ParseError(f"{path}: grid file has no data rows")
    n_freq = max(e[0] for e in entries) + 1
    m = max(max(e[1] for e in entries), max(e[2] for e in entries)) + 1
    meta_file = sidecar_path(path)
    if meta_file.exists():
        meta = json.loads(meta_file.read_text())
        md, mn = int(meta.get("dim", m)), int(meta.get("n_freq", n_freq))
        if md < m or mn < n_freq:
            raise ParseError(f"{path}: data indices exceed sidecar shape "
                             f"(dim {md}, n_freq {mn})")
        m, n_freq = md, mn
    table = {}
    for l, i, j, re, im in entries:
        if not (0 <= l < n_freq and 0 <= i < m and 0 <= j < m):
            raise ParseError(f"{path}: entry ({l},{i},{j}) out of range")
        table[l, i, j] = (re, im)
    if len(table) < n_freq * m * m:
        raise ParseError(f"{path}: grid is missing entries")
    values = np.empty((n_freq, m, m), dtype=complex)
    for (l, i, j), (re, im) in sorted(table.items()):
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ParseError(f"{path}: entry ({l},{i},{j}) is not a finite number")
        values[l, i, j] = re + 1j * im
    return GridSpectrum.build(values, name=str(path))


TWO_ROWS = "0,0,0,4,0\n1,0,0,4,0\n"
HERMITIAN_2X2 = "0,0,0,2,0\n0,0,1,0.5,0.25\n0,1,0,0.5,-0.25\n0,1,1,3,0\n"

# (id, body after the header line, sidecar JSON or None, expected error
# fragment or None for a valid grid)
GRID_PARITY_CASES = [
    ("plain", TWO_ROWS, None, None),
    ("hermitian-2x2", HERMITIAN_2X2, None, None),
    ("quoted-fields", '"0",0,0,4,0\n1,"0",0,"4",0\n', None, None),
    ("underscore-digits", "0,0,0,4,0\n0_1,0,0,4_0,0\n", None, None),
    ("full-width-digit", "\uff10,0,0,4,0\n1,0,0,\uff14,0\n", None, None),
    ("hash-inside-row", "0,0,0,4#x,0\n", None, "could not convert string to float"),
    ("trailing-comma", "0,0,0,4,0,\n", None, "expected 5 fields, got 6"),
    ("too-few-fields", "0,0,0,4\n", None, "expected 5 fields, got 4"),
    ("float-index", "1.0,0,0,4,0\n", None, "invalid literal for int()"),
    ("blank-lines", "\n0,0,0,4,0\n\n   \n1,0,0,4,0\n\n", None, None),
    ("crlf", TWO_ROWS.replace("\n", "\r\n"), None, None),
    ("header-only", "", None, "no data rows"),
    ("leading-plus", "+0,+0,+0,+4,-0\n+1,0,0,4,+0\n", None, None),
    ("whitespace", " 0 , 0 ,0,\t4 , 0\n1 ,0, 0,4,0 \n", None, None),
    ("negative-index", "0,0,0,4,0\n0,0,-1,4,0\n1,0,0,4,0\n", None, "entry (0,0,-1) out of range"),
    ("int64-overflow-negative", "0,0,0,4,0\n-99999999999999999999,0,0,4,0\n", None,
     "entry (-99999999999999999999,0,0) out of range"),
    ("int64-overflow-positive", "0,0,0,4,0\n99999999999999999999,0,0,4,0\n",
     '{"dim": 1, "n_freq": 2}', "exceed sidecar shape"),
    ("int64-max", "0,0,0,4,0\n9223372036854775807,0,0,4,0\n",
     '{"dim": 1, "n_freq": 2}', "exceed sidecar shape"),
    ("missing-entry", "0,0,0,4,0\n2,0,0,4,0\n", None, "grid is missing entries"),
    ("nan-entry", "0,0,0,4,0\n1,0,0,nan,0\n", None, "entry (1,0,0) is not a finite number"),
    ("inf-entry", "0,0,0,4,0\n1,0,0,4,-inf\n", None, "entry (1,0,0) is not a finite number"),
    ("nan-and-missing", "0,0,0,nan,0\n2,0,0,4,0\n", None, "grid is missing entries"),
    # Enough rows to fill the grid, but a duplicate stands in for row 1.
    ("duplicate-leaves-hole", "0,0,0,4,0\n0,0,0,5,0\n2,0,0,4,0\n", None,
     "grid is missing entries"),
    ("sidecar-pads-grid", TWO_ROWS, '{"dim": 1, "n_freq": 4}', "grid is missing entries"),
    ("duplicate-last-wins", TWO_ROWS + "0,0,0,9,0\n1,0,0,3,0\n0,0,0,7,0\n", None, None),
    ("duplicate-quoted", TWO_ROWS + '"0",0,0,9,0\n', None, None),
    ("duplicate-overrides-nan", "0,0,0,nan,0\n1,0,0,4,0\n0,0,0,5,0\n", None, None),
]


@pytest.mark.parametrize("body, sidecar, error", [c[1:] for c in GRID_PARITY_CASES],
                         ids=[c[0] for c in GRID_PARITY_CASES])
def test_read_grid_csv_matches_row_loop(tmp_path, body, sidecar, error):
    path = tmp_path / "grid.csv"
    path.write_bytes((GRID_HEADER_LINE + "\n" + body).encode())
    if sidecar is not None:
        sidecar_path(path).write_text(sidecar)
    try:
        want = reference_read_grid_csv(path)
    except ParseError as exc:
        assert error is not None and error in str(exc)
        with pytest.raises(ParseError) as got:
            read_grid_csv(path)
        assert str(got.value) == str(exc)
        return
    assert error is None
    got = read_grid_csv(path)
    assert got.values.tobytes() == want.values.tobytes()
    assert (got.real_symmetry, got.flooring_count) == (want.real_symmetry, want.flooring_count)


def test_read_grid_csv_errors(tmp_path):
    cases = {
        "empty.csv": "",
        "header.csv": "omega_index,row,col,re\n0,0,0,4\n",
        "fields.csv": f"{GRID_HEADER_LINE}\n0,0,0,4\n",
        "number.csv": f"{GRID_HEADER_LINE}\n0,0,0,abc,0\n",
        "missing.csv": f"{GRID_HEADER_LINE}\n0,0,0,4,0\n2,0,0,4,0\n",
    }
    for name, body in cases.items():
        path = tmp_path / name
        path.write_text(body)
        with pytest.raises(ParseError):
            read_grid_csv(path)


def test_read_grid_csv_sidecar_mismatch(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text(f"{GRID_HEADER_LINE}\n0,0,0,4,0\n1,0,0,4,0\n")
    sidecar_path(path).write_text('{"dim": 1, "n_freq": 1}')
    with pytest.raises(ParseError):
        read_grid_csv(path)
    # A shape that two rows cannot fill is refused before it is allocated.
    sidecar_path(path).write_text('{"dim": 1, "n_freq": 1000000000000000}')
    with pytest.raises(ParseError, match="missing entries"):
        read_grid_csv(path)
    sidecar_path(path).write_text("{broken")
    with pytest.raises(ParseError):
        read_grid_csv(path)


def test_load_json_object(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("[1, 2]")
    with pytest.raises(ParseError):
        load_json_object(path)
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_json_object(path)
    path.write_text('{"a": 1}')
    assert load_json_object(path) == {"a": 1}


def test_read_model_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"ar": [0.5], "ma": [1.0], "noise_cov": 1.0}')
    model = read_json_source(path)
    assert isinstance(model, RationalSpectrum)
    assert model.ar.shape == (1, 1, 1)
    assert model.ma.shape == (1, 1, 1)
    assert model.noise_cov.shape == (1, 1)

    path.write_text('{"ma": [[[1.0, 0.0], [0.0, 1.0]]], "noise_cov": [[2.0, 0.0], [0.0, 1.0]]}')
    model = read_json_source(path)
    assert model.dim == 2
    assert model.ar.shape == (0, 2, 2)

    # A bare matrix is one coefficient.
    path.write_text('{"ar": [[0.5, 0.0], [0.0, 0.25]], "ma": [[[1.0, 0.0], [0.0, 1.0]]], '
                    '"noise_cov": [[1.0, 0.0], [0.0, 1.0]]}')
    model = read_json_source(path)
    assert model.ar.shape == (1, 2, 2)
    assert model.ar[0, 1, 1] == 0.25

    path.write_text('{"ma": [1.0], "noise_cov": [[[1.0]]]}')
    with pytest.raises(ParseError, match="noise_cov must be a matrix"):
        read_json_source(path)

    # The policy reaches the noise_cov check.
    path.write_text('{"ma": [[[1.0, 0.0], [0.0, 1.0]]], "noise_cov": [[1.0, 0.0], [0.0, 1e-13]]}')
    with pytest.raises(NotPositiveDefinite):
        read_json_source(path)
    assert read_json_source(path, PsdPolicy(floor_eps=1e-14)).dim == 2

    for body in (
        '{"noise_cov": 1.0}',
        '{"ma": [1.0]}',
        '{"ma": [[[[1.0]]]], "noise_cov": 1.0}',
        '{"ma": ["x"], "noise_cov": 1.0}',
        # json reads NaN, Infinity and overflowing literals; all are refused.
        '{"ar": [NaN], "ma": [1.0], "noise_cov": 1.0}',
        '{"ma": [1.0, Infinity], "noise_cov": 1.0}',
        '{"ma": [1.0], "noise_cov": -1e999}',
        '{"ma": [1.0], "noise_cov": 1%s}' % ("0" * 400),
    ):
        path.write_text(body)
        with pytest.raises(ParseError):
            read_json_source(path)


def test_read_autocov_json(tmp_path):
    path = tmp_path / "a.json"
    path.write_text('{"lags": [1.25, 0.5]}')
    acov = read_json_source(path)
    assert isinstance(acov, Autocovariance)
    assert acov.lags.shape == (2, 1, 1)
    assert acov.lags[1, 0, 0] == 0.5

    path.write_text('{"lags": [[1.25], [0.5]]}')
    assert read_json_source(path).lags.shape == (2, 1, 1)

    path.write_text('{"lags": [[[2.0, 0.0], [0.0, 2.0]]]}')
    assert read_json_source(path).lags.shape == (1, 2, 2)

    # The policy reaches the R(0) check.
    path.write_text('{"lags": [[[1.0, 0.0], [0.0, -1e-6]]]}')
    with pytest.raises(NotPositiveDefinite):
        read_json_source(path)
    assert read_json_source(path, PsdPolicy(negativity_tol=1e-3)).dim == 2

    for body in ('{"x": 1}', '{"lags": [[[[1.0]]]]}', '{"lags": [1.0, NaN]}',
                 '{"lags": [[[Infinity]]]}'):
        path.write_text(body)
        with pytest.raises(ParseError):
            read_json_source(path)


def test_read_timeseries_csv(tmp_path):
    path = tmp_path / "ts.csv"
    path.write_text("0.1,0.2\n-0.3,0.4\n")
    data = read_timeseries_csv(path)
    assert data.shape == (2, 2)
    assert data[1, 0] == -0.3

    path.write_text("1.0\n2.0\n3.0\n")
    assert read_timeseries_csv(path).shape == (3, 1)

    path.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError):
        read_timeseries_csv(path)

    for bad in ("nan", "inf", "-inf"):
        path.write_text(f"0.1,0.2\n0.3,{bad}\n")
        with pytest.raises(ParseError, match="sample 1, channel 1 is not a finite"):
            read_timeseries_csv(path)

    path.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on empty input
        with pytest.raises(ParseError):
            read_timeseries_csv(path)
