"""Unit tests for serialization and the on-disk formats."""

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import specdist.fileio

from conftest import random_grid_spectrum, random_varma21
from specdist import cli
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
from specdist.spectra import (
    Autocovariance,
    GridSpectrum,
    RationalSpectrum,
    _mirror,
    default_omegas,
    autocov_to_spectrum,
    estimate_welch,
    rational_grid,
)

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


#: Signed zero, the smallest subnormal and a huge value.
SPECIAL_VALUES = np.array([-0.0, 5e-324, 1e300, 0.1, -2.5, 1.0] * 700)
SPECIAL_REPORT = DistanceReport(
    value=1e300, squared=-0.0, n_freq=len(SPECIAL_VALUES), per_freq_trace=SPECIAL_VALUES,
    alt_gap=SPECIAL_VALUES[::-1], commutation_residual=5e-324, flooring_count=3,
    is_lower_bound=True,
)


def test_json_float_arrays_match_per_entry_rendering():
    values, report = SPECIAL_VALUES, SPECIAL_REPORT
    assert json_dumps(values) == per_entry_json(values)
    assert json_dumps(values[:0]) == "[]"
    assert json_dumps(report) == (
        f'{{"value": 1.0000000000000001e+300, "squared": -0, "n_freq": {len(values)}, '
        f'"per_freq_trace": {per_entry_json(values)}, '
        '"commutation_residual": 4.9406564584124654e-324, "flooring_count": 3, '
        f'"is_lower_bound": true, "alt_gap": {per_entry_json(values[::-1])}}}'
    )
    # A report without the gap, as the transport distances give, has no such key.
    assert json_dumps(dataclasses.replace(report, alt_gap=None)) == (
        json_dumps(report).split(', "alt_gap"')[0] + "}")
    # A mirrored array repeats rows 1..N/2-1, and an all-zero one a single value.
    mirrored = _mirror(np.random.default_rng(3).normal(size=2049), 4096)
    for repeated in (mirrored, np.zeros(4096)):
        assert json_dumps(repeated) == per_entry_json(repeated)

    def refusal(array):
        with pytest.raises(ValueError) as exc:
            json_dumps(dataclasses.replace(report, alt_gap=array))
        return str(exc.value)

    # The error names the first non-finite value in array order, as
    # format_float words it; in bit order -inf would come after NaN.
    bad = values.copy()
    bad[4100] = np.nan
    assert refusal(bad) == f"refusing to serialize non-finite value {bad[4100]!r}"
    bad[10] = -np.inf
    assert refusal(bad) == f"refusing to serialize non-finite value {bad[10]!r}"


def per_entry_report_csv(report) -> str:
    """The report CSV with ``format_float`` per float cell and ``str`` per
    int cell."""
    meta = [("value", format_float(report.value)), ("squared", format_float(report.squared)),
            ("commutation_residual", format_float(report.commutation_residual)),
            ("flooring_count", str(report.flooring_count)),
            ("is_lower_bound", str(report.is_lower_bound).lower())]
    n = report.n_freq
    columns = [report.per_freq_trace] + ([] if report.alt_gap is None else [report.alt_gap])
    rows = zip(range(n), default_omegas(n), *columns)
    return ("".join(f"# {k}={v}\n" for k, v in meta)
            + "omega_index,omega,per_freq_trace" + ",alt_gap" * (len(columns) - 1) + "\n"
            + "".join(f"{l},{','.join(format_float(v) for v in vs)}\n" for l, *vs in rows))


def test_csv_report_matches_per_entry_rendering():
    # A mirrored column repeats rows 1..N/2-1, and an all-zero one a single value.
    mirrored = _mirror(np.random.default_rng(3).normal(size=2049), 4096)
    repeated = dataclasses.replace(SPECIAL_REPORT, n_freq=4096, per_freq_trace=mirrored,
                                   alt_gap=np.zeros(4096))
    for report in (SPECIAL_REPORT, repeated, dataclasses.replace(repeated, alt_gap=None)):
        # Line lists, so that a failure names the first differing row quickly.
        want = per_entry_report_csv(report).split("\n")
        assert cli._report_csv(report).split("\n") == want


def test_csv_report_refuses_the_first_non_finite_value_in_row_order():
    # Row 5's -inf comes before row 10's NaN, though the NaN's column is
    # rendered first.
    trace, gap = SPECIAL_VALUES.copy(), SPECIAL_VALUES[::-1].copy()
    trace[10], gap[5] = np.nan, -np.inf
    report = dataclasses.replace(SPECIAL_REPORT, per_freq_trace=trace, alt_gap=gap)
    with pytest.raises(ValueError) as exc:
        cli._report_csv(report)
    assert str(exc.value) == f"refusing to serialize non-finite value {gap[5]!r}"


def test_sidecar_path(tmp_path):
    assert sidecar_path(tmp_path / "x.csv").name == "x.meta.json"


def test_grid_csv_roundtrip_is_bitwise(tmp_path):
    grid = random_grid_spectrum(2, np.random.default_rng(5), 8)
    path = tmp_path / "grid.csv"
    write_grid_csv(path, grid)
    meta = json.loads(sidecar_path(path).read_text())
    assert meta == {"dim": 2, "n_freq": 8, "real_symmetry": grid.real_symmetry}
    back = read_grid_csv(path)
    assert np.array_equal(back.full(), grid.full())
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
        for (l, i, j), v in np.ndenumerate(grid.full())
    ]
    text = grid_csv_text(grid)
    assert text == "\n".join(expected) + "\n"
    path = tmp_path / "grid8.csv"
    write_grid_csv(path, grid)
    assert path.read_text() == text
    back = read_grid_csv(path)
    assert back.full().tobytes() == grid.full().tobytes()


def test_write_grid_csv_refuses_non_finite(tmp_path):
    values = np.ones((4, 2, 2), dtype=complex)
    values[1, 0, 1] = complex(1.0, np.inf)
    values[2, 1, 1] = np.nan
    grid = GridSpectrum(values=values)
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError) as exc:
        write_grid_csv(path, grid)
    # Same text format_float gives the first non-finite part in file order.
    assert str(exc.value) == f"refusing to serialize non-finite value {np.float64(np.inf)!r}"
    assert not path.exists()
    assert not sidecar_path(path).exists()


def per_entry_grid_text(grid) -> str:
    return "".join([GRID_HEADER_LINE + "\n"] + [
        f"{l},{i},{j},{float(v.real):.17g},{float(v.imag):.17g}\n"
        for (l, i, j), v in np.ndenumerate(grid.full())
    ])


def special_mirror(n_freq):
    """A build-made mirror of dim 2 whose rows 1..N/2-1 hold -0.0, 5e-324
    and 1e300; their images then hold 0.0, -5e-324 and -0.0."""
    rng = np.random.default_rng(n_freq)
    rows = np.zeros((n_freq // 2 + 1, 2, 2), dtype=complex)
    rows[:, 0, 0] = rows[:, 1, 1] = 1.5e300
    rows[1:, 0, 1] = rng.standard_normal(len(rows) - 1) + 1j * rng.standard_normal(len(rows) - 1)
    rows[:, 1, 0] = np.conj(rows[:, 0, 1])
    rows[0, 0, 1] = rows[0, 1, 0] = 0.0  # row 0 is its own image
    rows[1, 0, 1] = rows[1, 1, 0] = complex(-0.0, 0.0)
    rows[2, 0, 1], rows[2, 1, 0] = complex(0.5, 5e-324), complex(0.5, -5e-324)
    rows[3, 0, 0] = 1e300
    rows[4, 0, 1], rows[4, 1, 0] = complex(-0.25, -0.0), complex(-0.25, 0.0)
    rows[5, 0, 1], rows[5, 1, 0] = complex(-0.0, 5e-324), complex(-0.0, -5e-324)
    if n_freq % 2 == 0:
        rows[-1, 0, 1] = rows[-1, 1, 0] = 0.0  # so is row N/2
    grid = GridSpectrum.build(np.concatenate([rows, np.conj(rows[(n_freq + 1) // 2 - 1:0:-1])]))
    inner = grid.full()[1:n_freq // 2]
    assert np.any((inner.real == 0.0) & np.signbit(inner.real))
    assert np.any((inner.imag == 0.0) & np.signbit(inner.imag))
    assert np.any(inner.imag == 5e-324) and np.any(inner.real == 1e300)
    return grid


def welch_mirror(n_freq):
    return estimate_welch(np.random.default_rng(8).standard_normal((4 * n_freq, 3)), n_freq)


def whole_grid(n_freq):
    return random_grid_spectrum(3, np.random.default_rng(9), n_freq)


def direct_grid(n_freq):
    """A grid made without the build, not Hermitian: some lower entries are
    bitwise conjugates of their transposes, the rest are unrelated."""
    rng = np.random.default_rng(n_freq)
    values = rng.standard_normal((n_freq, 3, 3)) + 1j * rng.standard_normal((n_freq, 3, 3))
    values[:, 1, 0] = np.conj(values[:, 0, 1])
    values[1, 2, 0], values[1, 0, 2] = complex(-0.0, 5e-324), complex(-0.0, 5e-324)
    values[2, 2, 1], values[2, 1, 2] = complex(1e300, -0.0), complex(1e300, 0.0)
    return GridSpectrum(values=values)


def rendered_floats(grid) -> int:
    """How many floats the writer renders: the diagonal and upper triangle of
    rows 0..h-1 (h = N/2+1 for a mirror, N otherwise), and each lower entry
    there that is not bitwise the conjugate of its transpose."""
    v, h, m = grid.values, len(grid.values), grid.dim
    bits = [np.stack([x.real, x.imag], -1).view(np.uint64)
            for x in (v, np.conj(np.swapaxes(v, 1, 2)))]
    conjugate = (bits[0] == bits[1]).all(-1)
    lower = np.tri(m, k=-1, dtype=bool)
    return 2 * (h * m * (m + 1) // 2 + np.count_nonzero(lower & ~conjugate))


def file_values(path, shape) -> np.ndarray:
    """The numbers of a grid CSV written in entry order, without the build."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 3:].copy().view(complex).reshape(shape)


@pytest.mark.parametrize("make, n_freq, mirrored", [
    (special_mirror, 16, True), (special_mirror, 15, True), (welch_mirror, 64, True),
    (whole_grid, 12, False), (direct_grid, 9, False),
], ids=["build_specials", "build_odd_n", "welch", "build_whole", "direct"])
def test_grid_csv_text_of_a_mirror_matches_per_entry_rendering(tmp_path, monkeypatch,
                                                                make, n_freq, mirrored):
    grid = make(n_freq)
    assert grid.mirrored == mirrored
    rendered = []

    def counting(row_format, table):
        rendered.append(table.size)
        return format_rows(row_format, table)

    format_rows = specdist.fileio._format_rows
    monkeypatch.setattr(specdist.fileio, "_format_rows", counting)
    text = grid_csv_text(grid)
    assert text == per_entry_grid_text(grid)
    # Each distinct number is rendered once: a mirror's rows N/2+1..N-1 and
    # the lower entries that are conjugates of their transposes reuse text.
    assert sum(rendered) == rendered_floats(grid)
    path = tmp_path / "mirror.csv"
    write_grid_csv(path, grid)
    assert file_values(path, grid.full().shape).tobytes() == grid.full().tobytes()
    if make is not direct_grid:  # the read's build refuses a non-Hermitian grid
        back = read_grid_csv(path)
        assert back.full().tobytes() == grid.full().tobytes()
        assert back.mirrored == mirrored


@pytest.mark.parametrize("n_freq", [2, 15, 64])
def test_a_kept_half_writes_the_bytes_of_its_full_grid(tmp_path, n_freq):
    # Model, autocovariance and Welch grids keep rows 0..N/2; each writes the
    # CSV and sidecar bytes that its full grid, given whole, writes.
    rng = np.random.default_rng(n_freq)
    lags = np.array([np.eye(2), 0.3 * np.eye(2)])
    grids = (rational_grid(random_varma21(2, rng), n_freq),
             autocov_to_spectrum(Autocovariance(lags=lags), max(n_freq, 3)),
             estimate_welch(rng.standard_normal((1024, 2)), 64 if n_freq == 15 else n_freq,
                            window="hamming"))
    for grid in grids:
        assert grid.mirrored
        half, whole = tmp_path / "half.csv", tmp_path / "whole.csv"
        write_grid_csv(half, grid)
        write_grid_csv(whole, GridSpectrum(values=grid.full()))
        assert half.read_bytes() == whole.read_bytes()
        assert sidecar_path(half).read_bytes() == sidecar_path(whole).read_bytes()


@pytest.mark.parametrize("entries", [
    [((3, 1, 0), complex(np.nan, 1.0)), ((3, 0, 1), complex(1.0, -np.inf))],
    [((4, 1, 0), complex(2.0, np.inf)), ((2, 1, 1), np.nan)],
], ids=["lower_triangle", "image_row"])
def test_write_grid_csv_refuses_non_finite_at_a_reused_position(tmp_path, entries):
    # Each entry is set in a kept row l, which the file also holds, conjugated,
    # as row N-l: (3, 0, 1) as (13, 1, 0) text, (4, 1, 0) as row 12, (2, 1, 1) as row 14.
    grid = special_mirror(16)
    for index, value in entries:
        grid.values[index] = value
    full = grid.full()
    parts = np.stack([full.real, full.imag], -1).ravel()
    with pytest.raises(ValueError) as expected:
        format_float(parts[~np.isfinite(parts)][0])  # the first in file order
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError) as exc:
        write_grid_csv(path, grid)
    assert str(exc.value) == str(expected.value)
    assert not path.exists()
    assert not sidecar_path(path).exists()


def test_build_keeps_signed_zeros_so_a_grid_reads_back_bit_for_bit(tmp_path):
    values = np.zeros((4, 2, 2), dtype=complex)
    values[:, 0, 0] = values[:, 1, 1] = 1.0
    values[1, 0, 1], values[1, 1, 0] = complex(-0.0, 5e-324), complex(-0.0, -5e-324)
    values[3] = np.conj(values[1])
    grid = GridSpectrum.build(values)
    assert grid.full().tobytes() == values.tobytes()
    assert GridSpectrum.build(grid.full()).full().tobytes() == grid.full().tobytes()
    path = tmp_path / "zeros.csv"
    write_grid_csv(path, grid)
    assert read_grid_csv(path).full().tobytes() == grid.full().tobytes()


def test_a_grid_whose_images_hold_plus_zeros_reads_back_bit_for_bit(tmp_path):
    # Rows 1 and 3 are equal and real, with +0 imaginary parts: row 3 is
    # conj(row 1) by value, not by bits (that would hold -0), so the build
    # takes the grid whole and keeps row 3 as written.
    values = np.array([[[2.0, 0.5], [0.5, 1.0]], [[3.0, -0.25], [-0.25, 2.0]],
                       [[1.0, 0.0], [0.0, 1.5]], [[3.0, -0.25], [-0.25, 2.0]]], dtype=complex)
    path = tmp_path / "plus_zeros.csv"
    path.write_text(GRID_HEADER_LINE + "\n" + "".join(
        f"{l},{i},{j},{values[l, i, j].real:.17g},0\n" for l, i, j in np.ndindex(values.shape)))
    grid = read_grid_csv(path)
    assert not grid.mirrored
    assert grid.full().tobytes() == values.tobytes()


SPECIALS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, -2.5])


@st.composite
def written_grids(draw):
    """A grid at dims 1-4 and N 1-33, made by the build from a mirror's rows
    or a whole grid, or made directly and not Hermitian, and whether the build
    made it; its entries in both triangles are drawn from -0.0, 5e-324, 1e300
    and a few others."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 33))
    built, mirror = draw(st.booleans()), draw(st.booleans())
    shape = (n // 2 + 1 if mirror else n, m, m)
    values = draw(hnp.arrays(np.float64, shape + (2,), elements=SPECIALS)).view(complex)[..., 0]
    conj = np.conj(np.swapaxes(values, 1, 2))
    # Adding +0.0 turns a -0.0 part into +0.0: no longer a bitwise conjugate.
    conj = np.where(draw(hnp.arrays(bool, shape)), conj + 0.0, conj)
    lower = np.tri(m, k=-1, dtype=bool) & (built | draw(hnp.arrays(bool, shape)))
    values = np.where(lower, conj, values)
    if built:
        # Diagonally dominant, so positive definite; rising along the rows,
        # so that a whole grid is no mirror.
        values[:, range(m), range(m)] = 8e300 + 1e299 * np.arange(len(values))[:, None]
    if mirror:
        values = np.concatenate([values, np.conj(values[(n + 1) // 2 - 1:0:-1])])
    if built:
        return GridSpectrum.build(values), True
    return GridSpectrum(values=values), False


@settings(derandomize=True, deadline=None, database=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(made=written_grids())
def test_grid_csv_writer_matches_per_entry_rendering_on_generated_grids(tmp_path, made):
    grid, built = made
    assert grid_csv_text(grid) == per_entry_grid_text(grid)
    path = tmp_path / "generated.csv"
    write_grid_csv(path, grid)
    assert file_values(path, grid.full().shape).tobytes() == grid.full().tobytes()
    if built:
        assert read_grid_csv(path).full().tobytes() == grid.full().tobytes()


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

# Cases inside the grammar both readers share: (id, body after the header
# line, sidecar JSON or None, expected error fragment or None for a valid grid).
GRID_PARITY_CASES = [
    ("plain", TWO_ROWS, None, None),
    ("hermitian-2x2", HERMITIAN_2X2, None, None),
    ("quoted-fields", '"0",0,0,4,0\n1,"0",0,"4",0\n', None, None),
    ("blank-lines", "\n0,0,0,4,0\n\n\n1,0,0,4,0\n\n", None, None),
    ("crlf", TWO_ROWS.replace("\n", "\r\n"), None, None),
    ("header-only", "", None, "no data rows"),
    ("leading-plus", "+0,+0,+0,+4,-0\n+1,0,0,4,+0\n", None, None),
    ("whitespace", " 0 , 0 ,0,\t4 , 0\n1 ,0, 0,4,0 \n", None, None),
    ("negative-index", "0,0,0,4,0\n0,0,-1,4,0\n1,0,0,4,0\n", None, "entry (0,0,-1) out of range"),
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

# Cases outside that grammar, which numpy's reader refuses where the row loop
# accepted the file or worded the refusal otherwise: (id, body after the
# header line, sidecar JSON or None, fragment of numpy's message).
GRID_REFUSAL_CASES = [
    ("underscore-digits", "0,0,0,4,0\n0_1,0,0,4_0,0\n", None, "'0_1' to int64"),
    ("full-width-digit", "\uff10,0,0,4,0\n1,0,0,\uff14,0\n", None, "'\uff10' to int64"),
    ("whitespace-only-line", "0,0,0,4,0\n   \n1,0,0,4,0\n", None,
     "requires 5 columns but 1 were found"),
    ("int64-overflow-negative", "0,0,0,4,0\n-99999999999999999999,0,0,4,0\n", None,
     "'-99999999999999999999' to int64"),
    ("int64-overflow-positive", "0,0,0,4,0\n99999999999999999999,0,0,4,0\n",
     '{"dim": 1, "n_freq": 2}', "'99999999999999999999' to int64"),
    ("hash-inside-row", "0,0,0,4#x,0\n", None, "'4#x' to float64"),
    ("trailing-comma", "0,0,0,4,0,\n", None, "requires 5 columns but 6 were found"),
    ("too-few-fields", "0,0,0,4\n", None, "requires 5 columns but 4 were found"),
    ("float-index", "1.0,0,0,4,0\n", None, "'1.0' to int64"),
]


@pytest.mark.parametrize(
    "body, sidecar, error, refusal",
    [(*c[1:], None) for c in GRID_PARITY_CASES]
    + [(body, sidecar, None, refusal) for _, body, sidecar, refusal in GRID_REFUSAL_CASES],
    ids=[c[0] for c in GRID_PARITY_CASES + GRID_REFUSAL_CASES])
def test_read_grid_csv_matches_row_loop(tmp_path, body, sidecar, error, refusal):
    path = tmp_path / "grid.csv"
    path.write_bytes((GRID_HEADER_LINE + "\n" + body).encode())
    if sidecar is not None:
        sidecar_path(path).write_text(sidecar)
    if refusal is not None:
        with pytest.raises(ParseError) as got:
            read_grid_csv(path)
        assert str(got.value).startswith(f"{path}: ") and refusal in str(got.value)
        try:  # the case belongs here only if the row loop read it otherwise
            reference_read_grid_csv(path)
        except ParseError as exc:
            assert str(exc) != str(got.value)
        return
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
    assert got.full().tobytes() == want.full().tobytes()
    assert (got.real_symmetry, got.flooring_count) == (want.real_symmetry, want.flooring_count)


@pytest.mark.parametrize("kind, body, message", [
    ("grid", "0,0,0,4,0\n1,0,0,abc,0\n",
     "could not convert string 'abc' to float64 at row 1, column 4."),
    ("grid", "0,0,0,4,0\n1,0,0,4\n",
     "the dtype passed requires 5 columns but 4 were found at row 2; "
     "use `usecols` to select a subset and avoid this error"),
    ("series", "0.1,0.2\n0.3,x\n", "could not convert string 'x' to float64 at row 1, column 2."),
    ("series", "0.1,0.2\n0.3\n", "the number of columns changed from 2 to 1 at row 2; "
     "use `usecols` to select a subset and avoid this error"),
])
def test_csv_errors_count_data_rows_from_0_or_1_by_kind(tmp_path, kind, body, message):
    # Both errors name the second data row: a conversion error counts data
    # rows from 0, a field-count error from 1 (the grid header is no data row).
    path = tmp_path / f"{kind}.csv"
    path.write_text((GRID_HEADER_LINE + "\n" if kind == "grid" else "") + body)
    read = read_grid_csv if kind == "grid" else read_timeseries_csv
    with pytest.raises(ParseError) as got:
        read(path)
    assert str(got.value) == f"{path}: {message}"


def test_non_utf8_byte_is_one_refusal(tmp_path):
    # A bad byte in a grid body or a series is the decoder's message; in a
    # grid header it reads as U+FFFD, which fails the header check.
    grid, series, header = (tmp_path / f"{n}.csv" for n in ("grid", "series", "header"))
    grid.write_bytes(f"{GRID_HEADER_LINE}\n0,0,0,4,0\n0,0,0,\xff,0\n".encode("latin-1"))
    series.write_bytes(b"0.1,0.2\n0.3,\xff\n")
    header.write_bytes(b"omega_index,row,col,re,\xff\n0,0,0,4,0\n")
    for path, read in ((grid, read_grid_csv), (series, read_timeseries_csv)):
        with pytest.raises(ParseError) as got:
            read(path)
        assert str(got.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")
    with pytest.raises(ParseError) as got:
        read_grid_csv(header)
    assert str(got.value) == (f"{header}: expected header {GRID_HEADER_LINE}, "
                              "got omega_index,row,col,re,\ufffd")


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
    with pytest.raises(ParseError, match="time series is empty"):
        read_timeseries_csv(path)
