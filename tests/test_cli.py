"""CLI behavior: frozen outputs, determinism, and end-to-end flows."""

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import specdist.spectra
import specdist.toeplitz
from cli_cases import CASES, HERE, run_case
from conftest import (
    DATA_DIR,
    count_closed_forms,
    count_eigensolves,
    random_varma21,
    record_shapes,
    refuse_inverse,
)
from specdist import cli
from specdist.errors import NonHermitianInput, NotPositiveDefinite
from specdist.fileio import read_grid_csv, read_json_source, sidecar_path, write_grid_csv
from specdist.hermitian import PsdPolicy, bures_w2_squared, coupling_trace, sqrt_psd_many
from specdist.spectra import Autocovariance, GridSpectrum, RationalSpectrum, rational_grid
from specdist.toeplitz import build_block_toeplitz


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_frozen_case(case):
    code, out, err = run_case(case.argv)
    assert code == case.expected_exit
    assert out == case.golden_out.read_text()
    assert err == case.golden_err.read_text()


def test_dist_oracle_run_twice_identical():
    argv = ("dist", "data/ar1.json", "data/white.json", "--n-freq", "256",
            "--oracle", "--horizons", "4,8,16")
    first = run_case(argv)
    second = run_case(argv)
    assert first[0] == 0
    assert first == second
    payload = json.loads(first[1])
    assert payload["oracle"]["converged"] is True


def test_oracle_identical_models_all_zero():
    code, stdout, _ = run_case(
        ("oracle", "data/ar1.json", "data/ar1.json",
         "--horizons", "2,4,8", "--n-freq", "64")
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["per_step_values"] == [0, 0, 0]
    assert payload["extrapolated_limit"] == 0
    assert payload["converged"] is True


def test_oracle_default_schedule_converges():
    code, stdout, _ = run_case(("oracle", "data/ar1.json", "data/ma1.json"))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["converged"] is True
    # Geometrically decaying lags: the tail fit settles at the earliest stop.
    assert payload["horizons"] == [16, 24, 32, 48]


@pytest.mark.parametrize("x, y, stop", [
    ({"ar": [0.99], "ma": [1.0], "noise_cov": 1.0},
     {"ar": [0.5], "ma": [1.0], "noise_cov": 1.0}, 512),
    ({"ma": [1.0, 1.0], "noise_cov": 1.0}, {"ma": [1.0], "noise_cov": 1.0}, 512),
    ({"ar": [0.999], "ma": [1.0], "noise_cov": 1.0},
     {"ar": [0.5], "ma": [1.0], "noise_cov": 1.0}, 1024),
], ids=["ar0.99_vs_ar0.5", "ma1_unit_zero_vs_white", "ar0.999_vs_ar0.5"])
def test_oracle_default_schedule_runs_in_full_on_slow_tails(tmp_path, x, y, stop):
    # A near-unit root and a spectral zero leave tail terms the 1/(h+1)
    # fit does not model: the stop rule fires only at 512, or for
    # AR(0.999) never, and then the whole schedule runs.
    px, py = tmp_path / "x.json", tmp_path / "y.json"
    px.write_text(json.dumps(x))
    py.write_text(json.dumps(y))
    code, stdout, _ = run_case(("oracle", str(px), str(py)))
    assert code == 0
    payload = json.loads(stdout)
    ladder = specdist.toeplitz.DEFAULT_HORIZONS
    assert payload["horizons"] == list(ladder[: ladder.index(stop) + 1])
    assert payload["converged"] is True


def simulate_ar1(a: float, n: int, rng) -> np.ndarray:
    noise = rng.standard_normal(n + 500)
    x = np.empty(n + 500)
    x[0] = noise[0]
    for t in range(1, n + 500):
        x[t] = a * x[t - 1] + noise[t]
    return x[500:]


def write_series(path: Path, data: np.ndarray) -> None:
    np.savetxt(path, data, fmt="%.17g")


def test_estimate_writes_deterministic_grid(tmp_path):
    series = tmp_path / "series.csv"
    write_series(series, np.random.default_rng(31415).standard_normal(2**14))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code, stdout, stderr = run_case(
            ("estimate", str(series), "--out", str(out), "--seg-len", "256")
        )
        assert code == 0 and stderr == ""
        outs.append((out, stdout))
    (out_a, sum_a), (out_b, sum_b) = outs

    summary = json.loads(sum_a)
    assert list(summary) == ["dim", "n_freq", "real_symmetry", "flooring_count", "out"]
    assert summary["dim"] == 1 and summary["n_freq"] == 256

    # Same input, same bytes: the estimate pipeline has no hidden state.
    assert out_a.read_bytes() == out_b.read_bytes()
    assert sidecar_path(out_a).read_bytes() == sidecar_path(out_b).read_bytes()
    assert sum_a.replace(str(out_a), "") == sum_b.replace(str(out_b), "")

    grid = read_grid_csv(out_a)
    mean_level = float(np.mean(grid.full().real))
    assert abs(mean_level - 1.0) < 0.05


def test_estimate_output_reads_back_as_a_mirror(tmp_path, monkeypatch):
    # Welch grids are exact mirrors and the grid CSV round-trips every
    # float, so each read-back build, the factor of x and the coupling run
    # on rows 0..N/2, at m = 2 through the closed form.
    rng = np.random.default_rng(2718)
    outs = []
    for name in ("x", "y"):
        series = tmp_path / f"{name}.csv"
        np.savetxt(series, rng.standard_normal((2048, 2)), fmt="%.17g", delimiter=",")
        outs.append(str(tmp_path / f"{name}_grid.csv"))
        assert run_case(("estimate", str(series), "--out", outs[-1], "--seg-len", "64"))[0] == 0
    calls = count_eigensolves(monkeypatch)
    closed = count_closed_forms(monkeypatch)
    code, stdout, _ = run_case(("dist", *outs))
    assert code == 0 and json.loads(stdout)["n_freq"] == 64
    assert (closed, calls) == ([(33, 2, 2)] * 4, [])
    grid = read_grid_csv(outs[0])
    assert grid.real_symmetry and grid.mirrored


def test_dist_series_against_true_model(tmp_path):
    series = tmp_path / "ar1_series.csv"
    write_series(series, simulate_ar1(0.5, 2**17, np.random.default_rng(20240817)))
    code, stdout, stderr = run_case(("dist", str(series), "data/ar1.json"))
    assert code == 0 and stderr == ""
    payload = json.loads(stdout)
    assert payload["n_freq"] == 512
    assert 0.0 < payload["value"] < 0.1


def test_oracle_reports_forced_truncation_as_not_converged():
    code, stdout, stderr = run_case(
        ("oracle", "data/ar1.json", "data/white.json",
         "--max-lag", "1", "--horizons", "4,8,16", "--n-freq", "512")
    )
    assert code == 0 and stderr == ""
    payload = json.loads(stdout)
    assert payload["converged"] is False
    # The spectral target comes from the untruncated model, so the limit of
    # the truncated finite-horizon values must miss it.
    gap = abs(payload["extrapolated_limit"] - payload["spectral_target"])
    assert gap > 1e-3 * payload["spectral_target"]


@pytest.mark.parametrize("argv", [
    ("oracle", "data/acov_ma1.json", "data/flat_acov.json", "--horizons", "2,4"),
    ("oracle", "data/ar1.json", "data/white.json", "--horizons", "2,4"),
    ("dist", "data/acov_ma1.json", "data/flat_acov.json", "--oracle", "--horizons", "2,4"),
])
@pytest.mark.parametrize("lag", ["-1", "-2"])
def test_negative_max_lag_is_a_parse_error(argv, lag):
    assert run_case(argv + ("--max-lag", lag)) == (
        3, "", f"error: ParseError: --max-lag must be nonnegative, got {lag}\n"
    )


OPTION_VALUE_ERRORS = [
    (("dist", "data/flat4.csv", "data/flat1.csv", "--seg-len", "100"),
     "--seg-len must be a power of two, got 100"),
    (("dist", "data/flat4.csv", "data/flat1.csv", "--overlap", "1"),
     "--overlap must lie in [0, 1), got 1.0"),
    # np.hanning(2) is [0, 0]; refused before the series is read.
    (("estimate", "data/series_tiny.csv", "--out", "unwritten.csv", "--seg-len", "2"),
     "the hann window of length 2 has zero energy"),
    (("dist", "data/series_tiny.csv", "data/series_tiny.csv", "--seg-len", "2"),
     "the hann window of length 2 has zero energy"),
    (("oracle", "data/ar1.json", "data/white.json", "--horizons", "8,4"),
     "horizons must be strictly increasing, got [8, 4]"),
    (("oracle", "data/ar1.json", "data/white.json", "--horizons=-1,4"),
     "horizons must be nonnegative, got [-1, 4]"),
    (("oracle", "data/ar1.json", "data/white.json", "--horizons", ","),
     "horizon list is empty"),
    (("oracle", "data/ar1.json", "data/white.json", "--horizons", "a"),
     "cannot parse horizon list 'a'"),
    (("oracle", "data/ar1.json", "data/white.json", "--n-freq", "100"),
     "--n-freq must be a power of two, got 100"),
    # The oracle's options would be ignored on dist without --oracle, so
    # they are refused before any of them is parsed.
    (("dist", "data/flat4.csv", "data/flat1.csv", "--horizons", "4,8", "--max-lag", "2"),
     "--horizons acts only with --oracle"),
    (("dist", "data/flat4.csv", "data/flat1.csv", "--horizons", "8,4"),
     "--horizons acts only with --oracle"),
    (("dist", "data/flat4.csv", "data/flat1.csv", "--max-lag", "-1"),
     "--max-lag acts only with --oracle"),
    # A grid or series source fixes the grid size.
    (("dist", "data/flat4.csv", "data/flat1.csv", "--n-freq", "64"),
     "--n-freq 64 conflicts with data/flat4.csv, which fixes the grid at 8 points"),
    (("dist", "data/ar1.json", "data/flat1_n16.csv", "--n-freq", "4096"),
     "--n-freq 4096 conflicts with data/flat1_n16.csv, which fixes the grid at 16 points"),
    (("dist", "data/series_tiny.csv", "data/ar1.json", "--n-freq", "1024"),
     "--n-freq 1024 conflicts with data/series_tiny.csv, which fixes the grid at 512 points"),
]


@pytest.mark.parametrize("argv, message", OPTION_VALUE_ERRORS,
                         ids=["seg_len", "overlap", "zero_energy_window_estimate",
                              "zero_energy_window_dist", "horizons_decreasing",
                              "horizons_negative", "horizons_empty", "horizons_not_int", "n_freq",
                              "oracle_options_without_oracle", "horizons_without_oracle",
                              "max_lag_without_oracle", "n_freq_vs_grid",
                              "n_freq_vs_second_grid", "n_freq_vs_series"])
def test_bad_option_value_is_a_parse_error(argv, message):
    assert run_case(argv) == (3, "", f"error: ParseError: {message}\n")


def test_matching_n_freq_is_accepted():
    golden = next(c for c in CASES if c.name == "dist_flat_json")
    assert run_case(golden.argv + ("--n-freq", "8")) == (0, golden.golden_out.read_text(), "")


def test_n_freq_not_given():
    code, stdout, stderr = run_case(("dist", "data/acov_ma1.json", "data/ar1.json"))
    assert (code, stderr) == (0, "")
    assert json.loads(stdout)["n_freq"] == 4096


def test_n_freq_not_given_holds_every_autocovariance_lag(tmp_path):
    # 3,000 lags need 6,001 points: the default grid grows to 8192.
    long = tmp_path / "long.json"
    long.write_text(json.dumps({"lags": [0.5**k for k in range(3001)]}))
    code, stdout, stderr = run_case(("dist", str(long), "data/ar1.json"))
    assert (code, stderr) == (0, "")
    assert json.loads(stdout)["n_freq"] == 8192
    code, stdout, stderr = run_case(("oracle", str(long), "data/ar1.json"))
    assert (code, stderr) == (0, "")
    assert json.loads(stdout)["converged"] is True
    # An explicit grid size is taken as given.
    assert run_case(("dist", str(long), "data/ar1.json", "--n-freq", "4096")) == (
        4, "", "error: GridTooCoarse: grid of 4096 frequencies cannot resolve lags up "
               "to 3000 (need at least 6001)\n"
    )


@pytest.mark.parametrize("window", ["hamming", "rectangular"])
def test_windows_with_energy_pass_at_seg_len_2(tmp_path, window):
    out = str(tmp_path / "grid.csv")
    for argv in (("estimate", "data/series_tiny.csv", "--out", out),
                 ("dist", "data/series_tiny.csv", "data/series_tiny.csv")):
        code, _, stderr = run_case(argv + ("--seg-len", "2", "--window", window))
        assert (code, stderr) == (0, "")


def test_window_check_does_not_build_a_long_window(tmp_path):
    # A window of 2**22 samples takes 32 MB; the series has too few samples
    # for one segment, and the models do not read --seg-len at all.
    seg = ("--seg-len", str(2**22))
    tracemalloc.start()
    try:
        code, _, stderr = run_case(("estimate", "data/series_tiny.csv",
                                    "--out", str(tmp_path / "grid.csv")) + seg)
        estimate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert run_case(("dist", "data/ar1.json", "data/white.json") + seg)[0] == 0
        dist_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4 and stderr.startswith("error: TooFewSegments: ")
    assert estimate_peak < 2**20 and dist_peak < 2**23


@pytest.mark.parametrize("argv", [
    ("dist", "data/ar1.json", "data/white.json", "--oracle"),
    ("oracle", "data/ar1.json", "data/white.json"),
], ids=["dist", "oracle"])
@pytest.mark.parametrize("lag", ["32", "40"])
def test_model_max_lag_beyond_grid_bandwidth(argv, lag):
    # A model's lags come from the run's grid, so a cut at or beyond
    # n_freq/2 is refused as for any other grid-derived source.
    argv = argv + ("--n-freq", "64", "--horizons", "2,4,8")
    assert run_case(argv + ("--max-lag", lag)) == (
        4, "", f"error: LagTooLarge: max_lag {lag} out of range for a 64-point grid "
               "(must be below 32)\n"
    )
    assert run_case(argv + ("--max-lag", "31"))[0] == 0


@pytest.mark.parametrize("argv, message", [
    (("info", "golden/info_model.out.txt"),
     "golden/info_model.out.txt: unsupported source type (expected .json or .csv)"),
    (("estimate", "data/ar1.json", "--out", "/dev/null"),
     "data/ar1.json: estimate requires a time-series CSV"),
], ids=["suffix", "estimate_json"])
def test_unsupported_source_is_a_parse_error(argv, message):
    assert run_case(argv) == (3, "", f"error: ParseError: {message}\n")


@pytest.mark.parametrize("case", [c for c in CASES if c.expected_exit == 0],
                         ids=lambda c: c.name)
def test_out_writes_the_golden_bytes(tmp_path, case):
    out = tmp_path / "out.txt"
    assert run_case(case.argv + ("--out", str(out))) == (0, "", "")
    assert out.read_bytes() == case.golden_out.read_bytes()


def test_hellinger_semantics_bounds_the_transport_distance():
    # tr[(A^1/2 B A^1/2)^1/2] >= tr[A^1/2 B^1/2], with equality when A and B
    # commute, so the Hellinger distance is the larger, equal on scalars.
    for pair, opts, tol in ((("var2_x.json", "var2_y.json"), ("--n-freq", "16"), None),
                            (("flat4.csv", "flat1.csv"), (), 1e-12)):
        runs = [run_case(("dist", *(f"data/{name}" for name in pair), *opts,
                          "--semantics", semantics)) for semantics in ("elliptical", "hellinger")]
        assert [(code, err) for code, _, err in runs] == [(0, "")] * 2
        w2, hell = (json.loads(out) for _, out, _ in runs)
        assert "alt_gap" not in w2 and len(hell["alt_gap"]) == hell["n_freq"]
        if tol is None:
            assert hell["squared"] > w2["squared"] and min(hell["alt_gap"]) > 0.0
        else:
            assert abs(hell["squared"] - w2["squared"]) <= tol * w2["squared"]


def test_hellinger_semantics_refuses_the_oracle():
    # The oracle converges to the transport distance, never to the Hellinger one.
    code, out, err = run_case(("dist", "data/var2_x.json", "data/var2_y.json",
                               "--semantics", "hellinger", "--oracle"))
    assert (code, out) == (3, "")
    assert err == ("error: ParseError: --oracle checks the transport distance, "
                   "not --semantics hellinger\n")


def write_model(path, model) -> str:
    path.write_text(json.dumps({key: getattr(model, key).tolist()
                                for key in ("ar", "ma", "noise_cov")}))
    return str(path)


@pytest.mark.parametrize("m", [1, 2, 8])
def test_model_dist_eigensolves(tmp_path, monkeypatch, m):
    # Counts of batched LAPACK calls (leading axis > 1): no eigh at any dim;
    # an inverse for each transfer function, a Cholesky gate for each of the
    # x and y builds, one Cholesky factor of x and one eigvalsh for the
    # coupling, except at m = 2, where the closed forms do all of it.
    rng = np.random.default_rng(27 + m)
    paths = [write_model(tmp_path / f"{side}.json", random_varma21(m, rng)) for side in "xy"]
    calls = {name: [] for name in ("eigh", "eigvalsh", "cholesky", "inv")}
    for name, shapes in calls.items():
        record_shapes(monkeypatch, (name,), shapes)
    code, out, _ = run_case(("dist", *paths, "--n-freq", "256"))
    assert code == 0 and json.loads(out)["squared"] > 0.0
    batched = {name: [s for s in shapes if len(s) == 3 and s[0] > 1]
               for name, shapes in calls.items()}
    half = (129, m, m)
    if m == 2:
        assert batched == {"eigh": [], "eigvalsh": [], "cholesky": [], "inv": []}
    else:
        assert batched == {"eigh": [], "eigvalsh": [half], "cholesky": [half] * 3,
                           "inv": [half] * 2}


def test_linalg_error_exits_1(monkeypatch):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", diverge)
    assert run_case(("dist", "data/flat4.csv", "data/flat1.csv")) == (
        1, "", "error: LinAlgError: Eigenvalues did not converge\n"
    )


@pytest.mark.parametrize("argv", [
    ("dist", "data/flat4.csv", "data/flat1.csv", "--format", "xml"),
    ("dist", "data/flat4.csv", "data/flat1.csv", "--n-freq", "abc"),
    ("dist", "data/flat4.csv"),
    (),
    ("info", "data/flat4.csv", "--format", "csv"),
    ("estimate", "data/series_tiny.csv", "--out", "/dev/null", "--n-freq", "8"),
], ids=["bad_choice", "bad_int", "missing_positional", "no_subcommand",
        "info_format", "estimate_n_freq"])
def test_usage_error_is_a_parse_error(argv):
    code, out, err = run_case(argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ParseError: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dist", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: specdist dist ")


OPTIONS = {
    "dist": {"--floor-eps", "--negativity-tol", "--out", "--n-freq", "--format",
             "--seg-len", "--overlap", "--window", "--horizons", "--max-lag",
             "--semantics", "--oracle"},
    "estimate": {"--floor-eps", "--negativity-tol", "--out",
                 "--seg-len", "--overlap", "--window"},
    "oracle": {"--floor-eps", "--negativity-tol", "--out", "--n-freq", "--format",
               "--horizons", "--max-lag"},
    "info": {"--floor-eps", "--negativity-tol", "--out"},
}


def test_subcommand_options_pinned():
    # Each subcommand declares exactly the options it reads.
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
             for name, p in sub.choices.items()}
    assert found == OPTIONS


def test_policy_reaches_r0_check(tmp_path):
    src = tmp_path / "r0.json"
    src.write_text('{"lags": [[[1.0, 0.0], [0.0, -1e-6]]]}')
    code, stdout, stderr = run_case(("info", str(src), "--negativity-tol", "1e-3"))
    assert (code, stderr) == (0, "")
    assert json.loads(stdout)["r0_min_eig"] == -1e-6
    # The oracle's --max-lag re-slice is checked under the same policy.
    code, _, stderr = run_case(("oracle", str(src), str(src), "--negativity-tol", "1e-3",
                                "--max-lag", "0", "--horizons", "2,4"))
    assert (code, stderr) == (0, "")
    assert run_case(("info", str(src))) == (
        5, "",
        "error: NotPositiveDefinite: R(0) has eigenvalue -1.000000e-06 below "
        "the tolerated negativity band -1.000e-10\n",
    )


def test_policy_reaches_noise_cov_check(tmp_path):
    src = tmp_path / "model.json"
    src.write_text('{"ma": [[[1.0, 0.0], [0.0, 1.0]]], "noise_cov": [[1.0, 0.0], [0.0, 1e-13]]}')
    code, stdout, stderr = run_case(("info", str(src), "--floor-eps", "1e-14"))
    assert (code, stderr) == (0, "")
    assert json.loads(stdout)["noise_cov_min_eig"] == 1e-13
    assert run_case(("info", str(src)))[0] == 5


ORACLE_MA1 = ("dist", "data/ma1.json", "data/white.json", "--n-freq", "64",
              "--oracle", "--horizons", "2,4")


def test_floor_eps_reaches_oracle_autocov():
    # The MA(1) spectrum 1.25 + cos(w) dips to 0.25 at w = pi.  A floor of
    # 0.2 times its peak 2.25 lifts the dip, so R(0), the mean of the
    # spectrum, rises above 1.25 in the oracle's autocovariance too.
    code, stdout, _ = run_case(ORACLE_MA1)
    assert code == 0
    assert json.loads(stdout)["oracle"]["trace_target_x"] == pytest.approx(1.25, rel=1e-12)
    code, stdout, _ = run_case(ORACLE_MA1 + ("--floor-eps", "0.2"))
    assert code == 0
    grid = specdist.spectra.rational_grid(
        read_json_source(DATA_DIR / "ma1.json"), 64, PsdPolicy(floor_eps=0.2)
    )
    r0 = float(np.mean(grid.full()[:, 0, 0].real))
    assert r0 > 1.25 + 1e-3
    assert json.loads(stdout)["oracle"]["trace_target_x"] == pytest.approx(r0, rel=1e-12)


def test_oracle_evaluates_each_model_once(monkeypatch):
    calls = []
    rational_grid = specdist.spectra.rational_grid

    def counted(model, *args, **kwargs):
        calls.append(model.dim)
        return rational_grid(model, *args, **kwargs)

    monkeypatch.setattr(specdist.spectra, "rational_grid", counted)
    assert run_case(ORACLE_MA1)[0] == 0
    assert calls == [1, 1]


def test_json_source_read_once(monkeypatch):
    reads = []
    read_text = Path.read_text

    def counted(self, *args, **kwargs):
        reads.append(self.name)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    assert run_case(("dist", "data/ar1.json", "data/acov_ma1.json", "--n-freq", "64"))[0] == 0
    assert reads == ["ar1.json", "acov_ma1.json"]


def test_info_grid_decomposes_once(tmp_path, monkeypatch):
    # flat4.csv writes +0 imaginary parts in rows 5..7, which are not
    # bitwise the conjugates (-0) of rows 3..1, so its build gates, and info
    # decomposes, the whole grid.  With -0 there the grid is an exact
    # mirror, and both take rows 0..N/2, as a written dim-3 model grid does.
    lines = (DATA_DIR / "flat4.csv").read_text().splitlines()
    mirror = tmp_path / "flat4_mirror.csv"
    images = [line.removesuffix(",0") + ",-0" for line in lines[6:]]
    mirror.write_text("\n".join(lines[:6] + images) + "\n")
    model = tmp_path / "model3.csv"
    write_grid_csv(model, rational_grid(random_varma21(3, np.random.default_rng(33)), 64))
    choleskys = []
    calls = count_eigensolves(monkeypatch, choleskys)
    for path in ("data/flat4.csv", str(mirror), str(model)):
        assert run_case(("info", path))[0] == 0
    assert calls == choleskys == [(8, 1, 1), (5, 1, 1), (33, 3, 3)]


def grid_csv(rows) -> str:
    return "omega_index,row,col,re,im\n" + "".join(
        f"{l},{i},{j},{v.real:.17g},{v.imag:.17g}\n"
        for (l, i, j), v in np.ndenumerate(np.asarray(rows, dtype=complex)))


ASYMMETRIC = np.array([[1.0, 0.5], [0.0, 1.0]])
INDEFINITE = np.diag([1.0, -1.0])
OVERFLOWING = np.stack([np.diag([1e308, 1e308]), np.eye(2)])

#: Each failure of the symmetry or the negativity rule, by the library call
#: that meets it and, where the command line reaches it, an ``info`` source.
RULE_CASES = {
    "asymmetric_grid": (lambda: GridSpectrum.build(np.stack([ASYMMETRIC, np.eye(2)])),
                        ("grid.csv", grid_csv([ASYMMETRIC, np.eye(2)])), NonHermitianInput),
    "overflowing_grid": (lambda: GridSpectrum.build(OVERFLOWING),
                         ("grid.csv", grid_csv(OVERFLOWING)), NonHermitianInput),
    "asymmetric_r0": (lambda: Autocovariance(ASYMMETRIC[None]),
                        ("acov.json", json.dumps({"lags": [ASYMMETRIC.tolist()]})),
                        NonHermitianInput),
    "asymmetric_noise_cov": (
        lambda: RationalSpectrum(np.zeros((0, 2, 2)), np.eye(2)[None], ASYMMETRIC),
        ("model.json", json.dumps({"ma": [np.eye(2).tolist()], "noise_cov": ASYMMETRIC.tolist()})),
        NonHermitianInput),
    "asymmetric_operand": (lambda: bures_w2_squared(np.eye(2), ASYMMETRIC), None,
                           NonHermitianInput),
    "indefinite_grid": (lambda: GridSpectrum.build(np.stack([INDEFINITE, np.eye(2)])),
                        ("grid.csv", grid_csv([INDEFINITE, np.eye(2)])), NotPositiveDefinite),
    "indefinite_r0": (lambda: Autocovariance(INDEFINITE[None]),
                        ("acov.json", json.dumps({"lags": [INDEFINITE.tolist()]})),
                        NotPositiveDefinite),
    "indefinite_stacked_covariance": (
        lambda: build_block_toeplitz(Autocovariance(np.array([[[1.0]], [[1.5]]])), 1), None,
        NotPositiveDefinite),
    "indefinite_coupling": (lambda: coupling_trace(np.eye(2), INDEFINITE), None,
                            NotPositiveDefinite),
    "indefinite_root": (lambda: sqrt_psd_many(INDEFINITE[None]), None, NotPositiveDefinite),
}


@pytest.mark.parametrize("case", RULE_CASES)
def test_each_rule_failure_has_one_class_and_exit_code(tmp_path, case):
    # The rule, not the caller, picks the class; RuntimeWarnings are errors.
    call, source, error = RULE_CASES[case]
    with pytest.raises(error, match=r"2\*\*1023" if case == "overflowing_grid" else None):
        call()
    if source:
        path = tmp_path / source[0]
        path.write_text(source[1])
        code, out, err = run_case(("info", str(path)))
        assert (code, out) == ({NonHermitianInput: 1, NotPositiveDefinite: 5}[error], "")
        assert err.startswith(f"error: {error.__name__}: ")


@pytest.mark.parametrize("src, shape", [("data/var2_x.json", (2, 2)),
                                        ("data/acov_ma1.json", (1, 1))])
def test_info_source_decomposes_once(monkeypatch, src, shape):
    # info prints the smallest eigenvalue of noise_cov or R(0) that the
    # source's constructor already computed for its definiteness check,
    # and a model's stability radius from the constructor's one companion
    # eigensolve (var2_x is a VAR(1) at dim 2, so its companion is 2x2).
    calls = count_eigensolves(monkeypatch)
    companions = []
    record_shapes(monkeypatch, ("eigvals",), companions)
    assert run_case(("info", src))[0] == 0
    assert calls == [shape]
    assert companions == ([] if "acov" in src else [(2, 2)])


def test_exactly_singular_ar_exits_1(monkeypatch):
    refuse_inverse(monkeypatch)
    code, out, err = run_case(("dist", "data/ar1.json", "data/white.json", "--n-freq", "64"))
    assert (code, out) == (1, "")
    assert err.startswith("error: SingularAr: ")


def test_value_error_exits_1(monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("no distance")

    monkeypatch.setattr(cli.distances, "spectral_w2", fail)
    assert run_case(("dist", "data/flat4.csv", "data/flat1.csv")) == (
        1, "", "error: ValueError: no distance\n"
    )


def test_memory_error_prints_one_line():
    # 2^54 points ask for a 128 PiB frequency array, more than any address
    # space, so the allocation fails at once and nothing is allocated.
    code, out, err = run_case(("dist", "data/ar1.json", "data/white.json",
                               "--n-freq", str(2**54)))
    assert (code, out) == (1, "")
    assert err.startswith("error: MemoryError: ") and err.count("\n") == 1


def plain_and_scaled(tmp_path, c, command, names, *opts):
    """Run ``command`` on the models ``data/<name>.json`` and again on
    copies with each ``noise_cov`` times ``c``: (plain run, scaled run)."""
    for name in names:
        model = json.loads((DATA_DIR / name).read_text())
        model["noise_cov"] = (c * np.asarray(model["noise_cov"])).tolist()
        (tmp_path / name).write_text(json.dumps(model))
    return tuple(run_case((command, *(str(d / name) for name in names), *opts))
                 for d in (DATA_DIR, tmp_path))


def test_distance_at_a_tiny_scale(tmp_path):
    # Both noise covariances times 2^-600: the squared distance scales by
    # 2^-600 although every coupling product is far below the float range.
    c = 2.0**-600
    plain, scaled = plain_and_scaled(tmp_path, c, "dist", ("var2_x.json", "var2_y.json"),
                                     "--n-freq", "64")
    assert scaled[0] == 0 and scaled[2] == ""
    squared = [json.loads(run[1])["squared"] for run in (plain, scaled)]
    assert abs(squared[1] / c - squared[0]) <= 1e-12 * squared[0]


def test_commutation_residual_at_a_huge_scale(tmp_path):
    # Times 2^600, Sx Sy alone would overflow; the residual is formed on
    # copies scaled by powers of two, so it is finite and unchanged.
    plain, scaled = plain_and_scaled(tmp_path, 2.0**600, "dist",
                                     ("var2_x.json", "var2_y.json"), "--n-freq", "64")
    assert scaled[0] == 0 and scaled[2] == ""
    residual = [json.loads(run[1])["commutation_residual"] for run in (plain, scaled)]
    assert residual[0] == residual[1] and 0.0 < residual[0] <= np.sqrt(2.0)


def test_oracle_verdict_at_a_tiny_scale(tmp_path):
    # A lag cut that the verdict must flag.  Its floors scale with the
    # pair, so at 2^-600 it reads false as the plain run does.
    runs = plain_and_scaled(tmp_path, 2.0**-600, "oracle", ("ar1.json", "white.json"),
                            "--max-lag", "1", "--horizons", "4,8,16", "--n-freq", "512")
    for code, stdout, stderr in runs:
        assert (code, stderr) == (0, "") and json.loads(stdout)["converged"] is False


def test_autocovariance_without_lags_exits_4(tmp_path):
    src = tmp_path / "acov.json"
    src.write_text('{"lags": []}\n')
    assert run_case(("info", str(src))) == (
        4, "", "error: DimensionMismatch: autocovariance lags must have shape "
               "(K+1, m, m), got (0, 1, 1)\n"
    )


@pytest.mark.parametrize("text", ["", "\n\n\n"], ids=["empty", "blank_lines"])
def test_empty_series_exits_3_without_a_warning(tmp_path, text):
    src = tmp_path / "series.csv"
    src.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_case(("info", str(src)))
    assert result == (3, "", f"error: ParseError: {src}: time series is empty\n")
    assert caught == []


def test_oracle_on_one_point_grids(tmp_path):
    # The default cut of a 1-point grid keeps lag 0 alone.
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    for path, value in ((x, "2.0"), (y, "0.5")):
        path.write_text(f"omega_index,row,col,re,im\n0,0,0,{value},0\n")
    code, out, err = run_case(("dist", str(x), str(y), "--oracle"))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["n_freq"] == 1 and payload["oracle"]["converged"] is True


def test_installed_entry_point():
    result = subprocess.run(
        ["specdist", "info", "data/ar1.json"],
        cwd=HERE, capture_output=True, timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout == (HERE / "golden" / "info_model.out.txt").read_bytes()
    assert result.stderr == b""


def test_module_invocation_matches_entry_point():
    # The child runs in tests/, so a relative PYTHONPATH entry would not
    # resolve there; put the checkout's src/ first by absolute path.
    src = str((HERE.parent / "src").resolve())
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "specdist", "info", "data/ar1.json"],
        cwd=HERE, capture_output=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert result.returncode == 0
    assert result.stdout == (HERE / "golden" / "info_model.out.txt").read_bytes()


@pytest.mark.parametrize("sidecar", ['[1, 2]', '"text"', '{"dim": null}', '{"n_freq": 1e400}',
                                     '{"dim": "x"}', '{"dim": 1.5}', '{"dim": true}'])
def test_malformed_grid_sidecar_exits_3(tmp_path, sidecar):
    grid = tmp_path / "grid.csv"
    grid.write_text((DATA_DIR / "flat1.csv").read_text())
    sidecar_path(grid).write_text(sidecar)
    code, out, err = run_case(("info", str(grid)))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: ParseError: {sidecar_path(grid)}: ") and err.count("\n") == 1


def test_unwritable_output_exits_2(tmp_path):
    code, out, err = run_case(("dist", "data/flat4.csv", "data/flat1.csv", "--out", str(tmp_path)))
    assert (code, out) == (2, "")
    assert err.startswith("error: IsADirectoryError: ") and err.count("\n") == 1


def write_2x2_grid(path: Path, value, n_freq: int = 8) -> None:
    """A grid CSV holding the 2x2 matrix ``value`` at every frequency, or
    row ``l`` of an ``(n_freq, 2, 2)`` stack at frequency ``l``."""
    value = np.broadcast_to(np.asarray(value, dtype=complex), (n_freq, 2, 2)).tolist()
    rows = [f"{l},{r},{c},{value[l][r][c].real!r},{value[l][r][c].imag!r}"
            for l in range(n_freq) for r in range(2) for c in range(2)]
    path.write_text("\n".join(["omega_index,row,col,re,im", *rows]) + "\n")


def test_non_hermitian_grid_exits_1(tmp_path):
    grid = tmp_path / "grid.csv"
    write_2x2_grid(grid, [[2.0, 0.5], [0.3, 2.0]])
    code, out, err = run_case(("info", str(grid)))
    assert (code, out) == (1, "")
    assert err.startswith("error: NonHermitianInput: ") and err.count("\n") == 1


def test_complex_process_oracle_exits_1(tmp_path):
    # Hermitian and positive definite, but the spectrum of a complex
    # process: the grid lacks the real-process symmetry the oracle needs.
    grid = tmp_path / "grid.csv"
    write_2x2_grid(grid, [[2.0, 0.5j], [-0.5j, 2.0]])
    code, out, _ = run_case(("info", str(grid)))
    assert code == 0 and json.loads(out)["real_symmetry"] is False
    code, out, err = run_case(("dist", str(grid), str(grid), "--oracle"))
    assert (code, out) == (1, "")
    assert err.startswith("error: NonRealResidue: ") and err.count("\n") == 1


def test_info_flag_agrees_with_its_residual(tmp_path):
    # An anti-Hermitian 1e-9 in row 1 is within the Hermitian tolerance and
    # is dropped with the anti-Hermitian part: the kept grid is flat.
    values = np.broadcast_to(2.0 * np.eye(2), (8, 2, 2)).copy()
    values[1] += np.array([[0.0, 1e-9], [-1e-9, 0.0]])
    grid = tmp_path / "grid.csv"
    write_2x2_grid(grid, values)
    code, out, err = run_case(("info", str(grid)))
    assert (code, err) == (0, "")
    summary = json.loads(out)
    assert (summary["symmetry_residual"], summary["real_symmetry"]) == (0, True)


def test_oracle_refuses_exactly_the_grids_flagged_not_real(tmp_path):
    omegas = specdist.spectra.default_omegas(8)
    for eps, want in ((1e-8, 1), (1e-12, 0)):
        grid = tmp_path / f"grid{eps:g}.csv"
        write_2x2_grid(grid, (2.0 + eps * np.sin(omegas))[:, None, None] * np.eye(2))
        summary = json.loads(run_case(("info", str(grid)))[1])
        assert summary["real_symmetry"] is (want == 0)
        code, out, err = run_case(("dist", str(grid), str(grid), "--oracle",
                                   "--horizons", "2,4"))
        assert code == want
        if want:
            assert out == ""
            assert err.startswith("error: NonRealResidue: ") and err.count("\n") == 1
        else:
            assert err == "" and json.loads(out)["oracle"]["converged"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--floor-eps", "--negativity-tol"])
def test_non_finite_policy_coefficient_exits_3(flag, value):
    assert run_case(("info", "data/indefinite.csv", f"{flag}={value}")) == (
        3, "", "error: ParseError: PsdPolicy coefficients must be finite and nonnegative\n"
    )


def test_warning_prints_one_line(monkeypatch):
    # The fake per-step integrand of the oracle tests gives a kinked tail.
    per_step = {17: 1.0, 33: 2.0, 65: 1.5}
    monkeypatch.setattr(specdist.toeplitz, "_integrand",
                        lambda a, b, policy: (per_step[a.shape[0]] * a.shape[0], None, None))
    argv = ("oracle", "data/ar1.json", "data/white.json", "--horizons", "16,32,64")
    code, out, err = run_case(argv)
    assert code == 0 and json.loads(out)["fit_degenerate"]
    assert err == ("warning: FitDegenerateWarning: finite-horizon tail is non-monotone; "
                   "the 1/(i+1) extrapolation may be unreliable\n")
