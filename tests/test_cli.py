"""CLI behavior: frozen outputs, determinism, and end-to-end flows."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specdist.spectra
from cli_cases import CASES, HERE, run_case
from conftest import DATA_DIR, count_eigensolves, record_shapes, refuse_inverse
from specdist import cli
from specdist.fileio import read_grid_csv, read_json_source, sidecar_path
from specdist.hermitian import PsdPolicy


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
    assert payload["horizons"] == [16, 32, 64, 128]


@pytest.mark.parametrize("x, y", [
    ({"ar": [0.99], "ma": [1.0], "noise_cov": 1.0},
     {"ar": [0.5], "ma": [1.0], "noise_cov": 1.0}),
    ({"ma": [1.0, 1.0], "noise_cov": 1.0}, {"ma": [1.0], "noise_cov": 1.0}),
], ids=["ar0.99_vs_ar0.5", "ma1_unit_zero_vs_white"])
def test_oracle_default_schedule_runs_in_full_on_slow_tails(tmp_path, x, y):
    # A near-unit root and a spectral zero leave tail terms the 1/(h+1)
    # fit does not model, so the stop rule never fires.
    px, py = tmp_path / "x.json", tmp_path / "y.json"
    px.write_text(json.dumps(x))
    py.write_text(json.dumps(y))
    code, stdout, _ = run_case(("oracle", str(px), str(py)))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["horizons"] == [16, 32, 64, 128, 256, 512, 1024]
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
    mean_level = float(np.mean(grid.values.real))
    assert abs(mean_level - 1.0) < 0.05


def test_estimate_output_reads_back_as_a_mirror(tmp_path, monkeypatch):
    # Welch grids are exact mirrors and the grid CSV round-trips every
    # float, so each read-back build and the coupling run on rows 0..N/2.
    rng = np.random.default_rng(2718)
    outs = []
    for name in ("x", "y"):
        series = tmp_path / f"{name}.csv"
        np.savetxt(series, rng.standard_normal((2048, 2)), fmt="%.17g", delimiter=",")
        outs.append(str(tmp_path / f"{name}_grid.csv"))
        assert run_case(("estimate", str(series), "--out", outs[-1], "--seg-len", "64"))[0] == 0
    calls = count_eigensolves(monkeypatch)
    code, stdout, _ = run_case(("dist", *outs))
    assert code == 0 and json.loads(stdout)["n_freq"] == 64
    assert calls == [(33, 2, 2)] * 3
    assert read_grid_csv(outs[0]).real_symmetry


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
    (("oracle", "data/ar1.json", "data/white.json", "--horizons", "8,4"),
     "horizons must be strictly increasing, got [8, 4]"),
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
                         ids=["seg_len", "overlap", "horizons_decreasing",
                              "horizons_empty", "horizons_not_int", "n_freq",
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


def test_linalg_error_exits_1(monkeypatch):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", diverge)
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
    r0 = float(np.mean(grid.values[:, 0, 0].real))
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


def test_info_grid_decomposes_once(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    # flat4.csv is an exact mirror, so its build decomposes rows 0..N/2.
    assert run_case(("info", "data/flat4.csv"))[0] == 0
    assert calls == [(5, 1, 1)]


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
