"""CLI behavior: frozen outputs, determinism, and end-to-end flows."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cli_cases import CASES, HERE, run_case
from conftest import count_eigensolves
from specdist.fileio import read_grid_csv, sidecar_path


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
    assert json.loads(stdout)["converged"] is True


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
    assert run_case(("info", "data/flat4.csv"))[0] == 0
    assert calls == [(8, 1, 1)]


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
