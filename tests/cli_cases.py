"""Shared table of CLI invocations with frozen outputs.

Each case runs ``specdist.cli.main`` in-process from the tests directory
and is compared byte for byte against the files in golden/.  Only
invocations whose output is deterministic on a fixed machine belong here:
fixed inputs through linear algebra and FFT code paths, no sample-based
estimation.  ``golden/regen.py`` rewrites the frozen files after a
deliberate output change.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from specdist import cli

HERE = Path(__file__).parent
GOLDEN_DIR = HERE / "golden"


@dataclass(frozen=True)
class CliCase:
    name: str
    argv: tuple
    expected_exit: int

    @property
    def golden_out(self) -> Path:
        return GOLDEN_DIR / f"{self.name}.out.txt"

    @property
    def golden_err(self) -> Path:
        return GOLDEN_DIR / f"{self.name}.err.txt"


def run_case(argv) -> tuple:
    """Run the CLI in-process from tests/; return (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    prev = os.getcwd()
    os.chdir(HERE)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(prev)
    return code, out.getvalue(), err.getvalue()


CASES = (
    # Exact arithmetic: flat scalar grids 4 and 1 give distance 1.
    CliCase("dist_flat_json", ("dist", "data/flat4.csv", "data/flat1.csv"), 0),
    CliCase("dist_flat_csv",
            ("dist", "data/flat4.csv", "data/flat1.csv", "--format", "csv"), 0),
    CliCase("dist_flat_gelbrich",
            ("dist", "data/flat4.csv", "data/flat1.csv",
             "--semantics", "gelbrich"), 0),
    # Identical sources short-circuit to exact zeros.
    CliCase("dist_identical_models",
            ("dist", "data/ar1.json", "data/ar1.json", "--n-freq", "64"), 0),
    CliCase("dist_acov_oracle",
            ("dist", "data/acov_ma1.json", "data/acov_ma1.json",
             "--n-freq", "8", "--oracle", "--horizons", "2,4,8"), 0),
    CliCase("oracle_identical_csv",
            ("oracle", "data/acov_ma1.json", "data/acov_ma1.json",
             "--n-freq", "8", "--horizons", "2,4,8", "--format", "csv"), 0),
    CliCase("oracle_ma1_vs_flat",
            ("oracle", "data/acov_ma1.json", "data/flat_acov.json",
             "--n-freq", "512", "--horizons", "16,32,64"), 0),
    CliCase("info_model", ("info", "data/ar1.json"), 0),
    CliCase("info_autocov", ("info", "data/acov_ma1.json"), 0),
    CliCase("info_grid", ("info", "data/flat4.csv"), 0),
    CliCase("info_series", ("info", "data/series_tiny.csv"), 0),
    # Failure paths: frozen stderr plus the documented exit code.
    CliCase("missing_file", ("dist", "data/missing.json", "data/white.json"), 2),
    CliCase("invalid_json", ("info", "data/bad.json"), 3),
    CliCase("unrecognized_json", ("info", "data/mystery.json"), 3),
    CliCase("bad_grid_header", ("info", "data/bad_header.csv"), 3),
    CliCase("missing_grid_rows", ("info", "data/truncated.csv"), 3),
    CliCase("bad_grid_number", ("info", "data/bad_number.csv"), 3),
    CliCase("indefinite_grid", ("info", "data/indefinite.csv"), 5),
    CliCase("grid_size_mismatch",
            ("dist", "data/flat4.csv", "data/flat1_n16.csv"), 4),
    CliCase("dim_mismatch",
            ("dist", "data/ar1.json", "data/var2_x.json", "--n-freq", "64"), 4),
    CliCase("estimate_too_short",
            ("estimate", "data/series_tiny.csv", "--out", "/dev/null"), 4),
    CliCase("bad_n_freq",
            ("dist", "data/flat4.csv", "data/flat1.csv", "--n-freq", "100"), 3),
    CliCase("estimate_no_out", ("estimate", "data/series_tiny.csv"), 3),
    CliCase("oracle_grid_source",
            ("oracle", "data/flat4.csv", "data/acov_ma1.json"), 3),
    CliCase("unstable_model", ("info", "data/unstable.json"), 1),
    CliCase("bad_floor_eps",
            ("dist", "data/flat4.csv", "data/flat1.csv", "--floor-eps", "-1"), 3),
    # Non-finite numbers are refused by each reader family.
    CliCase("non_finite_model", ("info", "data/nan_model.json"), 3),
    CliCase("non_finite_autocov", ("info", "data/inf_acov.json"), 3),
    CliCase("non_finite_grid", ("info", "data/nan_grid.csv"), 3),
    CliCase("non_finite_series", ("info", "data/nan_series.csv"), 3),
)
