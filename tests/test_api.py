"""The public surface: a change to it must edit this file on purpose."""

import importlib
import re
from pathlib import Path

import specdist

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "Autocovariance",
    "ConvergenceDiagnostic",
    "DEFAULT_POLICY",
    "DimensionMismatch",
    "DistanceReport",
    "FitDegenerateWarning",
    "GridMismatch",
    "GridSpectrum",
    "GridTooCoarse",
    "LagTooLarge",
    "NegativeDistance",
    "NonHermitianInput",
    "NonRealResidue",
    "NotPositiveDefinite",
    "ParseError",
    "PsdPolicy",
    "RationalSpectrum",
    "SingularAr",
    "SpecDistError",
    "TooFewSegments",
    "UnstableModel",
    "autocov_to_spectrum",
    "build_block_toeplitz",
    "bures_w2_squared",
    "check_real_symmetry",
    "convergence_diagnostic",
    "estimate_welch",
    "gelbrich_lower_bound",
    "hellinger",
    "rational_grid",
    "spectral_w2",
    "spectrum_to_autocov",
    "stability_radius",
]

LAYERS = ("cli", "distances", "fileio", "hermitian", "spectra", "toeplitz")


def test_package_names_pinned():
    assert sorted(specdist.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(specdist, name), name


def test_layer_names_resolve():
    for layer in LAYERS:
        module = importlib.import_module(f"specdist.{layer}")
        for name in module.__all__:
            assert hasattr(module, name), f"specdist.{layer}.{name}"


def test_readme_library_example_runs(capsys):
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("True ")
