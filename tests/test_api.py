"""The public surface: a change to it must edit this file on purpose."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import specdist
import specdist.cli

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


def test_every_layer_name_has_a_user():
    # README's rule: the library keeps only names the command line or the
    # README use.  The command line uses a name as ``layer.name`` or by
    # importing it from the layer.
    readme = README.read_text()
    cli = Path(specdist.cli.__file__).read_text()
    imported = {}
    for node in ast.walk(ast.parse(cli)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
    unused = [
        f"{layer}.{name}"
        for layer in LAYERS if layer != "cli"
        for name in importlib.import_module(f"specdist.{layer}").__all__
        if not (re.search(rf"\b{name}\b", readme) or re.search(rf"\b{layer}\.{name}\b", cli)
                or name in imported.get(layer, ()))
    ]
    assert unused == []


def top_level_modules(statement):
    """The top-level names in ``sys.modules`` of a fresh interpreter after
    ``statement``."""
    src = str(Path(specdist.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = f"{statement}; import sys; print(*{{m.partition('.')[0] for m in sys.modules}})"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout
    return set(out.split())


def test_cli_import_adds_only_the_standard_library():
    # Every run pays for the CLI's imports: beyond numpy, they may add only
    # standard-library modules and the package itself.
    added = top_level_modules("import numpy, specdist.cli") - top_level_modules("import numpy")
    assert added - set(sys.stdlib_module_names) == {"specdist"}
