"""Command-line front end.

Subcommands: ``dist`` (distance, lower bound or Hellinger distance between
two spectrum sources, optionally cross-checked by the finite-horizon oracle),
``estimate`` (Welch spectrum from a time-series CSV), ``oracle``
(finite-horizon convergence diagnostic for model or autocovariance
sources), and ``info`` (source summary: definiteness margins, symmetry
residuals, stability).

Sources are identified by content: ``.json`` files hold rational models or
autocovariance sequences, ``.csv`` files hold either grid spectra (by
header) or raw time series.  Every documented failure maps to a fixed exit
code: missing or unwritable file 2, unparseable input or bad option,
argument or value 3, dimension/grid mismatch 4, non-positive-definite
input 5, and 1 for any other failure, such as non-Hermitian input, an
unstable or singular model, or a ``ValueError``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path

import numpy as np

from . import distances, fileio, spectra, toeplitz
from .errors import ParseError, SpecDistError
from .hermitian import DEFAULT_POLICY, PsdPolicy

__all__ = ["main", "run"]

#: Grid size when neither --n-freq nor a grid or series source fixes it; an
#: autocovariance source with lags 0..K raises it to a power of two >= 2K+1.
DEFAULT_N_FREQ = 4096


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ``ParseError`` (exit 3) instead of exiting 2."""

    def error(self, message):
        raise ParseError(message)


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def _parse_horizons(text: str):
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ParseError(f"cannot parse horizon list {text!r}") from None
    if not values:
        raise ParseError("horizon list is empty")
    if values[0] < 0:
        raise ParseError(f"horizons must be nonnegative, got {list(values)}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ParseError(f"horizons must be strictly increasing, got {list(values)}")
    return values


def _check_options(args) -> None:
    """Validate the subcommand's options in place.

    Sets ``args.policy`` and replaces ``args.horizons`` by the parsed tuple.
    """
    if getattr(args, "n_freq", None) is not None and not _is_pow2(args.n_freq):
        raise ParseError(f"--n-freq must be a power of two, got {args.n_freq}")
    if "seg_len" in args and not _is_pow2(args.seg_len):
        raise ParseError(f"--seg-len must be a power of two, got {args.seg_len}")
    if "overlap" in args and not 0.0 <= args.overlap < 1.0:
        raise ParseError(f"--overlap must lie in [0, 1), got {args.overlap}")
    try:
        if "seg_len" in args:
            # From 4 samples up every window has a nonzero sample, so a short
            # window decides without building one of --seg-len samples.
            spectra._welch_window(args.window, min(args.seg_len, 4))
        args.policy = PsdPolicy(args.floor_eps, args.negativity_tol)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if getattr(args, "semantics", None) == "hellinger" and args.oracle:
        raise ParseError("--oracle checks the transport distance, not --semantics hellinger")
    if not getattr(args, "oracle", True):
        for flag, value in (("--horizons", args.horizons), ("--max-lag", args.max_lag)):
            if value is not None:
                raise ParseError(f"{flag} acts only with --oracle")
    if getattr(args, "max_lag", None) is not None and args.max_lag < 0:
        raise ParseError(f"--max-lag must be nonnegative, got {args.max_lag}")
    if getattr(args, "horizons", None) is not None:
        args.horizons = _parse_horizons(args.horizons)


# -- source handling ---------------------------------------------------------


def _load_source(path_str: str, policy: PsdPolicy):
    """Read one input file into (kind, object) with kind in
    {"model", "autocov", "grid", "series"}."""
    path = Path(path_str)
    if not path.exists():
        raise FileNotFoundError(f"{path}: no such file")
    suffix = path.suffix.lower()
    if suffix == ".json":
        obj = fileio.read_json_source(path, policy)
        return ("autocov" if isinstance(obj, spectra.Autocovariance) else "model"), obj
    if suffix == ".csv":
        with open(path, errors="replace") as fh:  # a non-UTF-8 byte is the reader's to refuse
            first = fh.readline()
        if first.strip().replace(" ", "").lower().startswith("omega_index,"):
            return "grid", fileio.read_grid_csv(path, policy)
        return "series", fileio.read_timeseries_csv(path)
    raise ParseError(f"{path}: unsupported source type (expected .json or .csv)")


def _resolve_grid(kind: str, obj, n_freq: int | None, args) -> spectra.GridSpectrum:
    if kind == "grid":
        return obj
    if kind == "series":
        return spectra.estimate_welch(
            obj, args.seg_len, args.overlap, args.window, args.policy
        )
    if kind == "model":
        return spectra.rational_grid(obj, n_freq, args.policy)
    return spectra.autocov_to_spectrum(obj, n_freq, args.policy)


def _derive_acov(kind, obj, grid, args) -> spectra.Autocovariance:
    """Autocovariance for the oracle, honoring a forced --max-lag.

    An autocovariance source is re-sliced.  Every other source goes through
    the grid the spectral side already built with the run's policy, so a
    forced cut at or beyond the grid's bandwidth is a ``LagTooLarge``.
    """
    if kind == "autocov":
        if args.max_lag is not None:
            return spectra.Autocovariance(obj.lags[: args.max_lag + 1], args.policy)
        return obj
    return spectra.spectrum_to_autocov(grid, args.max_lag)


def _compare(args):
    """Report on the sources ``args.x`` and ``args.y``, plus the oracle's
    diagnostic when ``args.oracle`` is set (else ``None``)."""
    sources = [_load_source(p, args.policy) for p in (args.x, args.y)]
    if args.command == "oracle":
        for (kind, _), p in zip(sources, (args.x, args.y)):
            if kind not in ("model", "autocov"):
                raise ParseError(
                    f"{p}: oracle requires model or autocovariance sources, got {kind}"
                )
    # Grid and series sources pin the grid size, which an explicit --n-freq
    # must match; models and autocovariances are evaluated at whatever size
    # wins.  Two pinned-but-different sizes fall through to the
    # GridMismatch check inside the distance itself.
    fixed = [(p, obj.n_freq if kind == "grid" else args.seg_len)
             for (kind, obj), p in zip(sources, (args.x, args.y))
             if kind in ("grid", "series")]
    for p, size in fixed:
        if args.n_freq not in (None, size):
            raise ParseError(
                f"--n-freq {args.n_freq} conflicts with {p}, which fixes the grid "
                f"at {size} points"
            )
    # The default grows to the smallest power of two that holds the 2K+1
    # lags -K..K of each autocovariance source.
    fits = [1 << (2 * o.max_lag).bit_length() for k, o in sources if k == "autocov"]
    n_freq = fixed[0][1] if fixed else args.n_freq or max([DEFAULT_N_FREQ, *fits])
    grids = [_resolve_grid(k, o, n_freq, args) for k, o in sources]

    measure = {"elliptical": distances.spectral_w2, "gelbrich": distances.gelbrich_lower_bound,
               "hellinger": distances.hellinger}[getattr(args, "semantics", "elliptical")]
    report = measure(grids[0], grids[1], args.policy)
    if not args.oracle:
        return report, None
    # The spectral target always comes from the full source definition;
    # --max-lag truncation applies only to the finite-horizon side, so an
    # over-aggressive truncation shows up as converged=false.
    acx, acy = (_derive_acov(k, o, g, args) for (k, o), g in zip(sources, grids))
    return report, toeplitz.convergence_diagnostic(
        acx, acy, args.horizons, report.squared, args.policy
    )


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# -- report rendering --------------------------------------------------------


def _report_csv(report: distances.DistanceReport) -> str:
    meta = ("value", "squared", "commutation_residual", "flooring_count",
            "is_lower_bound")
    n = report.n_freq
    columns = {"omega_index": np.arange(n), "omega": spectra.default_omegas(n),
               "per_freq_trace": report.per_freq_trace, "alt_gap": report.alt_gap}
    return fileio._csv_text(report, meta, {k: c for k, c in columns.items() if c is not None})


def _diag_csv(diag: toeplitz.ConvergenceDiagnostic) -> str:
    meta = ("spectral_target", "extrapolated_limit", "converged",
            "trace_target_x", "trace_target_y", "fit_degenerate")
    min_x, min_y = np.array(diag.min_eigenvalues).T
    columns = {"horizon": np.array(diag.horizons), "per_step_value": diag.per_step_values,
               "min_eig_x": min_x, "min_eig_y": min_y}
    return fileio._csv_text(diag, meta, columns)


# -- subcommands -------------------------------------------------------------


def cmd_dist(args) -> int:
    report, diag = _compare(args)
    if args.format == "csv":
        text = _report_csv(report)
        if diag is not None:
            text += "\n" + _diag_csv(diag)
    elif diag is None:
        text = fileio.json_dumps(report)
    else:
        text = fileio.json_dumps({**vars(report), "oracle": diag})
    _emit(text, args.out)
    return 0


def cmd_estimate(args) -> int:
    if args.out is None:
        raise ParseError("estimate requires --out for the grid CSV")
    kind, obj = _load_source(args.series, args.policy)
    if kind != "series":
        raise ParseError(f"{args.series}: estimate requires a time-series CSV")
    grid = _resolve_grid(kind, obj, None, args)
    fileio.write_grid_csv(args.out, grid)
    summary = {
        "dim": grid.dim,
        "n_freq": grid.n_freq,
        "real_symmetry": grid.real_symmetry,
        "flooring_count": grid.flooring_count,
        "out": str(args.out),
    }
    sys.stdout.write(fileio.json_dumps(summary) + "\n")
    return 0


def cmd_oracle(args) -> int:
    diag = _compare(args)[1]
    _emit(_diag_csv(diag) if args.format == "csv" else fileio.json_dumps(diag), args.out)
    return 0


def cmd_info(args) -> int:
    kind, obj = _load_source(args.src, args.policy)
    summary: dict = {"kind": kind, "source": str(args.src)}
    if kind == "model":
        summary.update(
            dim=obj.dim,
            ar_order=int(obj.ar.shape[0]),
            ma_order=int(obj.ma.shape[0] - 1),
            stability_radius=obj.stability_radius,
            noise_cov_min_eig=obj.noise_cov_min_eigenvalue,
        )
    elif kind == "autocov":
        summary.update(
            dim=obj.dim,
            max_lag=obj.max_lag,
            r0_trace=float(np.trace(obj.lags[0])),
            r0_min_eig=obj.r0_min_eigenvalue,
        )
    elif kind == "grid":
        lo, hi = obj._extremes()  # one eigensolve for both
        res = spectra.check_real_symmetry(obj)  # one residual pass for both
        summary.update(
            dim=obj.dim,
            n_freq=obj.n_freq,
            min_eigenvalue=lo,
            max_eigenvalue=hi,
            symmetry_residual=res,
            real_symmetry=res <= spectra.REAL_SYMMETRY_TOL,
            flooring_count=obj.flooring_count,
        )
    else:
        summary.update(dim=int(obj.shape[1]), length=int(obj.shape[0]))
    _emit(fileio.json_dumps(summary), args.out)
    return 0


# -- argument parsing --------------------------------------------------------


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--floor-eps", type=float, default=DEFAULT_POLICY.floor_eps,
                        help="relative eigenvalue floor (default %(default)g)")
    common.add_argument("--negativity-tol", type=float,
                        default=DEFAULT_POLICY.negativity_tol,
                        help="relative negativity tolerance (default %(default)g)")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write output here instead of stdout")

    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--n-freq", type=int, default=None,
                        help="frequency grid size (power of two, default "
                             f"{DEFAULT_N_FREQ}); a grid or series source fixes it")
    report.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")

    welch = argparse.ArgumentParser(add_help=False)
    welch.add_argument("--seg-len", type=int, default=512,
                       help="Welch segment length (power of two, default 512)")
    welch.add_argument("--overlap", type=float, default=0.5,
                       help="Welch segment overlap fraction (default 0.5)")
    welch.add_argument("--window", choices=("hann", "hamming", "rectangular"),
                       default="hann", help="Welch window (default hann)")

    horiz = argparse.ArgumentParser(add_help=False)
    horiz.add_argument("--horizons", default=None,
                       help="comma-separated increasing horizon list, always run in "
                            "full (default "
                            f"{','.join(map(str, toeplitz.DEFAULT_HORIZONS))}, "
                            "keeping those within the dense budget at the source dim, "
                            "and stopping from the fourth horizon on once two "
                            "successive three-point tail fits agree)")
    horiz.add_argument("--max-lag", type=int, default=None,
                       help="force autocovariance truncation at this lag")

    parser = _Parser(
        prog="specdist",
        description="Distances between stationary processes from their power "
                    "spectra, with a finite-horizon brute-force cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", parents=[common, report, welch, horiz],
                       help="distance or lower bound between two spectrum sources")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--semantics", choices=("elliptical", "gelbrich", "hellinger"),
                   default="elliptical",
                   help="elliptical: the distance; gelbrich: the same number "
                        "as a lower bound; hellinger: the Hellinger distance")
    p.add_argument("--oracle", action="store_true",
                   help="attach a finite-horizon convergence diagnostic")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("estimate", parents=[common, welch],
                       help="Welch spectrum estimate from a time-series CSV")
    p.add_argument("series")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("oracle", parents=[common, report, horiz],
                       help="finite-horizon convergence diagnostic")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_oracle, oracle=True)

    p = sub.add_parser("info", parents=[common],
                       help="summarize a source (margins, symmetry, stability)")
    p.add_argument("src")
    p.set_defaults(func=cmd_info)
    return parser


def _show_warning(message, category, *_):
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning  # one line, no source dump
        try:
            args = _build_parser().parse_args(argv)
            _check_options(args)
            return args.func(args)
        except (MemoryError, OSError, SpecDistError, ValueError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2 if isinstance(exc, OSError) else getattr(exc, "exit_code", 1)


def run() -> None:
    sys.exit(main())
