"""Command-line front end.

Subcommands: ``dist`` (distance or lower bound between two spectrum
sources, optionally cross-checked by the finite-horizon oracle),
``estimate`` (Welch spectrum from a time-series CSV), ``oracle``
(finite-horizon convergence diagnostic for model or autocovariance
sources), and ``info`` (source summary: definiteness margins, symmetry
residuals, stability).

Sources are identified by content: ``.json`` files hold rational models or
autocovariance sequences, ``.csv`` files hold either grid spectra (by
header) or raw time series.  Every documented failure maps to a fixed exit
code: missing file 2, unparseable input 3, dimension/grid mismatch 4,
non-positive-definite input 5.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import distances, fileio, spectra, toeplitz
from .errors import ParseError, SpecDistError
from .hermitian import DEFAULT_POLICY, PsdPolicy

__all__ = ["main", "run"]


@dataclass(frozen=True)
class RunConfig:
    """Validated run options shared by the subcommands."""

    n_freq: int
    policy: PsdPolicy
    horizons: tuple | None
    fmt: str
    out: str | None
    seg_len: int
    overlap: float
    window: str
    max_lag: int | None


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def _parse_horizons(text: str):
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ParseError(f"cannot parse horizon list {text!r}") from None
    if not values:
        raise ParseError("horizon list is empty")
    if any(b <= a for a, b in zip(values, values[1:])) or values[0] < 0:
        raise ParseError(f"horizons must be strictly increasing, got {list(values)}")
    return values


def _config_from(args) -> RunConfig:
    if not _is_pow2(args.n_freq):
        raise ParseError(f"--n-freq must be a power of two, got {args.n_freq}")
    seg_len = getattr(args, "seg_len", 512)
    if not _is_pow2(seg_len):
        raise ParseError(f"--seg-len must be a power of two, got {seg_len}")
    overlap = getattr(args, "overlap", 0.5)
    if not 0.0 <= overlap < 1.0:
        raise ParseError(f"--overlap must lie in [0, 1), got {overlap}")
    try:
        policy = PsdPolicy(args.floor_eps, args.negativity_tol)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    horizons = getattr(args, "horizons", None)
    return RunConfig(
        n_freq=args.n_freq,
        policy=policy,
        horizons=_parse_horizons(horizons) if horizons is not None else None,
        fmt=args.format,
        out=args.out,
        seg_len=seg_len,
        overlap=overlap,
        window=getattr(args, "window", "hann"),
        max_lag=getattr(args, "max_lag", None),
    )


# -- source handling ---------------------------------------------------------


def _load_source(path_str: str, cfg: RunConfig):
    """Read one input file into (kind, object) with kind in
    {"model", "autocov", "grid", "series"}."""
    path = Path(path_str)
    if not path.exists():
        raise FileNotFoundError(f"{path}: no such file")
    suffix = path.suffix.lower()
    if suffix == ".json":
        obj = fileio.read_json_source(path, cfg.policy)
        return ("autocov" if isinstance(obj, spectra.Autocovariance) else "model"), obj
    if suffix == ".csv":
        with open(path) as fh:
            first = fh.readline()
        if first.strip().replace(" ", "").lower().startswith("omega_index,"):
            return "grid", fileio.read_grid_csv(path, cfg.policy)
        return "series", fileio.read_timeseries_csv(path)
    raise ParseError(f"{path}: unsupported source type (expected .json or .csv)")


def _fixed_n_freq(kind: str, obj, cfg: RunConfig):
    if kind == "grid":
        return obj.n_freq
    if kind == "series":
        return cfg.seg_len
    return None


def _resolve_grid(kind: str, obj, n_freq: int, cfg: RunConfig) -> spectra.GridSpectrum:
    if kind == "grid":
        return obj
    if kind == "series":
        return spectra.estimate_welch(
            obj, cfg.seg_len, cfg.overlap, cfg.window, cfg.policy
        )
    if kind == "model":
        return spectra.rational_grid(obj, n_freq, cfg.policy)
    return spectra.autocov_to_spectrum(obj, n_freq, cfg.policy)


def _derive_acov(kind, obj, grid, n_freq: int, cfg: RunConfig) -> spectra.Autocovariance:
    """Autocovariance for the oracle, honoring a forced --max-lag."""
    if kind == "autocov":
        if cfg.max_lag is not None:
            return spectra.Autocovariance(obj.lags[: cfg.max_lag + 1], cfg.policy)
        return obj
    if kind == "model":
        return spectra.rational_to_autocov(obj, n_freq=n_freq, max_lag=cfg.max_lag)
    acov = spectra.spectrum_to_autocov(
        grid, cfg.max_lag if cfg.max_lag is not None else grid.n_freq // 2 - 1
    )
    return acov if cfg.max_lag is not None else spectra.truncate_by_decay(acov)


def _emit(text: str, cfg: RunConfig) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if cfg.out:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)


# -- report rendering --------------------------------------------------------


def _report_csv(report: distances.DistanceReport) -> str:
    f = fileio.format_float
    lines = [
        f"# value={f(report.value)}",
        f"# squared={f(report.squared)}",
        f"# commutation_residual={f(report.commutation_residual)}",
        f"# flooring_count={report.flooring_count}",
        f"# is_lower_bound={'true' if report.is_lower_bound else 'false'}",
        "omega_index,omega,per_freq_trace,alt_gap",
    ]
    omegas = spectra.default_omegas(report.n_freq)
    for l in range(report.n_freq):
        lines.append(
            f"{l},{f(omegas[l])},{f(report.per_freq_trace[l])},{f(report.alt_gap[l])}"
        )
    return "\n".join(lines)


def _diag_csv(diag: toeplitz.ConvergenceDiagnostic) -> str:
    f = fileio.format_float
    lines = [
        f"# spectral_target={f(diag.spectral_target)}",
        f"# extrapolated_limit={f(diag.extrapolated_limit)}",
        f"# converged={'true' if diag.converged else 'false'}",
        f"# trace_target_x={f(diag.trace_target_x)}",
        f"# trace_target_y={f(diag.trace_target_y)}",
        f"# fit_degenerate={'true' if diag.fit_degenerate else 'false'}",
        "horizon,per_step_value,min_eig_x,min_eig_y,trace_per_step_x,trace_per_step_y",
    ]
    for i, h in enumerate(diag.horizons):
        mx, my = diag.min_eigenvalues[i]
        lines.append(
            f"{h},{f(diag.per_step_values[i])},{f(mx)},{f(my)},"
            f"{f(diag.trace_per_step_x[i])},{f(diag.trace_per_step_y[i])}"
        )
    return "\n".join(lines)


# -- subcommands -------------------------------------------------------------


def cmd_dist(args, cfg: RunConfig) -> int:
    sources = [_load_source(p, cfg) for p in (args.x, args.y)]
    # Grid and series sources pin the grid size; models and autocovariances
    # are evaluated at whatever size wins.  Two pinned-but-different sizes
    # fall through to the GridMismatch check inside the distance itself.
    fixed = [n for n in (_fixed_n_freq(k, o, cfg) for k, o in sources) if n]
    n_freq = fixed[0] if fixed else cfg.n_freq
    grids = [_resolve_grid(k, o, n_freq, cfg) for k, o in sources]

    if args.semantics == "gelbrich":
        report = distances.gelbrich_lower_bound(grids[0], grids[1], cfg.policy)
    else:
        report = distances.spectral_w2(grids[0], grids[1], cfg.policy)

    payload = report.as_dict()
    diag = None
    if args.oracle:
        acx = _derive_acov(*sources[0], grids[0], n_freq, cfg)
        acy = _derive_acov(*sources[1], grids[1], n_freq, cfg)
        diag = toeplitz.convergence_diagnostic(
            acx, acy, cfg.horizons, report.squared, cfg.policy
        )
        payload["oracle"] = diag.as_dict()

    if cfg.fmt == "csv":
        text = _report_csv(report)
        if diag is not None:
            text += "\n\n" + _diag_csv(diag)
        _emit(text, cfg)
    else:
        _emit(fileio.json_dumps(payload), cfg)
    return 0


def cmd_estimate(args, cfg: RunConfig) -> int:
    if cfg.out is None:
        raise ParseError("estimate requires --out for the grid CSV")
    kind, obj = _load_source(args.series, cfg)
    if kind != "series":
        raise ParseError(f"{args.series}: estimate requires a time-series CSV")
    grid = spectra.estimate_welch(obj, cfg.seg_len, cfg.overlap, cfg.window, cfg.policy)
    fileio.write_grid_csv(cfg.out, grid)
    summary = {
        "dim": grid.dim,
        "n_freq": grid.n_freq,
        "real_symmetry": grid.real_symmetry,
        "flooring_count": grid.flooring_count,
        "out": str(cfg.out),
    }
    sys.stdout.write(fileio.json_dumps(summary) + "\n")
    return 0


def cmd_oracle(args, cfg: RunConfig) -> int:
    sources = [_load_source(p, cfg) for p in (args.x, args.y)]
    for (kind, _), p in zip(sources, (args.x, args.y)):
        if kind not in ("model", "autocov"):
            raise ParseError(
                f"{p}: oracle requires model or autocovariance sources, got {kind}"
            )
    # The spectral target always comes from the full source definition;
    # --max-lag truncation applies only to the finite-horizon side, so an
    # over-aggressive truncation shows up as converged=false.
    grids = [_resolve_grid(k, o, cfg.n_freq, cfg) for k, o in sources]
    target = distances.spectral_w2(grids[0], grids[1], cfg.policy).squared
    acx = _derive_acov(*sources[0], grids[0], cfg.n_freq, cfg)
    acy = _derive_acov(*sources[1], grids[1], cfg.n_freq, cfg)
    diag = toeplitz.convergence_diagnostic(acx, acy, cfg.horizons, target, cfg.policy)
    if cfg.fmt == "csv":
        _emit(_diag_csv(diag), cfg)
    else:
        _emit(fileio.json_dumps(diag.as_dict()), cfg)
    return 0


def cmd_info(args, cfg: RunConfig) -> int:
    kind, obj = _load_source(args.src, cfg)
    summary: dict = {"kind": kind, "source": str(args.src)}
    if kind == "model":
        summary.update(
            dim=obj.dim,
            ar_order=int(obj.ar.shape[0]),
            ma_order=int(obj.ma.shape[0] - 1),
            stability_radius=spectra.stability_radius(obj.ar),
            noise_cov_min_eig=float(np.linalg.eigvalsh(obj.noise_cov)[0]),
        )
    elif kind == "autocov":
        summary.update(
            dim=obj.dim,
            max_lag=obj.max_lag,
            r0_trace=float(np.trace(obj.lags[0])),
            r0_min_eig=float(np.linalg.eigvalsh(obj.lags[0])[0]),
        )
    elif kind == "grid":
        summary.update(
            dim=obj.dim,
            n_freq=obj.n_freq,
            min_eigenvalue=obj.min_eigenvalue,
            max_eigenvalue=obj.max_eigenvalue,
            symmetry_residual=spectra.check_real_symmetry(obj),
            real_symmetry=obj.real_symmetry,
            flooring_count=obj.flooring_count,
        )
    else:
        summary.update(dim=int(obj.shape[1]), length=int(obj.shape[0]))
    _emit(fileio.json_dumps(summary), cfg)
    return 0


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n-freq", type=int, default=4096,
                        help="frequency grid size (power of two, default 4096)")
    common.add_argument("--floor-eps", type=float, default=DEFAULT_POLICY.floor_eps,
                        help="relative eigenvalue floor (default %(default)g)")
    common.add_argument("--negativity-tol", type=float,
                        default=DEFAULT_POLICY.negativity_tol,
                        help="relative negativity tolerance (default %(default)g)")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write output here instead of stdout")

    welch = argparse.ArgumentParser(add_help=False)
    welch.add_argument("--seg-len", type=int, default=512,
                       help="Welch segment length (power of two, default 512)")
    welch.add_argument("--overlap", type=float, default=0.5,
                       help="Welch segment overlap fraction (default 0.5)")
    welch.add_argument("--window", choices=("hann", "hamming", "rectangular"),
                       default="hann", help="Welch window (default hann)")

    horiz = argparse.ArgumentParser(add_help=False)
    horiz.add_argument("--horizons", default=None,
                       help="comma-separated increasing horizon list (default "
                            f"{','.join(map(str, toeplitz.DEFAULT_HORIZONS))}, "
                            "keeping those within the dense budget at the source dim)")
    horiz.add_argument("--max-lag", type=int, default=None,
                       help="force autocovariance truncation at this lag")

    parser = argparse.ArgumentParser(
        prog="specdist",
        description="Distances between stationary processes from their power "
                    "spectra, with a finite-horizon brute-force cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", parents=[common, welch, horiz],
                       help="distance or lower bound between two spectrum sources")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--semantics", choices=("elliptical", "gelbrich"),
                   default="elliptical",
                   help="elliptical: the distance; gelbrich: the same number "
                        "as a lower bound")
    p.add_argument("--oracle", action="store_true",
                   help="attach a finite-horizon convergence diagnostic")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("estimate", parents=[common, welch],
                       help="Welch spectrum estimate from a time-series CSV")
    p.add_argument("series")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("oracle", parents=[common, horiz],
                       help="finite-horizon convergence diagnostic")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("info", parents=[common],
                       help="summarize a source (margins, symmetry, stability)")
    p.add_argument("src")
    p.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
        return args.func(args, cfg)
    except FileNotFoundError as exc:
        print(f"error: FileNotFoundError: {exc}", file=sys.stderr)
        return 2
    except SpecDistError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
