"""End-to-end acceptance checks.

One test per contract item.  Each prints a single PASS/FAIL line on the
live terminal (capture is bypassed) so a full run reads as a checklist,
then asserts, so pytest still reports failures the normal way.
"""

import time

import numpy as np
import pytest

from cli_cases import CASES, run_case
from conftest import (
    DATA_DIR,
    commuting_pair,
    factored_trace,
    random_grid_spectrum,
    random_pd,
    scalar_w2_squared,
    sqrt_psd,
    tsp_reference,
)
from specdist import distances, spectra, toeplitz
from specdist.fileio import read_json_source


@pytest.fixture
def verdict(capsys):
    def emit(name, ok, detail):
        with capsys.disabled():
            print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"{name}: {detail}"

    return emit


def _model(name):
    return read_json_source(DATA_DIR / f"{name}.json")


def _per_step(acx, acy, horizon):
    return toeplitz.convergence_diagnostic(acx, acy, [horizon]).per_step_values[0]


def test_oracle_matches_spectral_distance(verdict):
    t0 = time.monotonic()
    rels = {}
    x = spectra.rational_grid(_model("ar1"), 8192)
    y = spectra.rational_grid(_model("white"), 8192)
    target = distances.spectral_w2(x, y).squared
    v = _per_step(spectra.spectrum_to_autocov(x), spectra.spectrum_to_autocov(y), 1024)
    rels["scalar"] = abs(v - target) / target

    vx, vy = _model("var2_x"), _model("var2_y")
    report = distances.spectral_w2(
        spectra.rational_grid(vx, 8192), spectra.rational_grid(vy, 8192)
    )
    v2 = _per_step(
        spectra.spectrum_to_autocov(spectra.rational_grid(vx, 4096)),
        spectra.spectrum_to_autocov(spectra.rational_grid(vy, 4096)),
        1024,
    )
    rels["2x2"] = abs(v2 - report.squared) / report.squared
    elapsed = time.monotonic() - t0

    ok = max(rels.values()) <= 2e-3 and report.commutation_residual > 1e-3 and elapsed < 60
    verdict(
        "finite-horizon oracle vs spectral value",
        ok,
        f"horizon 1024 vs 8192-point grid: scalar rel {rels['scalar']:.2e}, "
        f"2x2 rel {rels['2x2']:.2e} (tol 2e-3); pair commutation residual "
        f"{report.commutation_residual:.2e}; {elapsed:.1f}s of 60s budget",
    )


def _matrix_pairs():
    for m in (1, 2, 3, 8):
        rng = np.random.default_rng(900 + m)
        for _ in range(50):
            yield random_pd(m, rng, complex_=bool(rng.integers(2))), random_pd(
                m, rng, complex_=bool(rng.integers(2))
            )


def test_coupling_trace_two_paths_agree(verdict):
    worst = 0.0
    count = 0
    for a, b in _matrix_pairs():
        count += 1
        ref = tsp_reference(a, b)
        worst = max(worst, abs(factored_trace(a, b) - ref) / ref)
    verdict(
        "coupling trace, factored vs product eigenvalues",
        worst <= 1e-8 and count == 200,
        f"{count} pairs, dims 1/2/3/8, max rel deviation {worst:.2e} (tol 1e-8)",
    )


def test_transport_hellinger_ordering(verdict):
    # Gap sign on raw matrix pairs.
    min_gap_rel = np.inf
    for a, b in _matrix_pairs():
        scale = float(np.trace(a).real + np.trace(b).real)
        gap = factored_trace(a, b) - float(
            np.trace(sqrt_psd(a) @ sqrt_psd(b)).real
        )
        min_gap_rel = min(min_gap_rel, gap / scale)

    # Ordering and the exact per-frequency identity on spectrum pairs.
    ordered = 0
    identity_worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        m = int(rng.integers(1, 4))
        x = random_grid_spectrum(m, rng, 32)
        y = random_grid_spectrum(m, rng, 32)
        w2 = distances.spectral_w2(x, y)
        hell = distances.hellinger(x, y)
        scale = float(np.trace(x.full(), axis1=1, axis2=2).real.mean()
                      + np.trace(y.full(), axis1=1, axis2=2).real.mean())
        if w2.value <= hell.value + 1e-9 * scale:
            ordered += 1
        resid = np.abs(
            np.asarray(hell.per_freq_trace)
            - np.asarray(w2.per_freq_trace)
            - 2.0 * np.asarray(hell.alt_gap)
        )
        identity_worst = max(identity_worst, float(resid.max()) / scale)

    # Equality on commuting families.
    eq_worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        x, y = commuting_pair(2 + seed % 2, rng, 32)
        eq_worst = max(
            eq_worst,
            abs(distances.spectral_w2(x, y).value - distances.hellinger(x, y).value),
        )

    ok = min_gap_rel >= -1e-10 and ordered == 50 and identity_worst <= 1e-10 and eq_worst <= 1e-9
    verdict(
        "transport below hellinger, gap identity",
        ok,
        f"coupling gap >= {min_gap_rel:.1e} of scale on 200 matrix pairs; "
        f"transport <= hellinger on {ordered}/50 spectrum pairs with per-frequency "
        f"identity residual {identity_worst:.1e}; commuting equality within {eq_worst:.1e}",
    )


def test_scalar_closed_form(verdict):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        x = random_grid_spectrum(1, rng, 64)
        y = random_grid_spectrum(1, rng, 64)
        full = distances.spectral_w2(x, y)
        scalar = np.sqrt(scalar_w2_squared(x, y))
        lower = distances.gelbrich_lower_bound(x, y)
        assert lower.value == full.value and lower.is_lower_bound
        scale = max(1.0, full.value)
        worst = max(worst, abs(full.value - scalar) / scale)
    verdict(
        "scalar closed form vs matrix path",
        worst <= 1e-12,
        f"20 pairs, max rel deviation {worst:.2e} (tol 1e-12); "
        "lower-bound semantics returns the same number",
    )


def test_metric_axioms(verdict):
    sym_worst = 0.0
    for seed in range(30):
        rng = np.random.default_rng(6000 + seed)
        m = 1 + seed % 3
        x = random_grid_spectrum(m, rng, 32)
        y = random_grid_spectrum(m, rng, 32)
        dxy = distances.spectral_w2(x, y).value
        dyx = distances.spectral_w2(y, x).value
        sym_worst = max(sym_worst, abs(dxy - dyx))
        assert distances.spectral_w2(x, x).value == 0.0
        assert dxy > 0.0

    tri_worst = -np.inf
    for seed in range(100):
        rng = np.random.default_rng(7000 + seed)
        x, y, z = (random_grid_spectrum(2, rng, 16) for _ in range(3))
        dxz = distances.spectral_w2(x, z).value
        dxy = distances.spectral_w2(x, y).value
        dyz = distances.spectral_w2(y, z).value
        tri_worst = max(tri_worst, dxz - dxy - dyz)

    ok = sym_worst <= 1e-9 and tri_worst <= 1e-8
    verdict(
        "metric axioms on the grid distance",
        ok,
        f"symmetry within {sym_worst:.1e} on 30 pairs; identical input is exactly 0; "
        f"triangle slack {tri_worst:.1e} over 100 triples (tol 1e-8)",
    )


def _naive_block_toeplitz(lags: np.ndarray, horizon: int) -> np.ndarray:
    """Straight-loop assembly, kept independent of the library's version."""
    k_max, m = lags.shape[0] - 1, lags.shape[1]
    out = np.zeros(((horizon + 1) * m, (horizon + 1) * m))
    for r in range(horizon + 1):
        for s in range(max(0, r - k_max), min(horizon + 1, r + k_max + 1)):
            block = lags[s - r] if s >= r else lags[r - s].T
            out[r * m:(r + 1) * m, s * m:(s + 1) * m] = block
    return out


def test_variance_consistency(verdict):
    worst = 0.0
    for name in ("ar1", "white", "ma1", "var2_x", "var2_y"):
        grid = spectra.rational_grid(_model(name), 4096)
        acov = spectra.spectrum_to_autocov(grid)
        sigma = _naive_block_toeplitz(acov.lags, 1024)
        per_step = float(np.trace(sigma)) / 1025.0
        mean_trace = float(np.trace(grid.full(), axis1=1, axis2=2).real.mean())
        worst = max(worst, abs(per_step - mean_trace) / mean_trace)

    # The library assembly must agree with the straight loop bit for bit,
    # including the transpose orientation below the diagonal.
    r1 = np.array([[0.1, 0.3], [-0.2, 0.05]])
    acov = spectra.Autocovariance(lags=np.stack([2.0 * np.eye(2), r1]))
    same = np.array_equal(
        _naive_block_toeplitz(acov.lags, 16),
        toeplitz.build_block_toeplitz(acov, 16)[0],
    )
    verdict(
        "stacked-covariance trace vs spectrum mean",
        worst <= 1e-6 and same,
        f"5 models at horizon 1024 vs 4096-point grid, max rel deviation "
        f"{worst:.2e} (tol 1e-6); assembly matches naive loop bitwise",
    )


def test_transform_round_trips(verdict):
    rng = np.random.default_rng(2718)
    r0 = random_pd(2, rng, spread=2.0)
    margin = float(np.linalg.eigvalsh(r0)[0])
    lags = [r0]
    for k in (1, 2, 3):
        g = rng.standard_normal((2, 2))
        lags.append(0.1 * margin / k * g / np.linalg.norm(g, 2))
    acov = spectra.Autocovariance(lags=np.stack(lags))
    back = spectra.spectrum_to_autocov(spectra.autocov_to_spectrum(acov, 64), 3)
    acov_err = float(np.abs(back.lags - acov.lags).max())

    sqrt_worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(8000 + seed)
        a = random_pd(2 + seed % 5, rng, complex_=bool(seed % 2))
        root = sqrt_psd(a)
        sqrt_worst = max(
            sqrt_worst,
            float(np.linalg.norm(root @ root - a) / np.linalg.norm(a)),
        )

    x = np.random.default_rng(12345).standard_normal(2**16)
    grid = spectra.estimate_welch(x, 512, 0.5, "hann")
    welch_mean = float(np.mean(grid.full().real))

    ok = acov_err <= 1e-10 and sqrt_worst <= 1e-9 and abs(welch_mean - 1.0) <= 0.05
    verdict(
        "transform round trips",
        ok,
        f"autocovariance<->spectrum within {acov_err:.1e} (tol 1e-10); "
        f"20 sqrt squarings within {sqrt_worst:.1e} rel (tol 1e-9); "
        f"unit-noise estimate mean {welch_mean:.4f} (tol 5%)",
    )


def test_cli_contract(verdict):
    mismatched = []
    for case in CASES:
        code, out, err = run_case(case.argv)
        if (
            code != case.expected_exit
            or out != case.golden_out.read_text()
            or err != case.golden_err.read_text()
        ):
            mismatched.append(case.name)
    verdict(
        "command-line contract",
        not mismatched,
        f"{len(CASES) - len(mismatched)}/{len(CASES)} frozen invocations "
        "reproduce exit codes and output bytes"
        + (f"; mismatched: {mismatched}" if mismatched else ""),
    )
