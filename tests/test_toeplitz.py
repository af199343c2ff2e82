"""Unit tests for the block-Toeplitz finite-horizon oracle."""

import json

import numpy as np
import pytest

import specdist.toeplitz
from conftest import count_eigensolves, factored_trace, random_pd, random_varma21, tsp_reference
from specdist.errors import (
    DimensionMismatch,
    FitDegenerateWarning,
    NotPositiveDefinite,
)
from specdist.spectra import (
    Autocovariance,
    RationalSpectrum,
    autocov_to_spectrum,
    rational_grid,
    spectrum_to_autocov,
)
from specdist.distances import spectral_w2
from specdist.fileio import json_dumps
from specdist.hermitian import bures_w2_squared
from specdist.toeplitz import (
    DEFAULT_HORIZONS,
    DENSE_CAP,
    build_block_toeplitz,
    convergence_diagnostic,
    default_horizons,
    _fit_tail,
)

AR1 = RationalSpectrum(
    ar=np.array([[[0.5]]]), ma=np.array([[[1.0]]]), noise_cov=np.array([[1.0]])
)
WHITE = RationalSpectrum(
    ar=np.zeros((0, 1, 1)), ma=np.array([[[1.0]]]), noise_cov=np.array([[1.0]])
)
MA1 = Autocovariance(lags=np.array([[[1.25]], [[0.5]]]))


def ar1_acov():
    return spectrum_to_autocov(rational_grid(AR1, 4096))


def white_acov():
    return Autocovariance(lags=np.array([[[1.0]]]))


def scaled_white(var):
    return Autocovariance(lags=np.array([[[float(var)]]]))


def per_step(acx, acy, horizon):
    """The oracle's per-step squared cost at one horizon."""
    return convergence_diagnostic(acx, acy, [horizon]).per_step_values[0]


def stacks(acx, acy, horizon):
    return build_block_toeplitz(acx, horizon)[0], build_block_toeplitz(acy, horizon)[0]


def test_build_horizon_zero_is_lag_zero():
    matrix, _ = build_block_toeplitz(MA1, 0)
    assert np.array_equal(matrix, MA1.lags[0])


def test_build_ma1_tridiagonal():
    matrix, _ = build_block_toeplitz(MA1, 2)
    expected = np.array(
        [[1.25, 0.5, 0.0], [0.5, 1.25, 0.5], [0.0, 0.5, 1.25]]
    )
    assert np.array_equal(matrix, expected)


def test_build_block_structure():
    rng = np.random.default_rng(4)
    r0 = random_pd(2, rng)
    r0 = 0.5 * (r0 + r0.T)  # bitwise symmetric so the assembly is too
    margin = float(np.linalg.eigvalsh(r0)[0])
    g = rng.standard_normal((2, 2))
    r1 = 0.05 * margin * g / np.linalg.norm(g, 2)
    acov = Autocovariance(lags=np.stack([r0, r1]))
    matrix, _ = build_block_toeplitz(acov, 4)
    assert np.array_equal(matrix, matrix.T)
    for r in range(5):
        for s in range(5):
            block = matrix[2 * r : 2 * r + 2, 2 * s : 2 * s + 2]
            k = s - r
            if k == 0:
                assert np.array_equal(block, r0)
            elif k == 1:
                assert np.array_equal(block, r1)
            elif k == -1:
                assert np.array_equal(block, r1.T)
            else:
                assert np.array_equal(block, np.zeros((2, 2)))


def test_build_min_eigenvalue_ar1():
    # The spectral infimum S(pi) = 1/2.25 bounds every Toeplitz eigenvalue
    # from below.
    matrix, min_eigenvalue = build_block_toeplitz(ar1_acov(), 64)
    assert min_eigenvalue >= 0.444
    assert min_eigenvalue == np.linalg.eigvalsh(matrix)[0]


def test_build_validations():
    with pytest.raises(ValueError):
        build_block_toeplitz(MA1, -1)
    with pytest.raises(DimensionMismatch):
        build_block_toeplitz(MA1, 4096)
    # A lag-1 term this large makes the truncated symbol go negative.
    bad = Autocovariance(lags=np.array([[[1.0]], [[0.9]]]))
    with pytest.raises(NotPositiveDefinite):
        build_block_toeplitz(bad, 8)


def test_per_step_trivial_cases():
    acov = ar1_acov()
    assert per_step(acov, acov, 16) == 0.0
    value = per_step(scaled_white(4.0), scaled_white(1.0), 0)
    assert abs(value - 1.0) <= 1e-12
    with pytest.raises(DimensionMismatch):
        per_step(acov, Autocovariance(lags=np.eye(2)[None]), 4)


def test_per_step_frozen_value():
    value = per_step(ar1_acov(), white_acov(), 64)
    assert abs(value - 0.18436236888185117) <= 1e-12


def test_trace_per_step():
    acov = ar1_acov()
    for horizon in (0, 8, 32):
        value = factored_trace(*stacks(acov, acov, horizon)) / (horizon + 1)
        assert abs(value - 4.0 / 3.0) <= 1e-10
    value = factored_trace(*stacks(scaled_white(4.0), scaled_white(1.0), 0))
    assert abs(value - 2.0) <= 1e-12


def test_two_path_equality_per_horizon():
    acx, acy = ar1_acov(), white_acov()
    for horizon in (4, 16, 64):
        sx, sy = stacks(acx, acy, horizon)
        sandwich = factored_trace(sx, sy)
        assert abs(sandwich - tsp_reference(sx, sy)) <= 1e-8 * sandwich


@pytest.mark.parametrize("m", [1, 2, 3])
def test_per_step_is_the_single_matrix_cost(m):
    # The oracle applies the single-matrix API's integrand to the stacks,
    # without its operand checks, so each step is bitwise that cost.
    rng = np.random.default_rng(40 + m)
    acx, acy = (spectrum_to_autocov(rational_grid(random_varma21(m, rng), 64))
                for _ in range(2))
    horizons = (2, 8, 16)
    diag = convergence_diagnostic(acx, acy, horizons)
    for h, value in zip(horizons, diag.per_step_values):
        assert value == bures_w2_squared(*stacks(acx, acy, h)) / (h + 1)


def test_one_horizon_three_eigensolves_one_cholesky(monkeypatch):
    # Each side's definiteness check, then the coupling congruence; the
    # first stack is factored by Cholesky, not decomposed for a root.
    acx, acy = ar1_acov(), MA1
    choleskys = []
    calls = count_eigensolves(monkeypatch, choleskys)
    convergence_diagnostic(acx, acy, [8])
    assert calls == [(9, 9)] * 3
    assert choleskys == [(9, 9)]


@pytest.mark.parametrize("acov", [ar1_acov(), MA1])
def test_eigenvalue_bracketing(acov):
    grid = autocov_to_spectrum(acov, 4096)
    eigs = np.linalg.eigvalsh(grid.full())
    lo, hi = float(eigs.min()), float(eigs.max())
    matrix, _ = build_block_toeplitz(acov, 32)
    w = np.linalg.eigvalsh(matrix)
    assert w.min() >= lo - 1e-8
    assert w.max() <= hi + 1e-8


def test_fit_tail_recovers_model():
    # Adjacent horizons at the dense cap give the smallest determinant the
    # fit can meet (about 2e-14), still far above round-off.
    closest = (DENSE_CAP - 3, DENSE_CAP - 2, DENSE_CAP - 1)
    for horizons, rel in (((16, 32, 64), 1e-12), (closest, 1e-7)):
        for target, c in ((0.25, 3.0), (0.8, 2.0)):
            values = [target + c / (h + 1) for h in horizons]
            assert abs(_fit_tail(horizons, values) - target) <= rel * target
    assert _fit_tail((8,), (0.7,)) == 0.7


def test_diagnostic_identical_processes():
    acov = ar1_acov()
    diag = convergence_diagnostic(acov, acov, (4, 8, 16), 0.0)
    assert diag.per_step_values == (0.0, 0.0, 0.0)
    assert diag.extrapolated_limit == 0.0
    assert diag.converged
    assert not diag.fit_degenerate
    assert all(mx > 0 and my > 0 for mx, my in diag.min_eigenvalues)


def test_diagnostic_ar1_vs_white_converges():
    target = spectral_w2(rational_grid(AR1, 8192), rational_grid(WHITE, 8192)).squared
    diag = convergence_diagnostic(
        ar1_acov(), white_acov(), (16, 32, 64, 128), target
    )
    assert diag.converged
    assert abs(diag.extrapolated_limit - target) <= 1e-3 * target
    assert abs(diag.trace_target_x - 4.0 / 3.0) <= 1e-12
    assert diag.trace_target_y == 1.0
    assert list(json.loads(json_dumps(diag)))[:6] == [
        "horizons", "per_step_values", "spectral_target",
        "extrapolated_limit", "converged", "min_eigenvalues",
    ]


def test_diagnostic_validations():
    acov = ar1_acov()
    with pytest.raises(ValueError):
        convergence_diagnostic(acov, acov, (), 0.0)
    with pytest.raises(ValueError):
        convergence_diagnostic(acov, acov, (8, 8), 0.0)


def test_default_horizons_fit_dense_budget():
    assert default_horizons(1) == DEFAULT_HORIZONS
    assert default_horizons(2) == DEFAULT_HORIZONS
    assert default_horizons(4) == DEFAULT_HORIZONS[: DEFAULT_HORIZONS.index(768) + 1]
    assert default_horizons(8) == DEFAULT_HORIZONS[: DEFAULT_HORIZONS.index(384) + 1]
    assert default_horizons(32) == (16, 24, 32, 48, 64, 96)
    for m in (3, 5, 17, 240):
        assert all((h + 1) * m <= DENSE_CAP for h in default_horizons(m))
    # No horizon fits: the first one stays, and the budget error names it.
    assert default_horizons(241) == (16,)
    wide = Autocovariance(lags=np.eye(241)[None])
    with pytest.raises(DimensionMismatch, match="4097 exceeds"):
        convergence_diagnostic(wide, wide)
    # Explicit horizons are not capped.
    square = Autocovariance(lags=np.eye(4)[None])
    with pytest.raises(DimensionMismatch):
        convergence_diagnostic(square, square, (16, 1024))


def test_diagnostic_flags_nonmonotone_tail(monkeypatch):
    # Natural rational pairs produce monotone tails, so drive the fit
    # input directly: a fake per-step integrand with a kink must raise the
    # warning and set the flag without aborting the run.
    per_step = {17: 1.0, 33: 2.0, 65: 1.5}

    def fake_integrand(a, b, policy):
        return per_step[a.shape[0]] * a.shape[0], None, None

    monkeypatch.setattr(specdist.toeplitz, "_integrand", fake_integrand)
    with pytest.warns(FitDegenerateWarning):
        diag = convergence_diagnostic(
            ar1_acov(), white_acov(), (16, 32, 64), 1.5
        )
    assert diag.fit_degenerate
    assert diag.per_step_values == (1.0, 2.0, 1.5)


def fake_sequence(monkeypatch, value):
    """Drive the oracle with per-step values ``value(h)`` in place of the
    transport cost; returns the horizons the kernel was asked for.  A real
    sequence rises to its limit, so the fakes below rise too."""
    asked = []

    def fake_integrand(a, b, policy):
        h = a.shape[0] - 1
        asked.append(h)
        return value(h) * (h + 1), None, None

    monkeypatch.setattr(specdist.toeplitz, "_integrand", fake_integrand)
    return asked


@pytest.mark.parametrize("rho, stop", [(0.4, 48), (0.7, 128), (0.8, 192)])
def test_default_schedule_stops_once_geometric_term_fades(monkeypatch, rho, stop):
    # The three-point fit absorbs L - c/(h+1) exactly, so two successive
    # fits differ by about the geometric term at the first point of the
    # earlier window, times that fit's weight on it (about 1.2 in magnitude
    # on this ladder).  The rule (a step under 1e-2 * 1e-3 |L| = 8e-6)
    # fires at the first horizon whose earlier window starts where
    # rho^h < 6e-6.
    limit = 0.8
    asked = fake_sequence(monkeypatch, lambda h: limit - 2.0 / (h + 1) - rho**h)
    diag = convergence_diagnostic(ar1_acov(), white_acov(), spectral_target=limit)
    ran = DEFAULT_HORIZONS[: DEFAULT_HORIZONS.index(stop) + 1]
    assert diag.horizons == ran and asked == list(ran)
    starts = [DEFAULT_HORIZONS[k - 3] for k in range(3, len(ran))]
    assert rho ** starts[-1] < 6e-6 and all(rho**h > 6e-6 for h in starts[:-1])
    assert abs(diag.extrapolated_limit - limit) <= 1e-5 * limit
    assert diag.converged and not diag.fit_degenerate
    assert len(diag.per_step_values) == len(diag.min_eigenvalues) == len(ran)


def test_default_schedule_runs_in_full_on_an_algebraic_tail(monkeypatch):
    # A (h+1)^(-1/2) term is outside the fit model: successive fits keep
    # moving by far more than the step tolerance, so no horizon is skipped.
    fake_sequence(monkeypatch, lambda h: 0.8 - 2.0 / (h + 1) - (h + 1) ** -0.5)
    diag = convergence_diagnostic(ar1_acov(), white_acov(), spectral_target=0.8)
    assert diag.horizons == DEFAULT_HORIZONS


def test_default_schedule_stops_at_dim_32(monkeypatch):
    # The dense cap leaves dim 32 the horizons 16 to 96, room for the stop
    # rule to fire.  An (h+1)-square stand-in replaces each stacked matrix,
    # so that no dense solve runs.
    monkeypatch.setattr(specdist.toeplitz, "build_block_toeplitz",
                        lambda acov, h, policy: (acov.lags[0, 0, 0] * np.eye(h + 1), 1.0))
    asked = fake_sequence(monkeypatch, lambda h: 0.8 - 2.0 / (h + 1) - 0.4**h)
    wide = [Autocovariance(lags=c * np.eye(32)[None]) for c in (1.0, 2.0)]
    diag = convergence_diagnostic(*wide, spectral_target=0.8)
    assert diag.horizons == (16, 24, 32, 48) and asked == [16, 24, 32, 48]
    assert diag.converged and not diag.fit_degenerate


def test_explicit_horizons_run_in_full(monkeypatch):
    asked = fake_sequence(monkeypatch, lambda h: 0.8 - 2.0 / (h + 1) - 0.4**h)
    diag = convergence_diagnostic(ar1_acov(), white_acov(), DEFAULT_HORIZONS, 0.8)
    assert diag.horizons == DEFAULT_HORIZONS and asked == list(DEFAULT_HORIZONS)


def test_identical_pair_stops_at_the_earliest_horizon():
    acov = ar1_acov()
    diag = convergence_diagnostic(acov, acov)
    assert diag.horizons == (16, 24, 32, 48)
    assert diag.per_step_values == (0.0, 0.0, 0.0, 0.0)
    assert diag.extrapolated_limit == 0.0 and diag.converged


@pytest.mark.parametrize("m", [1, 2, 3])
def test_finite_horizon_cost_is_superadditive(m):
    # a(n), the Gaussian cost between n-sample stacks, is n times the
    # per-step value at horizon n-1.  A coupling of n+k samples restricts to
    # couplings of the first n and the last k, whose costs add, so a(n+k) >=
    # a(n) + a(k), and by Fekete's lemma no per-step value exceeds the limit.
    # The lags are the whole grid's, up to its bandwidth.
    rng = np.random.default_rng(60 + m)
    acx, acy = (spectrum_to_autocov(rational_grid(random_varma21(m, rng), 128), 63)
                for _ in range(2))
    a = {n: n * per_step(acx, acy, n - 1) for n in (1, 2, 3, 5, 8, 16, 17, 32, 33)}
    for n, k in ((1, 1), (1, 2), (2, 3), (3, 5), (8, 8), (16, 16), (16, 17), (17, 16)):
        assert a[n + k] >= a[n] + a[k], (n, k)


def ar1_white_target():
    return spectral_w2(rational_grid(AR1, 8192), rational_grid(WHITE, 8192)).squared


def test_a_per_step_value_above_the_target_stops_the_schedule():
    # Against half the true target the first horizon's value already exceeds
    # target + tol; no later horizon can lower the limit, so the run stops.
    target = ar1_white_target()
    diag = convergence_diagnostic(ar1_acov(), white_acov(), spectral_target=0.5 * target)
    assert diag.horizons == (16,) and not diag.converged
    assert diag.per_step_values[0] > 0.5 * target * (1.0 + 1e-3)
    full = convergence_diagnostic(ar1_acov(), white_acov(), spectral_target=target)
    assert len(full.horizons) >= 4 and full.converged


def above_the_target_then_exact(h):
    # A value of 0.9 at h = 8, then 0.8 - 2/(h+1), which the tail fit meets exactly.
    return 0.9 if h == 8 else 0.8 - 2.0 / (h + 1)


def test_a_fit_below_a_per_step_value_is_degenerate(monkeypatch):
    # The tail is monotone and its fit meets the target, but a value above
    # target + tol is a lower bound on the limit above both.
    fake_sequence(monkeypatch, above_the_target_then_exact)
    with pytest.warns(FitDegenerateWarning):
        diag = convergence_diagnostic(ar1_acov(), white_acov(), (8, 16, 32, 64), 0.8)
    assert abs(diag.extrapolated_limit - 0.8) <= 1e-12
    assert not diag.converged and diag.fit_degenerate


@pytest.mark.parametrize("k", [-900, -450, 0, 450, 900])
def test_bound_verdicts_are_scale_free(monkeypatch, k):
    # Both lag sequences and the target times c = 2**k: the stop horizon,
    # the verdict and the flag stay, on real and on faked sequences.
    c = 2.0**k
    plain = [ar1_acov(), white_acov()]
    scaled = [Autocovariance(lags=c * a.lags) for a in plain]
    target = ar1_white_target()
    for t in (target, 0.5 * target):
        ref, got = (convergence_diagnostic(*pair, spectral_target=s * t)
                    for pair, s in ((plain, 1.0), (scaled, c)))
        assert (got.horizons, got.converged, got.fit_degenerate) == (
            ref.horizons, ref.converged, ref.fit_degenerate)
    fake_sequence(monkeypatch, lambda h: c * above_the_target_then_exact(h))
    with pytest.warns(FitDegenerateWarning):
        got = convergence_diagnostic(*scaled, (8, 16, 32, 64), c * 0.8)
    assert not got.converged and got.fit_degenerate
