"""Unit tests for the spectral distances and their diagnostics."""

import dataclasses

import numpy as np
import pytest

import specdist.hermitian
from conftest import (
    commuting_pair,
    count_eigensolves,
    random_grid_spectrum,
    scalar_w2_squared,
)
from specdist.distances import gelbrich_lower_bound, hellinger, spectral_w2
from specdist.errors import (
    GridMismatch,
    IndefiniteInput,
    NegativeDistance,
    NotPositiveDefinite,
)
from specdist.spectra import (
    GridSpectrum,
    RationalSpectrum,
    default_omegas,
    rational_grid,
)

AR1 = RationalSpectrum(
    ar=np.array([[[0.5]]]), ma=np.array([[[1.0]]]), noise_cov=np.array([[1.0]])
)
WHITE = RationalSpectrum(
    ar=np.zeros((0, 1, 1)), ma=np.array([[[1.0]]]), noise_cov=np.array([[1.0]])
)


def scalar_grid(values):
    return GridSpectrum.build(np.asarray(values, dtype=complex)[:, None, None])


def flat_grid(level, n_freq=8):
    return scalar_grid(np.full(n_freq, float(level)))


def test_report_shape_and_consistency():
    x = random_grid_spectrum(2, np.random.default_rng(1), 32)
    y = random_grid_spectrum(2, np.random.default_rng(2), 32)
    report = spectral_w2(x, y)
    assert report.n_freq == 32
    assert report.per_freq_trace.shape == (32,)
    assert report.alt_gap.shape == (32,)
    assert abs(report.squared - report.value**2) <= 1e-12 * max(report.squared, 1e-300)
    assert np.all(report.per_freq_trace >= 0.0)
    assert not report.is_lower_bound
    payload = report.as_dict()
    assert list(payload) == [
        "value", "squared", "n_freq", "per_freq_trace", "alt_gap",
        "commutation_residual", "flooring_count", "is_lower_bound",
    ]


def test_identical_grids_are_exactly_zero():
    x = random_grid_spectrum(3, np.random.default_rng(3), 16)
    clone = dataclasses.replace(x, values=x.values.copy(), root=x.root.copy())
    for fn in (spectral_w2, gelbrich_lower_bound, hellinger):
        report = fn(x, clone)
        assert report.value == 0.0
        assert report.squared == 0.0
        assert np.all(report.per_freq_trace == 0.0)
        assert report.commutation_residual == 0.0


def test_flat_scalar_pair_is_exact():
    report = spectral_w2(flat_grid(4.0), flat_grid(1.0))
    assert report.value == 1.0
    assert np.all(report.per_freq_trace == 1.0)


def test_grid_mismatch():
    x = random_grid_spectrum(2, np.random.default_rng(6), 16)
    y2 = random_grid_spectrum(2, np.random.default_rng(7), 32)
    y3 = random_grid_spectrum(3, np.random.default_rng(8), 16)
    with pytest.raises(GridMismatch):
        spectral_w2(x, y2)
    with pytest.raises(GridMismatch):
        spectral_w2(x, y3)


def test_alt_gap_scalar_and_commuting():
    gaps = spectral_w2(flat_grid(4.0), flat_grid(1.0)).alt_gap
    assert np.max(np.abs(gaps)) <= 1e-12
    cx, cy = commuting_pair(3, np.random.default_rng(11))
    gaps = spectral_w2(cx, cy).alt_gap
    scale = float(np.max(np.trace(cx.values, axis1=-2, axis2=-1).real))
    assert np.max(np.abs(gaps)) <= 1e-10 * scale


def test_alt_gap_noncommuting():
    x = random_grid_spectrum(2, np.random.default_rng(7), 32)
    y = random_grid_spectrum(2, np.random.default_rng(8), 32)
    report = spectral_w2(x, y)
    assert report.commutation_residual > 1e-3
    scale = np.trace(x.values, axis1=-2, axis2=-1).real
    assert np.all(report.alt_gap >= -1e-10 * scale)
    assert float(report.alt_gap.max()) > 1e-6


def test_hellinger_ordering_identity():
    # Per frequency the two integrands differ by exactly twice the
    # coupling-trace gap, so a nonnegative gap forces the transport value
    # to sit at or below the Hellinger value.
    x = random_grid_spectrum(2, np.random.default_rng(7), 32)
    y = random_grid_spectrum(2, np.random.default_rng(8), 32)
    w2 = spectral_w2(x, y)
    hell = hellinger(x, y)
    scale = float(np.max(np.trace(x.values, axis1=-2, axis2=-1).real
                         + np.trace(y.values, axis1=-2, axis2=-1).real))
    identity = hell.per_freq_trace - (w2.per_freq_trace + 2.0 * w2.alt_gap)
    assert np.max(np.abs(identity)) <= 1e-10 * scale
    assert w2.value <= hell.value + 1e-9 * scale


def test_hellinger_commuting_equality():
    cx, cy = commuting_pair(2, np.random.default_rng(12))
    w2 = spectral_w2(cx, cy)
    hell = hellinger(cx, cy)
    assert abs(hell.value - w2.value) <= 1e-9 * max(w2.value, 1.0)


def test_gelbrich_is_same_number_with_bound_semantics():
    x = random_grid_spectrum(2, np.random.default_rng(13), 16)
    y = random_grid_spectrum(2, np.random.default_rng(14), 16)
    w2 = spectral_w2(x, y)
    bound = gelbrich_lower_bound(x, y)
    assert bound.is_lower_bound
    assert bound.value == w2.value
    assert bound.squared == w2.squared


def test_scalar_path_consistency():
    x = rational_grid(AR1, 256)
    y = rational_grid(WHITE, 256)
    matrix_path = spectral_w2(x, y)
    closed_form = np.sqrt(scalar_w2_squared(x, y))
    assert abs(matrix_path.value - closed_form) <= 1e-12
    assert abs(gelbrich_lower_bound(x, y).value - closed_form) <= 1e-12


def test_ar1_vs_white_frozen_value():
    # Pinned against an 8192-point evaluation; the rectangle rule has
    # saturated double precision long before 256 points.
    x = rational_grid(AR1, 256)
    y = rational_grid(WHITE, 256)
    assert abs(spectral_w2(x, y).value - 0.43239949009521805) <= 1e-12


def test_grid_refinement_saturates():
    coarse = spectral_w2(rational_grid(AR1, 4096), rational_grid(WHITE, 4096)).value
    fine = spectral_w2(rational_grid(AR1, 8192), rational_grid(WHITE, 8192)).value
    assert abs(coarse - fine) < 1e-6


def test_ma1_vs_flat_quadrature_value():
    # Independent target from a 1e6-point rectangle rule on the closed
    # scalar form of the integrand.
    x = scalar_grid(1.25 + np.cos(default_omegas(4096)))
    y = flat_grid(1.0, 4096)
    report = spectral_w2(x, y)
    assert abs(report.squared - 0.12291118005327009) <= 1e-9


def test_scaling_law():
    x = random_grid_spectrum(2, np.random.default_rng(15), 16)
    y = random_grid_spectrum(2, np.random.default_rng(16), 16)
    c = 2.5
    base = spectral_w2(x, y).value
    scaled = spectral_w2(
        GridSpectrum.build(c * x.values), GridSpectrum.build(c * y.values)
    ).value
    assert abs(scaled - np.sqrt(c) * base) <= 1e-10 * scaled


def test_symmetry_and_triangle_sampled():
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = random_grid_spectrum(2, rng, 16)
        y = random_grid_spectrum(2, rng, 16)
        z = random_grid_spectrum(2, rng, 16)
        dxy = spectral_w2(x, y).value
        assert abs(dxy - spectral_w2(y, x).value) <= 1e-9 * dxy
        dxz = spectral_w2(x, z).value
        dyz = spectral_w2(y, z).value
        assert dxz <= dxy + dyz + 1e-8 * (dxy + dyz)


def test_indefinite_input_propagates():
    # A built grid is definite: the first operand's check happens in
    # build.  A hand-built indefinite second operand is caught by the
    # coupling kernel, because the sandwich is a sign-keeping congruence.
    bad_values = np.broadcast_to(np.diag([1.0, -1.0]).astype(complex), (4, 2, 2)).copy()
    with pytest.raises(NotPositiveDefinite):
        GridSpectrum.build(bad_values)
    good = random_grid_spectrum(2, np.random.default_rng(3), 4)
    bad = dataclasses.replace(good, values=bad_values, root=np.full_like(bad_values, np.nan))
    for fn in (spectral_w2, hellinger):
        with pytest.raises(IndefiniteInput):
            fn(good, bad)


def test_one_batched_eigensolve_per_distance(monkeypatch):
    # The roots come from GridSpectrum.build, so the distance itself only
    # decomposes the coupling sandwich.
    x = random_grid_spectrum(3, np.random.default_rng(5), 32)
    y = random_grid_spectrum(3, np.random.default_rng(6), 32)
    calls = count_eigensolves(monkeypatch)
    spectral_w2(x, y)
    assert calls == [(32, 3, 3)]


def test_negative_band_guard(monkeypatch):
    # Collapse the round-off band so machine noise on a near-identical
    # pair trips the guard; every one of these seeds does on the
    # reference setup, one suffices.
    monkeypatch.setattr(specdist.hermitian, "NEGATIVE_BAND", 0.0)
    raised = 0
    for seed in range(5):
        x = random_grid_spectrum(2, np.random.default_rng(seed), 16)
        perturbed = x.values.copy()
        perturbed[0, 0, 0] += 1e-12
        y = GridSpectrum.build(perturbed)
        try:
            spectral_w2(x, y)
        except NegativeDistance:
            raised += 1
    assert raised >= 1
