"""Unit tests for the spectral distances and their diagnostics."""

import dataclasses
import json

import numpy as np
import pytest

import specdist.hermitian
from conftest import (
    commuting_pair,
    count_closed_forms,
    count_eigensolves,
    random_grid_spectrum,
    random_varma21,
    scalar_w2_squared,
)
from specdist.distances import gelbrich_lower_bound, hellinger, spectral_w2
from specdist.errors import (
    GridMismatch,
    NegativeDistance,
    NotPositiveDefinite,
)
from specdist.fileio import json_dumps
from specdist.hermitian import PsdPolicy, _roots, coupling_trace
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
    assert report.alt_gap is None
    assert abs(report.squared - report.value**2) <= 1e-12 * max(report.squared, 1e-300)
    assert np.all(report.per_freq_trace >= 0.0)
    assert not report.is_lower_bound
    keys = ["value", "squared", "n_freq", "per_freq_trace", "commutation_residual",
            "flooring_count", "is_lower_bound"]
    assert list(json.loads(json_dumps(report))) == keys
    # Only the Hellinger report carries the coupling-trace gap, last.
    hell = hellinger(x, y)
    assert hell.alt_gap.shape == (32,)
    assert list(json.loads(json_dumps(hell))) == keys + ["alt_gap"]


def test_identical_grids_are_exactly_zero():
    x = random_grid_spectrum(3, np.random.default_rng(3), 16)
    # A flooring count on the clone, so that the sum is not 0 + 0.
    clone = dataclasses.replace(x, values=x.full().copy(), flooring_count=x.flooring_count + 2)
    for fn in (spectral_w2, gelbrich_lower_bound, hellinger):
        report = fn(x, clone)
        assert report.value == 0.0
        assert report.squared == 0.0
        assert report.n_freq == 16
        assert np.all(report.per_freq_trace == 0.0)
        if fn is hellinger:
            assert np.all(report.alt_gap == 0.0) and report.alt_gap.shape == (16,)
        else:
            assert report.alt_gap is None
        assert report.commutation_residual == 0.0
        assert report.flooring_count == x.flooring_count + clone.flooring_count


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
    gaps = hellinger(flat_grid(4.0), flat_grid(1.0)).alt_gap
    assert np.max(np.abs(gaps)) <= 1e-12
    cx, cy = commuting_pair(3, np.random.default_rng(11))
    gaps = hellinger(cx, cy).alt_gap
    scale = float(np.max(np.trace(cx.full(), axis1=-2, axis2=-1).real))
    assert np.max(np.abs(gaps)) <= 1e-10 * scale


def test_alt_gap_noncommuting():
    x = random_grid_spectrum(2, np.random.default_rng(7), 32)
    y = random_grid_spectrum(2, np.random.default_rng(8), 32)
    report = hellinger(x, y)
    assert report.commutation_residual > 1e-3
    scale = np.trace(x.full(), axis1=-2, axis2=-1).real
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
    scale = float(np.max(np.trace(x.full(), axis1=-2, axis2=-1).real
                         + np.trace(y.full(), axis1=-2, axis2=-1).real))
    identity = hell.per_freq_trace - (w2.per_freq_trace + 2.0 * hell.alt_gap)
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
        GridSpectrum.build(c * x.full()), GridSpectrum.build(c * y.full())
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
    bad = dataclasses.replace(good, values=bad_values)
    for fn in (spectral_w2, hellinger):
        with pytest.raises(NotPositiveDefinite):
            fn(good, bad)


def test_one_batched_eigensolve_per_distance(monkeypatch):
    # The transport distance couples on a Cholesky factor of x, so it
    # decomposes only the coupling sandwich, for its eigenvalues.
    x = random_grid_spectrum(3, np.random.default_rng(5), 32)
    y = random_grid_spectrum(3, np.random.default_rng(6), 32)
    choleskys = []
    calls = count_eigensolves(monkeypatch, choleskys)
    spectral_w2(x, y)
    assert calls == [(32, 3, 3)] and choleskys == [(32, 3, 3)]


def test_a_row_without_a_cholesky_factor_takes_the_floored_roots(monkeypatch):
    # Without a floor, a row of x that is singular to the last bit (a zero
    # last row and column) keeps no Cholesky factor; the batched factor then
    # falls back to the floored roots, which match the root reference.
    policy = PsdPolicy(floor_eps=0.0)
    rng = np.random.default_rng(27)
    values = random_grid_spectrum(3, rng, 16).full().copy()
    values[5, 2, :] = values[5, :, 2] = 0.0
    x, y = GridSpectrum.build(values, policy), random_grid_spectrum(3, rng, 16)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(x.full()[5])
    choleskys = []
    calls = count_eigensolves(monkeypatch, choleskys)
    got = spectral_w2(x, y, policy).squared
    assert choleskys == [(16, 3, 3)] and calls == [(16, 3, 3)] * 2
    scale = np.trace(x.full() + y.full(), axis1=1, axis2=2).real
    want = float(np.mean(scale - 2.0 * coupling_trace(_roots(x.full()), y.full())))
    assert abs(got - want) <= 1e-12 * want


def test_negative_band_guard(monkeypatch):
    # Collapse the round-off band so machine noise on a near-identical
    # pair trips the guard; every one of these seeds does on the
    # reference setup, one suffices.
    monkeypatch.setattr(specdist.hermitian, "NEGATIVE_BAND", 0.0)
    raised = 0
    for seed in range(5):
        x = random_grid_spectrum(2, np.random.default_rng(seed), 16)
        perturbed = x.full().copy()
        perturbed[0, 0, 0] += 1e-12
        y = GridSpectrum.build(perturbed)
        try:
            spectral_w2(x, y)
        except NegativeDistance:
            raised += 1
    assert raised >= 1


HALF_CASES = pytest.mark.parametrize(
    "m, n_freq", [(m, n) for m in (1, 2, 3, 8) for n in (8, 15, 64)]
)


def model_pair(m, n_freq):
    rng = np.random.default_rng(100 * m + n_freq)
    return tuple(rational_grid(random_varma21(m, rng), n_freq) for _ in range(2))


def assert_same_diagnostics(reports):
    # Every distance reports the pair's diagnostics bitwise alike.
    first = reports[0]
    for report in reports[1:]:
        assert report.commutation_residual == first.commutation_residual
        assert report.flooring_count == first.flooring_count


@HALF_CASES
def test_mirrored_pair_matches_full_grid_coupling(m, n_freq):
    x, y = model_pair(m, n_freq)
    # The whole-grid reference, one coupling per frequency row.
    (vx, rx), (vy, ry) = ((g.full(), _roots(g.full())) for g in (x, y))
    scale = (np.trace(vx, axis1=1, axis2=2) + np.trace(vy, axis1=1, axis2=2)).real
    tsp = coupling_trace(rx, vy)
    hell = np.sum(np.abs(rx - ry) ** 2, axis=(1, 2))
    alt = tsp - np.einsum("fij,fji->f", rx, ry).real
    reports = []
    for fn, ref in ((spectral_w2, scale - 2.0 * tsp), (gelbrich_lower_bound, scale - 2.0 * tsp),
                    (hellinger, hell)):
        report = fn(x, y)
        reports.append(report)
        pairs = [(report.per_freq_trace, ref)]
        if fn is hellinger:
            pairs.append((report.alt_gap, alt))
        for got, want in pairs:
            assert np.all(np.abs(got - want) <= 1e-12 * scale)
            # Row N-l is row l, bitwise.
            assert np.array_equal(got[1:], got[1:][::-1])
    assert_same_diagnostics(reports)


@HALF_CASES
def test_mirrored_pair_couples_half_the_grid(monkeypatch, m, n_freq):
    x, y = model_pair(m, n_freq)
    choleskys = []
    calls = count_eigensolves(monkeypatch, choleskys)
    closed = count_closed_forms(monkeypatch)
    spectral_w2(x, y)
    # At m = 2 the factor of x is its closed-form root and the coupling's
    # eigenvalues come from the closed form; at any other m the factor is
    # the Cholesky factor.
    half = [(n_freq // 2 + 1, m, m)]
    if m == 2:
        assert (closed, calls, choleskys) == (half * 2, [], [])
    else:
        assert (closed, calls, choleskys) == ([], half, half)


@pytest.mark.parametrize("m", [2, 8])
def test_hellinger_decomposes_each_side_once(monkeypatch, m):
    # The root of x is both the coupling factor and the Hellinger operand:
    # at m = 2 three closed forms (the two roots and the coupling), and at
    # m = 8 two root eigh and one coupling eigvalsh, with no Cholesky factor.
    x, y = model_pair(m, 64)
    choleskys = []
    calls = count_eigensolves(monkeypatch, choleskys)
    closed = count_closed_forms(monkeypatch)
    hellinger(x, y)
    half = [(33, m, m)]
    if m == 2:
        assert (closed, calls, choleskys) == (half * 3, [], [])
    else:
        assert (closed, calls, choleskys) == ([], half * 3, [])


@pytest.mark.parametrize("m", [1, 3])
def test_unmirrored_pairs_couple_the_whole_grid(monkeypatch, m):
    rng = np.random.default_rng(m)
    gx, gy = (random_grid_spectrum(m, rng, 32) for _ in range(2))
    x, y = model_pair(m, 32)
    # One row off its mirror image, in the values of x or of y (by little
    # enough to keep the gap inside its round-off band).
    values_x, values_y = x.full().copy(), y.full().copy()
    values_x[3] *= 1.0 + 1e-14
    values_y[30] *= 1.0 + 1e-14
    pairs = ((gx, gy), (dataclasses.replace(x, values=values_x), y),
             (x, dataclasses.replace(y, values=values_y)))
    calls = count_eigensolves(monkeypatch)
    for a, b in pairs:
        spectral_w2(a, b)
    assert calls == [(32, m, m)] * 3
    for a, b in pairs:
        assert_same_diagnostics([fn(a, b) for fn in (spectral_w2, gelbrich_lower_bound, hellinger)])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_mixed_pair_is_coupled_on_its_full_grids(monkeypatch, m):
    # A mirrored grid against one given all its rows reports, byte for byte,
    # what two full grids report: both are coupled on every row.
    x, y = model_pair(m, 32)
    whole_x, whole_y = (GridSpectrum(values=g.full()) for g in (x, y))
    for fn in (spectral_w2, gelbrich_lower_bound, hellinger):
        want = json_dumps(fn(whole_x, whole_y))
        assert json_dumps(fn(x, whole_y)) == json_dumps(fn(whole_x, y)) == want
    # Bitwise-equal full grids are coincident whichever side is mirrored.
    report = spectral_w2(x, whole_x)
    assert report.squared == 0.0 and report.per_freq_trace.shape == (32,)


def test_mirrored_pair_reads_the_build_decision(monkeypatch):
    x, y = model_pair(3, 32)
    calls = []
    array_equal = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda *a: calls.append(a) or array_equal(*a))
    spectral_w2(x, y)
    # Only the bitwise identity check, on the kept rows: the mirror test is
    # not repeated and no full grid is made.
    assert len(calls) == 1 and calls[0][0] is x.values and calls[0][1] is y.values
    assert x.mirrored and y.mirrored
