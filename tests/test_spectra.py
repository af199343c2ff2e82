"""Unit tests for spectrum representations, transforms and estimation."""

import dataclasses
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    count_closed_forms,
    count_eigensolves,
    random_grid_spectrum,
    random_pd,
    random_varma21,
    rational_value,
    record_shapes,
    refuse_inverse,
)
from specdist.errors import (
    DimensionMismatch,
    GridTooCoarse,
    LagTooLarge,
    NonHermitianInput,
    NonRealResidue,
    NotPositiveDefinite,
    SingularAr,
    TooFewSegments,
    UnstableModel,
)
from specdist.hermitian import (
    DEFAULT_POLICY,
    PsdPolicy,
    _eigvalsh,
    _matmul,
    _nothing_to_floor,
    _roots,
    hermitian_part,
    sqrt_psd_many,
)
from specdist.spectra import (
    REAL_SYMMETRY_TOL,
    Autocovariance,
    GridSpectrum,
    RationalSpectrum,
    _mirror,
    _mirrored_rows,
    _transfer,
    autocov_to_spectrum,
    check_real_symmetry,
    default_omegas,
    estimate_welch,
    rational_grid,
    spectrum_to_autocov,
    stability_radius,
)


def ar1_model(a=0.5, var=1.0):
    return RationalSpectrum(
        ar=np.array([[[a]]]), ma=np.array([[[1.0]]]), noise_cov=np.array([[var]])
    )


def white_model(var=1.0, m=1):
    return RationalSpectrum(
        ar=np.zeros((0, m, m)), ma=np.eye(m)[None], noise_cov=var * np.eye(m)
    )


def ma_model(*coefs):
    return RationalSpectrum(ar=np.zeros((0, 1, 1)), ma=np.array(coefs, float)[:, None, None],
                            noise_cov=np.eye(1))


def random_acov(m, rng, max_lag=3):
    """Lags scaled well inside R(0)'s smallest eigenvalue: PD everywhere."""
    r0 = random_pd(m, rng)
    margin = float(np.linalg.eigvalsh(r0)[0])
    lags = [r0]
    for k, g in enumerate(rng.standard_normal((max_lag, m, m)), start=1):
        lags.append((0.1 * margin / k) * g / np.linalg.norm(g, 2))
    return Autocovariance(lags=np.stack(lags))


def scalar_grid(values):
    return GridSpectrum.build(np.asarray(values, dtype=complex)[:, None, None])


def test_default_omegas():
    assert np.allclose(default_omegas(4), [0.0, np.pi / 2, np.pi, 1.5 * np.pi])


def test_grid_build_validations():
    with pytest.raises(DimensionMismatch):
        GridSpectrum.build(np.ones((4, 2, 3)))
    skew = np.broadcast_to(np.array([[1.0, 1.0], [0.0, 1.0]]), (4, 2, 2))
    with pytest.raises(NonHermitianInput):
        GridSpectrum.build(skew)
    with pytest.raises(NotPositiveDefinite):
        GridSpectrum.build(np.zeros((4, 1, 1)))
    indef = np.broadcast_to(np.diag([1.0, -1.0]), (4, 2, 2))
    with pytest.raises(NotPositiveDefinite):
        GridSpectrum.build(indef)


def _floored_grid():
    # 1 + cos(w) in a rotated basis: one eigenvalue hits zero at w = pi.
    rng = np.random.default_rng(7)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(g)
    omegas = default_omegas(16)
    curves = np.stack([1.0 + np.cos(omegas), 2.0 + np.sin(omegas), np.full(16, 3.0)], 1)
    return GridSpectrum.build(np.einsum("ij,fj,kj->fik", q, curves, q.conj()))


@pytest.mark.parametrize("case", [1, 2, 3, "floored"])
def test_grid_root_from_build_decomposition(case):
    if case == "floored":
        spec = _floored_grid()
        assert spec.flooring_count == 1
        # Decomposing a floored value again moves its floor eigenvalue by
        # about eps * scale, which the root amplifies by 1 / (2 sqrt(floor)).
        ref_tol = np.finfo(float).eps / np.sqrt(DEFAULT_POLICY.floor_eps)
    else:
        spec = random_grid_spectrum(case, np.random.default_rng(11), 32)
        ref_tol = 1e-12
    # A grid keeps no root; the Hellinger path derives the roots it needs.
    assert not hasattr(spec, "root")
    values = spec.full()
    root = _roots(values)
    assert root.shape == values.shape
    scale = np.max(np.abs(values))
    assert np.max(np.abs(root @ root - values)) <= 1e-12 * scale
    ref = sqrt_psd_many(values)
    assert np.max(np.abs(root - ref)) <= ref_tol * np.max(np.abs(ref))


def test_grid_build_floors_spectral_zero():
    # 1 + cos(w) hits zero at w = pi; that single frequency is lifted to
    # the floor (relative to the grid-wide maximum) and counted.
    omegas = default_omegas(8)
    spec = scalar_grid(1.0 + np.cos(omegas))
    assert spec.flooring_count == 1
    assert spec.real_symmetry
    floored = spec.full()[4, 0, 0].real
    assert 0.0 < floored <= 1e-12 * 2.0 * (1.0 + 1e-9)


def test_eval_rational_trivial_cases():
    # The one-frequency reference on closed values, then the library grid.
    assert np.allclose(rational_value(white_model(m=2), 0.7), np.eye(2), atol=1e-14)
    model = ar1_model()
    assert abs(rational_value(model, 0.0)[0, 0] - 4.0) <= 1e-12
    assert abs(rational_value(model, np.pi)[0, 0] - 1.0 / 2.25) <= 1e-12
    assert np.allclose(rational_grid(white_model(m=2), 8).full(), np.eye(2), atol=1e-14)
    grid = rational_grid(model, 8)
    assert abs(grid.full()[0, 0, 0] - 4.0) <= 1e-12
    assert abs(grid.full()[4, 0, 0] - 1.0 / 2.25) <= 1e-12


def test_eval_rational_hermitian_everywhere():
    # The library grid matches the model definition evaluated one
    # frequency at a time, on a VARMA(2,2) with a non-identity MA part.
    rng = np.random.default_rng(2)
    ar = 0.3 * rng.standard_normal((2, 2, 2)) / 2.0
    ma = np.concatenate([np.eye(2)[None], 0.5 * rng.standard_normal((2, 2, 2))])
    model = RationalSpectrum(ar=ar, ma=ma, noise_cov=random_pd(2, rng))
    values = rational_grid(model, 32).full()
    assert np.max(np.abs(values - np.conj(np.swapaxes(values, 1, 2)))) == 0.0
    for l, omega in enumerate(default_omegas(32)):
        ref = rational_value(model, omega)
        assert np.max(np.abs(values[l] - ref)) <= 1e-12 * np.max(np.abs(ref))


GRIDS = pytest.mark.parametrize("n_freq", [8, 15, 64])
DIMS = pytest.mark.parametrize("m", [1, 2, 3])


@GRIDS
@DIMS
def test_rational_grid_matches_reference_at_every_frequency(m, n_freq):
    # Mirrored rows, odd N included, against the model definition.
    model = random_varma21(m, np.random.default_rng(10 * m + n_freq))
    grid = rational_grid(model, n_freq)
    assert grid.n_freq == n_freq
    values = grid.full()
    for l, omega in enumerate(default_omegas(n_freq)):
        ref = rational_value(model, omega)
        assert np.max(np.abs(values[l] - ref)) <= 1e-13 * np.max(np.abs(ref))


@GRIDS
@DIMS
def test_autocov_to_spectrum_matches_full_fft(m, n_freq):
    acov = random_acov(m, np.random.default_rng(10 * m + n_freq))
    seq = np.zeros((n_freq, m, m))
    seq[0] = acov.lags[0]
    for k in range(1, acov.max_lag + 1):
        seq[k], seq[n_freq - k] = acov.lags[k], acov.lags[k].T
    ref = np.fft.fft(seq, axis=0)
    grid = autocov_to_spectrum(acov, n_freq)
    err = np.max(np.abs(grid.full() - ref), axis=(1, 2))
    assert np.all(err <= 1e-13 * np.max(np.abs(ref), axis=(1, 2)))


@GRIDS
def test_real_sources_are_exactly_mirrored(n_freq):
    rng = np.random.default_rng(n_freq)
    for m in (1, 2, 3):
        for grid in (rational_grid(random_varma21(m, rng), n_freq),
                     autocov_to_spectrum(random_acov(m, rng), n_freq)):
            assert grid.real_symmetry
            assert check_real_symmetry(grid) == 0.0


def test_flooring_count_matches_full_grid():
    # 1 + z vanishes at pi, row N/2, which is its own mirror image.
    assert rational_grid(ma_model(1.0, 1.0), 16).flooring_count == 1
    # 1 + z + z^2 vanishes at +-2 pi / 3, rows 16 and 32 of 48: one
    # evaluated interior row, counted for itself and its mirror.
    assert rational_grid(ma_model(1.0, 1.0, 1.0), 48).flooring_count == 2


@DIMS
def test_rational_grid_decomposes_half_the_grid(monkeypatch, m):
    # One inverse serves the transfer function and the condition guard,
    # LAPACK's except at m = 2, where it is the closed form; no SVD runs.
    # The build's gate takes the rows, with no eigensolve: the closed form
    # at m = 2, one shifted Cholesky otherwise.
    model = random_varma21(m, np.random.default_rng(m))
    invs, svds, choleskys = [], [], []
    record_shapes(monkeypatch, ("inv",), invs)
    record_shapes(monkeypatch, ("cond", "svd"), svds)
    eigs = count_eigensolves(monkeypatch, choleskys)
    closed = count_closed_forms(monkeypatch)
    rational_grid(model, 64)
    gate = [(33, m, m)]
    assert (closed, choleskys) == ((gate, []) if m == 2 else ([], gate))
    assert eigs == []
    assert invs == ([] if m == 2 else [(33, m, m)])
    assert svds == []


def test_stability_checks():
    assert stability_radius(np.zeros((0, 1, 1))) == 0.0
    assert abs(stability_radius(np.array([[[0.5]]])) - 0.5) <= 1e-12
    with pytest.raises(UnstableModel):
        ar1_model(a=1.01)


def test_rational_validations():
    eye = np.eye(2)[None]
    with pytest.raises(NotPositiveDefinite):
        RationalSpectrum(ar=np.zeros((0, 2, 2)), ma=eye,
                         noise_cov=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        RationalSpectrum(ar=np.zeros((0, 2, 2)), ma=eye, noise_cov=np.diag([1.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        RationalSpectrum(ar=np.zeros((2, 3, 3)), ma=eye, noise_cov=np.eye(2))
    with pytest.raises(DimensionMismatch, match="noise_cov must be square"):
        RationalSpectrum(ar=np.zeros((0, 2, 2)), ma=eye, noise_cov=np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        RationalSpectrum(ar=np.zeros((0, 2, 2)), ma=np.zeros((0, 2, 2)),
                         noise_cov=np.eye(2))


def test_singular_ar():
    # The AR polynomial collapses in one channel at w = 0 while the
    # companion radius stays (barely) below one.
    model = RationalSpectrum(
        ar=np.array([[[1.0 - 1e-13, 0.0], [0.0, 0.0]]]),
        ma=np.eye(2)[None],
        noise_cov=np.eye(2),
    )
    with pytest.raises(SingularAr):
        rational_grid(model, 8)


def test_singular_ar_reports_the_one_norm_condition():
    model = RationalSpectrum(
        ar=np.array([[[1.0 - 1e-13, 0.0], [0.0, 0.0]]]),
        ma=np.eye(2)[None],
        noise_cov=np.eye(2),
    )
    with pytest.raises(SingularAr) as info:
        rational_grid(model, 8)
    found = re.search(r"frequency index (\d+) \(1-norm condition (\S+)\)", str(info.value))
    idx, cond = int(found[1]), float(found[2])
    a = np.eye(2) - model.ar[0] * np.exp(-1j * default_omegas(8)[idx])
    assert abs(cond - np.linalg.cond(a, 1)) <= 1e-6 * np.linalg.cond(a, 1)


def test_exactly_singular_ar_is_singular_ar(monkeypatch):
    refuse_inverse(monkeypatch)
    with pytest.raises(SingularAr):
        rational_grid(ar1_model(), 8)


def test_exactly_singular_ar_is_singular_ar_at_m2():
    # No stable model has an exactly singular A(w) on the unit circle, so
    # _transfer takes the coefficients alone: A(0) = diag(0, 1) has a zero
    # determinant, which the closed-form inverse refuses, with no warning.
    coefs = SimpleNamespace(dim=2, ar=np.diag([1.0, 0.0])[None], ma=np.eye(2)[None])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularAr, match="exactly singular"):
            _transfer(coefs, default_omegas(8))


def test_autocov_validations():
    with pytest.raises(DimensionMismatch):
        Autocovariance(lags=np.ones((3, 2)))
    with pytest.raises(NotPositiveDefinite):
        Autocovariance(lags=np.array([[[1.0, 0.5], [0.0, 1.0]]]))
    with pytest.raises(NotPositiveDefinite):
        Autocovariance(lags=np.array([[[-1.0]]]))
    acov = Autocovariance(lags=np.array([[[1.25]], [[0.5]]]))
    assert acov.dim == 1
    assert acov.max_lag == 1


@pytest.mark.parametrize("shape", [(0, 1, 1), (0, 2, 2), (1, 0, 0)])
def test_autocov_without_lags_or_channels_is_refused(shape):
    with pytest.raises(DimensionMismatch, match=re.escape(f"got {shape}")):
        Autocovariance(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_refused(bad):
    # Rows [1, 3] make an exact mirror of an inf, which takes the half path
    # (a NaN never compares equal).  The one symmetry rule refuses every
    # case with the same message and no RuntimeWarning.
    for rows in ([1], [1, 3]):
        values = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
        values[rows, 0, 1] = values[rows, 1, 0] = bad
        with pytest.raises(NonHermitianInput, match=re.escape(
                "spectrum has symmetry residual nan (tolerance 1.0e-08)")):
            GridSpectrum.build(values)
    with pytest.raises(NotPositiveDefinite):
        Autocovariance(lags=np.array([[[1.0, 0.0], [0.0, bad]]]))
    with pytest.raises(ValueError):
        Autocovariance(lags=np.array([[[1.0]], [[bad]]]))
    eye = np.eye(2)[None]
    with pytest.raises(NotPositiveDefinite):
        RationalSpectrum(ar=np.zeros((0, 2, 2)), ma=eye, noise_cov=np.diag([1.0, bad]))
    with pytest.raises(ValueError):
        RationalSpectrum(ar=np.full((1, 2, 2), bad), ma=eye, noise_cov=np.eye(2))
    with pytest.raises(ValueError):
        RationalSpectrum(ar=np.zeros((0, 2, 2)), ma=np.full((1, 2, 2), bad), noise_cov=np.eye(2))


def test_autocov_to_spectrum_trivial_cases():
    flat = autocov_to_spectrum(Autocovariance(lags=2.5 * np.eye(2)[None]), 8)
    assert np.allclose(flat.full(), 2.5 * np.eye(2), atol=1e-14)
    ma1 = autocov_to_spectrum(Autocovariance(lags=np.array([[[1.25]], [[0.5]]])), 256)
    assert abs(ma1.full()[0, 0, 0].real - 2.25) <= 1e-12
    assert abs(ma1.full()[128, 0, 0].real - 0.25) <= 1e-12
    with pytest.raises(GridTooCoarse):
        autocov_to_spectrum(Autocovariance(lags=np.ones((4, 1, 1)) * np.eye(1)), 6)


def test_autocov_to_spectrum_matches_rational():
    # Closed-form AR(1) autocovariance (4/3) * 0.5^k against the transfer
    # function evaluated on the same grid.
    k = np.arange(41)
    acov = Autocovariance(lags=((4.0 / 3.0) * 0.5**k)[:, None, None])
    from_lags = autocov_to_spectrum(acov, 256)
    from_model = rational_grid(ar1_model(), 256)
    assert np.max(np.abs(from_lags.full() - from_model.full())) <= 1e-8


def test_spectrum_to_autocov_trivial_cases():
    flat = GridSpectrum.build(np.broadcast_to(2.5 * np.eye(2), (8, 2, 2)))
    acov = spectrum_to_autocov(flat, 3)
    assert np.allclose(acov.lags[0], 2.5 * np.eye(2), atol=1e-14)
    assert np.max(np.abs(acov.lags[1:])) <= 1e-14

    cosine = scalar_grid(1.25 + np.cos(default_omegas(256)))
    back = spectrum_to_autocov(cosine, 2)
    assert abs(back.lags[0, 0, 0] - 1.25) <= 1e-12
    assert abs(back.lags[1, 0, 0] - 0.5) <= 1e-12
    assert abs(back.lags[2, 0, 0]) <= 1e-12

    with pytest.raises(LagTooLarge):
        spectrum_to_autocov(flat, 4)
    with pytest.raises(ValueError):
        spectrum_to_autocov(flat, -1)


@pytest.mark.parametrize("n_freq", [1, 2, 3, 15, 16])
def test_spectrum_to_autocov_default_cut_is_the_largest_admitted_lag(n_freq):
    # Lags that do not decay run to the grid's bandwidth (N-1)//2, the
    # largest lag that both LagTooLarge (2K < N) and GridTooCoarse
    # (N >= 2K+1) admit.
    k = (n_freq - 1) // 2
    lags = 0.1 * np.ones((k + 1, 2, 2))
    lags[0] = 4.0 * np.eye(2)
    spec = autocov_to_spectrum(Autocovariance(lags), n_freq)
    assert spectrum_to_autocov(spec).max_lag == k
    assert spectrum_to_autocov(spec, k).max_lag == k
    with pytest.raises(LagTooLarge):
        spectrum_to_autocov(spec, k + 1)


def test_autocov_spectrum_roundtrip():
    acov = random_acov(2, np.random.default_rng(9))
    back = spectrum_to_autocov(autocov_to_spectrum(acov, 64), 3)
    assert np.max(np.abs(back.lags - acov.lags)) <= 1e-10


def test_autocov_lags_own_their_memory():
    # The kept lags are copied out of the grid-sized inverse transform.
    grid = rational_grid(ar1_model(), 4096)
    for acov in (spectrum_to_autocov(grid), spectrum_to_autocov(grid, 5)):
        assert acov.lags.base is None


def test_nonreal_residue():
    # 2 + eps sin(w) is Hermitian and PD pointwise but lacks the real-process
    # symmetry beyond REAL_SYMMETRY_TOL unless eps is tiny.  The transform
    # refuses exactly the grids whose flag is false, however small the lags'
    # imaginary part would be.
    omegas = default_omegas(64)
    for eps, real in ((1.0, False), (1e-8, False), (1e-12, True)):
        spec = scalar_grid(2.0 + eps * np.sin(omegas))
        assert spec.real_symmetry is real
        if real:
            assert spectrum_to_autocov(spec, 4).max_lag == 4
        else:
            with pytest.raises(NonRealResidue, match="not the spectrum of a real process"):
                spectrum_to_autocov(spec, 4)


def test_real_symmetry_reads_the_kept_values():
    # An anti-Hermitian 1e-9 in one row passes the Hermitian check and is
    # dropped with the anti-Hermitian part; the kept grid is flat.
    values = np.broadcast_to(2.0 * np.eye(2), (8, 2, 2)).astype(complex)
    values[1] += np.array([[0.0, 1e-9], [-1e-9, 0.0]])
    assert check_real_symmetry(GridSpectrum(values)) > REAL_SYMMETRY_TOL
    spec = GridSpectrum.build(values)
    assert check_real_symmetry(spec) == 0.0 and spec.real_symmetry
    # A replace copy is measured on its own values, not the source's.
    flat = scalar_grid(np.full(64, 2.0))
    copy = dataclasses.replace(flat, values=(2.0 + np.sin(default_omegas(64)))[:, None, None])
    assert flat.real_symmetry and not copy.real_symmetry
    assert check_real_symmetry(copy) == pytest.approx(2.0 / 3.0, rel=1e-2)


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_real_symmetry_is_the_residual_rule(m):
    # Scaling row 3 breaks the bitwise mirror; by 1e-13 the grid stays real
    # to round-off, by 1e-6 it does not.  A 1x1 mirror is always real.
    rng = np.random.default_rng(70 + m)
    real = mirrored_input(m, 16, rng)
    near, far = real.copy(), real.copy()
    near[3] *= 1.0 + 1e-13
    far[3] *= 1.0 + 1e-6
    cases = [
        (real, True, True),
        (mirrored_input(m, 16, rng, real_ends=False), True, m == 1),
        (near, False, True),
        (far, False, False),
    ]
    for values, mirrored, want in cases:
        grid = GridSpectrum.build(values)
        assert grid.mirrored is mirrored
        assert grid.real_symmetry == (check_real_symmetry(grid) <= REAL_SYMMETRY_TOL) == want


def test_trace_mean_matches_lag_zero():
    # Discrete Parseval identity: grid mean of tr(value) equals tr R(0).
    for model in (ar1_model(), white_model(m=2)):
        grid = rational_grid(model, 256)
        acov = spectrum_to_autocov(grid)
        mean_trace = float(np.mean(np.trace(grid.full(), axis1=-2, axis2=-1).real))
        assert abs(mean_trace - np.trace(acov.lags[0])) <= 1e-10


def test_rational_to_autocov_decay():
    grid = rational_grid(ar1_model(), 4096)
    acov = spectrum_to_autocov(grid)
    assert acov.max_lag == 39
    assert abs(acov.lags[0, 0, 0] - 4.0 / 3.0) <= 1e-12
    assert abs(acov.lags[5, 0, 0] - (4.0 / 3.0) * 0.5**5) <= 1e-10
    forced = spectrum_to_autocov(grid, max_lag=10)
    assert forced.max_lag == 10


def test_check_real_symmetry_detects_perturbation():
    values = np.ones((8, 1, 1), dtype=complex)
    values[1, 0, 0] += 1e-3
    spec = GridSpectrum.build(values)
    assert not spec.real_symmetry
    assert check_real_symmetry(spec) == pytest.approx(1e-3 / (1.0 + 1e-3), rel=1e-6)
    clean = autocov_to_spectrum(Autocovariance(lags=np.array([[[1.25]], [[0.5]]])), 64)
    assert check_real_symmetry(clean) <= 1e-12


def test_real_symmetry_with_cross_spectral_phase():
    # Real multichannel processes have complex off-diagonal entries, so the
    # mirror check must compare value(N-l) with conj(value(l)).
    var1 = RationalSpectrum(
        ar=np.array([[[0.5, 0.4], [0.0, 0.3]]]), ma=np.eye(2)[None], noise_cov=np.eye(2)
    )
    grid = rational_grid(var1, 64)
    assert np.abs(grid.full()[:, 0, 1].imag).max() > 0.1
    assert grid.real_symmetry
    assert check_real_symmetry(grid) <= 1e-12

    rng = np.random.default_rng(2718)
    x = rng.standard_normal((1 << 14, 2))
    x[:, 1] += 0.7 * np.roll(x[:, 0], 1)
    assert estimate_welch(x, 256).real_symmetry

    # The same cross-phase at every frequency is not mirrored: not real.
    cross = np.array([[2.0, 0.5j], [-0.5j, 2.0]])
    unmirrored = GridSpectrum.build(np.broadcast_to(cross, (16, 2, 2)))
    assert not unmirrored.real_symmetry
    assert check_real_symmetry(unmirrored) == pytest.approx(1.0 / 2.0)


def test_welch_white_noise_level():
    rng = np.random.default_rng(12345)
    grid = estimate_welch(rng.standard_normal(1 << 16), 512)
    assert grid.n_freq == 512
    mean = float(np.mean(grid.full()[:, 0, 0].real))
    assert 0.95 <= mean <= 1.05
    assert grid.real_symmetry


def test_welch_white_noise_level_m2():
    rng = np.random.default_rng(4242)
    grid = estimate_welch(rng.standard_normal((1 << 16, 2)), 512)
    mean = float(np.mean(np.trace(grid.full(), axis1=-2, axis2=-1).real)) / 2.0
    assert 0.95 <= mean <= 1.05


def test_welch_ar1_pointwise():
    rng = np.random.default_rng(777)
    v = rng.standard_normal(1 << 17)
    x = np.empty(v.size)
    acc = 0.0
    for t in range(v.size):
        acc = 0.5 * acc + v[t]
        x[t] = acc
    grid = estimate_welch(x, 512)
    truth = rational_grid(ar1_model(), 512).full()[:, 0, 0].real
    rel = np.abs(grid.full()[:, 0, 0].real - truth) / truth
    # Within 10% everywhere except the worst 5% of frequencies.
    assert float(np.quantile(rel, 0.95)) < 0.1


def test_welch_window_wiring():
    x = np.random.default_rng(99).standard_normal(1 << 15)
    for window in ("hann", "hamming", "rectangular"):
        grid = estimate_welch(x, 256, 0.5, window)
        assert 0.9 <= float(np.mean(grid.full()[:, 0, 0].real)) <= 1.1


def test_welch_refuses_a_zero_energy_window(monkeypatch):
    # np.hanning(2) is [0, 0]: the estimate would divide by sum(win**2) = 0.
    x = np.random.default_rng(98).standard_normal((64, 2))
    for window in ("hamming", "rectangular"):
        assert estimate_welch(x, 2, 0.5, window).n_freq == 2

    def refuse(*args, **kwargs):
        raise AssertionError("a segment was transformed")

    monkeypatch.setattr(np.fft, "rfft", refuse)
    with pytest.raises(ValueError, match="^the hann window of length 2 has zero energy$"):
        estimate_welch(x, 2)


def test_welch_validations():
    x = np.zeros(4096)
    with pytest.raises(ValueError):
        estimate_welch(x, 100)
    with pytest.raises(ValueError):
        estimate_welch(x, 512, overlap=1.0)
    with pytest.raises(ValueError):
        estimate_welch(x, 512, window="kaiser")
    with pytest.raises(DimensionMismatch):
        estimate_welch(np.zeros((4, 4, 4)), 512)
    with pytest.raises(TooFewSegments):
        estimate_welch(np.ones(600), 512)
    with pytest.raises(NotPositiveDefinite):
        estimate_welch(x, 512)


def roll_residual(values):
    # The whole-grid formula: every row l against the conjugate of row N-l.
    flipped = np.conj(np.roll(values[::-1], 1, axis=0))
    return float(np.max(np.abs(flipped - values))) / float(np.max(np.abs(values)))


@pytest.mark.parametrize("n_freq", [1, 2, 8, 15, 16, 33])
@DIMS
def test_symmetry_residual_meets_each_pair_once(m, n_freq):
    # |conj a - b| = |conj b - a| entry by entry, so comparing each pair
    # (l, N-l) once from l = 0..N/2 gives the whole-grid value bitwise.
    rng = np.random.default_rng(n_freq + 100 * m)
    for _ in range(3):
        values = rng.standard_normal((n_freq, m, m)) + 1j * rng.standard_normal((n_freq, m, m))
        assert check_real_symmetry(GridSpectrum(values)) == roll_residual(values)


def mirror_rows(half, n_freq):
    # Rows 0..N/2 completed by row N-l = conj(row l), written out by hand.
    full = np.empty((n_freq,) + half.shape[1:], dtype=complex)
    full[: half.shape[0]] = half
    for l in range(1, (n_freq + 1) // 2):
        full[n_freq - l] = np.conj(half[l])
    return full


def mirrored_input(m, n_freq, rng, singular=(), real_ends=True):
    """An exact mirror of Hermitian PSD rows ``G G*``.  The rows listed in
    ``singular`` lose a column of ``G``, so their smallest eigenvalue is 0
    to round-off and is floored."""
    half = n_freq // 2 + 1
    g = rng.standard_normal((half, m, m)) + 1j * rng.standard_normal((half, m, m))
    if real_ends:
        g[0] = g[0].real
        if n_freq % 2 == 0:
            g[-1] = g[-1].real
    for l in singular:
        g[l, :, 0] = 0.0
    return mirror_rows(g @ np.conj(np.swapaxes(g, 1, 2)), n_freq)


def whole_grid_build(values, policy=DEFAULT_POLICY):
    """One ``eigh`` over every row, floored as the policy says."""
    h = 0.5 * (values + np.conj(np.swapaxes(values, 1, 2)))
    w, u = np.linalg.eigh(h)
    floor = policy.floor_eps * w.max()
    floored = w.min(axis=1) < floor
    w = np.maximum(w, floor)
    uh = np.conj(np.swapaxes(u, 1, 2))
    h[floored] = ((u * w[:, None, :]) @ uh)[floored]
    root = (u * np.sqrt(w)[:, None, :]) @ uh
    return h, root, w.min(), w.max(), int(floored.sum())


@pytest.mark.parametrize("m, n_freq, singular, real_ends, count", [
    (3, 16, (8,), True, 1),       # row N/2 floored, its own image
    (2, 15, (), True, 0),         # odd N: no row N/2
    (3, 16, (3,), True, 2),       # an interior row and its image N-l
    (2, 15, (5,), True, 2),
    (2, 16, (), False, 0),        # rows 0 and N/2 complex: not real
])
def test_build_decomposes_a_mirror_on_half_its_rows(monkeypatch, m, n_freq, singular,
                                                     real_ends, count):
    values = mirrored_input(m, n_freq, np.random.default_rng(n_freq + m), singular, real_ends)
    ref_values, ref_root, lo, hi, ref_count = whole_grid_build(values)
    calls = count_eigensolves(monkeypatch)
    closed = count_closed_forms(monkeypatch)
    spec = GridSpectrum.build(values)
    half = [(n_freq // 2 + 1, m, m)]
    # At m = 2 the closed form alone decides, past it eigvalsh on the half
    # rows, and eigh takes only the one lifted row of the half.
    assert closed == (half if m == 2 else [])
    assert calls == ([] if m == 2 else half) + [(1, m, m)] * bool(count)
    assert np.max(np.abs(spec.full() - ref_values)) <= 1e-13 * np.max(np.abs(ref_values))
    # The root is derived from the floored values: decomposing a floored
    # value again moves its floor eigenvalue by about eps * scale, which the
    # root amplifies by 1 / (2 sqrt(floor)).
    eps = np.finfo(float).eps
    root_tol = eps / np.sqrt(DEFAULT_POLICY.floor_eps) if count else 1e-13
    assert np.max(np.abs(_roots(spec.full()) - ref_root)) <= root_tol * np.max(np.abs(ref_root))
    # eigvalsh, eigh and the closed form agree on the eigenvalues to round-off.
    bound = 4 * eps * hi
    assert abs(spec.min_eigenvalue - lo) <= bound and abs(spec.max_eigenvalue - hi) <= bound
    assert spec.flooring_count == ref_count == count
    assert spec.real_symmetry == (roll_residual(values) <= 1e-10) == real_ends


def test_build_at_m2_without_a_floor_takes_singular_rows_to_eigh(monkeypatch):
    # With floor_eps 0 a zero row and a rank-one row are at the floor, not
    # below it; the closed form floors neither, with no eigensolve, and
    # leaves the root, whose closed form would divide by zero on the zero
    # row, to eigh.
    values = np.array([np.eye(2), np.zeros((2, 2)), np.ones((2, 2))], dtype=complex)
    policy = PsdPolicy(floor_eps=0.0)
    _, ref_root, _, _, ref_count = whole_grid_build(values, policy)
    calls = count_eigensolves(monkeypatch)
    spec = GridSpectrum.build(values, policy)
    assert calls == [] and spec.flooring_count == ref_count
    assert np.max(np.abs(_roots(spec.full()) - ref_root)) <= 1e-15
    assert calls == [(3, 2, 2)]


@pytest.mark.parametrize("matrix, count", [
    # The closed form puts the smallest eigenvalue at 9.99978e-13, below the
    # floor 1e-12 times the largest (1); LAPACK's eigvalsh at 1.0000056e-12.
    ([[0.4966117842649101, -0.4999885198618355],
      [-0.4999885198618355, 0.5033882157360898]], 1),
    # The roles swap: 1.0000056e-12 by the closed form, 9.99978e-13 by LAPACK.
    ([[0.18282672317775722, -0.3865244008714376],
      [-0.3865244008714376, 0.8171732768232427]], 0),
])
def test_build_at_m2_floors_by_the_closed_form_alone(monkeypatch, matrix, count):
    # Within an ulp of the floor the two algorithms disagree; the build
    # follows the closed form, the eigenvalues that the coupling and the
    # extremes read too, and runs eigh on the floored row only.
    values = np.array([matrix], dtype=complex)
    w = _eigvalsh(values)
    want = np.count_nonzero(w[:, 0] < DEFAULT_POLICY.floor_eps * w.max())
    calls = count_eigensolves(monkeypatch)
    spec = GridSpectrum.build(values)
    assert spec.flooring_count == want == count
    assert calls == [(1, 2, 2)] * count


def full_eigh_floor(rows, policy=DEFAULT_POLICY):
    """The floor as a whole-grid eigh applied it: every row decomposed,
    the floored rows rebuilt from their floored decomposition."""
    rows = hermitian_part(rows)
    w, v = np.linalg.eigh(rows)
    floor = policy.floor_eps * w.max()
    floored = w.min(axis=-1) < floor
    np.maximum(w, floor, out=w)
    vb = v[floored]
    fixed = (vb * w[floored][:, None, :]) @ np.conj(np.swapaxes(vb, -1, -2))
    rows[floored] = hermitian_part(fixed)
    return rows, w, floored


@pytest.mark.parametrize("n_freq", [64, 4096])
def test_floored_rows_match_the_whole_grid_eigh_path(monkeypatch, n_freq):
    # MA(1) 1 + z, whose zero at pi is row N/2, beside a VARMA(2,1) block,
    # in a rotated real basis, so that no eigenvalue is a diagonal entry.
    rng = np.random.default_rng(n_freq)
    half = n_freq // 2 + 1
    values = np.zeros((half, 3, 3), dtype=complex)
    values[:, 0, 0] = np.abs(1.0 + np.exp(-1j * default_omegas(n_freq)[:half])) ** 2
    values[:, 1:, 1:] = rational_grid(random_varma21(2, rng), n_freq).values[:half]
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    values = _mirror(q @ values @ q.T, n_freq)
    rows, w, floored = full_eigh_floor(values[:half])
    choleskys = []
    calls = count_eigensolves(monkeypatch, choleskys)
    spec = GridSpectrum.build(values)
    # The gate's Cholesky fails on the zero at pi; then eigvalsh on the
    # half rows, and eigh on the one lifted row.
    assert choleskys == [(half, 3, 3)]
    assert calls == [(half, 3, 3), (1, 3, 3)]
    assert spec.full().tobytes() == _mirror(rows, n_freq).tobytes()
    count = np.count_nonzero(floored) + np.count_nonzero(floored[_mirrored_rows(n_freq)])
    assert spec.flooring_count == count == 1
    # eigvalsh and eigh run different LAPACK solvers (sterf and stedc),
    # which agree to a few ulps of the largest eigenvalue.
    bound = 4 * np.finfo(float).eps * w.max()
    assert abs(spec.min_eigenvalue - w.min()) <= bound
    assert abs(spec.max_eigenvalue - w.max()) <= bound


def conditioned_rows(m, ratios, rng):
    """Rows ``Q diag(w) Q*`` with random unitary ``Q``, the grid's largest
    eigenvalue 1, and row ``l``'s smallest ``ratios[l]``."""
    n = len(ratios)
    w = np.sort(rng.uniform(0.5, 1.0, (n, m)), axis=1)
    w[:, 0] = ratios
    w[np.argmax(w[:, -1]), -1] = 1.0
    q = np.linalg.qr(rng.standard_normal((n, m, m)) + 1j * rng.standard_normal((n, m, m)))[0]
    return (q * w[:, None, :]) @ np.conj(np.swapaxes(q, 1, 2))


def build_outcome(values, policy):
    """A build's values (as bytes) and flooring count, or its refusal."""
    try:
        spec = GridSpectrum.build(values, policy)
    except NotPositiveDefinite as exc:
        return str(exc)
    return spec.full().tobytes(), spec.flooring_count


@pytest.mark.parametrize("floor_eps", [0.0, 1e-12, 1e-6])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_cholesky_gate_matches_the_eigvalsh_path(monkeypatch, m, floor_eps):
    # Each row's smallest eigenvalue at 0.25, 1, 1.5 and 4m times the floor
    # and times the gate's level max(floor_eps, 2**-36); a grid of healthy
    # rows but one at 1.5 times the level, which fails the gate and is not
    # floored; and rows just inside and beyond the negativity band.  Only
    # 4m times the level clears the shift t = 2 level tau, with tau <= m.
    policy = PsdPolicy(floor_eps=floor_eps)
    level = max(floor_eps, 2.0**-36)
    rng = np.random.default_rng(int(1e3 * m + 1e9 * floor_eps))
    scales = sorted({level, floor_eps or level})
    ratios = [k * base for base in scales for k in (0.25, 1, 1.5, 4 * m)]
    grids = [conditioned_rows(m, np.full(24, r), rng) for r in ratios]
    row_ratios = np.full(24, 0.1)
    for ratio in (1.5 * level, -0.5e-10, -2e-10):
        row_ratios[7] = ratio
        grids.append(conditioned_rows(m, row_ratios, rng))
    gates = [_nothing_to_floor(hermitian_part(v), policy) for v in grids]
    gated = [build_outcome(v, policy) for v in grids]
    monkeypatch.setattr("specdist.hermitian._nothing_to_floor", lambda rows, policy: False)
    for values, passed, got in zip(grids, gates, gated):
        want = build_outcome(values, policy)
        assert got == want
        # A grid the eigvalsh path floors or refuses never passes the gate.
        if isinstance(want, str) or want[1]:
            assert not passed
    assert gates == [r == 4 * m * level for r in ratios] + [False] * 3


def test_cholesky_gate_leaves_an_overflowing_trace_to_eigvalsh(monkeypatch):
    # Diagonal entries of 8e307 survive the Hermitian part, but their trace
    # overflows: the gate fails, with no warning, and eigvalsh floors nothing.
    values = np.zeros((4, 3, 3), dtype=complex)
    values[:, range(3), range(3)] = 8e307
    choleskys = []
    calls = count_eigensolves(monkeypatch, choleskys)
    spec = GridSpectrum.build(values)
    assert calls == choleskys == [(4, 3, 3)]
    assert spec.full().tobytes() == values.tobytes() and spec.flooring_count == 0


@pytest.mark.parametrize("n_freq", [1, 2, 15, 16])
@DIMS
def test_mirrored_symmetry_residual_matches_the_whole_grid_pass(m, n_freq):
    # A mirrored grid compares rows 0 and N/2 only; the whole-grid pass
    # gives the same number bitwise, whether those rows are real or not.
    rng = np.random.default_rng(n_freq + 10 * m)
    for real_ends in (True, False):
        spec = GridSpectrum.build(mirrored_input(m, n_freq, rng, real_ends=real_ends))
        assert spec.mirrored
        whole = GridSpectrum(values=spec.full())  # the whole-grid pass
        assert whole.mirrored == (n_freq <= 2)
        assert check_real_symmetry(spec) == check_real_symmetry(whole)
        assert (check_real_symmetry(spec) == 0.0) == (real_ends or m == 1)


@pytest.mark.parametrize("m", [1, 3])
def test_welch_matches_full_fft_periodogram(monkeypatch, m):
    rng = np.random.default_rng(60 + m)
    x = rng.standard_normal((2048, m))
    seg, step = 128, 64
    win = np.hanning(seg)
    ref = np.zeros((seg, m, m), dtype=complex)
    starts = range(0, x.shape[0] - seg + 1, step)
    for s in starts:
        f = np.fft.fft(win[:, None] * x[s : s + seg], axis=0)
        ref += f[:, :, None] * np.conj(f[:, None, :])
    ref /= len(starts) * float(np.sum(win**2))
    choleskys = []
    calls = count_eigensolves(monkeypatch, choleskys)
    grid = estimate_welch(x, seg)
    assert (calls, choleskys) == ([], [(seg // 2 + 1, m, m)])
    assert np.max(np.abs(grid.full() - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert check_real_symmetry(grid) == 0.0


def test_build_records_the_mirror_decision():
    rng = np.random.default_rng(61)
    model_grid = rational_grid(random_varma21(2, rng), 32)
    acov_grid = autocov_to_spectrum(Autocovariance(lags=np.array([[[2.0]], [[0.5]]])), 16)
    welch_grid = estimate_welch(rng.standard_normal((1024, 2)), 64)
    for grid in (model_grid, acov_grid, welch_grid):
        assert grid.mirrored
    # A grid given all its rows reads False, a replace copy given them too.
    direct = GridSpectrum(values=model_grid.full())
    whole = dataclasses.replace(model_grid, values=model_grid.full())
    for grid in (random_grid_spectrum(2, rng, 32), direct, whole):
        assert not grid.mirrored and grid.n_freq == 32
    # A replace copy keeps n_freq: it stays mirrored, or fits neither layout.
    copy = dataclasses.replace(model_grid)
    assert copy.mirrored and copy.full().tobytes() == model_grid.full().tobytes()
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(model_grid, values=model_grid.full()[:20])


@pytest.mark.parametrize("n_freq", [2, 8, 15, 64])
@DIMS
def test_real_sources_keep_rows_0_to_half_and_full_mirrors_them(m, n_freq):
    rng = np.random.default_rng(70 + 10 * m + n_freq)
    seg = 1 << (n_freq - 1).bit_length()  # Welch segments are powers of two
    grids = (rational_grid(random_varma21(m, rng), n_freq),
             autocov_to_spectrum(random_acov(m, rng, max_lag=(n_freq - 1) // 2), n_freq),
             estimate_welch(rng.standard_normal((8 * seg, m)), seg, window="hamming"))
    for grid in grids:
        n = grid.n_freq
        assert grid.mirrored and grid.values.shape == (n // 2 + 1, m, m)
        full = grid.full()
        assert full.tobytes() == mirror_rows(grid.values, n).tobytes()
        # Made anew at each call, never held by the grid.
        assert not np.shares_memory(full, grid.values)
        assert grid.full() is not full


@pytest.mark.parametrize("m, n_freq, singular, real_ends", [
    (3, 16, (8,), True), (2, 15, (5,), True), (3, 16, (3,), False), (1, 2, (), True),
])
def test_kept_rows_build_as_their_full_grid(m, n_freq, singular, real_ends):
    # Rows 0..N/2 with n_freq give the values, flooring count and symmetry
    # residual of the full mirror they come from, and of its whole-grid pass.
    values = mirrored_input(m, n_freq, np.random.default_rng(m + n_freq), singular, real_ends)
    whole = GridSpectrum.build(values)
    half = GridSpectrum.build(values[: n_freq // 2 + 1], n_freq=n_freq)
    assert half.values.tobytes() == whole.values.tobytes()
    assert half.flooring_count == whole.flooring_count == 2 * len(singular) - (8 in singular)
    unmirrored = GridSpectrum(values=whole.full())
    assert check_real_symmetry(half) == check_real_symmetry(unmirrored)
    assert half.real_symmetry == real_ends == unmirrored.real_symmetry


def test_rational_grid_forms_h_q_as_one_gemm():
    # Past m = 2, H Q is one GEMM on the stacked rows of H; on every m it
    # is bitwise the batched product, and _matmul forms it so.
    rng = np.random.default_rng(71)
    for m in range(3, 33):
        h = rng.standard_normal((257, m, m)) + 1j * rng.standard_normal((257, m, m))
        q = random_pd(m, rng)
        assert (h.reshape(-1, m) @ q).reshape(h.shape).tobytes() == (h @ q).tobytes()
        assert _matmul(h, q).tobytes() == (h @ q).tobytes()


def test_welch_refuses_too_few_segments_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(TooFewSegments):
            estimate_welch(np.zeros((16, 1)), 2**22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
