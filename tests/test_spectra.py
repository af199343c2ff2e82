"""Unit tests for spectrum representations, transforms and estimation."""

import re

import numpy as np
import pytest

from conftest import (
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
from specdist.hermitian import DEFAULT_POLICY, sqrt_psd_many
from specdist.spectra import (
    Autocovariance,
    GridSpectrum,
    RationalSpectrum,
    _symmetry_residual,
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
    root = spec.root
    assert root.shape == spec.values.shape
    scale = np.max(np.abs(spec.values))
    assert np.max(np.abs(root @ root - spec.values)) <= 1e-12 * scale
    ref = sqrt_psd_many(spec.values)
    assert np.max(np.abs(root - ref)) <= ref_tol * np.max(np.abs(ref))


def test_grid_build_floors_spectral_zero():
    # 1 + cos(w) hits zero at w = pi; that single frequency is lifted to
    # the floor (relative to the grid-wide maximum) and counted.
    omegas = default_omegas(8)
    spec = scalar_grid(1.0 + np.cos(omegas))
    assert spec.flooring_count == 1
    assert spec.real_symmetry
    floored = spec.values[4, 0, 0].real
    assert 0.0 < floored <= 1e-12 * 2.0 * (1.0 + 1e-9)


def test_eval_rational_trivial_cases():
    # The one-frequency reference on closed values, then the library grid.
    assert np.allclose(rational_value(white_model(m=2), 0.7), np.eye(2), atol=1e-14)
    model = ar1_model()
    assert abs(rational_value(model, 0.0)[0, 0] - 4.0) <= 1e-12
    assert abs(rational_value(model, np.pi)[0, 0] - 1.0 / 2.25) <= 1e-12
    assert np.allclose(rational_grid(white_model(m=2), 8).values, np.eye(2), atol=1e-14)
    grid = rational_grid(model, 8)
    assert abs(grid.values[0, 0, 0] - 4.0) <= 1e-12
    assert abs(grid.values[4, 0, 0] - 1.0 / 2.25) <= 1e-12


def test_eval_rational_hermitian_everywhere():
    # The library grid matches the model definition evaluated one
    # frequency at a time, on a VARMA(2,2) with a non-identity MA part.
    rng = np.random.default_rng(2)
    ar = 0.3 * rng.standard_normal((2, 2, 2)) / 2.0
    ma = np.concatenate([np.eye(2)[None], 0.5 * rng.standard_normal((2, 2, 2))])
    model = RationalSpectrum(ar=ar, ma=ma, noise_cov=random_pd(2, rng))
    grid = rational_grid(model, 32)
    assert np.max(np.abs(grid.values - np.conj(np.swapaxes(grid.values, 1, 2)))) == 0.0
    for l, omega in enumerate(default_omegas(32)):
        ref = rational_value(model, omega)
        assert np.max(np.abs(grid.values[l] - ref)) <= 1e-12 * np.max(np.abs(ref))


GRIDS = pytest.mark.parametrize("n_freq", [8, 15, 64])
DIMS = pytest.mark.parametrize("m", [1, 2, 3])


@GRIDS
@DIMS
def test_rational_grid_matches_reference_at_every_frequency(m, n_freq):
    # Mirrored rows, odd N included, against the model definition.
    model = random_varma21(m, np.random.default_rng(10 * m + n_freq))
    grid = rational_grid(model, n_freq)
    assert grid.n_freq == n_freq
    for l, omega in enumerate(default_omegas(n_freq)):
        ref = rational_value(model, omega)
        assert np.max(np.abs(grid.values[l] - ref)) <= 1e-13 * np.max(np.abs(ref))


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
    err = np.max(np.abs(grid.values - ref), axis=(1, 2))
    assert np.all(err <= 1e-13 * np.max(np.abs(ref), axis=(1, 2)))


@GRIDS
def test_real_sources_are_exactly_mirrored(n_freq):
    rng = np.random.default_rng(n_freq)
    for m in (1, 2, 3):
        for grid in (rational_grid(random_varma21(m, rng), n_freq),
                     autocov_to_spectrum(random_acov(m, rng), n_freq)):
            assert grid.real_symmetry
            assert check_real_symmetry(grid) == 0.0
            mirrored = np.conj(np.roll(grid.root[::-1], 1, axis=0))
            assert np.array_equal(grid.root, mirrored)


def test_flooring_count_matches_full_grid():
    # 1 + z vanishes at pi, row N/2, which is its own mirror image.
    assert rational_grid(ma_model(1.0, 1.0), 16).flooring_count == 1
    # 1 + z + z^2 vanishes at +-2 pi / 3, rows 16 and 32 of 48: one
    # evaluated interior row, counted for itself and its mirror.
    assert rational_grid(ma_model(1.0, 1.0, 1.0), 48).flooring_count == 2


@DIMS
def test_rational_grid_decomposes_half_the_grid(monkeypatch, m):
    # One inverse serves the transfer function and the condition guard;
    # no SVD runs.
    model = random_varma21(m, np.random.default_rng(m))
    invs, svds = [], []
    record_shapes(monkeypatch, ("inv",), invs)
    record_shapes(monkeypatch, ("cond", "svd"), svds)
    eigs = count_eigensolves(monkeypatch)
    rational_grid(model, 64)
    assert eigs == [(33, m, m)]
    assert invs == [(33, m, m)]
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
    assert np.allclose(flat.values, 2.5 * np.eye(2), atol=1e-14)
    ma1 = autocov_to_spectrum(Autocovariance(lags=np.array([[[1.25]], [[0.5]]])), 256)
    assert abs(ma1.values[0, 0, 0].real - 2.25) <= 1e-12
    assert abs(ma1.values[128, 0, 0].real - 0.25) <= 1e-12
    with pytest.raises(GridTooCoarse):
        autocov_to_spectrum(Autocovariance(lags=np.ones((4, 1, 1)) * np.eye(1)), 6)


def test_autocov_to_spectrum_matches_rational():
    # Closed-form AR(1) autocovariance (4/3) * 0.5^k against the transfer
    # function evaluated on the same grid.
    k = np.arange(41)
    acov = Autocovariance(lags=((4.0 / 3.0) * 0.5**k)[:, None, None])
    from_lags = autocov_to_spectrum(acov, 256)
    from_model = rational_grid(ar1_model(), 256)
    assert np.max(np.abs(from_lags.values - from_model.values)) <= 1e-8


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
    # 2 + sin(w) is Hermitian and PD pointwise but lacks the real-process
    # symmetry, so its inverse transform has a large imaginary part.
    spec = scalar_grid(2.0 + np.sin(default_omegas(64)))
    assert not spec.real_symmetry
    with pytest.raises(NonRealResidue):
        spectrum_to_autocov(spec, 4)


def test_trace_mean_matches_lag_zero():
    # Discrete Parseval identity: grid mean of tr(value) equals tr R(0).
    for model in (ar1_model(), white_model(m=2)):
        grid = rational_grid(model, 256)
        acov = spectrum_to_autocov(grid)
        mean_trace = float(np.mean(np.trace(grid.values, axis1=-2, axis2=-1).real))
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
    assert np.abs(grid.values[:, 0, 1].imag).max() > 0.1
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
    mean = float(np.mean(grid.values[:, 0, 0].real))
    assert 0.95 <= mean <= 1.05
    assert grid.real_symmetry


def test_welch_white_noise_level_m2():
    rng = np.random.default_rng(4242)
    grid = estimate_welch(rng.standard_normal((1 << 16, 2)), 512)
    mean = float(np.mean(np.trace(grid.values, axis1=-2, axis2=-1).real)) / 2.0
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
    truth = rational_grid(ar1_model(), 512).values[:, 0, 0].real
    rel = np.abs(grid.values[:, 0, 0].real - truth) / truth
    # Within 10% everywhere except the worst 5% of frequencies.
    assert float(np.quantile(rel, 0.95)) < 0.1


def test_welch_window_wiring():
    x = np.random.default_rng(99).standard_normal(1 << 15)
    for window in ("hann", "hamming", "rectangular"):
        grid = estimate_welch(x, 256, 0.5, window)
        assert 0.9 <= float(np.mean(grid.values[:, 0, 0].real)) <= 1.1


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
        assert _symmetry_residual(values) == roll_residual(values)


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
    spec = GridSpectrum.build(values)
    assert calls == [(n_freq // 2 + 1, m, m)]
    for got, want in ((spec.values, ref_values), (spec.root, ref_root)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert (spec.min_eigenvalue, spec.max_eigenvalue) == (lo, hi)
    assert spec.flooring_count == ref_count == count
    assert spec.real_symmetry == (roll_residual(values) <= 1e-10) == real_ends


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
    calls = count_eigensolves(monkeypatch)
    grid = estimate_welch(x, seg)
    assert calls == [(seg // 2 + 1, m, m)]
    assert np.max(np.abs(grid.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert check_real_symmetry(grid) == 0.0
