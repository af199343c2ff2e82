"""Property tests: the metric facts from the paper on generated input.

Grids come from short autocovariance sequences whose lag terms stay well
inside the lag-0 block's smallest eigenvalue, so every generated grid is
positive definite by construction.  The metric axioms are drawn a second
time from the grids of stable VARMA(1,1) models at dims 1 to 8, which
also carry the positive homogeneity of every squared distance.  Each
test runs a small, derandomized set of examples, so the suite sees the
same inputs on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from specdist.distances import hellinger, spectral_w2
from specdist.hermitian import (
    DEFAULT_POLICY,
    NEGATIVE_BAND,
    _nothing_to_floor,
    bures_w2_squared,
    coupling_trace,
    hermitian_part,
    sqrt_psd_many,
    trace_sqrt_product,
)
from specdist.spectra import (
    GridSpectrum,
    RationalSpectrum,
    default_omegas,
    rational_grid,
    spectrum_to_autocov,
    stability_radius,
)
from specdist.toeplitz import convergence_diagnostic

N_FREQ = 16
UNIT = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
CHECKS = settings(derandomize=True, deadline=None, database=None, max_examples=25)


def unit_matrices(count, m):
    return hnp.arrays(np.float64, (count, m, m), elements=UNIT)


@st.composite
def pd_grid(draw, m):
    g0, g1, g2 = draw(unit_matrices(3, m))
    r0 = g0 @ g0.T + 0.5 * np.eye(m)
    margin = float(np.linalg.eigvalsh(r0)[0])
    omegas = default_omegas(N_FREQ)
    values = np.broadcast_to(r0, (N_FREQ, m, m)).astype(complex)
    for k, g in ((1, g1), (2, g2)):
        norm = float(np.linalg.norm(g, 2))
        if norm > 0.0:
            rk = (0.2 * margin / k) * g / norm
            phase = np.exp(-1j * k * omegas)[:, None, None]
            values = values + phase * rk + np.conj(phase) * rk.T
    return values


@st.composite
def unitary(draw, m):
    re, im = draw(unit_matrices(2, m))
    q, _ = np.linalg.qr(re + 1j * im)
    return q


@st.composite
def grids(draw, count):
    """``count`` raw PD grids of one dim, and that dim."""
    m = draw(st.integers(1, 3))
    return [draw(pd_grid(m)) for _ in range(count)], m


def scale_of(*values):
    """Grid mean of the summed traces: the round-off scale of a W^2."""
    return float(np.mean(sum(np.trace(v, axis1=1, axis2=2).real for v in values)))


@CHECKS
@given(grids(3))
def test_symmetry_and_triangle_inequality(case):
    (vx, vy, vz), _ = case
    x, y, z = (GridSpectrum.build(v) for v in (vx, vy, vz))
    dxy = spectral_w2(x, y)
    assert abs(dxy.squared - spectral_w2(y, x).squared) <= 1e-10 * scale_of(vx, vy)
    dxz, dyz = spectral_w2(x, z).value, spectral_w2(y, z).value
    # A distance near zero carries sqrt(eps * scale) of round-off.
    assert dxz <= dxy.value + dyz + 1e-7 * np.sqrt(scale_of(vx, vy, vz))


@CHECKS
@given(grids(1), st.floats(1.5, 4.0))
def test_identity(case, c):
    (vx,), _ = case
    x = GridSpectrum.build(vx)
    assert spectral_w2(x, GridSpectrum.build(vx.copy())).value == 0.0
    # c X commutes with X: W^2 = (sqrt(c) - 1)^2 mean tr X, nonzero.
    exact = (np.sqrt(c) - 1.0) ** 2 * scale_of(vx)
    got = spectral_w2(x, GridSpectrum.build(c * vx)).squared
    assert abs(got - exact) <= 1e-10 * exact


@CHECKS
@given(grids(2))
def test_transport_below_hellinger_and_gap_band(case):
    (vx, vy), _ = case
    x, y = GridSpectrum.build(vx), GridSpectrum.build(vy)
    w2, hell = spectral_w2(x, y), hellinger(x, y)
    scale = scale_of(vx, vy)
    assert w2.squared <= hell.squared + 1e-10 * scale
    assert np.all(w2.per_freq_trace <= hell.per_freq_trace + 1e-10 * scale)
    traces = np.trace(vx + vy, axis1=1, axis2=2).real
    assert np.all(hell.alt_gap >= -NEGATIVE_BAND * traces)


@CHECKS
@given(st.data())
def test_commuting_pairs_have_equal_transport_and_hellinger(data):
    m = data.draw(st.integers(1, 3))
    q = data.draw(unitary(m))
    omegas = default_omegas(N_FREQ)
    pair = []
    for _ in range(2):
        # Eigenvalue curves a + b cos(w + phi) with a >= 1 > b stay positive.
        a, b, phi = (data.draw(hnp.arrays(np.float64, m, elements=st.floats(lo, hi)))
                     for lo, hi in ((1.0, 3.0), (0.0, 0.8), (0.0, 2.0 * np.pi)))
        curves = a + b * np.cos(omegas[:, None] + phi)
        pair.append(np.einsum("ij,fj,kj->fik", q, curves, q.conj()))
    x, y = (GridSpectrum.build(v) for v in pair)
    w2, hell = spectral_w2(x, y).squared, hellinger(x, y).squared
    assert abs(w2 - hell) <= 1e-9 * scale_of(*pair)


@CHECKS
@given(st.data())
def test_unitary_invariance(data):
    (vx, vy), m = data.draw(grids(2))
    u = data.draw(unitary(m))
    plain = spectral_w2(GridSpectrum.build(vx), GridSpectrum.build(vy)).squared
    ux, uy = (GridSpectrum.build(u @ v @ u.conj().T) for v in (vx, vy))
    assert abs(spectral_w2(ux, uy).squared - plain) <= 1e-9 * scale_of(vx, vy)


@st.composite
def pd_pair(draw, dims):
    """Two Hermitian PD matrices of one dim, real or complex, with every
    eigenvalue at least 1/2."""
    m = draw(dims)
    g = draw(unit_matrices(4, m))
    if draw(st.booleans()):
        g = g[:2] + 1j * g[2:]
    a, b = (x @ x.conj().T + 0.5 * np.eye(m) for x in g[:2])
    return a, b


def assert_cholesky_and_root_paths_agree(pair):
    a, b = pair
    cholesky = trace_sqrt_product(a, b)
    root = float(coupling_trace(sqrt_psd_many(a[None]), b[None])[0])
    assert abs(cholesky - root) <= 1e-12 * root


@CHECKS
@given(pd_pair(st.integers(1, 4)))
def test_cholesky_and_root_paths_agree_small_dims(pair):
    assert_cholesky_and_root_paths_agree(pair)


@settings(CHECKS, max_examples=8)
@given(pd_pair(st.integers(5, 8)))
def test_cholesky_and_root_paths_agree_large_dims(pair):
    assert_cholesky_and_root_paths_agree(pair)


@st.composite
def var1_model(draw, m):
    """VAR(1) with spectral radius at most 0.5 and a PD innovation covariance."""
    g, h = draw(unit_matrices(2, m))
    ar = g * (0.5 / max(stability_radius(g[None]), 0.5))
    noise = h @ h.T + 0.5 * np.eye(m)
    return RationalSpectrum(ar=ar[None], ma=np.eye(m)[None], noise_cov=noise)


@st.composite
def varma11_model(draw, m):
    """VAR(1) as above plus an MA(1) term ``B_1`` with spectral radius at
    most 0.5, so ``I + B_1 z`` has no zero on the unit circle."""
    var1 = draw(var1_model(m))
    (g,) = draw(unit_matrices(1, m))
    b1 = g * (0.5 / max(stability_radius(g[None]), 0.5))
    return RationalSpectrum(ar=var1.ar, ma=np.stack([np.eye(m), b1]),
                            noise_cov=var1.noise_cov)


def assert_oracle_converges(x, y):
    n = 512
    gx, gy = rational_grid(x, n), rational_grid(y, n)
    target = spectral_w2(gx, gy).squared
    diag = convergence_diagnostic(
        spectrum_to_autocov(gx), spectrum_to_autocov(gy), (16, 32, 64), target
    )
    assert diag.converged, (diag.extrapolated_limit, target)


@settings(CHECKS, max_examples=10)
@given(st.data())
def test_oracle_agrees_with_spectral_on_var1_pairs(data):
    m = data.draw(st.integers(1, 2))
    assert_oracle_converges(data.draw(var1_model(m)), data.draw(var1_model(m)))


@settings(CHECKS, max_examples=10)
@given(st.data())
def test_oracle_agrees_with_spectral_on_varma11_pairs(data):
    m = data.draw(st.integers(1, 2))
    assert_oracle_converges(data.draw(varma11_model(m)), data.draw(varma11_model(m)))


@settings(CHECKS, max_examples=5)
@given(var1_model(3), var1_model(3))
def test_oracle_agrees_with_spectral_on_var1_pairs_dim3(x, y):
    assert_oracle_converges(x, y)


@settings(CHECKS, max_examples=5)
@given(varma11_model(3), varma11_model(3))
def test_oracle_agrees_with_spectral_on_varma11_pairs_dim3(x, y):
    assert_oracle_converges(x, y)


MODEL_N_FREQ = 64


@st.composite
def model_grids(draw, dims):
    """Three VARMA(1,1) model grids of one dim drawn from ``dims``, and a
    unitary of that dim."""
    m = draw(dims)
    grids = [rational_grid(draw(varma11_model(m)), MODEL_N_FREQ) for _ in range(3)]
    return grids, draw(unitary(m))


def assert_metric_axioms(case):
    """Symmetry, the triangle inequality, W <= Hellinger and unitary
    invariance, with the round-off allowances of the synthetic tests."""
    (x, y, z), u = case
    vx, vy, vz = (g.full() for g in (x, y, z))
    scale = scale_of(vx, vy)
    dxy = spectral_w2(x, y)
    assert abs(dxy.squared - spectral_w2(y, x).squared) <= 1e-10 * scale
    dxz, dyz = spectral_w2(x, z).value, spectral_w2(y, z).value
    assert dxz <= dxy.value + dyz + 1e-7 * np.sqrt(scale_of(vx, vy, vz))
    hell = hellinger(x, y)
    assert dxy.squared <= hell.squared + 1e-10 * scale
    assert np.all(dxy.per_freq_trace <= hell.per_freq_trace + 1e-10 * scale)
    ux, uy = (GridSpectrum.build(u @ v @ u.conj().T) for v in (vx, vy))
    assert abs(spectral_w2(ux, uy).squared - dxy.squared) <= 1e-9 * scale


@CHECKS
@given(model_grids(st.integers(1, 4)))
def test_metric_axioms_on_model_grids_small_dims(case):
    assert_metric_axioms(case)


@settings(CHECKS, max_examples=8)
@given(model_grids(st.integers(5, 8)))
def test_metric_axioms_on_model_grids_large_dims(case):
    assert_metric_axioms(case)


SCALE = st.integers(-900, 900).map(lambda k: 2.0**k)


def assert_scales_by(c, plain, scaled, scale):
    """``scaled`` is ``c`` times ``plain`` within 1e-12 of ``scale``, the
    summed traces behind a squared distance: its round-off, since an odd
    power of two changes the rounding of every root and factor."""
    assert abs(scaled / c - plain) <= 1e-12 * scale


def with_noise_cov_times(model, c):
    return RationalSpectrum(ar=model.ar, ma=model.ma, noise_cov=c * model.noise_cov)


@st.composite
def scaled_model_pairs(draw, dims):
    """Two VARMA(1,1) models of one dim drawn from ``dims``, and a power of
    two ``c`` up to 2^+-900, far beyond where ``c^2`` is representable."""
    m = draw(dims)
    return draw(varma11_model(m)), draw(varma11_model(m)), draw(SCALE)


def assert_positively_homogeneous(case):
    """Scaling both processes by ``c`` scales the transport and Hellinger
    squares and every oracle step by ``c``, and changes neither the
    dimensionless commutation residual nor the oracle's stop horizon and
    flags on its default schedule."""
    x, y, c = case
    plain = [rational_grid(v, MODEL_N_FREQ) for v in (x, y)]
    scaled = [rational_grid(with_noise_cov_times(v, c), MODEL_N_FREQ) for v in (x, y)]
    # Model grids keep rows 0..N/2, so both pairs take the half path.
    assert all(len(g.values) == MODEL_N_FREQ // 2 + 1 for g in plain + scaled)
    scale = scale_of(*(g.full() for g in plain))
    for distance in (spectral_w2, hellinger):
        assert_scales_by(c, distance(*plain).squared, distance(*scaled).squared, scale)
    reports = [spectral_w2(*grids) for grids in (plain, scaled)]
    assert reports[0].commutation_residual == reports[1].commutation_residual
    # A target off by 1e-3 of the summed traces reads false at every scale;
    # an absolute floor in the verdict would read it true once c is small.
    ref, got = (convergence_diagnostic(*map(spectrum_to_autocov, grids), None,
                                       report.squared + 1e-3 * k * scale)
                for grids, report, k in zip((plain, scaled), reports, (1.0, c)))
    assert got.horizons == ref.horizons
    assert not ref.converged and not got.converged
    assert got.fit_degenerate == ref.fit_degenerate
    for p, s in zip(ref.per_step_values, got.per_step_values):
        assert_scales_by(c, p, s, ref.trace_target_x + ref.trace_target_y)


@CHECKS
@given(scaled_model_pairs(st.integers(1, 3)))
def test_positive_homogeneity_small_dims(case):
    assert_positively_homogeneous(case)


@settings(CHECKS, max_examples=5)
@given(scaled_model_pairs(st.just(8)))
def test_positive_homogeneity_dim8(case):
    assert_positively_homogeneous(case)


@CHECKS
@given(pd_pair(st.integers(1, 8)), SCALE)
def test_bures_positive_homogeneity(pair, c):
    a, b = pair
    scale = float(np.trace(a + b).real)
    assert_scales_by(c, bures_w2_squared(a, b), bures_w2_squared(c * a, c * b), scale)


@st.composite
def gated_grids(draw):
    """Grid rows ``U diag(w) U*`` of dim 1, 3 or 8 with eigenvalues in
    [1/2, 1] but row 0's smallest, and whether the build's Cholesky gate
    passes them: that eigenvalue is 1e-9 to 1e-6 (above the shift ``t =
    2**-35 tau <= 2**-35 m``) when it does, 1e-13 to 1e-11 (below ``t >=
    2**-36``, and floored under 1e-12) when it does not."""
    m = draw(st.sampled_from([1, 3, 8]))
    passes = draw(st.booleans())
    w = draw(hnp.arrays(np.float64, (N_FREQ, m), elements=st.floats(0.5, 1.0)))
    w[0, 0] = 10.0 ** draw(st.floats(-9.0, -6.0) if passes else st.floats(-13.0, -11.0))
    u = draw(unitary(m))
    return (u * w[:, None, :]) @ u.conj().T, passes


@CHECKS
@given(gated_grids(), SCALE)
def test_gate_and_extremes_are_positively_homogeneous(grid, c):
    # Scaling a grid by c changes neither the gate's decision nor the
    # flooring, and scales the derived extreme eigenvalues by c.
    values, passes = grid
    for v in (values, c * values):
        assert _nothing_to_floor(hermitian_part(v), DEFAULT_POLICY) == passes
    plain, scaled = GridSpectrum.build(values), GridSpectrum.build(c * values)
    assert scaled.flooring_count == plain.flooring_count
    for got, want in ((scaled.min_eigenvalue, plain.min_eigenvalue),
                      (scaled.max_eigenvalue, plain.max_eigenvalue)):
        assert abs(got / c - want) <= 1e-12 * plain.max_eigenvalue
