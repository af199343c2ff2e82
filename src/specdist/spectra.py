"""Power spectrum representations and transforms.

Three interchangeable descriptions of a zero-mean stationary process are
supported: a rational (vector ARMA) model with closed-form spectrum
``H(e^{jw}) Q H(e^{jw})*``, a truncated autocovariance sequence, and a
spectrum sampled on the uniform frequency grid ``w_l = 2 pi l / N``.
Conversions between them go through the FFT; a Welch estimator produces
grid spectra from raw time series.  Models, autocovariances and series
describe real processes, whose spectra satisfy ``value(N-l) =
conj(value(l))``, so their grids are evaluated and kept on ``l = 0..N/2``
(``mirrored``), as is any exact mirror given to :meth:`GridSpectrum.build`,
which checks and floors those rows only; every reader works on them, the
inverse transform to lags included, and only :meth:`GridSpectrum.full`
expands the mirror.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    LagTooLarge,
    NonRealResidue,
    NotPositiveDefinite,
    SingularAr,
    TooFewSegments,
    UnstableModel,
)
from .hermitian import (
    DEFAULT_POLICY,
    PsdPolicy,
    _eigvalsh,
    _floored_rows,
    _inv,
    _matmul,
    _norm1,
    _refuse_asymmetric,
    _refuse_indefinite,
)

__all__ = [
    "Autocovariance",
    "GridSpectrum",
    "RationalSpectrum",
    "autocov_to_spectrum",
    "check_real_symmetry",
    "estimate_welch",
    "rational_grid",
    "spectrum_to_autocov",
    "stability_radius",
]

#: Residual threshold under which a grid is flagged as coming from a
#: real-valued process (conjugate symmetry across the Nyquist point).
REAL_SYMMETRY_TOL = 1e-10

#: Trailing lags with ``|R(k)|_F < DECAY_TOL * |R(0)|_F`` are cut.
DECAY_TOL = 1e-12

#: 1-norm condition number above which the AR polynomial is treated as
#: singular.
AR_COND_LIMIT = 1e12

_WINDOWS = {
    "hann": np.hanning,
    "hamming": np.hamming,
    "rectangular": np.ones,
}


def default_omegas(n_freq: int) -> np.ndarray:
    """Uniform frequency grid ``2 pi l / N`` for ``l = 0..N-1``."""
    return 2.0 * np.pi * np.arange(n_freq) / n_freq


@dataclass(frozen=True)
class GridSpectrum:
    """A spectrum sampled on the uniform grid, floored to positive definite.

    Attributes
    ----------
    values : ndarray of shape (n_freq, m, m), or (n_freq // 2 + 1, m, m) if mirrored
        Hermitian PD matrices at ``w_l = 2 pi l / n_freq``, ``l = 0..N-1`` or ``0..N/2``.
    flooring_count : int
        Frequencies whose eigenvalues construction lifted to the policy floor.
    n_freq : int
        Grid size N; ``len(values)`` when not given.
    mirrored : bool, read-only
        ``len(values) == n_freq // 2 + 1``: row ``N-l`` is ``conj(row l)``
        and not kept, as in model, autocovariance and Welch grids and exact
        mirrors given to :meth:`build`.  A ``dataclasses.replace`` copy keeps
        ``n_freq``; one whose ``values`` fit neither layout is refused.
    real_symmetry : bool, read-only
        ``check_real_symmetry(self) <= REAL_SYMMETRY_TOL``, read from the kept
        values each time; exact for a mirrored grid with real rows 0 and N/2.
    """

    values: np.ndarray
    flooring_count: int = 0
    n_freq: int | None = None

    def __post_init__(self):
        rows = len(self.values)
        n = rows if self.n_freq is None else self.n_freq
        if rows not in (n, n // 2 + 1):
            raise DimensionMismatch(f"{rows} rows fit neither a {n}-point grid nor its half")
        object.__setattr__(self, "n_freq", n)

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @property
    def mirrored(self) -> bool:
        return len(self.values) == self.n_freq // 2 + 1

    @property
    def real_symmetry(self) -> bool:
        return check_real_symmetry(self) <= REAL_SYMMETRY_TOL

    def extreme_eigenvalues(self) -> tuple:
        """The smallest and largest eigenvalue of the kept values, by one eigensolve."""
        w = _eigvalsh(self.values)
        return float(w.min()), float(w.max())

    def full(self) -> np.ndarray:
        """All ``n_freq`` rows: the kept values, or a mirrored grid's mirror,
        made anew at each call.  The one place a mirror is expanded."""
        return _mirror(self.values, self.n_freq) if self.mirrored else self.values

    @classmethod
    def build(
        cls,
        values,
        policy: PsdPolicy = DEFAULT_POLICY,
        name: str = "spectrum",
        n_freq: int | None = None,
    ) -> "GridSpectrum":
        """Validate and floor raw per-frequency matrices into a spectrum.

        The eigenvalue floor is relative to the largest eigenvalue found
        anywhere on the grid, so isolated spectral zeros are lifted to a
        uniform small level and counted rather than left singular.

        With ``n_freq``, ``values`` are rows ``l = 0..n_freq // 2`` of a real
        process, kept as a mirrored grid, as are those of an exact mirror
        (row ``N-l`` bitwise ``conj(row l)``, signed zeros included) given
        whole.  Only kept rows are checked and floored; a floored row with an
        image counts twice.

        Raises
        ------
        NonHermitianInput
            If any value deviates from Hermitian symmetry beyond
            ``hermitian.SYMMETRY_TOL`` (relative), or is not finite.
        NotPositiveDefinite
            If any eigenvalue is negative beyond the policy band, or the
            whole grid has no positive mass to floor against.
        """
        values = np.asarray(values, dtype=complex)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise DimensionMismatch(
                f"{name} must have shape (n_freq, m, m), got {values.shape}"
            )
        if n_freq is None:
            n_freq = len(values)
            # Compared as bits, so that a +0.0 image of a +0.0 is not rewritten as -0.0.
            if np.array_equal(_bits(values[n_freq // 2 + 1 :]),
                              _bits(np.conj(values[_mirrored_rows(n_freq)]))):
                values = values[: n_freq // 2 + 1]
        rows = _refuse_asymmetric(values, name)
        rows, floored = _floored_rows(rows, policy, name)
        images = floored[_mirrored_rows(n_freq)] if len(rows) < n_freq else []
        count = np.count_nonzero(floored) + np.count_nonzero(images)
        return cls(values=rows, flooring_count=int(count), n_freq=n_freq)


def _bits(a: np.ndarray) -> np.ndarray:
    # The raw bits of a complex array, one uint64 per real and imaginary part.
    return np.ascontiguousarray(a).view(np.uint64)


def _mirrored_rows(n_freq: int) -> slice:
    # The rows l of l = 0..N/2 whose images N-l complete the grid, in the
    # order of those images: l = ceil(N/2)-1 down to 1.
    return slice((n_freq + 1) // 2 - 1, 0, -1)


def _mirror(half: np.ndarray, n_freq: int) -> np.ndarray:
    """The full grid ``0..N-1`` from rows ``0..N/2``: row ``N-l`` is
    ``conj(row l)``.  Real per-frequency arrays are mirrored as they are."""
    full = np.empty((n_freq,) + half.shape[1:], dtype=half.dtype)
    full[: n_freq // 2 + 1] = half
    np.conj(half[_mirrored_rows(n_freq)], out=full[n_freq // 2 + 1 :])
    return full


def _real_process(half: np.ndarray, n_freq: int) -> np.ndarray:
    """Rows ``l = 0..N/2`` of a real process, in place: rows 0 and N/2 are
    their own mirror images and are taken real."""
    half[0] = half[0].real
    if n_freq % 2 == 0:
        half[-1] = half[-1].real
    return half


def check_real_symmetry(spec: GridSpectrum) -> float:
    """Max relative residual ``|value(N-l) - value(l)^T|`` over the grid,
    which for a Hermitian value is ``|value(N-l) - conj value(l)|``, each
    pair ``(l, N-l)`` compared once.  A mirrored grid's other pairs are
    conjugate by construction, so only its rows 0 and N/2, their own
    images, are compared, against the largest kept entry."""
    values, n = spec.values, spec.n_freq
    rows = np.array([0, n // 2][: 2 - n % 2]) if spec.mirrored else np.arange(n // 2 + 1)
    gap = np.conj(values[-rows % n])  # row N-l, which is l itself at l = 0 and N/2
    gap -= values[rows]
    den = float(np.max(np.abs(values)))
    return float(np.max(np.abs(gap))) / den if den else 0.0


@dataclass(frozen=True)
class Autocovariance:
    """Truncated autocovariance sequence ``R(0..K)`` of a real process.

    ``lags`` has shape (K+1, m, m); negative lags are implied by
    ``R(-k) = R(k)^T``.  ``R(0)`` is checked by the symmetry rule and the
    negativity band of ``policy``, a constructor argument that is not stored;
    the check's smallest eigenvalue is kept as ``r0_min_eigenvalue``.
    """

    lags: np.ndarray
    policy: InitVar[PsdPolicy] = DEFAULT_POLICY
    r0_min_eigenvalue: float = field(init=False)

    def __post_init__(self, policy: PsdPolicy):
        lags = np.asarray(self.lags, dtype=float)
        if lags.ndim != 3 or lags.shape[1] != lags.shape[2] or lags.size == 0:
            raise DimensionMismatch(
                f"autocovariance lags must have shape (K+1, m, m), got {lags.shape}"
            )
        w = np.linalg.eigvalsh(_refuse_asymmetric(lags[0], "R(0)"))
        _refuse_indefinite(w, policy, "R(0)")
        if not np.isfinite(lags).all():
            raise ValueError("autocovariance lags must be finite")
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "r0_min_eigenvalue", float(w[0]))

    @property
    def dim(self) -> int:
        return self.lags.shape[-1]

    @property
    def max_lag(self) -> int:
        return self.lags.shape[0] - 1


@dataclass(frozen=True)
class RationalSpectrum:
    """Vector ARMA model with spectrum ``H(e^{jw}) Q H(e^{jw})*`` where
    ``H = (I - sum_r A_r e^{-jwr})^{-1} (sum_s B_s e^{-jws})``.

    ``ar`` holds A_1..A_p (shape (p, m, m), possibly p = 0), ``ma`` holds
    B_0..B_q (shape (q+1, m, m)), and ``noise_cov`` is the SPD innovation
    covariance Q, which must pass the symmetry rule; its smallest eigenvalue,
    kept as ``noise_cov_min_eigenvalue``, must exceed ``policy.floor_eps``
    times its largest (``policy`` is a constructor argument that is not stored).
    Stability (spectral radius of the AR companion matrix strictly below
    one) is enforced at construction, and the radius kept as
    ``stability_radius``.
    """

    ar: np.ndarray
    ma: np.ndarray
    noise_cov: np.ndarray
    policy: InitVar[PsdPolicy] = DEFAULT_POLICY
    noise_cov_min_eigenvalue: float = field(init=False)
    stability_radius: float = field(init=False)

    def __post_init__(self, policy: PsdPolicy):
        ar = np.asarray(self.ar, dtype=float)
        ma = np.asarray(self.ma, dtype=float)
        q = np.asarray(self.noise_cov, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise DimensionMismatch(f"noise_cov must be square, got {q.shape}")
        m = q.shape[0]
        if ar.size == 0:
            ar = ar.reshape(0, m, m)
        if ar.ndim != 3 or ar.shape[1:] != (m, m):
            raise DimensionMismatch(
                f"ar coefficients must have shape (p, {m}, {m}), got {ar.shape}"
            )
        if ma.ndim != 3 or ma.shape[0] < 1 or ma.shape[1:] != (m, m):
            raise DimensionMismatch(
                f"ma coefficients must have shape (q+1, {m}, {m}), got {ma.shape}"
            )
        w = np.linalg.eigvalsh(_refuse_asymmetric(q, "noise_cov"))
        if float(w[0]) <= policy.floor_eps * float(np.abs(w).max()):
            raise NotPositiveDefinite(
                f"noise_cov must be positive definite; min eigenvalue {float(w[0]):.6e}"
            )
        if not (np.isfinite(ar).all() and np.isfinite(ma).all()):
            raise ValueError("ar and ma coefficients must be finite")
        radius = stability_radius(ar)
        if radius >= 1.0:
            raise UnstableModel(
                f"AR companion spectral radius {radius:.6f} is not below 1"
            )
        object.__setattr__(self, "ar", ar)
        object.__setattr__(self, "ma", ma)
        object.__setattr__(self, "noise_cov", q)
        object.__setattr__(self, "noise_cov_min_eigenvalue", float(w[0]))
        object.__setattr__(self, "stability_radius", radius)

    @property
    def dim(self) -> int:
        return self.noise_cov.shape[0]


def stability_radius(ar: np.ndarray) -> float:
    """Spectral radius of the companion matrix of ``I - sum A_r z^r``.

    Zero for a pure moving-average model (p = 0); the model is stable iff
    the radius is strictly below one.
    """
    ar = np.asarray(ar, dtype=float)
    if ar.size == 0:
        return 0.0
    p, m, _ = ar.shape
    companion = np.zeros((p * m, p * m))
    companion[:m] = ar.transpose(1, 0, 2).reshape(m, p * m)
    if p > 1:
        companion[m:, :-m] = np.eye((p - 1) * m)
    return float(np.max(np.abs(np.linalg.eigvals(companion))))


def _transfer(model: RationalSpectrum, omegas: np.ndarray) -> np.ndarray:
    """Transfer function ``H = A^{-1} B`` at each frequency, shape (n, m, m).

    ``A(w)`` and ``B(w)`` are one product each.  ``A(w)`` is inverted once,
    in closed form at m = 2, and the inverse gives its exact 1-norm condition
    number ``|A|_1 |A^{-1}|_1`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 15), within a factor ``m`` of the 2-norm one, which is
    refused above ``AR_COND_LIMIT``, as is an exactly singular ``A(w)``.
    """
    m, n, p = model.dim, len(omegas), len(model.ar)
    phases_ar = np.exp(-1j * np.outer(omegas, np.arange(1, p + 1)))
    a = np.eye(m) - (phases_ar @ model.ar.reshape(p, m * m)).reshape(n, m, m)

    try:
        a_inv = _inv(a)
    except np.linalg.LinAlgError:
        raise SingularAr("AR polynomial is exactly singular at some frequency") from None
    cond = _norm1(a) * _norm1(a_inv)
    # ``not <=`` also refuses an inverse that overflowed to inf or NaN.
    beyond = ~(cond <= AR_COND_LIMIT)
    if beyond.any():
        idx = int(np.argmax(beyond))
        raise SingularAr(
            f"AR polynomial is numerically singular at frequency index {idx} "
            f"(1-norm condition {float(cond[idx]):.6e})"
        )

    phases_ma = np.exp(-1j * np.outer(omegas, np.arange(len(model.ma))))
    b = (phases_ma @ model.ma.reshape(-1, m * m)).reshape(n, m, m)
    return _matmul(a_inv, b)


def rational_grid(
    model: RationalSpectrum,
    n_freq: int,
    policy: PsdPolicy = DEFAULT_POLICY,
) -> GridSpectrum:
    """Sample a rational model's spectrum on the uniform grid.

    The transfer function, and with it the ``SingularAr`` guard, is
    evaluated on ``l = 0..n_freq // 2`` only: the coefficients are real, so
    ``A(w_{N-l}) = conj A(w_l)`` and the other rows are mirror images.
    """
    h = _transfer(model, default_omegas(n_freq)[: n_freq // 2 + 1])
    hq = _matmul(h, model.noise_cov)
    values = _real_process(_matmul(hq, np.conj(np.swapaxes(h, -1, -2))), n_freq)
    del h, hq  # not held through the build
    return GridSpectrum.build(values, policy, name="rational spectrum", n_freq=n_freq)


def autocov_to_spectrum(
    acov: Autocovariance,
    n_freq: int,
    policy: PsdPolicy = DEFAULT_POLICY,
) -> GridSpectrum:
    """Spectrum ``sum_{|k|<=K} R(k) e^{-jwk}`` on the uniform grid.

    The two-sided lag sequence is laid out in FFT order and transformed in
    one real-input pass (``rfft``) onto ``l = 0..n_freq // 2``; the other
    rows are mirror images.  The result is Hermitian to round-off and
    matches the truncated Fourier sum at every grid point.

    Raises
    ------
    GridTooCoarse
        If ``n_freq < 2 K + 1`` so the grid cannot hold the band.
    NotPositiveDefinite
        If the truncated spectrum is negative beyond the policy band at
        some frequency (flooring within the band is applied and counted).
    """
    k = acov.max_lag
    m = acov.dim
    if n_freq < 2 * k + 1:
        raise GridTooCoarse(
            f"grid of {n_freq} frequencies cannot resolve lags up to {k} "
            f"(need at least {2 * k + 1})"
        )
    seq = np.zeros((n_freq, m, m))
    seq[: k + 1] = acov.lags
    seq[n_freq - k :] = np.swapaxes(acov.lags[:0:-1], 1, 2)
    values = _real_process(np.fft.rfft(seq, axis=0), n_freq)
    return GridSpectrum.build(values, policy, name="truncated spectrum", n_freq=n_freq)


def spectrum_to_autocov(
    spec: GridSpectrum,
    max_lag: int | None = None,
) -> Autocovariance:
    """Autocovariances ``R(k) = (1/N) sum_l value(w_l) e^{jw_l k}``.

    A grid whose ``real_symmetry`` is False is refused; any other is a real
    process's spectrum to within its residual, and the lags are the ``irfft``
    of its rows ``0..N/2``, the rows a mirrored grid keeps.
    Without a forced ``max_lag`` the sequence runs to the grid's bandwidth
    ``(n_freq - 1) // 2``, the largest lag below ``n_freq / 2``, and is cut
    after the last lag with ``|R(k)|_F >= DECAY_TOL * |R(0)|_F``.

    Raises
    ------
    LagTooLarge
        If ``max_lag >= n_freq / 2`` (lags beyond the grid's bandwidth).
    NonRealResidue
        If ``not spec.real_symmetry``: the grid does not describe a
        real-valued process.
    """
    decay_cut = max_lag is None
    if decay_cut:
        max_lag = (spec.n_freq - 1) // 2
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    if 2 * max_lag >= spec.n_freq:
        raise LagTooLarge(
            f"max_lag {max_lag} out of range for a {spec.n_freq}-point grid "
            f"(must be below {spec.n_freq / 2:g})"
        )
    res = check_real_symmetry(spec)
    if not res <= REAL_SYMMETRY_TOL:
        raise NonRealResidue(f"symmetry residual {res:.3e} "
                             "relative; grid is not the spectrum of a real process")
    lags = np.fft.irfft(spec.values[: spec.n_freq // 2 + 1], spec.n_freq, axis=0)[: max_lag + 1]
    if decay_cut:
        # Scaled exactly to a largest entry in [1/2, 1): no square under- or overflows.
        norms = np.linalg.norm(np.ldexp(lags, -np.frexp(np.abs(lags).max())[1]), axis=(1, 2))
        keep = np.nonzero(norms >= DECAY_TOL * max(norms[0], 1e-300))[0]
        lags = lags[: int(keep.max()) + 1 if keep.size else 1]
    # A copy, so the kept lags do not pin the grid-sized transform.
    return Autocovariance(lags=lags.copy())


def _welch_window(window: str, segment_len: int) -> np.ndarray:
    """The taper of ``segment_len`` samples.  One whose ``sum(win**2)`` is 0
    is refused, because the estimate is divided by that sum."""
    win = _WINDOWS[window](segment_len)
    if not np.sum(win**2) > 0.0:
        raise ValueError(f"the {window} window of length {segment_len} has zero energy")
    return win


def estimate_welch(
    samples,
    segment_len: int,
    overlap: float = 0.5,
    window: str = "hann",
    policy: PsdPolicy = DEFAULT_POLICY,
) -> GridSpectrum:
    """Averaged-periodogram spectrum estimate from a zero-mean time series.

    Parameters
    ----------
    samples : array_like of shape (T,) or (T, m)
        Raw samples, one row per time step.
    segment_len : int
        Segment length, a power of two; the output grid has this many
        frequencies.
    overlap : float in [0, 1)
        Fractional overlap between consecutive segments.
    window : {"hann", "hamming", "rectangular"}
        Taper applied to each segment.

    Notes
    -----
    Each segment is windowed, transformed by ``rfft`` onto
    ``l = 0..segment_len / 2``, and its per-frequency outer product
    accumulated; the other rows are mirror images.  The sum is divided by
    ``n_segments * sum(window**2)`` so unit-variance white noise yields a
    spectrum near the identity.

    Raises
    ------
    ValueError
        If the window has no energy (Hann at ``segment_len`` 2 is all zero).
    TooFewSegments
        If the series yields fewer than 4 segments.
    NotPositiveDefinite
        If the estimate has no positive mass (all-zero input).
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise DimensionMismatch(f"samples must be 1-D or 2-D, got shape {x.shape}")
    n, m = x.shape
    if segment_len < 2 or segment_len & (segment_len - 1):
        raise ValueError(f"segment_len must be a power of two, got {segment_len}")
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must lie in [0, 1), got {overlap}")
    if window not in _WINDOWS:
        raise ValueError(f"unknown window {window!r}")

    # Checked before anything segment-sized is allocated.
    step = max(int(segment_len * (1.0 - overlap)), 1)
    n_seg = (n - segment_len) // step + 1 if n >= segment_len else 0
    if n_seg < 4:
        raise TooFewSegments(
            f"{n} samples give {n_seg} segments of length {segment_len} "
            f"at {overlap:.0%} overlap; need at least 4"
        )

    win = _welch_window(window, segment_len)
    acc = np.zeros((segment_len // 2 + 1, m, m), dtype=complex)
    for s in range(n_seg):
        seg = x[s * step : s * step + segment_len]
        spec = np.fft.rfft(win[:, None] * seg, axis=0)
        acc += spec[:, :, None] * np.conj(spec[:, None, :])
    acc /= n_seg * float(np.sum(win**2))
    return GridSpectrum.build(_real_process(acc, segment_len), policy, name="Welch estimate",
                              n_freq=segment_len)
