"""Distances between stationary processes computed from their spectra.

The quadratic transport distance is the square root of the grid mean of
``tr W[Fx(w), Fy(w)]`` with ``W[A, B] = A + B - 2 (A^{1/2} B A^{1/2})^{1/2}``.
The same functional doubles as a general lower bound (the elliptical
hypothesis is what upgrades it to the exact distance), so the bound variant
reuses the computation and only flips a semantics flag.  The Hellinger
distance replaces the coupling term with ``|A^{1/2} - B^{1/2}|_F^2``; since
``tr[(AB)^{1/2}] >= tr[A^{1/2} B^{1/2}]`` on positive definite pairs, it
never falls below the transport distance, with equality exactly when the
spectra commute.  The per-frequency gap between the two coupling traces is
reported as a diagnostic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, GridMismatch, NegativeDistance
from .hermitian import (
    DEFAULT_POLICY,
    NEGATIVE_BAND,
    PsdPolicy,
    coupling_trace,
    hermitian_part,
    sqrt_psd,
    trace_sqrt_product,
)
from .spectra import GridSpectrum

__all__ = [
    "DistanceReport",
    "alt_gap_profile",
    "gelbrich_lower_bound",
    "hellinger",
    "spectral_w2",
    "spectral_w2_scalar",
    "w_integrand",
]


@dataclass(frozen=True)
class DistanceReport:
    """Distance value plus the per-frequency evidence behind it.

    ``per_freq_trace`` holds the integrand of whichever distance was
    computed (transport trace or squared Frobenius gap of the roots).
    ``alt_gap`` is ``tr[(Fx Fy)^{1/2}] - tr[Fx^{1/2} Fy^{1/2}]`` per
    frequency, nonnegative up to round-off, and zero on commuting pairs.
    ``commutation_residual`` is the grid max of ``|Fx Fy - Fy Fx|_F``.
    ``flooring_count`` sums the construction-time flooring counts of the
    two input grids.  ``is_lower_bound`` marks bound semantics: the same
    number read as a lower bound on the distance rather than the distance
    itself.
    """

    value: float
    squared: float
    n_freq: int
    per_freq_trace: np.ndarray
    alt_gap: np.ndarray
    commutation_residual: float
    flooring_count: int
    is_lower_bound: bool = False

    def as_dict(self) -> dict:
        """Plain-type view in the serialization key order."""
        return {
            "value": self.value,
            "squared": self.squared,
            "n_freq": self.n_freq,
            "per_freq_trace": [float(t) for t in self.per_freq_trace],
            "alt_gap": [float(g) for g in self.alt_gap],
            "commutation_residual": self.commutation_residual,
            "flooring_count": self.flooring_count,
            "is_lower_bound": self.is_lower_bound,
        }


class _PairProfile(NamedTuple):
    per_freq_w2: np.ndarray
    per_freq_hell: np.ndarray
    alt_gap: np.ndarray
    commutation_residual: float


def _check_same_grid(x: GridSpectrum, y: GridSpectrum) -> None:
    if x.dim != y.dim:
        raise GridMismatch(f"spectra have different dims: {x.dim} vs {y.dim}")
    if x.n_freq != y.n_freq:
        raise GridMismatch(
            f"spectra sampled on different grids: {x.n_freq} vs {y.n_freq} points"
        )


def _pair_profile(x: GridSpectrum, y: GridSpectrum, policy: PsdPolicy) -> _PairProfile:
    """All per-frequency quantities for one spectrum pair, in one pass."""
    _check_same_grid(x, y)
    n = x.n_freq
    if np.array_equal(x.values, y.values):
        # Bitwise-equal grids are reported as exactly coincident; this keeps
        # the identity axiom and output determinism free of round-off.
        zeros = np.zeros(n)
        return _PairProfile(zeros, np.zeros(n), np.zeros(n), 0.0)

    xv, yv = x.values, y.values
    rx, ry = x.root, y.root
    tsp = coupling_trace(rx, yv, policy)

    tr_x = np.trace(xv, axis1=-2, axis2=-1).real
    tr_y = np.trace(yv, axis1=-2, axis2=-1).real
    scale = tr_x + tr_y
    w2 = tr_x + tr_y - 2.0 * tsp
    band = NEGATIVE_BAND * scale
    if np.any(w2 < -band):
        k = int(np.argmin(w2 + band))
        raise NegativeDistance(
            f"transport trace {float(w2[k]):.6e} at frequency index {k} "
            f"below the round-off band -{float(band[k]):.3e}"
        )
    w2 = np.maximum(w2, 0.0)

    diff = rx - ry
    hell = np.sum(np.abs(diff) ** 2, axis=(-2, -1))

    cross = np.einsum("fij,fji->f", rx, ry).real
    alt = tsp - cross
    if np.any(alt < -band):
        k = int(np.argmin(alt + band))
        raise NegativeDistance(
            f"coupling-trace gap {float(alt[k]):.6e} at frequency index {k} "
            f"below the round-off band; trace inequality violated numerically"
        )

    comm = xv @ yv - yv @ xv
    residual = float(np.max(np.linalg.norm(comm, axis=(-2, -1))))
    return _PairProfile(w2, hell, alt, residual)


def _report(
    x: GridSpectrum,
    y: GridSpectrum,
    integrand: np.ndarray,
    profile: _PairProfile,
    is_lower_bound: bool = False,
) -> DistanceReport:
    squared = float(np.mean(integrand))
    return DistanceReport(
        value=float(np.sqrt(squared)),
        squared=squared,
        n_freq=x.n_freq,
        per_freq_trace=integrand,
        alt_gap=profile.alt_gap,
        commutation_residual=profile.commutation_residual,
        flooring_count=x.flooring_count + y.flooring_count,
        is_lower_bound=is_lower_bound,
    )


def w_integrand(phix, phiy, policy: PsdPolicy = DEFAULT_POLICY):
    """Transport cost matrix and trace for one pair of spectrum values.

    Returns
    -------
    matrix : ndarray
        ``W = A + B - 2 (A^{1/2} B A^{1/2})^{1/2}``, Hermitian.
    trace : float
        ``tr A + tr B - 2 tr[(A^{1/2} B A^{1/2})^{1/2}]`` with the trace of
        the coupling term computed through its product-eigenvalue identity;
        clamped to zero inside the round-off band.
    """
    a = np.asarray(phix)
    b = np.asarray(phiy)
    if a.shape != b.shape:
        raise DimensionMismatch(f"value shapes differ: {a.shape} vs {b.shape}")
    ra = sqrt_psd(a, policy)
    inner = sqrt_psd(hermitian_part(ra @ b @ ra), policy)
    matrix = hermitian_part(a + b - 2.0 * inner)

    cross = trace_sqrt_product(a, b, policy)
    tra = float(np.trace(a).real)
    trb = float(np.trace(b).real)
    trace = tra + trb - 2.0 * cross
    band = NEGATIVE_BAND * (tra + trb)
    if trace < -band:
        raise NegativeDistance(
            f"transport trace {trace:.6e} below the round-off band -{band:.3e}"
        )
    return matrix, max(trace, 0.0)


def spectral_w2(
    x: GridSpectrum,
    y: GridSpectrum,
    policy: PsdPolicy = DEFAULT_POLICY,
) -> DistanceReport:
    """Quadratic transport distance between two grid spectra.

    The squared value is the grid mean of the per-frequency transport
    trace; on the uniform grid this mean is the periodic rectangle rule
    for the normalized frequency integral and is spectrally accurate for
    smooth spectra.

    Raises
    ------
    GridMismatch
        If the spectra differ in dimension or grid size.
    """
    profile = _pair_profile(x, y, policy)
    return _report(x, y, profile.per_freq_w2, profile)


def gelbrich_lower_bound(
    x: GridSpectrum,
    y: GridSpectrum,
    policy: PsdPolicy = DEFAULT_POLICY,
) -> DistanceReport:
    """Scatter-matrix lower bound on the quadratic transport distance.

    Numerically identical to :func:`spectral_w2`; the report is tagged
    ``is_lower_bound`` because without the elliptical same-generator
    hypothesis the number is only a bound, not the distance itself.
    """
    report = spectral_w2(x, y, policy)
    return dataclasses.replace(report, is_lower_bound=True)


def hellinger(
    x: GridSpectrum,
    y: GridSpectrum,
    policy: PsdPolicy = DEFAULT_POLICY,
) -> DistanceReport:
    """Hellinger-type distance: grid mean of ``|Fx^{1/2} - Fy^{1/2}|_F^2``.

    Never falls below :func:`spectral_w2` on the same pair (the coupling-trace
    inequality runs that way); equality holds exactly on commuting families.
    """
    profile = _pair_profile(x, y, policy)
    return _report(x, y, profile.per_freq_hell, profile)


def alt_gap_profile(
    x: GridSpectrum,
    y: GridSpectrum,
    policy: PsdPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Per-frequency gap ``tr[(Fx Fy)^{1/2}] - tr[Fx^{1/2} Fy^{1/2}]``.

    Nonnegative up to round-off everywhere, and zero wherever the two
    spectra commute.
    """
    return _pair_profile(x, y, policy).alt_gap


def spectral_w2_scalar(x: GridSpectrum, y: GridSpectrum) -> DistanceReport:
    """Closed-form scalar path: root of the grid mean of ``(sx^{1/2} - sy^{1/2})^2``.

    Only defined for one-dimensional spectra; agrees with the matrix path
    to near machine precision, which the test suite pins down.

    Raises
    ------
    DimensionMismatch
        If either spectrum has dim > 1.
    GridMismatch
        If the grids differ in size.
    """
    if x.dim != 1 or y.dim != 1:
        raise DimensionMismatch(
            f"scalar path requires dim 1, got {x.dim} and {y.dim}"
        )
    _check_same_grid(x, y)
    sx = x.values[:, 0, 0].real
    sy = y.values[:, 0, 0].real
    integrand = (np.sqrt(sx) - np.sqrt(sy)) ** 2
    n = x.n_freq
    profile = _PairProfile(integrand, integrand, np.zeros(n), 0.0)
    return _report(x, y, integrand, profile)
