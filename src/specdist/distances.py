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

from .errors import GridMismatch
from .hermitian import DEFAULT_POLICY, PsdPolicy, _clamp_round_off, coupling_trace
from .spectra import GridSpectrum

__all__ = [
    "DistanceReport",
    "gelbrich_lower_bound",
    "hellinger",
    "spectral_w2",
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
    w2 = _clamp_round_off(scale - 2.0 * tsp, scale, "transport trace")
    hell = np.sum(np.abs(rx - ry) ** 2, axis=(-2, -1))

    # The gap is guarded like the transport trace but reported unclamped.
    alt = tsp - np.einsum("fij,fji->f", rx, ry).real
    _clamp_round_off(alt, scale, "coupling-trace gap")

    comm = xv @ yv - yv @ xv
    residual = float(np.max(np.linalg.norm(comm, axis=(-2, -1))))
    return _PairProfile(w2, hell, alt, residual)


def _report(
    x: GridSpectrum,
    y: GridSpectrum,
    integrand: np.ndarray,
    profile: _PairProfile,
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
    )


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
