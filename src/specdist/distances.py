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
a diagnostic of the Hellinger report.  One function builds each report; the
two distances differ only in the integrand it averages.  The transport trace
couples a factor of ``Fx`` with ``Fy`` and needs no eigenvector; only
:func:`hellinger` forms the principal roots.

A pair of mirrored grids (``GridSpectrum.mirrored``: rows ``l = 0..N/2``
kept, row ``N-l`` being ``conj(row l)``) is compared and coupled on those
rows, as conjugation keeps every per-frequency quantity, and its arrays are
mirrored from them; any other pair on its full grids.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .hermitian import (DEFAULT_POLICY, PsdPolicy, _clamp_round_off, _factors, _matmul, _roots,
                        coupling_trace)
from .spectra import GridSpectrum, _mirror

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
    ``commutation_residual`` is the grid max of ``|Fx Fy - Fy Fx|_F /
    (|Fx|_F |Fy|_F)``: dimensionless, so comparable across pairs and
    unchanged when both spectra are scaled, and at most ``sqrt(2)``
    (Böttcher & Wenzel, Linear Algebra Appl. 429, 2008).
    ``flooring_count`` sums the construction-time flooring counts of the
    two input grids.  ``is_lower_bound`` marks bound semantics: the same
    number read as a lower bound on the distance rather than the distance
    itself.  ``alt_gap`` (None on a transport report) is ``tr[(Fx
    Fy)^{1/2}] - tr[Fx^{1/2} Fy^{1/2}]`` per frequency, nonnegative up to
    round-off, and zero on commuting pairs.
    """

    value: float
    squared: float
    n_freq: int
    per_freq_trace: np.ndarray
    commutation_residual: float
    flooring_count: int
    is_lower_bound: bool = False
    alt_gap: np.ndarray | None = None


def _frobenius(a) -> np.ndarray:
    # Per-matrix norms of a stack, as dot products of reals.
    v = np.ascontiguousarray(a).reshape(len(a), -1)
    v = v.view(v.real.dtype)
    return np.sqrt(np.einsum("fi,fi->f", v, v))


def _distance(x: GridSpectrum, y: GridSpectrum, policy: PsdPolicy,
              hellinger: bool) -> DistanceReport:
    """The transport report for one spectrum pair, or with ``hellinger``
    the Hellinger one.  Both run the transport trace's round-off guard."""
    if x.dim != y.dim:
        raise GridMismatch(f"spectra have different dims: {x.dim} vs {y.dim}")
    n = x.n_freq
    if n != y.n_freq:
        raise GridMismatch(f"spectra sampled on different grids: {n} vs {y.n_freq} points")
    flooring_count = x.flooring_count + y.flooring_count
    # A mirrored pair is coupled on its rows l = 0..N/2 and its arrays mirrored.
    half = x.mirrored and y.mirrored
    xv, yv = (x.values, y.values) if half else (x.full(), y.full())
    if np.array_equal(xv, yv):
        # Bitwise-equal grids are reported as exactly coincident; this keeps
        # the identity axiom and output determinism free of round-off.
        return DistanceReport(0.0, 0.0, n, np.zeros(n), 0.0, flooring_count,
                              alt_gap=np.zeros(n) if hellinger else None)

    tsp = coupling_trace(_factors(xv, policy), yv, policy)

    tr_x = np.trace(xv, axis1=-2, axis2=-1).real
    tr_y = np.trace(yv, axis1=-2, axis2=-1).real
    scale = tr_x + tr_y
    integrand = _clamp_round_off(scale - 2.0 * tsp, scale, "transport trace")
    alt = None
    if hellinger:
        rx, ry = _roots(xv), _roots(yv)
        integrand = np.sum(np.abs(rx - ry) ** 2, axis=(-2, -1))
        # The gap is guarded like the transport trace but reported unclamped.
        alt = tsp - np.einsum("fij,fji->f", rx, ry).real
        _clamp_round_off(alt, scale, "coupling-trace gap")

    # Dimensionless, on copies scaled per matrix by the power of two that
    # puts its trace in [1/2, 1), so that no product or norm over- or
    # underflows.  On Hermitian grids Fy Fx = (Fx Fy)*.  One buffer, a whole
    # grid's size, holds both: freeing it lifts glibc's dynamic mmap and trim
    # thresholds above a half grid, so later ops reuse heap pages (a looped
    # dim-8 op: about 6,950 minor faults with two buffers, 2,050 with one).
    xys = np.empty((2,) + xv.shape, np.result_type(xv, yv))
    for a, t, out in zip((xv, yv), (tr_x, tr_y), xys):
        np.multiply(a, np.ldexp(1.0, -np.frexp(t)[1])[:, None, None], out=out)
    comm = _matmul(*xys)
    comm -= np.conj(np.swapaxes(comm, -1, -2))
    nx, ny = _frobenius(xys.reshape((-1,) + xv.shape[1:])).reshape(2, -1)
    comm, norms = _frobenius(comm), nx * ny
    residual = float(np.max(np.divide(comm, norms, out=np.zeros_like(comm),
                                      where=norms > 0.0)))
    if half:
        integrand, alt = (a if a is None else _mirror(a, n) for a in (integrand, alt))
    squared = float(np.mean(integrand))
    return DistanceReport(float(np.sqrt(squared)), squared, n, integrand, residual,
                          flooring_count, alt_gap=alt)


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
    return _distance(x, y, policy, hellinger=False)


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
    return _distance(x, y, policy, hellinger=True)
