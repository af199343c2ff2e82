"""Brute-force finite-horizon cross-check of the spectral distance.

Stacking ``i+1`` consecutive samples of a stationary process gives a
Gaussian-style vector with a block-Toeplitz covariance built from the
autocovariance sequence.  The per-step squared transport cost between two
such vectors, divided by ``i+1``, converges to the squared spectral
distance as the horizon grows.  This module builds those matrices
explicitly, evaluates the per-step costs with dense eigendecompositions
(the grid distances' transport integrand, on the checked stacks), and fits
the tail of the sequence to estimate its limit.  It is deliberately naive:
no fast Toeplitz algebra, every claim is recomputed from scratch, so it
can serve as an independent check on the spectral code path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FitDegenerateWarning, NotPositiveDefinite
from .hermitian import DEFAULT_POLICY, PsdPolicy, _integrand, _refuse_indefinite
from .spectra import Autocovariance

__all__ = [
    "ConvergenceDiagnostic",
    "build_block_toeplitz",
    "convergence_diagnostic",
]

#: Largest stacked dimension (i+1)*m the dense eigensolvers are asked for.
DENSE_CAP = 4096

#: Default horizon schedule for convergence runs, before the dim cap.
DEFAULT_HORIZONS = (16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024)


def default_horizons(dim: int) -> tuple:
    """``DEFAULT_HORIZONS`` capped at ``DENSE_CAP // dim - 1``.

    Horizons whose stacked dimension ``(h+1) * dim`` would exceed the dense
    budget are dropped.  The first horizon is kept even when it does not
    fit, so a dim too large for any horizon fails with the budget error.
    """
    cap = DENSE_CAP // dim - 1
    return tuple(h for h in DEFAULT_HORIZONS if h <= cap) or DEFAULT_HORIZONS[:1]


def build_block_toeplitz(
    acov: Autocovariance,
    horizon: int,
    policy: PsdPolicy = DEFAULT_POLICY,
) -> tuple[np.ndarray, float]:
    """Assemble and validate the stacked covariance for one horizon.

    Block (r, s) of the ``(horizon+1) m``-square matrix holds ``R(s-r)``.
    Lags beyond the sequence's ``max_lag`` enter as zero blocks, so a
    truncated autocovariance yields the covariance of the truncated
    process.  Definiteness is checked by a full eigendecomposition.

    Returns
    -------
    matrix : ndarray
        The stacked covariance, exactly symmetric.
    min_eigenvalue : float
        Its smallest eigenvalue.

    Raises
    ------
    DimensionMismatch
        If ``(horizon+1) * dim`` exceeds the dense budget of 4096.
    NotPositiveDefinite
        If the assembled matrix is indefinite beyond the policy band,
        which signals an invalid or over-truncated autocovariance.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    m = acov.dim
    n = horizon + 1
    if n * m > DENSE_CAP:
        raise DimensionMismatch(
            f"stacked dimension {n * m} exceeds the dense budget {DENSE_CAP}"
        )

    # Lay out R(-i..i) in one table, then gather by offset; exact symmetry
    # and block-Toeplitz structure come for free.
    table = np.zeros((2 * horizon + 1, m, m))
    k = min(acov.max_lag, horizon)
    table[horizon : horizon + k + 1] = acov.lags[: k + 1]
    table[horizon - k : horizon] = np.swapaxes(acov.lags[k:0:-1], 1, 2)
    offsets = np.arange(n)[None, :] - np.arange(n)[:, None] + horizon
    matrix = table[offsets].transpose(0, 2, 1, 3).reshape(n * m, n * m)

    w = np.linalg.eigvalsh(matrix)
    what = f"stacked covariance at horizon {horizon} (invalid or over-truncated lags)"
    _refuse_indefinite(w, policy, what)
    return matrix, float(w[0])


@dataclass(frozen=True)
class ConvergenceDiagnostic:
    """Per-horizon costs, their extrapolated limit, and the verdict.

    ``trace_target_x`` and ``trace_target_y`` are each side's ``tr R(0)``,
    the ``tr(S)/(i+1)`` of its ``S`` at every horizon; summed, the floor's unit.
    """

    horizons: tuple
    per_step_values: tuple
    spectral_target: float
    extrapolated_limit: float
    converged: bool
    min_eigenvalues: tuple
    trace_target_x: float
    trace_target_y: float
    fit_degenerate: bool


def _fit_tail(horizons, values) -> float:
    """Extrapolate the sequence with the model ``v = L + c / (i + 1)``.

    Least squares on the last three points (fewer if fewer exist); with the
    Cesaro structure of the per-step average, 1/(i+1) is the natural decay
    variable.  The returned L is an estimate, not a certified limit.
    """
    tail_h = np.asarray(horizons[-3:], dtype=float)
    tail_v = np.asarray(values[-3:], dtype=float)
    if tail_v.size == 1:
        return float(tail_v[0])
    t = 1.0 / (tail_h + 1.0)
    st, st2 = float(t.sum()), float((t * t).sum())
    sv, stv = float(tail_v.sum()), float((t * tail_v).sum())
    # The determinant, sum over pairs i < j of (t_i - t_j)^2, is positive.
    return (st2 * sv - st * stv) / (t.size * st2 - st * st)


def convergence_diagnostic(
    acx: Autocovariance,
    acy: Autocovariance,
    horizons=None,
    spectral_target: float = 0.0,
    policy: PsdPolicy = DEFAULT_POLICY,
) -> ConvergenceDiagnostic:
    """Run the finite-horizon sequence and judge convergence to a target.

    Parameters
    ----------
    horizons : sequence of int, strictly increasing, optional
        Horizons to evaluate; each must respect the dense budget.  An
        explicit list always runs in full.  The default is
        :func:`default_horizons` for the pair's dim, run in increasing
        order and stopped early once the tail fit settles (see Notes).
    spectral_target : float
        Squared spectral distance the sequence should approach, computed
        by the independent grid path.

    Notes
    -----
    ``converged`` is true when the extrapolated limit and the target differ
    by at most ``tol = max(1e-3 * target, 1e-8 * s)``, with ``s = tr Rx(0) +
    tr Ry(0)``, which bounds every squared distance of the pair, and no
    per-step value exceeds ``target + tol``: the cost between n-sample stacks
    is superadditive in n, so by Fekete's lemma no per-step value exceeds the
    limit.  Both floors are relative, so the verdict does not change when
    both processes are scaled by one factor.  A non-monotone tail (beyond
    round-off), or a fit more than ``1e-8 * s`` below a per-step value, flags
    the fit as degenerate and emits one
    :class:`~specdist.errors.FitDegenerateWarning` naming the cause, the
    non-monotone tail first; the run still completes.

    The default schedule refits the last three horizons after each horizon
    from the third on, and stops, at the fourth horizon at the earliest,
    once the fit ``L_k`` and the previous one agree to
    ``|L_k - L_{k-1}| <= 1e-2 * max(1e-3 |L_k|, 1e-8 * s)``: a hundredth of the
    convergence tolerance, taken against the sequence's own limit and never
    against the target.  For geometrically decaying lags the per-step value
    is ``L + c/(i+1)`` up to geometrically vanishing terms (Szegő-type
    trace asymptotics), so the fit settles early; a spectral zero or a
    near-unit root leaves slower terms, and the whole schedule runs.  It
    also stops after the first value above ``target + tol``, which no later
    horizon can undo.  ``horizons`` records where the run stopped, and the
    verdict and the flag come from the horizons that ran.
    """
    if acx.dim != acy.dim:
        raise DimensionMismatch(
            f"autocovariances have different dims: {acx.dim} vs {acy.dim}"
        )
    stop_early = horizons is None
    if stop_early:
        horizons = default_horizons(acx.dim)
    horizons = [int(h) for h in horizons]
    if not horizons:
        raise ValueError("need at least one horizon")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError(f"horizons must be strictly increasing, got {horizons}")

    # The floors' unit, tr Rx(0) + tr Ry(0), bounds every squared distance.
    target_x, target_y = (float(np.trace(a.lags[0])) for a in (acx, acy))
    floor = 1e-8 * (target_x + target_y)
    tol = max(1e-3 * abs(spectral_target), floor)
    per_step = []
    min_eigs = []
    fit = None
    for i, h in enumerate(horizons):
        sx, min_x = build_block_toeplitz(acx, h, policy)
        sy, min_y = build_block_toeplitz(acy, h, policy)
        if np.array_equal(sx, sy):
            value = 0.0
        else:
            value = float(_integrand(sx, sy, policy)[0]) / (h + 1)
        per_step.append(value)
        min_eigs.append((min_x, min_y))
        if stop_early and value > spectral_target + tol:
            break  # a lower bound on the limit above the target
        if stop_early and i >= 2:
            previous, fit = fit, _fit_tail(horizons[: i + 1], per_step)
            if previous is not None and abs(fit - previous) <= 1e-2 * max(1e-3 * abs(fit), floor):
                break
    horizons = horizons[: len(per_step)]
    if not np.all(np.isfinite(per_step)):
        raise NotPositiveDefinite("finite-horizon sequence contains non-finite values")

    limit, peak = _fit_tail(horizons, per_step), max(per_step)
    cause = None
    if len(per_step) >= 3:
        v1, v2, v3 = per_step[-3:]
        s1, s2 = v2 - v1, v3 - v2
        noise = 1e-12 * max(abs(v1), abs(v2), abs(v3), 1e-300)
        if s1 * s2 < 0.0 and min(abs(s1), abs(s2)) > noise:
            cause = ("finite-horizon tail is non-monotone; the 1/(i+1) "
                     "extrapolation may be unreliable")
    if cause is None and limit < peak - floor:
        cause = (f"the 1/(i+1) tail fit {limit:.6e} lies below the per-step value "
                 f"{peak:.6e}, a lower bound on the limit")
    if cause is not None:
        warnings.warn(cause, FitDegenerateWarning)
    degenerate = cause is not None
    converged = abs(limit - spectral_target) <= tol and peak <= spectral_target + tol
    return ConvergenceDiagnostic(
        horizons=tuple(horizons),
        per_step_values=tuple(per_step),
        spectral_target=float(spectral_target),
        extrapolated_limit=float(limit),
        converged=bool(converged),
        min_eigenvalues=tuple(min_eigs),
        trace_target_x=target_x,
        trace_target_y=target_y,
        fit_degenerate=degenerate,
    )
