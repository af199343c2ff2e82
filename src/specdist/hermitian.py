"""Dense Hermitian linear algebra.

Principal PSD square roots and the Bures-type quadratic coupling cost
``tr[A + B - 2(A^{1/2} B A^{1/2})^{1/2}]`` on pairs of Hermitian
positive-definite matrices, batched over leading axes where the grid path
needs it.  Everything here is a pure
function of its inputs; real symmetric matrices are handled as the special
case of complex Hermitian ones and stay in real arithmetic throughout.
Each PSD rule of the package (symmetry, negativity, round-off) lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndefiniteInput,
    NegativeDistance,
    NonHermitianInput,
)

__all__ = [
    "DEFAULT_POLICY",
    "PsdPolicy",
    "bures_w2_squared",
    "check_hermitian",
    "coupling_trace",
    "hermitian_part",
    "hermitian_residual",
    "psd_root",
    "sqrt_psd",
    "sqrt_psd_many",
    "trace_sqrt_product",
]

#: Relative symmetry tolerance for accepting a matrix as Hermitian.
HERMITIAN_TOL = 1e-12

#: Looser symmetry tolerance for spectrum grids, R(0) and noise_cov.
GRID_HERMITIAN_TOL = 1e-8

#: Relative round-off band below zero tolerated in a computed squared
#: distance (or coupling-trace gap) before declaring a numerical bug.
NEGATIVE_BAND = 1e-10


@dataclass(frozen=True)
class PsdPolicy:
    """Eigenvalue flooring policy for nominally positive-definite input.

    Both fields are *relative* coefficients.  For a matrix with
    eigenvalues ``w`` the effective floor is ``floor_eps * max(w, 0)`` and
    the largest tolerated negative eigenvalue is
    ``-negativity_tol * max(|w|)``; anything below that band raises
    :class:`~specdist.errors.IndefiniteInput` instead of being silently
    repaired.  The defaults tolerate round-off without masking genuine
    indefiniteness.
    """

    floor_eps: float = 1e-12
    negativity_tol: float = 1e-10

    def __post_init__(self):
        if self.floor_eps < 0.0 or self.negativity_tol < 0.0:
            raise ValueError("PsdPolicy coefficients must be nonnegative")


DEFAULT_POLICY = PsdPolicy()


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return ``(A + A*) / 2``, batched over leading axes."""
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def hermitian_residual(a: np.ndarray) -> float:
    """Max entrywise deviation from conjugate symmetry, relative to the
    largest entry magnitude (0.0 for the zero matrix, NaN if not finite)."""
    a = np.asarray(a)
    with np.errstate(invalid="ignore"):  # inf - inf is the NaN we want
        num = float(np.max(np.abs(a - np.conj(np.swapaxes(a, -1, -2)))))
    den = float(np.max(np.abs(a)))
    if den == 0.0:
        return 0.0
    return num / den


def check_hermitian(a, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is a square Hermitian matrix.

    Raises
    ------
    DimensionMismatch
        If ``a`` is not two-dimensional and square.
    NonHermitianInput
        If the relative symmetry residual exceeds ``tol`` or is NaN.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    _refuse_asymmetric(a, tol, name)
    return a


def _refuse_asymmetric(a, tol: float, what: str, error=NonHermitianInput) -> None:
    # The one symmetry rule; ``not res <= tol`` also refuses a NaN residual.
    res = hermitian_residual(a)
    if not res <= tol:
        raise error(f"{what} has symmetry residual {res:.3e} (tolerance {tol:.1e})")


def _refuse_indefinite(w, policy: PsdPolicy, what: str, error=IndefiniteInput) -> None:
    # The one per-matrix negativity rule: each lowest eigenvalue against
    # -negativity_tol times the largest magnitude.  NaN fails.
    bounds = policy.negativity_tol * np.max(np.abs(w), axis=-1, initial=0.0)
    lo = w[..., 0]
    if not np.all(lo >= -bounds):
        k = int(np.argmin(lo + bounds))
        label = f"{what} {k}" if lo.ndim else what
        raise error(
            f"{label} has eigenvalue {float(np.ravel(lo)[k]):.6e} below "
            f"the tolerated negativity band -{float(np.ravel(bounds)[k]):.3e}"
        )


def _clamp_round_off(val, scale, what: str) -> np.ndarray:
    # The one round-off rule for a computed squared distance: clamp values
    # down to -NEGATIVE_BAND * scale to zero, refuse lower ones and NaN.
    val = np.asarray(val)
    band = NEGATIVE_BAND * np.asarray(scale)
    if not np.all(val >= -band):
        k = int(np.argmin(val + band))
        at = f" at frequency index {k}" if val.ndim else ""
        raise NegativeDistance(
            f"{what} {float(np.ravel(val)[k]):.6e}{at} below the round-off "
            f"band -{float(np.ravel(band)[k]):.3e}"
        )
    return np.maximum(val, 0.0)


def psd_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``V diag(sqrt(w)) V*`` from a batched eigendecomposition with ``w``
    already floored.  ``v`` is conjugated in place (one stack-sized
    temporary less), so the caller must not reuse it.  Not symmetrized.
    """
    scaled = v * np.sqrt(w)[..., None, :]
    np.conj(v, out=v)
    return scaled @ np.swapaxes(v, -1, -2)


def sqrt_psd_many(values: np.ndarray, policy: PsdPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Principal square roots of a stack of Hermitian PSD matrices.

    Eigenvalues below ``floor_eps`` times each matrix's largest eigenvalue
    are lifted to that floor first, so each root squares back to the
    floored matrix.  Input shape ``(..., m, m)``; symmetry is not
    re-validated here.

    Raises
    ------
    IndefiniteInput
        If an eigenvalue falls below the policy's negativity band.
    """
    w, v = np.linalg.eigh(values)
    _refuse_indefinite(w, policy, "matrix")
    floors = policy.floor_eps * np.maximum(w[..., -1], 0.0)
    return psd_root(np.maximum(w, floors[..., None]), v)


def sqrt_psd(h, policy: PsdPolicy = DEFAULT_POLICY) -> np.ndarray:
    """:func:`sqrt_psd_many` on one matrix, after checking it is Hermitian."""
    return sqrt_psd_many(check_hermitian(h)[None], policy)[0]


def coupling_trace(root_a, b, policy: PsdPolicy = DEFAULT_POLICY) -> np.ndarray:
    """``tr[(A^{1/2} B A^{1/2})^{1/2}]`` given the root ``A^{1/2}``, batched
    over leading axes.

    The sandwich is a congruence, which keeps the sign of ``B``'s
    eigenvalues, so an indefinite ``B`` raises
    :class:`~specdist.errors.IndefiniteInput` here.
    """
    wm = np.linalg.eigvalsh(hermitian_part(root_a @ b @ root_a))
    _refuse_indefinite(wm, policy, "coupling matrix")
    return np.sum(np.sqrt(np.maximum(wm, 0.0)), axis=-1)


def trace_sqrt_product(a, b, policy: PsdPolicy = DEFAULT_POLICY) -> float:
    """``tr[(A^{1/2} B A^{1/2})^{1/2}]`` for Hermitian PD ``A``, ``B``.

    Decomposes ``A``, forms the Hermitian sandwich ``A^{1/2} B A^{1/2}`` and
    sums the square roots of its eigenvalues (:func:`coupling_trace`); no
    non-symmetric eigensolver is involved.  The value also equals the sum of
    square roots of the eigenvalues of the product ``A B``; the test suite
    keeps that route as an independent reference.

    Raises
    ------
    DimensionMismatch
        If the shapes differ.
    IndefiniteInput
        If either operand is indefinite beyond the policy band
        (indefiniteness of ``B`` is detected through the sign-preserving
        congruence).
    """
    a = check_hermitian(a, name="first operand")
    b = check_hermitian(b, name="second operand")
    if a.shape != b.shape:
        raise DimensionMismatch(f"operand shapes differ: {a.shape} vs {b.shape}")
    return float(coupling_trace(sqrt_psd_many(a[None], policy), b, policy)[0])


def bures_w2_squared(a, b, policy: PsdPolicy = DEFAULT_POLICY) -> float:
    """Squared quadratic coupling cost between zero-mean laws with scatter
    matrices ``A`` and ``B``:  ``tr[A + B - 2 (A^{1/2} B A^{1/2})^{1/2}]``.

    Tiny negative results inside the round-off band
    ``NEGATIVE_BAND * (tr A + tr B)`` are clamped to zero; anything more
    negative raises :class:`~specdist.errors.NegativeDistance`.
    """
    cross = trace_sqrt_product(a, b, policy)
    scale = float(np.trace(np.asarray(a)).real) + float(np.trace(np.asarray(b)).real)
    return float(_clamp_round_off(scale - 2.0 * cross, scale, "squared distance"))
