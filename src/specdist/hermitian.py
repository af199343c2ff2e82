"""Dense Hermitian linear algebra.

Eigendecompositions, principal PSD square roots, and the Bures-type
quadratic coupling cost ``tr[A + B - 2(A^{1/2} B A^{1/2})^{1/2}]`` on
pairs of Hermitian positive-definite matrices.  Everything here is a pure
function of its inputs; real symmetric matrices are handled as the special
case of complex Hermitian ones and stay in real arithmetic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    IndefiniteInput,
    NegativeDistance,
    NonHermitianInput,
)

__all__ = [
    "DEFAULT_POLICY",
    "EigenDecomposition",
    "PsdPolicy",
    "bures_w2_squared",
    "check_hermitian",
    "coupling_trace",
    "eigh",
    "hermitian_part",
    "hermitian_residual",
    "psd_root",
    "sqrt_psd",
    "sqrt_psd_many",
    "trace_sqrt_product",
]

#: Relative symmetry tolerance for accepting a matrix as Hermitian.
HERMITIAN_TOL = 1e-12

#: Relative round-off band below zero tolerated by ``bures_w2_squared``
#: before declaring a numerical bug.
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


class EigenDecomposition(NamedTuple):
    """Eigenvalues in ascending order and the matching unitary eigenbasis
    (eigenvectors in columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return ``(A + A*) / 2``, batched over leading axes."""
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def hermitian_residual(a: np.ndarray) -> float:
    """Max entrywise deviation from conjugate symmetry, relative to the
    largest entry magnitude (0.0 for the zero matrix)."""
    a = np.asarray(a)
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
        If the relative symmetry residual exceeds ``tol``.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    res = hermitian_residual(a)
    if res > tol:
        raise NonHermitianInput(
            f"{name} has symmetry residual {res:.3e} (tolerance {tol:.1e})"
        )
    return a


def eigh(h, tol: float = HERMITIAN_TOL) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    h : array_like of shape (m, m)
        Hermitian matrix.

    Returns
    -------
    EigenDecomposition
        Eigenvalues ascending; eigenvector columns unitary, satisfying
        ``V diag(w) V* = H`` to round-off.

    Raises
    ------
    NonHermitianInput
        If the symmetry residual of ``h`` exceeds ``tol``.
    ConvergenceFailure
        If the underlying solver fails to converge.
    """
    h = check_hermitian(h, tol)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvalue solver failed: {exc}") from exc
    return EigenDecomposition(w, v)


def _refuse_indefinite(w: np.ndarray, policy: PsdPolicy, what: str) -> None:
    # Per matrix: lowest eigenvalue against -negativity_tol * largest magnitude.
    bounds = policy.negativity_tol * np.max(np.abs(w), axis=-1, initial=0.0)
    lo = w[..., 0]
    if np.any(lo < -bounds):
        k = int(np.argmin(lo + bounds))
        raise IndefiniteInput(
            f"{what} {k} has eigenvalue {float(np.ravel(lo)[k]):.6e} below "
            f"the tolerated negativity band -{float(np.ravel(bounds)[k]):.3e}"
        )


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


def trace_sqrt_product(
    a,
    b,
    policy: PsdPolicy = DEFAULT_POLICY,
    method: str = "sandwich",
) -> float:
    """``tr[(A^{1/2} B A^{1/2})^{1/2}]`` for Hermitian PD ``A``, ``B``.

    The value equals the sum of square roots of the eigenvalues of the
    (non-Hermitian) product ``A B``, which are real and positive for a PD
    pair; the two formulations agree to round-off and either may be
    requested.

    Parameters
    ----------
    method : {"sandwich", "product-eigs"}
        ``"sandwich"`` (default) decomposes ``A``, forms the Hermitian
        matrix ``A^{1/2} B A^{1/2}`` and sums the square roots of its
        eigenvalues; no non-symmetric eigensolver is involved.
        ``"product-eigs"`` feeds ``A @ B`` to a general eigensolver and is
        provided as an independent cross-check path.

    Raises
    ------
    DimensionMismatch
        If the shapes differ.
    IndefiniteInput
        If either operand is indefinite beyond the policy band (for the
        sandwich path, indefiniteness of ``B`` is detected through the
        sign-preserving congruence).
    """
    a = check_hermitian(a, name="first operand")
    b = check_hermitian(b, name="second operand")
    if a.shape != b.shape:
        raise DimensionMismatch(f"operand shapes differ: {a.shape} vs {b.shape}")

    if method == "sandwich":
        return float(coupling_trace(sqrt_psd_many(a[None], policy), b, policy)[0])

    if method == "product-eigs":
        lam = np.linalg.eigvals(a @ b)
        scale = float(np.max(np.abs(lam), initial=0.0))
        if float(np.max(np.abs(lam.imag), initial=0.0)) > 1e-8 * max(scale, 1e-300):
            raise IndefiniteInput(
                "product eigenvalues are not real; operands are not a PD pair"
            )
        re = lam.real
        if float(re.min(initial=0.0)) < -policy.negativity_tol * scale:
            raise IndefiniteInput(
                f"product eigenvalue {float(re.min()):.6e} is negative beyond tolerance"
            )
        return float(np.sum(np.sqrt(np.maximum(re, 0.0))))

    raise ValueError(f"unknown method {method!r}")


def bures_w2_squared(a, b, policy: PsdPolicy = DEFAULT_POLICY) -> float:
    """Squared quadratic coupling cost between zero-mean laws with scatter
    matrices ``A`` and ``B``:  ``tr[A + B - 2 (A^{1/2} B A^{1/2})^{1/2}]``.

    Tiny negative results inside the round-off band
    ``NEGATIVE_BAND * (tr A + tr B)`` are clamped to zero; anything more
    negative raises :class:`~specdist.errors.NegativeDistance`.
    """
    cross = trace_sqrt_product(a, b, policy)
    tra = float(np.trace(np.asarray(a)).real)
    trb = float(np.trace(np.asarray(b)).real)
    val = tra + trb - 2.0 * cross
    band = NEGATIVE_BAND * (tra + trb)
    if val < -band:
        raise NegativeDistance(
            f"squared distance {val:.6e} below the round-off band -{band:.3e}"
        )
    return max(val, 0.0)
