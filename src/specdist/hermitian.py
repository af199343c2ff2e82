"""Dense Hermitian linear algebra.

Principal PSD square roots and the Bures-type quadratic coupling cost
``tr[A + B - 2(A^{1/2} B A^{1/2})^{1/2}]`` on pairs of Hermitian
positive-definite matrices: one integrand, ``_integrand``, for the grid,
``bures_w2_squared`` and the oracle.  One kernel, ``coupling_trace``,
takes the coupling trace from any factor ``A = F F*``; ``_factors`` gives
a matrix or a grid its closed-form root at m = 2, its Cholesky factor
otherwise, or its floored root when it has none, so no transport number
needs an eigenvector; only the Hellinger integrand forms principal roots
(``_roots``).  Everything here is a pure function of its inputs; real
symmetric matrices stay in real arithmetic throughout.  The package's
symmetry, negativity, flooring and round-off rules live here, the
grid-wide one too (``_floored_rows``, which ``GridSpectrum.build`` calls,
measured against the grid's largest eigenvalue, with a Cholesky gate); only
the strict ``noise_cov`` rule of ``RationalSpectrum`` applies outside it.
The symmetry rule, with its one tolerance, returns the Hermitian part it
measured, which every later pass reads: ``_floored_rows`` on a grid,
``_integrand`` on the operands of ``bures_w2_squared``.  Each rule, not its
caller, picks the error: symmetry ``NonHermitianInput``, definiteness
``NotPositiveDefinite``.

At m = 2 the per-matrix work has a closed form (Bhatia, Jain & Lim, "On
the Bures-Wasserstein distance between positive definite matrices",
Expo. Math. 2019), which replaces LAPACK's per-matrix overhead on the
grid: ``_eig_scaled_2x2`` decomposes each matrix from its trace and
determinant (the eigenvalue of larger magnitude first, the other as
``det`` over it, never as a difference); ``_eigvalsh`` reads the
eigenvalues off that one pass and ``_psd_root_2x2`` the principal root
``(A + sqrt(det A) I) / sqrt(tr A + 2 sqrt(det A))``; ``_inv`` takes
the adjugate over the determinant.  Each matrix is scaled by a power of
two before any product, so that no product overflows, and none
underflows unless negligible against the matrix; the coupling kernel
scales the same way.  It, the grid build's floor pass and a grid's
extreme eigenvalues take their eigenvalues from ``_eigvalsh``, so one
algorithm decides each floor and refusal; the tests keep a whole-grid
``eigh`` path as the reference.  ``_matmul`` writes the batched products
entry by entry: ``A^{-1} B`` and ``H Q H*`` in ``spectra``, the coupling
sandwich here, and the commutator's product in ``distances``; per-matrix
maxima are elementwise too.  At every other m each of these calls LAPACK
or ``@``, ``H Q`` as one GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NegativeDistance, NonHermitianInput, NotPositiveDefinite

__all__ = [
    "DEFAULT_POLICY",
    "PsdPolicy",
    "bures_w2_squared",
    "coupling_trace",
]

#: Relative symmetry tolerance of every matrix the symmetry rule checks:
#: grid rows, R(0), noise_cov and the single-matrix cost's operands.
SYMMETRY_TOL = 1e-8

#: Relative round-off band below zero tolerated in a computed squared
#: distance (or coupling-trace gap) before declaring a numerical bug.
NEGATIVE_BAND = 1e-10


@dataclass(frozen=True)
class PsdPolicy:
    """Eigenvalue flooring policy for nominally positive-definite input.

    Both fields are finite, nonnegative *relative* coefficients.  For a
    matrix with eigenvalues ``w`` the effective floor is
    ``floor_eps * max(w, 0)`` and the largest tolerated negative eigenvalue
    is ``-negativity_tol * max(|w|)``; anything below that band raises
    :class:`~specdist.errors.NotPositiveDefinite` instead of being silently
    repaired.  The defaults tolerate round-off without masking genuine
    indefiniteness.
    """

    floor_eps: float = 1e-12
    negativity_tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 <= self.floor_eps < np.inf and 0.0 <= self.negativity_tol < np.inf):
            raise ValueError("PsdPolicy coefficients must be finite and nonnegative")


DEFAULT_POLICY = PsdPolicy()


def _halved(s: np.ndarray) -> np.ndarray:
    # A + A*, halved as reals: a complex 0.5 would turn a -0.0 into +0.0.
    if not np.iscomplexobj(s):
        return 0.5 * s
    for part in (s.real, s.imag):
        part *= 0.5
    return s


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return ``(A + A*) / 2``, batched over leading axes."""
    return _halved(a + np.conj(np.swapaxes(a, -1, -2)))


def _refuse_asymmetric(a, what: str) -> np.ndarray:
    # The one symmetry rule; returns the Hermitian part it measured, C-ordered
    # and bitwise hermitian_part(a).  ``not res <= SYMMETRY_TOL`` also refuses
    # a NaN residual.  Below 2**1023 two entries' sum is finite, so the
    # Hermitian part is too.
    a = np.asarray(a)
    s = np.conj(np.swapaxes(a, -1, -2), order="C")
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is the NaN we want
        top = float(np.max(np.abs(a)))
        res = float(np.max(np.abs(a - s))) / top if top else 0.0
    if not res <= SYMMETRY_TOL:
        raise NonHermitianInput(
            f"{what} has symmetry residual {res:.3e} (tolerance {SYMMETRY_TOL:.1e})")
    if top >= 2.0**1023:
        raise NonHermitianInput(f"{what} has an entry of magnitude {top:.6e}, at or above "
                                "2**1023, so its Hermitian part overflows")
    s += a
    return _halved(s)


def _refuse_indefinite(w, policy: PsdPolicy, what: str, shift=0) -> None:
    # The one per-matrix negativity rule: each lowest eigenvalue against
    # -negativity_tol times the largest magnitude, at an end of the ascending
    # w, so elementwise.  NaN fails.  Messages show w * 4**shift.
    bounds = policy.negativity_tol * np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))
    lo = w[..., 0]
    if not np.all(lo >= -bounds):
        k = int(np.argmin(lo + bounds))
        label = f"{what} {k}" if lo.ndim else what
        lo, bounds = (np.ldexp(x, 2 * shift) for x in (lo, bounds))
        raise NotPositiveDefinite(
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


def sqrt_psd_many(values: np.ndarray, policy: PsdPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Principal square roots of a stack of Hermitian PSD matrices.

    Eigenvalues below ``floor_eps`` times each matrix's largest eigenvalue
    are lifted to that floor first, so each root squares back to the
    floored matrix.  Input shape ``(..., m, m)``; symmetry is not
    re-validated here.

    Raises
    ------
    NotPositiveDefinite
        If an eigenvalue falls below the policy's negativity band.
    """
    w, v = np.linalg.eigh(values)
    _refuse_indefinite(w, policy, "matrix")
    floors = policy.floor_eps * np.maximum(w[..., -1], 0.0)
    scaled = v * np.sqrt(np.maximum(w, floors[..., None]))[..., None, :]
    return scaled @ np.swapaxes(np.conj(v, out=v), -1, -2)  # v conjugated in place


def _eig_scaled_2x2(h):
    # Each 2x2 matrix's entries h00, h11, Re h01 and Im h01 times 4**-k,
    # with k per matrix such that the largest lands in [1/2, 2) (exact, a
    # power of two, and no product below can overflow or needlessly
    # underflow); the eigenvalues of those scaled matrices in ascending
    # order; and k.  The eigenvalue of larger magnitude is mean +- radius
    # with no cancellation; the other is det over it, never a difference
    # of nearby numbers.  The zero matrix gets two zeros.
    parts = (h[..., 0, 0].real, h[..., 1, 1].real, h[..., 0, 1].real, h[..., 0, 1].imag)
    k = np.frexp(np.max(np.abs(parts), axis=0))[1] // 2
    a, d, br, bi = (np.ldexp(p, -2 * k) for p in parts)
    mean = 0.5 * (a + d)
    half_gap = 0.5 * (a - d)
    radius = np.sqrt(half_gap * half_gap + br * br + bi * bi)
    det = a * d - (br * br + bi * bi)
    big = np.where(mean >= 0.0, mean + radius, mean - radius)
    small = np.divide(det, big, out=np.zeros_like(big), where=big != 0.0)
    return (a, d, br, bi), np.minimum(small, big), np.maximum(small, big), k


def _eigvalsh(h) -> np.ndarray:
    """Eigenvalues, ascending, as ``(..., m)``, of a stack of Hermitian
    matrices: ``eigvalsh``, or at m = 2 the closed form."""
    if h.shape[-1] != 2:
        return np.linalg.eigvalsh(h)
    _, lo, hi, k = _eig_scaled_2x2(h)
    return np.ldexp(np.stack([lo, hi], axis=-1), 2 * k[..., None])


def _psd_root_2x2(eig) -> np.ndarray:
    """Principal roots, from the closed form ``eig = _eig_scaled_2x2(h)``,
    of a stack ``h`` of Hermitian matrices that are positive definite, or
    singular but not zero: ``(H + sqrt(det H) I) / sqrt(tr H + 2 sqrt(det
    H))``, with ``sqrt(det H) = sqrt(w0) sqrt(w1)`` and ``sqrt(tr H + 2
    sqrt(det H)) = sqrt(w0) + sqrt(w1)`` from the eigenvalues.  Exactly
    Hermitian."""
    (a, d, br, bi), lo, hi, k = eig
    lo, hi = np.sqrt(lo), np.sqrt(hi)
    s, t = lo * hi, lo + hi
    root = np.empty(np.shape(a) + (2, 2), dtype=complex)
    root[..., 0, 0] = np.ldexp((a + s) / t, k)
    root[..., 1, 1] = np.ldexp((d + s) / t, k)
    off = root[..., 0, 1]
    off.real = np.ldexp(br / t, k)
    off.imag = np.ldexp(bi / t, k)
    root[..., 1, 0] = np.conj(off)
    return root


def _nothing_to_floor(rows, policy: PsdPolicy) -> bool:
    """Whether Hermitian rows ``(n, m, m)``, m other than 2, have nothing to
    floor or refuse: true when, with ``tau`` the largest ``Re tr`` and ``t =
    2 max(floor_eps, 2**-36) tau``, each ``row - t I`` has a Cholesky factor
    ``L``.  Then ``row - t I + E`` is positive definite for some ``|E| <=
    gamma_{m+1} |L| |L*|`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., Thm 10.3): each row's eigenvalues lie in ``[t -
    O(m^2 eps tau), tau]``, so its smallest clears ``floor_eps`` times the
    grid's largest by ``2**-36 tau`` less that round-off, far beyond
    ``eigvalsh``'s, and the floor pass would floor and refuse nothing."""
    m = rows.shape[-1]
    with np.errstate(over="ignore"):  # an infinite tau fails the gate
        tau = float(np.max(np.trace(rows, axis1=-2, axis2=-1).real))
    try:
        np.linalg.cholesky(rows - np.diag(np.full(m, 2.0 * max(policy.floor_eps, 2.0**-36) * tau)))
    except np.linalg.LinAlgError:
        return False
    return tau > 0.0


def _floored_rows(rows, policy: PsdPolicy, name: str):
    """The grid-wide definiteness rule on Hermitian rows ``(n, m, m)``, as
    the symmetry rule returns them: the rows, floored, and the mask of
    floored rows.  Against the grid's largest eigenvalue, a grid with no
    positive mass or an eigenvalue below ``-negativity_tol`` times it raises
    ``NotPositiveDefinite``; one below ``floor_eps`` times it is lifted to
    that floor.  One pass decides on the eigenvalues of :func:`_eigvalsh`,
    and ``eigh`` rebuilds the rows the floor lifts; past m = 2 a grid that
    passes :func:`_nothing_to_floor` skips it, and at m = 2 the closed form
    is the pass and needs no gate."""
    if rows.shape[-1] != 2 and _nothing_to_floor(rows, policy):
        return rows, np.zeros(len(rows), dtype=bool)
    w = _eigvalsh(rows)
    scale = float(w.max())
    if scale <= 0.0:
        raise NotPositiveDefinite(f"{name} has no positive eigenvalue mass; cannot floor")
    neg_bound = policy.negativity_tol * scale
    worst = float(w.min())
    if worst < -neg_bound:
        idx = int(np.argmin(w[:, 0]))
        raise NotPositiveDefinite(
            f"{name} is indefinite at frequency index {idx}: eigenvalue "
            f"{worst:.6e} below the tolerated band -{neg_bound:.3e}"
        )
    floor = policy.floor_eps * scale
    floored = w[:, 0] < floor
    if floored.any():
        wl, v = np.linalg.eigh(rows[floored])
        fixed = (v * np.maximum(wl, floor)[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))
        rows[floored] = hermitian_part(fixed)
    return rows, floored


def _roots(values, policy: PsdPolicy = PsdPolicy(floor_eps=0.0)) -> np.ndarray:
    """Principal roots of Hermitian PSD matrices: the closed form at m = 2
    when every one is positive definite, else :func:`sqrt_psd_many`, by
    default with no further floor, as for a grid that build floored."""
    if values.shape[-1] == 2:
        eig = _eig_scaled_2x2(values)
        if np.all(eig[1] > 0.0):
            return _psd_root_2x2(eig)
    return sqrt_psd_many(values, policy)


def _matmul(a, b) -> np.ndarray:
    """``a @ b``, batched and broadcast over leading axes: at m = 2 entry by
    entry, ``a[i, 0] b[0, j] + a[i, 1] b[1, j]``, elementwise in place of a
    product per matrix; at other m, one GEMM on the rows of ``a`` for a 2-D ``b``."""
    if b.ndim == 2 and b.shape != (2, 2):  # bitwise the batched product
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])
    if not a.shape[-2:] == b.shape[-2:] == (2, 2):
        return a @ b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    for i in range(2):
        for j in range(2):
            out[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    return out


def _norm1(x) -> np.ndarray:
    """Each matrix's 1-norm, its largest absolute column sum; elementwise at m = 2."""
    if x.shape[-1] != 2:
        return np.linalg.norm(x, 1, axis=(-2, -1))
    c = np.abs(x)
    return np.maximum(c[..., 0, 0] + c[..., 1, 0], c[..., 0, 1] + c[..., 1, 1])


def _inv(a) -> np.ndarray:
    """Inverses of a stack of square matrices: ``np.linalg.inv``, or at m = 2
    the adjugate over the determinant of each matrix scaled by ``2**-k`` to
    a 1-norm in [1/2, 1), then by ``2**-k`` again.  Either raises
    ``LinAlgError`` on an exactly singular matrix."""
    if a.shape[-1] != 2:
        return np.linalg.inv(a)
    scale = np.ldexp(1.0, -np.frexp(_norm1(a))[1])[..., None, None]
    s = a * scale
    det = s[..., :1, :1] * s[..., 1:, 1:] - s[..., :1, 1:] * s[..., 1:, :1]
    if not det.all():
        raise np.linalg.LinAlgError("Singular matrix")
    return np.swapaxes(s[..., ::-1, ::-1], -1, -2) * [[1, -1], [-1, 1]] / det * scale


def _scale_down(x) -> np.ndarray:
    # Scale each matrix of x in place by 4**-k so its largest entry is in
    # [1/2, 2).  At m = 2 that entry is found elementwise, not by a reduction.
    a = np.abs(x)
    if a.shape[-1] == 2:
        a = np.maximum(a[..., 0, :], a[..., 1, :])
        a = np.maximum(a[..., 0], a[..., 1])
    else:
        a = np.max(a, axis=(-2, -1))
    k = np.frexp(a)[1] // 2
    for part in (x.real, x.imag) if np.iscomplexobj(x) else (x,):
        np.ldexp(part, -2 * k[..., None, None], out=part)
    return k


def coupling_trace(factor, b, policy: PsdPolicy = DEFAULT_POLICY) -> np.ndarray:
    """``tr[(A^{1/2} B A^{1/2})^{1/2}]`` for ``A = F F*``, from any factor
    ``F``, batched over leading axes: the sum of the square roots of the
    eigenvalues of ``F* B F``, which has those of ``A^{1/2} B A^{1/2}`` and,
    as a congruence, the sign pattern of ``B``, so an indefinite ``B``
    raises :class:`~specdist.errors.NotPositiveDefinite` here.  ``F*`` and then
    ``F* B`` are scaled per matrix by powers of four, and the sum back, so
    no product over- or underflows and ordinary inputs keep their bits.
    ``factor`` is dropped once ``F* B F`` is formed: one passed inline is
    freed before the symmetrization allocates two more of its size."""
    left = np.conj(np.swapaxes(factor, -1, -2))
    p = _scale_down(left)
    left = _matmul(left, b)
    r = _scale_down(left)
    h = _matmul(left, factor)
    del left, factor  # a factor passed inline is freed here, before the peak
    h = hermitian_part(h)
    w = _eigvalsh(h)
    del h  # grid-sized, so not held through the rule and the sum
    _refuse_indefinite(w, policy, "coupling matrix", shift=p + r)
    return np.ldexp(np.sum(np.sqrt(np.maximum(w, 0.0)), axis=-1), p + r)


def _factors(a, policy: PsdPolicy) -> np.ndarray:
    """A factor ``F F* = A`` of one matrix or each of a stack: at m other than
    2 the Cholesky factor (``A`` taken as given, without the policy floor)
    when every matrix has one, else the roots of :func:`_roots` under the policy."""
    if a.shape[-1] != 2:
        try:
            return np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            pass
    return _roots(a, policy)


def _integrand(a, b, policy: PsdPolicy, hellinger: bool = False) -> tuple:
    """The per-matrix integrand of a matrix pair or of stacks, the gap
    ``tr[(A^{1/2} B A^{1/2})^{1/2}] - tr[A^{1/2} B^{1/2}]`` (None for
    transport), and ``(tr A, tr B)``.  Transport couples :func:`_factors` of
    ``A`` with ``B``; Hellinger couples ``A``'s root, then forms ``B``'s.  The
    round-off rule, against ``tr A + tr B``, clamps the transport value and
    guards the gap, which is returned unclamped."""
    traces = tuple(np.trace(x, axis1=-2, axis2=-1).real for x in (a, b))
    scale = traces[0] + traces[1]
    ra = _roots(a) if hellinger else None
    # A transport factor is passed inline, never bound here, so the kernel frees it.
    tsp = coupling_trace(_factors(a, policy) if ra is None else ra, b, policy)
    value = _clamp_round_off(scale - 2.0 * tsp, scale, "transport trace")
    if not hellinger:
        return value, None, traces
    rb = _roots(b)
    gap = tsp - np.einsum("...ij,...ji->...", ra, rb).real
    _clamp_round_off(gap, scale, "coupling-trace gap")
    return np.sum(np.abs(ra - rb) ** 2, axis=(-2, -1)), gap, traces


def bures_w2_squared(a, b, policy: PsdPolicy = DEFAULT_POLICY) -> float:
    """``tr[A + B - 2 (A^{1/2} B A^{1/2})^{1/2}]``, the squared quadratic
    coupling cost between zero-mean laws with scatter matrices ``A`` and
    ``B``: the grid distances' transport integrand at one pair.  Each
    operand passes the symmetry rule, and their Hermitian parts are coupled,
    as a grid's rows are.  A value down to ``-NEGATIVE_BAND * (tr A + tr B)``
    is clamped to zero; a lower one raises
    :class:`~specdist.errors.NegativeDistance`.

    Raises
    ------
    DimensionMismatch
        If an operand is not square, or the shapes differ.
    NonHermitianInput
        If either operand fails the symmetry rule.
    NotPositiveDefinite
        If either operand is indefinite beyond the policy band.
    """
    parts = []
    for x, what in ((a, "first operand"), (b, "second operand")):
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] < 1:
            raise DimensionMismatch(f"{what} must be square, got shape {x.shape}")
        parts.append(_refuse_asymmetric(x, what))
    a, b = parts
    if a.shape != b.shape:
        raise DimensionMismatch(f"operand shapes differ: {a.shape} vs {b.shape}")
    return float(_integrand(a, b, policy)[0])
