"""Unit tests for the dense Hermitian kernel."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import specdist.hermitian
from conftest import count_eigensolves, factored_trace, random_pd, sqrt_psd, tsp_reference
from specdist.errors import (
    DimensionMismatch,
    NegativeDistance,
    NonHermitianInput,
    NotPositiveDefinite,
)
from specdist.hermitian import (
    DEFAULT_POLICY,
    PsdPolicy,
    _eig_scaled_2x2,
    _eigvalsh,
    _inv,
    _matmul,
    _norm1,
    _refuse_asymmetric,
    _roots,
    bures_w2_squared,
    coupling_trace,
    hermitian_part,
    sqrt_psd_many,
)
from specdist.spectra import GridSpectrum


def test_policy_validation():
    assert DEFAULT_POLICY == PsdPolicy(1e-12, 1e-10)
    with pytest.raises(ValueError):
        PsdPolicy(floor_eps=-1.0)
    with pytest.raises(ValueError):
        PsdPolicy(negativity_tol=-1e-3)
    # NaN fails every comparison, so a bare ``< 0`` test would let it through.
    for bad in (float("nan"), float("inf"), -float("inf")):
        for kwargs in ({"floor_eps": bad}, {"negativity_tol": bad}):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                PsdPolicy(**kwargs)


def test_hermitian_part_and_residual():
    # One tolerance, 1e-8 of the largest entry: half of it passes, twice fails.
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = hermitian_part(a)
    _refuse_asymmetric(h, "h")
    kick = np.zeros((3, 3))
    kick[0, 1] = np.max(np.abs(h))
    _refuse_asymmetric(h + 0.5e-8 * kick, "h")
    refusal = r"h has symmetry residual 2\.0\d*e-08 \(tolerance 1\.0e-08\)"
    with pytest.raises(NonHermitianInput, match=refusal):
        _refuse_asymmetric(h + 2e-8 * kick, "h")
    with pytest.raises(NonHermitianInput, match="symmetry residual"):
        _refuse_asymmetric(a, "a")
    _refuse_asymmetric(np.zeros((2, 2)), "zero")  # residual 0, not 0/0


def signed_zero_stacks():
    """Real and complex stacks at m = 1, 2, 3 and 8 and single matrices,
    Hermitian to round-off or not at all, with imaginary parts of +0.0 and
    -0.0 among them."""
    rng = np.random.default_rng(11)
    for m in (1, 2, 3, 8):
        for shape in ((m, m), (5, m, m)):
            x = rng.standard_normal(shape)
            y = rng.standard_normal(shape)
            near = x + np.swapaxes(x, -1, -2) * (1.0 + 1e-14)
            yield x
            yield near
            yield x + 1j * y
            yield near + 1j * (y - np.swapaxes(y, -1, -2))
            for base in (x, near):
                c = base.astype(complex)
                c.imag = np.copysign(0.0, rng.standard_normal(shape))  # not 1j * zeros
                yield c


def residual(a):
    """The symmetry residual ``max|A - A*| / max|A|``, computed here."""
    return np.max(np.abs(a - np.conj(np.swapaxes(a, -1, -2)))) / np.max(np.abs(a))


def test_symmetry_rule_returns_the_hermitian_part_bitwise():
    # The rule forms A* once and returns (A + A*) / 2 from it: the same
    # bits, signed zeros included, as hermitian_part, and C-ordered like it.
    # A stack Hermitian only to within O(1) is refused.
    accepted, refused = [], 0
    for a in signed_zero_stacks():
        if residual(a) > 1e-8:
            with pytest.raises(NonHermitianInput, match="symmetry residual"):
                _refuse_asymmetric(a, "a")
            refused += 1
            continue
        got = _refuse_asymmetric(a, "a")
        want = hermitian_part(a)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        accepted.append(a)
    # Of six per shape: all but x + iy at m = 1, the three near ones past it.
    assert (len(accepted), refused) == (2 * 5 + 3 * 2 * 3, 3 * 2 * 3 + 2 * 1)
    assert any(np.iscomplexobj(c) and np.signbit(c.imag).any() and (c.imag == 0).all()
               and c.shape[-1] > 1 for c in accepted)


def test_bures_refuses_bad_operands():
    # Each operand must be one square matrix, Hermitian to the one
    # tolerance; a refusal names the operand, and then the shapes must match.
    for bad in (np.zeros((2, 3)), np.zeros((3,)), np.zeros((2, 2, 2)), np.zeros((0, 0))):
        with pytest.raises(DimensionMismatch, match="first operand must be square"):
            bures_w2_squared(bad, np.eye(2))
        with pytest.raises(DimensionMismatch, match="second operand must be square"):
            bures_w2_squared(np.eye(2), bad)
    bad = np.eye(2) + np.array([[0.0, 1e-6], [0.0, 0.0]])
    with pytest.raises(NonHermitianInput, match=r"first operand has symmetry residual 1\.000e-06"):
        bures_w2_squared(bad, np.eye(2))
    with pytest.raises(NonHermitianInput, match=r"second operand has symmetry residual 1\.000e-06"):
        bures_w2_squared(np.eye(2), bad)
    with pytest.raises(DimensionMismatch, match="operand shapes differ"):
        bures_w2_squared(np.eye(2), np.eye(3))


@pytest.mark.parametrize("m", [2, 8])
def test_bures_couples_the_hermitian_parts(m):
    # Operands Hermitian to about 1e-10, within the tolerance the grid rows
    # pass, are accepted and coupled as their Hermitian parts, bitwise.
    rng = np.random.default_rng(m)
    a, b = (random_pd(m, rng, complex_=True) for _ in range(2))
    kick = 1e-10 * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    a, b = a + kick, b - kick.T
    for x in (a, b):
        assert 1e-11 < residual(x) < 1e-9
    value = bures_w2_squared(a, b)
    assert value == bures_w2_squared(hermitian_part(a), hermitian_part(b))
    assert value == bures_w2_squared(a, b.T.conj())  # B and B* share their Hermitian part


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_non_finite_input_refused(bad, where):
    # A non-finite entry makes the symmetry residual NaN, which the
    # residual check must refuse rather than compare as "not too large".
    a = np.eye(2)
    a[where] = a[where[::-1]] = bad
    with pytest.raises(NonHermitianInput, match="symmetry residual nan"):
        _refuse_asymmetric(a, "a")
    with pytest.raises(NonHermitianInput):
        sqrt_psd(a)
    for pair in ((a, np.eye(2)), (np.eye(2), a)):
        with pytest.raises(NonHermitianInput):
            bures_w2_squared(*pair)


def test_sqrt_psd_trivial_cases():
    assert np.allclose(sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)
    assert np.allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


@pytest.mark.parametrize("m,complex_", [(4, False), (3, True)])
def test_sqrt_psd_squaring_roundtrip(m, complex_):
    a = random_pd(m, np.random.default_rng(m), complex_=complex_)
    s = sqrt_psd(a)
    assert residual(s) <= 1e-12
    err = np.linalg.norm(s @ s - a) / np.linalg.norm(a)
    assert err <= 1e-9


def test_sqrt_psd_matches_scipy():
    a = random_pd(5, np.random.default_rng(42))
    assert np.allclose(sqrt_psd(a), scipy.linalg.sqrtm(a), atol=1e-10)


def test_sqrt_psd_floors_tiny_negative():
    # A -1e-13 eigenvalue sits inside the default negativity band and is
    # lifted to the relative floor instead of raising.
    s = sqrt_psd(np.diag([1.0, -1e-13]))
    assert abs(s[0, 0] - 1.0) <= 1e-12
    assert abs(s[1, 1] - 1e-6) <= 1e-8


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        sqrt_psd(np.diag([1.0, -1e-3]))
    stack = np.stack([np.eye(2), np.diag([1.0, -1e-3])]).astype(complex)
    with pytest.raises(NotPositiveDefinite):
        sqrt_psd_many(stack)


def test_sqrt_psd_many_matches_single():
    rng = np.random.default_rng(17)
    stack = np.stack([random_pd(3, rng, complex_=True) for _ in range(5)])
    batched = sqrt_psd_many(stack)
    for k in range(5):
        assert np.allclose(batched[k], sqrt_psd(stack[k]), atol=1e-12)


def test_trace_sqrt_product_trivial_cases():
    assert abs(factored_trace(np.eye(2), np.eye(2)) - 2.0) <= 1e-12
    assert abs(factored_trace([[4.0]], [[9.0]]) - 6.0) <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 8])
def test_trace_sqrt_product_paths_agree(m):
    rng = np.random.default_rng(100 + m)
    pairs = [
        (random_pd(m, rng, complex_=True), random_pd(m, rng, complex_=True))
        for _ in range(10)
    ]
    a_stack = np.stack([a for a, _ in pairs])
    b_stack = np.stack([b for _, b in pairs])
    kernel = coupling_trace(sqrt_psd_many(a_stack), b_stack)
    assert kernel.shape == (10,)
    for k, (a, b) in enumerate(pairs):
        sandwich = factored_trace(a, b)
        product = tsp_reference(a, b)
        assert abs(sandwich - product) <= 1e-8 * sandwich
        assert abs(kernel[k] - product) <= 1e-8 * product


def test_bures_w2_squared_validations():
    # The operand checks are the single-matrix API's: non-square, asymmetric
    # and mismatched operands are refused before any coupling.
    with pytest.raises(DimensionMismatch, match="differ"):
        bures_w2_squared(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatch, match="square"):
        bures_w2_squared(np.ones((2, 3)), np.eye(2))
    with pytest.raises(NonHermitianInput, match="^second operand"):
        bures_w2_squared(np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    # An indefinite B is refused on the closed-form root of A, and on the
    # floored root that a singular A takes; the message gives the eigenvalue
    # of F* B F, not of the kernel's scaled copy.
    for a in (np.eye(2), np.diag([0.0, 1.0])):
        with pytest.raises(NotPositiveDefinite,
                           match=r"^coupling matrix has eigenvalue -2\.000000e\+00 "):
            bures_w2_squared(a, np.diag([1.0, -2.0]))


def singular_psd(m, rng, complex_=False):
    """PSD matrix whose first row and column are exactly zero.

    Cholesky meets an exactly zero first pivot and raises.  The zero also
    survives every eigensolver exactly (the first column needs no
    reflection), so neither the root path nor the product reference rounds
    it to a tiny eigenvalue whose square root would be ~1e-8.
    """
    a = np.zeros((m, m), dtype=complex if complex_ else float)
    a[1:, 1:] = random_pd(m - 1, rng, complex_=complex_)
    return a


def bures_reference(a, b):
    return float(np.trace(a).real + np.trace(b).real) - 2.0 * tsp_reference(a, b)


@pytest.mark.parametrize("complex_", [False, True])
def test_bures_root_fallback_on_singular_first_operand(monkeypatch, complex_):
    rng = np.random.default_rng(61)
    a, b = singular_psd(4, rng, complex_), random_pd(4, rng, complex_=complex_)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(a)
    # Without a floor, the root of the singular A is exact.
    unfloored = PsdPolicy(floor_eps=0.0)
    tsp, ref = tsp_reference(a, b), bures_reference(a, b)
    assert abs(factored_trace(a, b, unfloored) - tsp) <= 1e-12 * tsp
    assert abs(bures_w2_squared(a, b, unfloored) - ref) <= 1e-12 * ref
    # The default policy lifts A's zero eigenvalue to floor_eps times its
    # largest; the reference's tiny product eigenvalue then carries ~1e-10.
    lifted = a.copy()
    lifted[0, 0] = DEFAULT_POLICY.floor_eps * np.linalg.eigvalsh(a)[-1]
    ref_lifted = bures_reference(lifted, b)
    choleskys = []
    calls = count_eigensolves(monkeypatch, choleskys)
    assert abs(bures_w2_squared(a, b) - ref_lifted) <= 1e-8 * ref_lifted
    # One eigh for the root of A, one eigvalsh for the coupling of the
    # single matrix A^{1/2} the kernel is handed.
    assert choleskys == [(4, 4)] and calls == [(4, 4), (4, 4)]


def test_bures_cholesky_path_on_complex_pair(monkeypatch):
    rng = np.random.default_rng(62)
    a, b = random_pd(5, rng, complex_=True), random_pd(5, rng, complex_=True)
    choleskys = []
    calls = count_eigensolves(monkeypatch, choleskys)
    got = bures_w2_squared(a, b)
    assert choleskys == [(5, 5)] and calls == [(5, 5)]
    tsp, ref = tsp_reference(a, b), bures_reference(a, b)
    assert abs(got - ref) <= 1e-12 * ref
    assert abs(factored_trace(a, b) - tsp) <= 1e-12 * tsp


def test_bures_frees_the_factor_before_the_symmetrization():
    # The Cholesky factor is dropped once L* B L is formed, so the peak is
    # the two Hermitian parts the symmetry rule returns and three matrices
    # of the input's size (the congruence, its symmetrized sum and its
    # half); holding the factor through it would make six.
    rng = np.random.default_rng(63)
    a, b = random_pd(600, rng), random_pd(600, rng)
    bures_w2_squared(a, b)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bures_w2_squared(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / a.nbytes <= 5.1


def test_bures_trivial_cases():
    a = random_pd(3, np.random.default_rng(8))
    assert bures_w2_squared(a, a) <= 1e-10 * np.trace(a).real
    assert abs(bures_w2_squared([[1.0]], [[4.0]]) - 1.0) <= 1e-12


def test_bures_symmetry_and_nonnegativity():
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = random_pd(2, rng, complex_=True)
        b = random_pd(2, rng, complex_=True)
        ab = bures_w2_squared(a, b)
        ba = bures_w2_squared(b, a)
        scale = np.trace(a).real + np.trace(b).real
        assert ab >= 0.0
        assert abs(ab - ba) <= 1e-9 * scale


def test_bures_commuting_collapse():
    # Shared eigenbasis: the cost collapses to the Frobenius gap of roots.
    rng = np.random.default_rng(33)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(g)
    la = rng.uniform(0.5, 3.0, 4)
    lb = rng.uniform(0.5, 3.0, 4)
    a = hermitian_part((q * la) @ np.conj(q.T))
    b = hermitian_part((q * lb) @ np.conj(q.T))
    val = bures_w2_squared(a, b)
    frob = np.linalg.norm(sqrt_psd(a) - sqrt_psd(b)) ** 2
    assert abs(val - frob) <= 1e-9 * frob


def test_bures_negative_band_guard(monkeypatch):
    # With the round-off band collapsed to zero, the sign of machine noise
    # in bures(A, A) trips the guard for some seeds; at least one of these
    # ten must raise (four do on the reference setup).
    monkeypatch.setattr(specdist.hermitian, "NEGATIVE_BAND", 0.0)
    raised = 0
    for seed in range(10):
        a = random_pd(4, np.random.default_rng(seed))
        try:
            bures_w2_squared(a, a)
        except NegativeDistance:
            raised += 1
    assert raised >= 1


#: A generated 2x2 row: its kind, rotation and phase, the ratio of its
#: eigenvalues lo / hi, hi relative to the stack's scale, and a diagonal
#: row's zero off-diagonal parts.  Against the grid's largest eigenvalue every lo lands at least a
#: factor of five away from the floor (1e-12) and the negativity band
#: (-1e-10), so both paths must take the same decisions: cond up to 1e11
#: kept, 1e13, 0 and -1e-12 floored, -1e-9 and -1 refused.
ROWS_2X2 = st.tuples(
    st.sampled_from(["complex", "real", "diagonal", "zero"]),
    st.floats(0.0, np.pi / 2),
    st.floats(-np.pi, np.pi),
    st.one_of(st.floats(-11.0, 0.0).map(lambda x: 10.0**x),
              st.sampled_from([1.0, 1e-13, 0.0, -1e-12, -1e-9, -1.0])),
    st.floats(0.5, 1.0),
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([0.0, -0.0]),
)


@st.composite
def stacks_2x2(draw, max_exp, size=None):
    """A stack of 1-6 (or ``size``) Hermitian 2x2 matrices ``U diag(lo, hi)
    U*`` times ``2**e``, ``|e| <= max_exp``: complex, real (``+0`` imaginary
    parts), diagonal with signed-zero off-diagonal entries, or zero."""
    e = draw(st.integers(-max_exp, max_exp))
    rows = []
    sizes = dict(min_size=size, max_size=size) if size else dict(min_size=1, max_size=6)
    for kind, theta, phi, ratio, hi, zr, zi in draw(st.lists(ROWS_2X2, **sizes)):
        c, s = np.cos(theta), np.sin(theta)
        z = np.exp(1j * phi) if kind == "complex" else np.sign(phi) or 1.0
        u = np.array([[c, -s * np.conj(z)], [s * z, c]])
        h = (u * [ratio * hi, hi]) @ np.conj(u.T) * (kind != "zero")
        if kind == "real":
            h = h.real.astype(complex)
        if kind == "diagonal":
            h = np.diag([ratio * hi, hi][:: 1 if theta < 0.7 else -1]).astype(complex)
            h[0, 1], h[1, 0] = complex(zr, zi), complex(zr, -zi)
        h[1, 0] = np.conj(h[0, 1])
        h[0, 0], h[1, 1] = h[0, 0].real, h[1, 1].real
        rows.append(h)
    h = np.array(rows)
    return np.ldexp(h.real, e) + 1j * np.ldexp(h.imag, e) if e else h


def build_outcome(h):
    """``GridSpectrum.build(h)`` and its flooring count, or None and the
    refused frequency index (-1 for a grid with no positive mass)."""
    try:
        spec = GridSpectrum.build(h)
    except NotPositiveDefinite as exc:
        index = re.search(r"frequency index (\d+)", str(exc))
        return None, int(index.group(1)) if index else -1
    return spec, spec.flooring_count


def general_outcome(h, policy=DEFAULT_POLICY):
    """The build's decisions on eigh's eigenvalues: the flooring count, or
    the refused frequency index as in ``build_outcome``."""
    w = np.linalg.eigvalsh(h)
    scale = w.max()
    if scale <= 0.0:
        return -1
    if w.min() < -policy.negativity_tol * scale:
        return int(np.argmin(w[:, 0]))
    return int(np.count_nonzero(w[:, 0] < policy.floor_eps * scale))


@st.composite
def coupled_stacks_2x2(draw):
    """Two stacks of one size at scales up to ``2**500``, so that their
    coupling's products stay in range."""
    hx = draw(stacks_2x2(500))
    return hx, draw(stacks_2x2(500, len(hx)))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(stacks_2x2(1000), coupled_stacks_2x2())
def test_closed_form_2x2_matches_the_general_path(h, pair):
    hx, hy = pair
    # The closed form against LAPACK at m = 2: eigenvalues; the build's
    # decisions, and the root of each grid it makes; the coupling trace,
    # on stacks whose products stay in range, and its refusal.
    eps = np.finfo(float).eps
    for stack in (h, hx, hy):
        w, ref = _eigvalsh(stack), np.linalg.eigvalsh(stack)
        assert np.all(np.abs(w - ref) <= 8 * eps * np.max(np.abs(ref), axis=-1, keepdims=True))
        # A diagonal matrix's small eigenvalue is det / big, so it keeps
        # its relative accuracy; a difference would cancel.
        diag = stack[:, 0, 1] == 0.0
        exact = np.sort(stack[diag][:, [0, 1], [0, 1]].real, axis=-1)
        assert np.all(np.abs(w[diag] - exact) <= 2 * eps * np.abs(exact))
        spec, outcome = build_outcome(stack)
        assert outcome == general_outcome(stack)
        if spec is not None:
            values = spec.full()
            root = _roots(values)
            residual = np.max(np.abs(root @ root - values))
            assert residual <= 16 * eps * spec.extreme_eigenvalues()[1]
    x = build_outcome(hx)[0]
    if x is None:
        return
    root = _roots(x.full())
    congruence = hermitian_part(root @ hy @ root)
    ref = np.linalg.eigvalsh(congruence)
    bound = DEFAULT_POLICY.negativity_tol * np.max(np.abs(ref), axis=-1)
    try:
        got = coupling_trace(root, hy)
    except NotPositiveDefinite:
        got = None
    if np.all(ref[:, 0] >= -bound):
        # Each path forms and decomposes the congruence to a backward error
        # of about delta = eps |A| |B| (which bounds max |w|), so each
        # eigenvalue w_i moves by delta and its root by at most
        # min(sqrt(delta), delta / sqrt(w_i)) = delta / sqrt(max(w_i, delta)).
        w = np.maximum(ref, 0.0)
        size = np.linalg.eigvalsh(x.full())[:, -1] * np.max(np.abs(np.linalg.eigvalsh(hy)), -1)
        delta = 8 * eps * size[:, None] + np.finfo(float).smallest_subnormal  # > 0 on zero rows
        slack = np.sum(delta / np.sqrt(np.maximum(w, delta)), axis=-1)
        assert got is not None and np.all(np.abs(got - np.sum(np.sqrt(w), axis=-1)) <= slack)
    elif np.all(np.abs(ref[:, 0] + bound) > 1e-6 * bound):
        # Refused, unless a row sits at the band edge to round-off.
        assert got is None


def scaled_parts(shape):
    """Floats of ``shape`` that are 0 or +-[1, 2) times ``2**e``, ``|e| <=
    500``: every product of two is a normal number or zero."""
    mantissas = st.one_of(st.just(0.0), st.floats(1.0, 2.0, exclude_max=True),
                          st.floats(-2.0, -1.0, exclude_min=True))
    return st.tuples(hnp.arrays(float, shape, elements=mantissas),
                     hnp.arrays(np.int64, shape, elements=st.integers(-500, 500)),
                     ).map(lambda parts: np.ldexp(*parts))


@st.composite
def product_operands(draw):
    """A complex stack ``(1-4, m, m)``, another of its shape, and a real
    ``(m, m)`` matrix that broadcasts against it."""
    m = draw(st.sampled_from([1, 2, 2, 3, 8]))
    shape = (draw(st.integers(1, 4)), m, m)
    a, b = (draw(scaled_parts(shape)) + 1j * draw(scaled_parts(shape)) for _ in range(2))
    return a, b, draw(scaled_parts((m, m)))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(product_operands())
def test_products_match_matmul(operands):
    # At m = 2 the entry-by-entry product agrees with ``@`` to round-off in
    # the entry's own scale; at every other m it is ``@``, bit for bit.
    a, b, q = operands
    eps = np.finfo(float).eps
    for right in (b, q):
        got, want = _matmul(a, right), a @ right
        assert got.shape == want.shape and got.dtype == want.dtype
        if a.shape[-1] == 2:
            assert np.all(np.abs(got - want) <= 4 * eps * (np.abs(a) @ np.abs(right)))
        else:
            assert got.tobytes() == want.tobytes()


@st.composite
def invertible_stacks_2x2(draw):
    """A stack of 1-6 real or complex 2x2 matrices whose parts are 0 or
    +-[1/2, 2) times ``2**e``, ``|e| <= 6``, with a nonzero diagonal and a
    1-norm condition number of at most 1e12, and a scale ``2**k``, ``|k| <=
    900``, for the stack, beyond which products of its entries overflow or
    underflow unless each matrix is scaled first."""
    mantissas = st.floats(0.5, 2.0, exclude_max=True).flatmap(
        lambda x: st.sampled_from([x, -x]))
    parts = st.tuples(hnp.arrays(float, (4,), elements=mantissas),
                      hnp.arrays(np.int64, (4,), elements=st.integers(-6, 6)),
                      st.lists(st.booleans(), min_size=4, max_size=4),
                      ).map(lambda p: np.ldexp(p[0], p[1]) * (np.array(p[2]) | [1, 0, 0, 1]))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        a = draw(parts).reshape(2, 2).astype(complex)
        if draw(st.booleans()):
            a += 1j * draw(parts).reshape(2, 2)
        rows.append(a)
    a = np.array(rows)
    try:
        cond = _norm1(a) * _norm1(np.linalg.inv(a))
    except np.linalg.LinAlgError:
        cond = np.inf
    assume(np.all(cond <= 1e12))
    return a, cond, draw(st.integers(-900, 900))


def ldexp_parts(a, k):
    """``a * 2**k`` for a complex ``a``, exactly, signed zeros kept."""
    out = np.empty_like(a)
    out.real, out.imag = np.ldexp(a.real, k), np.ldexp(a.imag, k)
    return out


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(invertible_stacks_2x2())
def test_closed_form_inverse_matches_lapack(drawn):
    # The adjugate over the determinant agrees with LAPACK's inverse to
    # cond_1(A) eps relative to the inverse's largest entry: LAPACK's own
    # error is normwise, so a small entry of A^{-1} is not held to its own
    # scale.  Scaled by 2**k the stack inverts to the inverse scaled by
    # 2**-k, with no overflow and no RuntimeWarning (an error here).
    a, cond, k = drawn
    eps = np.finfo(float).eps
    want = np.linalg.inv(a)
    bound = 8 * cond[:, None, None] * eps * np.max(np.abs(want), axis=(-2, -1), keepdims=True)
    for got, ref, scale in ((_inv(a), want, 1.0),
                            (_inv(ldexp_parts(a, k)), ldexp_parts(want, -k), np.ldexp(1.0, -k))):
        assert got.shape == a.shape and got.dtype == complex and np.all(np.isfinite(got))
        assert np.all(np.abs(got - ref) <= bound * scale)


def test_closed_form_inverse_refuses_an_exactly_singular_matrix():
    # As LAPACK does, and whatever the scale of the stack.
    rank_one = np.array([[1.0, 2.0], [0.5, 1.0]])
    for a in (np.zeros((1, 2, 2)), np.stack([np.eye(2), rank_one]), 2.0**-600 * rank_one[None]):
        with pytest.raises(np.linalg.LinAlgError):
            _inv(a)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(a)
