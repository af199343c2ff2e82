"""Unit tests for the dense Hermitian kernel."""

import numpy as np
import pytest
import scipy.linalg

import specdist.hermitian
from conftest import random_pd, tsp_reference
from specdist.errors import (
    DimensionMismatch,
    IndefiniteInput,
    NegativeDistance,
    NonHermitianInput,
)
from specdist.hermitian import (
    DEFAULT_POLICY,
    PsdPolicy,
    bures_w2_squared,
    check_hermitian,
    coupling_trace,
    hermitian_part,
    hermitian_residual,
    sqrt_psd,
    sqrt_psd_many,
    trace_sqrt_product,
)


def test_policy_validation():
    assert DEFAULT_POLICY == PsdPolicy(1e-12, 1e-10)
    with pytest.raises(ValueError):
        PsdPolicy(floor_eps=-1.0)
    with pytest.raises(ValueError):
        PsdPolicy(negativity_tol=-1e-3)


def test_hermitian_part_and_residual():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = hermitian_part(a)
    assert hermitian_residual(h) <= 1e-15
    assert hermitian_residual(a) > 1e-3
    assert hermitian_residual(np.zeros((2, 2))) == 0.0


def test_check_hermitian_rejects():
    with pytest.raises(DimensionMismatch):
        check_hermitian(np.zeros((2, 3)))
    bad = np.eye(2) + np.array([[0.0, 1e-6], [0.0, 0.0]])
    with pytest.raises(NonHermitianInput):
        check_hermitian(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_non_finite_input_refused(bad, where):
    # A non-finite entry makes the symmetry residual NaN, which the
    # residual check must refuse rather than compare as "not too large".
    a = np.eye(2)
    a[where] = a[where[::-1]] = bad
    assert np.isnan(hermitian_residual(a))
    with pytest.raises(NonHermitianInput):
        check_hermitian(a)
    with pytest.raises(NonHermitianInput):
        sqrt_psd(a)
    for pair in ((a, np.eye(2)), (np.eye(2), a)):
        with pytest.raises(NonHermitianInput):
            trace_sqrt_product(*pair)


def test_sqrt_psd_trivial_cases():
    assert np.allclose(sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)
    assert np.allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


@pytest.mark.parametrize("m,complex_", [(4, False), (3, True)])
def test_sqrt_psd_squaring_roundtrip(m, complex_):
    a = random_pd(m, np.random.default_rng(m), complex_=complex_)
    s = sqrt_psd(a)
    assert hermitian_residual(s) <= 1e-12
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
    with pytest.raises(IndefiniteInput):
        sqrt_psd(np.diag([1.0, -1e-3]))
    stack = np.stack([np.eye(2), np.diag([1.0, -1e-3])]).astype(complex)
    with pytest.raises(IndefiniteInput):
        sqrt_psd_many(stack)


def test_sqrt_psd_many_matches_single():
    rng = np.random.default_rng(17)
    stack = np.stack([random_pd(3, rng, complex_=True) for _ in range(5)])
    batched = sqrt_psd_many(stack)
    for k in range(5):
        assert np.allclose(batched[k], sqrt_psd(stack[k]), atol=1e-12)


def test_trace_sqrt_product_trivial_cases():
    assert abs(trace_sqrt_product(np.eye(2), np.eye(2)) - 2.0) <= 1e-12
    assert abs(trace_sqrt_product([[4.0]], [[9.0]]) - 6.0) <= 1e-12


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
        sandwich = trace_sqrt_product(a, b)
        product = tsp_reference(a, b)
        assert abs(sandwich - product) <= 1e-8 * sandwich
        assert abs(kernel[k] - product) <= 1e-8 * product


def test_trace_sqrt_product_validations():
    with pytest.raises(DimensionMismatch):
        trace_sqrt_product(np.eye(2), np.eye(3))
    with pytest.raises(IndefiniteInput):
        trace_sqrt_product(np.eye(2), np.diag([1.0, -2.0]))


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
