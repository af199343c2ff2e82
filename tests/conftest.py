"""Shared generators and independent references for the test suite.

Random spectra are built from short random autocovariance sequences, which
makes them Hermitian positive definite on the whole grid by construction.
Commuting pairs share a fixed eigenbasis and differ only in their positive
eigenvalue curves.

The references compute what the library computes by a different route and
share none of its code: the coupling trace from the eigenvalues of the
non-Hermitian product, the scalar distance in closed form, and a rational
spectrum at one frequency straight from the model definition.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import specdist.hermitian
from specdist.hermitian import DEFAULT_POLICY, check_hermitian, sqrt_psd_many
from specdist.spectra import GridSpectrum, RationalSpectrum, default_omegas

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


def random_pd(m, rng, complex_=False, spread=4.0):
    """Random positive definite matrix with eigenvalues in [1/spread, spread]."""
    if complex_:
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    else:
        g = rng.standard_normal((m, m))
    q, _ = np.linalg.qr(g)
    eig = np.exp(rng.uniform(-np.log(spread), np.log(spread), size=m))
    return (q * eig) @ q.conj().T


def random_varma21(m, rng):
    """Stable VARMA(2,1): the AR norms sum to 1/2, so no AR root reaches
    the unit circle."""
    ar = np.stack([0.25 * g / np.linalg.norm(g, 2) for g in rng.standard_normal((2, m, m))])
    b1 = rng.standard_normal((m, m))
    ma = np.stack([np.eye(m), 0.5 * b1 / np.linalg.norm(b1, 2)])
    return RationalSpectrum(ar=ar, ma=ma, noise_cov=random_pd(m, rng))


def random_grid_spectrum(m, rng, n_freq=64):
    """Random spectrum from a two-lag autocovariance, PD at every frequency.

    The lag terms are scaled well inside the smallest eigenvalue of the lag-0
    block, so positivity never depends on luck.
    """
    r0 = random_pd(m, rng, spread=3.0)
    margin = float(np.linalg.eigvalsh(r0)[0])
    omegas = default_omegas(n_freq)
    values = np.broadcast_to(r0, (n_freq, m, m)).astype(complex).copy()
    for k in (1, 2):
        g = rng.standard_normal((m, m))
        rk = (0.15 * margin / k) * g / np.linalg.norm(g, 2)
        phase = np.exp(-1j * k * omegas)
        values += phase[:, None, None] * rk + np.conj(phase)[:, None, None] * rk.T
    return GridSpectrum.build(values)


def commuting_pair(m, rng, n_freq=64):
    """Two spectra sharing one eigenbasis, eigenvalue curves bounded below."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, _ = np.linalg.qr(g)
    omegas = default_omegas(n_freq)

    def curves():
        a = rng.uniform(1.0, 3.0, size=m)
        b = rng.uniform(0.1, 0.8, size=m)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=m)
        return a[None, :] + b[None, :] * np.cos(omegas[:, None] + phi[None, :])

    vx = np.einsum("ij,fj,kj->fik", q, curves(), q.conj())
    vy = np.einsum("ij,fj,kj->fik", q, curves(), q.conj())
    return GridSpectrum.build(vx), GridSpectrum.build(vy)


def tsp_reference(a, b):
    """Coupling trace ``tr[(A^{1/2} B A^{1/2})^{1/2}]`` as the sum of square
    roots of the eigenvalues of the product ``A B``, which are real and
    positive for a PD pair.  A general eigensolver, no symmetrization."""
    lam = np.linalg.eigvals(np.asarray(a) @ np.asarray(b))
    assert np.max(np.abs(lam.imag)) <= 1e-8 * np.max(np.abs(lam))
    return float(np.sum(np.sqrt(np.clip(lam.real, 0.0, None))))


def scalar_w2_squared(x, y):
    """Closed form for dim-1 grids: ``mean((sqrt sx - sqrt sy)^2)``."""
    sx, sy = x.full()[:, 0, 0].real, y.full()[:, 0, 0].real
    return float(np.mean((np.sqrt(sx) - np.sqrt(sy)) ** 2))


def rational_value(model, omega):
    """``H Q H*`` at one frequency, with ``H = A(w)^{-1} B(w)``,
    ``A(w) = I - sum_r A_r e^{-jwr}`` and ``B(w) = sum_s B_s e^{-jws}``."""
    a = np.eye(model.dim, dtype=complex)
    for r, coef in enumerate(model.ar, start=1):
        a -= coef * np.exp(-1j * omega * r)
    b = sum(coef * np.exp(-1j * omega * s) for s, coef in enumerate(model.ma))
    h = np.linalg.solve(a, b)
    return h @ model.noise_cov @ h.conj().T


def sqrt_psd(a, policy=DEFAULT_POLICY):
    """The library's principal root of one Hermitian PSD matrix."""
    return sqrt_psd_many(check_hermitian(a)[None], policy)[0]


def record_shapes(monkeypatch, names, calls) -> None:
    """Append the first argument's shape to ``calls`` on every call of the
    ``np.linalg`` functions in ``names``."""
    for name in names:
        solver = getattr(np.linalg, name)

        def counted(a, *args, _solver=solver, **kwargs):
            calls.append(np.shape(a))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)


def refuse_inverse(monkeypatch) -> None:
    """Make ``np.linalg.inv`` raise as numpy does on an exactly singular
    matrix."""
    def singular(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)


def count_closed_forms(monkeypatch) -> list:
    """Record the input shape of every closed-form 2x2 decomposition, from
    the grid build (eigenvalues and root) and from the coupling."""
    calls = []
    kernel = specdist.hermitian._eig_scaled_2x2

    def counted(h):
        calls.append(np.shape(h))
        return kernel(h)

    monkeypatch.setattr(specdist.hermitian, "_eig_scaled_2x2", counted)
    return calls


def count_eigensolves(monkeypatch, choleskys=None) -> list:
    """Record the input shape of every numpy Hermitian eigensolve, and of
    every ``cholesky`` in ``choleskys`` when a list is given."""
    calls = []
    record_shapes(monkeypatch, ("eigh", "eigvalsh"), calls)
    if choleskys is not None:
        record_shapes(monkeypatch, ("cholesky",), choleskys)
    return calls
