"""Numerical reference pairs: fixed VARMA models and the numbers they give.

``data/reference_pairs.json`` holds fixed VARMA pairs (dims 1, 2, 3 and 8,
with MA parts and one spectral zero) together with the transport and
Hellinger numbers on a 256-point grid and the oracle's per-step values at
horizons 16, 32 and 64, as :func:`numbers` computes them.
``golden/regen_reference.py`` rewrites the table after a deliberate change
to those numbers; ``test_reference.py`` holds the current code to it.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from specdist.distances import hellinger, spectral_w2
from specdist.errors import FitDegenerateWarning
from specdist.spectra import RationalSpectrum, rational_grid, spectrum_to_autocov
from specdist.toeplitz import convergence_diagnostic

TABLE = Path(__file__).parent / "data" / "reference_pairs.json"
N_FREQ = 256
HORIZONS = (16, 32, 64)


def model_from(spec: dict) -> RationalSpectrum:
    m = len(spec["noise_cov"])
    return RationalSpectrum(
        ar=np.asarray(spec["ar"], dtype=float).reshape(-1, m, m),
        ma=np.asarray(spec["ma"], dtype=float),
        noise_cov=np.asarray(spec["noise_cov"], dtype=float),
    )


def numbers(spec_x: dict, spec_y: dict) -> dict:
    """The recorded quantities for one pair, plus the per-frequency scale
    ``tr Fx + tr Fy`` the comparison tolerance is relative to."""
    x, y = model_from(spec_x), model_from(spec_y)
    gx, gy = rational_grid(x, N_FREQ), rational_grid(y, N_FREQ)
    w2 = spectral_w2(gx, gy)
    acx, acy = spectrum_to_autocov(gx), spectrum_to_autocov(gy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FitDegenerateWarning)
        diag = convergence_diagnostic(acx, acy, HORIZONS, w2.squared)
    scale = np.trace(gx.values, axis1=1, axis2=2).real
    scale += np.trace(gy.values, axis1=1, axis2=2).real
    return {
        "squared": w2.squared,
        "hellinger_squared": hellinger(gx, gy).squared,
        "per_freq_trace": w2.per_freq_trace.tolist(),
        "alt_gap": w2.alt_gap.tolist(),
        "oracle_per_step_values": list(diag.per_step_values),
        "scale": scale,
    }
