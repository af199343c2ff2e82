"""The spectral and oracle numbers held to the committed reference table.

Scalars must match to 1e-12 relative; per-frequency values to 1e-10 times
``tr Fx + tr Fy`` at that frequency.  A change that moves a number past
these tolerances says so and regenerates the table with
``golden/regen_reference.py``.
"""

import json

import numpy as np
import pytest

from reference_cases import HORIZONS, N_FREQ, TABLE, numbers

SCALAR_RTOL = 1e-12
PER_FREQ_RTOL = 1e-10

_TABLE = json.loads(TABLE.read_text())


def test_table_covers_the_planned_pairs():
    assert _TABLE["n_freq"] == N_FREQ and tuple(_TABLE["horizons"]) == HORIZONS
    dims = {len(p["x"]["noise_cov"]) for p in _TABLE["pairs"]}
    assert dims == {1, 2, 3, 8}
    assert any(len(p["x"]["ma"]) > 1 for p in _TABLE["pairs"])


@pytest.mark.parametrize("entry", _TABLE["pairs"], ids=lambda p: p["name"])
def test_matches_reference_table(entry):
    got = numbers(entry["x"], entry["y"])
    for key in ("squared", "hellinger_squared"):
        assert abs(got[key] - entry[key]) <= SCALAR_RTOL * abs(entry[key]), key
    steps = np.array(got["oracle_per_step_values"])
    ref_steps = np.array(entry["oracle_per_step_values"])
    assert np.all(np.abs(steps - ref_steps) <= SCALAR_RTOL * np.abs(ref_steps))
    band = PER_FREQ_RTOL * got["scale"]
    for key in ("per_freq_trace", "alt_gap"):
        assert np.all(np.abs(np.array(got[key]) - np.array(entry[key])) <= band), key
