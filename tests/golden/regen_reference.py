"""Regenerate the numerical reference table ``tests/data/reference_pairs.json``.

Run after a deliberate change to the spectral or oracle numbers:
``python3 tests/golden/regen_reference.py``.  The pairs are drawn once from
a fixed seed; their coefficients are stored in the table, so the test does
not depend on this generator.
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from reference_cases import HORIZONS, N_FREQ, TABLE, numbers  # noqa: E402
from specdist.spectra import stability_radius  # noqa: E402


def _random_model(rng, m, p, q, radius=0.6):
    """Random stable VARMA(p, q) with AR spectral radius below ``radius``."""
    ar = rng.standard_normal((p, m, m)) / np.sqrt(m)
    while p and stability_radius(ar) >= radius:
        ar *= 0.9
    ma = np.concatenate([np.eye(m)[None], 0.5 * rng.standard_normal((q, m, m))])
    g = rng.standard_normal((m, m))
    noise = g @ g.T / m + 0.5 * np.eye(m)
    return {"ar": ar.tolist(), "ma": ma.tolist(), "noise_cov": noise.tolist()}


def _scalar(ar, ma, noise=1.0):
    return {"ar": [[[a]] for a in ar], "ma": [[[b]] for b in ma], "noise_cov": [[noise]]}


def pairs():
    rng = np.random.default_rng(20201)
    yield "ar1_vs_white", _scalar([0.5], [1.0]), _scalar([], [1.0])
    # MA(1) 1 + z: a spectral zero at pi, which is grid point N/2.
    yield "ma1_zero_vs_white", _scalar([], [1.0, 1.0]), _scalar([], [1.0], 2.0)
    yield "arma21_vs_arma12_dim1", _random_model(rng, 1, 2, 1), _random_model(rng, 1, 1, 2)
    yield "varma11_vs_var2_dim2", _random_model(rng, 2, 1, 1), _random_model(rng, 2, 2, 0)
    yield "varma21_vs_vma1_dim2", _random_model(rng, 2, 2, 1), _random_model(rng, 2, 0, 1)
    yield "varma11_vs_varma22_dim3", _random_model(rng, 3, 1, 1), _random_model(rng, 3, 2, 2)
    yield "var1_vs_white_dim3", _random_model(rng, 3, 1, 0), _random_model(rng, 3, 0, 0)
    yield "varma11_vs_var1_dim8", _random_model(rng, 8, 1, 1), _random_model(rng, 8, 1, 0)


def main() -> int:
    table = {"n_freq": N_FREQ, "horizons": list(HORIZONS), "pairs": []}
    for name, sx, sy in pairs():
        entry = {"name": name, "x": sx, "y": sy, **numbers(sx, sy)}
        del entry["scale"]
        table["pairs"].append(entry)
        print(f"{name}: dim {len(sx['noise_cov'])}, squared {entry['squared']:.6g}")
    # One line per pair keeps the file short to list and diff by pair.
    pairs_text = ",\n".join(json.dumps(p) for p in table.pop("pairs"))
    head = json.dumps(table)[:-1]
    TABLE.write_text(f'{head}, "pairs": [\n{pairs_text}\n]}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
