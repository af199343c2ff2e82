"""Seeded inputs, independent references and output checks for each workload.

Everything here is written against numpy and scipy only.  The inputs are
rendered with this module's own ``%.17g`` writers, never with
``specdist.fileio``, so they do not depend on the code under test, and
every reference distance is computed with ``scipy.linalg.sqrtm`` on spectra
that this module evaluates itself.

``prepare(name, seed, work)`` writes the input files into ``work`` and
returns the plan a worker runs: the list of distinct ops (argv plus the
expected result), the sha256 of every generated input, and what the input
sizes are.  ``check(op, ...)`` validates one op's output against its
expectation and returns the reason it fails, or ``None`` when it passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import scipy.linalg

N_FREQ = 4096
MODEL_DIMS = (1, 2, 8)
GRID_DIM = 8
SERIES_LEN = 65536
SERIES_DIM = 8
WELCH_SEG = 4096

#: Relative tolerance of a reported squared distance against the reference,
#: taken against the grid-mean trace scale ``mean(tr Sx + tr Sy)``.
DIST_RTOL = 1e-11
#: Relative tolerance of a written Welch grid against the reference estimate.
WELCH_RTOL = 1e-10

# -- seeded generators ---------------------------------------------------------


def _companion_radius(ar):
    p, m, _ = ar.shape
    comp = np.zeros((p * m, p * m))
    comp[:m] = ar.transpose(1, 0, 2).reshape(m, p * m)
    comp[m:, :-m] = np.eye((p - 1) * m)
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def _spd(m, rng, lo=0.5, hi=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (q * rng.uniform(lo, hi, size=m)) @ q.T


def varma21(m, rng, radius_range=(0.45, 0.7)):
    """Stable real VARMA(2,1): ``x_t = A1 x_{t-1} + A2 x_{t-2} + e_t + B1 e_{t-1}``.

    Scaling ``A_k`` by ``c**k`` scales every companion eigenvalue by ``c``,
    so the AR radius is set exactly; ``|B1|_2 < 1`` keeps the MA part
    invertible on the unit circle, so the spectrum is positive definite.
    """
    ar = rng.standard_normal((2, m, m))
    c = rng.uniform(*radius_range) / _companion_radius(ar)
    ar[0] *= c
    ar[1] *= c * c
    b1 = rng.standard_normal((m, m))
    b1 *= rng.uniform(0.2, 0.5) / np.linalg.norm(b1, 2)
    return {"ar": ar, "ma": np.stack([np.eye(m), b1]), "noise_cov": _spd(m, rng)}


def model_spectrum(model, n_freq):
    """``H Q H*`` on ``w_l = 2 pi l / N`` with ``H = A(z)^{-1} B(z)``, ``z = e^{-jw}``."""
    m = model["noise_cov"].shape[0]
    z = np.exp(-2j * np.pi * np.arange(n_freq) / n_freq)[:, None, None]
    a = np.eye(m) - sum(model["ar"][r] * z ** (r + 1) for r in range(len(model["ar"])))
    b = sum(model["ma"][s] * z**s for s in range(len(model["ma"])))
    h = np.linalg.solve(a, b)
    return h @ model["noise_cov"] @ np.conj(np.swapaxes(h, -1, -2))


def simulate_var1(m, length, rng, radius=0.5, burn=512):
    """Real VAR(1) sample path of shape (length, m)."""
    a = rng.standard_normal((m, m))
    a *= radius / float(np.max(np.abs(np.linalg.eigvals(a))))
    chol = np.linalg.cholesky(_spd(m, rng))
    noise = rng.standard_normal((length + burn, m)) @ chol.T
    x = np.zeros((length + burn, m))
    for t in range(1, length + burn):
        x[t] = a @ x[t - 1] + noise[t]
    return x[burn:]


# -- independent references ----------------------------------------------------


def reference_w2_squared(sx, sy):
    """Grid mean of ``tr Sx + tr Sy - 2 tr (Sx^1/2 Sy Sx^1/2)^1/2`` via sqrtm.

    Returns ``(squared, scale)`` with ``scale = mean(tr Sx + tr Sy)``, the
    magnitude against which the check tolerance is set.
    """
    rx = scipy.linalg.sqrtm(sx)
    cross = np.trace(scipy.linalg.sqrtm(rx @ sy @ rx), axis1=-2, axis2=-1).real
    tr = (np.trace(sx, axis1=-2, axis2=-1) + np.trace(sy, axis1=-2, axis2=-1)).real
    return float(np.mean(tr - 2.0 * cross)), float(np.mean(tr))


def reference_welch(x, seg_len, overlap=0.5):
    """Hann-windowed averaged periodogram, normalised like ``estimate``."""
    win = np.hanning(seg_len)
    step = int(seg_len * (1.0 - overlap))
    starts = range(0, len(x) - seg_len + 1, step)
    acc = np.zeros((seg_len, x.shape[1], x.shape[1]), dtype=complex)
    for s in starts:
        f = np.fft.fft(win[:, None] * x[s : s + seg_len], axis=0)
        acc += f[:, :, None] * np.conj(f[:, None, :])
    return acc / (len(starts) * float(np.sum(win**2)))


# -- writers (independent of specdist.fileio) -----------------------------------


def _fmt(a):
    return ["%.17g" % v for v in np.ravel(a)]


def write_model_json(path, model):
    def mats(stack):
        return [[[float(v) for v in row] for row in mat] for mat in stack]

    obj = {
        "ar": mats(model["ar"]),
        "ma": mats(model["ma"]),
        "noise_cov": [[float(v) for v in row] for row in model["noise_cov"]],
    }
    Path(path).write_text(json.dumps(obj) + "\n")


def write_grid_csv(path, values):
    n, m, _ = values.shape
    l, i, j = np.meshgrid(np.arange(n), np.arange(m), np.arange(m), indexing="ij")
    cols = zip(np.ravel(l).tolist(), np.ravel(i).tolist(), np.ravel(j).tolist(),
               _fmt(values.real), _fmt(values.imag))
    body = "".join(f"{a},{b},{c},{re},{im}\n" for a, b, c, re, im in cols)
    Path(path).write_text("omega_index,row,col,re,im\n" + body)
    meta = {"dim": m, "n_freq": n, "real_symmetry": True}
    Path(path).with_suffix(".meta.json").write_text(json.dumps(meta) + "\n")


def write_series_csv(path, x):
    flat = _fmt(x)
    m = x.shape[1]
    rows = (",".join(flat[k : k + m]) for k in range(0, len(flat), m))
    Path(path).write_text("\n".join(rows) + "\n")


def read_grid_values(path, dim, n_freq):
    """Parse a grid CSV with numpy into a (n_freq, dim, dim) complex array."""
    text = Path(path).read_text()
    body = text[text.index("\n") + 1 :]
    flat = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)
    rows = flat.reshape(-1, 5)
    if rows.shape[0] != n_freq * dim * dim:
        raise ValueError(f"{rows.shape[0]} rows, expected {n_freq * dim * dim}")
    idx = rows[:, :3].astype(np.int64)
    values = np.full((n_freq, dim, dim), np.nan, dtype=complex)
    values[idx[:, 0], idx[:, 1], idx[:, 2]] = rows[:, 3] + 1j * rows[:, 4]
    return values


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- plans ---------------------------------------------------------------------


def _dist_op(x, y, sx, sy, out, extra=()):
    squared, scale = reference_w2_squared(sx, sy)
    return {
        "argv": ["dist", str(x), str(y), "--out", str(out), *extra],
        "kind": "dist",
        "out": str(out),
        "expect": {"squared": squared, "scale": scale},
        "label": f"dim{sx.shape[-1]}",
    }


def _plan_model_dist(rng, work):
    ops = []
    for m in MODEL_DIMS:
        x, y = varma21(m, rng), varma21(m, rng)
        px, py = work / f"x{m}.json", work / f"y{m}.json"
        write_model_json(px, x)
        write_model_json(py, y)
        ops.append(_dist_op(px, py, model_spectrum(x, N_FREQ),
                            model_spectrum(y, N_FREQ), work / "out.json"))
    return ops, f"VARMA(2,1) model pairs, dims {list(MODEL_DIMS)}, n_freq {N_FREQ}"


def _plan_grid_csv_dist(rng, work):
    grids = []
    for tag in ("x", "y"):
        values = model_spectrum(varma21(GRID_DIM, rng), N_FREQ)
        path = work / f"{tag}8.csv"
        write_grid_csv(path, values)
        grids.append((path, values))
    (px, sx), (py, sy) = grids
    ops = [_dist_op(px, py, sx, sy, work / "out.json")]
    return ops, f"two dim-{GRID_DIM} grid CSVs, N={N_FREQ}"


def _plan_welch_estimate(rng, work):
    x = simulate_var1(SERIES_DIM, SERIES_LEN, rng)
    path = work / "series.csv"
    write_series_csv(path, x)
    np.save(work / "welch_ref.npy", reference_welch(x, WELCH_SEG))
    out = work / "est.csv"
    ops = [{
        "argv": ["estimate", str(path), "--seg-len", str(WELCH_SEG), "--out", str(out)],
        "kind": "estimate",
        "out": str(out),
        "expect": {"ref": str(work / "welch_ref.npy"), "dim": SERIES_DIM,
                   "n_freq": WELCH_SEG},
        "label": f"dim{SERIES_DIM}",
    }]
    return ops, f"{SERIES_LEN}x{SERIES_DIM} real series, seg-len {WELCH_SEG}"


def _plan_oracle_m2(rng, work):
    x, y = varma21(2, rng, (0.3, 0.5)), varma21(2, rng, (0.3, 0.5))
    px, py = work / "x2.json", work / "y2.json"
    write_model_json(px, x)
    write_model_json(py, y)
    op = _dist_op(px, py, model_spectrum(x, N_FREQ), model_spectrum(y, N_FREQ),
                  work / "out.json", extra=("--oracle",))
    op["kind"] = "oracle"
    return [op], "dim-2 VARMA(2,1) pair, default horizons 16..1024"


#: Workloads whose ops spend nearly all their time in OpenBLAS on both
#: cores.  The single-thread speed probe does not track them: scaling
#: widened the quartile spread of the oracle's median op time from 6% to
#: 16% over ten runs, and pinning the client thread widened it too.  Their
#: times are raw wall times.
MULTITHREADED = {"oracle-m2"}

PLANNERS = {
    "model-dist": _plan_model_dist,
    "grid-csv-dist": _plan_grid_csv_dist,
    "welch-estimate": _plan_welch_estimate,
    "oracle-m2": _plan_oracle_m2,
}


def prepare(name, seed, work):
    """Generate the inputs of one workload into ``work``; return its plan."""
    work = Path(work)
    # The workload name enters the stream so workloads never share inputs.
    rng = np.random.default_rng([seed, sorted(PLANNERS).index(name)])
    ops, size = PLANNERS[name](rng, work)
    inputs = sorted(p for p in work.iterdir() if p.suffix in (".json", ".csv"))
    return {
        "workload": name,
        "seed": seed,
        "input_size": size,
        "multithreaded": name in MULTITHREADED,
        "ops": ops,
        "inputs": {p.name: {"bytes": p.stat().st_size, "sha256": sha256(p)}
                   for p in inputs},
    }


# -- per-op checks ---------------------------------------------------------------


def check(op, rc, stdout, refs):
    """Return ``None`` when the op's output is correct, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    if op["kind"] == "estimate":
        return _check_estimate(op, stdout, refs)
    try:
        report = json.loads(Path(op["out"]).read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    exp = op["expect"]
    err = abs(report["squared"] - exp["squared"])
    if not err <= DIST_RTOL * exp["scale"]:
        return (f"squared {report['squared']!r} differs from reference "
                f"{exp['squared']!r} by {err:.3e}")
    if op["kind"] == "oracle" and report.get("oracle", {}).get("converged") is not True:
        return "oracle did not report converged: true"
    return None


def _check_estimate(op, stdout, refs):
    exp = op["expect"]
    try:
        summary = json.loads(stdout)
        values = read_grid_values(op["out"], exp["dim"], exp["n_freq"])
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    if (summary.get("dim"), summary.get("n_freq")) != (exp["dim"], exp["n_freq"]):
        return f"summary reports dim/n_freq {summary.get('dim')}/{summary.get('n_freq')}"
    if np.isnan(values.real).any():
        return "written grid is missing entries"
    scale = float(np.max(np.abs(values)))
    if float(np.max(np.abs(values - np.conj(np.swapaxes(values, -1, -2))))) > 1e-12 * scale:
        return "written grid is not Hermitian"
    if float(np.min(np.linalg.eigvalsh(values))) <= 0.0:
        return "written grid is not positive definite"
    ref = refs[exp["ref"]]
    err = float(np.max(np.abs(values - ref)))
    if not err <= WELCH_RTOL * float(np.max(np.abs(ref))):
        return f"written grid differs from the reference Welch estimate by {err:.3e}"
    return None
