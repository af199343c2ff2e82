"""Span tracing of specdist's layers from outside the package.

``Tracer.install()`` wraps, in place, every public function of the layer
modules (``fileio``, ``spectra``, ``hermitian``, ``distances``,
``toeplitz``), ``GridSpectrum.build``, and the ``numpy.linalg``
eigensolvers and Cholesky factorisation.  Every module-level binding of a
wrapped function inside ``specdist`` is replaced, so calls made through a
``from .x import f`` name are traced too.  Nothing under ``src/`` changes.

Each call inside an op becomes a span ``[name, start, end, parent, op,
attrs]`` kept in memory; the op itself is the root span ``cli.main``
opened by the worker.  ``layer_metrics()`` turns the spans into per-op
figures: a function's ``.s`` is its self time (its duration minus the
part covered by its child spans), so the self times of all spans of one
op add up to the op's duration.

Eigensolver calls (``eigh``, ``eigvalsh``, ``eig``, ``eigvals``) are
classed by shape: a stack of more than one matrix is ``batched_eig``, a
single matrix inside a ``toeplitz`` span is ``dense_eig``, and any other
single matrix (validation of a noise covariance or ``R(0)``, the
stability radius) is ``small_eig``.  All three count as layer
``hermitian``.  Calls made while no op is open (the benchmark's own
checks) are not traced.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("fileio", "spectra", "hermitian", "distances", "toeplitz")

#: Public functions left unwrapped: ``format_float`` renders one number and
#: runs once per CSV field, so a span per call would cost more than the work.
UNWRAPPED = {"fileio.format_float"}

EIGENSOLVERS = ("eigh", "eigvalsh", "eig", "eigvals")

#: The CLI's default oracle horizons; each gets a ``toeplitz.horizon.<h>.s``
#: metric on every workload, so the metric set does not depend on the run.
DEFAULT_HORIZONS = (16, 32, 64, 128, 256, 512, 1024)

# Span record fields.
NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.horizon = None

    # -- recording -------------------------------------------------------------

    def call(self, name, fn, args, kwargs, attrs):
        """Run ``fn`` as a span; ``attrs`` stays the caller's to fill in."""
        rec = [name, 0.0, 0.0, self.stack[-1], self.op, attrs]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            self.stack.pop()

    def run_op(self, fn, *args):
        """Run one op as the root span ``cli.main``."""
        self.op += 1
        rec = ["cli.main", 0.0, 0.0, None, self.op, {}]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            return fn(*args)
        finally:
            rec[END] = perf_counter()
            self.stack.pop()

    def _inside(self, layer):
        return any(self.spans[i][NAME].startswith(layer + ".") for i in self.stack)

    # -- installation ----------------------------------------------------------

    def install(self):
        import specdist
        from specdist import spectra

        modules = [m for k, m in sys.modules.items() if k.startswith("specdist")]
        for layer in LAYERS:
            mod = getattr(specdist, layer)
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or f"{layer}.{fname}" in UNWRAPPED):
                    continue
                wrapped = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)

        build = spectra.GridSpectrum.build.__func__

        def traced_build(cls, *args, **kwargs):
            if not self.stack:
                return build(cls, *args, **kwargs)
            attrs = {}
            grid = self.call("spectra.build", build, (cls, *args), kwargs, attrs)
            # Every workload source is a real process, so a grid flagged
            # non-real is the known symmetry-flag defect.
            attrs["real_symmetry_false"] = int(not grid.real_symmetry)
            return grid

        spectra.GridSpectrum.build = classmethod(traced_build)

        for solver in EIGENSOLVERS:
            setattr(np.linalg, solver, self._wrap_eig(getattr(np.linalg, solver)))
        np.linalg.cholesky = self._wrap_leaf("hermitian.cholesky", np.linalg.cholesky)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            attrs = {}
            if name in _READERS:
                attrs["bytes_in"] = _input_bytes(name, args, kwargs)
            elif name == "toeplitz.build_block_toeplitz":
                self.horizon = int(args[1] if len(args) > 1 else kwargs["horizon"])
                attrs["horizon"] = self.horizon
            elif name == "hermitian.bures_w2_squared" and self._inside("toeplitz"):
                attrs["horizon"] = self.horizon
            outer_fileio = self._inside("fileio")
            result = self.call(name, fn, args, kwargs, attrs)
            if name == "fileio.write_grid_csv":
                path = str(args[0] if args else kwargs["path"])
                attrs["bytes_out"] = _size(path) + _size(_sidecar(path))
            elif name == "fileio.json_dumps" and not outer_fileio:
                attrs["bytes_out"] = len(result)
            return result

        return wrapper

    def _wrap_eig(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if not self.stack:
                return fn(a, *args, **kwargs)
            shape = np.shape(a)
            batch = int(np.prod(shape[:-2], dtype=np.int64))
            if batch > 1:
                kind = "batched_eig"
            elif self._inside("toeplitz"):
                kind = "dense_eig"
            else:
                kind = "small_eig"
            attrs = {"batch": batch, "n": int(shape[-1])}
            return self.call(f"hermitian.{kind}", fn, (a, *args), kwargs, attrs)

        return wrapper

    def _wrap_leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs, {})

        return wrapper

    # -- reduction -------------------------------------------------------------

    def layer_metrics(self, speed_factor):
        """Per-op averages of the traced figures, keyed by metric name.

        Times are multiplied, and rates divided, by ``speed_factor`` (see
        ``speed.py``) so they are on the end-to-end metrics' scale.
        """
        n_ops = self.op + 1
        self_s = defaultdict(float)
        calls = defaultdict(int)
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child[rec[PARENT]] += rec[END] - rec[START]
        horizon_s = defaultdict(float)
        sums = defaultdict(float)
        max_dense_n = 0
        root_s = 0.0
        for i, rec in enumerate(self.spans):
            name, dur, attrs = rec[NAME], rec[END] - rec[START], rec[ATTRS]
            self_s[name] += dur - child[i]
            calls[name] += 1
            for key in ("bytes_in", "bytes_out", "real_symmetry_false"):
                sums[key] += attrs.get(key, 0)
            if name == "cli.main":
                root_s += dur
            elif name == "fileio.read_grid_csv":
                sums["grid_csv_in"] += attrs["bytes_in"]
            elif name == "fileio.write_grid_csv":
                sums["grid_csv_out"] += attrs["bytes_out"]
            elif name == "hermitian.batched_eig":
                sums["flops"] += attrs["batch"] * attrs["n"] ** 3
            elif name == "hermitian.dense_eig":
                max_dense_n = max(max_dense_n, attrs["n"])
            if "horizon" in attrs and self.spans[rec[PARENT]][NAME].startswith("toeplitz."):
                horizon_s[attrs["horizon"]] += dur
                if name == "hermitian.bures_w2_squared":
                    sums["oracle_bures"] += dur

        def per_op(x):
            return x / n_ops

        def rate(nbytes, seconds):
            return nbytes / 1e6 / (seconds * speed_factor) if seconds > 0 else 0.0

        # The writer renders its text through the public grid_csv_text.
        write_s = self_s["fileio.write_grid_csv"] + self_s["fileio.grid_csv_text"]

        m = {
            "cli.self_s": per_op(self_s["cli.main"]),
            "fileio.read_grid_csv.s": per_op(self_s["fileio.read_grid_csv"]),
            "fileio.read_grid_csv.mb_per_s": rate(sums["grid_csv_in"], self_s["fileio.read_grid_csv"]),
            "fileio.write_grid_csv.s": per_op(write_s),
            "fileio.write_grid_csv.mb_per_s": rate(sums["grid_csv_out"], write_s),
            "fileio.read_timeseries_csv.s": per_op(self_s["fileio.read_timeseries_csv"]),
            "fileio.json_dumps.s": per_op(self_s["fileio.json_dumps"]),
            "fileio.bytes_in": per_op(sums["bytes_in"]),
            "fileio.bytes_out": per_op(sums["bytes_out"]),
            "spectra.rational_grid.s": per_op(self_s["spectra.rational_grid"]),
            "spectra.rational_grid.calls": per_op(calls["spectra.rational_grid"]),
            "spectra.build.s": per_op(self_s["spectra.build"]),
            "spectra.estimate_welch.s": per_op(self_s["spectra.estimate_welch"]),
            "spectra.to_autocov.s": per_op(self_s["spectra.rational_to_autocov"]
                                           + self_s["spectra.spectrum_to_autocov"]),
            "spectra.real_symmetry_false": per_op(sums["real_symmetry_false"]),
            "hermitian.batched_eig.calls": per_op(calls["hermitian.batched_eig"]),
            "hermitian.batched_eig.s": per_op(self_s["hermitian.batched_eig"]),
            "hermitian.batched_eig.flops": per_op(sums["flops"]),
            "hermitian.dense_eig.calls": per_op(calls["hermitian.dense_eig"]),
            "hermitian.dense_eig.s": per_op(self_s["hermitian.dense_eig"]),
            "hermitian.dense_eig.max_n": float(max_dense_n),
            "hermitian.cholesky.calls": per_op(calls["hermitian.cholesky"]),
            "distances.spectral_w2.s": per_op(self_s["distances.spectral_w2"]),
            "toeplitz.assemble.s": per_op(self_s["toeplitz.build_block_toeplitz"]),
            "toeplitz.bures.s": per_op(sums["oracle_bures"]),
        }
        for h in DEFAULT_HORIZONS:
            m[f"toeplitz.horizon.{h}.s"] = per_op(horizon_s.get(h, 0.0))
        for layer in LAYERS:
            m[f"{layer}.self_s"] = per_op(sum(
                v for k, v in self_s.items() if k.startswith(layer + ".")))
        for name in m:
            if unit(name) == "s":
                m[name] *= speed_factor
        m["trace.coverage"] = 1.0 - self_s["cli.main"] / root_s if root_s else 0.0
        return m


def unit(name):
    """Unit of a per-layer metric, as BENCHMARK.json lists it."""
    if name.endswith(".mb_per_s"):
        return "MB/s"
    if name.endswith((".calls", "real_symmetry_false")):
        return "count"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith(".max_n"):
        return "rows"
    if name.startswith("fileio.bytes"):
        return "bytes"
    if name == "trace.coverage":
        return "ratio"
    return "s"


def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _sidecar(path):
    return os.path.splitext(path)[0] + ".meta.json"


_READERS = ("fileio.load_json_object", "fileio.read_timeseries_csv", "fileio.read_grid_csv")


def _input_bytes(name, args, kwargs):
    path = str(args[0] if args else kwargs["path"])
    if name == "fileio.read_grid_csv":
        return _size(path) + _size(_sidecar(path))
    return _size(path)
