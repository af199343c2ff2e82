"""Measurement process: one closed-loop client of ``specdist.cli.main``.

    python3 bench/worker.py PLAN.json RESULT.json SECONDS TRACE

Runs in-process CLI invocations back to back, each one only after the
previous one has returned and been checked, cycling through the plan's
ops.  One warm-up op per distinct op goes first and is checked but not
timed.  Op times are scaled by the speed probe run after each op
(``speed.py``), and the client thread is pinned to one CPU so that the
probe sees the CPU the op ran on.  A workload whose plan is marked
``multithreaded`` is neither pinned nor scaled (see ``workloads.py``).

With TRACE 0 the whole window is untraced.  With TRACE 1 the first half is
untraced, then the layer wrappers are installed for the second half; the
per-layer figures come from that half and ``trace.overhead_s`` is the
difference between the two halves' median op times.

The result file holds every op time, the failures, the time spent in the
benchmark's own checks and probes, the process's peak RSS and the
environment record.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import speed
import tracing
import workloads


class Client:
    def __init__(self, main, ops, refs, scaled):
        self.main = main
        self.ops = ops
        self.refs = refs
        self.scaled = scaled
        self.next = 0
        self.attempted = 0
        self.failures = []

    def run_op(self, tracer=None):
        """Run and check the next op; return (seconds, label, passed, check seconds)."""
        op = self.ops[self.next % len(self.ops)]
        self.next += 1
        with contextlib.suppress(FileNotFoundError):
            os.unlink(op["out"])
        # Start every op from an empty young generation, as a fresh CLI
        # process would, instead of inheriting the last op's GC debt.
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = tracer.run_op(self.main, op["argv"]) if tracer else self.main(op["argv"])
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # an op that raises is a failed op, not a crash
                rc = f"raised {type(exc).__name__}: {exc}"
            t1 = perf_counter()
        reason = (workloads.check(op, rc, out.getvalue(), self.refs)
                  if isinstance(rc, int) else rc)
        self.attempted += 1
        if reason is not None:
            stderr = err.getvalue().strip().splitlines()
            self.failures.append({"label": op["label"], "reason": reason,
                                  "stderr": stderr[-1] if stderr else ""})
        return t1 - t0, op["label"], reason is None, perf_counter() - t1

    def measure(self, seconds, tracer=None):
        """Closed loop for ``seconds`` of wall time; at least one op.

        After each op and its check the speed probe runs (see ``speed.py``);
        neither is part of an op's time.
        """
        times, labels, passed = [], [], []
        check_s = probe_s = 0.0
        probes = speed.Speed()
        start = perf_counter()
        while not times or perf_counter() - start < seconds:
            dt, label, ok, dc = self.run_op(tracer)
            times.append(dt)
            labels.append(label)
            passed.append(ok)
            check_s += dc
            probe_s += probes.after(dt)
        return {"times": times, "labels": labels, "passed": passed,
                "wall_s": perf_counter() - start, "check_s": check_s,
                "probe_s": probe_s, "probe_factor": probes.factor(),
                "speed_factor": probes.factor() if self.scaled else 1.0}


def blas_record():
    """BLAS library, version and thread count as the loaded OpenBLAS reports them."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    record["threads"] = fn()
                    return record
    return record


def env_record():
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    l3 = None
    with contextlib.suppress(OSError):
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3": l3,
    }


def main(argv):
    plan_path, result_path, seconds, trace = argv[1], argv[2], float(argv[3]), argv[4] == "1"
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    import specdist.cli

    refs = {op["expect"]["ref"]: np.load(op["expect"]["ref"])
            for op in plan["ops"] if "ref" in op["expect"]}
    scaled = not plan["multithreaded"]
    cpu = None
    if scaled:
        # Keep the client thread, and the probe that scales its times, on
        # one CPU, so the probe sees the CPU the op ran on.
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    client = Client(specdist.cli.main, plan["ops"], refs, scaled)
    warmup_ok = [client.run_op()[2] for _ in plan["ops"]]

    result = {"warmup_ok": warmup_ok}
    if trace:
        untraced = client.measure(seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        traced = client.measure(seconds / 2, tracer)
        layers = tracer.layer_metrics(traced["speed_factor"])
        layers["trace.overhead_s"] = (median(traced["times"]) * traced["speed_factor"]
                                      - median(untraced["times"]) * untraced["speed_factor"])
        result.update(run=traced, untraced=untraced, layers=layers)
    else:
        result["run"] = client.measure(seconds)
    result.update(
        attempted=client.attempted,
        failures=client.failures,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        env=dict(env_record(), client_cpu=cpu),
    )
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
