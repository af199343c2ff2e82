"""Smoke check of the benchmark itself (not part of the test suite).

    python3 bench/smoke.py

For every workload in BENCHMARK.json it runs the benchmark with
``--seconds 1`` (one warm-up op per input, then the fewest measured ops
the loop allows) with tracing off and on, and checks that the last line of
output has exactly the contract's keys, that its metric names and units are
exactly the ``end_to_end`` or ``per_layer`` entries of BENCHMARK.json, and
that every op passed its correctness check.  It also copies BENCHMARK.json
and the benchmark's directories, without ``src/``, into a scratch directory
and checks that the benchmark refuses to run there.  Prints the traced
eigensolve and model-sampling counts per op; exits non-zero on any mismatch.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("hermitian.batched_eig.calls", "hermitian.dense_eig.calls",
          "spectra.rational_grid.calls", "spectra.real_symmetry_false")


def run(cwd, workload, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(workload, trace, proc):
    problems = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"], {}
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"ops failed: {lines[-2][:500]}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metric names/units differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"units {[k for k in want if k in got and got[k] != want[k]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name} is not a finite number: {m.get('value')!r}")
    return problems, result["metrics"]


def main():
    failures = 0
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            problems, metrics = check_result(w["name"], trace, run(ROOT, w["name"], trace))
            status = "ok" if not problems else "FAIL"
            print(f"{status:4} {w['name']} --trace {trace}")
            for p in problems:
                print(f"     {p}")
            if trace and not problems:
                print("     " + ", ".join(f"{k}={metrics[k]['value']:g}" for k in COUNTS))
            failures += bool(problems)

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"{'ok' if refused else 'FAIL':4} refuses to run without src/ (exit {proc.returncode})")
    failures += not refused
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
