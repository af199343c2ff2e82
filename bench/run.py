"""specdist CLI benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark generates the
workload's inputs from the seed, measures ``setup_s`` (a fresh interpreter
importing ``specdist.cli``, median of several), then starts one worker
process that calls ``specdist.cli.main`` in-process as a single closed-loop
client for S seconds (see ``worker.py``) and checks every op's output
against an independent reference (see ``workloads.py``).

Standard output ends with two JSON lines: a detail record (environment,
input sha256s, per-dim medians, the tail percentile and its sample count,
failures) and, last, the result ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from the traced run.  Generated files live
under ``.bench_work/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

#: Fresh interpreters timed for ``setup_s`` (after one untimed spawn that
#: leaves the bytecode cache warm, as any second CLI call finds it).
SETUP_SAMPLES = 9

#: Every run, set-up included, must end well inside three minutes.
DEADLINE_S = 170.0

#: A tail percentile needs this many samples beyond it (but see ``tail``).
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def tail(times):
    """Highest nearest-rank percentile with enough samples beyond it.

    Enough is TAIL_BEYOND, but never more than half the samples: a run of
    fewer than 2 * TAIL_BEYOND ops resolves no real tail, and then this
    lands just above the median instead of on a lone maximum or, by the
    strict rule, below the median.  Returns ``(value, percentile,
    samples_beyond)``.
    """
    s = sorted(times)
    n = len(s)
    beyond = min(TAIL_BEYOND, n // 2)
    k = n - beyond
    return s[k - 1], 100.0 * k / n, beyond


def measure_setup(env):
    """Wall times of fresh interpreters that run ``import specdist.cli``.

    No timeout is passed: with one, ``subprocess`` polls the child with
    sleeps of up to 50 ms, which would quantise the samples.
    """
    cmd = [sys.executable, "-c", "import specdist.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        if i:
            samples.append(perf_counter() - t0)
    return samples


def run_worker(plan_path, result_path, seconds, trace, env, deadline):
    cmd = [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(result_path),
           str(seconds), str(trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        rc = proc.wait(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not finish before the deadline") from None
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")
    return json.loads(Path(result_path).read_text())


def end_to_end(res, setup):
    """End-to-end metrics; op times are scaled by the run's speed factor."""
    run = res["run"]
    k = run["speed_factor"]
    ok_times = [t * k for t, ok in zip(run["times"], run["passed"]) if ok]
    n_ok = len(ok_times)
    value, pct, beyond = tail(ok_times) if ok_times else (0.0, 0.0, 0)
    values = {
        "ops_per_s": n_ok / ((run["wall_s"] - run["check_s"] - run["probe_s"]) * k),
        "op_s.p50": median(ok_times) if ok_times else 0.0,
        "op_s.tail": value,
        "setup_s": median(setup),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "success_rate": 1.0 - len(res["failures"]) / res["attempted"],
    }
    detail = {"op_s.tail_percentile": pct, "op_s.tail_samples_beyond": beyond,
              "op_s.samples": n_ok}
    return values, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = perf_counter()
    src = ROOT / "src"
    if not (src / "specdist" / "cli.py").is_file():
        print(f"error: no specdist source under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = workloads.prepare(args.workload, args.seed, work)
        plan["src"] = str(src)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        setup = measure_setup(env)
        res = run_worker(plan_path, work / "result.json", args.seconds, args.trace,
                         env, start + DEADLINE_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values, detail = end_to_end(res, setup)
    run = res["run"]
    by_label = {}
    for t, label, ok in zip(run["times"], run["labels"], run["passed"]):
        if ok:
            by_label.setdefault(label, []).append(t)
    failed = len(res["failures"])
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        input_size=plan["input_size"],
        inputs=plan["inputs"],
        env=dict(res["env"], git_commit=git_commit()),
        warmup_ops=len(res["warmup_ok"]),
        error_rate=failed / res["attempted"],
        failures=res["failures"][:5],
        raw_op_s_p50_by_input={k: median(v) for k, v in sorted(by_label.items())},
        raw_op_s_p50=median(run["times"]),
        raw_op_s=run["times"],
        setup_samples_s=setup,
        speed_factor=run["speed_factor"],
        probe_factor=run["probe_factor"],
        check_s=run["check_s"],
        probe_s=run["probe_s"],
        wall_s=run["wall_s"],
    )
    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        detail["end_to_end"] = values
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
