"""Benchmark of the sbmpot commands: one workload per call.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The workload runs in a fresh
worker process (perfbench/worker.py) with a clean environment: sbmpot from
src/, SBM_THREADS unset, BLAS pinned to one thread.  Set-up is timed from
process start to ready, on the workload process and, while set-up is cheap,
on up to two more fresh processes; the median is reported.  End-to-end
times are scaled to a reference host speed (see worker.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones.  Full results, per-op
records and the traced spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from worker import REFERENCE_TICK_S
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 4.0  # no extra set-up samples once set-up has cost this much
DEADLINE_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env.pop("SBM_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class WorkerError(RuntimeError):
    pass


def _worker(args, out_dir: str, deadline: float, setup_only: bool):
    """Start a worker; returns (scaled set-up seconds, parsed result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), text=True)
    watchdog = threading.Timer(max(deadline - start, 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline().split()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready[:1] != ["READY"] or proc.returncode != 0:
        raise WorkerError(f"worker failed (exit code {proc.returncode})")
    stolen, tick = float(ready[1]), float(ready[2])
    result = None if setup_only else json.loads(rest.strip().splitlines()[-1])
    return (setup_s - stolen) * REFERENCE_TICK_S / tick, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "sbmpot", "cli.py")):
        sys.stderr.write("error: run from the root of an sbmpot checkout (src/sbmpot not found)\n")
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S

    try:
        setup_s, result = _worker(args, out_dir, deadline, setup_only=False)
        setups = [setup_s]
        while not args.trace and len(setups) < SETUP_SAMPLES and sum(setups) < SETUP_BUDGET_S:
            setups.append(_worker(args, out_dir, deadline, setup_only=True)[0])
    except (WorkerError, json.JSONDecodeError, IndexError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    s = result["summary"]
    result["setup_s"] = setups
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}: {s['ops']} ops in {s['wall_s']:.2f} s, "
          f"{s['failed']} failed ({s['failed_share']:.1%}), outputs {'verified' if s['correct'] else 'WRONG'}")
    for rec in result["ops"]:
        if rec["failure"]:
            print(f"  failed op {rec['index']} ({rec['shape']}): {rec['failure']}")
    print(f"digest {s['digest']} over {s['ops']} ops")
    if args.trace:
        metrics = result["metrics"]
        print(f"spans written to {os.path.relpath(result['spans_file'])}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s_p50": {"value": s["op_s_p50"], "unit": "s"},
            "op_s_tail": {"value": s["op_s_tail"], "unit": "s"},
            "ops_per_s": {"value": s["ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"setup_s is the median of {len(setups)} set-ups: "
              + ", ".join(f"{x:.3f}" for x in setups))
        print(f"op_s_tail is p{s['op_s_tail_pct']:.0f} of {s['ops']} ops"
              + ("" if s["ops"] >= 20 else " (fewer than 20 ops: the slowest op)"))
        print(f"paths_per_s {s['paths_per_s']:.1f} 1/s, failed_share {s['failed_share']:.4f}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": s["correct"], "attempted": s["ops"], "failed": s["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
