"""Workload process: set up sbmpot, run ops in-process, report one JSON line.

Started by run.py in a fresh interpreter, one workload at a time.  After
``import sbmpot`` and the warm-up it prints ``READY <stolen_s> <tick_s>``
(see below); run.py times set-up from process start to that line.  Then it
runs the measured pass and prints its result as a JSON line.

* untraced pass (``--trace 0``): the run's rounds of ops, timed.
* traced pass (``--trace 1``): the first round of ops, each run twice in a
  row, once with no wrappers and once with spans; the summed difference of
  the two is the tracing overhead.  Running the pair back to back keeps
  host drift out of the difference.  The warm-up is traced too, since it
  builds the lazy tables.  Times here are raw, not scaled.

The op list depends only on the seed and ``--seconds``, so counts and
digests repeat exactly between runs.

Verification, digests and file clean-up happen outside the timed region.

Host speed: the 2-core host this benchmark was built on changes speed by up
to 2x, in phases from seconds to minutes, and CPU time moves with wall time,
so raw timings of one build differ by more than any useful bound.  An
untraced worker therefore samples the host speed all along: every
TICK_INTERVAL_S a real-time timer signal runs ``speed_kernel``, a fixed 1 ms
kernel of the two kinds of work sbmpot spends its time in (numpy integer ops
on 1024-element arrays driven from a Python loop, and scalar float
arithmetic in Python).  The time the ticks take is subtracted from every
timing, and each timing is scaled to the reference host speed by
REFERENCE_TICK_S / the mean tick taken during the timed interval (see
``SpeedSampler.tick_s``).  Raw times are kept in the results.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import warnings

import numpy as np

import workloads
from tracing import EXACT_COUNTS, Tracer, install, layer_metrics


# Seconds speed_kernel() takes on the 2-core reference host at its usual speed.
REFERENCE_TICK_S = 0.001
TICK_INTERVAL_S = 0.025
MIN_TICKS = 5


def speed_kernel() -> float:
    start = time.perf_counter()
    a = np.arange(1, 1025, dtype=np.uint64)
    b = np.arange(7, 1031, dtype=np.uint64)
    mul, shift = np.uint64(0xD2511F53), np.uint64(32)
    for _ in range(50):
        prod = mul * a
        a = ((prod >> shift).astype(np.uint32) ^ b.astype(np.uint32)).astype(np.uint64)
        b = prod.astype(np.uint32).astype(np.uint64)
    x = 0.0
    for i in range(2500):
        x += (i * 0.5) ** 0.5 / (1.0 + i)
    return time.perf_counter() - start


class SpeedSampler:
    """Host speed ticks on SIGALRM, and the wall time they took."""

    def __init__(self):
        self.ticks: list = []  # (perf_counter at tick start, kernel seconds)
        self.stolen = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.ticks.append((start, speed_kernel()))
        self.stolen += time.perf_counter() - start
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def tick_s(self, start: float, end: float) -> float:
        """Mean tick during [start, end], or of the MIN_TICKS ticks nearest
        to it if fewer fell in it, without the fastest and slowest tenth.
        The closer in time the ticks are to the op, the better they track
        its speed."""
        times = [t for t, _ in self.ticks]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        while hi - lo < MIN_TICKS and (lo > 0 or hi < len(times)):
            if lo > 0 and (hi == len(times) or start - times[lo - 1] < times[hi] - end):
                lo -= 1
            else:
                hi += 1
        ticks = sorted(k for _, k in self.ticks[lo:hi])
        cut = len(ticks) // 10
        return statistics.mean(ticks[cut:len(ticks) - cut])


SAMPLER = SpeedSampler()


def _parse(path: str) -> list:
    if path.endswith(".json"):
        with open(path) as fh:
            return [{k: str(v).lower() if isinstance(v, bool) else v for k, v in rec.items()}
                    for rec in json.load(fh)]
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_op(cli, op: workloads.Op, workdir: str, index: int, tracer=None) -> dict:
    """Run one op; only the cli.main call is timed, and only it is traced."""
    path = os.path.join(workdir, f"op{index}.csv")
    err = io.StringIO()
    crash = None
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        if tracer:
            install(tracer)
        stolen = SAMPLER.stolen
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv + ["--output", path])
        except Exception as exc:  # a crash is a failed op, not a benchmark error
            rc, crash = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if tracer:
            tracer.uninstall()

    artifact = None
    if os.path.exists(path):
        with open(path, "rb") as fh:
            artifact = fh.read()
    oracle = None
    # a check the program itself failed is a failure, not a wrong output
    delivered = rc == 0 or (rc == 1 and op.expect == "verdict")
    if delivered and artifact is not None:
        try:
            oracle = op.oracle(_parse(path))
        except (KeyError, ValueError, IndexError) as exc:
            oracle = f"unreadable output: {exc!r}"

    if crash:
        failure = f"raised {crash}"
    elif rc not in (0, 1):
        failure = f"exit {rc}: " + (err.getvalue().strip().splitlines() or [""])[-1][:200]
    elif rc == 1 and op.expect == "pass":
        failure = "check expected to pass returned 1"
    elif oracle:
        failure = f"output misses its bound: {oracle}"
    elif rc == 0 and caught:
        w = caught[0]
        failure = f"warning leaked with exit 0: {w.category.__name__}: {' '.join(str(w.message).split())[:120]}"
    else:
        failure = None

    for leftover in (path, path + ".manifest.json"):
        if os.path.exists(leftover):
            os.remove(leftover)
    digest = hashlib.sha256(artifact).hexdigest() if artifact is not None else "none"
    return {"index": index, "shape": op.shape, "argv": op.argv, "rc": rc,
            "start": start, "end": end, "seconds": end - start - (SAMPLER.stolen - stolen),
            "paths": op.paths, "digest": digest, "failure": failure, "incorrect": oracle is not None}


def combined_digest(records: list) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(f"{rec['rc']}:{rec['digest']}\n".encode())
    return h.hexdigest()


def summarize(records: list, scaled: bool = True) -> dict:
    """Run figures; with ``scaled``, op times are scaled to the reference
    host speed (the records gain their ``tick_s``)."""
    for rec in records:
        rec["scaled_s"] = rec["seconds"]
        if scaled:
            rec["tick_s"] = SAMPLER.tick_s(rec["start"], rec["end"])
            rec["scaled_s"] *= REFERENCE_TICK_S / rec["tick_s"]
    times = sorted(rec["scaled_s"] for rec in records)
    n, wall = len(times), sum(times)
    if n >= 20:
        # the highest percentile with at least ten ops beyond it
        tail, tail_pct = times[n - 11], 100.0 * (n - 10) / n
    else:
        tail, tail_pct = times[-1], 100.0
    failed = sum(rec["failure"] is not None for rec in records)
    return {
        "ops": n,
        "raw_wall_s": sum(rec["seconds"] for rec in records),
        "wall_s": wall,
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail,
        "op_s_tail_pct": tail_pct,
        "ops_per_s": n / wall,
        "paths_per_s": sum(rec["paths"] for rec in records) / wall,
        "failed": failed,
        "failed_share": failed / n,
        "correct": not any(rec["incorrect"] for rec in records),
        "digest": combined_digest(records),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    started = time.perf_counter()
    tracer = Tracer() if args.trace else None
    if not tracer:
        SAMPLER.start()
    from sbmpot import cli

    workdir = tempfile.mkdtemp(prefix="ops-", dir=args.out)
    try:
        if tracer:
            tracer.op_id = "setup"
        for index, argv in enumerate(workloads.warmup(args.workload)):
            run_op(cli, workloads.Op("warmup", argv, lambda recs: None, expect="verdict"),
                   workdir, index, tracer)
        ready = time.perf_counter()
        tick = SAMPLER.tick_s(started, ready) if SAMPLER.ticks else REFERENCE_TICK_S
        print("READY", SAMPLER.stolen, tick, flush=True)
        if args.setup_only:
            return 0

        generated = workloads.rounds(args.workload, args.seed)
        # the traced pass runs each op twice, so it takes the first round only
        rounds = 1 if tracer else workloads.rounds_per_run(args.workload, args.seconds)
        ops = [op for _ in range(rounds) for op in next(generated)]
        if not tracer:
            records = [run_op(cli, op, workdir, i) for i, op in enumerate(ops)]
            result = {"summary": summarize(records), "ops": records}
        else:
            plain, traced = [], []
            for i, op in enumerate(ops):
                plain.append(run_op(cli, op, workdir, i))
                tracer.op_id = i
                traced.append(run_op(cli, op, workdir, i, tracer))
            metrics = layer_metrics(tracer)
            plain_s = summarize(plain, scaled=False)
            traced_s = summarize(traced, scaled=False)
            # tracing must not change a single artifact byte
            traced_s["correct"] = traced_s["correct"] and traced_s["digest"] == plain_s["digest"]
            metrics["montecarlo.paths_per_s"] = (plain_s["paths_per_s"], "1/s")
            metrics["trace.overhead_s"] = (traced_s["wall_s"] - plain_s["wall_s"], "s")
            spans_path = os.path.join(args.out, f"{args.workload}-seed{args.seed}-spans.jsonl")
            tracer.write(spans_path)
            result = {
                "summary": traced_s,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "exact_counts": {k: metrics[k][0] for k in EXACT_COUNTS},
                "spans_file": spans_path,
                "ops": traced,
            }
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result), flush=True)
        return 0
    finally:
        SAMPLER.stop()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
