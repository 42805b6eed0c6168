"""One benchmark process: set up a workload, then run its ops for a while.

Started by ``run.py`` in a fresh interpreter, one per set-up sample and
one per measured or traced run.  It prints ``READY`` once its inputs
exist (the parent times set-up up to that line), then ``REF`` and the
time of the reference loop, and, unless it only sets up, one JSON line
with the run's results.  The program's own output
goes to a buffer inside each op.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS  # imports asdimforge: part of set-up


# The host's speed drifts by tens of percent within seconds, for all
# code alike.  A speed probe measures that drift while the ops run: an
# interval timer interrupts the process every PROBE_PERIOD_S and its
# handler times a fixed pure-Python loop.  Each op's latency, less the
# time spent in the handler, divided by the median loop time sampled
# during that op (padded with the latest earlier samples to at least
# PROBE_MIN_SAMPLES) is the op's normalized cost.
PROBE_LOOP = 10_000
PROBE_PERIOD_S = 0.1
PROBE_MIN_SAMPLES = 5
# Loop samples taken right after set-up, for setup_s.
SETUP_REF_SAMPLES = 11


def reference_loop() -> float:
    """Seconds one fixed arithmetic loop takes right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples ``reference_loop`` from a SIGALRM handler; no thread is started."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0        # seconds spent in the handler so far

    def sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - t0

    def start(self):
        for _ in range(PROBE_MIN_SAMPLES):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def reference(self, since: int) -> float:
        """Median loop time over the samples from index ``since`` on, padded."""
        n = len(self.samples)
        return statistics.median(self.samples[min(since, n - PROBE_MIN_SAMPLES):])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out", default=None)
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload](Path(args.workdir), args.seed, args.size)
    workload.setup()
    print("READY", flush=True)
    # the host's speed right after set-up, which run.py scales setup_s by
    print("REF", repr(statistics.median(reference_loop() for _ in range(SETUP_REF_SAMPLES))),
          flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    latencies: list[float] = []
    normalized: list[float] = []
    failed = 0
    problems: list[str] = []
    probe = SpeedProbe()
    probe.start()
    start = time.perf_counter()
    deadline = start + args.seconds
    k = 0
    while True:
        if tracer is not None:
            tracer.begin_op(k)
        n0, spent0 = len(probe.samples), probe.spent
        t0 = time.perf_counter()
        try:
            result = workload.op(k)
            error = None
        except Exception:  # an op that raises is a failed op, not a crash
            result, error = None, traceback.format_exc(limit=3)
        t1, spent1 = time.perf_counter(), probe.spent
        latency = t1 - t0 - (spent1 - spent0)
        if tracer is not None:
            tracer.end_op()
        latencies.append(latency)
        normalized.append(latency / probe.reference(n0))
        try:
            found = [error] if error else workload.check(k, result)
        except Exception:
            found = [traceback.format_exc(limit=3)]
        if found:
            failed += 1
            problems.extend(f"op {k}: {line}" for line in found[:2])
        workload.cleanup(k)
        k += 1
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    probe.stop()

    out = {
        "ops": k,
        "failed": failed,
        "problems": problems[:10],
        "wall_s": wall / k,
        "op_p50_norm": statistics.median(normalized),
        "ref_loop_s": statistics.median(probe.samples),
        "probe_samples": len(probe.samples),
        "probe_s": probe.spent,
        "op_best_s": min(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_p99_s": percentile(latencies, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "threads": threading.active_count(),
        "info": workload.info,
    }
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        out["layer_self_s"] = tracing.layer_self_times(tracer)
        for key, per_span in (("top_spans_self_s", tracer.self_s),
                              ("top_spans_total_s", tracer.total_s)):
            out[key] = dict(sorted(((name, s / k) for name, s in per_span.items()),
                                   key=lambda kv: -kv[1])[:8])
        if args.trace_out:
            tracer.write(Path(args.trace_out),
                         {"workload": args.workload, "seed": args.seed, "ops": k})
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
