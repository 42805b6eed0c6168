"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload certify_chain --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it byte-compiles ``src/asdimforge``
there and runs every measurement in fresh child processes
(``perfbench/child.py``), all inside ``.bench_work/``.  With
``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run and the
tracing overhead.  The last line of standard output is the result; the
line before it holds the run's details (environment, op count, checks,
dominant layer).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("certify_chain", "certify_branching", "shipped_suite", "small_covers")

# Fresh set-up-only children per untraced run, half before and half
# after the measuring child, so that they span the run; with the
# measuring child they give the samples whose median is setup_s.
SETUP_SAMPLES = 10
# setup_s is given in seconds on a host where child.reference_loop takes
# this long: each set-up sample is scaled by this over the loop time the
# child measures right after its set-up, so that the host's drifting
# speed cancels as it does in op_p50_norm.
REF_NOMINAL_S = 0.001
# A run must finish within this many seconds beyond --seconds: the
# build, the set-up children, one op past the end of the timed loop and
# the checks all fit in it several times over.
RUN_MARGIN_S = 145

# The time metric each workload's traced run is expected to be led by.
PREDICTED_DOMINANT = {
    "certify_chain": "theorem.separation_s",
    "certify_branching": "covers.greedy_s",
    "shipped_suite": "graphs.fit_s",
    "small_covers": "covers.oracle_s",
}


class BenchError(Exception):
    pass


def _commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git directly."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(pkg: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(pkg.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + args.seconds + RUN_MARGIN_S
        self.hash_seed = random.Random(args.seed).randrange(2 ** 32)
        self.work = root / ".bench_work"
        self.rundir = self.work / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        self.env = dict(os.environ,
                        PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED=str(self.hash_seed),
                        ASDIM_FORGE_THREADS="1")

    def build(self):
        """Byte-compile the package so every child imports it the same way."""
        done = subprocess.run([sys.executable, "-m", "compileall", "-q",
                               str(self.root / "src" / "asdimforge")],
                              env=self.env, stdout=subprocess.DEVNULL,
                              timeout=self._left())
        if done.returncode != 0:
            raise BenchError("byte-compiling src/asdimforge failed")

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline passed")
        return left

    def child(self, mode: str, seconds: float, n: int) -> tuple[float, float, dict | None]:
        """Start one child; return its set-up seconds, the loop time right
        after its set-up, and its result (None for set-up only)."""
        workdir = self.rundir / f"{mode}{n}"
        workdir.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", repr(seconds), "--size", self.args.size,
               "--mode", mode, "--workdir", str(workdir)]
        if mode == "trace":
            cmd += ["--trace-out", str(self.work / f"trace_{self.args.workload}.json")]
        t0 = time.perf_counter()
        # unbuffered, so that communicate() gets every byte after READY
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, bufsize=0)
        try:
            first = b""
            while not first.endswith(b"\n") and (byte := proc.stdout.read(1)):
                first += byte
            setup_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=self._left())
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        lines = rest.decode().strip().splitlines()
        if first.strip() != b"READY" or proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} child exited with {proc.returncode}")
        tag, _, ref = lines[0].partition(" ")
        if tag != "REF":
            raise BenchError(f"{mode} child printed no loop time")
        if mode == "setup":
            return setup_s, float(ref), None
        if len(lines) < 2:
            raise BenchError(f"{mode} child printed no result")
        return setup_s, float(ref), json.loads(lines[-1])

    def environment(self) -> dict:
        return {"python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "cpu_count": os.cpu_count(),
                "platform": platform.platform(),
                "commit": _commit(self.root),
                "source_sha256": _source_digest(self.root / "src" / "asdimforge"),
                "workload_seed": self.args.seed,
                "hash_seed": self.hash_seed}

    def untraced(self) -> tuple[dict, dict, list[dict]]:
        half = SETUP_SAMPLES // 2
        setups = [self.child("setup", 0, i)[:2] for i in range(half)]
        setup_s, ref_s, res = self.child("measure", self.args.seconds, 0)
        setups.append((setup_s, ref_s))
        setups += [self.child("setup", 0, i)[:2] for i in range(half, SETUP_SAMPLES)]
        scaled = [raw * REF_NOMINAL_S / ref for raw, ref in setups]
        metrics = {"setup_s": (statistics.median(scaled), "s"),
                   "op_p50_norm": (res["op_p50_norm"], "ref"),
                   "peak_rss_mb": (res["peak_rss_mb"], "MB")}
        details = {"setup_samples_s": scaled,
                   "setup_raw_s": [raw for raw, _ in setups],
                   "setup_raw_median_s": statistics.median(raw for raw, _ in setups),
                   "setup_ref_loop_s": [ref for _, ref in setups],
                   "measure": res}
        return metrics, details, [res]

    def traced(self) -> tuple[dict, dict, list[dict]]:
        """Untraced then traced child, half the time each; per-layer metrics."""
        half = self.args.seconds / 2
        *_, plain = self.child("measure", half, 0)
        *_, traced = self.child("trace", half, 0)
        metrics = {name: (value, tracer.UNITS[name])
                   for name, value in traced["layers"].items()}
        overhead = traced["wall_s"] - plain["wall_s"]
        metrics["trace.overhead_s"] = (overhead, "s/op")
        dominant = max(tracer.TIME_METRICS, key=traced["layers"].get)
        predicted = PREDICTED_DOMINANT[self.args.workload]
        details = {
            "untraced": plain, "traced": traced,
            "tracing_overhead_s_per_op": overhead,
            "tracing_overhead_share": overhead / plain["wall_s"],
            "tracing_overhead_share_normalized":
                traced["op_p50_norm"] / plain["op_p50_norm"] - 1,
            "dominant_layer": next(iter(traced["layer_self_s"])),
            "dominant_metric": dominant,
            "predicted_dominant_metric": predicted,
            "prediction_met": dominant == predicted,
        }
        return metrics, details, [plain, traced]

    def run(self) -> dict:
        try:
            self.build()
            metrics, details, children = self.traced() if self.args.trace else self.untraced()
        finally:
            shutil.rmtree(self.rundir, ignore_errors=True)
        ops = sum(c["ops"] for c in children)
        failed = sum(c["failed"] for c in children)
        print(json.dumps({"details": {"workload": self.args.workload,
                                      "size": self.args.size,
                                      "environment": self.environment(),
                                      "ops": ops, "ops_failed": failed, **details}}))
        return {"correct": failed == 0, "attempted": ops, "failed": failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs, for the benchmark's own test")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    root = Path.cwd()
    if not (root / "src" / "asdimforge" / "__init__.py").is_file():
        print("error: run from the repository root; src/asdimforge not found",
              file=sys.stderr)
        return 2
    try:
        result = Runner(root, args).run()
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
