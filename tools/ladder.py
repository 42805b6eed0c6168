"""Depth ladder for the certificate engine, one fresh process per rung.

Each rung builds one shipped document at one depth and runs
``run_certificate`` on it, in a child process of its own, and reports
the build and certificate wall times, the child's peak RSS (from
``resource``) and the size of the certificate as ``jsonio`` writes it.
Doubling the depth of ``chain_k2`` doubles its sum graph; two more
levels of ``c3_k2`` do the same.  ``doubling`` is a rung's certificate
time over the previous rung's.

    python tools/ladder.py --run "format 1=../parent-checkout" --run "format 2=." \\
        --out BENCH_1.json

Each ``--run LABEL=ROOT`` names a checkout whose ``src/`` the children
import, so one copy of this script compares commits.  The checkouts take
turns on every rung, ``REPEAT`` times, and the report keeps each run's
medians: a host whose speed drifts over the ladder moves every run alike.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# (document, depths, R, r)
LADDER = (
    ("chain_k2", (200, 400, 800, 1600), 2, 10),
    ("c3_k2", (12, 14, 16, 18), 0, 4),
)
# samples per rung and checkout; a rung's times and RSS are their medians
REPEAT = 5


def run_rung(name: str, depth: int, R: int, r: int) -> dict:
    """Child side: build, certify and measure one rung in this process."""
    import resource
    import time

    from asdimforge import amalgam, fixtures, jsonio, theorem

    make = {"chain_k2": fixtures.chain_spec_doc, "c3_k2": fixtures.triangle_spec_doc}[name]
    t0 = time.perf_counter()
    br = amalgam.build(amalgam.AmalgamationSpec.from_json_dict(make(depth)))
    t1 = time.perf_counter()
    cert = theorem.run_certificate(br, theorem.ProofParameters(R=R, r=r, depth=depth))
    t2 = time.perf_counter()
    text = jsonio.dumps(cert.to_json_dict())
    return {"sum_vertices": len(br.sum.graph), "build_s": round(t1 - t0, 3),
            "certificate_s": round(t2 - t1, 3),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "certificate_bytes": len(text.encode()), "verdict": cert.verdict}


def sample(root: Path, name: str, depth: int, R: int, r: int) -> dict:
    """Parent side: one rung in a fresh child importing ``root/src``."""
    out = subprocess.run(
        [sys.executable, __file__, "--rung", name, str(depth), str(R), str(r)],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, check=True, timeout=600)
    return json.loads(out.stdout)


def run_ladder(roots: dict[str, Path]) -> dict[str, list[dict]]:
    rows: dict[str, list[dict]] = {label: [] for label in roots}
    for name, depths, R, r in LADDER:
        for depth in depths:
            samples: dict[str, list[dict]] = {label: [] for label in roots}
            for _ in range(REPEAT):
                for label, root in roots.items():
                    samples[label].append(sample(root, name, depth, R, r))
            for label, got in samples.items():
                row = {"build": name, "depth": depth, "R": R, "r": r}
                for key, value in got[0].items():
                    row[key] = statistics.median(s[key] for s in got) \
                        if isinstance(value, float) else value
                previous = rows[label][-1] if rows[label] else None
                row["doubling"] = None if previous is None or previous["build"] != name \
                    else round(row["certificate_s"] / max(previous["certificate_s"], 1e-3), 2)
                rows[label].append(row)
                print(label, json.dumps(row), file=sys.stderr, flush=True)
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--rung"]:  # a child: one rung, printed as JSON
        name, depth, R, r = argv[1:]
        print(json.dumps(run_rung(name, int(depth), int(R), int(r))))
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--run", action="append", required=True, metavar="LABEL=ROOT",
                   help="a checkout to measure and its label in the report")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    roots = {}
    for spec in args.run:
        label, sep, root = spec.partition("=")
        if not sep or not label:
            p.error(f"--run wants LABEL=ROOT, not {spec!r}")
        roots[label] = Path(root).resolve()
    doc = {"ladder": "run_certificate per rung, each sample in a fresh process",
           "host": {"python": platform.python_version(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
           "repeat": REPEAT,
           "runs": {label: {"rungs": rungs} for label, rungs in run_ladder(roots).items()}}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
