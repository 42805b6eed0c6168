"""Depth ladders for the certificate engine and the ``build`` report,
one fresh process per rung.

Each certificate rung builds one shipped document at one depth, or the
m-by-m torus of ``torus_spec_doc`` (m = 8, 12, 16), and runs
``run_certificate`` on it, in a child process of its own, and reports
the build and certificate wall times, the build's parts in the
connecting tree (``tree_s``) and the sum graph (``sum_s``), which
report rungs split out too, the time ``jsonio.write_json`` takes to
write the certificate to a file in a temporary directory, as the CLI
writes it (``write_s``), the child's peak RSS (from ``resource``) and
the size of that file.  It splits out the parts
of the certificate's time spent in the symmetry maps (``maps_s``,
``theorem.build_symmetry_map``, the fringe maps of ``base_blocks``
included), the block keys (``shapes_s``, the whole of
``theorem.block_keys``, its memo included), the partition
(``partition_s``, ``theorem.assemble_partition``) and the separation
check (``separation_s``, ``theorem.verify_separation``), and counts the
greedy witnesses it runs (``greedy_runs``: one per block shape, and one
for the boundary cover) and the ball walks of the key step
(``shape_walks``, the ``theorem.block_shape`` calls); ``sha256`` digests the
certificate file's bytes, so checkouts that write the same certificate show
the same digest.
Each report rung does the same with ``cli.build_report``, the projection
check and distortion fit that ``build`` writes, and splits out the parts
of its time spent in the contraction to the glued graph (``contract_s``,
``amalgam.contract_to_amalgam``), in the check (``check_s``,
``cli.projection_report``) and in the fit (``fit_s``,
``theorem.projection_fit``), and writes the report to a file the same
way; ``sha256`` digests that file's bytes.
Doubling the
depth of ``chain_k2`` doubles its sum graph; two more levels of
``c3_k2`` do the same.  Each oracle rung runs the exact oracle as the
``small_covers`` workload does, ``covers.exact_min_families`` and then
``covers.exact_min_bound`` at that family count, at r = 2 and 3, over a
fixed seeded batch of random connected graphs of one size
(``oracle_s``), and then ``covers.greedy_witness`` on the same views at
the same scales, with the family count the oracle found (``greedy_s``);
``answers`` and ``greedy_answers`` are sha256 digests of every oracle
and greedy answer, so checkouts that agree show the same digests.  The
import rung times ``import asdimforge.cli`` (``import_s``) in a bare
interpreter, which has loaded nothing of its own before the clock starts
beyond ``sys`` and ``time``; it counts the modules the import loads
(``modules_loaded``) and times the whole child process, interpreter
start-up included (``process_s``).  The corpus rung certifies the seeded
random batch of ``random_spec_doc`` specs (``CORPUS``) and records its
class counts, its FAIL indices and one sha256 over every certificate
(``run_corpus``), and its time (``corpus_s``).  ``doubling`` is a rung's certificate
(report, oracle) time over the previous rung's.  Each checkout's entry
also records ``src_lines``, the line count of its ``src/asdimforge/*.py``
as ``wc -l`` gives it, so a change's size reads off the same file.

Given two checkouts, each certificate and report rung also runs them
side by side in one child process, which loads both checkouts'
``src/asdimforge`` under distinct package names.  It alternates one op
of each, the order flipping every pair, for ``PAIR_SECONDS`` and at
least ``PAIR_LEAST`` (ten) pairs, so a slow rung still has ten ratios
to take the median of: after the spec is parsed, the build, then
``run_certificate`` (or ``cli.build_report``), then ``jsonio.write_json``
into a temporary directory.
The second checkout's row records ``pair_ratio``, the median of its op
time over the first's, and ``pair_wins``, the pairs in which its op was
faster, of ``pairs``.  The two ops of a pair meet the same host speed,
so these resolve a change that the drift between fresh processes hides.

    python tools/ladder.py --run "parent=../parent-checkout" --run "change=." \\
        --out BENCH_11.json

Each ``--run LABEL=ROOT`` names a checkout whose ``src/`` the children
import, so one copy of this script compares commits.  Each checkout's
``src/`` is byte-compiled before its first child, so no child pays for
compiling stale or missing bytecode.  The checkouts take turns on every
rung, ``REPEAT`` times, and the report keeps each timing's and RSS's
median, with ``<key>_range`` holding the least and largest sample: a
host whose speed drifts over the ladder moves every run alike, and the
ranges show by how much.  Each child collects garbage just before its
first timed step, so a collection that its imports set off does not
land inside a timing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# (document, depths, R, r) of the certificate ladder; ``torus<m>_k2`` is
# the m-by-m torus of ``torus_spec_doc``
LADDER = (
    ("chain_k2", (200, 400, 800, 1600), 2, 10),
    ("c3_k2", (12, 14, 16, 18), 0, 4),
    ("torus8_k2", (12,), 1, 6),
    ("torus12_k2", (12,), 1, 6),
    ("torus16_k2", (12,), 1, 6),
)
# (document, depths) of the build report ladder
REPORT_LADDER = (
    ("chain_k2", (100, 200, 400, 800, 1600, 3200, 6400)),
    ("c3_k2", (10, 12, 14, 16, 18, 20)),
)
# (vertices, graphs) of the oracle ladder: batches of seeded random
# connected graphs, each sized to take at least 0.2 s (0.44-0.56 s on a
# 2-CPU VM at commit eddb63c)
ORACLE_LADDER = ((8, 1200), (10, 800), (12, 640))
# what an import rung's child runs: the cold start of the command line
IMPORT_PROBE = """\
import sys, time
before = len(sys.modules)
start = time.perf_counter()
import asdimforge.cli
spent = time.perf_counter() - start
print('{"import_s": %.5f, "modules_loaded": %d}' % (spent, len(sys.modules) - before))
"""
# (seed, specs, depth, R, r) of the seeded random batch: ``random_spec_doc``
# specs, each built at the depth and certified at (R, r)
CORPUS = (2026, 300, 12, 1, 6)
# samples per rung and checkout; a rung's times and RSS are their medians,
# next to their ranges
REPEAT = 5
# how long, and for at least how many pairs, two checkouts alternate on a
# certificate or report rung in one process
PAIR_SECONDS = 10
PAIR_LEAST = 10


def torus_spec_doc(m: int, depth: int) -> dict:
    """The m-by-m torus glued to an edge at (0,0) and at (m/2,m/2), with
    the edge's labels kept apart from the torus's, and declared of asdim 2.

    The torus acts by the shift by (m/2,m/2), the negation and the
    transpose, the symmetries that keep the two glued corners as a pair;
    the edge by its swap.  Not a shipped document.
    """
    h = m // 2

    def at(i: int, j: int) -> str:
        return f"t{i % m}_{j % m}"
    cells = [(i, j) for i in range(m) for j in range(m)]
    torus = {"vertices": [at(i, j) for i, j in cells],
             "edges": [[at(i, j), at(i + di, j + dj)] for i, j in cells
                       for di, dj in ((1, 0), (0, 1))]}
    corners = {"0": at(0, 0), "1": at(h, h)}
    return {
        "name": f"torus{m}_k2",
        "factors": [torus, {"vertices": ["x", "y"], "edges": [["x", "y"]]}],
        "adhesions": [{k: [v] for k, v in corners.items()}, {"x": ["x"], "y": ["y"]}],
        "atlas": [{"left": k, "right": l, "pairs": [[v, l]]}
                  for k, v in corners.items() for l in ("x", "y")],
        "tree": {"p1": 2, "p2": 2, "depth": depth},
        "actions": {"mode": "generators",
                    "factor1": [{at(i, j): at(i + h, j + h) for i, j in cells},
                                {at(i, j): at(-i, -j) for i, j in cells},
                                {at(i, j): at(j, i) for i, j in cells}],
                    "factor2": [{"x": "y", "y": "x"}]},
        "asdim": {"factor1": 2, "factor2": 0, "adhesion": 0},
    }


def random_spec_doc(rng) -> dict:
    """Two random connected factors glued along random equal-size boundary
    sets: sets of two or three vertices give paths that leave a copy and
    come back through a neighbouring one.  Not a shipped document."""
    def factor(n, extra, prefix):
        names = [f"{prefix}{i}" for i in range(n)]
        edges = {(names[rng.randrange(i)], names[i]) for i in range(1, n)}
        for _ in range(extra if n > 1 else 0):
            x, y = rng.sample(names, 2)
            if (y, x) not in edges:
                edges.add((x, y))
        return {"vertices": names, "edges": [list(e) for e in sorted(edges)]}

    k = rng.randint(1, 3)
    g1 = factor(rng.randint(k, 8), rng.randint(0, 4), "a")
    g2 = factor(rng.randint(k, 6), rng.randint(0, 3), "b")
    adh1 = {str(i): rng.sample(g1["vertices"], k) for i in range(rng.randint(1, 3))}
    adh2 = {chr(ord("x") + i): rng.sample(g2["vertices"], k)
            for i in range(rng.randint(1, 3))}
    atlas = [{"left": l1, "right": l2,
              "pairs": [list(xy) for xy in zip(xs, rng.sample(ys, k))]}
             for l1, xs in adh1.items() for l2, ys in adh2.items()]
    return {"name": "random", "factors": [g1, g2], "adhesions": [adh1, adh2],
            "atlas": atlas, "actions": {"mode": "trivial"},
            "tree": {"p1": len(adh1), "p2": len(adh2), "depth": rng.randint(0, 4)}}


def run_corpus(seed: int, count: int, depth: int, R: int, r: int) -> dict:
    """Child side: the seeded random batch, each spec built at ``depth`` and
    certified at (R, r) in this process.

    Each spec ends in one class: ``pass`` or ``fail`` (the verdict),
    ``precondition`` (a ``PreconditionError`` on the way) or ``other``
    (any other exception, named in ``errors``).  ``fail_indices`` lists
    the FAILs by index in the batch, and ``sha256`` digests every
    certificate's bytes, as ``jsonio.dump`` writes them, in batch order
    (``corpus_s`` times it all).
    """
    import io
    import random
    import time

    from asdimforge import amalgam, jsonio, theorem
    from asdimforge.errors import PreconditionError

    rng = random.Random(seed)
    docs = [random_spec_doc(rng) for _ in range(count)]
    classes = dict.fromkeys(("pass", "fail", "precondition", "other"), 0)
    failed, errors, digest = [], [], hashlib.sha256()
    gc.collect()
    start = time.perf_counter()
    for i, doc in enumerate(docs):
        try:
            br = amalgam.build(amalgam.AmalgamationSpec.from_json_dict(doc), depth)
            cert = theorem.run_certificate(br, theorem.ProofParameters(R=R, r=r, depth=depth))
        except PreconditionError:
            classes["precondition"] += 1
            continue
        except Exception as exc:  # named, so a batch that breaks shows where
            classes["other"] += 1
            errors.append(f"{i}: {type(exc).__name__}: {exc}")
            continue
        text = io.StringIO()
        jsonio.dump(cert.to_json_dict(), text)
        digest.update(text.getvalue().encode())
        classes["pass" if cert.passed() else "fail"] += 1
        if not cert.passed():
            failed.append(i)
    return {"corpus_s": round(time.perf_counter() - start, 3), **classes,
            "fail_indices": failed, "errors": errors, "sha256": digest.hexdigest()}


def _spec_doc(fixtures, name: str, depth: int) -> dict:
    """One rung's document, from a checkout's ``fixtures`` module."""
    if name.startswith("torus"):
        return torus_spec_doc(int(name[len("torus"):-len("_k2")]), depth)
    return {"chain_k2": fixtures.chain_spec_doc, "c3_k2": fixtures.triangle_spec_doc}[name](depth)


def _build(name: str, depth: int, spent: dict):
    """Build one rung, adding the tree's and the sum graph's build times to
    ``spent`` as ``tree_s`` and ``sum_s``."""
    from asdimforge import amalgam, fixtures

    doc = _spec_doc(fixtures, name, depth)
    # ``build`` reaches both through ``amalgam``'s own names
    amalgam.build_connecting_tree = _timer(spent, "tree_s", amalgam.build_connecting_tree)
    amalgam.build_sum_graph = _timer(spent, "sum_s", amalgam.build_sum_graph)
    return amalgam.build(amalgam.AmalgamationSpec.from_json_dict(doc))


def _peak_rss_mb() -> float:
    import resource

    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _timer(spent: dict, key: str, step):
    """``step`` wrapped to add its wall time to ``spent[key]``."""
    import time

    def run(*args):
        start = time.perf_counter()
        try:
            return step(*args)
        finally:
            spent[key] += time.perf_counter() - start
    return run


def _write_artifact(jsonio, doc) -> tuple[float, float, int, str]:
    """Write ``doc`` as the CLI writes an artifact, with ``jsonio.write_json``
    to a file in a new temporary directory.  Returns the clock when the
    write ends, the peak RSS then, and the file's size and sha256, read a
    block at a time so that reading it back adds nothing to the peak."""
    import time

    with tempfile.TemporaryDirectory() as where:
        path = jsonio.write_json(Path(where) / "artifact.json", doc)
        end = time.perf_counter()
        peak = _peak_rss_mb()
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while block := fh.read(1 << 16):
                digest.update(block)
        return end, peak, path.stat().st_size, digest.hexdigest()


def run_rung(name: str, depth: int, R: int, r: int) -> dict:
    """Child side: build, certify and measure one rung in this process."""
    import time

    from asdimforge import jsonio, theorem

    spent = {"tree_s": 0.0, "sum_s": 0.0, "maps_s": 0.0, "shapes_s": 0.0, "partition_s": 0.0,
             "separation_s": 0.0}
    greedy, shape = theorem.greedy_witness, theorem.block_shape
    runs, walks = [], []
    # ``run_certificate`` reaches all of these through ``theorem``'s own
    # names; the key step is ``block_keys``, or in a checkout that predates
    # it the ``block_shape`` calls themselves
    theorem.block_shape = lambda *args: walks.append(args) or shape(*args)
    keys = "block_keys" if hasattr(theorem, "block_keys") else "block_shape"
    setattr(theorem, keys, _timer(spent, "shapes_s", getattr(theorem, keys)))
    theorem.build_symmetry_map = _timer(spent, "maps_s", theorem.build_symmetry_map)
    theorem.assemble_partition = _timer(spent, "partition_s", theorem.assemble_partition)
    theorem.verify_separation = _timer(spent, "separation_s", theorem.verify_separation)
    theorem.greedy_witness = lambda *args: runs.append(args) or greedy(*args)
    gc.collect()
    t0 = time.perf_counter()
    br = _build(name, depth, spent)
    t1 = time.perf_counter()
    cert = theorem.run_certificate(br, theorem.ProofParameters(R=R, r=r, depth=depth))
    t2 = time.perf_counter()
    t3, peak, size, digest = _write_artifact(jsonio, cert.to_json_dict())
    return {"sum_vertices": len(br.sum.graph), "build_s": round(t1 - t0, 3),
            "certificate_s": round(t2 - t1, 3),
            **{key: round(value, 4) for key, value in spent.items()},
            "greedy_runs": len(runs), "shape_walks": len(walks), "write_s": round(t3 - t2, 3),
            "peak_rss_mb": peak, "certificate_bytes": size, "verdict": cert.verdict,
            "sha256": digest}


def _load_checkout(root: Path, package: str):
    """``root/src/asdimforge`` imported as the package ``package``, with the
    modules a certificate or report op reads."""
    import importlib
    import importlib.util

    init = root / "src" / "asdimforge" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        package, init, submodule_search_locations=[str(init.parent)])
    module = sys.modules[package] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for part in ("amalgam", "cli", "fixtures", "jsonio", "theorem"):
        importlib.import_module(f"{package}.{part}")
    return module


def run_pairs(kind: str, name: str, depth: int, *radii_and_roots: str) -> dict:
    """Child side: one certificate or report rung's op of two checkouts,
    alternated in this process."""
    import time

    *radii, base, change = radii_and_roots
    packages = [_load_checkout(Path(root), f"checkout{i}")
                for i, root in enumerate((base, change))]
    where = tempfile.TemporaryDirectory()
    target = Path(where.name) / "op.json"

    def op(af) -> float:
        spec = af.amalgam.AmalgamationSpec.from_json_dict(_spec_doc(af.fixtures, name, depth))
        if kind == "certificate":
            R, r = map(int, radii)
            params = af.theorem.ProofParameters(R=R, r=r, depth=depth)

            def finish(br):
                return af.theorem.run_certificate(br, params).to_json_dict()
        else:
            finish = af.cli.build_report
        gc.collect()
        start = time.perf_counter()
        af.jsonio.write_json(target, finish(af.amalgam.build(spec)))
        return time.perf_counter() - start

    ratios: list[float] = []
    deadline = time.perf_counter() + PAIR_SECONDS
    while len(ratios) < PAIR_LEAST or time.perf_counter() < deadline:
        if len(ratios) % 2:
            after, before = op(packages[1]), op(packages[0])
        else:
            before, after = op(packages[0]), op(packages[1])
        ratios.append(after / before)
    where.cleanup()
    return {"pair_ratio": round(statistics.median(ratios), 4),
            "pair_wins": sum(x < 1 for x in ratios), "pairs": len(ratios)}


def run_report_rung(name: str, depth: int) -> dict:
    """Child side: build and report one rung as ``build`` does, in this process."""
    import time

    from asdimforge import amalgam, cli, jsonio

    spent = {"tree_s": 0.0, "sum_s": 0.0, "contract_s": 0.0, "check_s": 0.0, "fit_s": 0.0}
    # ``build_report`` reaches the check and the fit through ``cli``'s own
    # names, and the build result its contraction through ``amalgam``'s
    amalgam.contract_to_amalgam = _timer(spent, "contract_s", amalgam.contract_to_amalgam)
    cli.projection_report = _timer(spent, "check_s", cli.projection_report)
    cli.projection_fit = _timer(spent, "fit_s", cli.projection_fit)
    gc.collect()
    t0 = time.perf_counter()
    br = _build(name, depth, spent)
    t1 = time.perf_counter()
    report = cli.build_report(br)
    t2 = time.perf_counter()
    t3, peak, size, digest = _write_artifact(jsonio, report)
    ok = report["projection"]["ok"] and report["atlas"]["ok"]
    return {"sum_vertices": len(br.sum.graph), "build_s": round(t1 - t0, 3),
            "tree_s": round(spent["tree_s"], 4), "sum_s": round(spent["sum_s"], 4),
            "report_s": round(t2 - t1, 3), "contract_s": round(spent["contract_s"], 3),
            "check_s": round(spent["check_s"], 3),
            "fit_s": round(spent["fit_s"], 3), "write_s": round(t3 - t2, 3),
            "peak_rss_mb": peak, "report_bytes": size, "verdict": "PASS" if ok else "FAIL",
            "sha256": digest}


def _random_connected_graph(rng, size: int):
    """A random spanning tree on ``size`` vertices plus up to ``size`` chords."""
    from asdimforge import graphs

    names = [f"v{i:02d}" for i in range(size)]
    edges = [(names[i], names[rng.randrange(i)]) for i in range(1, size)]
    edges += [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, size))]
    return graphs.FiniteGraph(names, edges)


def run_oracle_rung(name: str, vertices: int, count: int) -> dict:
    """Child side: the exact oracle on one batch of random graphs, in this process."""
    import random
    import time

    from asdimforge import covers, graphs

    rng = random.Random(vertices)
    views = [graphs.MetricView(_random_connected_graph(rng, vertices)) for _ in range(count)]
    answers = []
    gc.collect()
    t0 = time.perf_counter()
    for view in views:
        for r in (2, 3):
            n = covers.exact_min_families(view, r)
            answers.append((r, n, covers.exact_min_bound(view, r, n)))
    t1 = time.perf_counter()
    greedy = [covers.greedy_witness(view, r, n)
              for view, (r, n, _) in zip((v for v in views for _ in (2, 3)), answers)]
    t2 = time.perf_counter()
    text = json.dumps([(r, n, w.to_json_dict()) for r, n, w in answers])
    greedy_text = json.dumps([(r, n, g.ok, g.colors_needed,
                               None if g.witness is None else g.witness.to_json_dict())
                              for (r, n, _), g in zip(answers, greedy)])
    return {"oracle_s": round(t1 - t0, 3), "greedy_s": round(t2 - t1, 3),
            "peak_rss_mb": _peak_rss_mb(),
            "answers": hashlib.sha256(text.encode()).hexdigest(),
            "greedy_answers": hashlib.sha256(greedy_text.encode()).hexdigest()}


def src_lines(root: Path) -> int:
    """Newlines in the checkout's ``src/asdimforge/*.py``."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "asdimforge").glob("*.py"))


def sample(root: Path, rung: tuple) -> dict:
    """Parent side: one rung in a fresh child importing ``root/src``."""
    import time

    probe = rung[0] == "import"
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE] if probe else
        [sys.executable, __file__, "--rung", *map(str, rung)],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, check=True, timeout=600)
    got = json.loads(out.stdout)
    if probe:
        got["process_s"] = round(time.perf_counter() - start, 4)
    return got


def sample_pairs(roots: dict[str, Path], rung: tuple) -> dict:
    """Parent side: a certificate or report rung's two checkouts alternated
    in one child."""
    out = subprocess.run(
        [sys.executable, __file__, "--rung", "pairs", *map(str, rung),
         *map(str, roots.values())],
        capture_output=True, text=True, check=True, timeout=600)
    return json.loads(out.stdout)


def run_ladder(roots: dict[str, Path], rungs: list[tuple], seconds: str) -> dict[str, list[dict]]:
    """Every rung ``(kind, document, depth, ...)`` on every checkout in turn;
    ``seconds`` names the timing that ``doubling`` compares."""
    rows: dict[str, list[dict]] = {label: [] for label in roots}
    for rung in rungs:
        samples: dict[str, list[dict]] = {label: [] for label in roots}
        for _ in range(REPEAT):
            for label, root in roots.items():
                samples[label].append(sample(root, rung))
        paired = sample_pairs(roots, rung) \
            if rung[0] in ("certificate", "report") and len(roots) == 2 else {}
        for label, got in samples.items():
            if rung[0] == "import":
                row = {"module": rung[1]}
            elif rung[0] == "oracle":
                row = {"build": rung[1], "vertices": rung[2], "graphs": rung[3]}
            elif rung[0] == "corpus":
                row = dict(zip(("seed", "specs", "depth", "R", "r"), rung[1:]))
            else:
                row = {"build": rung[1], "depth": rung[2]}
            if rung[0] == "certificate":
                row.update(R=rung[3], r=rung[4])
            for key, value in got[0].items():
                if isinstance(value, float):
                    values = [s[key] for s in got]
                    row[key] = statistics.median(values)
                    row[f"{key}_range"] = [min(values), max(values)]
                else:
                    row[key] = value
            if label == list(roots)[-1]:
                row.update(paired)
            previous = rows[label][-1] if rows[label] else None
            row["doubling"] = None if previous is None or previous.get("build") != row.get("build") \
                else round(row[seconds] / max(previous[seconds], 1e-3), 2)
            rows[label].append(row)
            print(label, rung[0], json.dumps(row), file=sys.stderr, flush=True)
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:2] == ["--rung", "pairs"]:  # a certificate or report rung, then two roots
        kind, name, depth, *rest = argv[2:]
        print(json.dumps(run_pairs(kind, name, int(depth), *rest)))
        return 0
    if argv[:2] == ["--rung", "corpus"]:  # the seeded random batch
        print(json.dumps(run_corpus(*map(int, argv[2:]))))
        return 0
    if argv[:1] == ["--rung"]:  # a child: one rung, printed as JSON
        kind, name, *numbers = argv[1:]
        run = {"certificate": run_rung, "report": run_report_rung,
               "oracle": run_oracle_rung}[kind]
        print(json.dumps(run(name, *map(int, numbers))))
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
    for root in roots.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")],
                       check=True, timeout=600)
    imports = run_ladder(roots, [("import", "asdimforge.cli")], "import_s")
    certificates = run_ladder(roots, [("certificate", name, depth, R, r)
                                      for name, depths, R, r in LADDER
                                      for depth in depths], "certificate_s")
    reports = run_ladder(roots, [("report", name, depth)
                                 for name, depths in REPORT_LADDER
                                 for depth in depths], "report_s")
    oracles = run_ladder(roots, [("oracle", "random_connected", vertices, count)
                                 for vertices, count in ORACLE_LADDER], "oracle_s")
    corpus = run_ladder(roots, [("corpus", *CORPUS)], "corpus_s")
    doc = {"ladder": "the import of asdimforge.cli, run_certificate, build_report, "
                     "the exact oracle per rung and the seeded random batch, each sample "
                     "in a fresh process",
           "host": {"python": platform.python_version(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
           "repeat": REPEAT,
           "runs": {label: {"src_lines": src_lines(root), "import_rungs": imports[label],
                            "rungs": certificates[label],
                            "report_rungs": reports[label], "oracle_rungs": oracles[label],
                            "corpus": corpus[label][0]}
                    for label, root in roots.items()}}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
