"""Seeded inputs, operations and output checks for the four workloads.

Everything the program sees is made here from the workload seed: spec
documents are isomorphic relabelings of the shipped fixtures (fresh
vertex and label names, shuffled vertex, edge and atlas order), and the
small graphs are random connected graphs.  Each operation goes through a
public entry point of ``asdimforge``; its output is checked after the
timer stops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import string
from pathlib import Path

# Entry points are looked up through the package at call time (``af.x``,
# ``cli.main``), so the traced run's wrappers apply to them.
import asdimforge as af
from asdimforge import cli, fixtures

# Sizes used by a full run and by the benchmark's own smoke test.
SIZES = {
    "full": {"chain_depth": 400, "c3_depth": 14, "small_graphs": 1000},
    "smoke": {"chain_depth": 40, "c3_depth": 8, "small_graphs": 50},
}

# Radii of the certify workloads (the shipped suite uses the same ones).
CHAIN_RADII = (2, 10)
C3_RADII = (0, 4)

# Certificate values the seed commit produces for each (spec, depth);
# isomorphic relabelings must reproduce them exactly.
EXPECTED_CERT = {
    ("chain_k2", 40): {"target_families": 1, "transported_multiplicity": 1,
                       "min_distance": 19, "common_bound": 12},
    ("chain_k2", 400): {"target_families": 1, "transported_multiplicity": 1,
                        "min_distance": 19, "common_bound": 12},
    ("c3_k2", 8): {"target_families": 1, "transported_multiplicity": 1,
                   "min_distance": 7, "common_bound": 9},
    ("c3_k2", 14): {"target_families": 1, "transported_multiplicity": 1,
                    "min_distance": 7, "common_bound": 9},
}

# Twin vertices multiply the automorphism group; graphs whose twin
# classes alone give more symmetries than this are redrawn, so that no
# small_covers operation hits the program's group-size cap.
MAX_TWIN_SYMMETRIES = 48


def _tokens(rng: random.Random, count: int, length: int) -> list[str]:
    """``count`` distinct fresh names of ``length`` characters, sorted."""
    alphabet = string.ascii_lowercase + string.digits
    out: set[str] = set()
    while len(out) < count:
        out.add(rng.choice(string.ascii_lowercase)
                + "".join(rng.choice(alphabet) for _ in range(length - 1)))
    return sorted(out)


def _rename(rng: random.Random, old) -> dict[str, str]:
    """Fresh names for ``old``, each as long as the longest old name.

    The builder derives vertex ids by joining labels and names along
    tree paths (``t1/0/1:a``), so the length of a name sets the length
    of every id and with it the cost of hashing and comparing them.
    Handing the names out in the sorted order of the old ones keeps
    every comparison between derived ids as it was, so a relabeled
    document is processed in the same order as the original.
    """
    old = sorted(old)
    return dict(zip(old, _tokens(rng, len(old), max(map(len, old)))))


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def relabel_graph_doc(doc: dict, rng: random.Random,
                      names: dict[str, str] | None = None) -> dict:
    """Rename every vertex and shuffle vertex, edge and endpoint order."""
    names = names or _rename(rng, doc["vertices"])
    edges = [_shuffled(rng, (names[x], names[y])) for x, y in doc["edges"]]
    return {"vertices": _shuffled(rng, (names[v] for v in doc["vertices"])),
            "edges": _shuffled(rng, edges)}


def relabel_spec_doc(doc: dict, rng: random.Random) -> dict:
    """Isomorphic copy of an amalgamation document under fresh names.

    Factor vertices and adhesion labels get new names; the adhesion
    sets, the atlas and the alternating class follow them.  One map
    renames the vertices of all factors and one the labels of all
    factors, so names the factors share (both ``chain_k2`` factors use
    labels "0" and "1") stay shared and distinct names stay distinct.
    """
    factors = doc["factors"]
    vnames = _rename(rng, {v for f in factors for v in f["vertices"]})
    lnames = _rename(rng, {k for sets in doc["adhesions"] for k in sets})
    out = dict(doc)
    out["factors"] = [relabel_graph_doc(f, rng, vnames) for f in factors]
    out["adhesions"] = [
        {lnames[k]: _shuffled(rng, (vnames[v] for v in sets[k])) for k in _shuffled(rng, sets)}
        for sets in doc["adhesions"]]
    out["atlas"] = _shuffled(rng, (
        {"left": lnames[e["left"]], "right": lnames[e["right"]],
         "pairs": _shuffled(rng, ([vnames[x], vnames[y]] for x, y in e["pairs"]))}
        for e in doc["atlas"]))
    tree = dict(doc["tree"])
    if "type2_J" in tree:
        tree["type2_J"] = [lnames[k] for k in tree["type2_J"]]
    out["tree"] = tree
    return out


def _twin_symmetries(names: list[str], edges: set[frozenset]) -> int:
    """Product of factorials of the twin classes (same open or closed neighbourhood)."""
    nbrs = {v: frozenset(u for e in edges if v in e for u in e if u != v) for v in names}
    total = 1
    for key in (lambda v: nbrs[v], lambda v: nbrs[v] | {v}):
        classes: dict[frozenset, int] = {}
        for v in names:
            classes[key(v)] = classes.get(key(v), 0) + 1
        total *= math.prod(math.factorial(c) for c in classes.values())
    return total


def random_small_graph(rng: random.Random) -> dict:
    """A connected graph on 6-12 vertices: a random tree plus 0..n extra edges."""
    while True:
        n = rng.randint(6, 12)
        names = _shuffled(rng, _tokens(rng, n, 3))
        edges = {frozenset((names[i], names[rng.randrange(i)])) for i in range(1, n)}
        for _ in range(rng.randint(0, n)):
            edges.add(frozenset(rng.sample(names, 2)))
        if _twin_symmetries(names, edges) <= MAX_TWIN_SYMMETRIES:
            # sorted first, so the order does not depend on string hashing
            return {"vertices": names,
                    "edges": _shuffled(rng, (_shuffled(rng, sorted(e))
                                             for e in sorted(edges, key=sorted)))}


def write_doc(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


# -- workloads ----------------------------------------------------------------


class Workload:
    """One workload: ``setup`` makes the inputs, ``op`` is timed, ``check`` is not.

    ``op(k)`` returns whatever ``check(k, result)`` needs; ``check``
    returns an empty list when the output is right, otherwise one line
    per problem.
    """

    def __init__(self, workdir: Path, seed: int, size: str):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.sizes = SIZES[size]
        self.info: dict = {}

    def setup(self):
        raise NotImplementedError

    def op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, result) -> list[str]:
        raise NotImplementedError

    def cleanup(self, k: int):
        """Remove what op ``k`` wrote; runs after its check, outside the timer."""


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _check_certificate(doc: dict, expected: dict) -> list[str]:
    problems = []
    if doc.get("verdict") != "PASS":
        problems.append(f"verdict {doc.get('verdict')!r}")
    stages = doc.get("stages", {})
    got = {
        "target_families": doc.get("target_families"),
        "transported_multiplicity":
            stages.get("transported_cover", {}).get("data", {}).get("multiplicity"),
        "min_distance": stages.get("separation", {}).get("data", {}).get("min_distance"),
        "common_bound":
            stages.get("uniform_asdim_blocks", {}).get("data", {}).get("common_bound"),
    }
    for key, want in expected.items():
        if got[key] != want:
            problems.append(f"{key} = {got[key]!r}, expected {want!r}")
    return problems


class Certify(Workload):
    """``verify-theorem`` on one relabeled spec document, once per op."""

    spec_name: str
    depth_key: str
    radii: tuple[int, int]

    def setup(self):
        depth = self.sizes[self.depth_key]
        make = fixtures.SPEC_BUILDERS[self.spec_name]
        self.expected = EXPECTED_CERT[(self.spec_name, depth)]
        self.spec = write_doc(self.workdir / "spec.json",
                              relabel_spec_doc(make(depth), self.rng))
        self.cert = self.workdir / "cert.json"
        R, r = self.radii
        self.argv = ["verify-theorem", "--spec", str(self.spec), "--R", str(R),
                     "--r", str(r), "--out", str(self.cert)]
        self.info = {"spec": self.spec_name, "depth": depth, "R": R, "r": r}

    def op(self, k: int):
        return _run_cli(self.argv)

    def check(self, k: int, rc) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        raw = self.cert.read_bytes()
        self.info.setdefault("artifact_sha256", hashlib.sha256(raw).hexdigest())
        return _check_certificate(json.loads(raw), self.expected)

    def cleanup(self, k: int):
        self.cert.unlink(missing_ok=True)


class CertifyChain(Certify):
    spec_name, depth_key, radii = "chain_k2", "chain_depth", CHAIN_RADII


class CertifyBranching(Certify):
    spec_name, depth_key, radii = "c3_k2", "c3_depth", C3_RADII


# seven command artifacts, plus two stage reports and a summary from iterate
SUITE_ARTIFACTS = 10


class ShippedSuite(Workload):
    """The nine shipped CLI commands, in order, into a fresh artifact directory."""

    def setup(self):
        specs = self.workdir / "specs"
        specs.mkdir()
        chain = relabel_spec_doc(fixtures.chain_spec_doc(), self.rng)
        write_doc(specs / "chain_k2.json", chain)
        write_doc(specs / "c3_k2.json", relabel_spec_doc(fixtures.triangle_spec_doc(), self.rng))
        write_doc(specs / "path10.json", relabel_graph_doc(fixtures.path_graph_doc(10), self.rng))
        write_doc(specs / "cycle7.json", relabel_graph_doc(fixtures.cycle_graph_doc(7), self.rng))
        stage1 = af.build(af.AmalgamationSpec.from_json_dict({**chain, "tree": {**chain["tree"], "depth": 6}}))
        write_doc(specs / "stage2.json", fixtures.next_stage_doc(stage1))
        self.specs = specs

    def _paths(self, k: int):
        root = self.workdir / f"op{k}"
        return root, root / "art"

    def op(self, k: int):
        root, art = self._paths(k)
        s = self.specs
        runs = [
            ["build", "--spec", f"{s}/chain_k2.json", "--out", f"{art}/build_chain_k2.json"],
            ["build", "--spec", f"{s}/c3_k2.json", "--out", f"{art}/build_c3_k2.json"],
            ["witness", "--spec", f"{s}/path10.json", "--r", "3", "--n", "1",
             "--out", f"{art}/witness_path10.json"],
            ["oracle", "--spec", f"{s}/path10.json", "--r", "3", "--n", "1",
             "--out", f"{art}/oracle_path10.json"],
            ["aut", "--spec", f"{s}/cycle7.json", "--out", f"{art}/aut_cycle7.json"],
            ["verify-theorem", "--spec", f"{s}/chain_k2.json", "--R", str(CHAIN_RADII[0]),
             "--r", str(CHAIN_RADII[1]), "--out", f"{art}/cert_chain_k2.json"],
            ["verify-theorem", "--spec", f"{s}/c3_k2.json", "--R", str(C3_RADII[0]),
             "--r", str(C3_RADII[1]), "--out", f"{art}/cert_c3_k2.json"],
            ["iterate", "--spec", f"{s}/chain_k2.json", "--spec", f"{s}/stage2.json",
             "--depth", "6", "--out", f"{art}/iter"],
            ["report", f"{art}/iter", "--out", f"{root}/report.json"],
        ]
        return [(argv[0], _run_cli(argv)) for argv in runs]

    def check(self, k: int, codes) -> list[str]:
        problems = [f"{name} exit code {rc}" for name, rc in codes if rc != 0]
        root, art = self._paths(k)
        artifacts = sorted(art.rglob("*.json"))
        if len(artifacts) != SUITE_ARTIFACTS:
            problems.append(f"{len(artifacts)} artifacts, expected {SUITE_ARTIFACTS}")
        for path in artifacts:
            doc = json.loads(path.read_text(encoding="utf-8"))
            if _artifact_verdict(doc) != "PASS":
                problems.append(f"{path.relative_to(root)} does not read PASS")
        report = json.loads((root / "report.json").read_text(encoding="utf-8"))
        problems += [f"report row {row['file']} reads {row['verdict']}"
                     for row in report["rows"] if row["verdict"] != "PASS"]
        return problems

    def cleanup(self, k: int):
        shutil.rmtree(self._paths(k)[0], ignore_errors=True)


def _artifact_verdict(doc: dict) -> str:
    """PASS/FAIL of one suite artifact, read from its own fields."""
    if "verdict" in doc:                       # certificate
        ok = doc["verdict"] == "PASS"
    elif "valid" in doc:                       # witness / oracle
        ok = doc["valid"] is True
    elif "sum_vertices" in doc:                # build report
        ok = doc["projection"]["ok"] and doc["atlas"]["ok"]
    elif "order" in doc:                       # automorphism group
        ok = doc["order"] >= 1 and len(doc["elements"]) == doc["order"]
    elif "stages" in doc and "bound" in doc:   # iterate summary
        ok = len(doc["stages"]) == 2 and doc["bound"] >= 1
    else:
        ok = False
    return "PASS" if ok else "FAIL"


class SmallCovers(Workload):
    """Oracle, greedy witness and automorphisms on one small random graph per op."""

    def setup(self):
        self.pool = [random_small_graph(self.rng) for _ in range(self.sizes["small_graphs"])]
        self.info = {"graphs": len(self.pool)}

    def op(self, k: int):
        g = af.load_graph(self.pool[k % len(self.pool)])
        space = af.MetricView(g)
        rows = []
        for r in (2, 3):
            n = af.covers.exact_min_families(space, r)
            rows.append((r, af.greedy_witness(space, r, n), af.exact_min_bound(space, r, n)))
        return g, rows, af.compute_automorphisms(g)

    def check(self, k: int, result) -> list[str]:
        g, rows, action = result
        problems = []
        for r, greedy, oracle in rows:
            if not greedy.ok:
                problems.append(f"r={r}: greedy failed: {greedy.detail}")
                continue
            problems += [f"r={r}: {p}" for p in greedy.witness.violations()]
            if greedy.witness.bound < oracle.bound:
                problems.append(f"r={r}: greedy bound {greedy.witness.bound} "
                                f"below oracle bound {oracle.bound}")
        edges = {frozenset(e) for e in g.edges}
        for p in action:
            if sorted(p.values()) != sorted(g.vertices) or \
                    any(frozenset((p[x], p[y])) not in edges for x, y in g.edges):
                problems.append("automorphism does not preserve the edge set")
                break
        if not any(all(p[v] == v for v in g.vertices) for p in action):
            problems.append("automorphism group lacks the identity")
        return problems


WORKLOADS = {
    "certify_chain": CertifyChain,
    "certify_branching": CertifyBranching,
    "shipped_suite": ShippedSuite,
    "small_covers": SmallCovers,
}
