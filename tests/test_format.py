"""Format 3 against the numbers format 2 wrote for the same builds.

Format 2 named every tree node by its label path (``t1/0/1``); format 3
names it ``n<k>``, k its postorder index, and writes a ``tree`` table
from which every label path is recovered.  ``format2_numbers.json``
holds, for four builds, every number of the certificate and of the
``build`` report as format 2 wrote them, with ids as label paths.  The
test maps each id of the format-3 artifacts back through its table,
with a decoder written from the README alone (``conftest.node_ids``),
and asserts that the numbers are the same.

Left out of the comparison: the nearest site each shell names, and the
pair ``min_distance`` is witnessed by (ties between equally near shells
go to the lowest site id, and the site order changed with the ids),
``parameters.sampling`` and ``rd_dim.strict_recheck`` (format 3 drops
them) and the report's ``projection.mode`` (same).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from asdimforge import cli, jsonio
from asdimforge.fixtures import chain_spec_doc, triangle_spec_doc, type2_spec_doc

from conftest import node_ids

FROZEN = Path(__file__).with_name("format2_numbers.json")

# (key, document maker, depth, R, r)
CASES = [
    ("chain_k2-40", chain_spec_doc, 40, 2, 10),
    ("chain_k2-160", chain_spec_doc, 160, 2, 10),
    ("c3_k2-8", triangle_spec_doc, 8, 0, 4),
    ("type2_k2-8", type2_spec_doc, 8, 0, 4),
]


def unmapper(doc: dict):
    """A function naming nodes, vertices and blocks of ``doc`` by label path;
    the identity on a format-2 artifact, whose ids already are."""
    tree = doc.get("tree")
    if not isinstance(tree, dict) or "table" not in tree:
        return lambda s: s
    path_of = node_ids(tree["table"])

    def unmap(s: str) -> str:
        if s.startswith("W@"):
            return "W@" + unmap(s[2:])
        node, sep, rest = s.partition(":")
        return path_of[node] + sep + rest if node in path_of else s

    return unmap


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def _vertex_lists(lists, unmap) -> dict:
    """Sizes and a digest of vertex lists, each named by label path."""
    named = sorted(sorted(map(unmap, vs)) for vs in lists)
    return {"sizes": [len(vs) for vs in named], "digest": _digest(named)}


def certificate_numbers(cert: dict) -> dict:
    unmap = unmapper(cert)
    st = {name: stage["data"] for name, stage in cert["stages"].items()}
    out = {"verdict": cert["verdict"], "bound": cert["bound"],
           "target_families": cert["target_families"],
           "declared_dimensions": cert["declared_dimensions"],
           "stage_order": cert["stage_order"],
           "stage_verdicts": {name: stage["verdict"]
                              for name, stage in cert["stages"].items()}}
    p = dict(st["parameters"])
    p.pop("sampling", None)
    p["sites"] = [unmap(s) for s in p["sites"]]
    out["parameters"] = p
    out["base_blocks"] = st["base_blocks"]
    out["symmetry_maps"] = {unmap(s): row for s, row in st["symmetry_maps"]["per_site"].items()}
    part = dict(st["partition"])
    part["members"] = {unmap(b): dict(row, name=unmap(row["name"]))
                       for b, row in part["members"].items()}
    part["member_vertices"] = {unmap(b): _vertex_lists([vs], unmap)
                               for b, vs in part["member_vertices"].items()}
    part["missing"] = sorted(map(unmap, part["missing"]))
    part["overlap_faults"] = sorted(sorted(map(unmap, f)) for f in part["overlap_faults"])
    out["partition"] = part
    uni = dict(st["uniform_asdim_blocks"])
    uni["per_block"] = {unmap(b): row for b, row in uni["per_block"].items()}
    out["uniform_asdim_blocks"] = uni
    for name in ("boundary_cover", "transported_cover"):
        data = dict(st[name])
        if "member_lists" in data:
            data["member_lists"] = _vertex_lists(data["member_lists"], unmap)
        out[name] = data
    sep = dict(st["separation"])
    sep["nearest"] = {unmap(s): d for s, (_, d) in sep["nearest"].items()}
    sep["empty_sites"] = sorted(map(unmap, sep["empty_sites"]))
    del sep["closest_sites"], sep["closest_vertices"]
    out["separation"] = sep
    out["lebesgue"] = st["lebesgue"]
    rd = dict(st["rd_dim"])
    rd.pop("strict_recheck", None)
    out["rd_dim"] = rd
    return out


def report_numbers(report: dict) -> dict:
    unmap = unmapper(report)
    out = {k: v for k, v in report.items() if k not in ("tree", "projection")}
    tree = dict(report["tree"])
    nodes = sorted(map(unmap, tree.pop("nodes") if "nodes" in tree
                       else node_ids(tree.pop("table"))))
    tree["nodes"] = {"count": len(nodes), "digest": _digest(nodes)}
    out["tree"] = tree
    proj = dict(report["projection"])
    proj.pop("mode", None)
    proj["failures"] = [[unmap(x), unmap(y)] for x, y in proj["failures"]]
    out["projection"] = proj
    return out


def artifacts(tmp_path: Path, make, depth: int, R: int, r: int) -> tuple[dict, dict]:
    """The certificate and the ``build`` report, as the CLI writes them."""
    spec = tmp_path / "spec.json"
    jsonio.write_json(spec, make(depth))
    cert, report = tmp_path / "cert.json", tmp_path / "build.json"
    assert cli.main(["verify-theorem", "--spec", str(spec), "--R", str(R), "--r", str(r),
                     "--out", str(cert)]) == 0
    assert cli.main(["build", "--spec", str(spec), "--out", str(report)]) == 0
    return json.loads(cert.read_text()), json.loads(report.read_text())


@pytest.mark.parametrize("key, make, depth, R, r", CASES, ids=[c[0] for c in CASES])
def test_format3_numbers_equal_format2(tmp_path, key, make, depth, R, r):
    frozen = json.loads(FROZEN.read_text())[key]
    cert, report = artifacts(tmp_path, make, depth, R, r)
    assert cert["format_version"] == 3
    assert certificate_numbers(cert) == frozen["certificate"]
    assert report_numbers(report) == frozen["report"]
    # both artifacts carry the same table, and the witnessing pair is a
    # pair of sites at the least nearest-shell distance
    assert cert["tree"] == report["tree"]
    sep = cert["stages"]["separation"]["data"]
    a, b = sep["closest_sites"]
    assert sep["nearest"][a][1] == sep["min_distance"] and b in sep["nearest"]
