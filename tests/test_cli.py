"""Command-line surface, exercised in process through cli.main."""

import argparse
import copy
import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import asdimforge
from asdimforge import cli, jsonio
from asdimforge.fixtures import (chain_spec_doc, cycle_graph_doc,
                                 next_stage_doc, path_graph_doc,
                                 triangle_spec_doc, type2_spec_doc)
from asdimforge.graphs import INF, FiniteGraph
from asdimforge.theorem import ProofParameters, projection_fit, translation_sites

from conftest import build_doc, dumps, path_ids, projection_map, remap_nodes, without_a_bridge_at
from test_graphs import _ref_fit


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    jsonio.write_json(path, doc)
    return str(path)


def test_build_command(tmp_path, capsys):
    spec = write_doc(tmp_path, "chain.json", chain_spec_doc(8))
    out = tmp_path / "build.json"
    assert cli.main(["build", "--spec", spec, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS build chain_k2" in text
    doc = json.loads(out.read_text())
    assert doc["sum_vertices"] == 34
    assert doc["projection"]["ok"]
    assert sorted(doc["projection"]) == ["failures", "ok", "pairs"]
    assert doc["projection_fit"] is not None


def _per_pair_failures(br) -> list:
    """Every failing pair of the projection check, in vertex order.

    Tree distances climb the tree for each pair of nodes, once per pair.
    """
    H, node_of = br.sum.graph, br.sum.node_of
    tree_distance = functools.cache(lambda u, v: len(br.tree.path(u, v)) - 1)
    failures = []
    for x in H.vertices:
        dist = H.distances_to_set((x,))
        for y in H.vertices:
            if y > x and tree_distance(node_of(x), node_of(y)) > dist.get(y, INF):
                failures.append([x, y])
    return failures


def _stretched_reference(br) -> list:
    """Every edge of the sum graph whose ends lie two or more tree steps
    apart, in edge order, with tree distances read off ``tree.path``."""
    node_of = br.sum.node_of
    return [[x, y] for x, y in br.sum.graph.edges
            if len(br.tree.path(node_of(x), node_of(y))) > 2]


def test_build_report_failures_match_per_pair_walk(monkeypatch):
    """The copy over the i-th node in sorted order put on the (3i mod n)-th:
    the report lists the first ten stretched edges, each a pair the
    per-pair walk fails."""
    br = build_doc(chain_spec_doc(8))
    nodes = sorted(br.tree.nodes)
    remap_nodes(monkeypatch, br, {u: nodes[3 * i % len(nodes)] for i, u in enumerate(nodes)})
    report = cli.build_report(br)
    stretched = _stretched_reference(br)
    assert len(stretched) > 10
    n = len(br.sum.graph)
    assert report["projection"] == {"pairs": n * (n - 1) // 2,
                                    "ok": False, "failures": stretched[:10]}
    failing = _per_pair_failures(br)
    assert all(pair in failing for pair in report["projection"]["failures"])
    assert report["projection_fit"] is None


@pytest.mark.parametrize("make, depth, count", [
    (chain_spec_doc, 200, 2), (triangle_spec_doc, 4, 3),
])
def test_build_report_lists_every_stretched_edge_when_few_fail(monkeypatch, make, depth,
                                                               count):
    """Fewer than ten stretched edges: the report lists them all, and the
    fit is null."""
    br = build_doc(make(depth))
    child = path_ids(br.tree)["t1/0"]
    remap_nodes(monkeypatch, br, {"t1": child, child: "t1"})
    report = cli.build_report(br)
    stretched = _stretched_reference(br)
    assert len(stretched) == count
    n = len(br.sum.graph)
    assert report["projection"] == {"pairs": n * (n - 1) // 2,
                                    "ok": False, "failures": stretched}
    assert report["projection_fit"] is None


def _count_searches(monkeypatch) -> list:
    """Record each ``FiniteGraph.distances_to_set`` call, in every graph."""
    calls = []
    search = FiniteGraph.distances_to_set
    monkeypatch.setattr(FiniteGraph, "distances_to_set",
                        lambda self, *a, **k: calls.append(a) or search(self, *a, **k))
    return calls


@pytest.mark.parametrize("swap, depth", [("near-far", 40), ("t1-child", 200)])
def test_swapped_build_report_lists_failing_edges(monkeypatch, swap, depth):
    """Two nodes swapped in ``node_of``: every listed failure is an edge of
    the sum graph and a pair the per-pair walk fails, and the report runs
    no more searches than on the build left as it is."""
    br = build_doc(chain_spec_doc(depth))
    searches = _count_searches(monkeypatch)
    cli.build_report(br)
    real = len(searches)
    node = path_ids(br.tree)
    paths = sorted(node)
    a, b = (paths[1], paths[-1]) if swap == "near-far" else ("t1", "t1/0")
    remap_nodes(monkeypatch, br, {node[a]: node[b], node[b]: node[a]})
    del searches[:]
    report = cli.build_report(br)
    assert len(searches) <= real
    failures = report["projection"]["failures"]
    assert failures and not report["projection"]["ok"]
    edges = set(br.sum.graph.edges)
    assert all(tuple(pair) in edges for pair in failures)
    failing = _per_pair_failures(br)
    assert all(pair in failing for pair in failures)


def _reference_report(br) -> dict:
    """The build report from the per-pair walk and the per-pair fit, for a
    build on which no pair fails; the fit is null on a torn sum graph."""
    report = br.report_dict()
    assert not _per_pair_failures(br)
    n = len(br.sum.graph)
    report["projection"] = {"pairs": n * (n - 1) // 2, "ok": True, "failures": []}
    report["projection_fit"] = None
    if br.sum.graph.is_connected():
        table, (gamma, c) = _ref_fit(projection_map(br))
        report["projection_fit"] = {
            "table": [[str(g), None if k is None else str(k)] for g, k in table],
            "gamma": None if gamma is None else str(gamma),
            "c": None if c is None else str(c)}
    return report


@pytest.mark.parametrize("make, depth, cut", [
    (chain_spec_doc, 8, False), (chain_spec_doc, 20, False),
    (triangle_spec_doc, 6, False), (triangle_spec_doc, 8, False),
    (type2_spec_doc, 6, False), (chain_spec_doc, 8, True),
])
def test_build_report_matches_per_pair_reference(monkeypatch, make, depth, cut):
    br = build_doc(make(depth))
    if cut:  # one bridge removed: H falls apart, no pair fails and there is no fit
        H, bridge = br.sum.graph, br.sum.bridges[0]
        monkeypatch.setattr(br.sum, "graph", FiniteGraph(
            H.vertices, [e for e in H.edges if e != bridge]))
        assert not br.sum.graph.is_connected()
    report = cli.build_report(br)
    assert report == _reference_report(br)
    assert (report["projection_fit"] is None) == cut


def test_build_checks_every_pair_above_500_vertices():
    br = build_doc(chain_spec_doc(130))
    n = len(br.sum.graph)
    assert n == 522
    report = cli.build_report(br)
    assert report["projection"] == {"pairs": n * (n - 1) // 2,
                                    "ok": True, "failures": []}
    assert report["projection_fit"] == projection_fit(br).to_json_dict()


@pytest.mark.parametrize("option", [["--seed", "0"], ["--exhaustive"]])
def test_build_rejects_removed_options(tmp_path, option):
    spec = write_doc(tmp_path, "chain.json", chain_spec_doc(8))
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "--spec", spec] + option)
    assert exc.value.code == 2
    subs = next(a for a in cli.make_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    for sub in subs.choices.values():
        assert option[0] not in sub.format_help()


def _bad_asdim(doc):
    doc["asdim"] = {"factor1": "one"}
    return doc


def _bool_asdim(doc):
    doc["asdim"] = {"factor1": True}
    return doc


def _string_adhesion(doc):
    doc["adhesions"][0] = {"0": "ab", "1": ["b"]}
    return doc


def _list_tree(doc):
    doc["tree"] = []
    return doc


def _list_actions(doc):
    doc["actions"] = []
    return doc


def _float_depth(doc):
    doc["tree"]["depth"] = 8.9
    return doc


def _bool_depth(doc):
    doc["tree"]["depth"] = True
    return doc


def _string_p1(doc):
    doc["tree"]["p1"] = "2"
    return doc


def _string_type2_J(doc):
    doc = type2_spec_doc()
    doc["tree"]["type2_J"] = "01"
    return doc


def _string_generators(doc):
    doc["actions"] = {"mode": "generators", "factor1": "ab"}
    return doc


def _number_generators(doc):
    doc["actions"] = {"mode": "generators", "factor1": [1]}
    return doc


def _number_image_generators(doc):
    doc["actions"] = {"mode": "generators", "factor1": [{"a": "b", "b": 0}]}
    return doc


def _string_factor2_generators(doc):
    doc["actions"] = {"factor1": [], "factor2": {"a": "b", "b": "a"}}
    return doc


def _string_vertices(doc):
    doc["factors"][0] = {"vertices": "ab", "edges": [["a", "b"]]}
    return doc


def _number_atlas(doc):
    doc["atlas"] = 5
    return doc


def _null_atlas_pairs(doc):
    doc["atlas"][0]["pairs"] = None
    return doc


def _string_atlas_pair(doc):
    # the ("0","1") entry's one pair is ["a", "b"]: "ab" once read as the same pair
    doc["atlas"][1]["pairs"] = ["ab"]
    return doc


def _number_atlas_label(doc):
    doc["atlas"][0]["left"] = 0
    return doc


def _object_adhesion_member(doc):
    doc["adhesions"][0]["0"] = [{"a": 1}]
    return doc


def _object_name(doc):
    doc["name"] = {"x": 1}
    return doc


def _number_vertex(doc):
    doc["factors"][0] = {"vertices": ["a", 1], "edges": [["a", "1"]]}
    return doc


def _number_edge_endpoint(doc):
    doc["factors"][1] = {"vertices": ["a", "b"], "edges": [["a", 0]]}
    return doc


@pytest.mark.parametrize("corrupt", [_bad_asdim, _bool_asdim, _string_adhesion,
                                     _list_tree, _list_actions, _float_depth,
                                     _bool_depth, _string_p1, _string_type2_J,
                                     _string_generators, _number_generators,
                                     _number_image_generators,
                                     _string_factor2_generators, _string_vertices,
                                     _number_atlas, _null_atlas_pairs,
                                     _string_atlas_pair, _number_atlas_label,
                                     _object_adhesion_member, _object_name,
                                     _number_vertex, _number_edge_endpoint])
def test_build_rejects_mistyped_fields(tmp_path, corrupt):
    doc = corrupt(chain_spec_doc(8))
    spec = write_doc(tmp_path, "bad.json", doc)
    assert cli.main(["build", "--spec", spec]) == 2
    src = str(Path(asdimforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "asdimforge.cli", "build", "--spec", spec],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error: ")


# sha256 of the certificates as first recorded in format 3: a speedup must
# not move a byte
@pytest.mark.parametrize("make, depth, R, r, digest", [
    (chain_spec_doc, 40, 2, 10,
     "f50902d086eede648d68f14d874a6c82970558283cb2cf681564db05557160e6"),
    (triangle_spec_doc, 8, 0, 4,
     "6cea5dbc9b93efde06401b2865af4bc8002e79177442225dadb2bb5e6c05889c"),
], ids=["chain_k2-40", "c3_k2-8"])
def test_certificate_bytes_are_pinned(tmp_path, make, depth, R, r, digest):
    spec = write_doc(tmp_path, "spec.json", make(depth))
    out = tmp_path / "cert.json"
    assert cli.main(["verify-theorem", "--spec", spec, "--R", str(R), "--r", str(r),
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the build reports as first written with the tree table: the
# projection check and fit must not move a byte
@pytest.mark.parametrize("make, depth, digest", [
    (chain_spec_doc, 40, "0212115b0b2e89b0a32715066686800f95fe63f9ba73c04b4ee5cf5f28327a29"),
    (triangle_spec_doc, 8, "503dfcae8ad3097c560d156cf1a1927a0cf220be3bf74a570745f7dc6824f7bd"),
], ids=["chain_k2-40", "c3_k2-8"])
def test_build_report_bytes_are_pinned(tmp_path, make, depth, digest):
    spec = write_doc(tmp_path, "spec.json", make(depth))
    out = tmp_path / "build.json"
    assert cli.main(["build", "--spec", spec, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_build_report_builds_no_edge_labels():
    """The report lists each node's labels from the tree's per-node records
    and counts the glued graph's edges from its rows: it builds neither
    the edge-keyed ``out_label`` view nor the glued graph's edge list."""
    br = build_doc(chain_spec_doc(40))
    report = cli.build_report(br)
    assert report["tree_semiregular"] == {"ok": True, "detail": ""}
    assert "out_label" not in vars(br.tree)
    assert br.amalgam.graph._edges is None
    assert report["amalgam_edges"] == len(br.amalgam.graph.edges)


def test_build_depth_override(tmp_path, capsys):
    spec = write_doc(tmp_path, "chain.json", chain_spec_doc(8))
    assert cli.main(["build", "--spec", spec, "--depth", "4"]) == 0
    assert "sum=18" in capsys.readouterr().out


def test_witness_command(tmp_path, capsys):
    graph = write_doc(tmp_path, "p10.json", path_graph_doc(10))
    assert cli.main(["witness", "--spec", graph, "--r", "3", "--n", "1"]) == 0
    assert "PASS D=" in capsys.readouterr().out


def test_witness_failure_exit(tmp_path, capsys):
    graph = write_doc(tmp_path, "c7.json", cycle_graph_doc(7))
    assert cli.main(["witness", "--spec", graph, "--r", "3", "--n", "0"]) == 1
    assert "FAIL witness" in capsys.readouterr().out


def test_oracle_command(tmp_path, capsys):
    graph = write_doc(tmp_path, "p10.json", path_graph_doc(10))
    assert cli.main(["oracle", "--spec", graph, "--r", "3", "--n", "1"]) == 0
    text = capsys.readouterr().out
    assert "D=1" in text and "PASS" in text


# sha256 of the oracle's witness documents as the first search wrote them:
# a faster search must find the same layering
@pytest.mark.parametrize("doc, r, n, digest", [
    (path_graph_doc(10), 3, 1,
     "b8b3a21d13dc1e7ff01a90dc3f5d2304a3c050160adb2970baab92ae77b4716c"),
    (cycle_graph_doc(12), 2, 1,
     "24cfc6e3b2d417432d23ddb8b3a5f8f22941b75bc7d764a875ad0a2200d9803d"),
    (cycle_graph_doc(7), 3, 2,
     "e07d13195f6b068c6151230a8d0079fb5122c6dd83852ef88e5fb87d4255072c"),
], ids=["path10", "cycle12", "cycle7"])
def test_oracle_bytes_are_pinned(tmp_path, capsys, doc, r, n, digest):
    graph = write_doc(tmp_path, "graph.json", doc)
    out = tmp_path / "oracle.json"
    assert cli.main(["oracle", "--spec", graph, "--r", str(r), "--n", str(n),
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_aut_command(tmp_path, capsys):
    graph = write_doc(tmp_path, "c7.json", cycle_graph_doc(7))
    out = tmp_path / "aut.json"
    assert cli.main(["aut", "--spec", graph, "--out", str(out)]) == 0
    assert capsys.readouterr().out == "order=14 orbits=1\n"
    doc = json.loads(out.read_text())
    assert doc["order"] == 14
    # without --out the document goes to stdout, as for build and witness
    assert cli.main(["aut", "--spec", graph]) == 0
    assert capsys.readouterr().out == dumps(doc) + "order=14 orbits=1\n"
    # an ``annotations`` key is not part of a graph document, whatever it holds
    edge = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
    assert cli.main(["aut", "--spec", write_doc(tmp_path, "edge.json", edge)]) == 0
    plain = capsys.readouterr()
    for notes in ({"a": 5}, ["a"]):
        noted = write_doc(tmp_path, "noted.json", dict(edge, annotations=notes))
        assert cli.main(["aut", "--spec", noted]) == 0
        assert capsys.readouterr() == plain


def test_build_rejects_a_repeated_adhesion_vertex(tmp_path, capsys):
    doc = chain_spec_doc(8)
    doc["adhesions"][0]["0"] = ["a", "a"]
    bad = write_doc(tmp_path, "bad.json", doc)
    assert cli.main(["build", "--spec", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: adhesion set '0' repeats a vertex\n"


def test_plain_text_edge_list_exits_2(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("# comment\na b\nb c\n")
    for argv in (["witness", "--spec", str(edges), "--r", "2", "--n", "1"],
                 ["aut", "--spec", str(edges)]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _one_error_line_naming(capsys, text: str):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert text in captured.err


def test_a_document_that_is_no_object_exits_2(tmp_path, capsys):
    """A spec or graph file must hold one JSON object; text that is no
    JSON is reported with the file's name."""
    for text, says in (("[1, 2]", "must be a JSON object"), ('"c0"', "must be a JSON object"),
                       ("{not json", "corrupt JSON in")):
        path = tmp_path / "doc.json"
        path.write_text(text)
        for argv in (["build", "--spec", str(path)], ["aut", "--spec", str(path)],
                     ["witness", "--spec", str(path), "--r", "2"]):
            assert cli.main(argv) == 2, argv
            _one_error_line_naming(capsys, says)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_a_non_standard_constant_exits_2(tmp_path, capsys, constant):
    """Standard JSON has no NaN or Infinity: a witness artifact holding
    one as its bound, or a spec holding one, is not read."""
    artifacts = tmp_path / "artifacts"
    artifacts.mkdir()
    (artifacts / "w.json").write_text(
        '{"D": %s, "families": [], "valid": true}' % constant)
    for out in ([], ["--out", str(tmp_path / "t.json")]):
        assert cli.main(["report", str(artifacts), *out]) == 2
        _one_error_line_naming(capsys, "w.json")
    assert not (tmp_path / "t.json").exists()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(chain_spec_doc(4)).replace('"depth": 4', f'"depth": {constant}'))
    assert cli.main(["build", "--spec", str(spec)]) == 2
    _one_error_line_naming(capsys, "spec.json")


def test_a_repeated_object_name_exits_2(tmp_path, capsys):
    """An object names each member once: a spec that gives ``depth``
    twice is rejected, not built at whichever value comes last."""
    text = json.dumps(chain_spec_doc(40))
    assert text.count('"depth": 40') == 1
    spec = tmp_path / "spec.json"
    spec.write_text(text.replace('"depth": 40', '"depth": 40, "depth": 4'))
    assert cli.main(["build", "--spec", str(spec), "--out", str(tmp_path / "r.json")]) == 2
    _one_error_line_naming(capsys, "spec.json")
    assert not (tmp_path / "r.json").exists()
    graph = tmp_path / "graph.json"
    graph.write_text('{"vertices": ["a", "b"], "edges": [["a", "b"]], "edges": []}')
    assert cli.main(["aut", "--spec", str(graph)]) == 2
    _one_error_line_naming(capsys, "graph.json")


def test_verify_theorem_command(tmp_path, capsys):
    spec = write_doc(tmp_path, "chain.json", chain_spec_doc(20))
    out = tmp_path / "cert.json"
    code = cli.main(["verify-theorem", "--spec", spec, "--R", "2", "--r", "10",
                     "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS bound=1" in text
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "PASS"
    assert cert["format_version"] == 3
    assert cert["stage_order"][0] == "parameters"


def test_internal_error_exits_4_without_traceback(tmp_path, monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("handler broke\non two lines")
    monkeypatch.setattr(cli, "cmd_aut", broken)
    graph = write_doc(tmp_path, "c7.json", cycle_graph_doc(7))
    assert cli.main(["aut", "--spec", graph]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: handler broke on two lines\n"


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    graph = write_doc(tmp_path, "c7.json", cycle_graph_doc(7))
    assert cli.main(["aut", "--spec", graph]) == 0
    monkeypatch.setattr(argparse, "ArgumentParser",
                        lambda *a, **kw: pytest.fail("parser rebuilt"))
    # handlers are still looked up when a command runs
    calls = []
    monkeypatch.setattr(cli, "cmd_verify_theorem", lambda args: calls.append(args.r) or 0)
    for argv in (["aut", "--spec", graph], ["verify-theorem", "--spec", graph, "--r", "4"]):
        assert cli.main(argv) == 0
    assert calls == [4]


def test_verify_theorem_failure_exit(tmp_path, capsys):
    spec = write_doc(tmp_path, "chain.json", chain_spec_doc(8))
    code = cli.main(["verify-theorem", "--spec", spec, "--R", "2", "--r", "10",
                     "--out", str(tmp_path / "c.json")])
    assert code == 3  # truncation too shallow for certificate grade


def test_verify_theorem_exits_1_on_a_failed_certificate(tmp_path, monkeypatch, capsys):
    """A build doctored to lose one bridge at a translation site: the
    certificate runs to the end and fails, and ``verify-theorem`` writes
    it, prints FAIL and exits 1."""
    spec = write_doc(tmp_path, "chain.json", chain_spec_doc(20))
    built = cli.build

    def doctored(spec, depth):
        br = built(spec, depth)
        sites = translation_sites(br.tree, ProofParameters(R=2, r=10, depth=depth))
        return without_a_bridge_at(br, sites[1])
    monkeypatch.setattr(cli, "build", doctored)
    out = tmp_path / "cert.json"
    assert cli.main(["verify-theorem", "--spec", spec, "--R", "2", "--r", "10",
                     "--out", str(out)]) == 1
    text = capsys.readouterr().out
    assert "  symmetry_maps: FAIL" in text and f"FAIL bound=1 -> {out}" in text
    assert json.loads(out.read_text())["verdict"] == "FAIL"


def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    """``--spec`` files and the artifacts ``report`` reads."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"vertices": []}')
    artifacts = tmp_path / "artifacts"
    artifacts.mkdir()
    (artifacts / "bad.json").write_bytes(bad.read_bytes())
    for argv in (["aut", "--spec", str(bad)], ["build", "--spec", str(bad)],
                 ["iterate", "--spec", str(bad), "--out", str(tmp_path / "out")],
                 ["report", str(artifacts)]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "bad.json" in captured.err and "utf-8" in captured.err
    assert not (tmp_path / "out").exists()


def test_an_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    """An ``--out`` that is a directory, or under a plain file: one
    ``error:`` line naming the path, and no temporary file left."""
    spec = write_doc(tmp_path, "chain.json", chain_spec_doc(20))
    graph = write_doc(tmp_path, "c7.json", cycle_graph_doc(7))
    taken = tmp_path / "taken"
    taken.mkdir()
    plain = tmp_path / "plain"
    plain.write_text("")
    cases = [(["verify-theorem", "--spec", spec, "--R", "2", "--r", "10", "--out", str(taken)],
              taken),
             (["build", "--spec", spec, "--out", str(plain / "x.json")], plain / "x.json"),
             (["aut", "--spec", graph, "--out", str(taken)], taken),
             (["iterate", "--spec", spec, "--depth", "6", "--out", str(plain)],
              plain / "stage01_chain_k2.json"),
             (["report", str(tmp_path), "--out", str(taken)], taken)]
    for argv, path in cases:
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {path}: "), argv
        assert captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c7.json", "chain.json", "plain",
                                                          "taken"]
    assert not any(taken.iterdir()) and plain.read_text() == ""


@pytest.mark.parametrize("out", [".", "/"])
def test_an_out_with_no_file_name_exits_2(tmp_path, monkeypatch, capsys, out):
    """``--out .`` or ``--out /`` names a directory: every command that
    writes a file says so in one ``error:`` line and leaves nothing."""
    spec = write_doc(tmp_path, "chain.json", chain_spec_doc(20))
    graph = write_doc(tmp_path, "c7.json", cycle_graph_doc(7))
    monkeypatch.chdir(tmp_path)
    for argv in (["build", "--spec", spec], ["witness", "--spec", graph, "--r", "3"],
                 ["oracle", "--spec", graph, "--r", "3"], ["aut", "--spec", graph],
                 ["verify-theorem", "--spec", spec, "--R", "2", "--r", "10"],
                 ["report", str(tmp_path)]):
        assert cli.main([*argv, "--out", out]) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out}: "), argv
        assert captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c7.json", "chain.json"]


def _cli_process(argv, stdout):
    env = dict(os.environ, PYTHONPATH=str(Path(asdimforge.__file__).resolve().parents[1]))
    return subprocess.Popen([sys.executable, "-m", "asdimforge.cli", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, text=True, env=env)


def test_a_closed_stdout_exits_2(tmp_path, monkeypatch, capsys):
    """A reader that closes the pipe early, as ``| head -c 20`` does, leaves
    stdout unwritable: one ``error:`` line, no traceback, and nothing
    reported at interpreter exit."""
    closed_line = "error: cannot write stdout: [Errno 32] Broken pipe\n"
    # a report of about 0.3 MB, far more than a pipe holds unread
    spec = write_doc(tmp_path, "chain.json", chain_spec_doc(3200))
    proc = _cli_process(["build", "--spec", spec], subprocess.PIPE)
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    assert proc.stderr.read() == closed_line
    assert proc.wait(timeout=60) == 2
    # a pipe whose reader is gone before the command starts: the document
    # to stdout, and the summary line after an ``--out`` write
    graph = write_doc(tmp_path, "c7.json", cycle_graph_doc(7))
    small = write_doc(tmp_path, "small.json", chain_spec_doc(8))
    out = tmp_path / "build.json"
    for argv in (["aut", "--spec", graph], ["build", "--spec", small, "--out", str(out)]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _cli_process(argv, write_end)
        finally:
            os.close(write_end)
        assert proc.stderr.read() == closed_line, argv
        assert proc.wait(timeout=60) == 2, argv
        proc.stderr.close()
    assert json.loads(out.read_text())["sum_vertices"] == 34

    # in process, where stdout is a capture with no file descriptor
    def closed(args):
        raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(cli, "cmd_aut", closed)
    assert cli.main(["aut", "--spec", graph]) == 2
    assert capsys.readouterr().err == closed_line


def test_a_negative_declared_asdim_exits_2(tmp_path, capsys):
    """Every command that reads a spec rejects it, naming the key."""
    doc = chain_spec_doc(8)
    doc["asdim"] = {"factor1": 0, "adhesion": -1}
    spec = write_doc(tmp_path, "bad.json", doc)
    for argv, where in ((["build", "--spec", spec], spec),
                        (["verify-theorem", "--spec", spec, "--r", "4"], spec),
                        (["iterate", "--spec", spec, "--out", str(tmp_path / "out")],
                         f"stage 1 ({spec})")):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {where}: asdim 'adhesion' must be nonnegative, not -1\n"
    assert not (tmp_path / "out").exists()


def test_a_malformed_document_is_named_by_its_file(tmp_path, capsys):
    """A structural error names the file it is in, and in ``iterate`` the
    stage too: one ``error:`` line, exit 2, nothing written."""
    first = chain_spec_doc(6)
    good = write_doc(tmp_path, "good.json", first)
    bad = write_doc(tmp_path, "bad.json", {**first, "tree": {**first["tree"], "p1": "x"}})
    says = "tree.p1 must be an integer, not 'x'"
    stage2 = next_stage_doc(build_doc(first), depth=4)
    later = write_doc(tmp_path, "later.json", {**stage2, "tree": {**stage2["tree"], "p1": "x"}})
    out = tmp_path / "out"
    for argv, where in ((["build", "--spec", bad], bad),
                        (["verify-theorem", "--spec", bad, "--r", "4"], bad),
                        (["iterate", "--spec", bad, "--out", str(out)], f"stage 1 ({bad})"),
                        (["iterate", "--spec", good, "--spec", later, "--out", str(out)],
                         f"stage 2 ({later})")):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {where}: {says}\n", argv
    assert not any(p.name.startswith("stage02") for p in out.glob("*"))
    graph = write_doc(tmp_path, "graph.json", {"vertices": ["a", "b"], "edges": [["a", "c"]]})
    for argv in (["witness", "--spec", graph, "--r", "2"], ["oracle", "--spec", graph, "--r", "2"],
                 ["aut", "--spec", graph]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {graph}: edge endpoint 'a'/'c' not a vertex\n", argv


def test_an_invalid_atlas_is_named_by_its_file(tmp_path, capsys):
    """The atlas is checked as the spec is built, after it is parsed; its
    error names the file too, and in ``iterate`` the stage: one
    ``error:`` line, exit 2, nothing written."""
    first = chain_spec_doc(6)
    good = write_doc(tmp_path, "good.json", first)
    bad = write_doc(tmp_path, "bad.json", {**first, "atlas": first["atlas"][:1]})
    stage2 = next_stage_doc(build_doc(first), depth=4)
    later = write_doc(tmp_path, "later.json", {**stage2, "atlas": stage2["atlas"][:1]})
    says = "bonding atlas invalid: missing bonding map between '0' and '1'; " \
           "missing bonding map between '1' and '0'; missing bonding map between '1' and '1'"
    says2 = "bonding atlas invalid: missing bonding map between '0' and 'y'; " \
            "missing bonding map between '1' and 'x'; missing bonding map between '1' and 'y'"
    out = tmp_path / "out"
    for argv, where, what in ((["build", "--spec", bad], bad, says),
                              (["verify-theorem", "--spec", bad, "--r", "4",
                                "--out", str(tmp_path / "cert.json")], bad, says),
                              (["iterate", "--spec", bad, "--out", str(out)],
                               f"stage 1 ({bad})", says),
                              (["iterate", "--spec", good, "--spec", later, "--out", str(out)],
                               f"stage 2 ({later})", says2)):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {where}: {what}\n", argv
    assert not (tmp_path / "cert.json").exists()
    assert [p.name for p in out.glob("*")] == ["stage01_chain_k2.json"]


def test_verify_theorem_missing_file(tmp_path):
    assert cli.main(["verify-theorem", "--spec", str(tmp_path / "nope.json"),
                     "--r", "4"]) == 2


def test_verify_theorem_corrupt_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    assert cli.main(["verify-theorem", "--spec", str(bad), "--r", "4"]) == 2


def test_iterate_command(tmp_path, capsys):
    first = chain_spec_doc(6)
    stage2 = next_stage_doc(build_doc(first), depth=4)
    spec1 = write_doc(tmp_path, "stage1.json", first)
    spec2 = write_doc(tmp_path, "stage2.json", stage2)
    outdir = tmp_path / "artifacts"
    code = cli.main(["iterate", "--spec", spec1, "--spec", spec2,
                     "--out", str(outdir)])
    assert code == 0
    assert "PASS stages=2" in capsys.readouterr().out
    summary = json.loads((outdir / "iterate_summary.json").read_text())
    assert summary["stages"] == ["chain_k2", "chain_k2+stage"]
    files = sorted(p.name for p in outdir.glob("*.json"))
    assert "stage01_chain_k2.json" in files
    assert any(name.startswith("stage02_") for name in files)


def test_iterate_fails_when_a_stage_fails(tmp_path, monkeypatch, capsys):
    """A stage whose report is doctored to a failed atlas: every stage still
    runs and writes, and ``iterate`` prints FAIL and exits 1."""
    first = chain_spec_doc(6)
    spec1 = write_doc(tmp_path, "stage1.json", first)
    spec2 = write_doc(tmp_path, "stage2.json", next_stage_doc(build_doc(first), depth=4))
    report = cli.build_report
    monkeypatch.setattr(cli, "build_report", lambda br: {
        **report(br), **({"atlas": {"ok": False, "problems": ["doctored"]}}
                         if br.spec.name == "chain_k2" else {})})
    outdir = tmp_path / "artifacts"
    assert cli.main(["iterate", "--spec", spec1, "--spec", spec2, "--out", str(outdir)]) == 1
    assert "FAIL stages=2" in capsys.readouterr().out
    assert len(list(outdir.glob("stage*.json"))) == 2


def test_iterate_requires_previous_placeholder(tmp_path):
    first = chain_spec_doc(6)
    bad_stage = next_stage_doc(build_doc(first), depth=4)
    bad_stage["factors"][0] = {"vertices": ["q"], "edges": []}
    spec1 = write_doc(tmp_path, "stage1.json", first)
    spec2 = write_doc(tmp_path, "stage2.json", bad_stage)
    assert cli.main(["iterate", "--spec", spec1, "--spec", spec2,
                     "--out", str(tmp_path / "x")]) == 2
    # a factors field that is not a list is rejected, not indexed
    for factors in (-1, {"previous": 1}, "previous"):
        bad_stage["factors"] = factors
        spec2 = write_doc(tmp_path, "stage2.json", bad_stage)
        assert cli.main(["iterate", "--spec", spec1, "--spec", spec2,
                         "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("name", ["x/../../escaped", "a\0b"])
def test_iterate_rejects_a_stage_name_that_is_no_file_name(tmp_path, capsys, name):
    """A stage's report is named after the stage, so a name holding '/'
    could write outside ``--out`` and one holding NUL cannot be written."""
    spec = write_doc(tmp_path, "stage1.json", {**chain_spec_doc(6), "name": name})
    outdir = tmp_path / "art" / "inner"
    assert cli.main(["iterate", "--spec", spec, "--out", str(outdir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: stage 1 name {name!r} may not contain '/' or NUL\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["stage1.json"]


def test_report_command(tmp_path, capsys):
    spec = write_doc(tmp_path, "chain.json", chain_spec_doc(20))
    artifacts = tmp_path / "artifacts"
    artifacts.mkdir()
    assert cli.main(["verify-theorem", "--spec", spec, "--R", "2", "--r", "10",
                     "--out", str(artifacts / "cert.json")]) == 0
    assert cli.main(["build", "--spec", spec,
                     "--out", str(artifacts / "build.json")]) == 0
    capsys.readouterr()
    out = tmp_path / "table.json"
    assert cli.main(["report", str(artifacts), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "cert.json" in text and "build.json" in text
    rows = json.loads(out.read_text())["rows"]
    byfile = {row["file"]: row for row in rows}
    assert byfile["cert.json"]["kind"] == "certificate"
    assert byfile["cert.json"]["verdict"] == "PASS"
    assert byfile["build.json"]["kind"] == "build"


def test_report_handles_empty_and_missing(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["report", str(empty)]) == 0
    assert cli.main(["report", str(tmp_path / "ghost")]) == 2


def test_report_corrupt_artifact(tmp_path, capsys):
    artifacts = tmp_path / "artifacts"
    artifacts.mkdir()
    (artifacts / "broken.json").write_text("{oops")
    assert cli.main(["report", str(artifacts)]) == 2
    err = capsys.readouterr().err
    assert "broken.json" in err


def test_report_on_a_directory_named_json_exits_2(tmp_path, capsys):
    """A directory whose name ends in ``.json`` is an input ``report``
    cannot read: one ``error:`` line naming it, not an internal error."""
    artifacts = tmp_path / "artifacts"
    (artifacts / "x.json").mkdir(parents=True)
    assert cli.main(["report", str(artifacts)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "x.json" in captured.err


def test_report_reads_verdicts_only_from_documented_fields(tmp_path, capsys):
    artifacts = tmp_path / "artifacts"
    artifacts.mkdir()
    docs = {"build_int_projection.json": {"sum_vertices": 1, "projection": 5},
            "build_list_ok.json": {"sum_vertices": 1, "projection": {"ok": [1]},
                                   "atlas": {"ok": True}},
            "cert_dict_verdict.json": {"stages": [], "verdict": {"x": 1}},
            "witness_text_valid.json": {"D": 1, "families": [], "valid": "yes"}}
    for name, doc in docs.items():
        (artifacts / name).write_text(json.dumps(doc))
    out = tmp_path / "table.json"
    assert cli.main(["report", str(artifacts), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [(row["file"], row["kind"], row["verdict"]) for row in rows] == \
        [(name, "other", "-") for name in sorted(docs)]
    assert "{'x': 1}" not in capsys.readouterr().out


def test_verify_theorem_exits_3_without_consistency_witnesses(tmp_path, capsys):
    # with trivial actions no factor symmetry matches a bonding transfer
    # that swaps the edge's ends, so the symmetry walk cannot recenter
    doc = dict(chain_spec_doc(24), actions={"mode": "trivial"})
    spec = write_doc(tmp_path, "chain.json", doc)
    code = cli.main(["verify-theorem", "--spec", spec, "--R", "2", "--r", "10",
                     "--out", str(tmp_path / "cert.json")])
    assert code == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("precondition: consistency witnesses missing")
    assert not (tmp_path / "cert.json").exists()


# -- seeded mutation fuzz -------------------------------------------------------

# replacement values, one of each JSON kind and a few near-misses
_FUZZ_POOL = (None, True, False, 0, 1, -1, 3, 2.5, "", "a", "0", "t1", "previous",
              [], ["a"], [["a", "b"]], [1, 2], {}, {"a": "b"}, {"mode": "full"})
_FUZZ_KEYS = ("x", "annotations", "mode", "depth", "type2_J", "factor2", "pairs")


def _fuzz_paths(doc, prefix=()):
    """The path of every value in a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _fuzz_paths(value, prefix + (key,))


def _fuzz_edit(doc, rng):
    """One edit: replace a value, delete a key or list item, or add a key."""
    path = rng.choice(list(_fuzz_paths(doc)))
    value = copy.deepcopy(rng.choice(_FUZZ_POOL))
    if not path:
        return value if rng.random() < 0.5 else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    kind = rng.choice(("replace", "delete", "add"))
    if kind == "replace":
        parent[path[-1]] = value
    elif kind == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[rng.choice(_FUZZ_KEYS)] = value
    else:
        parent.append(value)
    return doc


def test_mutated_documents_never_exit_4(tmp_path, capsys):
    rng = random.Random(20261018)
    stage1 = chain_spec_doc(3)
    specs = {"chain_k2": stage1, "c3_k2": triangle_spec_doc(3),
             "type2_k2": type2_spec_doc(4),
             "stage2": next_stage_doc(build_doc(stage1), depth=3)}
    graphs = {"path10": path_graph_doc(10), "cycle7": cycle_graph_doc(7)}
    spec1 = write_doc(tmp_path, "stage1.json", stage1)
    codes = {}
    for i in range(1000):
        command = ("build", "iterate", "witness", "aut")[i % 4]
        pool = specs if command in ("build", "iterate") else graphs
        name = rng.choice(sorted(pool))
        doc = copy.deepcopy(pool[name])
        for _ in range(rng.randint(1, 2)):
            doc = _fuzz_edit(doc, rng)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--spec", str(path), "--out", str(tmp_path / command)]
        if command == "witness":
            argv += ["--r", "3", "--n", "1"]
        if command == "iterate" and name == "stage2":
            argv[1:1] = ["--spec", spec1]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (command, name, doc, err)
        codes[code] = codes.get(code, 0) + 1
    # the edits reach past the parser: some documents still pass
    assert codes.get(0) and codes.get(2), codes
