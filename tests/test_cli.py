"""Command-line surface, exercised in process through cli.main."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import asdimforge
from asdimforge import cli, jsonio
from asdimforge.fixtures import (chain_spec_doc, cycle_graph_doc,
                                 next_stage_doc, path_graph_doc,
                                 triangle_spec_doc)
from asdimforge.graphs import INF
from asdimforge.theorem import projection_fit

from conftest import build_doc


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
    assert doc["projection"]["mode"] == "exhaustive"
    assert doc["projection_fit"] is not None


def _per_pair_failures(br) -> list:
    """Every failing pair of the projection check, in vertex order."""
    H, tree, node_of = br.sum.graph, br.tree, br.sum.node_of
    failures = []
    for x in H.vertices:
        dist = H.distances_from(x)
        for y in H.vertices:
            if y > x and tree.distance(node_of(x), node_of(y)) > dist.get(y, INF):
                failures.append([x, y])
    return failures


def test_build_report_failures_match_per_pair_walk(monkeypatch):
    br = build_doc(chain_spec_doc(8))
    near, far = br.tree.nodes[1], br.tree.nodes[-1]
    swap = {near: far, far: near}
    node_of = br.sum.node_of
    monkeypatch.setattr(br.sum, "node_of", lambda v: swap.get(node_of(v), node_of(v)))
    expected = _per_pair_failures(br)
    assert len(expected) > 10
    report = cli.build_report(br, 0, False)
    n = len(br.sum.graph)
    assert report["projection"] == {"mode": "exhaustive", "pairs": n * (n - 1) // 2,
                                    "seed": None, "ok": False,
                                    "failures": expected[:10]}
    assert report["projection_fit"] == projection_fit(br).to_json_dict()


def test_build_exhaustive_above_the_cap(tmp_path):
    depth = (cli.FIT_SIZE_CAP + 2) // 4  # chain_k2 has 4 * depth + 2 sum vertices
    spec = write_doc(tmp_path, "chain.json", chain_spec_doc(depth))
    sampled, full = tmp_path / "sampled.json", tmp_path / "full.json"
    assert cli.main(["build", "--spec", spec, "--out", str(sampled)]) == 0
    assert cli.main(["build", "--spec", spec, "--exhaustive", "--out", str(full)]) == 0
    sampled, full = json.loads(sampled.read_text()), json.loads(full.read_text())
    n = full["sum_vertices"]
    assert n > cli.FIT_SIZE_CAP
    assert sampled["projection"]["mode"] == "sampled"
    assert sampled["projection_fit"] is None
    assert full["projection"]["mode"] == "exhaustive"
    assert full["projection"]["pairs"] == n * (n - 1) // 2
    assert full["projection"]["ok"]
    expected = projection_fit(build_doc(chain_spec_doc(depth))).to_json_dict()
    assert full["projection_fit"] == expected


def _bad_asdim(doc):
    doc["asdim"] = {"factor1": "one"}


def _bool_asdim(doc):
    doc["asdim"] = {"factor1": True}


def _string_adhesion(doc):
    doc["adhesions"][0] = {"0": "ab", "1": ["b"]}


@pytest.mark.parametrize("corrupt", [_bad_asdim, _bool_asdim, _string_adhesion])
def test_build_rejects_mistyped_fields(tmp_path, corrupt):
    doc = chain_spec_doc(8)
    corrupt(doc)
    spec = write_doc(tmp_path, "bad.json", doc)
    assert cli.main(["build", "--spec", spec]) == 2
    src = str(Path(asdimforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "asdimforge.cli", "build", "--spec", spec],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error: ")


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


def test_aut_command(tmp_path, capsys):
    graph = write_doc(tmp_path, "c7.json", cycle_graph_doc(7))
    out = tmp_path / "aut.json"
    assert cli.main(["aut", "--spec", graph, "--out", str(out)]) == 0
    assert "order=14 orbits=1" in capsys.readouterr().out
    assert json.loads(out.read_text())["order"] == 14


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
    assert cert["stage_order"][0] == "parameters"


def test_verify_theorem_failure_exit(tmp_path, capsys):
    spec = write_doc(tmp_path, "chain.json", chain_spec_doc(8))
    code = cli.main(["verify-theorem", "--spec", spec, "--R", "2", "--r", "10",
                     "--out", str(tmp_path / "c.json")])
    assert code == 3  # truncation too shallow for certificate grade


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


def test_iterate_requires_previous_placeholder(tmp_path):
    first = chain_spec_doc(6)
    bad_stage = next_stage_doc(build_doc(first), depth=4)
    bad_stage["factors"][0] = {"vertices": ["q"], "edges": []}
    spec1 = write_doc(tmp_path, "stage1.json", first)
    spec2 = write_doc(tmp_path, "stage2.json", bad_stage)
    assert cli.main(["iterate", "--spec", spec1, "--spec", spec2,
                     "--out", str(tmp_path / "x")]) == 2


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
