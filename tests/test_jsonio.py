"""The artifact writer against the standard library's encoder."""

import json
import os
import random
import stat
import tracemalloc
from collections import OrderedDict, namedtuple
from fractions import Fraction

import pytest

from asdimforge import cli, jsonio, theorem
from asdimforge.errors import ConfigError
from asdimforge.fixtures import chain_spec_doc, triangle_spec_doc

from conftest import build_doc

Pair = namedtuple("Pair", "left right")


class Shaped:
    def __init__(self, doc):
        self.doc = doc

    def to_json_dict(self):
        return self.doc


def _reference(value) -> str:
    return json.dumps(jsonio.to_jsonable(value), sort_keys=True, indent=2) + "\n"


def _scalar(rng: random.Random):
    return rng.choice([
        lambda: rng.randint(-10**20, 10**20),
        lambda: rng.choice([True, False, None]),
        lambda: "".join(rng.choice('ab"\\/\n\t\x01é→ :,{}[]') for _ in range(rng.randint(0, 6))),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        lambda: rng.choice([float("inf"), float("-inf"), -0.0, 2.0, 0.1, -3.5e-7, 1e300]),
    ])()


def _value(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return _scalar(rng)
    items = [_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    keys = [rng.choice([rng.randint(-3, 3), "k", "K", "a b", "é", True, None, 1.5])
            for _ in items]
    return rng.choice([
        lambda: items,
        lambda: tuple(items),
        lambda: dict(zip(keys, items)),
        lambda: OrderedDict(zip(map(str, keys), items)),
        lambda: Shaped(dict(zip(map(str, keys), items))),
        lambda: Shaped(_scalar(rng)),
        lambda: Pair(items[:1], items[1:]),
        lambda: frozenset(rng.randint(0, 9) for _ in items),
        lambda: {str(rng.randint(0, 9)) for _ in items},
    ])()


def test_dumps_matches_the_standard_encoder_on_random_values():
    rng = random.Random(15)
    for _ in range(2000):
        value = _value(rng, 4)
        assert jsonio.dumps(value) == _reference(value)


@pytest.mark.parametrize("make, depth, R, r", [(chain_spec_doc, 40, 2, 10),
                                               (triangle_spec_doc, 8, 0, 4)],
                         ids=["chain_k2-40", "c3_k2-8"])
def test_dumps_matches_the_standard_encoder_on_artifacts(tmp_path, make, depth, R, r):
    br = build_doc(make(depth))
    cert = theorem.run_certificate(br, theorem.ProofParameters(R=R, r=r, depth=depth))
    for doc in (cert, cert.to_json_dict(), cli.build_report(br)):
        text = jsonio.dumps(doc)
        assert text == _reference(doc)
        # the streamed file holds the same bytes
        assert jsonio.write_json(tmp_path / "doc.json", doc).read_bytes() == text.encode()


class Chunks(list):
    """A text file that keeps each write apart."""
    write = list.append


def _several_chunks() -> dict:
    """A document of about five chunks: a flat list longer than one chunk,
    then lists of objects nested three deep."""
    long_list = list(range(2 * jsonio.CHUNK_PIECES))
    nested = [{"id": f"n{i}", "rows": [[i, None], {"x": Fraction(i, 3), "y": [True]}]}
              for i in range(jsonio.CHUNK_PIECES // 8)]
    return {"long": long_list, "nested": nested, "tail": {"a": {"b": {"c": []}}}}


def test_write_json_streams_the_bytes_dumps_gives(tmp_path):
    doc = _several_chunks()
    text = jsonio.dumps(doc)
    assert text == _reference(doc)
    chunks = Chunks()
    jsonio.dump(doc, chunks)
    assert "".join(chunks) == text and len(chunks) >= 4
    assert jsonio.write_json(tmp_path / "doc.json", doc).read_bytes() == text.encode()


def test_write_json_that_fails_midway_leaves_the_target_alone(tmp_path):
    """A value that fails after the first chunk is written raises what
    ``dumps`` raises, leaves no temporary file, and leaves the file it was
    to replace as it was."""
    doc = _several_chunks()
    doc["tail"]["a"]["b"]["c"] = [object()]
    with pytest.raises(TypeError) as expected:
        jsonio.dumps(doc)
    target = jsonio.write_json(tmp_path / "doc.json", {"kept": [1, 2]})
    before = target.read_bytes()
    with pytest.raises(TypeError) as got:
        jsonio.write_json(target, doc)
    assert str(got.value) == str(expected.value) == "cannot serialize object"
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
    assert target.read_bytes() == before


def test_write_json_memory_does_not_grow_with_the_artifact(tmp_path):
    """The writer holds a bounded run of pieces, not the text: its traced
    peak on a certificate ten times longer stays under twice as high."""
    peaks = []
    for depth in (40, 400):
        br = build_doc(chain_spec_doc(depth))
        cert = theorem.run_certificate(br, theorem.ProofParameters(R=2, r=10, depth=depth))
        doc = cert.to_json_dict()
        tracemalloc.start()
        try:
            jsonio.write_json(tmp_path / "cert.json", doc)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks


def test_dumps_rejects_what_the_standard_path_rejects():
    for bad in (object(), float("nan"), {"x": [object()]}):
        with pytest.raises((TypeError, ValueError)):
            _reference(bad)
        with pytest.raises((TypeError, ValueError)):
            jsonio.dumps(bad)


def test_write_json_gives_the_mode_open_gives_and_leaves_no_temp_file(tmp_path, monkeypatch):
    old = os.umask(0o022)
    try:
        path = jsonio.write_json(tmp_path / "out" / "doc.json", {"a": [1, 2]})
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert jsonio.read_json(path) == {"a": [1, 2]}

        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            jsonio.write_json(tmp_path / "out" / "other.json", {"b": 1})
    finally:
        os.umask(old)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["doc.json"]


def test_read_json_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'\xff\xfe{"a": 1}')
    with pytest.raises(ConfigError, match="not UTF-8"):
        jsonio.read_json(path)
