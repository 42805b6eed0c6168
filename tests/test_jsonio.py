"""The artifact writer against the standard library's encoder, and the
strict reader."""

import json
import math
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

from conftest import build_doc, dumps

Pair = namedtuple("Pair", "left right")


def _plain(value):
    """``value`` as the writer writes it: infinities as "inf"/"-inf",
    integral floats as ints."""
    if isinstance(value, float) and (math.isinf(value) or value.is_integer()):
        return ("inf" if value > 0 else "-inf") if math.isinf(value) else int(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _reference(value) -> str:
    return json.dumps(_plain(value), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _scalar(rng: random.Random):
    return rng.choice([
        lambda: rng.randint(-10**20, 10**20),
        lambda: rng.choice([True, False, None]),
        lambda: "".join(rng.choice('ab"\\/\n\t\x01é→ :,{}[]') for _ in range(rng.randint(0, 6))),
        lambda: rng.choice([float("inf"), float("-inf"), -0.0, 2.0, 0.1, -3.5e-7, 1e300]),
    ])()


def _value(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return _scalar(rng)
    items = [_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    keys = [rng.choice(["k", "K", "a b", "é", "", "-1", '"\\']) for _ in items]
    return rng.choice([
        lambda: items,
        lambda: tuple(items),
        lambda: dict(zip(keys, items)),
    ])()


def test_dumps_matches_the_standard_encoder_on_random_values():
    rng = random.Random(15)
    for _ in range(2000):
        value = _value(rng, 4)
        assert dumps(value) == _reference(value)


@pytest.mark.parametrize("make, depth, R, r", [(chain_spec_doc, 40, 2, 10),
                                               (triangle_spec_doc, 8, 0, 4)],
                         ids=["chain_k2-40", "c3_k2-8"])
def test_dumps_matches_the_standard_encoder_on_artifacts(tmp_path, make, depth, R, r):
    br = build_doc(make(depth))
    cert = theorem.run_certificate(br, theorem.ProofParameters(R=R, r=r, depth=depth))
    for doc in (cert.to_json_dict(), cli.build_report(br)):
        text = dumps(doc)
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
    nested = [{"id": f"n{i}", "rows": [[i, None], {"x": f"{i}/3", "y": [True]}]}
              for i in range(jsonio.CHUNK_PIECES // 8)]
    return {"long": long_list, "nested": nested, "tail": {"a": {"b": {"c": []}}}}


def test_write_json_streams_the_bytes_dumps_gives(tmp_path):
    doc = _several_chunks()
    text = dumps(doc)
    assert text == _reference(doc)
    chunks = Chunks()
    jsonio.dump(doc, chunks)
    assert "".join(chunks) == text and len(chunks) >= 4
    assert jsonio.write_json(tmp_path / "doc.json", doc).read_bytes() == text.encode()


def test_write_json_that_fails_midway_leaves_the_target_alone(tmp_path):
    """A value that fails after the first chunk is written raises what
    ``dump`` raises into a string, leaves no temporary file, and leaves the
    file it was to replace as it was."""
    doc = _several_chunks()
    doc["tail"]["a"]["b"]["c"] = [object()]
    with pytest.raises(TypeError) as expected:
        dumps(doc)
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


class Shaped:
    def to_json_dict(self):
        return {"a": 1}


def test_dumps_rejects_what_the_standard_path_rejects():
    """What the standard encoder rejects, and the values no artifact
    holds: records and objects with ``to_json_dict``, rationals, sets,
    objects with a key that is no str, and subclasses of tuple and dict."""
    for bad in (object(), float("nan"), {"x": [object()]}, [float("-nan")], Fraction(1, 2)):
        with pytest.raises((TypeError, ValueError)):
            _reference(bad)
        with pytest.raises(TypeError):
            dumps(bad)
    record = theorem.ProofParameters(R=0, r=4, depth=8)
    for bad in (Shaped(), record, Fraction(2), {1, 2}, frozenset("a"), {1: "a"},
                {"a": 1, 2: "b"}, {None: 1}, {True: 1}, {1.5: 1}, Pair([1], [2]),
                OrderedDict(a=1)):
        with pytest.raises(TypeError):
            dumps(bad)


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


@pytest.mark.parametrize("text, says", [
    ('{"D": NaN}', "NaN is not standard JSON"),
    ("[1, Infinity]", "Infinity is not standard JSON"),
    ('{"a": {"b": -Infinity}}', "-Infinity is not standard JSON"),
    ('{"a": 1, "b": {"c": 2, "c": 3}}', "repeated object name 'c'"),
    ('[{"x": 1}, {"x": 1, "y": 2, "x": 1}]', "repeated object name 'x'"),
    ("not { json", "Expecting value"),
    ("", "Expecting value"),
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth"),
], ids=["NaN", "Infinity", "-Infinity", "repeated", "repeated-in-a-list", "syntax", "empty",
        "nested-too-deep"])
def test_read_json_accepts_standard_json_only(tmp_path, text, says):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="corrupt JSON in") as got:
        jsonio.read_json(path)
    assert str(path) in str(got.value) and says in str(got.value)


def test_read_json_reads_what_dump_writes(tmp_path):
    doc = {"a": [1, -2.5, "x", None, True, {"": [], "b": {}}], "c": "é\u2192\n"}
    assert jsonio.read_json(jsonio.write_json(tmp_path / "doc.json", doc)) == doc


def test_read_json_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'\xff\xfe{"a": 1}')
    with pytest.raises(ConfigError, match="not UTF-8"):
        jsonio.read_json(path)
