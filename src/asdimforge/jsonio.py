"""Deterministic JSON emission shared by the CLI and the certificate engine.

Values that JSON cannot carry natively are stringified the same way
everywhere: exact rationals as "p/q", infinities as "inf"/"-inf".
One writer makes the text: ``dumps`` joins it into a string, and
``dump`` streams it to a file, ``CHUNK_PIECES`` pieces at a time, so
the writer holds a bounded run of pieces rather than the artifact.
``write_json`` streams to a temporary sibling and renames it into place,
so a crash never leaves a half-written artifact; the CLI streams a
document to stdout the same way.
"""

from __future__ import annotations

import errno
import json
import math
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import ConfigError


def to_jsonable(value):
    """Recursively rewrite a value into plain JSON-safe types."""
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else str(value.numerator)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if value == int(value):
            return int(value)
        return value
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [to_jsonable(v) for v in sorted(value)]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if hasattr(value, "to_json_dict"):
        return to_jsonable(value.to_json_dict())
    raise TypeError(f"cannot serialize {type(value).__name__}")


# how many pieces ``_write`` piles up before a streaming write hands them to
# the file.  A certificate's pieces average about 10 bytes, so a chunk is
# about 10 KB: few enough writes that streaming costs a few percent of the
# writer's time, and about 0.1 MB of memory at any artifact size, where
# joining the whole text took 7-8 times the artifact's size.
CHUNK_PIECES = 1024


def dumps(value) -> str:
    """``value`` as JSON with sorted keys and two-space indents, plus a newline.

    The text is ``json.dumps(to_jsonable(value), sort_keys=True,
    indent=2)``'s, written in one pass that converts as it goes: the
    standard encoder writes indented JSON in pure Python through nested
    generators, which made it a third of a certificate run.
    """
    out: list[str] = []
    _write(value, "\n", out, None)
    out.append("\n")
    return "".join(out)


def dump(value, fh) -> None:
    """Write ``dumps(value)``'s text to the text file ``fh``, a chunk at a
    time, so the text is never held whole."""
    def flush(out: list[str]):
        fh.write("".join(out))
        out.clear()

    out: list[str] = []
    _write(value, "\n", out, flush)
    out.append("\n")
    flush(out)


def _write(value, newline: str, out: list[str], sink):
    """Append the JSON of ``value`` to ``out``; ``newline`` opens a line at
    the current indent.  With a ``sink``, each list or object that ends with
    more than ``CHUNK_PIECES`` pieces in ``out`` hands ``out`` to it, and
    the sink empties it."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in value:
            out.append(lead)
            # the commonest items, written here rather than by a call each
            if type(item) is str:
                out.append(encode_basestring_ascii(item))
            elif type(item) is int:
                out.append(int.__repr__(item))
            else:
                _write(item, inner, out, sink)
            lead = "," + inner
        out.append(newline + "]")
        if sink is not None and len(out) > CHUNK_PIECES:
            sink(out)
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        named = {str(k): v for k, v in value.items()}
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(named):
            out.append(lead + encode_basestring_ascii(key) + ": ")
            _write(named[key], inner, out, sink)
            lead = "," + inner
        out.append(newline + "}")
        if sink is not None and len(out) > CHUNK_PIECES:
            sink(out)
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    else:
        # everything else as ``to_jsonable`` rewrites it, subclasses included
        plain = to_jsonable(value)
        if isinstance(plain, str):
            out.append(encode_basestring_ascii(plain))
        elif isinstance(plain, float):
            out.append(float.__repr__(plain))
        elif isinstance(plain, int) and not isinstance(plain, bool):
            out.append(int.__repr__(plain))
        else:  # a plain dict or list, a bool or None
            _write(plain, newline, out, sink)


def write_json(path: str | Path, value) -> Path:
    """Serialize atomically: temp file in the target directory, then rename.

    A path with no file name (``.``, ``/``) names a directory, and raises
    ``IsADirectoryError`` before anything is written.
    """
    path = Path(path)
    if not path.name:
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # less the umask, as open() gives
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            dump(value, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_json(path: str | Path):
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"missing file {path}") from exc
    except OSError as exc:  # a directory, a file it may not read, ...
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"corrupt JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
