"""The one module that knows the JSON format.

``read_json`` parses every input document and accepts standard JSON
(RFC 8259) only: no ``NaN`` or ``Infinity``, no repeated object name.
``dump`` writes every artifact from plain JSON values, streaming the text
``CHUNK_PIECES`` pieces at a time; ``write_json`` streams to a temporary
sibling and renames it into place, so a crash never leaves a
half-written artifact.
"""

from __future__ import annotations

import errno
import json
import math
import os
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import ConfigError

# how many pieces ``_write`` piles up before it hands them to the file.  A
# certificate's pieces average about 10 bytes, so a chunk is about 10 KB:
# few enough writes that streaming costs a few percent of the writer's
# time, and about 0.1 MB of memory at any artifact size, where joining the
# whole text took 7-8 times the artifact's size.
CHUNK_PIECES = 1024


def dump(value, fh) -> None:
    """Write ``value`` to the text file ``fh`` as ``json.dumps(value,
    sort_keys=True, indent=2)`` writes it, plus a newline, a chunk at a
    time.  The standard encoder writes indented JSON in pure Python
    through nested generators, which made it a third of a certificate run.
    """
    def flush(out: list[str]):
        fh.write("".join(out))
        out.clear()

    out: list[str] = []
    _write(value, "\n", out, flush)
    out.append("\n")
    flush(out)


def _write(value, newline: str, out: list[str], sink):
    """Append the JSON of ``value`` to ``out``; ``newline`` opens a line at
    the current indent.  Each list or object that ends with more than
    ``CHUNK_PIECES`` pieces in ``out`` hands ``out`` to ``sink``, which
    empties it.  A float is written as "inf"/"-inf" if infinite and as an
    int if integral; a value that is no str, int, bool, None, list, tuple,
    dict with str keys or float, NaN included, raises ``TypeError``."""
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
        if len(out) > CHUNK_PIECES:
            sink(out)
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        # a key that is no str fails to sort or to encode, with a TypeError
        for key in sorted(value):
            out.append(lead + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, out, sink)
            lead = "," + inner
        out.append(newline + "}")
        if len(out) > CHUNK_PIECES:
            sink(out)
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is float and math.isfinite(value):
        out.append(int.__repr__(int(value)) if value.is_integer() else float.__repr__(value))
    elif kind is float and math.isinf(value):
        out.append('"inf"' if value > 0 else '"-inf"')
    else:
        raise TypeError(f"cannot serialize {kind.__name__}")


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


def _no_constant(name: str):
    raise ValueError(f"{name} is not standard JSON")


def _unique_names(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        name = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ValueError(f"repeated object name {name!r}")
    return obj


def read_json(path: str | Path):
    """The standard JSON document in the UTF-8 file ``path``; anything
    else raises ``ConfigError`` naming the file."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_no_constant,
                             object_pairs_hook=_unique_names)
    except FileNotFoundError as exc:
        raise ConfigError(f"missing file {path}") from exc
    except OSError as exc:  # a directory, a file it may not read, ...
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax, NaN, a repeated name, deep nests
        raise ConfigError(f"corrupt JSON in {path}: {exc}") from exc
