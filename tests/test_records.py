"""The package's result records, and what importing the package loads."""

import json
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import asdimforge
from asdimforge.covers import GreedyResult
from asdimforge.errors import PreconditionError
from asdimforge.records import Record
from asdimforge.theorem import ProofParameters


def test_records_keep_what_frozen_dataclasses_gave():
    p = ProofParameters(2, r=10, depth=40)
    assert p == ProofParameters(R=2, r=10, depth=40) != ProofParameters(2, 10, 41)
    assert hash(p) == hash(ProofParameters(2, 10, 40))
    assert repr(p) == "ProofParameters(R=2, r=10, depth=40)"
    with pytest.raises(AttributeError):
        p.r = 12
    with pytest.raises(AttributeError):
        del p.r
    with pytest.raises(PreconditionError):  # __post_init__ still validates
        ProofParameters(R=3, r=10, depth=40)
    assert GreedyResult(True, None, 1).detail == ""  # a class attribute is a default
    assert GreedyResult(False, None, 2, detail="why").detail == "why"
    for bad in ((1, 2), (1, 2, 3, 4), (2, 10, 40, 5)):
        with pytest.raises(TypeError):
            ProofParameters(*bad)
    with pytest.raises(TypeError, match=r"ProofParameters\.__init__\(\) got multiple values"):
        ProofParameters(2, 10, R=2)
    with pytest.raises(TypeError):
        ProofParameters(2, 10, 40, width=3)


def test_cached_property_fills_a_record():
    class Squares(Record):
        n: int

        @cached_property
        def table(self):
            return [i * i for i in range(self.n)]

    s = Squares(4)
    assert s.table is s.table == [0, 1, 4, 9]
    assert s == Squares(4) and Squares._fields == ("n",)


def test_importing_the_cli_loads_no_dataclasses():
    """Checked in a fresh interpreter, against what it had loaded before
    the import, so modules a site hook loads do not count."""
    src = str(Path(asdimforge.__file__).resolve().parents[1])
    probe = ("import json, sys; before = set(sys.modules); import asdimforge.cli; "
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    loaded = set(json.loads(run.stdout))
    assert "asdimforge.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
