"""Span tracing of the program's layers from the benchmark's side.

``install`` replaces chosen public functions of ``asdimforge`` with
wrappers, at every place callers look them up: each module global bound
to the function (``from .covers import greedy_witness`` makes one in
``theorem`` and one in ``cli``) and each class attribute for methods.
Nothing under ``src/`` changes.

A span records its name, start, end, parent span and op id.  Self time
(duration minus the time of its direct child spans) and call counts are
summed as spans close; the spans themselves are kept in memory, up to
``SPAN_CAP`` of them, and written out when the run ends.  Wrappers only
record while an op is open, so set-up and output checks are not traced.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.op: int | None = None
        self.stack: list[list] = []          # open spans: [id, name, start, child_s]
        self.next_id = 0
        self.spans: list[tuple] = []         # (id, name, start, end, parent, op)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.ops = 0
        # (graph, sources seen) per id(graph) for the open op; holding the
        # graph keeps its id from being reused before the op ends
        self.bfs_seen: dict[int, tuple[object, set]] = {}

    def enter(self, name: str) -> list:
        frame = [self.next_id, name, time.perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def leave(self, frame: list):
        end = time.perf_counter()
        self.stack.pop()
        sid, name, start, child_s = frame
        duration = end - start
        self.self_s[name] += duration - child_s
        self.total_s[name] += duration
        self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, name, start, end,
                               -1 if parent is None else parent[0], self.op))

    def begin_op(self, k: int):
        self.op = k
        self._op_frame = self.enter("bench.op")

    def end_op(self):
        self.leave(self._op_frame)
        self.op = None
        self.ops += 1
        self.counts["graphs.bfs_distinct_sources"] += sum(
            len(sources) for _, sources in self.bfs_seen.values())
        self.bfs_seen.clear()

    def write(self, path: Path, header: dict):
        origin = self.spans[0][2] if self.spans else 0.0
        doc = dict(header, spans_total=self.next_id, spans_kept=len(self.spans),
                   fields=["id", "name", "start_s", "end_s", "parent", "op"],
                   spans=[[sid, name, round(s - origin, 9), round(e - origin, 9), parent, op]
                          for sid, name, s, e, parent, op in self.spans])
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _wrap(tracer: Tracer, name: str, fn, hook=None):
    enter, leave = tracer.enter, tracer.leave

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        frame = enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave(frame)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return traced


# -- count hooks: run after the span closes, with the call's positional args --


def _note_bfs_source(t: Tracer, args, result):
    graph, source = args[0], args[1]
    t.bfs_seen.setdefault(id(graph), (graph, set()))[1].add(source)


def _count(key: str, measure):
    def hook(t: Tracer, args, result):
        t.counts[key] += measure(args, result)
    return hook


_FIT_PAIRS = _count("graphs.fit_pairs",
                    lambda a, r: len(a[0].source.points) * (len(a[0].source.points) - 1) // 2)

# (module, attribute path, count hook); the span is named "<layer>.<path>"
TARGETS = [
    ("theorem", "run_certificate", None),
    ("theorem", "verify_separation",
     _count("theorem.separation_pairs", lambda a, r: len(r.pairs))),
    ("theorem", "build_symmetry_map", None),
    ("theorem", "base_blocks", None),
    ("theorem", "assemble_partition", None),
    ("covers", "greedy_witness", _count("covers.greedy_ok", lambda a, r: int(r.ok))),
    ("covers", "band_witness", None),
    ("covers", "exact_min_bound", None),
    ("covers", "exact_min_families", None),
    ("covers", "lebesgue_number", None),
    ("covers", "multiplicity", None),
    ("graphs", "FiniteGraph.distances_from", _note_bfs_source),
    ("graphs", "FiniteGraph.distances_to_set", None),
    ("graphs", "fit_qi_constants", _FIT_PAIRS),
    ("graphs", "load_graph", None),
    ("amalgam", "build", _count("amalgam.sum_vertices", lambda a, r: len(r.sum.graph))),
    ("amalgam", "AmalgamationSpec.from_json_dict", None),
    ("groups", "compute_automorphisms", None),
    ("cli", "main", None),
    ("cli", "cmd_build", None),
    ("cli", "cmd_witness", None),
    ("cli", "cmd_oracle", None),
    ("cli", "cmd_aut", None),
    ("cli", "cmd_verify_theorem", None),
    ("cli", "cmd_iterate", None),
    ("cli", "cmd_report", None),
    ("cli", "projection_report", _count("cli.projection_pairs", lambda a, r: r["pairs"])),
    ("jsonio", "write_json", _count("jsonio.bytes_written", lambda a, r: os.path.getsize(r))),
    ("jsonio", "read_json", None),
]


def install(tracer: Tracer):
    """Wrap every target wherever the package's modules look it up."""
    import importlib
    import sys

    importlib.import_module("asdimforge.cli")
    modules = [m for name, m in sys.modules.items()
               if name == "asdimforge" or name.startswith("asdimforge.")]
    for layer, path, hook in TARGETS:
        module = sys.modules[f"asdimforge.{layer}"]
        name = f"{layer}.{path}"
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(_wrap(tracer, name, raw.__func__, hook)))
            else:
                setattr(cls, attr, _wrap(tracer, name, raw, hook))
            continue
        original = getattr(module, path)
        wrapped = _wrap(tracer, name, original, hook)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)


# -- per-layer metrics ---------------------------------------------------------

_CLI_COMMANDS = ("build", "witness", "oracle", "aut", "verify_theorem", "iterate", "report")

# metric name -> spans whose self time it sums
TIME_METRICS = {
    "theorem.certificate_s": ["theorem.run_certificate"],
    "theorem.separation_s": ["theorem.verify_separation"],
    "theorem.symmetry_maps_s": ["theorem.build_symmetry_map"],
    "theorem.base_blocks_s": ["theorem.base_blocks"],
    "theorem.partition_s": ["theorem.assemble_partition"],
    "covers.greedy_s": ["covers.greedy_witness"],
    "covers.band_s": ["covers.band_witness"],
    "covers.oracle_s": ["covers.exact_min_bound", "covers.exact_min_families"],
    "covers.lebesgue_s": ["covers.lebesgue_number"],
    "covers.multiplicity_s": ["covers.multiplicity"],
    "graphs.bfs_s": ["graphs.FiniteGraph.distances_from", "graphs.FiniteGraph.distances_to_set"],
    "graphs.fit_s": ["graphs.fit_qi_constants"],
    "graphs.load_s": ["graphs.load_graph"],
    "amalgam.build_s": ["amalgam.build"],
    "amalgam.spec_parse_s": ["amalgam.AmalgamationSpec.from_json_dict"],
    "groups.aut_s": ["groups.compute_automorphisms"],
    "cli.main_s": ["cli.main"],
    **{f"cli.{c}_s": [f"cli.cmd_{c}"] for c in _CLI_COMMANDS},
    "cli.projection_report_s": ["cli.projection_report"],
    "jsonio.write_s": ["jsonio.write_json"],
    "jsonio.read_s": ["jsonio.read_json"],
}

COUNT_METRICS = {
    "theorem.separation_pairs": lambda t: t.counts["theorem.separation_pairs"],
    "covers.greedy_calls": lambda t: t.calls["covers.greedy_witness"],
    "covers.oracle_calls": lambda t: t.calls["covers.exact_min_bound"],
    "graphs.bfs_calls": lambda t: (t.calls["graphs.FiniteGraph.distances_from"]
                                   + t.calls["graphs.FiniteGraph.distances_to_set"]),
    "graphs.fit_calls": lambda t: t.calls["graphs.fit_qi_constants"],
    "graphs.fit_pairs": lambda t: t.counts["graphs.fit_pairs"],
    "amalgam.sum_vertices": lambda t: t.counts["amalgam.sum_vertices"],
    "groups.aut_calls": lambda t: t.calls["groups.compute_automorphisms"],
    "cli.projection_pairs": lambda t: t.counts["cli.projection_pairs"],
    "jsonio.bytes_written": lambda t: t.counts["jsonio.bytes_written"],
}


def _greedy_ok_ratio(t: Tracer) -> float:
    """Block-greedy successes per attempt; a failure falls back to bands."""
    calls = t.calls["covers.greedy_witness"]
    return t.counts["covers.greedy_ok"] / calls if calls else 0.0


def _bfs_cache_hit_ratio(t: Tracer) -> float:
    """1 - distinct (graph, source) pairs within an op / distances_from calls."""
    calls = t.calls["graphs.FiniteGraph.distances_from"]
    return 1 - t.counts["graphs.bfs_distinct_sources"] / calls if calls else 0.0


RATIO_METRICS = {
    "covers.greedy_ok_ratio": _greedy_ok_ratio,
    "graphs.bfs_cache_hit_ratio": _bfs_cache_hit_ratio,
}

UNITS = {**{name: "s/op" for name in TIME_METRICS},
         **{name: "count/op" for name in COUNT_METRICS},
         **{name: "ratio" for name in RATIO_METRICS},
         "jsonio.bytes_written": "bytes/op"}


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Every per-layer metric: times and counts per op, ratios over the run."""
    ops = max(t.ops, 1)
    out = {name: sum(t.self_s[s] for s in spans) / ops for name, spans in TIME_METRICS.items()}
    out.update({name: f(t) / ops for name, f in COUNT_METRICS.items()})
    out.update({name: f(t) for name, f in RATIO_METRICS.items()})
    return out


def layer_self_times(t: Tracer) -> dict[str, float]:
    """Self seconds per op summed by layer (module); ``bench`` is harness time."""
    ops = max(t.ops, 1)
    layers: defaultdict[str, float] = defaultdict(float)
    for name, s in t.self_s.items():
        layers[name.split(".", 1)[0]] += s / ops
    return dict(sorted(layers.items(), key=lambda kv: -kv[1]))
