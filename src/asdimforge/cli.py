"""Command-line workbench around the builder, the cover calculus, and
the certificate engine.

Exit codes: 0 means the requested check passed, 1 means it ran and
failed, 2 means the input documents were unusable, 3 means a
precondition was violated, 4 means the program itself went wrong (a
one-line ``internal error`` message, no traceback).  All artifacts are
JSON written atomically.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import islice
from pathlib import Path

from .amalgam import AmalgamationSpec, BuildResult, build
from .covers import exact_min_bound, greedy_witness
from .errors import ConfigError, PreconditionError
from .graphs import MetricView, load_graph, relabel_sorted
from .groups import compute_automorphisms
from .jsonio import dump, read_json, write_json
from .theorem import (ProofParameters, projection_fit, run_certificate,
                      stretched_edges, theorem_bound)


def _emit(doc, out: str | Path | None):
    """``doc`` to the file ``out`` by ``write_json``, or to stdout with no
    ``out``; a path it cannot write is an input error (exit 2)."""
    if not out:
        return dump(doc, sys.stdout)
    try:
        write_json(out, doc)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def _read(path, parse, stage: int | None = None, doc=None):
    """``parse`` of the document in the file ``path``, or of ``doc`` when
    the caller has read it; a ``ConfigError`` that ``parse`` raises is
    raised again naming the file, and in ``iterate`` the stage."""
    doc = read_json(path) if doc is None else doc
    try:
        return parse(doc)
    except ConfigError as exc:
        where = path if stage is None else f"stage {stage} ({path})"
        raise ConfigError(f"{where}: {exc}") from exc


# -- shared measurements -------------------------------------------------------


def projection_report(br: BuildResult) -> dict:
    """Check the copy-to-node projection never increases distances.

    It does not iff some edge of the sum graph is stretched, its ends two
    or more tree steps apart; each such edge is itself a failing pair,
    and the first ten in edge order are listed.
    """
    failures = [list(e) for e in islice(stretched_edges(br), 10)]
    n = len(br.sum.graph)
    return {"pairs": n * (n - 1) // 2, "ok": not failures, "failures": failures}


def build_report(br: BuildResult) -> dict:
    """The build's own report plus the projection check and distortion fit;
    the fit is null when the check fails or the sum graph is torn."""
    report = br.report_dict()
    report["projection"] = projection = projection_report(br)
    fit = projection_fit(br) if projection["ok"] else None
    report["projection_fit"] = None if fit is None else fit.to_json_dict()
    return report


def _witness_doc(w, valid: bool) -> dict:
    doc = w.to_json_dict()
    doc["D"] = doc.pop("bound")
    doc["valid"] = valid
    return doc


# -- subcommands ---------------------------------------------------------------


def cmd_build(args) -> int:
    spec = _read(args.spec, AmalgamationSpec.from_json_dict)
    br = build(spec, args.depth)
    report = build_report(br)
    _emit(report, args.out)
    ok = report["projection"]["ok"] and report["atlas"]["ok"]
    print(f"{'PASS' if ok else 'FAIL'} build {spec.name}: "
          f"sum={report['sum_vertices']} amalgam={report['amalgam_vertices']} "
          f"trivial={report['trivial']}")
    return 0 if ok else 1


def cmd_witness(args) -> int:
    g = _read(args.spec, load_graph)
    res = greedy_witness(MetricView(g), args.r, args.n)
    if not res.ok:
        print(f"FAIL witness: {res.detail}")
        return 1
    problems = res.witness.violations()
    _emit(_witness_doc(res.witness, not problems), args.out)
    if problems:
        print(f"FAIL witness: {problems[0]}")
        return 1
    print(f"PASS D={res.witness.bound}")
    return 0


def cmd_oracle(args) -> int:
    g = _read(args.spec, load_graph)
    w = exact_min_bound(MetricView(g), args.r, args.n)
    problems = w.violations()
    _emit(_witness_doc(w, not problems), args.out)
    print(f"D={w.bound}")
    print("PASS" if not problems else f"FAIL oracle: {problems[0]}")
    return 0 if not problems else 1


def cmd_aut(args) -> int:
    g = _read(args.spec, load_graph)
    action = compute_automorphisms(g)
    orbits = action.orbits()
    doc = {"order": len(action),
           "vertex_orbits": [sorted(o) for o in orbits],
           "elements": action.to_json_dict()["elements"]}
    _emit(doc, args.out)
    print(f"order={len(action)} orbits={len(orbits)}")
    return 0


def cmd_verify_theorem(args) -> int:
    spec = _read(args.spec, AmalgamationSpec.from_json_dict)
    depth = spec.depth if args.depth is None else args.depth
    params = ProofParameters(R=args.R, r=args.r, depth=depth)
    br = build(spec, depth)
    cert = run_certificate(br, params)
    out = args.out or "cert.json"
    _emit(cert.to_json_dict(), out)
    for st in cert.stages:
        print(f"  {st.name}: {'ok' if st.verdict else 'FAIL'}")
    print(f"{cert.verdict} bound={cert.bound} -> {out}")
    return 0 if cert.passed() else 1


def cmd_iterate(args) -> int:
    outdir = Path(args.out or "artifacts")
    prev: BuildResult | None = None
    names = []
    bound, ok = 1, True
    for idx, path in enumerate(args.spec):
        raw = read_json(path)
        if not isinstance(raw, dict):
            raise ConfigError(f"stage document {path} must be a JSON object")
        if idx > 0:
            factors = raw.get("factors")
            if not isinstance(factors, list) or factors[:1] != ["previous"]:
                raise ConfigError(
                    f"stage {idx + 1} must name its first factor \"previous\"")
            renamed, _ = relabel_sorted(prev.amalgam.graph)
            raw = dict(raw)
            raw["factors"] = [renamed.to_json_dict()] + list(factors[1:])
        spec = _read(path, AmalgamationSpec.from_json_dict, idx + 1, raw)
        if "/" in spec.name or "\0" in spec.name:
            raise ConfigError(f"stage {idx + 1} name {spec.name!r} may not contain '/' or NUL")
        br = build(spec, args.depth)
        report = build_report(br)
        report["stage"] = idx + 1
        ok = ok and report["projection"]["ok"] and report["atlas"]["ok"]
        _emit(report, outdir / f"stage{idx + 1:02d}_{spec.name}.json")
        decl = spec.declared_asdim
        bound = max(bound, theorem_bound(decl.get("factor1", 0),
                                         decl.get("factor2", 0),
                                         decl.get("adhesion", 0)))
        names.append(spec.name)
        prev = br
    _emit({"stages": names, "bound": bound}, outdir / "iterate_summary.json")
    print(f"{'PASS' if ok else 'FAIL'} stages={len(names)} bound={bound} -> {outdir}")
    return 0 if ok else 1


_ROW_FIELDS = ("file", "kind", "name", "verdict", "bound")


def _report_row(path: Path) -> dict:
    """One artifact's row.  A verdict is read only from a field of its
    documented type (``verdict`` "PASS" or "FAIL", ``valid`` and each
    ``ok`` a boolean); an artifact with any other shape is ``other``."""
    doc = read_json(path)
    row = {"file": path.name, "kind": "other", "name": "-",
           "verdict": "-", "bound": "-"}
    if not isinstance(doc, dict):
        return row
    if "stages" in doc and "verdict" in doc:
        if doc["verdict"] in ("PASS", "FAIL"):
            row.update(kind="certificate", name=doc.get("name", "-"),
                       verdict=doc["verdict"], bound=doc.get("bound", "-"))
    elif "D" in doc and "families" in doc:
        if isinstance(doc.get("valid"), bool):
            row.update(kind="witness", verdict="PASS" if doc["valid"] else "FAIL",
                       bound=doc["D"])
    elif "sum_vertices" in doc:
        oks = [part.get("ok") if isinstance(part, dict) else None
               for part in (doc.get("projection"), doc.get("atlas"))]
        if all(isinstance(ok, bool) for ok in oks):
            row.update(kind="build", name=doc.get("name", "-"),
                       verdict="PASS" if all(oks) else "FAIL",
                       bound=doc.get("amalgam_vertices", "-"))
    elif "stages" in doc and "bound" in doc:
        row.update(kind="summary", bound=doc["bound"], verdict="PASS")
    return row


def cmd_report(args) -> int:
    where = Path(args.artifacts)
    if not where.is_dir():
        raise ConfigError(f"not a directory: {where}")
    files = sorted(where.glob("*.json"))
    rows = [_report_row(f) for f in files]
    widths = {f: max([len(f)] + [len(str(r[f])) for r in rows])
              for f in _ROW_FIELDS}
    header = "  ".join(f.ljust(widths[f]) for f in _ROW_FIELDS)
    print(header.rstrip())
    print("  ".join("-" * widths[f] for f in _ROW_FIELDS))
    for r in rows:
        print("  ".join(str(r[f]).ljust(widths[f]) for f in _ROW_FIELDS).rstrip())
    if args.out:
        _emit({"rows": rows}, args.out)
    return 0


# -- argument wiring -----------------------------------------------------------


def _add_common(sub, radii=False, depth=True):
    sub.add_argument("--spec", required=True, help="input document path")
    if radii:
        sub.add_argument("--R", type=int, default=0, help="shell radius")
        sub.add_argument("--r", type=int, required=True, help="block/scale radius")
    if depth:
        sub.add_argument("--depth", type=int, default=None,
                         help="truncation depth override")
    sub.add_argument("--out", default=None, help="artifact output path")


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="asdimforge",
        description="Build glued tree-of-copies truncations and certify "
                    "their block decompositions.")
    subs = p.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("build", help="run one truncation build and report it")
    _add_common(sub)

    sub = subs.add_parser("witness", help="greedy block families on a graph")
    _add_common(sub, depth=False)
    sub.add_argument("--r", type=int, required=True, help="separation scale")
    sub.add_argument("--n", type=int, default=1, help="extra family budget")

    sub = subs.add_parser("oracle", help="exact minimal block bound (small graphs)")
    _add_common(sub, depth=False)
    sub.add_argument("--r", type=int, required=True, help="separation scale")
    sub.add_argument("--n", type=int, default=1, help="extra family budget")

    sub = subs.add_parser("aut", help="symmetries of a graph document")
    _add_common(sub, depth=False)

    sub = subs.add_parser("verify-theorem",
                          help="build, decompose, and certify one document")
    _add_common(sub, radii=True)

    sub = subs.add_parser("iterate", help="feed each amalgam into the next stage")
    sub.add_argument("--spec", action="append", required=True,
                     help="stage document (repeat per stage, in order)")
    sub.add_argument("--depth", type=int, default=None)
    sub.add_argument("--out", default=None, help="artifact directory")

    sub = subs.add_parser("report", help="tabulate a directory of artifacts")
    sub.add_argument("artifacts", help="directory holding JSON artifacts")
    sub.add_argument("--out", default=None, help="write the table as JSON too")
    return p


# the parser is built on the first call and serves every later one
_parser = functools.cache(make_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up per call, so a handler replaced after import is the one run
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:  # stdout is the only pipe the program writes
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        # what stdout still buffers goes to the null device at exit, not
        # to the closed pipe, which would print a second error
        try:
            stdout = sys.stdout.fileno()
        except OSError:  # stdout is no file, as under a test's capture
            return 2
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, stdout)
        os.close(null)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
