"""Shipped example documents: small factors, bonding data, benchmark graphs.

These are the inputs the test suite and the command-line examples run
against.  ``emit_all`` writes them as JSON next to the package so the
CLI can be exercised on files rather than inline dictionaries.
"""

from __future__ import annotations

from pathlib import Path

from .jsonio import write_json


def path_graph_doc(n: int) -> dict:
    """A path on n vertices p0 - p1 - ... - p(n-1)."""
    names = [f"p{i}" for i in range(n)]
    return {"vertices": names,
            "edges": [[names[i], names[i + 1]] for i in range(n - 1)]}


def cycle_graph_doc(n: int) -> dict:
    names = [f"c{i}" for i in range(n)]
    return {"vertices": names,
            "edges": [[names[i], names[(i + 1) % n]] for i in range(n)]}


def chain_spec_doc(depth: int = 40) -> dict:
    """Two single-edge factors glued end to end: the amalgam is a long path.

    Both factors are an edge a-b carrying two singleton boundary sets,
    and every bonding map is the unique bijection between singletons,
    so each tree node contributes one edge to an unbranched chain.
    """
    edge = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
    sets = {"0": ["a"], "1": ["b"]}
    return {
        "name": "chain_k2",
        "factors": [edge, dict(edge)],
        "adhesions": [sets, dict(sets)],
        "atlas": [
            {"left": "0", "right": "0", "pairs": [["a", "a"]]},
            {"left": "0", "right": "1", "pairs": [["a", "b"]]},
            {"left": "1", "right": "0", "pairs": [["b", "a"]]},
            {"left": "1", "right": "1", "pairs": [["b", "b"]]},
        ],
        "tree": {"p1": 2, "p2": 2, "depth": depth},
        "actions": {"mode": "full"},
        "asdim": {"factor1": 0, "factor2": 0, "adhesion": 0},
    }


def triangle_spec_doc(depth: int = 8) -> dict:
    """A triangle glued to single edges at every corner.

    The triangle carries three singleton boundary sets, the edge factor
    two, so the connecting tree is (3,2)-semiregular and the glued
    graph branches at every triangle copy.
    """
    tri = {"vertices": ["0", "1", "2"],
           "edges": [["0", "1"], ["1", "2"], ["0", "2"]]}
    edge = {"vertices": ["x", "y"], "edges": [["x", "y"]]}
    atlas = []
    for k in ("0", "1", "2"):
        for l, img in (("x", "x"), ("y", "y")):
            atlas.append({"left": k, "right": l, "pairs": [[k, img]]})
    return {
        "name": "c3_k2",
        "factors": [tri, edge],
        "adhesions": [{"0": ["0"], "1": ["1"], "2": ["2"]},
                      {"x": ["x"], "y": ["y"]}],
        "atlas": atlas,
        "tree": {"p1": 3, "p2": 2, "depth": depth},
        "actions": {"mode": "full"},
        "asdim": {"factor1": 0, "factor2": 0, "adhesion": 0},
    }


def type2_spec_doc(depth: int = 6) -> dict:
    """One shared edge factor glued to itself along alternating labels.

    Both boundary sets are singletons on the same factor and the label
    class {"0"} alternates against {"1"}.  The alternating tree only
    dereferences cross-class bonding maps, but the atlas carries the
    same-class maps too so the edge swap has a compatibility witness.
    """
    edge = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
    return {
        "name": "type2_k2",
        "factors": [edge],
        "adhesions": [{"0": ["a"], "1": ["b"]}],
        "atlas": [
            {"left": "0", "right": "0", "pairs": [["a", "a"]]},
            {"left": "0", "right": "1", "pairs": [["a", "b"]]},
            {"left": "1", "right": "0", "pairs": [["b", "a"]]},
            {"left": "1", "right": "1", "pairs": [["b", "b"]]},
        ],
        "tree": {"p1": 2, "p2": 2, "depth": depth, "type2_J": ["0"]},
        "actions": {"mode": "full"},
        "asdim": {"factor1": 0, "adhesion": 0},
    }


def next_stage_doc(previous, depth: int = 4) -> dict:
    """Stage document whose first factor is a finished build's amalgam.

    Written for path-shaped amalgams: the two degree-one vertices of
    the renamed amalgam become singleton boundary sets, and a fresh
    single-edge factor is glued between consecutive copies.  The first
    factor stays the literal string "previous"; the iterate runner
    substitutes the renamed graph before parsing.
    """
    from .graphs import relabel_sorted

    renamed, _ = relabel_sorted(previous.amalgam.graph)
    ends = sorted(v for v in renamed.vertices if len(renamed.adjacency[v]) <= 1)
    if len(ends) != 2:
        raise ValueError("previous amalgam is not path-shaped")
    edge = {"vertices": ["x", "y"], "edges": [["x", "y"]]}
    return {
        "name": f"{previous.spec.name}+stage",
        "factors": ["previous", edge],
        "adhesions": [{"0": [ends[0]], "1": [ends[1]]},
                      {"x": ["x"], "y": ["y"]}],
        "atlas": [
            {"left": "0", "right": "x", "pairs": [[ends[0], "x"]]},
            {"left": "0", "right": "y", "pairs": [[ends[0], "y"]]},
            {"left": "1", "right": "x", "pairs": [[ends[1], "x"]]},
            {"left": "1", "right": "y", "pairs": [[ends[1], "y"]]},
        ],
        "tree": {"p1": 2, "p2": 2, "depth": depth},
        "actions": {"mode": "trivial"},
        "asdim": {"factor1": 0, "factor2": 0, "adhesion": 0},
    }


SPEC_BUILDERS = {
    "chain_k2": chain_spec_doc,
    "c3_k2": triangle_spec_doc,
    "type2_k2": type2_spec_doc,
}


def emit_all(target: str | Path) -> list[Path]:
    """Write every shipped document into a directory; returns the paths."""
    target = Path(target)
    written = []
    for name, make in sorted(SPEC_BUILDERS.items()):
        written.append(write_json(target / f"{name}.json", make()))
    written.append(write_json(target / "path10.json", path_graph_doc(10)))
    written.append(write_json(target / "cycle7.json", cycle_graph_doc(7)))
    return written


def main() -> int:
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "specs"
    for p in emit_all(target):
        print(p)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
