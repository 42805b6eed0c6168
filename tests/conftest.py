"""Shared builds and tiny graph constructors for the suite.

Expensive truncation builds are session-scoped: every module measures
the same objects, which also exercises result reuse.
"""

from __future__ import annotations

import pytest

import asdimforge as af
from asdimforge.fixtures import (chain_spec_doc, path_graph_doc,
                                 triangle_spec_doc, type2_spec_doc)


def line_graph(n: int, prefix: str = "p") -> af.FiniteGraph:
    names = [f"{prefix}{i}" for i in range(n)]
    return af.FiniteGraph(names, [(names[i], names[i + 1]) for i in range(n - 1)])


def ring_graph(n: int, prefix: str = "c") -> af.FiniteGraph:
    names = [f"{prefix}{i}" for i in range(n)]
    return af.FiniteGraph(names, [(names[i], names[(i + 1) % n]) for i in range(n)])


def complete_graph(n: int, prefix: str = "k") -> af.FiniteGraph:
    names = [f"{prefix}{i}" for i in range(n)]
    return af.FiniteGraph(names, [(names[i], names[j])
                                  for i in range(n) for j in range(i + 1, n)])


def build_doc(doc, depth=None) -> af.BuildResult:
    return af.build(af.AmalgamationSpec.from_json_dict(doc), depth)


def projection_map(br: af.BuildResult, margin: int = 0) -> af.VertexMap:
    """The copy-to-node projection on the safe core (vertices over nodes
    no deeper than depth minus margin), for the pair walk of
    ``fit_qi_constants``: the reference ``projection_fit`` must match."""
    tree = br.tree
    keep = [u for u in tree.nodes if tree.node_depth(u) <= tree.depth - margin]
    target = af.MetricView(af.tree_graph(tree), list(tree.nodes))
    points = sorted(br.sum.vertices_over(keep))
    source = af.MetricView(br.sum.graph, points)
    return af.VertexMap(source, target, {v: br.sum.node_of(v) for v in points})


def reference_exact_min_bound(space: af.MetricView, r: int, n: int):
    """The exact oracle's search as first written, for ``exact_min_bound``
    to match: (bound, families).  Every coloring with the first point in
    family 0, each cluster a frozenset re-walked over string-keyed
    distance rows on every placement, and a branch cut only once it
    reaches the best complete value found."""
    pts = space.points
    dist = {v: space.graph.distances_to_set((v,), until=pts) for v in pts}

    def pair_d(x, y):
        return dist[x].get(y, af.INF)

    best_bound, best_families = af.INF, None

    def place(v, state, color):
        merged, diam, rest = {v}, 0, []
        for cluster, cdiam in state[color]:
            if any(pair_d(v, u) < r for u in cluster):
                merged |= cluster
                diam = max(diam, cdiam)
            else:
                rest.append((cluster, cdiam))
        for u in merged:
            for w in merged:
                diam = max(diam, pair_d(u, w))
        new_state = list(state)
        new_state[color] = rest + [(frozenset(merged), diam)]
        return new_state, diam

    def worst(state):
        return max((cd for fam in state for _, cd in fam), default=0)

    def walk(idx, state):
        nonlocal best_bound, best_families
        if idx == len(pts):
            w = worst(state)
            if w < best_bound:
                best_bound = w
                best_families = tuple(tuple(sorted((c for c, _ in fam), key=sorted))
                                      for fam in state)
            return
        for color in range(n + 1):
            new_state, diam = place(pts[idx], state, color)
            if max(diam, worst(new_state)) >= best_bound and best_bound is not af.INF:
                continue
            walk(idx + 1, new_state)

    walk(1, place(pts[0], [[] for _ in range(n + 1)], 0)[0])
    return best_bound, best_families


def reference_exact_min_families(space: af.MetricView, r: int) -> int:
    """Least n whose reference bound is below r, asking every n in turn."""
    for n in range(len(space)):
        if reference_exact_min_bound(space, r, n)[0] < r:
            return n
    return len(space) - 1


def remap_nodes(monkeypatch, br: af.BuildResult, moves: dict[str, str]) -> None:
    """Doctor ``br`` so that ``node_of`` puts the copy over each key of
    ``moves`` on its value; other copies stay.  No accepted spec builds
    such a map."""
    node_of = br.sum.node_of
    monkeypatch.setattr(br.sum, "node_of", lambda v: moves.get(node_of(v), node_of(v)))


def node_ids(table) -> dict[str, str]:
    """Node id -> label path, read from a ``tree`` table.

    The table lists the nodes in preorder, one ``[parent row, label]``
    per node, the root first as ``[null, "t1"]``.  A node's label path
    is its parent's, then ``/`` and its label.  A node other than the
    root is named ``n<k>``, k its postorder index, which is its row plus
    its subtree size, less one and less its depth; every k is padded to
    the width of the largest.
    """
    paths, depth = [], []
    for parent, label in table:
        if parent is None:
            paths.append(label)
            depth.append(0)
        else:
            paths.append(f"{paths[parent]}/{label}")
            depth.append(depth[parent] + 1)
    size = [1] * len(table)
    for row in range(len(table) - 1, 0, -1):
        size[table[row][0]] += size[row]
    width = len(str(max(len(table) - 2, 0)))
    out = {}
    for row, (parent, _) in enumerate(table):
        k = row + size[row] - 1 - depth[row]
        out[paths[row] if parent is None else f"n{k:0{width}d}"] = paths[row]
    return out


def label_paths(tree: af.ConnectingTree) -> dict[str, str]:
    """Node id -> label path of a built tree, read through its table."""
    return node_ids(tree.to_json_dict()["table"])


def path_ids(tree: af.ConnectingTree) -> dict[str, str]:
    """Label path -> node id of a built tree, read through its table."""
    return {path: u for u, path in label_paths(tree).items()}


@pytest.fixture(scope="session")
def chain6():
    return build_doc(chain_spec_doc(6))


@pytest.fixture(scope="session")
def chain20():
    return build_doc(chain_spec_doc(20))


@pytest.fixture(scope="session")
def chain40():
    return build_doc(chain_spec_doc(40))


@pytest.fixture(scope="session")
def chain160():
    return build_doc(chain_spec_doc(160))


@pytest.fixture(scope="session")
def triangle8():
    return build_doc(triangle_spec_doc(8))


@pytest.fixture(scope="session")
def triangle12():
    return build_doc(triangle_spec_doc(12))


@pytest.fixture(scope="session")
def type2_6():
    return build_doc(type2_spec_doc(6))


@pytest.fixture(scope="session")
def type2_8():
    return build_doc(type2_spec_doc(8))


@pytest.fixture(scope="session")
def path10():
    return af.load_graph(path_graph_doc(10))


@pytest.fixture()
def path10_view(path10):
    return af.MetricView(path10)
