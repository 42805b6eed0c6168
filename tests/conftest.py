"""Shared builds and tiny graph constructors for the suite.

Expensive truncation builds are session-scoped: every module measures
the same objects, which also exercises result reuse.
"""

from __future__ import annotations

import importlib.util
import io
from collections import deque
from pathlib import Path

import pytest

import asdimforge as af
from asdimforge import jsonio
from asdimforge.amalgam import ROOT, SumGraph, copy_vertex
from asdimforge.fixtures import (chain_spec_doc, path_graph_doc,
                                 triangle_spec_doc, type2_spec_doc)
from asdimforge.theorem import SeparationReport, _extend, _image_label


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


# the m-by-m torus glued to an edge, declared of asdim 2, and the seeded
# random specs and batch: the suite's are the ones the ladder builds
_ladder_spec = importlib.util.spec_from_file_location(
    "ladder", Path(__file__).resolve().parents[1] / "tools" / "ladder.py")
_ladder = importlib.util.module_from_spec(_ladder_spec)
_ladder_spec.loader.exec_module(_ladder)
torus_spec_doc = _ladder.torus_spec_doc
random_spec_doc = _ladder.random_spec_doc
CORPUS, run_corpus = _ladder.CORPUS, _ladder.run_corpus


def split_vertex_id(vid: str) -> tuple[str, str]:
    """(node, factor vertex) of a sum-graph vertex id ``node:vertex``; node
    ids hold no ``:``, factor vertex ids may."""
    node, _, orig = vid.partition(":")
    return node, orig


def copies_by_id(graph: af.FiniteGraph) -> dict[str, tuple[str, ...]]:
    """Each node's copy, read off the vertex ids in ``graph.vertices``
    order: the layout a hand-built ``SumGraph`` passes in, and the
    reference the build's ``copies`` must match."""
    out: dict[str, list[str]] = {}
    for v in graph.vertices:
        out.setdefault(split_vertex_id(v)[0], []).append(v)
    return {u: tuple(vs) for u, vs in out.items()}


def dumps(value) -> str:
    """The text ``jsonio.dump`` writes for ``value``, as one string."""
    out = io.StringIO()
    jsonio.dump(value, out)
    return out.getvalue()


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


def reference_cluster(points, dist) -> list[frozenset[str]]:
    """The transitive closure of distance < r as first written, for
    ``covers._cluster`` to match up to order: each point, in sorted order,
    scans every cluster built so far and merges those it comes near."""
    clusters: list[set[str]] = []
    for v in sorted(points):
        near = dist.near((v,))
        hits = [c for c in clusters if any(u in near for u in c)]
        if not hits:
            clusters.append({v})
        else:
            hits[0].add(v)
            for extra in hits[1:]:
                hits[0] |= extra
                clusters.remove(extra)
    return [frozenset(c) for c in clusters]


def reference_exact_min_families(space: af.MetricView, r: int) -> int:
    """Least n whose reference bound is below r, asking every n in turn."""
    for n in range(len(space)):
        if reference_exact_min_bound(space, r, n)[0] < r:
            return n
    return len(space) - 1


def reference_symmetry_map(br: af.BuildResult, t: str, radius: int):
    """One site's walk on tables of its own, for ``build_symmetry_map`` to
    match: (node_map, vertex_map, edge_ok, injective, detail).

    The walk fills its own step tables, scans the image's children for
    each label, writes two id strings per mapped vertex and takes the
    least edge of the mapped region that lands on a non-edge.
    """
    tree, h = br.tree, br.sum
    H = h.graph
    elements = (br.spec.action1.elements, br.spec.action2.elements)
    adhesions = (br.spec.adh1, br.spec.adh2)
    level = tree.level
    if t == ROOT:
        near = tree.nodes_within(ROOT, radius)
        vmap = {v: v for u in near for v in h.copy_vertices(u)}
        return {u: u for u in near}, vmap, True, True, "identity"
    m_t = tree.up_label[t]
    rho = br.rep_map1[m_t]
    adh1 = adhesions[0]
    e_root = next(i for i, g in enumerate(elements[0])
                  if frozenset(g[x] for x in adh1[rho]) == adh1[m_t])
    image_label: dict[tuple, str] = {}
    next_step: dict[tuple, int] = {}
    side_of, out_label, parent, children = (tree.node_side, tree.out_label, tree.parent,
                                            tree.children)
    node_map, elem = {ROOT: t}, {ROOT: e_root}
    perm = {ROOT: elements[0][e_root]}
    queue = deque([ROOT])
    dropped = 0
    while queue:
        u = queue.popleft()
        if level[u] == radius:
            continue
        e_u, u_img, side_u = elem[u], node_map[u], side_of[u]
        for w in children[u]:
            k = out_label[(u, w)]
            key = (side_u, e_u, k)
            k_img = image_label.get(key)
            if k_img is None:
                k_img = image_label[key] = _image_label(adhesions[side_u - 1], perm[u], k, u)
            p_img = parent.get(u_img)
            if p_img is not None and out_label[(u_img, p_img)] == k_img:
                w_img = p_img
            else:
                w_img = next((c for c in children[u_img] if out_label[(u_img, c)] == k_img),
                             None)
                if w_img is None:
                    dropped += 1
                    continue
            step = key + (out_label[(w, u)], k_img, out_label[(w_img, u_img)])
            e_w = next_step.get(step)
            if e_w is None:
                e_w = next_step[step] = _extend(br.spec, step, w)
            node_map[w], elem[w] = w_img, e_w
            perm[w] = elements[2 - side_u][e_w]
            queue.append(w)
    vmap = {copy_vertex(u, x): copy_vertex(u_img, perm[u][x])
            for u, u_img in node_map.items()
            for x in (br.spec.g1, br.spec.g2)[side_of[u] - 1].vertices}
    injective = len(set(vmap.values())) == len(vmap)
    edge_ok = True
    detail = f"mapped {len(node_map)} nodes, skipped {dropped} truncated subtrees"
    adjacency = H.adjacency
    bad = min(((a, b) for a in vmap for b in adjacency[a]
               if a < b and b in vmap and vmap[b] not in adjacency[vmap[a]]),
              default=None)
    if bad is not None:
        a, b = bad
        edge_ok = False
        detail = f"edge ({a}, {b}) maps to a non-edge ({vmap[a]}, {vmap[b]})"
    return node_map, vmap, edge_ok, injective, detail


def reference_partition(br: af.BuildResult, base, maps) -> tuple[list, dict]:
    """Each map's image of the working block and of the shell, clipped to
    the site's subtree vertex by vertex, each image id split for its
    node, for ``assemble_partition`` to match: the members after W0 as
    ``Block``s, and the shells."""
    tree = br.tree
    members, shells = [], {}
    for sm in maps:
        lo, hi = tree.preorder[sm.site], tree.subtree_end[sm.site]

        def inside(w):
            return lo <= tree.preorder[split_vertex_id(w)[0]] < hi
        image = {v: w for v in base.w_r.vertices
                 if (w := sm.vertex_map.get(v)) is not None and inside(w)}
        edges = tuple(sorted(tuple(sorted((image[a], image[b])))
                             for a, b in base.w_r.edges if a in image and b in image))
        members.append(af.Block(f"W@{sm.site}", frozenset(image.values()), edges))
        shells[sm.site] = frozenset(w for w in sm.carry(base.shell) if inside(w))
    return members, shells


def reference_connecting_tree(labels1, labels2, depth, type2_J=None) -> af.ConnectingTree:
    """The connecting tree as the explicit preorder stack walk built it,
    for ``build_connecting_tree`` to match record by record, dict
    insertion order included.  The walk's own edge-keyed labels stand in
    for the ``out_label`` view, so a comparison checks the view against
    them.  Inputs are taken as valid."""
    J = None if type2_J is None else frozenset(type2_J)
    side_labels = {1: tuple(sorted(labels1)), 2: tuple(sorted(labels2))}
    size = {(1, depth): 1, (2, depth): 1}
    for level in range(depth - 1, 0, -1):
        for side, other in ((1, 2), (2, 1)):
            size[side, level] = 1 + (len(side_labels[side]) - 1) * size[other, level + 1]
    total = 1 + len(side_labels[1]) * size[2, 1] if depth else 1
    width = len(str(max(total - 2, 0)))
    nodes, node_side = [ROOT], {ROOT: 1}
    parent, children, out_label, levels, preorder, subtree_end = {}, {}, {}, {}, {}, {}
    up_label, down_label = {}, {}
    stack = [(ROOT, 1, 0, None, 0)]
    while stack:
        u, side, level, toward_parent, first = stack.pop()
        levels[u] = level
        preorder[u] = len(preorder)
        subtree_end[u] = preorder[u] + (total if u == ROOT else size[side, level])
        mine = side_labels[side]
        if toward_parent is None:
            free = mine
        else:
            if J is None:
                back = mine[0]
            else:
                entry = out_label[(parent[u], u)]
                back = sorted(frozenset(mine) - J if entry in J else J)[0]
            out_label[(u, toward_parent)] = back
            up_label[u], down_label[u] = back, out_label[(parent[u], u)]
            free = tuple(k for k in mine if k != back)
        if level == depth:
            children[u] = ()
            continue
        kids = []
        other = 2 if side == 1 else 1
        step = size[other, level + 1]
        for i, k in enumerate(free):
            w = f"n{first + (i + 1) * step - 1:0{width}d}"
            nodes.append(w)
            node_side[w] = other
            parent[w] = u
            out_label[(u, w)] = k
            kids.append(w)
        children[u] = tuple(kids)
        stack.extend((w, other, level + 1, u, first + i * step)
                     for i, w in reversed(list(enumerate(kids))))
    nodes.sort()
    tree = af.ConnectingTree(side_labels[1], side_labels[2], depth, tuple(nodes), node_side,
                             parent, children, up_label, down_label, levels, preorder,
                             subtree_end, J)
    tree.out_label = out_label
    return tree


def reference_sum_graph(g1, g2, adh1, adh2, atlas, tree, flip_orientations=False) -> SumGraph:
    """The sum graph with every copy edge and bridge written out as an id
    pair for the edge-list ``FiniteGraph`` to check, sort and index, and
    the copies split off the ids, for ``build_sum_graph`` to match field
    by field."""
    factors = (g1, g2)
    vertices = [copy_vertex(node, x) for node in tree.nodes
                for x in factors[tree.node_side[node] - 1].vertices]
    edges = [(copy_vertex(node, x), copy_vertex(node, y)) for node in tree.nodes
             for x, y in factors[tree.node_side[node] - 1].edges]
    bridges = []
    for v, u in sorted(tree.parent.items()):  # in sorted child order
        one, two = (u, v) if tree.node_side[u] == 1 else (v, u)
        k, l = tree.out_label[(one, two)], tree.out_label[(two, one)]
        if flip_orientations:
            m = atlas.map_for(l, k)
            bridges += [(copy_vertex(two, x), copy_vertex(one, m[x])) for x in sorted(adh2[l])]
        else:
            m = atlas.map_for(k, l)
            bridges += [(copy_vertex(one, x), copy_vertex(two, m[x])) for x in sorted(adh1[k])]
    graph = af.FiniteGraph(vertices, edges + bridges)
    canon = tuple(sorted((a, b) if a <= b else (b, a) for a, b in bridges))
    return SumGraph(graph, tree, canon, copies_by_id(graph))


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: str, y: str):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def reference_contract_to_amalgam(h: SumGraph) -> af.AmalgamGraph:
    """The contraction as a string union-find over the bridges, whatever
    their direction and the vertex order, with the glued edges handed to
    the validating ``FiniteGraph`` as a sorted list, for
    ``contract_to_amalgam`` to match."""
    uf = _UnionFind(h.graph.vertices)
    for a, b in h.bridges:
        uf.union(a, b)
    fibers: dict[str, set[str]] = {}
    for v in h.graph.vertices:
        fibers.setdefault(uf.find(v), set()).add(v)
    projection, packed = {}, {}
    for members in fibers.values():
        amid = min(members)
        packed[amid] = frozenset(members)
        for v in members:
            projection[v] = amid
    edges = set()
    for x, y in h.graph.edges:
        px, py = projection[x], projection[y]
        if px != py:
            edges.add((px, py) if px <= py else (py, px))
    graph = af.FiniteGraph(sorted(packed), sorted(edges))
    return af.AmalgamGraph(graph, projection, packed)


def reference_block_shape(H: af.FiniteGraph, points: frozenset[str]) -> tuple:
    """``theorem.block_shape``'s key by two generic searches: rho from the
    greatest point's search until every point is settled, then the ball
    B(P, rho) labeled points first and the rest in search order, and its
    edges from a scan of every ball row."""
    order = sorted(points)
    reach = H.distances_to_set((order[-1],), until=points)
    rho = max(reach.get(v, af.INF) for v in order)
    if rho == af.INF:
        return ("unreachable", tuple(order))
    label = {v: i for i, v in enumerate(order)}
    for v in H.distances_to_set(points, limit=rho):
        label.setdefault(v, len(label))
    edges = sorted((i, j) for v, i in label.items()
                   for w in H.adjacency[v] if (j := label.get(w, -1)) > i)
    return (len(order), rho, tuple(edges))


def reference_separation(H: af.FiniteGraph, shells) -> SeparationReport:
    """``theorem.verify_separation`` as it scanned the whole of ``H.edges``
    for edges between two cells, for the settled-row scan to match field
    by field, ``work`` and the tie-breaks of ``closest_vertices``
    included; ``nearest_other`` is read off one full search per point."""
    sites = sorted(shells)
    live = [s for s in sites if shells[s]]
    empty = tuple(s for s in sites if not shells[s])
    work = {"searches": 0, "vertices_settled": 0, "boundary_edges": 0}
    best: list = [None] * len(live)
    least = None
    nearest = {}

    def offer(d, i, j, x, y):
        nonlocal least
        if i > j:
            i, j, x, y = j, i, y, x
        for a, b in ((i, j), (j, i)):
            if best[a] is None or (d, b) < best[a]:
                best[a] = (d, b)
        if least is None or (d, i, j) < least[:3]:
            least = (d, i, j, x, y)

    if len(live) > 1:
        cell, root = {}, {}
        for i, s in enumerate(live):
            for v in sorted(shells[s]):
                if v in cell:
                    offer(0, cell[v], i, v, v)
                else:
                    cell[v], root[v] = i, v
        points = set(cell)
        for x in points:
            reach = H.distances_from(x)
            nearest[x] = min((reach[y] for y in points - {x} if y in reach), default=af.INF)
        dist = H.distances_to_set(cell)
        work["searches"] = 1
        work["vertices_settled"] = len(dist)
        for v, d in dist.items():
            if d:
                p = next(p for p in H.adjacency[v] if dist.get(p) == d - 1)
                cell[v], root[v] = cell[p], root[p]
        for u, v in H.edges:
            i, j = cell.get(u), cell.get(v)
            if i is not None and j is not None and i != j:
                work["boundary_edges"] += 1
                offer(dist[u] + 1 + dist[v], i, j, root[u], root[v])
    pairs = tuple((s, None, af.INF) if row is None else (s, live[row[1]], row[0])
                  for s, row in zip(live, best))
    if least is None:
        return SeparationReport(pairs, af.INF, None, None, empty, work, nearest)
    d, i, j, x, y = least
    return SeparationReport(pairs, d, (live[i], live[j]), (x, y), empty, work, nearest)


def without_a_bridge_at(br: af.BuildResult, site: str) -> af.BuildResult:
    """``br`` with one bridge at ``site``'s copy gone from H (the first in
    ``bridges``); the bridge list and copies stay.  No accepted spec
    builds such a sum graph: the site's symmetry map carries a root
    edge onto the missing bridge."""
    h = br.sum
    gone = next(e for e in h.bridges if site in (h.node_of(e[0]), h.node_of(e[1])))
    H = h.graph
    doctored = af.FiniteGraph(H.vertices, [e for e in H.edges if e != gone])
    return af.BuildResult(br.spec, br.tree, SumGraph(doctored, br.tree, h.bridges, h.copies),
                          br.atlas_report, br.reps1, br.reps2, br.rep_map1)


def remap_nodes(monkeypatch, br: af.BuildResult, moves: dict[str, str]) -> None:
    """Doctor ``br``'s layout so that the copy over each key of ``moves``
    lies over its value; other copies stay, and copies moved onto one
    node join in ``H.vertices`` order.  Every reader of ``copies`` and
    ``node_of`` sees it.  No accepted spec builds such a layout."""
    h = br.sum
    # ``node_of`` is derived from the copies on first use: its table is
    # derived from the true copies here, dropped, and put back afterwards
    monkeypatch.delattr(h, "node_of")
    moved: dict[str, list[str]] = {}
    for u, vs in h.copies.items():
        moved.setdefault(moves.get(u, u), []).extend(vs)
    monkeypatch.setattr(h, "copies", {u: tuple(vs) for u, vs in moved.items()})


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
