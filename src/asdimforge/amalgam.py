"""Tree-glued graph construction: labeled trees, sum graphs, contraction.

The pipeline: a finite truncation of a (p1,p2)-semiregular tree carries
one factor copy per node; matched boundary sets of adjacent copies are
joined by bridging edges (the sum graph); contracting every bridging
edge yields the glued graph together with its projection.

Truncations are canonical: the root is ``t1`` and every other node is
``n<k>``, k its postorder index in the tree walk (children in sorted
label order, then the node), zero-padded to one width per build, so two
builds of the same input are byte-identical and sorted ids list the
nodes in postorder.  Node and vertex ids are names only, and no package
code parses one: depths, distances, paths, balls and subtrees are read
off the parent, child and depth records the build leaves behind, and
the tree's ``table`` gives back each node's label path (``t1/a/x/b``,
each component the label of the edge leaving the parent).  A vertex's
copy, and a factor vertex's image in a copy, are read off the sum
graph's ``copies``, which the build lays out and a hand-built sum graph
passes in (see ``SumGraph``); the glued graph keeps only its projection
and fibers (see ``AmalgamGraph``).  The cut
happens at a fixed radius around the root, and downstream checks stay
inside a safe core where the truncation is indistinguishable from the
infinite object.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ConfigError, GraphFormatError, PreconditionError
from .graphs import FiniteGraph, load_graph
from .groups import GroupAction, compute_automorphisms, invert, is_automorphism
from .records import Record

ROOT = "t1"


class AdhesionFamily:
    """Labeled boundary sets of one factor graph."""

    def __init__(self, graph: FiniteGraph, sets: Mapping[str, Iterable[str]]):
        if not isinstance(sets, Mapping):
            raise ConfigError("an adhesion family must map labels to vertex lists")
        self.graph = graph
        self.labels = tuple(sorted(sets))
        if not self.labels:
            raise ConfigError("empty adhesion family")
        packed = {}
        for k in self.labels:
            if "/" in k or ":" in k:
                raise ConfigError(f"adhesion label {k!r} may not contain '/' or ':'")
            if not isinstance(sets[k], (list, tuple)) or \
                    not all(isinstance(x, str) for x in sets[k]):
                raise ConfigError(f"adhesion set {k!r} must be a list of vertex ids, "
                                  f"not {sets[k]!r}")
            members = graph.require_members(sets[k])
            if not members:
                raise ConfigError(f"adhesion set {k!r} is empty")
            if len(members) < len(sets[k]):
                raise ConfigError(f"adhesion set {k!r} repeats a vertex")
            packed[k] = members
        self.sets = packed

    def __getitem__(self, label: str) -> frozenset[str]:
        try:
            return self.sets[label]
        except KeyError:
            raise ConfigError(f"unknown adhesion label {label!r}") from None

    def __len__(self) -> int:
        return len(self.labels)


# -- the connecting tree ----------------------------------------------------


class ConnectingTree:
    """A rooted, edge-labeled truncation of a semiregular bipartite tree.

    ``node_side[u]`` is 1 or 2.  Each edge's two labels are kept at its
    lower end: ``up_label[w]`` is the label w uses toward its parent and
    ``down_label[w]`` the one its parent uses toward w (the root has
    neither); ``out_label[(u, v)]``, the label the directed edge u->v
    consumes at u, is a view of the two, and ``across(u, k)`` the node
    the label k leads to from u.  ``level[u]`` is u's distance from
    the root.  ``preorder[u]`` is u's index in the tree walk (the dict
    itself lists the nodes in that order) and
    ``subtree_end[u]`` the index just past its last descendant, so v
    lies in u's subtree exactly when
    ``preorder[u] <= preorder[v] < subtree_end[u]``.  Every non-frontier
    node uses each of its side's labels exactly once across its incident
    edges.
    """

    def __init__(self, labels1, labels2, depth, nodes, node_side, parent,
                 children, up_label, down_label, level, preorder, subtree_end, type2_J):
        self.labels1 = labels1
        self.labels2 = labels2
        self.depth = depth
        self.nodes = nodes
        self.node_side = node_side
        self.parent = parent
        self.children = children
        self.up_label = up_label
        self.down_label = down_label
        self.level = level
        self.preorder = preorder
        self.subtree_end = subtree_end
        self.type2_J = type2_J
        self.node_set = frozenset(nodes)

    @property
    def p1(self) -> int:
        return len(self.labels1)

    @property
    def p2(self) -> int:
        return len(self.labels2)

    def node_depth(self, u: str) -> int:
        return self.level[u]

    def require_node(self, u: str):
        if u not in self.node_set:
            raise PreconditionError(f"unknown tree node {u!r}")

    @cached_property
    def frontier(self) -> frozenset[str]:
        """The nodes at the cut, on level ``depth``."""
        level, depth = self.level, self.depth
        return frozenset(u for u in self.nodes if level[u] == depth)

    @cached_property
    def out_label(self) -> dict[tuple[str, str], str]:
        """(u, v) -> the label u uses toward v, both ways along every edge:
        node by node in preorder, toward the parent first and then to each
        child.  Made on first read from ``up_label`` and ``down_label``."""
        parent, up, down = self.parent, self.up_label, self.down_label
        out = {}
        for u, kids in self.children.items():
            if u in parent:
                out[u, parent[u]] = up[u]
            for w in kids:
                out[u, w] = down[w]
        return out

    def across(self, u: str, k: str) -> str | None:
        """The node across the edge that label k leaves u by; None when the
        cut took that edge off, or u uses no label k."""
        if self.up_label.get(u) == k:
            return self.parent[u]
        down = self.down_label
        for w in self.children[u]:
            if down[w] == k:
                return w
        return None

    def path(self, u: str, v: str) -> tuple[str, ...]:
        """Tree nodes from u to v, both endpoints included."""
        self.require_node(u)
        self.require_node(v)
        level, parent = self.level, self.parent
        up, down = [u], [v]
        while level[up[-1]] > level[down[-1]]:
            up.append(parent[up[-1]])
        while level[down[-1]] > level[up[-1]]:
            down.append(parent[down[-1]])
        while up[-1] != down[-1]:
            up.append(parent[up[-1]])
            down.append(parent[down[-1]])
        return tuple(up + down[-2::-1])

    def _ball(self, center: str, radius: int) -> dict[str, int]:
        """Each node within radius of center and its distance, by the tree's records."""
        self.require_node(center)
        ball, ring = {}, [center]
        for d in range(radius + 1):
            ball.update(dict.fromkeys(ring, d))
            ring = [w for u in ring for w in self._incident(u) if w not in ball]
        return ball

    def nodes_within(self, center: str, radius: int) -> tuple[str, ...]:
        return tuple(sorted(self._ball(center, radius)))

    def nodes_at(self, center: str, radius: int) -> tuple[str, ...]:
        return tuple(sorted(u for u, d in self._ball(center, radius).items() if d == radius))

    def is_semiregular(self) -> tuple[bool, str]:
        parent, up, down, children = self.parent, self.up_label, self.down_label, self.children
        for u in self.nodes:
            if u in self.frontier:
                continue
            want = self.labels1 if self.node_side[u] == 1 else self.labels2
            got = [down[w] for w in children.get(u, ())]
            if u in parent:
                got.append(up[u])
            got.sort()
            if got != sorted(want):
                return False, f"node {u!r} uses labels {got}, wanted each of {sorted(want)} once"
        return True, ""

    def _incident(self, u: str):
        out = list(self.children.get(u, ()))
        p = self.parent.get(u)
        if p is not None:
            out.append(p)
        return out

    def to_json_dict(self) -> dict:
        """The tree's shape plus its ``table``: one ``[parent row, label]``
        per node in preorder, the root first as ``[null, "t1"]``, from
        which every label path, and with the postorder every id, follows."""
        preorder, parent, down = self.preorder, self.parent, self.down_label
        table = [[None, ROOT] if u == ROOT else [preorder[parent[u]], down[u]]
                 for u in preorder]
        return {
            "p1": self.p1, "p2": self.p2, "depth": self.depth, "table": table,
            "type2_J": sorted(self.type2_J) if self.type2_J is not None else None,
        }


def build_connecting_tree(labels1: Sequence[str], labels2: Sequence[str], depth: int,
                          type2_J: Iterable[str] | None = None) -> ConnectingTree:
    """Truncate the canonical labeled (p1,p2)-semiregular tree at a radius.

    Side-1 nodes carry the p1 labels of ``labels1``, side-2 nodes the
    p2 labels of ``labels2``.  The truncation is the full ball of the
    given radius around the root, which keeps the root at full degree.
    Toward its parent a node uses the least label still allowed (the
    least label outright, or the least of the forced class when an
    alternating class set is given); the remaining labels go to its
    children in sorted order.  The root is ``t1``; every other node is
    ``n<k>`` with k its postorder index, so ``nodes`` is the postorder.
    """
    labels1, labels2 = tuple(labels1), tuple(labels2)
    if not labels1 or not labels2:
        raise PreconditionError("need at least one label on each side")
    if depth < 0:
        raise PreconditionError("need depth >= 0")
    if len(set(labels1)) < len(labels1) or len(set(labels2)) < len(labels2):
        raise PreconditionError("a side repeats a label")
    for k in labels1 + labels2:
        if "/" in k or ":" in k:
            raise ConfigError(f"tree label {k!r} may not contain '/' or ':'")
    J: frozenset[str] | None = None
    if type2_J is not None:
        if sorted(labels1) != sorted(labels2):
            raise ConfigError("alternating class sets need equal label sets on both sides")
        J = frozenset(type2_J)
        if not J <= frozenset(labels1):
            raise ConfigError("alternating class escapes the label set")
        if not J or J == frozenset(labels1):
            raise ConfigError("alternating class must be a proper nonempty label subset")

    mine = (tuple(sorted(labels1)), tuple(sorted(labels2)))  # by level parity
    # (level parity, label the parent sends) -> the node's labels: the one
    # back toward its parent, then one per child in order
    rule = {}
    for s in (0, 1):
        for entry in mine[1 - s]:
            back = mine[s][0] if J is None else min(frozenset(mine[s]) - J if entry in J else J)
            rule[s, entry] = (back, *(k for k in mine[s] if k != back))
    # below the root a node has a child for every label but its way back,
    # down to the cut, so its subtree size hangs on its level alone
    size = [1] * (depth + 2)
    for level in range(depth - 1, -1, -1):
        size[level] = 1 + (len(mine[level % 2]) - (level > 0)) * size[level + 1]
    total = size[0]
    name = f"n%0{len(str(max(total - 2, 0)))}d"
    # level by level, each node's id, labels, level and the label its parent
    # sends it, by preorder index: the i-th child of the node at index p
    # sits at p + 1 + i * (its subtree size), and in postorder at that index
    # less its level, plus its subtree size less one
    ids, labs, levels = [ROOT] * total, [(None, *mine[0])] * total, [0] * total
    downs: list[str | None] = [None] * total
    ring = [0]
    for level in range(1, depth + 1):
        step, parity, shift = size[level], level % 2, size[level] - level - 1
        fresh = []
        for p in ring:
            for q, k in zip(range(p + 1, p + size[level - 1], step), labs[p][1:]):
                ids[q], labs[q], levels[q] = name % (q + shift), rule[parity, k], level
                downs[q] = k
                fresh.append(q)
        ring = fresh
    # every record lists the nodes in preorder, and a node's children, every
    # step-th node of its subtree's run, under it in order
    kids = [tuple(ids[p + 1:p + size[lv]:size[lv + 1]]) for p, lv in enumerate(levels)]
    node_side = {ROOT: 1, **{w: 2 - lv % 2 for lv, ks in zip(levels, kids) for w in ks}}
    parent = {w: u for u, ks in zip(ids, kids) for w in ks}
    # below the root, a node's first label is its way back to its parent
    up_label = {u: labels[0] for u, labels in zip(ids[1:], labs[1:])}
    down_label = dict(zip(ids[1:], downs[1:]))
    return ConnectingTree(mine[0], mine[1], depth, tuple(sorted(ids)), node_side, parent,
                          dict(zip(ids, kids)), up_label, down_label, dict(zip(ids, levels)),
                          dict(zip(ids, range(total))),
                          {u: p + size[lv] for p, u, lv in zip(range(total), ids, levels)}, J)


# -- bonding atlas -----------------------------------------------------------


class BondingAtlas:
    """Bijections between boundary sets, one per stored (left, right) pair.

    ``map_for(k, l)`` resolves either a stored map or the inverse of the
    reverse entry, so orientation never matters to callers.
    """

    def __init__(self, entries: Mapping[tuple[str, str], Mapping[str, str]]):
        self.entries = {pair: dict(m) for pair, m in entries.items()}

    def has(self, k: str, l: str) -> bool:
        return (k, l) in self.entries or (l, k) in self.entries

    def map_for(self, k: str, l: str) -> dict[str, str]:
        if (k, l) in self.entries:
            return dict(self.entries[(k, l)])
        if (l, k) in self.entries:
            return invert(self.entries[(l, k)])
        raise ConfigError(f"no bonding map between labels {k!r} and {l!r}")

    @classmethod
    def from_json_list(cls, doc: Sequence[Mapping]) -> "BondingAtlas":
        """Read a list of ``{"left", "right", "pairs"}`` objects: string
        labels and a list of two-string vertex pairs per entry."""
        if not isinstance(doc, (list, tuple)):
            raise ConfigError(f"atlas must be a list of entries, not {doc!r}")
        entries = {}
        for item in doc:
            if not isinstance(item, Mapping):
                raise ConfigError(f"malformed atlas entry {item!r}")
            try:
                k, l, pairs = item["left"], item["right"], item["pairs"]
            except KeyError as exc:
                raise ConfigError(f"atlas entry missing {exc.args[0]!r}") from exc
            if not isinstance(k, str) or not isinstance(l, str):
                raise ConfigError(f"atlas labels must be strings, not {k!r} and {l!r}")
            if not isinstance(pairs, (list, tuple)):
                raise ConfigError(f"atlas entry ({k!r},{l!r}) pairs must be a list, "
                                  f"not {pairs!r}")
            m = {}
            for xy in pairs:
                if not isinstance(xy, (list, tuple)) or len(xy) != 2 or \
                        not all(isinstance(x, str) for x in xy):
                    raise ConfigError(f"malformed atlas pair {xy!r}")
                x, y = xy
                if x in m:
                    raise ConfigError(f"atlas entry ({k!r},{l!r}) maps {x!r} twice")
                m[x] = y
            if (k, l) in entries:
                raise ConfigError(f"duplicate atlas entry ({k!r},{l!r})")
            entries[(k, l)] = m
        return cls(entries)


class AtlasReport(Record):
    ok: bool
    problems: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "problems": list(self.problems)}


def validate_bonding_atlas(atlas: BondingAtlas, adh1: AdhesionFamily,
                           adh2: AdhesionFamily,
                           type2_J: frozenset[str] | None = None) -> AtlasReport:
    """Check bijectivity, inverse pairing, cardinalities, and pair coverage.

    Violations are collected into the report rather than raised, so a
    bad atlas can be inspected wholesale.
    """
    problems = []
    card = {len(s) for s in adh1.sets.values()} | {len(s) for s in adh2.sets.values()}
    if len(card) > 1:
        problems.append(f"adhesion sets have mixed cardinalities {sorted(card)}")
    for (k, l), m in sorted(atlas.entries.items()):
        try:
            src = adh1[k] if k in adh1.sets else adh2[k]
            dst = adh2[l] if l in adh2.sets else adh1[l]
        except ConfigError as exc:
            problems.append(str(exc))
            continue
        if set(m) != set(src):
            problems.append(f"map ({k!r},{l!r}) domain differs from the {k!r} set")
        vals = list(m.values())
        if len(set(vals)) != len(vals) or set(vals) != set(dst):
            problems.append(f"map ({k!r},{l!r}) is not onto the {l!r} set")
        if (l, k) in atlas.entries:
            if atlas.entries[(l, k)] != invert(m):
                problems.append(f"maps ({k!r},{l!r}) and ({l!r},{k!r}) are not mutually inverse")
    if type2_J is None:
        wanted = [(k, l) for k in adh1.labels for l in adh2.labels]
    else:
        labels = adh1.labels
        wanted = [(k, l) for k in labels for l in labels
                  if (k in type2_J) != (l in type2_J)]
    for k, l in wanted:
        if not atlas.has(k, l):
            problems.append(f"missing bonding map between {k!r} and {l!r}")
    return AtlasReport(not problems, tuple(problems))


# -- sum graph ---------------------------------------------------------------


def copy_vertex(node: str, orig: str) -> str:
    return f"{node}:{orig}"


class SumGraph:
    """Disjoint factor copies on the tree nodes plus bridging edges.

    ``copies`` lists each node's copy, the vertices of its own graph over
    the node, in the graph's order: in a built sum graph the copies run
    in postorder, position i of a copy holds the i-th vertex of its
    factor, and H lists its vertices copy after copy.  It is the one
    record of the layout, which ``node_of`` reads.  ``build_sum_graph``
    passes in the copies it lays out, and a sum graph built by hand
    passes in its own; no reader parses a vertex id to find its node,
    or writes one: a factor vertex's image in a copy is the entry at its
    position in the factor.  The factors and adhesion sets stay with the
    spec.  A built sum graph lists its ``bridges`` in sorted order, each
    from a copy up to its parent's.
    """

    def __init__(self, graph: FiniteGraph, tree: ConnectingTree,
                 bridges: tuple[tuple[str, str], ...],
                 copies: dict[str, tuple[str, ...]]):
        self.graph = graph
        self.tree = tree
        self.bridges = bridges
        self.copies = copies

    @cached_property
    def node_of(self) -> Callable[[str], str]:
        """Vertex -> the node whose copy holds it, read off ``copies``."""
        return {v: u for u, vs in self.copies.items() for v in vs}.__getitem__

    def copy_vertices(self, node: str) -> tuple[str, ...]:
        self.tree.require_node(node)
        return self.copies.get(node, ())

    def vertices_over(self, nodes: Iterable[str]) -> frozenset[str]:
        copies = self.copies
        return frozenset(chain.from_iterable(copies.get(u, ()) for u in frozenset(nodes)))


def build_sum_graph(g1: FiniteGraph, g2: FiniteGraph, adh1: AdhesionFamily,
                    adh2: AdhesionFamily, atlas: BondingAtlas,
                    tree: ConnectingTree, flip_orientations: bool = False) -> SumGraph:
    """Lay one factor copy on each tree node and bridge adjacent copies.

    For a tree edge whose side-1 end sends label k and side-2 end sends
    label l, each vertex x in the side-1 copy's k-set is joined to the
    (k,l)-map image of x in the side-2 copy.  ``flip_orientations``
    builds every bridge from the side-2 end instead; because stored and
    reverse maps are mutually inverse the edge set must come out equal,
    and tests pin that down.

    One pass over the nodes in postorder appends each copy's own rows,
    then the bridges up to its parent at both ends; a bridge's ends are
    worked out once per label pair, as copy positions.  Postorder ids put
    a node's children before it and its parent after it, a copy's ids
    sort as its factor's names do, and a bijective bonding map gives a
    vertex at most one bridge per tree edge, so every row fills in id
    order: the bridges down, the copy's own edges, the bridge up.  The
    ids are distinct (node ids hold no ``:``) and no bridge is a loop, so
    the graph is taken from its adjacency unchecked; a bridge end outside
    its factor raises ``GraphFormatError``.
    """
    if sorted(adh1.labels) != sorted(tree.labels1) or sorted(adh2.labels) != sorted(tree.labels2):
        raise ConfigError("tree labels differ from adhesion labels")
    factors = (g1, g2)
    side_of, parent = tree.node_side, tree.parent
    up_label, down_label = tree.up_label, tree.down_label
    where = [{x: i for i, x in enumerate(g.vertices)} for g in factors]
    # each factor's adjacency by position
    near = [[[at[y] for y in g.adjacency[x]] for x in g.vertices] for g, at in zip(factors, where)]
    copies = {u: tuple([u + ":" + x for x in factors[side_of[u] - 1].vertices])
              for u in tree.nodes}
    vertices = tuple(chain.from_iterable(copies.values()))
    # one row per vertex of H, in H's order; a copy's rows are a slice of it
    flat = [[] for _ in vertices]
    rows, first = {}, 0
    for u, vs in copies.items():
        rows[u], first = flat[first:first + len(vs)], first + len(vs)
    ends: dict[tuple[str, str], list[tuple[int, int]]] = {}
    bridges: list[tuple[str, str]] = []
    for w, mine in copies.items():
        own, mine_rows = side_of[w] - 1, rows[w]
        for row, ns in zip(mine_rows, near[own]):
            row += map(mine.__getitem__, ns)
        p = parent.get(w)
        if p is None:
            continue
        kl = (up_label[w], down_label[w]) if own == 0 else (down_label[w], up_label[w])
        if kl not in ends:
            k, l = kl
            if flip_orientations:
                m = atlas.map_for(l, k)
                named = [(m[y], y) for y in sorted(adh2[l])]
            else:
                m = atlas.map_for(k, l)
                named = [(x, m[x]) for x in sorted(adh1[k])]
            for x, y in named:
                if x not in where[0] or y not in where[1]:
                    one, two = (w, p) if own == 0 else (p, w)
                    a, b = copy_vertex(one, x), copy_vertex(two, y)
                    raise GraphFormatError("edge endpoint %r/%r not a vertex"
                                           % ((b, a) if flip_orientations else (a, b)))
            ends[kl] = [(where[0][x], where[1][y]) for x, y in named]
        theirs, their_rows, rises = copies[p], rows[p], []
        for e in ends[kl]:
            a, b = e[own], e[1 - own]
            mine_rows[a].append(theirs[b])
            their_rows[b].append(mine[a])
            rises.append((mine[a], theirs[b]))
        bridges += sorted(rises)
    adjacency = dict(zip(vertices, map(tuple, flat)))
    return SumGraph(FiniteGraph.from_adjacency(vertices, adjacency), tree, tuple(bridges), copies)


# -- contraction --------------------------------------------------------------


class AmalgamGraph:
    """The contraction of a sum graph along its bridging edges.

    ``projection`` sends each sum-graph vertex to its glued vertex, and
    ``fibers`` each glued vertex to the sum-graph vertices over it.
    """

    def __init__(self, graph: FiniteGraph, projection: dict[str, str],
                 fibers: dict[str, frozenset[str]]):
        self.graph = graph
        self.projection = projection
        self.fibers = fibers


def contract_to_amalgam(h: SumGraph) -> AmalgamGraph:
    """Contract every bridging edge; fibers become the glued vertices.

    Precondition, met by every built sum graph: each bridge runs from a
    vertex up to one that ``H.vertices`` lists later (from a copy up to
    its parent's, which postorder lists after it, by a bijective bonding
    map), and no vertex has two bridges up; an input that breaks it
    raises.  So, reading H's vertices backwards, each joins the fiber of
    its bridge's upper end or starts a new one.  A fiber climbs the tree
    without turning back, so it meets each copy at most once.  Loops and
    parallel edges are dropped; a glued vertex is named by its least member.
    """
    vertices, up = h.graph.vertices, dict(h.bridges)
    top: dict[str, str] = {}
    for v in reversed(vertices):
        w = up.get(v)
        if w is not None and w not in top:
            raise PreconditionError(f"bridge {v!r}-{w!r} does not run up H's vertex list")
        top[v] = v if w is None else top[w]
    members: dict[str, list[str]] = {}
    for v, t in top.items():
        members.setdefault(t, []).append(v)
    if len(members) + len(h.bridges) != len(vertices):
        raise PreconditionError("a bridge end is no vertex, or a vertex has two bridges up")
    fibers = {min(vs): frozenset(vs) for vs in members.values()}
    projection = {v: amid for amid, vs in fibers.items() for v in vs}
    amids, adjacency = tuple(sorted(fibers)), h.graph.adjacency
    rows = {amid: tuple(sorted({projection[w] for v in fibers[amid] for w in adjacency[v]}
                               - {amid})) for amid in amids}
    return AmalgamGraph(FiniteGraph.from_adjacency(amids, rows), projection, fibers)


# -- action-respecting checks -------------------------------------------------


def _check_keeps_family(adhesions: AdhesionFamily, perms: Iterable[Mapping[str, str]]):
    """Raise unless each permutation maps each adhesion set into the family."""
    all_sets = set(adhesions.sets.values())
    for p in perms:
        for k in adhesions.labels:
            if frozenset(p[v] for v in adhesions.sets[k]) not in all_sets:
                raise PreconditionError(
                    f"group element moves the {k!r} set off the adhesion family")


def select_orbit_representatives(adhesions: AdhesionFamily,
                                 action: GroupAction) -> tuple[tuple[str, ...], dict[str, str]]:
    """One least-label representative per orbit of boundary sets.

    The group must permute the family setwise; two labels with the same
    underlying set share every orbit.  Returns the representative labels
    and a label -> representative map.
    """
    if action.graph is not adhesions.graph and action.graph.vertices != adhesions.graph.vertices:
        raise PreconditionError("action and adhesion family live on different graphs")
    _check_keeps_family(adhesions, action.elements)
    rep_of: dict[str, str] = {}
    for k in adhesions.labels:
        if k in rep_of:
            continue
        orbit_sets = action.set_orbit(adhesions.sets[k])
        orbit_labels = sorted(l for l in adhesions.labels if adhesions.sets[l] in orbit_sets)
        rep = orbit_labels[0]
        for l in orbit_labels:
            rep_of[l] = rep
    reps = tuple(sorted(set(rep_of.values())))
    return reps, rep_of


# -- the assembled input document ---------------------------------------------


def _require_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, not {value!r}")
    return value


def _generated(doc: Mapping, key: str, adhesions: AdhesionFamily) -> GroupAction:
    """The group that ``actions.<key>`` generates on the family's graph.
    A group keeps a finite family of sets iff its generators do, so they
    are checked before the group, |G|·|V| in memory, is closed."""
    gens = doc.get(key, [])
    if not isinstance(gens, list) or not all(
            isinstance(g, Mapping) and all(isinstance(x, str) and isinstance(y, str)
                                           for x, y in g.items())
            for g in gens):
        raise ConfigError(
            f"actions.{key} must be a list of vertex-to-vertex objects, not {gens!r}")
    for p in gens:  # a map that is no automorphism is reported as such first
        if not is_automorphism(adhesions.graph, p):
            raise PreconditionError("generator is not an automorphism")
    _check_keeps_family(adhesions, gens)
    return GroupAction.from_generators(adhesions.graph, gens)


def _parse_actions(doc: Mapping, adh1: AdhesionFamily, adh2: AdhesionFamily,
                   same_factor: bool) -> tuple[GroupAction, GroupAction]:
    g1, g2 = adh1.graph, adh2.graph
    mode = doc.get("mode", "generators")
    if mode == "full":
        a1 = compute_automorphisms(g1)
        a2 = a1 if same_factor else compute_automorphisms(g2)
        return a1, a2
    if mode == "trivial":
        a1 = GroupAction.trivial(g1)
        a2 = a1 if same_factor else GroupAction.trivial(g2)
        return a1, a2
    if mode == "generators":
        a1 = _generated(doc, "factor1", adh1)
        if same_factor and "factor2" not in doc:
            return a1, a1
        a2 = _generated(doc, "factor2", adh2)
        return a1, a2
    raise ConfigError(f"unknown actions mode {mode!r}")


class AmalgamationSpec:
    """Parsed input document: factors, boundary data, tree shape, actions."""

    def __init__(self, name: str, g1: FiniteGraph, g2: FiniteGraph,
                 adh1: AdhesionFamily, adh2: AdhesionFamily, atlas: BondingAtlas,
                 depth: int, type2_J: frozenset[str] | None,
                 action1: GroupAction, action2: GroupAction,
                 declared_asdim: dict | None):
        self.name = name
        self.g1, self.g2 = g1, g2
        self.adh1, self.adh2 = adh1, adh2
        self.atlas = atlas
        self.depth = depth
        self.type2_J = type2_J
        self.action1, self.action2 = action1, action2
        self.declared_asdim = dict(declared_asdim or {})

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "AmalgamationSpec":
        if not isinstance(doc, Mapping):
            raise ConfigError("amalgamation document must be a JSON object")
        try:
            name = doc.get("name", "unnamed")
            factor_docs = doc["factors"]
            adhesion_docs = doc["adhesions"]
            tree_doc = doc["tree"]
        except KeyError as exc:
            raise ConfigError(f"amalgamation document missing {exc.args[0]!r}") from exc
        if not isinstance(name, str):
            raise ConfigError(f"name must be a string, not {name!r}")
        if not isinstance(tree_doc, Mapping):
            raise ConfigError("tree must be an object")
        type2_raw = tree_doc.get("type2_J")
        if not isinstance(factor_docs, Sequence) or not 1 <= len(factor_docs) <= 2:
            raise ConfigError("factors must list one or two graph documents")
        if len(factor_docs) == 1 and type2_raw is None:
            raise ConfigError("a single factor needs tree.type2_J")
        g1 = load_graph(factor_docs[0])
        same_factor = len(factor_docs) == 1
        g2 = g1 if same_factor else load_graph(factor_docs[1])
        if not isinstance(adhesion_docs, Sequence) or len(adhesion_docs) != len(factor_docs):
            raise ConfigError("adhesions must match the factors list")
        adh1 = AdhesionFamily(g1, adhesion_docs[0])
        adh2 = adh1 if same_factor else AdhesionFamily(g2, adhesion_docs[1])
        p1, p2, depth = (_require_int(tree_doc.get(k), f"tree.{k}")
                         for k in ("p1", "p2", "depth"))
        if p1 != len(adh1) or p2 != len(adh2):
            raise ConfigError(
                f"tree degrees ({p1},{p2}) must equal the adhesion counts "
                f"({len(adh1)},{len(adh2)})")
        type2_J = None
        if type2_raw is not None:
            if not same_factor:
                raise ConfigError("type2_J requires a single shared factor")
            if not isinstance(type2_raw, list) or \
                    not all(isinstance(k, str) for k in type2_raw):
                raise ConfigError(f"tree.type2_J must be a list of labels, not {type2_raw!r}")
            type2_J = frozenset(type2_raw)
        atlas = BondingAtlas.from_json_list(doc.get("atlas", []))
        actions = doc.get("actions", {"mode": "full"})
        if not isinstance(actions, Mapping):
            raise ConfigError("actions must be an object")
        action1, action2 = _parse_actions(actions, adh1, adh2, same_factor)
        declared = doc.get("asdim")
        if declared is not None:
            if not isinstance(declared, Mapping):
                raise ConfigError("asdim must be an object")
            allowed = {"factor1", "factor2", "adhesion"}
            if not set(declared) <= allowed:
                raise ConfigError(f"asdim declarations limited to {sorted(allowed)}")
            for k, v in declared.items():
                if _require_int(v, f"asdim {k!r}") < 0:
                    raise ConfigError(f"asdim {k!r} must be nonnegative, not {v!r}")
            declared = dict(declared)
        return cls(name, g1, g2, adh1, adh2, atlas, depth, type2_J,
                   action1, action2, declared)


class BuildResult(Record):
    """Everything one truncation build produces, ready for reporting.

    The contraction to the glued graph and its measurements are computed
    on first use: reports read them, certificates never do.
    """

    spec: AmalgamationSpec
    tree: ConnectingTree
    sum: SumGraph
    atlas_report: AtlasReport
    reps1: tuple[str, ...]
    reps2: tuple[str, ...]
    rep_map1: dict[str, str]

    @cached_property
    def amalgam(self) -> AmalgamGraph:
        return contract_to_amalgam(self.sum)

    @cached_property
    def max_id_size(self) -> int:
        """How many copies the largest fiber meets (one vertex in each)."""
        return max(map(len, self.amalgam.fibers.values()), default=0)

    @cached_property
    def trivial(self) -> bool:
        """True when one copy already surjects onto the glued graph."""
        total, projection = len(self.amalgam.fibers), self.amalgam.projection
        return any(len(copy) == total and len({projection[v] for v in copy}) == total
                   for copy in self.sum.copies.values())

    def report_dict(self) -> dict:
        semi_ok, semi_why = self.tree.is_semiregular()
        return {
            "name": self.spec.name,
            "tree": self.tree.to_json_dict(),
            "tree_semiregular": {"ok": semi_ok, "detail": semi_why},
            "atlas": self.atlas_report.to_json_dict(),
            "sum_vertices": len(self.sum.graph),
            "bridges": len(self.sum.bridges),
            "amalgam_vertices": len(self.amalgam.graph),
            "amalgam_edges": sum(map(len, self.amalgam.graph.adjacency.values())) // 2,
            "identification_max": self.max_id_size,
            "trivial": self.trivial,
            "orbit_representatives": {"factor1": list(self.reps1),
                                      "factor2": list(self.reps2)},
        }


def build(spec: AmalgamationSpec, depth: int | None = None) -> BuildResult:
    """Run the whole pipeline at one truncation radius.

    A bad atlas stops the build (the bridging step would dereference
    missing maps); everything else is measured and reported.
    """
    d = spec.depth if depth is None else depth
    tree = build_connecting_tree(spec.adh1.labels, spec.adh2.labels, d, spec.type2_J)
    atlas_report = validate_bonding_atlas(spec.atlas, spec.adh1, spec.adh2, spec.type2_J)
    if not atlas_report.ok:
        raise ConfigError("bonding atlas invalid: " + "; ".join(atlas_report.problems))
    h = build_sum_graph(spec.g1, spec.g2, spec.adh1, spec.adh2, spec.atlas, tree)
    reps1, rep_map1 = select_orbit_representatives(spec.adh1, spec.action1)
    reps2, _ = select_orbit_representatives(spec.adh2, spec.action2)
    return BuildResult(spec, tree, h, atlas_report, reps1, reps2, rep_map1)
