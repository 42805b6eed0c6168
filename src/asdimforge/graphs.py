"""Finite graphs with shortest-path metrics and map-distortion checks.

Vertices are strings throughout.  Every derived iteration runs in sorted
id order so repeated runs produce byte-identical output.  Distances are
hop counts; unreachable pairs and distances to the empty set are
``math.inf``.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import accumulate, repeat
from operator import or_
from typing import Container, Iterable, Mapping, Sequence

from .errors import GraphFormatError, PreconditionError
from .records import Record

INF = math.inf

#: Stretch factors tried by fit_qi_constants, smallest first.
GAMMA_GRID = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4))


def _edge_key(x: str, y: str) -> tuple[str, str]:
    return (x, y) if x <= y else (y, x)


class FiniteGraph:
    """Immutable simple undirected graph.

    It keeps no search results: every search runs afresh and returns a
    new dict holding exactly the vertices it settled.  Its edge list is
    derived from the rows, and listed on first read.
    """

    __slots__ = ("vertices", "vertex_set", "adjacency", "_edges")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        vs = tuple(str(v) for v in vertices)
        if len(set(vs)) != len(vs):
            raise GraphFormatError("duplicate vertex id")
        vset = frozenset(vs)
        canon = set()
        for x, y in edges:
            x, y = str(x), str(y)
            if x == y:
                raise GraphFormatError(f"loop at {x!r}")
            if x not in vset or y not in vset:
                raise GraphFormatError(f"edge endpoint {x!r}/{y!r} not a vertex")
            canon.add(_edge_key(x, y))
        adjacency: dict[str, list[str]] = {v: [] for v in vs}
        for x, y in canon:
            adjacency[x].append(y)
            adjacency[y].append(x)
        self._adopt(vs, {v: tuple(sorted(ns)) for v, ns in adjacency.items()})

    @classmethod
    def from_adjacency(cls, vertices: tuple[str, ...],
                       adjacency: dict[str, tuple[str, ...]]) -> "FiniteGraph":
        """The graph whose neighbours ``adjacency`` lists, unchecked.

        The caller vouches that the ids are distinct, that ``adjacency``
        has one entry per vertex in ``vertices`` order, each a sorted
        tuple of other vertices, and that every edge shows at both ends.
        """
        g = cls.__new__(cls)
        g._adopt(vertices, adjacency)
        return g

    def _adopt(self, vertices: tuple[str, ...], adjacency: dict[str, tuple[str, ...]]):
        self.vertices = vertices
        self.vertex_set = frozenset(vertices)
        self.adjacency = adjacency
        self._edges = None

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Every edge once, as its ends in order, in sorted order."""
        edges = self._edges
        if edges is None:
            # sorted rows read in sorted vertex order give the edges in order
            adjacency = self.adjacency
            edges = self._edges = tuple([(v, w) for v in sorted(self.vertices)
                                         for w in adjacency[v] if v < w])
        return edges

    # -- basic structure ------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    def same_as(self, other: "FiniteGraph") -> bool:
        return self.vertices == other.vertices and self.edges == other.edges

    def require_members(self, vs: Iterable[str]) -> frozenset[str]:
        members = frozenset(vs)
        stray = members - self.vertex_set
        if stray:
            raise GraphFormatError(f"unknown vertex {sorted(stray)[0]!r}")
        return members

    # -- metric ---------------------------------------------------------

    def distances_from(self, source: str) -> dict[str, int]:
        """Hop counts to every vertex reachable from ``source``."""
        return self.distances_to_set((source,))

    def distances_to_set(self, targets: Iterable[str], limit: int | None = None,
                         until: Iterable[str] | None = None,
                         stop_at: Container[str] | None = None) -> dict[str, int]:
        """Multi-source BFS: hop count from each vertex to the set.

        With ``limit`` the search settles only vertices within that many
        hops, so a negative limit settles nothing; with ``until`` it ends
        once every vertex of that set is settled; with ``stop_at`` it ends
        as soon as one vertex of that collection is settled, which is then
        a nearest one.  The result holds exactly the vertices the search
        settled, each with its exact distance, so a present key means
        "within range": under ``limit`` the keys are the ball of that
        radius.
        """
        seeds = sorted(self.require_members(targets))
        if limit is not None and limit < 0:
            return {}
        dist = {v: 0 for v in seeds}
        if stop_at is not None and any(v in stop_at for v in seeds):
            return dist
        pending = None  # how many vertices of ``until`` are still unsettled
        if until is not None:
            wanted = self.require_members(until)
            pending = len(wanted.difference(dist))
            if not pending:
                return dist
        last = len(self.vertices) if limit is None else limit
        adjacency = self.adjacency
        queue = deque(seeds)
        while queue:
            v = queue.popleft()
            dw = dist[v] + 1
            if dw > last:
                break
            for w in adjacency[v]:
                if w not in dist:
                    dist[w] = dw
                    queue.append(w)
                    if pending is not None and w in wanted:
                        pending -= 1
                        if not pending:
                            return dist
                    if stop_at is not None and w in stop_at:
                        return dist
        return dist

    def set_distance(self, a: Iterable[str], b: Iterable[str]) -> int | float:
        """d(A, B); the distance to an empty set is infinite."""
        aset = self.require_members(a)
        bset = self.require_members(b)
        if not aset or not bset:
            return INF
        if aset & bset:
            return 0
        dist = self.distances_to_set(bset)
        best = min((dist[v] for v in aset if v in dist), default=INF)
        return best

    def ball(self, centers: Iterable[str], radius: int) -> frozenset[str]:
        """All vertices within ``radius`` of the center set."""
        if radius < 0:
            raise PreconditionError("radius must be >= 0")
        centers = self.require_members(centers)
        if not centers:
            return frozenset()
        return frozenset(self.distances_to_set(centers, limit=radius))

    def diameter(self, vertices: Iterable[str]) -> int | float:
        """Largest distance between two of ``vertices``.

        INF as soon as two of them are disconnected, 0 for fewer than
        two.  The search from each vertex stops once the vertices after
        it in sorted order, counted down by rank, are settled.
        """
        order = sorted(self.require_members(vertices))
        rank = {v: i for i, v in enumerate(order)}
        worst = 0
        for i, source in enumerate(order[:-1]):
            pending = len(order) - 1 - i
            dist = {source: 0}
            queue = deque((source,))
            while pending and queue:
                v = queue.popleft()
                dw = dist[v] + 1
                for w in self.adjacency[v]:
                    if w not in dist:
                        dist[w] = dw
                        queue.append(w)
                        if rank.get(w, -1) > i:
                            pending -= 1
                            if not pending:
                                break
            if pending:
                return INF
            worst = max(worst, dw)  # the last one settled is the farthest
        return worst

    # -- subsets ----------------------------------------------------------

    def boundary(self, members: Iterable[str]) -> frozenset[str]:
        """Members with at least one neighbour outside the set."""
        members = self.require_members(members)
        return frozenset(v for v in members
                         if any(w not in members for w in self.adjacency[v]))

    def interior(self, members: Iterable[str]) -> frozenset[str]:
        members = self.require_members(members)
        return members - self.boundary(members)

    def induced(self, members: Iterable[str]) -> "FiniteGraph":
        """Induced subgraph.  The result may be disconnected."""
        members = self.require_members(members)
        if not members:
            raise PreconditionError("induced subgraph of an empty set")
        verts = [v for v in self.vertices if v in members]
        edges = [e for e in self.edges if e[0] in members and e[1] in members]
        return FiniteGraph(verts, edges)

    def is_connected(self) -> bool:
        """One search from the first vertex settles every vertex (true with none)."""
        return not self.vertices or len(self.distances_from(self.vertices[0])) == len(self)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"vertices": list(self.vertices),
                "edges": [list(e) for e in self.edges]}


def relabel_sorted(graph: FiniteGraph) -> tuple[FiniteGraph, dict[str, str]]:
    """Rename vertices to v000, v001, ... in sorted-id order.

    Returns the renamed graph together with the old-to-new mapping.
    """
    width = max(3, len(str(max(len(graph.vertices) - 1, 0))))
    names = {old: f"v{i:0{width}d}"
             for i, old in enumerate(sorted(graph.vertices))}
    renamed = FiniteGraph([names[v] for v in sorted(graph.vertices)],
                          [(names[x], names[y]) for x, y in graph.edges])
    return renamed, names


def load_graph(doc) -> FiniteGraph:
    """Read a parsed graph document and insist on connectivity.

    Accepts only the JSON object form
    ``{"vertices": [...], "edges": [[a, b], ...]}``.  Keys other than
    those two are ignored.
    """
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    try:
        vertices = doc["vertices"]
        edges = doc["edges"]
    except KeyError as exc:
        raise GraphFormatError(f"graph document missing {exc.args[0]!r}") from exc
    for key, value in (("vertices", vertices), ("edges", edges)):
        if not isinstance(value, (list, tuple)):
            raise GraphFormatError(f"graph {key} must be a list, not {value!r}")
    for v in vertices:
        if not isinstance(v, str):
            raise GraphFormatError(f"vertex ids must be strings, not {v!r}")
    pairs = []
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise GraphFormatError(f"malformed edge {e!r}")
        if not all(isinstance(x, str) for x in e):
            raise GraphFormatError(f"edge endpoints must be vertex id strings, not {e!r}")
        pairs.append(tuple(e))
    seen = set()
    for x, y in pairs:
        key = _edge_key(x, y)
        if key in seen:
            raise GraphFormatError(f"duplicate edge {key}")
        seen.add(key)
    g = FiniteGraph(vertices, pairs)
    if not g.is_connected():
        raise GraphFormatError("graph document is disconnected")
    return g


class MetricView:
    """A vertex set carrying the ambient shortest-path metric.

    ``points`` restricts attention to a subset; distances are still
    measured through the whole graph.  Use ``graph.induced(...)`` first
    when the intrinsic metric of the subset is wanted instead.
    """

    __slots__ = ("graph", "points", "point_set", "_rows", "_shells")

    def __init__(self, graph: FiniteGraph, points: Iterable[str] | None = None):
        self.graph = graph
        if points is None:
            member_set = graph.vertex_set
        else:
            member_set = graph.require_members(points)
        self.points = tuple(sorted(member_set))
        self.point_set = frozenset(member_set)
        self._rows: list[list[int | float]] | None = None
        self._shells: tuple[list[list[int]], list[list[int]]] | None = None

    def __len__(self) -> int:
        return len(self.points)

    def point_rows(self) -> list[list[int | float]]:
        """Per point, its hop count to every point, in ``points`` order (INF: none).

        Measured on first use, one search per point stopped once all the
        points are settled, and kept with the view: callers that ask one
        small view many times search it once.
        """
        if self._rows is None:
            g, pts = self.graph, self.points
            self._rows = [[dist.get(u, INF) for u in pts]
                          for dist in (g.distances_to_set((v,), until=pts) for v in pts)]
        return self._rows

    def point_shells(self) -> tuple[list[list[int]], list[list[int]]]:
        """Per point a, by index in ``points``, bitmasks over that index:
        ``shells[a][d]`` the points at distance d from a, and ``far[a][d]``
        the reachable ones further than d, for d below the furthest one's.
        Read off ``point_rows`` once and kept, so every scale shares it:
        the points closer than r to a are its first r shells."""
        if self._shells is None:
            shells, far = [], []
            for row in self.point_rows():
                by_d = [0] * (max(filter(INF.__gt__, row)) + 1)
                for j, d in enumerate(row):
                    if d < len(by_d):
                        by_d[d] |= 1 << j
                shells.append(by_d)
                far.append(list(accumulate(reversed(by_d[1:]), or_))[::-1])
            self._shells = shells, far
        return self._shells

    def subview(self, points: Iterable[str]) -> "MetricView":
        members = frozenset(points)
        if not members <= self.point_set:
            raise PreconditionError("subview points escape the view")
        return MetricView(self.graph, members)


# -- vertex maps and distortion ------------------------------------------


class VertexMap(Record):
    """A map between metric views, given pointwise."""

    source: MetricView
    target: MetricView
    mapping: Mapping[str, str]

    def __post_init__(self):
        missing = [v for v in self.source.points if v not in self.mapping]
        if missing:
            raise PreconditionError(f"map undefined at {missing[0]!r}")
        stray = [v for v in self.source.points if self.mapping[v] not in self.target.point_set]
        if stray:
            raise PreconditionError(f"image of {stray[0]!r} escapes the target view")

    def image(self, members: Iterable[str]) -> frozenset[str]:
        return frozenset(self.mapping[v] for v in members)


def nearest_point_map(source: MetricView, target: MetricView) -> VertexMap:
    """Send each source point to its nearest target point (ties: least id).

    Both views must live in the same ambient graph; a point that reaches
    no target point goes to the least one.  One search from the target
    set, stopped once every source point is settled, gives each point's
    nearest distance d; a search from the point bounded at d then holds
    exactly the target points at that distance.
    """
    if source.graph is not target.graph:
        raise PreconditionError("nearest-point map needs a shared ambient graph")
    if not target.points:
        raise PreconditionError("empty target")
    g, tset = source.graph, target.point_set
    reach = g.distances_to_set(target.points, until=source.points)
    nearest: dict[str, str] = {}
    for v in source.points:
        d = reach.get(v)
        nearest[v] = target.points[0] if d is None else min(
            w for w in g.distances_to_set((v,), limit=d) if w in tset)
    return VertexMap(source, target, nearest)


def _pair_bounds(vm: VertexMap) -> dict[int | float, tuple[int | float, int | float]]:
    """Per target distance, the least and the largest source distance.

    Over unordered point pairs, each d_target met (INF included, last)
    maps to (lo, hi), the extremes of d_source over the pairs at that
    d_target; hi is INF iff one of them has an infinite source distance.
    That is all a distortion check reads: at a fixed d_target,
    d_source/g - d_target grows and d_target - g*d_source shrinks with
    d_source, so both inequalities are tightest at the two extremes.

    Each point's row is one search that stops once the later points are
    settled, and an unreachable pair reads INF.
    """
    sg, tg = vm.source.graph, vm.target.graph
    buckets: set[tuple[int | float, int | float]] = set()  # (d_target, d_source)
    # a target row is first searched at its first point and dropped after
    # the last point mapping to it, so memory stays linear in the graph
    pts = vm.source.points
    images = [vm.mapping[p] for p in pts]
    last_use = {fx: i for i, fx in enumerate(images)}
    rows: dict[str, dict[str, int]] = {}
    for i, x in enumerate(pts):
        later = pts[i + 1:]
        sx = sg.distances_to_set((x,), until=later)
        fx = images[i]
        tx = rows.get(fx)
        if tx is None:
            tx = rows[fx] = tg.distances_to_set((fx,), until=images[i + 1:])
        if last_use[fx] == i:
            del rows[fx]
        buckets.update(zip(map(tx.get, images[i + 1:], repeat(INF)),
                           map(sx.get, later, repeat(INF))))
    ordered = sorted(buckets)
    lo, hi = dict(reversed(ordered)), dict(ordered)
    return {dt: (lo[dt], hi[dt]) for dt in hi}


def check_quasi_isometry(vm: VertexMap, gamma: Fraction | int, c: Fraction | int) -> bool:
    """Two-sided distortion check: d/gamma - c <= d' <= gamma*d + c for all pairs."""
    gamma = Fraction(gamma)
    c = Fraction(c)
    if gamma < 1 or c < 0:
        raise PreconditionError("need gamma >= 1 and c >= 0")
    # INF computes and compares as a float: a pair infinite on one side
    # only fails one inequality, and a pair infinite on both passes both
    return not any(dt > gamma * lo + c or hi / gamma - c > dt
                   for dt, (lo, hi) in _pair_bounds(vm).items())


class QiFit(Record):
    """Result of fitting distortion constants over the gamma grid.

    ``table`` holds, for each grid stretch, the least additive constant
    that makes both inequalities hold (None when no finite constant
    works).  ``gamma``/``c`` give the selected witness: the feasible
    entry with the smallest constant, ties resolved toward the smaller
    stretch.  An entry is feasible when its constant does not exceed the
    larger of the two diameters.
    """

    table: tuple[tuple[Fraction, Fraction | None], ...]
    gamma: Fraction | None
    c: Fraction | None

    @property
    def feasible(self) -> bool:
        return self.gamma is not None

    @classmethod
    def from_maxima(cls, maxima: Sequence[tuple[int, int]] | None) -> "QiFit":
        """The fit over ``GAMMA_GRID`` from per-stretch integer maxima.

        For the stretch p/q, ``maxima`` holds (a, b): over the pairs, the
        largest q*d_source - p*d_target and the largest
        q*d_target - p*d_source.  Its constant is max(0, a/p, b/q);
        ``None`` means no finite constant works at any stretch.
        Selection is ``best_within`` over the whole grid.
        """
        if maxima is None:
            table = tuple((g, None) for g in GAMMA_GRID)
        else:
            table = tuple((g, max(Fraction(0), Fraction(a, g.numerator),
                                  Fraction(b, g.denominator)))
                          for g, (a, b) in zip(GAMMA_GRID, maxima))
        gamma, c = cls(table, None, None).best_within(GAMMA_GRID[-1]) or (None, None)
        return cls(table, gamma, c)

    def best_within(self, gamma_cap: Fraction | int) -> tuple[Fraction, Fraction] | None:
        """Least-constant feasible entry with stretch at most ``gamma_cap``."""
        cap = Fraction(gamma_cap)
        best = None
        for g, c in self.table:
            if g > cap or c is None:
                continue
            if best is None or (c, g) < best:
                best = (c, g)
        if best is None:
            return None
        return best[1], best[0]

    def to_json_dict(self) -> dict:
        return {
            "table": [[str(g), None if c is None else str(c)] for g, c in self.table],
            "gamma": None if self.gamma is None else str(self.gamma),
            "c": None if self.c is None else str(self.c),
        }


def fit_qi_constants(vm: VertexMap) -> QiFit:
    """Fit distortion constants for ``vm`` over the stretches of ``GAMMA_GRID``.

    For each stretch the binding constraints are linear in the additive
    constant, so the least constant is a max over pairs, read off the
    two extremes of ``_pair_bounds`` at each target distance as two
    integer maxima per stretch (``QiFit.from_maxima``); a stretch with
    an infinite pair on one side only has no fit.  Every grid stretch is
    at least 1, so a pair never needs more than the larger of its two
    distances, and a finite constant never exceeds the source or target
    diameter.
    """
    rows = []
    for dt, (lo, hi) in _pair_bounds(vm).items():
        if dt is INF and lo is INF:
            continue
        if dt is INF or hi is INF:
            return QiFit.from_maxima(None)  # one side infinite: no finite constant fixes it
        rows.append((dt, lo, hi))
    return QiFit.from_maxima([
        (max((q * hi - p * dt for dt, _, hi in rows), default=0),
         max((q * dt - p * lo for dt, lo, _ in rows), default=0))
        for p, q in ((g.numerator, g.denominator) for g in GAMMA_GRID)])
