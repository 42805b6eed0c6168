"""Automorphism groups of finite graphs as explicit permutation sets.

Permutations are dicts vertex -> vertex; composition is right-to-left
(``compose(a, b)`` applies b first).  A GroupAction stores the whole
element set, sorted by image tuple so iteration order is reproducible.
Everything here is exhaustive search — factors at desk scale stay tiny,
and certificates need the actual witnesses, not abstract group data.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import PreconditionError
from .graphs import FiniteGraph

Perm = dict[str, str]

AUT_VERTEX_CAP = 16
GROUP_CAP = 100_000


def _image_tuple(graph: FiniteGraph, p: Mapping[str, str]) -> tuple[str, ...]:
    return tuple(p[v] for v in graph.vertices)


def compose(a: Mapping[str, str], b: Mapping[str, str]) -> Perm:
    """(a . b)(x) = a(b(x))."""
    return {x: a[bx] for x, bx in b.items()}


def invert(p: Mapping[str, str]) -> Perm:
    return {y: x for x, y in p.items()}


def is_automorphism(graph: FiniteGraph, p: Mapping[str, str]) -> bool:
    if sorted(p) != sorted(graph.vertices):
        return False
    if sorted(p.values()) != sorted(graph.vertices):
        return False
    edge_set = set(graph.edges)
    for x, y in graph.edges:
        ex, ey = p[x], p[y]
        if ((ex, ey) if ex <= ey else (ey, ex)) not in edge_set:
            return False
    return True


class GroupAction:
    """A group of automorphisms of one graph, stored element by element.

    The constructor trusts its elements to form a group; ``trivial``,
    ``from_generators`` and ``compute_automorphisms`` guarantee it.
    """

    __slots__ = ("graph", "elements")

    def __init__(self, graph: FiniteGraph, elements: Iterable[Mapping[str, str]]):
        self.graph = graph
        seen: dict[tuple[str, ...], Perm] = {}
        for p in elements:
            key = _image_tuple(graph, p)
            if key not in seen:
                seen[key] = dict(p)
        self.elements = tuple(seen[k] for k in sorted(seen))

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls, graph: FiniteGraph) -> "GroupAction":
        return cls(graph, [{v: v for v in graph.vertices}])

    @classmethod
    def from_generators(cls, graph: FiniteGraph,
                        generators: Sequence[Mapping[str, str]]) -> "GroupAction":
        for g in generators:
            if not is_automorphism(graph, g):
                raise PreconditionError("generator is not an automorphism")
        ident = {v: v for v in graph.vertices}
        found = {_image_tuple(graph, ident): ident}
        frontier = [ident]
        gens = [dict(g) for g in generators]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = compose(g, p)
                    key = _image_tuple(graph, q)
                    if key not in found:
                        found[key] = q
                        nxt.append(q)
                        if len(found) > GROUP_CAP:
                            raise PreconditionError(f"group exceeds cap {GROUP_CAP}")
            frontier = nxt
        return cls(graph, found.values())

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def orbits(self) -> tuple[frozenset[str], ...]:
        """Vertex orbits, listed by least member."""
        remaining = set(self.graph.vertices)
        out = []
        while remaining:
            v = min(remaining)
            orb = frozenset(p[v] for p in self.elements)
            out.append(orb)
            remaining -= orb
        return tuple(sorted(out, key=min))

    def set_orbit(self, members: frozenset[str]) -> frozenset[frozenset[str]]:
        """All images of a vertex set under the group."""
        members = self.graph.require_members(members)
        return frozenset(frozenset(p[v] for v in members) for p in self.elements)

    def to_json_dict(self) -> dict:
        return {"order": len(self.elements),
                "elements": [[p[v] for v in self.graph.vertices] for p in self.elements],
                "vertex_order": list(self.graph.vertices)}


def _refine_colors(graph: FiniteGraph) -> dict[str, int]:
    """Iterated neighbourhood refinement; stable coloring respected by all automorphisms."""
    color = {v: len(graph.adjacency[v]) for v in graph.vertices}
    while True:
        sig = {v: (color[v], tuple(sorted(color[w] for w in graph.adjacency[v])))
               for v in graph.vertices}
        palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: palette[sig[v]] for v in graph.vertices}
        if len(set(new.values())) == len(set(color.values())):
            return new
        color = new


def compute_automorphisms(graph: FiniteGraph) -> GroupAction:
    """Full automorphism group by color-refined backtracking.

    Exhaustive and exact, hence the vertex cap: beyond it the element
    list itself becomes the bottleneck, and the workbench never needs
    factors that large.
    """
    if len(graph) > AUT_VERTEX_CAP:
        raise PreconditionError(
            f"exhaustive automorphism search capped at {AUT_VERTEX_CAP} vertices")
    if len(graph) == 0:
        raise PreconditionError("empty graph")
    color = _refine_colors(graph)
    order = sorted(graph.vertices)
    candidates = {v: sorted(u for u in graph.vertices if color[u] == color[v])
                  for v in order}
    edge_set = set(graph.edges)

    def adjacent(x: str, y: str) -> bool:
        return ((x, y) if x <= y else (y, x)) in edge_set

    found: list[Perm] = []

    def extend(idx: int, partial: Perm, used: set[str]):
        if idx == len(order):
            found.append(dict(partial))
            if len(found) > GROUP_CAP:
                raise PreconditionError(f"automorphism group exceeds cap {GROUP_CAP}")
            return
        v = order[idx]
        for w in candidates[v]:
            if w in used:
                continue
            ok = True
            for u in order[:idx]:
                if adjacent(u, v) != adjacent(partial[u], w):
                    ok = False
                    break
            if ok:
                partial[v] = w
                used.add(w)
                extend(idx + 1, partial, used)
                used.discard(w)
                del partial[v]

    extend(0, {}, set())
    return GroupAction(graph, found)
