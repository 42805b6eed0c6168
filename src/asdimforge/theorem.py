"""Certificate engine for the finite-stage dimension bound.

Everything here lives inside one glued truncation H produced by the
builder.  The engine carves H into a central block plus translated
copies, measures the shells where blocks meet, builds boundary covers,
transports them by factor symmetries, and records every measurement in
a fixed-order certificate whose verdicts downstream tooling can
re-audit from the raw numbers.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from heapq import heappop, heappush
from itertools import chain, islice
from operator import add, getitem, itemgetter, lt

from .amalgam import (ROOT, AdhesionFamily, AmalgamationSpec, BuildResult,
                      ConnectingTree, SumGraph)
from .covers import (Cover, band_witness, greedy_witness, lebesgue_number,
                     multiplicity)
from .errors import PreconditionError
from .graphs import (GAMMA_GRID, INF, FiniteGraph, MetricView, QiFit,
                     fit_qi_constants, nearest_point_map)
from .records import Record


# -- parameters ---------------------------------------------------------------


class ProofParameters(Record):
    """Radii driving one certificate run.

    ``R`` is the shell radius around the glued core, ``r`` the tree
    radius of one block.  The block radius must be even (so block
    centers land on first-factor nodes) and strictly larger than four
    shell radii (so neighbouring shells cannot touch).  The safe core
    keeps the nodes at most ``depth - r`` deep, so every safe vertex has
    its full block neighbourhood inside the truncation.
    """

    R: int
    r: int
    depth: int

    def __post_init__(self):
        if self.R < 0:
            raise PreconditionError("shell radius must be nonnegative")
        if self.r < 2 or self.r % 2 != 0:
            raise PreconditionError("block radius must be a positive even number")
        if self.r <= 4 * self.R:
            raise PreconditionError(
                "block radius must exceed four times the shell radius")
        if self.depth < 0:
            raise PreconditionError("truncation depth must be nonnegative")

    def require_certificate_grade(self):
        if self.depth < 2 * self.r:
            raise PreconditionError(
                "truncation too shallow: depth must be at least twice the block radius")

    def to_json_dict(self) -> dict:
        return {"R": self.R, "r": self.r, "depth": self.depth,
                "margin": self.r}


def translation_sites(tree: ConnectingTree, params: ProofParameters) -> tuple[str, ...]:
    """Nodes at full block-radius multiples from the root, with room below.

    The root itself is always a site; a deeper node qualifies when a
    whole extra block still fits under it inside the truncation.
    """
    out = [u for u in tree.nodes
           if tree.node_depth(u) % params.r == 0
           and tree.node_depth(u) + params.r <= tree.depth]
    if ROOT not in out:
        out.append(ROOT)
    return tuple(sorted(out, key=lambda u: (tree.node_depth(u), u)))


def safe_nodes(tree: ConnectingTree, params: ProofParameters) -> tuple[str, ...]:
    keep = tree.depth - params.r
    level = tree.level
    return tuple(u for u in tree.nodes if level[u] <= keep)


def safe_vertices(h: SumGraph, params: ProofParameters) -> frozenset[str]:
    return h.vertices_over(safe_nodes(h.tree, params))


# -- strata and strips --------------------------------------------------------


def strata(h: SumGraph, t: str, m: int) -> MetricView:
    """Ambient view of the copies exactly m tree-steps from t."""
    h.tree.require_node(t)
    if m < 0:
        raise PreconditionError("stratum index must be nonnegative")
    at = h.tree.nodes_at(t, m)
    if not at:
        raise PreconditionError(f"stratum {m} around {t!r} lies beyond the truncation")
    return MetricView(h.graph, sorted(h.vertices_over(at)))


class LemmaStrip(Record):
    """One stratum-to-stratum collapse check around a tree node."""

    site: str
    index: int
    radius: int
    strip_size: int
    below_empty: bool
    fit: QiFit | None
    separations: tuple[tuple[str, str, int | float], ...]
    min_separation: int | float

    @property
    def ok(self) -> bool:
        if self.below_empty:
            return False
        if self.fit is None or not self.fit.feasible:
            return False
        return self.min_separation > self.radius


def lemma_strip(h: SumGraph, t: str, m: int, r: int) -> LemmaStrip:
    """Check that stratum m collapses onto stratum m-1 with small distortion.

    The strip is the part of stratum m within distance r of stratum
    m-1; it is retracted by the nearest-point map and the distortion
    table recorded.  Additionally, every two copies inside stratum m
    must stay far apart once their pivot copy (the first node both
    tree paths toward t share) is deleted: the construction needs
    every connection between them to run through that pivot.
    """
    if m < 1:
        raise PreconditionError("strip index must be at least 1")
    if r < 1:
        raise PreconditionError("strip radius must be positive")
    exact = strata(h, t, m)
    below_nodes = h.tree.nodes_at(t, m - 1)
    below = sorted(h.vertices_over(below_nodes))
    H = h.graph
    if not below:
        return LemmaStrip(t, m, r, 0, True, None, (), INF)
    reach = H.distances_to_set(below)
    strip = sorted(v for v in exact.points if reach.get(v, INF) <= r)
    fit = None
    if strip:
        fit = fit_qi_constants(nearest_point_map(
            MetricView(H, strip), MetricView(H, below)))
    nodes = h.tree.nodes_at(t, m)
    paths = [h.tree.path(u, t) for u in nodes]
    by_pivot: dict[str, list[tuple[int, int]]] = {}
    for j in range(1, len(nodes)):
        on_j = set(paths[j])
        for i in range(j):
            pivot = next(x for x in paths[i] if x in on_j)
            by_pivot.setdefault(pivot, []).append((i, j))
    found = {}
    for pivot, pairs in by_pivot.items():
        cut = set(h.copy_vertices(pivot))
        sub = H.induced([x for x in H.vertices if x not in cut])
        for i, j in pairs:
            a = [x for x in h.copy_vertices(nodes[i]) if x in sub.vertex_set]
            b = [x for x in h.copy_vertices(nodes[j]) if x in sub.vertex_set]
            found[i, j] = sub.set_distance(a, b)
    seps = tuple((nodes[i], nodes[j], d) for (i, j), d in sorted(found.items()))
    lowest = min((d for _, _, d in seps), default=INF)
    return LemmaStrip(t, m, r, len(strip), False, fit, seps, lowest)


# -- blocks -------------------------------------------------------------------


class Block(Record):
    """A named vertex set with its own edges (not always induced).

    ``edges`` lists them; a translate of the working block only counts
    them, which is all its certificate entry writes.
    """

    name: str
    vertices: frozenset[str]
    edges: tuple[tuple[str, str], ...] | int

    @property
    def edge_count(self) -> int:
        return self.edges if isinstance(self.edges, int) else len(self.edges)

    def view(self, ambient: FiniteGraph) -> MetricView:
        return MetricView(ambient, sorted(self.vertices))

    def to_json_dict(self) -> dict:
        return {"name": self.name, "vertices": len(self.vertices),
                "edges": self.edge_count}


def _edges_inside(graph: FiniteGraph, members: frozenset[str]) -> tuple[tuple[str, str], ...]:
    """The edges of the graph with both ends in members, in ``graph.edges`` order."""
    adjacency = graph.adjacency
    return tuple(sorted((a, b) for a in members for b in adjacency[a] if a < b and b in members))


class BaseBlocks(Record):
    """Core, shell, and the untranslated blocks around the root copy."""

    core: frozenset[str]
    shell: frozenset[str]
    w0: Block
    u_r: Block
    w_r: Block
    core_fit: QiFit | None
    shell_fit: QiFit | None


def base_blocks(walk: SymmetryWalk, params: ProofParameters) -> BaseBlocks:
    """Carve the root block out of the glued truncation.

    The core is the union of representative boundary copies at the
    root.  The main block takes everything over the tree ball of
    radius r-1 that stays R away from the core, plus, for each node at
    tree distance exactly r, the part of its copy within ambient
    distance R of the recentering map's image of the core -- exactly
    the material the block recentered at that node leaves out.  The
    working block then forgets edges running inside the shell, so that
    translated blocks can only interface through shell material.

    Frontier nodes therefore need recentering maps, read off the walk
    (whose radius is r) as every site's are; the same precondition
    failures as ``build_symmetry_map`` apply when the symmetry data
    cannot be transported that far.
    """
    br = walk.br
    h, tree, H = br.sum, br.tree, br.sum.graph
    R, r = params.R, params.r
    if walk.radius != r:
        raise PreconditionError("the symmetry walk must stop at the block radius")
    if not br.reps1:
        raise PreconditionError("no representative boundary copies at the root")
    # the root's copy holds the i-th vertex of factor 1 at position i
    root, where = h.copies[ROOT], {x: i for i, x in enumerate(br.spec.g1.vertices)}
    core = frozenset(root[where[x]] for k in br.reps1 for x in br.spec.adh1[k])
    # one search gives the shell (d = R), W0 (d <= R) and the main block
    reach = H.distances_to_set(core, limit=R)
    shell = frozenset(v for v, d in reach.items() if d == R)
    w0_vertices = frozenset(v for v, d in reach.items() if d <= R)
    main = {v for v in h.vertices_over(tree.nodes_within(ROOT, r - 1))
            if reach.get(v, INF) >= R}
    fringe: set[str] = set()
    for v in tree.nodes_at(ROOT, r):
        if tree.node_side[v] != 1:
            raise PreconditionError(
                "fringe nodes must carry the first factor; is the block radius even?")
        anchor = walk.map_at(v).carry(core)
        fringe |= H.ball(anchor, R) & frozenset(h.copy_vertices(v))
    u_vertices = frozenset(main) | fringe
    u_edges = _edges_inside(H, u_vertices)
    w_edges = tuple(e for e in u_edges
                    if not (e[0] in shell and e[1] in shell))
    w0 = Block("W0", w0_vertices, _edges_inside(H, w0_vertices))
    core_view = MetricView(H, sorted(core))
    core_fit = fit_qi_constants(nearest_point_map(
        MetricView(H, sorted(w0_vertices)), core_view))
    shell_fit = None
    if shell:
        shell_fit = fit_qi_constants(nearest_point_map(
            MetricView(H, sorted(shell)), core_view))
    return BaseBlocks(core, shell, w0,
                      Block("U", u_vertices, u_edges),
                      Block("W", u_vertices, w_edges),
                      core_fit, shell_fit)


# -- symmetry transport -------------------------------------------------------


class SymmetryMap(Record):
    """A label-respecting partial isomorphism recentering the picture at a site.

    ``node_map`` sends tree nodes near the root to tree nodes near the
    site; ``vertex_map`` refines it vertex-by-vertex using one factor
    symmetry per node.  Nodes below the walk's radius, and nodes whose
    image would fall outside the truncation, are simply absent, so the
    map is partial.
    """

    site: str
    node_map: Mapping[str, str]
    vertex_map: Mapping[str, str]
    edge_ok: bool
    injective: bool
    detail: str

    def carry(self, vids: Iterable[str]) -> frozenset[str]:
        """Image of the part of a vertex set inside the domain."""
        vertex_map = self.vertex_map
        return frozenset(vertex_map[v] for v in vids if v in vertex_map)


def _image_label(adh: AdhesionFamily, g: Mapping[str, str], k: str, u: str) -> str:
    """The label whose boundary set is g's image of the k set."""
    image_set = frozenset(g[x] for x in adh[k])
    for lab in adh.labels:
        if adh[lab] == image_set:
            return lab
    raise PreconditionError(
        "no label-respecting tree map exists: a boundary set's "
        f"image at {u!r} is not itself a boundary set")


class SymmetryWalk:
    """What every symmetry map of one build down to one tree level reads.

    The walk from the root to level ``radius`` is the same at every site;
    only the symmetries along it differ.  So the root ball's walk program
    (its nodes in walk order, each with its parent and the labels of the
    edge between them), its sorted edges in H, and the step tables are
    built once and shared by every site and fringe node.  A step depends
    only on the current symmetry and the labels involved, so program
    steps with the same label triple (u's side, k, ell) share one table
    from the parent's element index to (k_img, {ell_img: the next element
    index}), each entry filled on first use by ``_image_label`` and
    ``_extend``.  Per side and element index the walk keeps the
    permutation of copy positions the element induces, and per return
    label the element that starts a site's walk.  ``map_at`` keeps each
    node's map, so ``base_blocks`` and the site loop build a node's map
    once.
    """

    def __init__(self, br: BuildResult, radius: int):
        tree = br.tree
        self.br, self.radius = br, radius
        self.near = tree.nodes_within(ROOT, radius)
        side_of, up_label, down_label, level = (tree.node_side, tree.up_label,
                                                tree.down_label, tree.level)
        # (w, its parent u, u's side, k = u's label for w, ell = w's for u,
        # the table of the triple (side, k, ell)), level by level as a
        # breadth-first walk from the root meets them
        self.program: list[tuple[str, str, int, str, str, dict]] = []
        tables: dict[tuple[int, str, str], dict] = {}
        ring = [ROOT]
        while ring and level[ring[0]] < radius:
            steps = [(w, u, side_of[u], down_label[w], up_label[w])
                     for u in ring for w in tree.children[u]]
            self.program += [(*step, tables.setdefault(step[2:], {})) for step in steps]
            ring = [w for w, *_ in steps]
        self.edges = _edges_inside(br.sum.graph, br.sum.vertices_over(self.near))
        self.elements = (br.spec.action1.elements, br.spec.action2.elements)
        self.positions: tuple[dict[int, tuple[int, ...]], ...] = ({}, {})
        self.roots: dict[str, int] = {}
        self.maps: dict[str, SymmetryMap] = {}

    def map_at(self, t: str) -> SymmetryMap:
        """t's symmetry map, built on first use and kept: a fringe node of
        the root block is also a translation site."""
        sm = self.maps.get(t)
        if sm is None:
            sm = self.maps[t] = build_symmetry_map(self, t)
        return sm

    def root_element(self, m_t: str) -> int:
        """The first factor-1 symmetry carrying the representative boundary
        set of label m_t onto the m_t set itself."""
        e_root = self.roots.get(m_t)
        if e_root is None:
            br = self.br
            rho = br.rep_map1.get(m_t)
            if rho is None:
                raise PreconditionError(f"no orbit representative recorded for label {m_t!r}")
            adh1 = br.spec.adh1
            target = adh1[m_t]
            e_root = next((i for i, g in enumerate(self.elements[0])
                           if frozenset(g[x] for x in adh1[rho]) == target), None)
            if e_root is None:
                raise PreconditionError(
                    f"no factor symmetry carries the {rho!r} boundary set onto the {m_t!r} set")
            self.roots[m_t] = e_root
        return e_root

    def permutation(self, side: int, e: int) -> tuple[int, ...]:
        """Position i of a side's copy -> the position its element image takes."""
        got = self.positions[side - 1].get(e)
        if got is None:
            factor = (self.br.spec.g1, self.br.spec.g2)[side - 1].vertices
            where = {x: i for i, x in enumerate(factor)}
            g = self.elements[side - 1][e]
            got = self.positions[side - 1][e] = tuple([where[g[x]] for x in factor])
        return got


def build_symmetry_map(walk: SymmetryWalk, t: str) -> SymmetryMap:
    """Recenter the root picture at node t, one factor symmetry per node.

    Starting from a symmetry that carries the representative boundary
    set onto the set t enters through, the builder walks the tree from
    the root down to level ``walk.radius``: across each edge it reads
    off where the current symmetry sends the edge's boundary set,
    follows the like-labeled edge on the image side, and extends the
    walk with a symmetry of the next factor that matches the bonding
    transfer.  No such symmetry means the declared actions cannot
    support the translation and the builder raises.  The map, and its
    edge and injectivity checks, cover the nodes of level at most the
    radius.  Every step, and each copy's image, is read off the walk's
    tables (see ``SymmetryWalk``).
    """
    br = walk.br
    tree, h = br.tree, br.sum
    tree.require_node(t)
    copies = h.copies
    if t == ROOT:
        vmap = {v: v for u in walk.near for v in copies.get(u, ())}
        return SymmetryMap(t, {u: u for u in walk.near}, vmap, True, True, "identity")
    if tree.node_side[t] != 1:
        raise PreconditionError("translation sites must carry the first factor")
    elements = walk.elements
    adhesions = (br.spec.adh1, br.spec.adh2)
    e_root = walk.root_element(tree.up_label[t])
    across, parent, up_label, down_label = (tree.across, tree.parent, tree.up_label,
                                            tree.down_label)
    node_map: dict[str, str] = {ROOT: t}
    elem: dict[str, int] = {ROOT: e_root}
    dropped = 0
    for w, u, side_u, k, ell, table in walk.program:
        u_img = node_map.get(u)
        if u_img is None:  # under a truncated subtree
            continue
        e_u = elem[u]
        row = table.get(e_u)
        if row is None:
            row = table[e_u] = (_image_label(adhesions[side_u - 1],
                                             elements[side_u - 1][e_u], k, u), {})
        k_img, onward = row
        # the like-labeled edge at the image: up to its parent or down
        w_img = across(u_img, k_img)
        if w_img is None:
            dropped += 1
            continue
        ell_img = up_label[w_img] if parent.get(w_img) == u_img else down_label[u_img]
        e_w = onward.get(ell_img)
        if e_w is None:
            e_w = onward[ell_img] = _extend(br.spec, (side_u, e_u, k, ell, k_img, ell_img), w)
        node_map[w] = w_img
        elem[w] = e_w
    # copy vertex i over u goes to vertex g_u(i) over node_map[u], in walk
    # order, then copy order
    vmap: dict[str, str] = {}
    side_of, positions = tree.node_side, walk.positions
    for u, u_img in node_map.items():
        side, e = side_of[u], elem[u]
        perm = positions[side - 1].get(e)
        if perm is None:
            perm = walk.permutation(side, e)
        image = copies[u_img]
        for v, i in zip(copies[u], perm):
            vmap[v] = image[i]
    injective = len(set(vmap.values())) == len(vmap)
    edge_ok = True
    detail = f"mapped {len(node_map)} nodes, skipped {dropped} truncated subtrees"
    # the root ball's edges in sorted order: the first that lands on a
    # non-edge is the least such edge of the mapped region
    adjacency = h.graph.adjacency
    for a, b in walk.edges:
        fa, fb = vmap.get(a), vmap.get(b)
        if fa is not None and fb is not None and fb not in adjacency[fa]:
            edge_ok = False
            detail = f"edge ({a}, {b}) maps to a non-edge ({fa}, {fb})"
            break
    return SymmetryMap(t, node_map, vmap, edge_ok, injective, detail)


def _extend(spec: AmalgamationSpec, step: tuple, w: str) -> int:
    """The first symmetry of the next factor matching one step's bonding
    transfer."""
    side_u, e_u, k, ell, k_img, ell_img = step
    actions = (spec.action1, spec.action2)
    adh = (spec.adh1, spec.adh2)[side_u - 1]
    g_u = actions[side_u - 1].elements[e_u]
    beta = spec.atlas.map_for(k, ell)
    beta_img = spec.atlas.map_for(k_img, ell_img)
    transfer = {beta[x]: beta_img[g_u[x]] for x in adh[k]}
    for e_w, cand in enumerate(actions[2 - side_u].elements):
        if all(cand[y] == transfer[y] for y in transfer):
            return e_w
    raise PreconditionError(
        "consistency witnesses missing: no factor symmetry "
        f"extends the bonding transfer into {w!r}")


# -- partition ----------------------------------------------------------------


def _by_node(h: SumGraph, vids: Iterable[str]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for v in vids:
        out.setdefault(h.node_of(v), []).append(v)
    return out


class PartitionData(Record):
    """Translated blocks plus the shells where they are allowed to meet.

    ``kept`` maps each site, in the order its member follows W0 in
    ``members``, to the nodes of the root ball whose images its member
    keeps.
    """

    members: tuple[Block, ...]
    kept: Mapping[str, frozenset[str]]
    shells: Mapping[str, frozenset[str]]
    shell_union: frozenset[str]
    safe: frozenset[str]
    missing: frozenset[str]
    overlap_faults: tuple[tuple[str, str], ...]
    boundary_matches_shells: bool

    @property
    def covers_safe(self) -> bool:
        return not self.missing

    @property
    def interiors_disjoint(self) -> bool:
        return not self.overlap_faults


def assemble_partition(br: BuildResult, params: ProofParameters,
                       base: BaseBlocks,
                       maps: Iterable[SymmetryMap]) -> PartitionData:
    """Translate the working block to every site and audit the result.

    Coverage is demanded only on the safe core.  Every pairwise block
    overlap must sit inside the union of translated shells; that is
    exactly the statement that block interiors are pairwise disjoint.
    """
    h, tree, H = br.sum, br.tree, br.sum.graph
    preorder = tree.preorder
    # a map sends a copy to a copy, so the block and the shell are clipped
    # node by node: each is grouped by node once
    block_over, shell_over = _by_node(h, base.w_r.vertices), _by_node(h, base.shell)
    # an image keeps an edge of W when it keeps both ends' nodes, so W's
    # edges are counted once per pair of nodes
    edges_between = Counter((h.node_of(a), h.node_of(b)) for a, b in base.w_r.edges)
    members = [base.w0]
    kept_by_site: dict[str, frozenset[str]] = {}
    shells: dict[str, frozenset[str]] = {}
    for sm in maps:
        # the image keeps what lands in the site's subtree, a preorder run
        lo, hi = preorder[sm.site], tree.subtree_end[sm.site]
        node_map, vmap = sm.node_map, sm.vertex_map
        kept = kept_by_site[sm.site] = frozenset(
            u for u, u_img in node_map.items() if lo <= preorder[u_img] < hi)
        image = frozenset(vmap[v] for u in kept.intersection(block_over) for v in block_over[u])
        edges = sum(n for (a, b), n in edges_between.items() if a in kept and b in kept)
        members.append(Block(f"W@{sm.site}", image, edges))
        shells[sm.site] = frozenset(vmap[v] for u in kept.intersection(shell_over)
                                    for v in shell_over[u])
    shell_union = frozenset().union(*shells.values()) if shells else frozenset()
    safe = safe_vertices(h, params)
    covered = frozenset().union(*(b.vertices for b in members))
    missing = safe - covered
    # two members overlap off the shells exactly when some vertex off the
    # shells lies in both, so index the vertices held twice by their holders
    count = Counter(chain.from_iterable(b.vertices - shell_union for b in members))
    twice = {v for v, k in count.items() if k > 1}
    holders: dict[str, list[int]] = {}
    for i, b in enumerate(members):
        for v in b.vertices & twice:
            holders.setdefault(v, []).append(i)
    clashes = sorted({(i, j) for held in holders.values() if len(held) > 1
                      for k, i in enumerate(held) for j in held[k + 1:]})
    faults = [(members[i].name, members[j].name) for i, j in clashes]
    boundary_union = frozenset().union(
        *(H.boundary(s) for s in shells.values() if s)) if shells else frozenset()
    return PartitionData(tuple(members), kept_by_site, shells, shell_union, safe,
                         missing, tuple(faults),
                         boundary_union == shell_union)


class SeparationReport(Record):
    """Each live shell's distance to its nearest other shell.

    ``pairs`` holds one (site, nearest other site, distance) triple per
    live shell in site order; the nearest site is None, and the distance
    INF, when no other shell shares the shell's component.
    ``closest_sites`` and ``closest_vertices`` witness ``min_distance``
    (both None when it is INF): d(x, y) equals it for the vertex pair,
    with x on the first site's shell and y on the second's.
    """

    pairs: tuple[tuple[str, str | None, int | float], ...]
    min_distance: int | float
    closest_sites: tuple[str, str] | None
    closest_vertices: tuple[str, str] | None
    empty_sites: tuple[str, ...]
    work: dict

    def all_beyond(self, bound: int) -> bool:
        return self.min_distance > bound

    def all_at_least(self, bound: int) -> bool:
        return self.min_distance >= bound


def verify_separation(H: FiniteGraph, shells: Mapping[str, frozenset[str]]) -> SeparationReport:
    """Nearest-shell distances from one search out of every shell at once.

    The search assigns each vertex to a shell nearest to it, through a
    shortest path that stays inside that shell's cell (a graph Voronoi
    diagram).  An edge (u, v) joining the cells of shells a and b bounds
    d(a, b) by d(u, a) + 1 + d(v, b).  The least such bound at a shell
    is exact: on a shortest path from a to its nearest shell, the first
    edge leaving a's cell already attains it.  Shells sharing a vertex
    are at distance 0; the search sees that as it places its seeds.
    """
    sites = sorted(shells)
    live = [s for s in sites if shells[s]]
    empty = tuple(s for s in sites if not shells[s])
    work = {"searches": 0, "vertices_settled": 0, "boundary_edges": 0}
    # per shell (distance, other shell's index), and overall (distance, i,
    # j, x, y) with i < j and x, y witnessing vertices; ties go to the
    # lowest indices, then to the first bound found
    best: list[tuple | None] = [None] * len(live)
    least = None

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
        cell: dict[str, int] = {}
        root: dict[str, str] = {}
        for i, s in enumerate(live):
            for v in sorted(shells[s]):
                if v in cell:
                    offer(0, cell[v], i, v, v)
                else:
                    cell[v], root[v] = i, v
        dist = H.distances_to_set(cell)
        work["searches"] = 1
        work["vertices_settled"] = len(dist)
        adjacency = H.adjacency
        # settled in order of distance, so each vertex joins the cell of
        # its first neighbour one step nearer
        for v, d in dist.items():
            if d:
                up = d - 1
                for p in adjacency[v]:
                    if dist.get(p) == up:
                        break
                cell[v], root[v] = cell[p], root[p]
        # a settled row's every neighbour is settled, and the boundary
        # edges, sorted, come in the order ``H.edges`` lists them
        bounds = [(u, v) for u in dist for v in adjacency[u] if u < v and cell[v] != cell[u]]
        work["boundary_edges"] = len(bounds)
        for u, v in sorted(bounds):
            offer(dist[u] + 1 + dist[v], cell[u], cell[v], root[u], root[v])
    pairs = tuple((s, None, INF) if row is None else (s, live[row[1]], row[0])
                  for s, row in zip(live, best))
    if least is None:
        return SeparationReport(pairs, INF, None, None, empty, work)
    d, i, j, x, y = least
    return SeparationReport(pairs, d, (live[i], live[j]), (x, y), empty, work)


def theorem_bound(factor1_dim: int, factor2_dim: int, adhesion_dim: int) -> int:
    """Dimension bound the construction certifies from the declared inputs."""
    for value in (factor1_dim, factor2_dim, adhesion_dim):
        if value < 0:
            raise PreconditionError("declared dimensions must be nonnegative")
    return max(factor1_dim, factor2_dim, adhesion_dim + 1)


# -- certificate --------------------------------------------------------------


class Stage(Record):
    name: str
    verdict: bool
    data: dict

    def to_json_dict(self) -> dict:
        return {"name": self.name, "verdict": self.verdict, "data": self.data}


#: Version of the certificate layout ``TheoremCertificate.to_json_dict``
#: writes; format 2 records nearest-shell distances in place of every
#: shell pair, and symmetry-map rows for the walk down to level r;
#: format 3 names tree nodes ``n<k>`` and carries the tree's table.
CERTIFICATE_FORMAT = 3


class TheoremCertificate(Record):
    """Fixed-order audit trail for one block-decomposition run."""

    name: str
    params: ProofParameters
    tree: ConnectingTree
    n: int
    declared: dict
    stages: tuple[Stage, ...]
    bound: int
    verdict: str

    def passed(self) -> bool:
        return self.verdict == "PASS"

    def to_json_dict(self) -> dict:
        return {
            "format_version": CERTIFICATE_FORMAT,
            "name": self.name,
            "parameters": self.params.to_json_dict(),
            "tree": self.tree.to_json_dict(),
            "target_families": self.n,
            "declared_dimensions": dict(sorted(self.declared.items())),
            "stage_order": [st.name for st in self.stages],
            "stages": {st.name: st.to_json_dict() for st in self.stages},
            "bound": self.bound,
            "verdict": self.verdict,
        }


def _fit_entry(fit: QiFit | None) -> dict | None:
    return None if fit is None else fit.to_json_dict()


def _fit_small(fit: QiFit | None, cap: int) -> bool:
    """Feasible with additive error at most cap (on top of exactness elsewhere)."""
    if fit is None or not fit.feasible:
        return False
    return fit.c <= cap


def _witness_for(view: MetricView, r: int, n: int):
    """Greedy block witness with the always-valid banded fallback."""
    g = greedy_witness(view, r, n)
    if g.ok:
        return g.witness, "block-greedy"
    return band_witness(view, r, n), "distance-bands"


def block_shape(H: FiniteGraph, points: frozenset[str]) -> tuple:
    """A key on which a block's ``uniform_asdim_blocks`` row depends.

    With rho the eccentricity of the greatest point within P, the key is
    (|P|, rho, the sorted edges of H inside the ball B(P, rho)), with
    the points labeled first in sorted order and the rest of the ball in
    search order.  A block with a point out of reach keys on its ids, so
    it shares no row.  Equal keys give equal rows:

    (a) the greedy witness, the band fallback and ``violations()`` read
        distances only at points of P, and compare a bounded search's
        values only against r, so the row is a function of P's
        H-distance matrix in sorted-id order;
    (b) every two points x, y of P are at most 2 rho apart, through the
        greatest point p, and each vertex of a shortest x-y path is
        within rho of x or of y, so the path stays inside B(P, rho).  Any
        point of P would do, and the key keeps the greatest, which need
        not sit at the block's centre: postorder names a node after its
        descendants, so p lies over the node of P nearest the site.  At
        ``chain_k2`` d=400 (R=2, r=10) each site's member spans the ten
        levels below the site and p lies one level down, so in 78 of the
        79 members rho is 18 where the least eccentricity over P is 10,
        and in 76 of them B(P, rho) has 56 vertices against 40;
    (c) equal keys give an isomorphism of the two induced ball
        subgraphs that keeps the point order, so by (b) the distance
        matrices are equal, and by (a) so are the rows.
    """
    order = sorted(points)
    adjacency = H.adjacency
    # rho: the level on which a walk from the greatest point settles the last point
    seen, level, left, rho = {order[-1]}, [order[-1]], len(order) - 1, 0
    while left:
        if not level:
            return ("unreachable", tuple(order))
        below = []
        for v in level:
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    below.append(w)
        left -= len(points.intersection(below))
        level, rho = below, rho + 1
    # a walk from P to depth rho labels each vertex as it settles it, so
    # labels grow with the level, and takes each edge at its lower end; it
    # does not expand the last level, whose rows are scanned apart
    label = {v: i for i, v in enumerate(order)}
    edges = []
    level = order
    for _ in range(rho):
        below = []
        for v in level:
            i = label[v]
            for w in adjacency[v]:
                j = label.get(w)
                if j is None:
                    j = label[w] = len(label)
                    below.append(w)
                if j > i:
                    edges.append((i, j))
        level = below
    for v in level:
        i = label[v]
        edges += [(i, j) for w in adjacency[v] if (j := label.get(w, -1)) > i]
    edges.sort()
    return (len(order), rho, tuple(edges))


def block_keys(br: BuildResult, part: PartitionData,
               r: int) -> tuple[list[int | None], list[tuple]]:
    """Each member's shape number (None for an empty block) and each
    number's ``block_shape`` key, with one ball walk per distinct site
    neighbourhood, not one per member.  Members share a number exactly
    when their keys are equal, and only the distinct keys are kept.

    A walked key with radius rho, at a site deeper than D = r + rho, is
    filed under the member's kept node set and the site's signature at D
    (``_site_signature``): the labels that the site and its D - 1
    nearest ancestors are sent by, and its distance to the cut, capped
    at D + 1.  A later member with the same kept set, whose site is
    deeper than D and has the same signature there, takes the key
    without a walk, once ``_is_built_layout`` has found H laid out as
    ``build`` lays it out, premise (b); H laid out otherwise keeps one
    walk per member.  Premise (a) is the tree's, which every stage
    reads as ``build_connecting_tree`` lays it out.  The key is the one
    ``block_shape`` gives, not merely an equivalent one:

    (a) below the root, a node's up label and its children's labels, in
        order, hang on its side and the label it is sent by, and the cut
        leaves no child on level ``depth``.  So the signature fixes the
        labelled tree within D of the site: the ancestors by the chain,
        their other subtrees by the rule, the cut by the distance, and
        the root lies beyond D.  Sending one site's ball to the other's
        node by node along label paths (phi) keeps labels, sides,
        children's order and, as two ball nodes compare at their lowest
        common ancestor, which lies on their path through the site,
        postorder;
    (b) H is laid out by position: a copy's edges come from its factor,
        a bridge's ends from the atlas entry of its edge's label pair,
        each row lists its ends in id order, and ids order the vertices
        by node in postorder, then by name within a copy.  So psi,
        sending position i over u to position i over phi(u), keeps id
        order on the ball, and every row over nodes within D - 1;
    (c) the symmetry walk to level r <= D reads nothing but these labels
        and positions, so the two sites' maps differ by psi, and two
        members with the same kept set are P and psi(P);
    (d) P lies over nodes within r of its site, so the vertices that
        ``block_shape``'s searches expand, within rho - 1 of P or of its
        greatest point, lie over nodes within D - 1.  psi carries both
        searches step by step, the greatest point to the greatest point,
        and the last level's edges inside the ball, so rho, the labels
        and the edges agree.
    """
    H, tree = br.sum.graph, br.tree
    level = tree.level
    # kept set -> D -> signature -> shape number
    memo: dict[frozenset[str], dict[int, dict[tuple, int]]] = {}
    numbers: dict[tuple, int] = {}
    built = None  # whether ``_is_built_layout`` holds, asked on the first hit
    shapes: list[int | None] = []
    for b, (site, kept) in zip(part.members, [(None, None), *part.kept.items()]):
        if not b.vertices:
            shapes.append(None)
            continue
        shape = None
        if site is not None and built is not False:
            for D, filed in memo.get(kept, {}).items():
                if level[site] > D:
                    shape = filed.get(_site_signature(tree, site, D))
                    if shape is not None:
                        break
            if shape is not None and built is None:
                built = _is_built_layout(br)
                if not built:
                    shape = None
        if shape is None:
            key = block_shape(H, b.vertices)
            shape = numbers.setdefault(key, len(numbers))
            rho = None if key[0] == "unreachable" else key[1]
            # a key seen before dies here, not during the next walk: held
            # that long it costs the collector about 1% of a c3_k2 run
            del key
            if site is not None and built is not False and rho is not None \
                    and level[site] > r + rho:
                D = r + rho
                memo.setdefault(kept, {}).setdefault(D, {})[_site_signature(tree, site, D)] = shape
        shapes.append(shape)
    return shapes, list(numbers)


def _site_signature(tree: ConnectingTree, t: str, D: int) -> tuple:
    """t's distance to the cut, capped at D + 1, and the labels that t and
    its D - 1 nearest ancestors are sent by; t lies deeper than D."""
    parent, down = tree.parent, tree.down_label
    labels, u = [], t
    for _ in range(D):
        labels.append(down[u])
        u = parent[u]
    return (min(tree.depth - tree.level[t], D + 1), *labels)


def _is_built_layout(br: BuildResult) -> bool:
    """Whether H is exactly the sum graph that the spec lays out on the
    tree, premise (b) of ``block_keys``.

    H lists the copies in postorder (``tree.nodes``), each of its
    factor's size, and has no other vertex.  Its ids rise over the
    copies in postorder, and within a copy in its factor's name order.
    The row of position i over a node is exactly the bridges down
    (children in order), the factor's edges by position and the bridge
    up, each bridge's ends read from the atlas entry of its edge's label
    pair.  Nodes of one side whose own and children's label pairs agree
    have one row template, so each entry of it is checked over all of
    them at once.
    """
    spec, tree, copies, H = br.spec, br.tree, br.sum.copies, br.sum.graph
    side, parent, children = tree.node_side, tree.parent, tree.children
    up, down, nodes = tree.up_label, tree.down_label, tree.nodes
    factors = (spec.g1, spec.g2)
    sizes = [len(g.vertices) for g in factors]
    by_name = [sorted(range(len(g.vertices)), key=g.vertices.__getitem__) for g in factors]
    laid, sides = list(map(copies.get, nodes)), [side[u] - 1 for u in nodes]
    if None in laid or list(map(len, laid)) != [sizes[s] for s in sides] \
            or H.vertices != tuple(chain.from_iterable(laid)):
        return False
    # each copy's greatest id lies below the next copy's least
    least = map(getitem, laid, [by_name[s][0] for s in sides])
    greatest = list(map(getitem, laid, [by_name[s][-1] for s in sides]))
    if not all(map(lt, greatest, islice(least, 1, None))):
        return False
    where = [{x: i for i, x in enumerate(g.vertices)} for g in factors]
    near = [[[at[y] for y in g.adjacency[x]] for x in g.vertices] for g, at in zip(factors, where)]

    def bridges(s: int, pair: tuple[str, str]) -> dict[int, int]:
        """Position over a node of side s + 1 -> its bridge's end over the
        parent, pair being the edge's labels (the node's, the parent's)."""
        k, l = pair if s == 0 else pair[::-1]
        ends = [(where[0][x], where[1][y]) for x, y in spec.atlas.map_for(k, l).items()]
        return dict(ends if s == 0 else [(b, a) for a, b in ends])

    alike: dict[tuple, list[str]] = {}
    for u, s in zip(nodes, sides):
        alike.setdefault((s, up.get(u), down.get(u),
                          *[(up[w], down[w]) for w in children[u]]), []).append(u)
    adjacency = H.adjacency
    for (s, k, l, *below), group in alike.items():
        # the copies around each node of the group: per child, the node's
        # own, the parent's
        around = [[copies[children[u][c]] for u in group] for c in range(len(below))]
        own = len(below)
        around.append(list(map(copies.__getitem__, group)))
        for i, j in zip(by_name[s], by_name[s][1:]):
            if not all(map(lt, map(itemgetter(i), around[own]), map(itemgetter(j), around[own]))):
                return False
        downs = [{b: a for a, b in bridges(1 - s, pair).items()} for pair in below]
        rise = {}
        if k is not None:
            around.append([copies[parent[u]] for u in group])
            rise = bridges(s, (k, l))
        for i in range(sizes[s]):
            template = [(c, m[i]) for c, m in enumerate(downs) if i in m]
            template += [(own, j) for j in near[s][i]]
            if i in rise:
                template.append((own + 1, rise[i]))
            rows = list(map(adjacency.__getitem__, map(itemgetter(i), around[own])))
            if set(map(len, rows)) != {len(template)}:
                return False
            for e, (c, j) in enumerate(template):
                if list(map(itemgetter(e), rows)) != list(map(itemgetter(j), around[c])):
                    return False
    return True


def run_certificate(br: BuildResult, params: ProofParameters) -> TheoremCertificate:
    """Instantiate the whole block construction and measure every claim.

    Stages run in a fixed order and later stages consume earlier
    results, so a structural failure early on shows up as explicit
    short-circuit verdicts rather than exceptions.  The final verdict
    is PASS exactly when every stage verdict holds.
    """
    params.require_certificate_grade()
    if params.depth != br.tree.depth:
        raise PreconditionError("parameters disagree with the built truncation depth")
    h, tree, H = br.sum, br.tree, br.sum.graph
    decl = br.spec.declared_asdim
    n = theorem_bound(decl.get("factor1", 0), decl.get("factor2", 0),
                      decl.get("adhesion", 0))
    R, r = params.R, params.r
    sites = translation_sites(tree, params)
    stages: list[Stage] = []

    stages.append(Stage("parameters", True, {
        "R": R, "r": r, "depth": params.depth, "margin": r,
        "sites": list(sites), "safe_nodes": len(safe_nodes(tree, params)),
        "target_families": n,
    }))

    walk = SymmetryWalk(br, r)
    base = base_blocks(walk, params)
    base_ok = (bool(base.shell)
               and _fit_small(base.core_fit, R)
               and _fit_small(base.shell_fit, R))
    stages.append(Stage("base_blocks", base_ok, {
        "core_size": len(base.core),
        "shell_size": len(base.shell),
        "w0": base.w0.to_json_dict(),
        "u_block": base.u_r.to_json_dict(),
        "w_block": base.w_r.to_json_dict(),
        "shell_edges_removed": len(base.u_r.edges) - len(base.w_r.edges),
        "core_fit": _fit_entry(base.core_fit),
        "shell_fit": _fit_entry(base.shell_fit),
    }))

    # later stages only look maps up on the working block and the shell,
    # which lie over tree levels at most r, so each walk stops there
    maps = []
    per_site = {}
    for t in sites:
        sm = walk.map_at(t)
        per_site[sm.site] = {"nodes": len(sm.node_map),
                             "vertices": len(sm.vertex_map),
                             "edge_ok": sm.edge_ok,
                             "injective": sm.injective,
                             "detail": sm.detail}
        maps.append(sm)
    maps_ok = all(row["edge_ok"] and row["injective"] for row in per_site.values())
    stages.append(Stage("symmetry_maps", maps_ok, {"per_site": per_site}))

    part = assemble_partition(br, params, base, maps)
    stages.append(Stage("partition", part.covers_safe and part.interiors_disjoint, {
        "members": {b.name: b.to_json_dict() for b in part.members},
        "member_vertices": {b.name: sorted(b.vertices) for b in part.members},
        "safe_vertices": len(part.safe),
        "missing": sorted(part.missing),
        "overlap_faults": [list(p) for p in part.overlap_faults],
        "shell_union_size": len(part.shell_union),
        "boundary_matches_shells": part.boundary_matches_shells,
    }))

    # translates of one block shape share a row, so each shape is
    # certified once (see block_shape and block_keys)
    uniform_rows = {}
    by_shape: dict[int, dict] = {}
    uniform_ok = True
    common_bound: int | float = 0
    shapes, _ = block_keys(br, part, r)
    for b, shape in zip(part.members, shapes):
        if shape is None:
            uniform_rows[b.name] = {"strategy": "none", "valid": False,
                                    "detail": "empty block"}
            uniform_ok = False
            continue
        row = by_shape.get(shape)
        if row is None:
            w, strategy = _witness_for(b.view(H), r, n)
            problems = w.violations()
            row = by_shape[shape] = {"strategy": strategy, "bound": w.bound,
                                   "families": len(w.families),
                                   "valid": not problems and len(w.families) == n + 1}
            if problems:
                row["problems"] = problems
        uniform_rows[b.name] = dict(row)
        uniform_ok = uniform_ok and row["valid"]
        common_bound = max(common_bound, row["bound"])
    stages.append(Stage("uniform_asdim_blocks", uniform_ok, {
        "per_block": uniform_rows,
        "common_bound": common_bound,
        "scale": r,
        "families": n + 1,
    }))

    boundary_ok = False
    boundary_data: dict = {"detail": "empty shell"}
    fattened: list[frozenset[str]] = []
    if base.shell:
        shell_view = MetricView(H, sorted(base.shell))
        u_w, strategy = _witness_for(shell_view, 2 * R + 1, max(n - 1, 0))
        raw = [m for fam in u_w.families for m in fam]
        fattened = sorted({frozenset(H.ball(m, R) & base.shell) for m in raw},
                          key=sorted)
        u_cover = Cover(shell_view, fattened)
        u_mult = multiplicity(u_cover)
        boundary_ok = u_mult <= n
        boundary_data = {
            "strategy": strategy,
            "scale": 2 * R + 1,
            "members": len(fattened),
            "member_lists": [sorted(m) for m in fattened],
            "max_diameter": u_cover.max_diameter(),
            "multiplicity": u_mult,
            "lebesgue_paper": lebesgue_number(u_cover, "paper"),
            "lebesgue_standard": lebesgue_number(u_cover, "standard"),
        }
    stages.append(Stage("boundary_cover", boundary_ok, boundary_data))

    transported_ok = False
    trans_data: dict = {"detail": "no boundary cover"}
    z_cover = None
    z_mult = z_diam = None
    if fattened and part.shell_union:
        v_members = set(fattened)
        for sm in maps:
            if sm.site == ROOT:
                continue
            shell_t = part.shells[sm.site]
            if not shell_t:
                continue
            for u in fattened:
                img = sm.carry(u)
                piece = img & shell_t
                if piece:
                    v_members.add(piece)
        ordered = sorted(v_members, key=sorted)
        z_view = MetricView(H, sorted(part.shell_union))
        try:
            z_cover = Cover(z_view, ordered)
        except PreconditionError as exc:
            trans_data = {"detail": str(exc), "members": len(ordered)}
        if z_cover is not None:
            z_mult = multiplicity(z_cover)
            z_diam = z_cover.max_diameter()
            transported_ok = z_mult <= n
            trans_data = {
                "members": len(ordered),
                "member_lists": [sorted(m) for m in ordered],
                "multiplicity": z_mult,
                "multiplicity_within_strict_budget": z_mult <= n - 1,
                "max_diameter": z_diam,
            }
    stages.append(Stage("transported_cover", transported_ok, trans_data))

    sep = verify_separation(H, part.shells)
    stages.append(Stage("separation", sep.all_beyond(R), {
        "nearest": {a: [b, d] for a, b, d in sep.pairs},
        "min_distance": sep.min_distance,
        "closest_sites": sep.closest_sites,
        "closest_vertices": sep.closest_vertices,
        "beyond_shell_radius": sep.all_beyond(R),
        "at_least_triple_radius": sep.all_at_least(3 * R),
        "empty_sites": list(sep.empty_sites),
        "work": sep.work,
    }))

    leb_ok = False
    leb_data: dict = {"detail": "no transported cover"}
    leb_paper: int | float | None = None
    if z_cover is not None:
        leb_paper = lebesgue_number(z_cover, "paper")
        leb_standard = lebesgue_number(z_cover, "standard")
        leb_ok = leb_paper > R and leb_standard > R
        leb_data = {"paper": leb_paper, "standard": leb_standard,
                    "threshold": R}
    stages.append(Stage("lebesgue", leb_ok, leb_data))

    rd_ok = False
    rd_data: dict = {"detail": "no transported cover"}
    if z_cover is not None and leb_paper is not None:
        rd_ok = z_mult <= n and leb_paper > R and z_diam < INF
        rd_data = {"multiplicity": z_mult, "max_diameter": z_diam,
                   "lebesgue_paper": leb_paper, "shell_radius": R,
                   "families_budget": n}
    stages.append(Stage("rd_dim", rd_ok, rd_data))

    verdict = "PASS" if all(st.verdict for st in stages) else "FAIL"
    return TheoremCertificate(br.spec.name, params, tree, n, dict(decl),
                              tuple(stages), n, verdict)


# -- projection bookkeeping ---------------------------------------------------


def tree_graph(tree: ConnectingTree) -> FiniteGraph:
    """The connecting tree itself as a finite metric graph."""
    return FiniteGraph(tree.nodes, tree.parent.items())


def stretched_edges(br: BuildResult) -> Iterator[tuple[str, str]]:
    """Yield the sum graph's edges whose ends lie two or more tree steps apart.

    Both the sum graph and the tree carry path metrics, so the
    copy-to-node projection never increases a distance iff there is no
    such edge, and each one is itself a pair the projection stretches
    (ds = 1 < dt).  Edges come in ``H.edges`` order.
    """
    parent, node_of = br.tree.parent, br.sum.node_of
    for x, y in br.sum.graph.edges:
        u, v = node_of(x), node_of(y)
        if u != v and parent.get(u) != v and parent.get(v) != u:
            yield x, y


def projection_fit(br: BuildResult, margin: int = 0) -> QiFit | None:
    """Distortion table of the copy-to-node projection, on the safe core
    (the vertices over nodes no deeper than depth minus margin).

    None when the projection stretches an edge or the sum graph is torn;
    no accepted spec gives either.  ``_copy_shapes`` looks for a
    stretched edge among the edges it reads anyway, so a caller that has
    run ``stretched_edges`` already (``cli.build_report``) does not scan
    every edge twice.  Otherwise dt <= ds for every pair, so the
    constant for the stretch p/q is max(0, M/p) with M the largest
    q*ds - p*dt over pairs, and ``_projection_maxima`` finds M without
    walking the pairs.
    """
    tree = br.tree
    if margin < 0:
        raise PreconditionError("margin must be nonnegative")
    kept = [tree.node_depth(u) <= tree.depth - margin for u in tree.preorder]
    if not any(kept):
        raise PreconditionError("margin leaves no safe nodes")
    read = _copy_shapes(br)
    if read is None or not br.sum.graph.is_connected():
        return None
    return QiFit.from_maxima([(m, 0) for m in _projection_maxima(*read, kept)])


#: GAMMA_GRID as (p, q) pairs, the stretch p/q in lowest terms
_STEPS = tuple((g.numerator, g.denominator) for g in GAMMA_GRID)


def _copy_shapes(br: BuildResult) -> tuple[list[tuple], list[list[int]]] | None:
    """What the fit reads of each node's copy in H, and each node's
    children, with the nodes numbered in preorder; None if an edge of H
    is stretched.

    A vertex is named by its position in its node's copy (in a built sum
    graph, its factor vertex's position), and its edges are read from H.
    A node's shape is (the copy's size, its edges, its up-portals: the
    vertices with a neighbour over the parent, and per child the child's
    up-portal count and the sorted bridges (i, j) from vertex i to the
    child's j-th up-portal).
    """
    H, tree, copies = br.sum.graph, br.tree, br.sum.copies
    preorder = tree.preorder
    kids = [[preorder[w] for w in tree.children[u]] for u in preorder]
    parent = [preorder.get(tree.parent.get(u), -1) for u in preorder]
    sizes = [len(copies.get(u, ())) for u in preorder]
    where = {v: (preorder[u], i) for u, copy in copies.items() for i, v in enumerate(copy)}
    edges, ups, down = ([[] for _ in sizes] for _ in range(3))
    for v, (k, i) in where.items():
        for w in H.adjacency[v]:
            l, j = where[w]
            if l == k:
                if i < j:
                    edges[k].append((i, j))
            elif l == parent[k]:
                if not ups[k] or ups[k][-1] != i:
                    ups[k].append(i)
            elif parent[l] == k:
                down[k].append((l, i, j))
            else:
                return None
    rank = [{i: t for t, i in enumerate(us)} for us in ups]
    shapes = []
    for k, below in enumerate(kids):
        bridges: dict[int, list] = {l: [] for l in below}
        for l, i, j in down[k]:
            bridges[l].append((i, rank[l][j]))
        shapes.append((sizes[k], tuple(edges[k]), tuple(ups[k]),
                       tuple((len(ups[l]), tuple(sorted(b))) for l, b in bridges.items())))
    return shapes, kids


def _projection_maxima(shapes: list[tuple], kids: list[list[int]], kept: list[bool]) -> list[int]:
    """Per stretch p/q of ``GAMMA_GRID``, max(0, q*ds - p*dt) over pairs of
    vertices over kept nodes, for a connected sum graph with no
    stretched edge, in three passes over the rooted tree.

    Every edge joins one copy or the copies of a node and its parent, so
    a path from the subtree of u to the rest of H crosses u's
    up-portals, and a path between two vertices over u and over u's
    children's up-portals splits into edges and bridges of those,
    detours below a child between its up-portals, and detours above u
    between u's up-portals (the separator argument of distance labels:
    Gavoille, Peleg, Pérennes & Raz, *J. Algorithms* 53, 2004).  So:

    1. bottom-up, ``_inner_metric`` gives the H-metric on u's
       up-portals over paths inside u's subtree, from its children's;
    2. top-down, ``_node_metric`` gives the whole H-metric on the copy
       over u and its children's up-portals, from the children's inner
       metrics and u's outer metric (the whole one on u's up-portals),
       and with it each child's outer metric;
    3. bottom-up, ``_node_pairs`` gives the pairs whose lowest common
       node is u and the aggregate of u's subtree (see there).

    Each step is memoised for the one call, keyed on its arguments.
    Equal keys give equal outputs, each the node's own:

    (a) a step reads nothing but its arguments: step 1 the node's shape
        (``_copy_shapes``) and its children's inner metrics, step 2
        those and the node's outer metric, step 3 step 2's output and
        the children's aggregates;
    (b) by the separator argument, the shortest paths that a step
        reads run in a weighted graph built from the shape and those
        metrics alone, and step 3 adds nothing but tree steps counted
        from the node, so the node's level, side and name enter nowhere;
    (c) vertices are named by position, so nodes with equal keys have
        equal weighted graphs, and an output stated in positions is
        each node's own.
    """
    first, second, third = {}, {}, {}
    inner, outer, node, aggregate = ([()] * len(kids) for _ in range(4))
    for k in reversed(range(len(kids))):
        inner[k] = _memo(first, _inner_metric, shapes[k], tuple([inner[l] for l in kids[k]]))
    for k, below in enumerate(kids):
        node[k], passed = _memo(second, _node_metric, shapes[k],
                                tuple([inner[l] for l in below]), outer[k])
        for l, metric in zip(below, passed):
            outer[l] = metric
    for k in reversed(range(len(kids))):
        if kept[k]:
            _, aggregate[k] = _memo(third, _node_pairs, node[k],
                                    tuple([aggregate[l] for l in kids[k]]))
    return [max(column) for column in zip(*[best for best, _ in third.values()])]


def _memo(table: dict, step, *key):
    got = table.get(key)
    if got is None:
        got = table[key] = step(*key)
    return got


def _gadget_distances(shape: tuple, inner: tuple, outer: tuple, sources: Iterable[int]) -> list[list]:
    """Shortest-path rows from ``sources`` (Dijkstra) over the copy's
    vertices, then each child's up-portals in turn: the copy's edges and
    bridges at length 1, and each child's inner metric and the copy's
    outer metric as shortcuts."""
    size, edges, ups, kids = shape
    arcs: list[list] = [[] for _ in range(size + sum(n for n, _ in kids))]
    for i, j in edges:
        arcs[i].append((j, 1))
        arcs[j].append((i, 1))
    spans, base = [(ups, outer)], size
    for (n, bridges), metric in zip(kids, inner):
        for i, j in bridges:
            arcs[i].append((base + j, 1))
            arcs[base + j].append((i, 1))
        spans.append((range(base, base + n), metric))
        base += n
    for span, metric in spans:
        for a, row in zip(span, metric):
            arcs[a].extend([(b, d) for b, d in zip(span, row) if b != a and d != INF])
    rows = []
    for s in sources:
        dist = [INF] * len(arcs)
        dist[s], heap = 0, [(0, s)]
        while heap:
            d, v = heappop(heap)
            if d == dist[v]:
                for w, length in arcs[v]:
                    if d + length < dist[w]:
                        dist[w] = d + length
                        heappush(heap, (d + length, w))
        rows.append(dist)
    return rows


def _inner_metric(shape: tuple, inner: tuple) -> tuple:
    """The H-metric on a node's up-portals over paths inside its subtree."""
    ups = shape[2]
    return tuple(tuple([row[j] for j in ups]) for row in _gadget_distances(shape, inner, (), ups))


def _node_metric(shape: tuple, inner: tuple, outer: tuple) -> tuple[tuple, tuple]:
    """(a_x per vertex x of the copy, its distances to the copy's portals,
    the vertices with a bridge; per child and portal, the distances to
    the child's up-portals; the copy's largest distance; the up-portals'
    places among the portals), which ``_node_pairs`` reads, and each
    child's outer metric."""
    size, _, ups, kids = shape
    rows = _gadget_distances(shape, inner, outer, range(size + sum(n for n, _ in kids)))
    portals = sorted({*ups, *[i for _, bridges in kids for i, _ in bridges]})
    own = tuple(tuple([row[s] for s in portals]) for row in rows[:size]) if portals else ()
    spread = max([max(row[:size]) for row in rows[:size]], default=0)
    moves, passed, base = [], [], size
    for n, _ in kids:
        span = range(base, base + n)
        moves.append(tuple(tuple([rows[s][t] for t in span]) for s in portals))
        passed.append(tuple(tuple([rows[t][b] for b in span]) for t in span))
        base += n
    return (own, tuple(moves), spread, tuple([portals.index(i) for i in ups])), tuple(passed)


def _node_pairs(data: tuple, aggregates: tuple) -> tuple[tuple, tuple]:
    """Per stretch, the best q*ds - p*dt over pairs whose lowest common
    node is c, and c's aggregate, from ``_node_metric``'s data for c and
    its children's aggregates.

    A node's aggregate maps each pattern a_x - min(a_x) over the vertices
    x of its subtree, with a_x their distances to its up-portals, to its
    best end term q*min(a_x) - p*dt_x per stretch, dt_x the tree
    distance from x's node.  A child's aggregate moves to c's portals by
    min-plus through its distances to them, at one more tree step; the
    copy over c gives its own a_x.  A path between two of these branches
    passes a portal s of c, so ds is the least a_x[s] + a_y[s], and q*ds
    - p*dt splits into q*min(alpha_x + alpha_y) plus the two end terms,
    and each branch's patterns meet the best terms of the branches
    before it.  Pairs inside the copy take its largest distance.  c's
    aggregate is every branch's patterns restricted to its up-portals.
    """
    own, moves, spread, up_cols = data
    branches: list[dict] = [{}]
    for a in own:
        m = min(a)
        _raise(branches[0], tuple([v - m for v in a]), [q * m for _, q in _STEPS])
    for move, aggregate in zip(moves, aggregates):
        got: dict = {}
        for alpha, terms in aggregate:
            beta = [min(map(add, alpha, row)) for row in move]
            mb = min(beta)
            _raise(got, tuple([v - mb for v in beta]),
                   [t + q * mb - p for t, (p, q) in zip(terms, _STEPS)])
        branches.append(got)
    best = [q * spread for _, q in _STEPS]
    seen: dict = {}  # pattern -> best end terms in the branches so far
    for got in branches:
        for beta, tb in got.items():
            for alpha, ta in seen.items():
                mm = min(map(add, alpha, beta))
                best = list(map(max, best, [q * mm + a + b for (_, q), a, b in zip(_STEPS, ta, tb)]))
        for beta, tb in got.items():
            _raise(seen, beta, tb)
    up: dict = {}
    if up_cols:
        for alpha, terms in seen.items():
            r = [alpha[j] for j in up_cols]
            mr = min(r)
            _raise(up, tuple([v - mr for v in r]), [t + q * mr for t, (_, q) in zip(terms, _STEPS)])
    return tuple(best), tuple(sorted([(alpha, tuple(terms)) for alpha, terms in up.items()]))


def _raise(table: dict, pattern: tuple, terms: list):
    got = table.get(pattern)
    table[pattern] = terms if got is None else list(map(max, got, terms))
