"""Cover calculus: families, Lebesgue numbers, exact and greedy witnesses."""

import itertools
import random

import pytest

import asdimforge as af
from asdimforge import covers
from asdimforge.covers import (EXACT_CAP, _block_partition, _cluster, _distances, _measure,
                               _TableDistances, band_witness, exact_min_bound,
                               exact_min_families)
from asdimforge.errors import PreconditionError

from conftest import (complete_graph, line_graph, reference_cluster, reference_exact_min_bound,
                      reference_exact_min_families, ring_graph)


def view(g):
    return af.MetricView(g)


# -- families and covers -------------------------------------------------------


def test_family_validation_and_measures():
    g = line_graph(4)
    fam = af.Family(view(g), [frozenset({"p0", "p1"}), frozenset({"p3"})])
    assert fam.max_diameter() == 1
    with pytest.raises(PreconditionError):
        af.Family(view(g), [frozenset()])
    with pytest.raises(PreconditionError):
        af.Family(view(g), [frozenset({"zz"})])
    # a witness family is measured from the view's table at or under the
    # cap, and by searching above it, with the same answers
    for size in (4, EXACT_CAP, EXACT_CAP + 1, 40):
        space = view(line_graph(size))
        assert isinstance(_distances(space, 2), _TableDistances) == (size <= EXACT_CAP)
        members = (frozenset({"p0", "p1"}), frozenset({"p3"}))
        assert _measure(_distances(space, 2), (members, ())) == ((True, 1), None)
        assert _measure(_distances(space, 3), (members,)) == ((False, 1),)
        assert _measure(_distances(space, 3), ((frozenset({"p0", "p2"}),),)) == ((True, 2),)
        adjacent = (frozenset({"p1"}), frozenset({"p0"}), frozenset({"p2", "p3"}))
        assert _measure(_distances(space, 1), (adjacent,)) == ((True, 1),)
        assert _measure(_distances(space, 2), (adjacent,)) == ((False, 1),)
        overlapping = (frozenset({"p1", "p2"}), frozenset({"p0", "p1"}))
        assert _measure(_distances(space, 1), (overlapping,)) == ((False, 1),)
        with pytest.raises(PreconditionError, match="need r > 0"):
            _measure(_distances(space, 0), (members,))
        with pytest.raises(PreconditionError, match="outside the space"):
            _measure(_distances(space, 2), ((frozenset({"zz"}),),))


def test_cover_must_cover():
    g = line_graph(3)
    with pytest.raises(PreconditionError):
        af.Cover(view(g), [frozenset({"p0", "p1"})])
    c = af.Cover(view(g), [frozenset({"p0", "p1"}), frozenset({"p1", "p2"})])
    assert af.multiplicity(c) == 2
    assert c.max_diameter() == 1


def test_lebesgue_numbers_frozen_values():
    # Two overlapping triples on a 4-path: every point is 3 away from some
    # member's complement at best (deep end), 2 at worst (middle).
    g = line_graph(4)
    c = af.Cover(view(g), [frozenset({"p0", "p1", "p2"}),
                           frozenset({"p1", "p2", "p3"})])
    assert af.lebesgue_number(c, "paper") == 3
    assert af.lebesgue_number(c, "standard") == 2
    # Singleton split of an edge.
    k2 = line_graph(2)
    c2 = af.Cover(view(k2), [frozenset({"p0"}), frozenset({"p1"})])
    assert af.lebesgue_number(c2, "paper") == 1
    assert af.lebesgue_number(c2, "standard") == 1
    # The whole space as one member has empty complement.
    c3 = af.Cover(view(g), [frozenset(g.vertices)])
    assert af.lebesgue_number(c3, "paper") == af.INF
    assert af.lebesgue_number(c3, "standard") == af.INF
    with pytest.raises(PreconditionError):
        af.lebesgue_number(c, "median")


# -- witness families ----------------------------------------------------------


def test_witness_validation_catches_violations():
    g = line_graph(6)
    good = af.WitnessFamilies(view(g), 3,
                              ((frozenset({"p0", "p1"}), frozenset({"p4", "p5"})),
                               (frozenset({"p2", "p3"}),)), 1)
    assert good.violations() == []
    assert good.n == 1
    bad_sep = af.WitnessFamilies(view(g), 3,
                                 ((frozenset({"p0", "p1"}), frozenset({"p3"})),
                                  (frozenset({"p2"}), frozenset({"p4", "p5"}))), 1)
    assert any("disjoint" in v for v in bad_sep.violations())
    with pytest.raises(PreconditionError):
        bad_sep.require_valid()
    bad_bound = af.WitnessFamilies(view(g), 3,
                                   ((frozenset({"p0", "p1", "p2"}),),
                                    (frozenset({"p3", "p4", "p5"}),)), 1)
    assert any("diameter" in v or "bound" in v for v in bad_bound.violations())


# -- the exact oracle ----------------------------------------------------------


def test_exact_bound_frozen_path_values(path10_view):
    assert exact_min_bound(path10_view, 3, 1).bound == 1
    assert exact_min_bound(path10_view, 3, 0).bound == 9
    assert exact_min_bound(path10_view, 1, 0).bound == 0


def test_exact_bound_small_shapes():
    assert exact_min_bound(view(complete_graph(7)), 3, 0).bound == 1
    assert exact_min_bound(view(ring_graph(7)), 3, 1).bound == 3
    assert exact_min_bound(view(line_graph(1)), 2, 0).bound == 0


def test_exact_min_families_frozen_values(path10_view):
    assert exact_min_families(path10_view, 3) == 1
    assert exact_min_families(view(ring_graph(7)), 3) == 2
    assert exact_min_families(view(complete_graph(7)), 3) == 0


def test_exact_bound_respects_cap():
    with pytest.raises(PreconditionError):
        exact_min_bound(view(line_graph(13)), 2, 0)


def test_exact_bound_monotone_in_r_and_n():
    graphs = [line_graph(6), ring_graph(6), complete_graph(5),
              af.FiniteGraph(list("abcde"),
                             [("a", "b"), ("b", "c"), ("c", "d"), ("b", "e")])]
    for g in graphs:
        v = view(g)
        table = {(r, n): exact_min_bound(v, r, n).bound
                 for r in (1, 2, 3, 4) for n in (0, 1, 2)}
        for (r, n), bound in table.items():
            if (r + 1, n) in table:
                assert table[(r + 1, n)] >= bound
            if (r, n + 1) in table:
                assert table[(r, n + 1)] <= bound


def test_exact_witness_is_valid_witness(path10_view):
    w = exact_min_bound(path10_view, 3, 1)
    assert w.violations() == []
    assert w.bound == 1


def _random_connected_graph(rng, size):
    """A random spanning tree plus up to ``size`` chords, its vertices handed
    to the graph in shuffled order under names whose sorted order is not
    the order the tree grew in."""
    names = rng.sample([f"x{i:02d}" for i in range(40)], size)
    edges = [(names[i], names[rng.randrange(i)]) for i in range(1, size)]
    edges += [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, size))]
    return af.FiniteGraph(rng.sample(names, size), edges)


def _assert_oracle_matches_reference(space):
    for r in (1, 2, 3, 4):
        below = []  # the n whose reference bound is below r
        for n in (0, 1, 2):
            w = exact_min_bound(space, r, n)
            bound, families = reference_exact_min_bound(space, r, n)
            assert (w.bound, w.families) == (bound, families), (space.points, r, n)
            if bound < r:
                below.append(n)
        least = below[0] if below else reference_exact_min_families(space, r)
        assert exact_min_families(space, r) == least, (space.points, r)


def test_exact_oracle_matches_the_reference_search():
    rng = random.Random(18)
    for _ in range(300):
        g = _random_connected_graph(rng, rng.randint(6, 12))
        assert list(g.vertices) != sorted(g.vertices)
        _assert_oracle_matches_reference(view(g))
    # a proper sub-view, measured through the whole graph
    g = _random_connected_graph(rng, 16)
    _assert_oracle_matches_reference(af.MetricView(g, rng.sample(g.vertices, 10)))
    # a view of a disconnected graph: no cluster spans two components
    parts = line_graph(4), ring_graph(5), complete_graph(2)
    g = af.FiniteGraph([v for p in parts for v in p.vertices],
                       [e for p in parts for e in p.edges])
    assert not g.is_connected()
    _assert_oracle_matches_reference(view(g))
    # one point
    _assert_oracle_matches_reference(view(line_graph(1)))


def test_exact_oracle_and_greedy_reject_an_empty_view():
    empty = af.MetricView(line_graph(3), [])
    for ask in (lambda: exact_min_families(empty, 2), lambda: exact_min_bound(empty, 2, 0),
                lambda: af.greedy_witness(empty, 2, 0)):
        with pytest.raises(PreconditionError, match="empty space"):
            ask()


# -- greedy and banded construction ---------------------------------------------


def test_greedy_on_long_path(path10_view):
    res = af.greedy_witness(path10_view, 3, 1)
    assert res.ok
    assert res.witness.violations() == []
    assert res.witness.bound == 2
    assert len(res.witness.families) == 2


def test_greedy_fails_gracefully():
    res = af.greedy_witness(view(ring_graph(7)), 3, 0)
    assert not res.ok
    assert res.witness is None
    assert res.colors_needed > 1


def test_greedy_merge_repair_on_odd_ring():
    # every maximal 2-net on a 7-ring has three cells in a mutual
    # conflict triangle, so success with two slots requires merging
    space = view(ring_graph(7))
    res = af.greedy_witness(space, 2, 1)
    assert res.ok
    assert res.witness.violations() == []
    assert len(res.witness.families) == 2
    net, blocks = _block_partition(_distances(space, 2))
    assert len(net) == 3
    merged = {m for fam in res.witness.families for m in fam}
    assert merged != set(blocks)


def test_greedy_merge_repair_on_spider():
    g = af.FiniteGraph(
        ["v0", "v1", "v2", "v3", "v4", "v5"],
        [("v0", "v1"), ("v1", "v2"), ("v1", "v3"), ("v2", "v4"), ("v3", "v5")])
    res = af.greedy_witness(view(g), 3, 1)
    assert res.ok
    assert res.witness.violations() == []
    exact = exact_min_bound(view(g), 3, 1)
    assert res.witness.bound >= exact.bound


def test_band_witness_always_valid():
    rng = random.Random(7)
    shapes = [line_graph(8), ring_graph(9), complete_graph(6)]
    for _ in range(20):
        n_v = rng.randint(2, 8)
        names = [f"x{i}" for i in range(n_v)]
        edges = [(names[i], names[i + 1]) for i in range(n_v - 1)]
        extra = [(a, b) for a, b in itertools.combinations(names, 2)
                 if (a, b) not in edges and rng.random() < 0.3]
        shapes.append(af.FiniteGraph(names, edges + extra))
    for g in shapes:
        for r in (2, 3):
            for n in (0, 1, 2):
                w = band_witness(view(g), r, n)
                assert w.violations() == []
                assert len(w.families) == n + 1


def test_cluster_matches_the_quadratic_reference():
    """Seeded views on both sides of the cap, and rings of 1,500 and 3,000
    points: all of a view's points, and the alternate distance bands that
    ``band_witness`` clusters, against the scan of every cluster so far."""
    rng = random.Random(29)
    cases = []
    for _ in range(40):
        g = _random_connected_graph(rng, rng.randint(6, 40))
        space = af.MetricView(g, rng.sample(g.vertices, rng.randint(1, len(g))))
        cases += [(space, r) for r in (1, 2, 3)]
    cases += [(view(ring_graph(size)), 3) for size in (1500, 3000)]
    sides = set()
    for space, r in cases:
        dist = _distances(space, r)
        sides.add(len(space) <= EXACT_CAP)
        level = space.graph.distances_from(space.points[0])
        for points in (space.points, *({v for v in space.points if level[v] // r % 2 == b}
                                        for b in (0, 1))):
            got = sorted(map(sorted, _cluster(points, dist)))
            assert got == sorted(map(sorted, reference_cluster(points, dist))), (space.points, r)
    assert sides == {True, False}


# -- transport ------------------------------------------------------------------


def _doubling_map(n_src: int):
    src = line_graph(n_src, "s")
    dst = line_graph(2 * n_src - 1, "t")
    vm = af.VertexMap(af.MetricView(src), af.MetricView(dst),
                      {f"s{i}": f"t{2 * i}" for i in range(n_src)})
    return vm


def test_transport_through_doubling():
    vm = _doubling_map(10)
    w = af.greedy_witness(vm.source, 8, 1).witness
    assert af.check_quasi_isometry(vm, 2, 1)
    out = af.transport_witness(w, vm, 2, 1)
    assert out.r_out == 3  # floor(8/2 - 1)
    assert out.witness.violations() == []
    assert out.witness.bound <= out.claimed_bound


def test_transport_rejects_too_small_scale():
    vm = _doubling_map(10)
    w = af.greedy_witness(vm.source, 3, 1).witness
    with pytest.raises(PreconditionError):
        af.transport_witness(w, vm, 2, 1)  # 3/2 - 1 < 1


def test_transport_requires_matching_space():
    vm = _doubling_map(10)
    other = line_graph(10, "q")
    w = af.greedy_witness(view(other), 8, 1).witness
    with pytest.raises(PreconditionError):
        af.transport_witness(w, vm, 2, 1)


def _reference_greedy(space, r, n):
    """The block strategy as first written: one search from every point for
    the partition, and every cell separation searched again after each merge."""
    g = space.graph
    near = {v: g.distances_to_set((v,), limit=r - 1) for v in space.points}
    net = []
    for v in space.points:
        if all(near[v].get(u, af.INF) >= r for u in net):
            net.append(v)
    blocks = [set() for _ in net]
    for v in space.points:
        blocks[min(range(len(net)), key=lambda i: (near[v].get(net[i], af.INF), i))].add(v)
    blocks = [frozenset(b) for b in blocks]
    root_dist = g.distances_to_set((net[0],), until=net)
    cells = list(enumerate(blocks))
    while True:
        order = sorted(range(len(cells)),
                       key=lambda i: (root_dist.get(net[cells[i][0]], af.INF), cells[i][0]))
        sep = {}
        for i, (_, b) in enumerate(cells):
            dist = g.distances_to_set(b, limit=r - 1)
            for j, (_, b2) in enumerate(cells):
                if j != i:
                    sep[i, j] = min((dist.get(v, af.INF) for v in b2), default=af.INF)
        colors, blocked = {}, None
        for i in order:
            used = {c for j, c in colors.items() if sep[i, j] < r}
            colors[i] = min(c for c in range(len(cells) + 1) if c not in used)
            if colors[i] > n and blocked is None:
                blocked = i
        if blocked is None:
            families = [[] for _ in range(n + 1)]
            for i, c in colors.items():
                families[c].append(cells[i][1])
            return net, blocks, tuple(tuple(sorted(f, key=sorted)) for f in families)
        if n == 0:
            return net, blocks, None
        pos = {i: k for k, i in enumerate(order)}
        partners = [j for j in order if pos[j] < pos[blocked] and sep[blocked, j] < r]
        best = min(partners, key=lambda j: (g.diameter(cells[j][1] | cells[blocked][1]), pos[j]))
        merged = (cells[best][0], cells[best][1] | cells[blocked][1])
        cells = [merged if k == best else cell for k, cell in enumerate(cells) if k != blocked]


def test_greedy_matches_the_search_per_point_reference(triangle8):
    rng = random.Random(11)
    graphs = [triangle8.sum.graph, ring_graph(7), complete_graph(5)]
    for _ in range(60):
        n_v = rng.randint(3, 18)
        names = [f"x{i:02d}" for i in range(n_v)]
        edges = [(names[i], names[rng.randrange(i)]) for i in range(1, n_v)]
        edges += [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, n_v))]
        graphs.append(af.FiniteGraph(names, edges))
    # per side of the cap (the table answers at or under it, searches
    # above it): the views drawn, and the witnesses that needed merges
    views, merges = {True: 0, False: 0}, {True: 0, False: 0}
    for g in graphs:
        points = sorted(rng.sample(g.vertices, min(len(g), 30)))
        space = af.MetricView(g, points)
        small = len(space) <= EXACT_CAP
        views[small] += 1
        for r in (2, 3, 4):
            assert _block_partition(_distances(space, r)) == _reference_greedy(space, r, 0)[:2]
            for n in (0, 1, 2):
                res = af.greedy_witness(space, r, n)
                _, blocks, families = _reference_greedy(space, r, n)
                assert (None if res.witness is None else res.witness.families) == families
                if families is not None and sum(map(len, families)) < len(blocks):
                    merges[small] += 1
    assert min(views.values()) >= 10 and min(merges.values()) >= 5, (views, merges)


def _reference_measure(space, r, families):
    """Each family's r-disjointness from one search per member checked
    against every later member, and its widest member by searching."""
    g, out = space.graph, []
    for fam in families:
        near = [g.distances_to_set(a, limit=r - 1) for a in fam]
        disjoint = not any(v in near[i] for i in range(len(fam)) for b in fam[i + 1:] for v in b)
        out.append((disjoint, max(g.diameter(m) for m in fam)) if fam else None)
    return tuple(out)


def test_measure_matches_the_pairwise_reference():
    rng = random.Random(23)
    outcomes = set()
    for _ in range(200):
        g = _random_connected_graph(rng, rng.randint(4, 30))
        space = af.MetricView(g, rng.sample(g.vertices, rng.randint(2, len(g))))
        families = tuple(tuple(frozenset(rng.sample(space.points, rng.randint(1, 2)))
                               for _ in range(rng.randint(0, 4))) for _ in range(3))
        r = rng.randint(1, 4)
        measured = _measure(_distances(space, r), families)
        assert measured == _reference_measure(space, r, families), (space.points, r, families)
        outcomes |= {(len(space) <= EXACT_CAP, m[0]) for m in measured if m}
    assert len(outcomes) == 4, outcomes


def test_large_views_are_searched_without_the_pair_table(monkeypatch):
    """Above the cap no witness routine asks for the view's all-pairs
    table, so memory stays linear in the graph."""
    def refuse(self):
        raise AssertionError("pair table asked of a large view")
    monkeypatch.setattr(af.MetricView, "point_rows", refuse)
    space = view(ring_graph(3001))
    res = af.greedy_witness(space, 3, 1)
    assert res.ok and res.witness.violations() == []
    assert len(_block_partition(_distances(space, 3))[1]) == 1000
    assert band_witness(space, 3, 1).violations() == []
    with pytest.raises(AssertionError, match="pair table"):
        af.greedy_witness(view(ring_graph(EXACT_CAP)), 3, 1)


# -- Lebesgue numbers from the complement table ----------------------------------


def _reference_lebesgue(cover, formula):
    """One whole-graph search from each member's complement, read at every point."""
    g, pts = cover.space.graph, cover.space.points
    reach = [None if not cover.space.point_set - m
             else g.distances_to_set(cover.space.point_set - m) for m in cover.members]
    if formula == "paper":
        return min((max(dist.get(x, af.INF) for x in pts)
                    for dist in reach if dist is not None), default=af.INF)
    return min((max((af.INF if dist is None else dist.get(x, af.INF) for dist in reach),
                    default=0) for x in pts), default=af.INF)


def test_lebesgue_table_matches_whole_graph_complement_search():
    rng = random.Random(31)
    seen = {"infinite": 0, "whole_member": 0, "partial_view": 0, "overlap": 0,
            "finite": 0}
    for case in range(300):
        n_v = rng.randint(2, 14)
        names = [f"x{i:02d}" for i in range(n_v)]
        # sparse edges: the ambient graph is often disconnected
        edges = {tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, 2 * n_v))}
        g = af.FiniteGraph(names, edges)
        pts = sorted(rng.sample(names, rng.randint(1, n_v)))
        members = [frozenset(rng.sample(pts, rng.randint(1, len(pts))))
                   for _ in range(rng.randint(1, 4))]
        uncovered = frozenset(pts) - frozenset().union(*members)
        members.append(frozenset(pts) if rng.random() < 0.2
                       else uncovered or frozenset(pts[:1]))
        cover = af.Cover(af.MetricView(g, pts), members)
        paper, standard = (af.lebesgue_number(cover, f) for f in ("paper", "standard"))
        assert paper == _reference_lebesgue(cover, "paper"), case
        assert standard == _reference_lebesgue(cover, "standard"), case
        seen["infinite"] += af.INF in (paper, standard) and not any(
            m == cover.space.point_set for m in members)
        seen["whole_member"] += any(m == cover.space.point_set for m in members)
        seen["partial_view"] += len(pts) < n_v
        seen["overlap"] += af.multiplicity(cover) > 1
        seen["finite"] += paper < af.INF and standard < af.INF
    assert all(seen.values()), seen


def test_complement_table_is_built_once_per_cover():
    g = line_graph(6)
    c = af.Cover(view(g), [frozenset({"p0", "p1", "p2"}), frozenset({"p2", "p3", "p4", "p5"})])
    table = c.complement_reach
    assert table == ({"p0": 3, "p1": 2, "p2": 1}, {"p2": 1, "p3": 2, "p4": 3, "p5": 4})
    af.lebesgue_number(c, "paper")
    af.lebesgue_number(c, "standard")
    assert c.complement_reach is table
    assert af.Cover(view(g), [frozenset(g.vertices)]).complement_reach == (None,)


def test_shipped_witnesses_measure_each_member_once(monkeypatch):
    measured, diameters = [], []
    measure = covers._measure
    monkeypatch.setattr(covers, "_measure",
                        lambda dist, fams: measured.append(fams) or measure(dist, fams))
    for kind in (covers._TableDistances, covers._SearchDistances):
        diameter = kind.diameter
        monkeypatch.setattr(kind, "diameter", lambda self, vs, diameter=diameter:
                            diameters.append(vs) or diameter(self, vs))
    # at the cap the table answers, above it the searches do
    for size in (EXACT_CAP, 3 * EXACT_CAP):
        measured.clear()
        diameters.clear()
        space = view(line_graph(size))
        greedy = af.greedy_witness(space, 3, 1)
        band = band_witness(space, 3, 1)
        for w in (greedy.witness, band):
            assert w.violations() == []
            w.require_valid()
        assert measured == [greedy.witness.families, band.families]
        members = [m for w in (greedy.witness, band) for fam in w.families for m in fam]
        assert diameters == members
        # a witness built by hand is measured on its first check, then never again
        fresh = af.WitnessFamilies(space, band.r, band.families, band.bound)
        assert fresh.violations() == [] and fresh.violations() == []
        assert measured == [greedy.witness.families, band.families, band.families]
        assert len(diameters) == len(members) + sum(map(len, band.families))
