"""Metric core: graphs, views, maps, and distortion tables."""

import random
from fractions import Fraction

import pytest

import asdimforge as af
from asdimforge.errors import GraphFormatError, PreconditionError
from asdimforge.graphs import _pair_bounds

from conftest import complete_graph, line_graph, ring_graph


def brute_distance(g: af.FiniteGraph, x: str, y: str):
    """Independent oracle: minimum length over all simple paths."""
    best = af.INF
    stack = [(x, 0, frozenset({x}))]
    while stack:
        v, d, seen = stack.pop()
        if d >= best:
            continue
        if v == y:
            best = d
            continue
        for w in g.adjacency[v]:
            if w not in seen:
                stack.append((w, d + 1, seen | {w}))
    return best


def test_distances_match_simple_path_oracle():
    g = ring_graph(6)
    for x in g.vertices:
        for y in g.vertices:
            assert g.distances_from(x).get(y, af.INF) == brute_distance(g, x, y)


def test_construction_rejects_bad_edges():
    with pytest.raises(GraphFormatError):
        af.FiniteGraph(["a"], [("a", "a")])
    with pytest.raises(GraphFormatError):
        af.FiniteGraph(["a", "b"], [("a", "z")])
    with pytest.raises(GraphFormatError):
        af.FiniteGraph(["a", "a"], [])


def test_ball_shell_boundary_interior_on_a_path():
    g = line_graph(5)
    assert g.ball(["p2"], 1) == {"p1", "p2", "p3"}
    middle = {"p1", "p2", "p3"}
    assert g.boundary(middle) == {"p1", "p3"}
    assert g.interior(middle) == {"p2"}
    assert g.boundary(middle) | g.interior(middle) == middle
    assert g.boundary(middle) & g.interior(middle) == set()


def random_graph(rng: random.Random) -> af.FiniteGraph:
    """Sparse random graph on 2-30 vertices; it may be disconnected."""
    names = [f"v{i:02d}" for i in range(rng.randint(2, 30))]
    edges = {tuple(sorted(rng.sample(names, 2)))
             for _ in range(rng.randint(0, 2 * len(names)))}
    return af.FiniteGraph(names, edges)


def test_bounded_bfs_is_the_full_bfs_cut_at_the_limit():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng)
        seeds = rng.sample(g.vertices, rng.randint(1, 3))
        full = g.distances_to_set(seeds)
        for k in range(6):
            bounded = g.distances_to_set(seeds, limit=k)
            assert bounded == {v: d for v, d in full.items() if d <= k}
        assert g.ball(seeds, 2) == {v for v, d in full.items() if d <= 2}


def test_negative_limit_settles_nothing():
    g = line_graph(3, "a")
    assert g.distances_to_set(["a0"], limit=-1) == {}
    assert g.distances_to_set(["a0", "a2"], limit=0) == {"a0": 0, "a2": 0}
    with pytest.raises(GraphFormatError):  # the targets are still validated
        g.distances_to_set(["zz"], limit=-1)


def test_early_stopped_bfs_is_exact_on_the_listed_vertices():
    rng = random.Random(12)
    for _ in range(60):
        g = random_graph(rng)
        seeds = rng.sample(g.vertices, rng.randint(1, 3))
        until = rng.sample(g.vertices, rng.randint(1, min(5, len(g))))
        full = g.distances_to_set(seeds)
        partial = g.distances_to_set(seeds, until=until)
        assert {v: partial.get(v, af.INF) for v in until} == \
            {v: full.get(v, af.INF) for v in until}
        assert all(full[v] == d for v, d in partial.items())


def test_first_hit_search_finds_a_nearest_listed_vertex():
    rng = random.Random(13)
    for _ in range(80):
        g = random_graph(rng)
        seeds = rng.sample(g.vertices, rng.randint(1, 3))
        stop = set(rng.sample(g.vertices, rng.randint(1, min(5, len(g)))))
        full = g.distances_to_set(seeds)
        partial = g.distances_to_set(seeds, stop_at=stop)
        want = min((full.get(v, af.INF) for v in stop), default=af.INF)
        assert min((d for v, d in partial.items() if v in stop), default=af.INF) == want
        assert all(full[v] == d for v, d in partial.items())
        # the search ends at its first hit: nothing farther is settled
        assert max(partial.values()) <= want


def test_every_search_returns_exactly_what_it_settled():
    rng = random.Random(14)
    disconnected = 0
    for _ in range(80):
        g = random_graph(rng)
        disconnected += not g.is_connected()
        seeds = rng.sample(g.vertices, rng.randint(1, 3))
        # whole-graph searches first: nothing they found may leak into later ones
        first = g.distances_from(seeds[0])
        again = g.distances_from(seeds[0])
        assert again == first and again is not first
        for sources in (seeds[:1], seeds):
            full = {v: min(_bfs(g, s).get(v, af.INF) for s in sources) for v in g.vertices}
            for k in range(4):
                assert g.distances_to_set(sources, limit=k) == \
                    {v: d for v, d in full.items() if d <= k}
            until = rng.sample(g.vertices, rng.randint(1, min(5, len(g))))
            stop = rng.sample(g.vertices, rng.randint(1, min(5, len(g))))
            reached = g.distances_to_set(sources, until=until)
            for partial in (reached, g.distances_to_set(sources, stop_at=stop)):
                assert all(full[v] == d for v, d in partial.items())
            assert {v for v in until if v in reached} == {v for v in until if full[v] < af.INF}
    assert disconnected


def test_diameter_and_components():
    g = af.FiniteGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert g.diameter(g.vertices) == af.INF
    assert g.diameter(["a", "c"]) == af.INF
    assert g.diameter(["c", "d"]) == 1
    assert g.diameter(["b"]) == 0
    assert g.diameter([]) == 0
    with pytest.raises(GraphFormatError):
        g.diameter(["zz"])
    assert not g.is_connected()
    # one search from the first vertex, in whatever order the vertices come
    assert af.FiniteGraph([], []).is_connected()
    assert af.FiniteGraph(["a"], []).is_connected()
    assert af.FiniteGraph(["c", "a", "b"], [("a", "b"), ("b", "c")]).is_connected()
    path = line_graph(8)
    assert path.diameter(path.vertices) == 7
    # a subset is measured through the whole graph, not its induced part
    assert path.diameter(["p1", "p3", "p6"]) == 5
    assert path.diameter(["p4"]) == 0


def test_load_graph_forms_and_errors():
    g = af.load_graph({"vertices": ["a", "b"], "edges": [["a", "b"]]})
    assert g.same_as(af.FiniteGraph(["a", "b"], [("a", "b")]))
    with pytest.raises(GraphFormatError):
        af.load_graph({"vertices": ["a", "b"], "edges": []})  # disconnected
    with pytest.raises(GraphFormatError):
        af.load_graph({"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]})
    with pytest.raises(GraphFormatError):
        af.load_graph({"vertices": ["a"]})
    # it reads a parsed document only: text, JSON or an edge list, is no
    # object (the CLI's exit-2 tests read such files through read_json)
    for text in ('{"vertices": ["a", "b"], "edges": [["a", "b"]]}',
                 "not { json and not edges", "# comment\na b\nb c\n"):
        with pytest.raises(GraphFormatError, match="must be a JSON object"):
            af.load_graph(text)
    # a string or an object where a list belongs is rejected, not iterated
    for doc in ({"vertices": "ab", "edges": [["a", "b"]]},
                {"vertices": ["a", "b"], "edges": "ab"},
                {"vertices": {"a": 1, "b": 2}, "edges": [["a", "b"]]},
                {"vertices": ["a", "b"], "edges": {"a": "b"}}):
        with pytest.raises(GraphFormatError, match="must be a list"):
            af.load_graph(doc)
    # ids are strings: a number is rejected, not read as its decimal string
    for doc in ({"vertices": ["a", 1], "edges": [["a", "1"]]},
                {"vertices": ["a", "b"], "edges": [["a", 0]]},
                {"vertices": [0, 1], "edges": [[0, 1]]},
                {"vertices": ["a", None], "edges": [["a", None]]}):
        with pytest.raises(GraphFormatError, match="must be"):
            af.load_graph(doc)


def test_metric_view_restriction():
    g = line_graph(6)
    v = af.MetricView(g, ["p0", "p2", "p5"])
    sub = v.subview(["p0", "p2"])
    assert sub.points == ("p0", "p2")


def test_nearest_point_map_prefers_least_id_on_ties():
    g = ring_graph(4)  # c1 and c3 are both adjacent to c0 and c2
    vm = af.nearest_point_map(af.MetricView(g, ["c1"]), af.MetricView(g, ["c0", "c2"]))
    assert vm.mapping["c1"] == "c0"
    vm2 = af.nearest_point_map(af.MetricView(g), af.MetricView(g, ["c0", "c2"]))
    assert vm2.mapping["c0"] == "c0"  # points already in the target map to themselves
    # against a search from every point, on torn graphs too: least-id
    # ties, points in the target, points that reach no target point
    rng = random.Random(15)
    seen = dict.fromkeys(("tie", "in_target", "unreachable", "torn"), 0)
    for case in range(200):
        g = _random_graph(rng, rng.randint(2, 14), rng.randint(0, 8), "n")
        if case % 2:
            g = g.induced(rng.sample(g.vertices, rng.randint(1, len(g))))
            seen["torn"] += not g.is_connected()
        src = af.MetricView(g, rng.sample(g.vertices, rng.randint(1, len(g))))
        dst = af.MetricView(g, rng.sample(g.vertices, rng.randint(1, len(g))))
        vm = af.nearest_point_map(src, dst)
        for v in src.points:
            dv = _bfs(g, v)
            ranked = sorted((dv.get(w, af.INF), w) for w in dst.points)
            assert vm.mapping[v] == ranked[0][1], (case, v)
            seen["in_target"] += v in dst.point_set
            seen["unreachable"] += ranked[0][0] == af.INF
            seen["tie"] += len(ranked) > 1 and ranked[0][0] == ranked[1][0] != af.INF
    assert all(seen.values()), seen


def test_vertex_map_validation():
    g = line_graph(3)
    src = af.MetricView(g, ["p0", "p1"])
    dst = af.MetricView(g, ["p2"])
    with pytest.raises(PreconditionError):
        af.VertexMap(src, dst, {"p0": "p2"})  # not total
    with pytest.raises(PreconditionError):
        af.VertexMap(src, dst, {"p0": "p2", "p1": "p0"})  # image off target
    vm = af.VertexMap(src, dst, {"p0": "p2", "p1": "p2"})
    assert vm.image(["p0", "p1"]) == {"p2"}


def test_quasi_isometry_checks():
    g = line_graph(5)
    ident = af.VertexMap(af.MetricView(g), af.MetricView(g),
                         {v: v for v in g.vertices})
    assert af.check_quasi_isometry(ident, 1, 0)
    assert af.check_quasi_isometry(ident, 1, -0) is True  # c = -0 is c = 0
    with pytest.raises(PreconditionError):
        af.check_quasi_isometry(ident, Fraction(1, 2), 0)
    with pytest.raises(PreconditionError):
        af.check_quasi_isometry(ident, 1, -1)


def test_fit_identity_is_tight():
    g = line_graph(5)
    fit = af.fit_qi_constants(af.VertexMap(af.MetricView(g), af.MetricView(g),
                                           {v: v for v in g.vertices}))
    assert (fit.gamma, fit.c) == (1, 0)
    gamma, c = fit.gamma, fit.c
    assert (gamma, c) == (1, 0)


def test_fit_doubling_map():
    src = line_graph(5, "s")
    dst = line_graph(9, "t")
    vm = af.VertexMap(af.MetricView(src), af.MetricView(dst),
                      {f"s{i}": f"t{2 * i}" for i in range(5)})
    fit = af.fit_qi_constants(vm)
    assert (fit.gamma, fit.c) == (2, 0)
    assert af.check_quasi_isometry(vm, fit.gamma, fit.c)
    # the gamma=1 column needs additive slack equal to the worst stretch
    table = dict(fit.table)
    assert table[Fraction(1)] == 4


def test_fit_best_within_cap():
    src = line_graph(5, "s")
    dst = line_graph(9, "t")
    vm = af.VertexMap(af.MetricView(src), af.MetricView(dst),
                      {f"s{i}": f"t{2 * i}" for i in range(5)})
    fit = af.fit_qi_constants(vm)
    assert fit.best_within(2) == (2, 0)
    assert fit.best_within(1) == (1, 4)


def test_fit_infeasible_when_map_tears_components():
    g = af.FiniteGraph(["a", "b", "x", "y"], [("a", "b"), ("x", "y")])
    dst = line_graph(2, "t")
    vm = af.VertexMap(af.MetricView(g), af.MetricView(dst),
                      {"a": "t0", "b": "t0", "x": "t1", "y": "t1"})
    fit = af.fit_qi_constants(vm)
    assert not fit.feasible
    assert fit.best_within(4) is None
    assert (fit.gamma, fit.c) == (None, None)


# -- histogram fits against a per-pair reference --------------------------------


def _bfs(g: af.FiniteGraph, source: str) -> dict:
    dist = {source: 0}
    queue = [source]
    for v in queue:
        for w in g.adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _ref_pairs(vm):
    """(d_source, d_target) for every pair, y after x in point order."""
    pts = vm.source.points
    for i, x in enumerate(pts):
        sx = _bfs(vm.source.graph, x)
        tx = _bfs(vm.target.graph, vm.mapping[x])
        for y in pts[i + 1:]:
            yield sx.get(y, af.INF), tx.get(vm.mapping[y], af.INF)


def _ref_diameter(view) -> int | float:
    rows = (_bfs(view.graph, x) for x in view.points)
    return max((row.get(y, af.INF) for row in rows for y in view.points), default=0)


def _ref_fit(vm):
    grid = af.GAMMA_GRID
    worst = [Fraction(0)] * len(grid)
    for ds, dt in _ref_pairs(vm):
        if ds == af.INF and dt == af.INF:
            continue
        for i, g in enumerate(grid):
            if worst[i] is None:
                continue
            if ds == af.INF or dt == af.INF:
                worst[i] = None
            else:
                worst[i] = max(worst[i], Fraction(ds) / g - dt, dt - g * Fraction(ds))
    cap = max(_ref_diameter(vm.source), _ref_diameter(vm.target))
    table = tuple(zip(grid, worst))
    best = min(((c, g) for g, c in table if c is not None and c <= cap), default=None)
    return table, (None, None) if best is None else (best[1], best[0])


def _ref_qi(vm, gamma, c) -> bool:
    for ds, dt in _ref_pairs(vm):
        if ds == af.INF or dt == af.INF:
            if ds != dt:
                return False
        elif dt > gamma * ds + c or Fraction(ds) / gamma - c > dt:
            return False
    return True


def _random_graph(rng, n: int, extra: int, prefix: str) -> af.FiniteGraph:
    names = [f"{prefix}{i}" for i in range(n)]
    edges = {(names[rng.randrange(i)], names[i]) for i in range(1, n)}
    for _ in range(extra):
        x, y = rng.sample(names, 2)
        if (y, x) not in edges:
            edges.add((x, y))
    return af.FiniteGraph(names, edges)


def _random_map(rng, kind: str) -> af.VertexMap:
    g = _random_graph(rng, rng.randint(3, 11), rng.randint(0, 6), "s")
    if kind == "nearest":
        k = rng.randint(1, len(g) - 1)
        src = af.MetricView(g, rng.sample(g.vertices, rng.randint(2, len(g))))
        return af.nearest_point_map(src, af.MetricView(g, rng.sample(g.vertices, k)))
    if kind == "onto":  # every target point is an image, torn or not
        t = _random_graph(rng, rng.randint(2, len(g)), rng.randint(0, 4), "t")
        if rng.random() < 0.5:
            t = t.induced(rng.sample(t.vertices, rng.randint(2, len(t))))
        src, dst = af.MetricView(g), af.MetricView(t)
        order = rng.sample(src.points, len(src))
        images = list(dst.points) + [rng.choice(dst.points) for _ in order[len(dst):]]
        return af.VertexMap(src, dst, dict(zip(order, images)))
    t = _random_graph(rng, rng.randint(2, 9), rng.randint(0, 4), "t")
    if kind in ("split", "part"):  # torn components on either side give infinite pairs
        g = g.induced(rng.sample(g.vertices, rng.randint(3, len(g))))
        if rng.random() < 0.5:
            t = t.induced(rng.sample(t.vertices, rng.randint(2, len(t))))
    src, dst = af.MetricView(g), af.MetricView(t)
    if kind == "part":  # a view short of its graph
        src = src.subview(rng.sample(src.points, rng.randint(2, len(src) - 1)))
    return af.VertexMap(src, dst, {v: rng.choice(dst.points) for v in src.points})


def _ref_bounds(vm) -> dict:
    """Per target distance, the least and largest source distance (INF included)."""
    table = {}
    for ds, dt in _ref_pairs(vm):
        lo, hi = table.get(dt, (ds, ds))
        table[dt] = (min(lo, ds), max(hi, ds))
    return table


def test_histogram_fits_match_per_pair_reference():
    rng = random.Random(20240603)
    seen = {"whole_view_torn": 0, "part_view_torn": 0, "whole_view": 0, "part_view": 0,
            "non_surjective": 0, "surjective": 0, "surjective_torn": 0}
    for case in range(400):
        vm = _random_map(rng, ("connected", "split", "nearest", "onto", "part")[case % 5])
        pairs = list(_ref_pairs(vm))
        # views covering their source graph and views of a few of its points
        view = "whole_view" if len(vm.source) == len(vm.source.graph) else "part_view"
        seen[view] += 1
        seen[view + "_torn"] += any(af.INF in p for p in pairs)
        assert _pair_bounds(vm) == _ref_bounds(vm), case
        onto = len(set(vm.mapping.values())) == len(vm.target)
        seen["non_surjective"] += not onto
        seen["surjective"] += onto
        # the reference's diameter cap then reads an INF target diameter
        seen["surjective_torn"] += onto and _ref_diameter(vm.target) == af.INF
        table, (gamma, c) = _ref_fit(vm)
        fit = af.fit_qi_constants(vm)
        assert (fit.table, fit.gamma, fit.c) == (table, gamma, c), case
        for g, k in ((1, 0), (1, 2), (Fraction(3, 2), 1), (2, 0), (3, 3)):
            assert af.check_quasi_isometry(vm, g, k) == _ref_qi(vm, g, k), (case, g, k)
    assert all(seen.values()), seen


def test_relabel_sorted_is_isomorphic_rename():
    g = ring_graph(5)
    renamed, names = af.relabel_sorted(g)
    assert sorted(renamed.vertices) == [f"v{i:03d}" for i in range(5)]
    assert len(renamed.edges) == len(g.edges)
    for x, y in g.edges:
        assert names[y] in renamed.adjacency[names[x]]


def test_json_and_dot_round_trips():
    g = line_graph(3)
    doc = g.to_json_dict()
    assert af.load_graph(doc).same_as(g)


def test_degree_sequence_and_annotations():
    # an ``annotations`` key is not part of a graph document: it is ignored
    # like any other unknown key, whatever it holds
    plain = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}
    for notes in ({"b": {"role": "middle"}}, {"a": 5}, ["a"], None):
        g = af.load_graph(dict(plain, annotations=notes))
        assert g.same_as(af.load_graph(plain))
        assert [len(g.adjacency[v]) for v in g.vertices] == [1, 2, 1]
        assert g.to_json_dict() == plain
