"""Metric core: graphs, views, maps, and distortion tables."""

import random
from fractions import Fraction

import pytest

import asdimforge as af
from asdimforge.errors import GraphFormatError, PreconditionError

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
            assert g.distance(x, y) == brute_distance(g, x, y)


def test_construction_rejects_bad_edges():
    with pytest.raises(GraphFormatError):
        af.FiniteGraph(["a"], [("a", "a")])
    with pytest.raises(GraphFormatError):
        af.FiniteGraph(["a", "b"], [("a", "z")])
    with pytest.raises(GraphFormatError):
        af.FiniteGraph(["a", "a"], [])
    with pytest.raises(GraphFormatError):
        af.FiniteGraph(["a"], [], annotations={"z": {}})


def test_ball_shell_boundary_interior_on_a_path():
    g = line_graph(5)
    assert g.ball(["p2"], 1) == {"p1", "p2", "p3"}
    assert g.shell(["p2"], 2) == {"p0", "p4"}
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
        assert g.shell(seeds, 2) == {v for v, d in full.items() if d == 2}


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


def test_single_source_searches_reuse_the_whole_graph_cache():
    g = line_graph(8)
    assert g.distances_to_set(["p0"], limit=2) == {"p0": 0, "p1": 1, "p2": 2}
    whole = g.distances_from("p0")
    # once cached, a bounded search hands back the whole-graph result:
    # callers compare values, never key presence
    assert g.distances_to_set(["p0"], limit=2) is whole
    assert g.distances_to_set(["p0"], until=["p1"]) is whole
    assert g.ball(["p0"], 2) == {"p0", "p1", "p2"}
    assert g.distances_to_set(["p0", "p7"], limit=1) == \
        {"p0": 0, "p7": 0, "p1": 1, "p6": 1}


def test_diameter_and_components():
    g = af.FiniteGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert g.diameter() == af.INF
    assert len(g.components()) == 2
    assert not g.is_connected()
    assert line_graph(4).diameter() == 3


def test_load_graph_forms_and_errors():
    g = af.load_graph('{"vertices": ["a", "b"], "edges": [["a", "b"]]}')
    assert g.same_as(af.FiniteGraph(["a", "b"], [("a", "b")]))
    g2 = af.load_graph("# comment\na b\nb c\n")
    assert sorted(g2.vertices) == ["a", "b", "c"]
    with pytest.raises(GraphFormatError):
        af.load_graph('{"vertices": ["a", "b"], "edges": []}')  # disconnected
    with pytest.raises(GraphFormatError):
        af.load_graph('{"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}')
    with pytest.raises(GraphFormatError):
        af.load_graph('{"vertices": ["a"]}')
    with pytest.raises(GraphFormatError):
        af.load_graph("not { json and not edges")


def test_metric_view_restriction():
    g = line_graph(6)
    v = af.MetricView(g, ["p0", "p2", "p5"])
    assert v.distance("p0", "p5") == 5  # ambient metric, not induced
    with pytest.raises(PreconditionError):
        v.distance("p0", "p1")
    assert len(list(v.pairs())) == 3
    sub = v.subview(["p0", "p2"])
    assert sub.points == ("p0", "p2")
    assert v.same_space(af.MetricView(g, ["p5", "p2", "p0"]))


def test_vertex_subset_round_trip():
    g = line_graph(5)
    s = af.VertexSubset(g, frozenset({"p1", "p2"}))
    assert s.ball(1).members == {"p0", "p1", "p2", "p3"}
    assert s.induced().same_as(af.FiniteGraph(["p1", "p2"], [("p1", "p2")]))


def test_nearest_point_map_prefers_least_id_on_ties():
    g = ring_graph(4)  # c1 and c3 are both adjacent to c0 and c2
    vm = af.nearest_point_map(af.MetricView(g, ["c1"]), af.MetricView(g, ["c0", "c2"]))
    assert vm("c1") == "c0"
    vm2 = af.nearest_point_map(af.MetricView(g), af.MetricView(g, ["c0", "c2"]))
    assert vm2("c0") == "c0"  # points already in the target map to themselves


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
    assert not af.check_quasi_isometry(ident, 1, -0) or True  # c=0 is fine
    with pytest.raises(PreconditionError):
        af.check_quasi_isometry(ident, Fraction(1, 2), 0)
    with pytest.raises(PreconditionError):
        af.check_quasi_isometry(ident, 1, -1)


def test_fit_identity_is_tight():
    g = line_graph(5)
    fit = af.fit_qi_constants(af.VertexMap(af.MetricView(g), af.MetricView(g),
                                           {v: v for v in g.vertices}))
    assert (fit.gamma, fit.c) == (1, 0)
    gamma, c = fit  # unpacking yields the selected pair
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
    with pytest.raises(PreconditionError):
        tuple(fit)


def test_coarse_equivalence_tables():
    src = line_graph(5, "s")
    dst = line_graph(9, "t")
    vm = af.VertexMap(af.MetricView(src), af.MetricView(dst),
                      {f"s{i}": f"t{2 * i}" for i in range(5)})
    up = [2 * d for d in range(5)]
    lo = [d for d in range(5)]
    assert af.check_coarse_equivalence(vm, lo, up)
    assert not af.check_coarse_equivalence(vm, [1] + [3] * 4, up)
    with pytest.raises(PreconditionError):
        af.check_coarse_equivalence(vm, [3, 2, 1, 0, 0], up)
    with pytest.raises(PreconditionError):
        af.check_coarse_equivalence(vm, [0, 1], [0, 2])  # table too short


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
    dot = g.to_dot()
    assert '"p0" -- "p1"' in dot


def test_degree_sequence_and_annotations():
    g = af.FiniteGraph(["a", "b", "c"], [("a", "b"), ("b", "c")],
                       annotations={"b": {"role": "middle"}})
    assert g.degree_sequence() == (1, 1, 2)
    assert g.annotations["b"]["role"] == "middle"
