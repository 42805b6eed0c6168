"""Block construction, symmetry transport, and the certificate pipeline."""

import copy
import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

import asdimforge as af
from asdimforge import theorem
from asdimforge.amalgam import ROOT, AmalgamationSpec, BuildResult, SumGraph, copy_vertex
from asdimforge.errors import PreconditionError
from asdimforge.fixtures import (chain_spec_doc, next_stage_doc, triangle_spec_doc,
                                 type2_spec_doc)
from asdimforge.theorem import (ProofParameters, SymmetryWalk, _witness_for,
                                assemble_partition, base_blocks, block_shape,
                                build_symmetry_map, lemma_strip, projection_fit,
                                run_certificate, safe_nodes, strata, stretched_edges,
                                theorem_bound, translation_sites, tree_graph,
                                verify_separation)

from conftest import (CORPUS, build_doc, copies_by_id, dumps, label_paths, path_ids,
                      projection_map, random_spec_doc, reference_block_shape,
                      reference_partition, reference_separation, reference_symmetry_map,
                      remap_nodes, run_corpus, split_vertex_id, torus_spec_doc,
                      without_a_bridge_at)


# -- parameters ------------------------------------------------------------------


def test_parameter_validation():
    good = ProofParameters(R=2, r=10, depth=40)
    assert good.to_json_dict()["margin"] == 10
    with pytest.raises(PreconditionError):
        ProofParameters(R=-1, r=10, depth=40)
    with pytest.raises(PreconditionError):
        ProofParameters(R=2, r=9, depth=40)  # odd block radius
    with pytest.raises(PreconditionError):
        ProofParameters(R=2, r=0, depth=40)
    with pytest.raises(PreconditionError):
        ProofParameters(R=3, r=10, depth=40)  # needs r > 4R
    with pytest.raises(PreconditionError):
        ProofParameters(R=2, r=10, depth=-1)


def test_certificate_grade_needs_depth():
    shallow = ProofParameters(R=2, r=10, depth=19)
    with pytest.raises(PreconditionError):
        shallow.require_certificate_grade()
    ProofParameters(R=2, r=10, depth=20).require_certificate_grade()


def test_translation_sites(chain40):
    params = ProofParameters(R=2, r=10, depth=40)
    sites = translation_sites(chain40.tree, params)
    assert sites[0] == ROOT
    assert len(sites) == 7  # root plus two per usable multiple of r
    depths = sorted({chain40.tree.node_depth(t) for t in sites})
    assert depths == [0, 10, 20, 30]
    assert len(safe_nodes(chain40.tree, params)) == 61  # depth <= 30


def test_theorem_bound():
    assert theorem_bound(0, 0, 0) == 1
    assert theorem_bound(2, 1, 1) == 2
    assert theorem_bound(0, 3, 3) == 4
    with pytest.raises(PreconditionError):
        theorem_bound(-1, 0, 0)


# -- strata and strips --------------------------------------------------------------


def test_strata_sizes(chain40):
    assert len(strata(chain40.sum, ROOT, 0).points) == 2
    assert len(strata(chain40.sum, ROOT, 1).points) == 4
    with pytest.raises(PreconditionError):
        strata(chain40.sum, ROOT, -1)
    with pytest.raises(PreconditionError):
        strata(chain40.sum, ROOT, 41)  # beyond the truncation


def test_lemma_strip_on_chain(chain40):
    strip = lemma_strip(chain40.sum, ROOT, 1, 2)
    assert strip.ok
    assert strip.strip_size == 4
    # Distinct branches separate through the root copy, which cutting removes.
    assert strip.min_separation == af.INF
    with pytest.raises(PreconditionError):
        lemma_strip(chain40.sum, ROOT, 0, 2)
    with pytest.raises(PreconditionError):
        lemma_strip(chain40.sum, ROOT, 1, 0)


def test_lemma_strip_on_triangle(triangle8):
    sizes = {}
    for m in (1, 2, 3, 4):
        strip = lemma_strip(triangle8.sum, ROOT, m, 4)
        assert strip.ok
        assert strip.fit is not None and strip.fit.feasible
        sizes[m] = strip.strip_size
    assert sizes == {1: 6, 2: 9, 3: 12, 4: 18}


# -- base blocks --------------------------------------------------------------------


def test_base_blocks_chain(chain20):
    params = ProofParameters(R=2, r=10, depth=20)
    base = base_blocks(SymmetryWalk(chain20, params.r), params)
    assert base.core == frozenset({"t1:a"})
    assert len(base.shell) == 2
    assert len(base.w0.vertices) == 5
    assert base.w0.vertices == chain20.sum.graph.ball(base.core, 2)
    # The chain's shell vertices are far apart, so no edges get dropped.
    assert base.w_r.edges == base.u_r.edges
    assert base.core_fit.feasible and base.core_fit.c <= 2
    assert base.shell_fit.feasible and base.shell_fit.c <= 2
    with pytest.raises(PreconditionError, match="block radius"):
        base_blocks(SymmetryWalk(chain20, 8), params)


def test_base_blocks_zero_radius(chain20):
    params = ProofParameters(R=0, r=2, depth=20)
    base = base_blocks(SymmetryWalk(chain20, params.r), params)
    assert base.w0.vertices == base.core
    assert base.shell == base.core


def test_base_blocks_drop_shell_edges(triangle12):
    params = ProofParameters(R=1, r=6, depth=12)
    base = base_blocks(SymmetryWalk(triangle12, params.r), params)
    # The R-sphere around a triangle corner contains the opposite edge.
    assert len(base.w_r.edges) < len(base.u_r.edges)


# -- symmetry transport ---------------------------------------------------------------


def test_symmetry_map_identity_at_root(chain40):
    sm = build_symmetry_map(SymmetryWalk(chain40, 10), ROOT)
    assert sm.node_map == {u: u for u in chain40.tree.nodes_within(ROOT, 10)}
    assert sorted(sm.vertex_map) == sorted(
        chain40.sum.vertices_over(chain40.tree.nodes_within(ROOT, 10)))
    assert all(k == v for k, v in sm.vertex_map.items())
    assert sm.edge_ok and sm.injective


def test_symmetry_map_recenters(chain40):
    params = ProofParameters(R=2, r=10, depth=40)
    site = next(t for t in translation_sites(chain40.tree, params)
                if chain40.tree.node_depth(t) == 10)
    assert site == path_ids(chain40.tree)["t1/0/1/1/1/1/1/1/1/1/1"]
    sm = build_symmetry_map(SymmetryWalk(chain40, 10), site)
    assert sm.node_map[ROOT] == site
    assert sm.edge_ok and sm.injective
    carried = sm.carry(frozenset({"t1:a", "t1:b"}))
    assert {sm.vertex_map["t1:a"], sm.vertex_map["t1:b"]} <= carried
    assert {chain40.sum.node_of(v) for v in carried} == {site}
    # Tree adjacency is preserved nodewise.
    for w, u in chain40.tree.parent.items():
        if u in sm.node_map and w in sm.node_map:
            assert len(chain40.tree.path(sm.node_map[u], sm.node_map[w])) == 2


def test_symmetry_map_needs_witnesses():
    doc = chain_spec_doc(8)
    doc["actions"] = {"mode": "trivial"}
    br = build_doc(doc)
    site = path_ids(br.tree)["t1/0/1"]
    with pytest.raises(PreconditionError) as err:
        build_symmetry_map(SymmetryWalk(br, 2), site)
    assert "consistency witnesses missing" in str(err.value)


# -- partition audit ---------------------------------------------------------------


def test_partition_covers_and_stays_disjoint(chain20):
    params = ProofParameters(R=2, r=10, depth=20)
    walk = SymmetryWalk(chain20, params.r)
    base = base_blocks(walk, params)
    maps = [build_symmetry_map(walk, t)
            for t in translation_sites(chain20.tree, params)]
    part = assemble_partition(chain20, params, base, maps)
    assert part.covers_safe
    assert part.interiors_disjoint
    assert part.boundary_matches_shells
    assert part.shell_union
    names = [b.name for b in part.members]
    assert names[0] == "W0" and "W@t1" in names


def test_partition_detects_coverage_gap():
    br = build_doc(chain_spec_doc(22))
    params = ProofParameters(R=2, r=10, depth=22)
    walk = SymmetryWalk(br, params.r)
    base = base_blocks(walk, params)
    maps = [build_symmetry_map(walk, t) for t in translation_sites(br.tree, params)]
    assert assemble_partition(br, params, base, maps).covers_safe
    # without the last site's block the safe core under that site is bare
    part = assemble_partition(br, params, base, maps[:-1])
    assert not part.covers_safe
    assert part.missing
    assert part.interiors_disjoint


def test_partition_overlap_faults_match_pairwise_reference(chain40):
    params = ProofParameters(R=2, r=10, depth=40)
    walk = SymmetryWalk(chain40, params.r)
    base = base_blocks(walk, params)
    maps = [build_symmetry_map(walk, t)
            for t in translation_sites(chain40.tree, params)]
    # three blocks at each site, in two orders: every site's vertices off
    # the shells lie in three members
    part = assemble_partition(chain40, params, base, maps + maps[::-1] + maps)
    members, off = part.members, part.shell_union
    pairwise = [(members[i].name, members[j].name)
                for i in range(len(members)) for j in range(i + 1, len(members))
                if (members[i].vertices & members[j].vertices) - off]
    assert len(pairwise) == 3 * len(maps)
    assert list(part.overlap_faults) == pairwise


def test_separation_on_chain(chain40):
    params = ProofParameters(R=2, r=10, depth=40)
    walk = SymmetryWalk(chain40, params.r)
    base = base_blocks(walk, params)
    maps = [build_symmetry_map(walk, t)
            for t in translation_sites(chain40.tree, params)]
    part = assemble_partition(chain40, params, base, maps)
    sep = verify_separation(chain40.sum.graph, part.shells)
    assert sep.min_distance == 19
    assert sep.all_beyond(2)
    assert sep.all_at_least(6)


def _partition(br, params):
    walk = SymmetryWalk(br, params.r)
    base = base_blocks(walk, params)
    maps = [build_symmetry_map(walk, t) for t in translation_sites(br.tree, params)]
    return assemble_partition(br, params, base, maps)


def _assert_matches_pair_table(H, shells):
    """verify_separation against the table of every shell pair's set distance."""
    sep = verify_separation(H, shells)
    live = sorted(s for s in shells if shells[s])
    table = {(a, b): H.set_distance(shells[a], shells[b]) for a in live for b in live if a != b}
    assert [a for a, _, _ in sep.pairs] == live
    for a, nearest, d in sep.pairs:
        row = min((table[a, b] for b in live if b != a), default=af.INF)
        assert d == row, a
        if row == af.INF:
            assert nearest is None
        else:
            assert table[a, nearest] == d, a
    lowest = min(table.values(), default=af.INF)
    assert sep.min_distance == lowest
    if lowest == af.INF:
        assert sep.closest_sites is None and sep.closest_vertices is None
    else:
        a, b = sep.closest_sites
        assert a < b and table[a, b] == lowest
        x, y = sep.closest_vertices
        assert x in shells[a] and y in shells[b] and H.distances_from(x).get(y, af.INF) == lowest
    assert sep.empty_sites == tuple(sorted(s for s in shells if not shells[s]))
    return sep, table


@pytest.mark.parametrize("fixture, R, r", [("chain40", 2, 10), ("chain160", 2, 10),
                                           ("triangle8", 0, 4), ("type2_8", 0, 4)])
def test_separation_equals_pairwise_set_distance(request, fixture, R, r):
    br = request.getfixturevalue(fixture)
    params = ProofParameters(R=R, r=r, depth=br.tree.depth)
    H = br.sum.graph
    sep, table = _assert_matches_pair_table(H, _partition(br, params).shells)
    assert len(table) >= 6  # at least three live shells
    assert sep.work["searches"] == 1
    assert sep.work["vertices_settled"] == len(H)
    # the verdicts the old pair table gave
    lowest = min(table.values())
    cert = run_certificate(br, params)
    stage = {s.name: s for s in cert.stages}
    data = stage["separation"].data
    assert stage["separation"].verdict == (lowest > R) == data["beyond_shell_radius"]
    assert data["at_least_triple_radius"] == (lowest >= 3 * R)
    assert data["min_distance"] == lowest
    assert cert.passed()


def test_separation_edge_cases():
    path = af.FiniteGraph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    # a shared vertex is distance 0, which no edge between two cells shows
    sep, _ = _assert_matches_pair_table(path, {"s1": frozenset("ab"), "s2": frozenset("bc"),
                                               "s3": frozenset("e")})
    assert sep.pairs == (("s1", "s2", 0), ("s2", "s1", 0), ("s3", "s2", 2))
    assert sep.closest_vertices == ("b", "b")
    # a shell alone in its component
    split = af.FiniteGraph("abcxy", [("a", "b"), ("b", "c"), ("x", "y")])
    sep, _ = _assert_matches_pair_table(split, {"s1": frozenset("a"), "s2": frozenset("c"),
                                                "s3": frozenset("y")})
    assert sep.pairs == (("s1", "s2", 2), ("s2", "s1", 2), ("s3", None, af.INF))
    assert sep.closest_vertices == ("a", "c")
    # one live shell, then none at all
    sep, _ = _assert_matches_pair_table(path, {"s1": frozenset("c"), "s2": frozenset()})
    assert sep.pairs == (("s1", None, af.INF),) and sep.empty_sites == ("s2",)
    assert sep.work == {"searches": 0, "vertices_settled": 0, "boundary_edges": 0}
    sep, _ = _assert_matches_pair_table(path, {"s1": frozenset(), "s2": frozenset()})
    assert sep.pairs == () and sep.min_distance == af.INF


def test_separation_matches_pair_table_on_random_graphs():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 12)
        names = [f"v{i}" for i in range(n)]
        edges = {tuple(sorted(rng.sample(names, 2))) for _ in range(rng.randint(0, 2 * n))}
        H = af.FiniteGraph(names, edges)
        shells = {f"s{k}": frozenset(rng.sample(names, rng.randint(0, min(3, n))))
                  for k in range(rng.randint(0, 5))}
        _assert_matches_pair_table(H, shells)


SEPARATION_FIELDS = ("pairs", "min_distance", "closest_sites", "closest_vertices",
                     "empty_sites", "work")


def _assert_separation_matches_the_edge_scan(H, shells):
    got, want = verify_separation(H, shells), reference_separation(H, shells)
    for name in SEPARATION_FIELDS:
        assert getattr(got, name) == getattr(want, name), (name, H.vertices, shells)


def test_separation_matches_the_edge_scan_on_random_graphs():
    """Vertex orders that are not sorted, disconnected graphs and shells
    sharing vertices: the settled rows, scanned in sorted order, meet the
    boundary edges as ``H.edges`` lists them, so even the witnesses of
    tied distances agree; so does no scan in vertex or search order."""
    rng = random.Random(20261020)
    for _ in range(400):
        n = rng.randint(2, 30)
        names = rng.sample([f"v{i}" for i in range(n)], n)
        edges = {tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, 3 * n))}
        H = af.FiniteGraph(names, edges)
        shells = {f"s{k}": frozenset(rng.sample(names, rng.randint(0, min(6, n))))
                  for k in range(rng.randint(0, 8))}
        _assert_separation_matches_the_edge_scan(H, shells)


@pytest.mark.parametrize("fixture, R, r", [("chain40", 2, 10), ("triangle8", 0, 4)])
def test_separation_matches_the_edge_scan_on_partitions(request, fixture, R, r):
    br = request.getfixturevalue(fixture)
    shells = _partition(br, ProofParameters(R=R, r=r, depth=br.tree.depth)).shells
    _assert_separation_matches_the_edge_scan(br.sum.graph, shells)


# -- the transported cover's complement table from the separation search --------


def _assert_table_is_the_searched_one(H, shells, members=None):
    """``nearest_other`` holds d(x, P minus x) at each point x of the
    shells' union P, as one stop-at search from x finds it, or nothing
    when fewer than two shells are live; a cover of P (its single points
    by default) that takes it has the table its own searches give."""
    sep = verify_separation(H, shells)
    P = frozenset().union(*shells.values())
    view = af.MetricView(H, sorted(P))
    if sum(map(bool, shells.values())) < 2:
        assert sep.nearest_other == {}
    else:
        assert sep.nearest_other.keys() == P
        for x in P:
            row = af.Family(view, [[x]]).complement_reach[0]
            assert sep.nearest_other[x] == (af.INF if row is None else row[x]), x
    members = [[x] for x in sorted(P)] if members is None else members
    searched = af.Cover(view, members).complement_reach
    cover = af.Cover(view, members)
    cover.take_nearest(sep.nearest_other)
    assert cover.complement_reach == searched
    return sep


def test_complement_table_on_hand_made_shells():
    path = af.FiniteGraph("abcdef", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")])
    # a member of two points searches; the single points read the table
    sep = _assert_table_is_the_searched_one(
        path, {"s1": frozenset("ab"), "s2": frozenset("e")}, [["a", "b"], ["a"], ["e"]])
    assert sep.nearest_other == {"a": 1, "b": 1, "e": 3}
    # two shells sharing a vertex
    sep = _assert_table_is_the_searched_one(path, {"s1": frozenset("ab"), "s2": frozenset("bd")})
    assert sep.nearest_other == {"a": 1, "b": 1, "d": 2}
    sep = _assert_table_is_the_searched_one(path, {"s1": frozenset("c"), "s2": frozenset("c")})
    assert sep.nearest_other == {"c": af.INF}
    # a point with no other point in its component
    split = af.FiniteGraph("abcxy", [("a", "b"), ("b", "c"), ("x", "y")])
    sep = _assert_table_is_the_searched_one(
        split, {"s1": frozenset("a"), "s2": frozenset("c"), "s3": frozenset("y")})
    assert sep.nearest_other == {"a": 2, "c": 2, "y": af.INF}
    # a single live shell runs no search, and its cover searches
    sep = _assert_table_is_the_searched_one(path, {"s1": frozenset("af"), "s2": frozenset()})
    assert sep.work["searches"] == 0


def test_complement_table_on_random_graphs():
    """Unsorted vertex orders, disconnected graphs, shells sharing
    vertices, and random covers of P mixing single points with larger
    members."""
    rng = random.Random(20261022)
    for _ in range(300):
        n = rng.randint(2, 20)
        names = rng.sample([f"v{i}" for i in range(n)], n)
        edges = {tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, 2 * n))}
        H = af.FiniteGraph(names, edges)
        shells = {f"s{k}": frozenset(rng.sample(names, rng.randint(0, min(4, n))))
                  for k in range(rng.randint(0, 6))}
        P = sorted(frozenset().union(*shells.values()))
        members = [[x] for x in P if rng.random() < 0.5]
        members += [rng.sample(P, rng.randint(1, len(P))) for _ in range(len(P) and 3)]
        covered = {x for m in members for x in m}
        members += [[x] for x in P if x not in covered]
        _assert_table_is_the_searched_one(H, shells, members)


# (document, depth, R, r, stop-at searches of the certificate's complement tables)
TABLE_CASES = [(chain_spec_doc(40), 40, 2, 10, 2), (chain_spec_doc(400), 400, 2, 10, 2),
               (triangle_spec_doc(8), 8, 0, 4, 0), (triangle_spec_doc(14), 14, 0, 4, 0),
               (type2_spec_doc(8), 8, 0, 4, 0), (torus_spec_doc(8, 12), 12, 1, 6, 13)]
TABLE_IDS = ["chain_k2-40", "chain_k2-400", "c3_k2-8", "c3_k2-14", "type2_k2-8", "torus8_k2-12"]


@pytest.mark.parametrize("doc, depth, R, r, searches", TABLE_CASES, ids=TABLE_IDS)
def test_complement_table_on_certificates(monkeypatch, doc, depth, R, r, searches):
    """The transported cover's table, its single points read from the
    separation search, is the one its own searches give, and the two
    Lebesgue numbers are those of that table.  The certificate's
    complement tables, the boundary cover's included, run two stop-at
    searches at ``chain_k2`` (80 at d=400 with one per point) and none at
    ``c3_k2`` (31 at d=14), and separation still one search."""
    br = build_doc(doc, depth)
    params = ProofParameters(R=R, r=r, depth=depth)
    stop_at = []
    search = af.FiniteGraph.distances_to_set

    def counted(self, targets, *args, **kwargs):
        if kwargs.get("stop_at") is not None:
            stop_at.append(targets)
        return search(self, targets, *args, **kwargs)

    monkeypatch.setattr(af.FiniteGraph, "distances_to_set", counted)
    cert = run_certificate(br, params)
    assert len(stop_at) == searches
    monkeypatch.undo()
    stage = {st.name: st.data for st in cert.stages}
    assert stage["separation"]["work"]["searches"] == 1
    part = _partition(br, params)
    members = stage["transported_cover"]["member_lists"]
    sep = _assert_table_is_the_searched_one(br.sum.graph, part.shells, members)
    assert sep.nearest_other.keys() == part.shell_union
    searched = af.Cover(af.MetricView(br.sum.graph, sorted(part.shell_union)), members)
    assert stage["lebesgue"]["paper"] == af.lebesgue_number(searched, "paper")
    assert stage["lebesgue"]["standard"] == af.lebesgue_number(searched, "standard")


@pytest.mark.parametrize("lowest, pairs, closest", [
    ("s1", (("s1", "s2", 4), ("s2", "s1", 4), ("s3", "s1", 4)), ("a", "b")),
    ("s2", (("s1", "s2", 4), ("s2", "s1", 4), ("s3", "s2", 4)), ("a", "b")),
    ("s3", (("s1", "s3", 4), ("s2", "s3", 4), ("s3", "s1", 4)), ("a", "c")),
])
def test_separation_tie_goes_to_the_lower_neighbour(lowest, pairs, closest):
    """z is two steps from each of three shells, through one neighbour
    per shell.  It joins the cell of its neighbour with the lowest id,
    whatever the shell's rank and whichever neighbour the search reached
    z from (the one toward s1, settled first)."""
    shells = {"s1": frozenset("a"), "s2": frozenset("b"), "s3": frozenset("c")}
    ranked = [lowest] + [s for s in sorted(shells) if s != lowest]
    toward = {s: f"y{k}" for k, s in enumerate(ranked, 1)}
    edges = [(v, toward[s]) for s in shells for v in (*shells[s], "z")]
    H = af.FiniteGraph(["a", "b", "c", "y1", "y2", "y3", "z"], edges)
    sep, table = _assert_matches_pair_table(H, shells)
    assert set(table.values()) == {4}
    assert sep.pairs == pairs
    assert sep.closest_vertices == closest


# -- certificates ------------------------------------------------------------------


def assert_passing_cert(cert, expected_bound=1):
    assert cert.passed(), [(s.name, s.verdict) for s in cert.stages if not s.verdict]
    assert cert.bound == expected_bound
    order = [s.name for s in cert.stages]
    assert order == ["parameters", "base_blocks", "symmetry_maps", "partition",
                     "uniform_asdim_blocks", "boundary_cover", "transported_cover",
                     "separation", "lebesgue", "rd_dim"]


def test_certificate_chain(chain20):
    cert = run_certificate(chain20, ProofParameters(R=2, r=10, depth=20))
    assert_passing_cert(cert)
    stage = {s.name: s for s in cert.stages}
    assert stage["separation"].data["at_least_triple_radius"]
    assert stage["transported_cover"].data["multiplicity"] <= cert.n


def test_certificate_triangle(triangle8):
    cert = run_certificate(triangle8, ProofParameters(R=0, r=4, depth=8))
    assert_passing_cert(cert)


def test_certificate_alternating(type2_6):
    cert = run_certificate(type2_6, ProofParameters(R=0, r=2, depth=6))
    assert_passing_cert(cert)


@pytest.mark.parametrize("declared", [2, 0])
def test_certificate_torus_factor(declared):
    """The 8x8 torus glued to an edge.  Declared of asdim 2, it takes the
    n = 2 paths: three families per block, found by searching blocks of
    133 and 202 points; declared 0, it passes at bound 1."""
    doc = torus_spec_doc(8, 8)
    doc["asdim"]["factor1"] = declared
    cert = run_certificate(build_doc(doc), ProofParameters(R=0, r=4, depth=8))
    bound = max(declared, 1)
    assert_passing_cert(cert, bound)
    assert cert.to_json_dict()["target_families"] == bound
    stage = {s.name: s for s in cert.stages}
    blocks = stage["uniform_asdim_blocks"].data
    assert blocks["families"] == bound + 1
    assert {row["families"] for row in blocks["per_block"].values()} == {bound + 1}
    sizes = {m["vertices"] for m in stage["partition"].data["members"].values()}
    assert {133, 202} <= sizes


def test_certificate_fails_on_a_build_missing_a_bridge():
    """A build doctored past what any spec builds, one bridge at a site
    gone from H: the run finishes, the site's map sends a root edge to
    the missing bridge, and the verdict is FAIL."""
    br = build_doc(chain_spec_doc(20))
    params = ProofParameters(R=2, r=10, depth=20)
    site = translation_sites(br.tree, params)[1]
    cert = run_certificate(without_a_bridge_at(br, site), params)
    assert cert.verdict == "FAIL" and not cert.passed()
    assert [s.name for s in cert.stages if not s.verdict] == ["symmetry_maps"]
    row = {s.name: s for s in cert.stages}["symmetry_maps"].data["per_site"][site]
    assert not row["edge_ok"] and "maps to a non-edge" in row["detail"]


def _search_distance(adjacency, x: str, y: str):
    """d(x, y) by a plain breadth-first search from x; INF out of reach."""
    seen, ring, d = {x}, {x}, 0
    while y not in ring:
        if not ring:
            return af.INF
        ring = {w for v in ring for w in adjacency[v]} - seen
        seen |= ring
        d += 1
    return d


def test_boundary_cover_by_distance_bands_rechecked_pair_by_pair():
    """Spec 265 of the seeded random batch (seed 2026), certified at R=1,
    r=6: its boundary cover takes the ``distance-bands`` fallback.  The
    members cover the shell, and the multiplicity and largest member
    diameter match a count over the member lists and a search per pair."""
    rng = random.Random(2026)
    doc = [random_spec_doc(rng) for _ in range(266)][-1]
    br = build_doc(doc, 12)
    cert = run_certificate(br, ProofParameters(R=1, r=6, depth=12))
    stage = {s.name: s for s in cert.stages}
    data = stage["boundary_cover"].data
    assert data["strategy"] == "distance-bands"
    members = data["member_lists"]
    assert len(members) == data["members"] == 3
    assert len(set().union(*members)) == stage["base_blocks"].data["shell_size"]
    assert data["multiplicity"] == max(Counter(v for m in members for v in m).values())
    adjacency = br.sum.graph.adjacency
    assert data["max_diameter"] == max(_search_distance(adjacency, x, y)
                                       for m in members for x in m for y in m)
    assert_passing_cert(cert)


def test_certificate_lists_no_edges_and_no_edge_labels():
    """A certificate run, its JSON included, reads H's rows and the tree's
    per-node labels: it never lists H's edges or builds ``out_label``."""
    br = build_doc(chain_spec_doc(40))
    cert = run_certificate(br, ProofParameters(R=2, r=10, depth=40))
    dumps(cert.to_json_dict())
    assert cert.passed()
    assert br.sum.graph._edges is None
    assert "out_label" not in vars(br.tree)


def test_certificate_depth_must_match(chain20):
    with pytest.raises(PreconditionError):
        run_certificate(chain20, ProofParameters(R=2, r=10, depth=22))


def test_certificate_rejects_shallow_build(chain20):
    with pytest.raises(PreconditionError):
        run_certificate(chain20, ProofParameters(R=2, r=12, depth=20))


def test_certificate_serialization_is_deterministic():
    docs = [chain_spec_doc(20), chain_spec_doc(20)]
    texts = []
    for doc in docs:
        br = af.build(AmalgamationSpec.from_json_dict(doc))
        cert = run_certificate(br, ProofParameters(R=2, r=10, depth=20))
        texts.append(dumps(cert.to_json_dict()))
    assert texts[0] == texts[1]
    assert '"verdict": "PASS"' in texts[0]


# -- one witness per block shape ------------------------------------------------------


SHAPE_CASES = [(chain_spec_doc, 40, 2, 10), (chain_spec_doc, 160, 2, 10),
               (triangle_spec_doc, 8, 0, 4), (triangle_spec_doc, 14, 0, 4),
               (type2_spec_doc, 8, 0, 2)]
SHAPE_IDS = ["chain_k2-40", "chain_k2-160", "c3_k2-8", "c3_k2-14", "type2_k2-8"]


def _sorted_distance_matrix(H, points):
    order = sorted(points)
    rows = []
    for x in order:
        dist = H.distances_to_set((x,), until=points)
        rows.append(tuple(dist.get(y, af.INF) for y in order))
    return tuple(rows)


@pytest.mark.parametrize("make, depth, R, r", SHAPE_CASES, ids=SHAPE_IDS)
def test_block_rows_shared_by_shape_equal_fresh_witness_rows(make, depth, R, r):
    br = build_doc(make(depth))
    params = ProofParameters(R=R, r=r, depth=depth)
    cert = run_certificate(br, params)
    rows = {s.name: s for s in cert.stages}["uniform_asdim_blocks"].data["per_block"]
    H = br.sum.graph
    members = _partition(br, params).members
    assert list(rows) == [b.name for b in members]
    by_key: dict = {}
    for b in members:
        w, strategy = _witness_for(b.view(H), r, cert.n)
        problems = w.violations()
        fresh = {"strategy": strategy, "bound": w.bound, "families": len(w.families),
                 "valid": not problems and len(w.families) == cert.n + 1}
        if problems:
            fresh["problems"] = problems
        assert rows[b.name] == fresh, b.name
        by_key.setdefault(block_shape(H, b.vertices), []).append(b.vertices)
    # translates share a shape, so some rows are reused
    assert len(by_key) < len(members)
    for group in by_key.values():
        first = _sorted_distance_matrix(H, group[0])
        for points in group[1:]:
            assert _sorted_distance_matrix(H, points) == first


def test_block_shape_sees_every_edge_of_its_ball(chain20):
    H = chain20.sum.graph
    points = _partition(chain20, ProofParameters(R=2, r=10, depth=20)).members[1].vertices
    key = block_shape(H, points)
    _, rho, _ = key
    ball = H.ball(points, rho)
    inside = [e for e in H.edges if e[0] in ball and e[1] in ball]
    assert len(inside) > 10
    for gone in inside:
        cut = af.FiniteGraph(H.vertices, [e for e in H.edges if e != gone])
        assert block_shape(cut, points) != key, gone


def test_block_shape_of_a_disconnected_block_is_its_own():
    # two copies of one path: the blocks are alike, but each spans both
    # components, so neither may borrow the other's row
    g = af.FiniteGraph(["a0", "a1", "a2", "b0", "b1", "b2"],
                       [("a0", "a1"), ("a1", "a2"), ("b0", "b1"), ("b1", "b2")])
    one, two = frozenset({"a0", "b0"}), frozenset({"a1", "b1"})
    assert block_shape(g, one) == ("unreachable", ("a0", "b0"))
    assert block_shape(g, one) != block_shape(g, two)
    # connected translates in one component do share a key
    assert block_shape(g, frozenset({"a0"})) == block_shape(g, frozenset({"b0"}))


def test_block_shape_matches_the_two_search_key_on_random_graphs():
    rng = random.Random(20261020)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(2, 40)
        names = [f"v{i}" for i in rng.sample(range(100), n)]
        edges = {tuple(sorted(rng.sample(names, 2))) for _ in range(rng.randint(0, 2 * n))}
        H = af.FiniteGraph(names, edges)
        x = rng.choice(names)
        apart = [v for v in names if v not in H.distances_from(x)]
        sets = [frozenset({x}), frozenset(rng.sample(names, rng.randint(2, n)))]
        if apart:
            sets.append(frozenset({x, rng.choice(apart)}))
        for points in sets:
            key = block_shape(H, points)
            assert key == reference_block_shape(H, points), (H.edges, points)
            seen["unreachable" if key[0] == "unreachable" else min(key[1], 3)] += 1
    # single points, unreachable points and balls of every small radius
    assert seen["unreachable"] >= 100 and all(seen[rho] >= 20 for rho in (0, 1, 2, 3)), seen


@pytest.mark.parametrize("fixture, R, r", [("chain40", 2, 10), ("triangle8", 0, 4)])
def test_block_shape_matches_the_two_search_key_on_members(request, fixture, R, r):
    br = request.getfixturevalue(fixture)
    members = _partition(br, ProofParameters(R=R, r=r, depth=br.tree.depth)).members
    H = br.sum.graph
    assert len(members) > 4
    for b in members:
        assert block_shape(H, b.vertices) == reference_block_shape(H, b.vertices), b.name


# -- block keys by site neighbourhood -------------------------------------------------


def _listed_backwards(doc: dict) -> dict:
    """``doc`` with each factor's vertices listed in reverse, so a copy's
    positions run against its ids' order."""
    return {**doc, "factors": [{**f, "vertices": f["vertices"][::-1]} for f in doc["factors"]]}


# (document, depth, R, r, whether the memo serves some member)
MEMO_CASES = [*[(chain_spec_doc(d), d, 2, 10, True) for d in (200, 400, 800, 1600)],
              (_listed_backwards(chain_spec_doc(400)), 400, 2, 10, True),
              *[(triangle_spec_doc(d), d, 0, 4, False) for d in (12, 14, 16, 18)],
              (_listed_backwards(triangle_spec_doc(14)), 14, 0, 4, False),
              (type2_spec_doc(8), 8, 0, 2, False)]
MEMO_IDS = [*[f"chain_k2-{d}" for d in (200, 400, 800, 1600)], "chain_k2-400-backwards",
            *[f"c3_k2-{d}" for d in (12, 14, 16, 18)], "c3_k2-14-backwards", "type2_k2-8"]


def _counted(monkeypatch, name: str) -> list:
    """The calls ``theorem.<name>`` gets from now on, by their arguments."""
    calls, step = [], getattr(theorem, name)
    monkeypatch.setattr(theorem, name, lambda *args: calls.append(args) or step(*args))
    return calls


def _walk_every_member(br, part, r):
    """``block_keys`` as one ``block_shape`` walk per member."""
    numbers: dict = {}
    shapes = [numbers.setdefault(block_shape(br.sum.graph, b.vertices), len(numbers))
              if b.vertices else None for b in part.members]
    return shapes, list(numbers)


def _assert_keys_are_walked_keys(br, part, r):
    """``block_keys`` gives every member ``block_shape``'s own key."""
    shapes, keys = theorem.block_keys(br, part, r)
    assert len(shapes) == len(part.members) and len(set(keys)) == len(keys)
    for b, shape in zip(part.members, shapes):
        assert (shape is None) == (not b.vertices), b.name
        if shape is not None:
            assert keys[shape] == block_shape(br.sum.graph, b.vertices), b.name


@pytest.mark.parametrize("doc, depth, R, r, memo", MEMO_CASES, ids=MEMO_IDS)
def test_block_keys_are_the_walked_keys(monkeypatch, doc, depth, R, r, memo):
    """On the certificate rungs and ``type2_k2``, and with factors listed
    out of name order: a member that takes a filed key has the key its
    own walk gives.  ``chain_k2`` walks at most ten balls at every depth
    and asks for the layout check once; no ``c3_k2`` or ``type2_k2`` site
    lies deeper than r + rho, so there every member walks and the check
    never runs."""
    br = build_doc(doc)
    assert theorem._is_built_layout(br)
    part = _partition(br, ProofParameters(R=R, r=r, depth=depth))
    walks, checks = _counted(monkeypatch, "block_shape"), _counted(monkeypatch, "_is_built_layout")
    _assert_keys_are_walked_keys(br, part, r)
    filled = sum(bool(b.vertices) for b in part.members)
    if memo:
        assert len(walks) <= 10 < filled and len(checks) == 1
    else:
        assert len(walks) == filled and not checks


def test_block_keys_are_the_walked_keys_on_random_two_label_specs(monkeypatch):
    """Seeded random specs with two labels a side, so their trees are paths
    deep enough for the memo, and boundary sets of up to three vertices,
    built at depth 60 and keyed at R=1, r=6."""
    rng = random.Random(20261021)
    walks = _counted(monkeypatch, "block_shape")
    specs = members = 0
    while specs < 30:
        doc = random_spec_doc(rng)
        if (doc["tree"]["p1"], doc["tree"]["p2"]) != (2, 2):
            continue
        br = build_doc(doc, 60)
        try:
            part = _partition(br, ProofParameters(R=1, r=6, depth=60))
        except PreconditionError:
            continue
        assert theorem._is_built_layout(br)
        _assert_keys_are_walked_keys(br, part, 6)
        specs += 1
        members += sum(bool(b.vertices) for b in part.members)
    assert len(walks) < members / 2, (len(walks), members)


def _deep_doctored(monkeypatch, how: str):
    """``chain_k2`` d=400 with H doctored at the site 200 levels down, deep
    inside the memo's reach (r + rho = 28), and the doctored member's
    number among the members."""
    br = build_doc(chain_spec_doc(400))
    params = ProofParameters(R=2, r=10, depth=400)
    sites = translation_sites(br.tree, params)
    site = next(t for t in sites if br.tree.level[t] == 200)
    if how == "bridge":
        br = without_a_bridge_at(br, site)
    else:  # the copies of the site and of its child swap nodes
        remap_nodes(monkeypatch, br, {site: br.tree.children[site][0],
                                      br.tree.children[site][0]: site})
    return br, params, 1 + sites.index(site)


@pytest.mark.parametrize("how", ["bridge", "remap"])
def test_a_doctored_build_walks_every_member(monkeypatch, how):
    """A build no spec gives, doctored inside a member's ball at a site the
    memo would serve: the layout check fails, every member walks, and the
    certificate's bytes are those of a run with one walk per member.  With
    the check skipped, the memo would hand the doctored member another
    member's key."""
    br, params, doctored = _deep_doctored(monkeypatch, how)
    assert theorem._is_built_layout(br) is False
    part = _partition(br, params)
    shapes, keys = theorem.block_keys(br, part, params.r)
    monkeypatch.setattr(theorem, "_is_built_layout", lambda br: True)
    trusted, trusted_keys = theorem.block_keys(br, part, params.r)
    assert trusted_keys[trusted[doctored]] != keys[shapes[doctored]]
    monkeypatch.undo()
    br, params, _ = _deep_doctored(monkeypatch, how)
    walks = _counted(monkeypatch, "block_shape")
    text = dumps(run_certificate(br, params).to_json_dict())
    assert len(walks) == sum(bool(b.vertices) for b in part.members)
    monkeypatch.setattr(theorem, "block_keys", _walk_every_member)
    assert dumps(run_certificate(br, params).to_json_dict()) == text


# -- projection fit -----------------------------------------------------------------


def test_projection_fit_frozen_table(chain40):
    fit = projection_fit(chain40, margin=4)
    assert fit.table == (
        (Fraction(1), Fraction(73)),
        (Fraction(3, 2), Fraction(74, 3)),
        (Fraction(2), Fraction(1, 2)),
        (Fraction(3), Fraction(1, 3)),
        (Fraction(4), Fraction(1, 4)),
    )
    assert fit.best_within(2) == (Fraction(2), Fraction(1, 2))
    gamma, c = fit.gamma, fit.c
    assert (gamma, c) == (Fraction(4), Fraction(1, 4))


def test_projection_fit_margin_errors(chain20):
    with pytest.raises(PreconditionError):
        projection_fit(chain20, margin=-1)
    with pytest.raises(PreconditionError):
        projection_fit(chain20, margin=21)


def test_the_seeded_random_batch_is_pinned():
    """The ladder's corpus rung, run here: 300 ``random_spec_doc`` specs
    (seed 2026), each built at depth 12 and certified at R=1, r=6.  The
    class counts, the FAIL indices and one sha256 over the 177
    certificates' bytes are pinned; a change that moves any of them
    records the new figures and the reason."""
    assert CORPUS == (2026, 300, 12, 1, 6)
    got = run_corpus(*CORPUS)
    assert not got["errors"]
    assert {k: got[k] for k in ("pass", "fail", "precondition", "other")} == \
        {"pass": 171, "fail": 6, "precondition": 123, "other": 0}
    assert got["fail_indices"] == [103, 144, 223, 225, 239, 257]
    assert got["sha256"] == "e6abcd2cafbfd011aa7da23e2035cea04a400875b2c39b7e9fff1c28a3895472"


def _shortcut_spec_doc() -> dict:
    """A chain of copies glued along three vertices, in which two vertices of
    one copy are closer through the next copy than inside their own; the
    fit must then measure them with paths that leave the copy."""
    return {
        "name": "shortcut", "actions": {"mode": "trivial"},
        "factors": [
            {"vertices": [f"a{i}" for i in range(8)],
             "edges": [["a1", "a2"], ["a2", "a3"], ["a1", "a5"], ["a0", "a7"], ["a3", "a6"],
                       ["a5", "a7"], ["a4", "a7"], ["a0", "a4"], ["a0", "a1"], ["a4", "a6"]]},
            {"vertices": [f"b{i}" for i in range(6)],
             "edges": [["b1", "b3"], ["b1", "b4"], ["b3", "b5"], ["b0", "b1"], ["b0", "b2"],
                       ["b5", "b4"]]}],
        "adhesions": [{"0": ["a3", "a6", "a5"]}, {"x": ["b0", "b2", "b5"]}],
        "atlas": [{"left": "0", "right": "x",
                   "pairs": [["a3", "b5"], ["a6", "b2"], ["a5", "b0"]]}],
        "tree": {"p1": 1, "p2": 1, "depth": 5}}


def _stage2_build():
    """The second stage ``iterate`` builds in the shipped suite."""
    first = build_doc(chain_spec_doc(6))
    doc = next_stage_doc(first)
    doc["factors"] = [af.relabel_sorted(first.amalgam.graph)[0].to_json_dict(),
                      doc["factors"][1]]
    return build_doc(doc, 6)


def _as_triple(fit):
    return fit.table, fit.gamma, fit.c


def test_equal_block_keys_give_equal_distance_matrices_on_random_specs():
    """Each node's copy with its neighbours' copies, keyed by ``block_shape``
    on seeded random builds: members of one key have one distance matrix."""
    rng = random.Random(20261019)
    shared = 0
    for _ in range(40):
        doc = random_spec_doc(rng)
        br = build_doc(doc, max(doc["tree"]["depth"], 2))
        H, tree = br.sum.graph, br.tree
        by_key: dict = {}
        for u in tree.nodes:
            points = br.sum.vertices_over(tree.nodes_within(u, 1))
            by_key.setdefault(block_shape(H, points), []).append(points)
        for group in by_key.values():
            first = _sorted_distance_matrix(H, group[0])
            for points in group[1:]:
                assert _sorted_distance_matrix(H, points) == first
            shared += len(group) - 1
    assert shared > 50


def _assert_copy_tables_match_a_scan(h: SumGraph):
    scan: dict = {}
    for v in h.graph.vertices:
        scan.setdefault(h.node_of(v), []).append(v)
    for u in h.tree.nodes:
        assert h.copy_vertices(u) == tuple(scan.get(u, ())), u
    nodes = list(h.tree.nodes)
    for chosen in (nodes, nodes[::3], nodes[:1], [], nodes[-5:] + nodes[-5:]):
        assert h.vertices_over(chosen) == frozenset(
            v for v in h.graph.vertices if h.node_of(v) in set(chosen))


def test_copy_tables_match_a_node_of_scan(chain40, triangle8, type2_8):
    rng = random.Random(20261020)
    randoms = [build_doc(random_spec_doc(rng)) for _ in range(20)]
    for br in [chain40, triangle8, type2_8, *randoms]:
        _assert_copy_tables_match_a_scan(br.sum)
    # a hand-built sum graph: one vertex gone and the rest listed backwards
    h = triangle8.sum
    H = h.graph
    gone = H.vertices[5]
    doctored = af.FiniteGraph([v for v in reversed(H.vertices) if v != gone],
                              [e for e in H.edges if gone not in e])
    hand = SumGraph(doctored, h.tree, h.bridges, copies_by_id(doctored))
    _assert_copy_tables_match_a_scan(hand)
    assert len(hand.copy_vertices(h.node_of(gone))) == len(h.copy_vertices(h.node_of(gone))) - 1


def test_projection_fit_matches_pair_walk():
    rng = random.Random(20261018)
    builds = [build_doc(chain_spec_doc(d)) for d in range(41)]
    builds += [build_doc(triangle_spec_doc(d)) for d in range(11)]
    builds += [build_doc(type2_spec_doc(d)) for d in range(2, 9)]
    builds += [_stage2_build(), build_doc(_shortcut_spec_doc())]
    builds += [build_doc(random_spec_doc(rng)) for _ in range(40)]
    for br in builds:
        for margin in range(min(4, br.tree.depth) + 1):
            want = af.fit_qi_constants(projection_map(br, margin))
            fit = projection_fit(br, margin)
            assert _as_triple(fit) == _as_triple(want), (br.spec.name, br.tree.depth, margin)


@pytest.mark.parametrize("bridge, margin, torn", [(0, 0, True), (-1, 2, True), (0, 2, False)])
def test_projection_fit_without_a_bridge(monkeypatch, bridge, margin, torn):
    """A torn sum graph has no fit: not where the safe core meets two
    components (``torn``, no finite constant in the pair walk), and not
    where it lies in one and the pair walk finds finite constants."""
    br = build_doc(chain_spec_doc(8))
    H, cut = br.sum.graph, br.sum.bridges[bridge]
    monkeypatch.setattr(br.sum, "graph", af.FiniteGraph(
        H.vertices, [e for e in H.edges if e != cut]))
    assert projection_fit(br, margin) is None
    walked = af.fit_qi_constants(projection_map(br, margin))
    assert all(c is None for _, c in walked.table) == torn


def test_projection_fit_on_a_stretching_map_is_none(monkeypatch):
    """``t1`` swapped with its child (two stretched edges), and the copy over
    the i-th node in sorted order put on the (3i mod n)-th (sixteen)."""
    for stretched in (2, 16):
        br = build_doc(chain_spec_doc(8))
        if stretched == 2:
            child = path_ids(br.tree)["t1/0"]
            moves = {"t1": child, child: "t1"}
        else:
            nodes = sorted(br.tree.nodes)
            moves = {u: nodes[3 * i % len(nodes)] for i, u in enumerate(nodes)}
        remap_nodes(monkeypatch, br, moves)
        assert len(list(stretched_edges(br))) == stretched
        for margin in range(5):
            assert projection_fit(br, margin) is None


def test_projection_fit_reads_the_sum_graph(monkeypatch):
    """A chord inside one copy of the stage-2 build: no edge is stretched
    and H stays connected, so the fit is the pair walk's, which sees the
    chord that the other copies of the same factor lack."""
    br = _stage2_build()
    H, leaf = br.sum.graph, br.tree.nodes[0]  # the first node in postorder
    before = projection_fit(br)
    copy = [v for v in H.vertices if br.sum.node_of(v) == leaf]
    chord = (copy[0], copy[-1])
    assert chord[1] not in H.adjacency[chord[0]]
    monkeypatch.setattr(br.sum, "graph", af.FiniteGraph(H.vertices, [*H.edges, chord]))
    assert not list(stretched_edges(br))
    assert br.sum.graph.is_connected()
    fit = projection_fit(br)
    assert _as_triple(fit) == _as_triple(af.fit_qi_constants(projection_map(br)))
    assert fit.table != before.table


def test_projection_fit_work_follows_the_levels(monkeypatch):
    """Every node of one level of ``c3_k2`` has the same subtree, so from
    d=8 to d=16, where the tree grows from 91 to 1,531 nodes, the fit's
    memoised steps run at most once more per extra level."""
    steps = ("_inner_metric", "_node_metric", "_node_pairs")
    calls = Counter()
    for name in steps:
        step = getattr(theorem, name)
        monkeypatch.setattr(theorem, name,
                            lambda *key, step=step, name=name: calls.update([name]) or step(*key))
    misses = {}
    for depth in (8, 16):
        calls.clear()
        projection_fit(build_doc(triangle_spec_doc(depth)))
        misses[depth] = dict(calls)
    assert set(misses[8]) == set(misses[16]) == set(steps)
    assert sum(misses[16].values()) - sum(misses[8].values()) <= 16 - 8


def test_tree_graph(chain6):
    tg = tree_graph(chain6.tree)
    assert len(tg) == 13
    assert tg.diameter(tg.vertices) == 12


# -- table-driven symmetry maps against the whole walk ---------------------------


def _reference_symmetry_map(br, t, radius=None):
    """The whole-tree walk as first written: per-node symmetry search, one
    dict entry per mapped sum vertex, and a scan of every edge; with a
    radius, the walk expands no node of that level."""
    tree, h = br.tree, br.sum
    H = h.graph
    path, node = label_paths(tree), path_ids(tree)
    actions = (br.spec.action1, br.spec.action2)
    adhesions = (br.spec.adh1, br.spec.adh2)
    m_t = tree.up_label[t]
    adh1 = adhesions[0]
    g_root = next(g for g in actions[0]
                  if frozenset(g[x] for x in adh1[br.rep_map1[m_t]]) == adh1[m_t])
    node_map, elem, queue, dropped = {ROOT: t}, {ROOT: g_root}, [ROOT], 0
    for u in queue:
        if tree.level[u] == radius:
            continue
        g_u, u_img = elem[u], node_map[u]
        adh_u = adhesions[tree.node_side[u] - 1]
        for w in tree.children.get(u, ()):
            k, ell = tree.out_label[(u, w)], tree.out_label[(w, u)]
            image_set = frozenset(g_u[x] for x in adh_u[k])
            k_img = next(lab for lab in adh_u.labels if adh_u[lab] == image_set)
            if tree.up_label.get(u_img) == k_img:
                w_img = tree.parent[u_img]
            elif f"{path[u_img]}/{k_img}" in node:
                w_img = node[f"{path[u_img]}/{k_img}"]
            else:
                dropped += 1
                continue
            ell_img = tree.out_label[(w_img, u_img)]
            beta = br.spec.atlas.map_for(k, ell)
            beta_img = br.spec.atlas.map_for(k_img, ell_img)
            transfer = {beta[x]: beta_img[g_u[x]] for x in adh_u[k]}
            node_map[w] = w_img
            elem[w] = next(c for c in actions[tree.node_side[w] - 1]
                           if all(c[y] == transfer[y] for y in transfer))
            queue.append(w)
    vmap = {}
    for u, u_img in node_map.items():
        for x in (br.spec.g1, br.spec.g2)[tree.node_side[u] - 1].vertices:
            vmap[copy_vertex(u, x)] = copy_vertex(u_img, elem[u][x])
    injective = len(set(vmap.values())) == len(vmap)
    edge_ok = True
    detail = f"mapped {len(node_map)} nodes, skipped {dropped} truncated subtrees"
    for a, b in H.edges:
        fa, fb = vmap.get(a), vmap.get(b)
        if fa is not None and fb is not None and fb not in H.adjacency[fa]:
            edge_ok, detail = False, f"edge ({a}, {b}) maps to a non-edge ({fa}, {fb})"
            break
    return node_map, vmap, edge_ok, injective, detail


def _assert_maps_match_reference(br, radius) -> list:
    """Every first-factor node but the root; returns the edge_ok flags."""
    flags = []
    walk = SymmetryWalk(br, radius)
    for t in br.tree.nodes:
        if t == ROOT or br.tree.node_side[t] != 1:
            continue
        sm = build_symmetry_map(walk, t)
        node_map, vmap, edge_ok, injective, detail = _reference_symmetry_map(br, t, radius)
        assert sm.node_map == node_map, t
        assert dict(sm.vertex_map) == vmap, t
        assert list(sm.vertex_map) == list(vmap), t
        assert len(sm.vertex_map) == len(vmap), t
        assert (sm.edge_ok, sm.injective, sm.detail) == (edge_ok, injective, detail), t
        assert sm.vertex_map.get("nowhere:a") is None
        assert sm.vertex_map.get(f"{t}:no-such-vertex") is None
        flags.append(edge_ok)
    return flags


@pytest.mark.parametrize("make, depth, r", [(chain_spec_doc, 40, 10), (triangle_spec_doc, 8, 4),
                                            (type2_spec_doc, 8, 4)],
                         ids=["chain_spec_doc-40", "triangle_spec_doc-8", "type2_spec_doc-8"])
def test_symmetry_maps_match_the_whole_walk(make, depth, r):
    br = build_doc(make(depth))
    flags = _assert_maps_match_reference(br, r)
    assert len(flags) >= 8 and all(flags)
    level = br.tree.level
    whole, bounded = SymmetryWalk(br, depth), SymmetryWalk(br, r)
    for t in br.tree.nodes:
        if t != ROOT and br.tree.node_side[t] == 1:
            node_map, vmap, edge_ok, injective, detail = _reference_symmetry_map(br, t)
            # radius = depth is the whole walk
            sm = build_symmetry_map(whole, t)
            assert (sm.node_map, dict(sm.vertex_map), sm.edge_ok, sm.injective, sm.detail) == \
                (node_map, vmap, edge_ok, injective, detail), t
            # the walk bounded at the block radius is the whole walk cut to levels <= r
            cut = {u: w for u, w in node_map.items() if level[u] <= r}
            sm = build_symmetry_map(bounded, t)
            assert sm.node_map == cut, t
            assert dict(sm.vertex_map) == {v: w for v, w in vmap.items()
                                           if split_vertex_id(v)[0] in cut}, t


WALK_CASES = [(chain_spec_doc, 40, 2, 10), (chain_spec_doc, 400, 2, 10),
              (triangle_spec_doc, 8, 0, 4), (triangle_spec_doc, 14, 0, 4),
              (type2_spec_doc, 8, 0, 4)]
WALK_IDS = ["chain_k2-40", "chain_k2-400", "c3_k2-8", "c3_k2-14", "type2_k2-8"]


def _assert_walk_matches_reference(br, radius, nodes) -> list:
    """Each node's map from the shared walk against its own walk; returns
    the maps."""
    walk = SymmetryWalk(br, radius)
    maps = []
    for t in nodes:
        sm = build_symmetry_map(walk, t)
        want = reference_symmetry_map(br, t, radius)
        assert (sm.node_map, sm.vertex_map, sm.edge_ok, sm.injective, sm.detail) == want, \
            (radius, t)
        assert list(sm.node_map) == list(want[0]) and list(sm.vertex_map) == list(want[1])
        maps.append(sm)
    return maps


def _rows(blocks) -> list:
    """Each block's name, vertices and edge count: a partition member
    counts the edges that the reference lists."""
    return [(b.name, b.vertices, b.edge_count) for b in blocks]


@pytest.mark.parametrize("make, depth, R, r", WALK_CASES, ids=WALK_IDS)
def test_shared_walk_matches_the_per_site_walk(make, depth, R, r):
    """Every site and fringe node at every walk radius from 2 to r; then
    the partition of the maps at r against clipping vertex by vertex."""
    br = build_doc(make(depth))
    params = ProofParameters(R=R, r=r, depth=depth)
    sites = translation_sites(br.tree, params)
    fringe = br.tree.nodes_at(ROOT, r)
    for radius in range(2, r + 1):
        maps = _assert_walk_matches_reference(br, radius, [*sites, *fringe])
    assert all(sm.edge_ok and sm.injective for sm in maps)
    base = base_blocks(SymmetryWalk(br, r), params)
    part = assemble_partition(br, params, base, maps[:len(sites)])
    members, shells = reference_partition(br, base, maps[:len(sites)])
    assert _rows(part.members) == _rows([base.w0, *members])
    assert part.shells == shells
    assert len(shells) == len(sites) and any(shells.values())


@pytest.mark.parametrize("make, depth, r", [(chain_spec_doc, 40, 10), (triangle_spec_doc, 8, 4)],
                         ids=["chain_k2-40", "c3_k2-8"])
def test_shared_walk_matches_truncated_sites(make, depth, r):
    """First-factor nodes too deep for a whole block: their walks drop the
    subtrees whose images fall off the truncation."""
    br = build_doc(make(depth))
    deep = [t for t in br.tree.nodes
            if br.tree.node_side[t] == 1 and br.tree.level[t] > depth - r]
    maps = _assert_walk_matches_reference(br, r, deep)
    assert all("skipped 0 " not in sm.detail for sm in maps)
    base = base_blocks(SymmetryWalk(br, r), ProofParameters(R=0, r=r, depth=depth))
    part = assemble_partition(br, ProofParameters(R=0, r=r, depth=depth), base, maps)
    members, shells = reference_partition(br, base, maps)
    assert _rows(part.members[1:]) == _rows(members) and part.shells == shells


def _star_spec_doc(depth: int) -> dict:
    """A star with centre c and leaves a, b, d, glued by a and b to single
    edges; the star's action is left trivial."""
    star = {"vertices": ["a", "b", "c", "d"], "edges": [["a", "c"], ["b", "c"], ["c", "d"]]}
    edge = {"vertices": ["x", "y"], "edges": [["x", "y"]]}
    return {"name": "star", "factors": [star, edge],
            "adhesions": [{"0": ["a"], "1": ["b"]}, {"x": ["x"], "y": ["y"]}],
            "atlas": [{"left": k, "right": l, "pairs": [[v, w]]}
                      for k, v in (("0", "a"), ("1", "b")) for l, w in (("x", "x"), ("y", "y"))],
            "actions": {"mode": "generators", "factor2": [{"x": "y", "y": "x"}]},
            "tree": {"p1": 2, "p2": 2, "depth": depth}}


def test_shared_walk_matches_an_action_that_breaks_an_edge():
    """The star's elements swap c and d, one of them a and b too: they
    permute the boundary sets, so each walk goes through, but each sends
    an edge to a non-edge."""
    br = build_doc(_star_spec_doc(12))
    spec = copy.copy(br.spec)
    spec.action1 = af.GroupAction(br.spec.g1, [{"a": "a", "b": "b", "c": "d", "d": "c"},
                                               {"a": "b", "b": "a", "c": "d", "d": "c"}])
    doctored = BuildResult(spec, br.tree, br.sum, br.atlas_report, br.reps1, br.reps2,
                           br.rep_map1)
    params = ProofParameters(R=0, r=4, depth=12)
    sites = translation_sites(br.tree, params)
    for radius in (2, 3, 4):
        maps = _assert_walk_matches_reference(doctored, radius, sites)
        assert all(not sm.edge_ok and "maps to a non-edge" in sm.detail
                   for sm in maps if sm.site != ROOT)
    assert len(sites) > 3


# sha256 of the certificates: sharing the walk's step tables must not move a byte
@pytest.mark.parametrize("make, depth, r, digest", [
    (triangle_spec_doc, 14, 4, "7d5760e031e11519c9e0e078ddfa59d06ce50f9a03a26549ad10b27941580037"),
    (type2_spec_doc, 8, 2, "57b827669e025185ecdf419f56bc48c3f057345b9f0e7935604df77ccc76e55c"),
], ids=["c3_k2-14", "type2_k2-8"])
def test_walk_works_out_each_step_once(monkeypatch, make, depth, r, digest):
    """Over one certificate run, every site and fringe node included, each
    image label and each bonding extension is worked out once: steps
    with the same label triple share a table.  On a built tree a step's
    ell follows from its side and k, so once per (side, element, k) is
    once per (side, element, k, ell)."""
    br = build_doc(make(depth))
    elements = (br.spec.action1.elements, br.spec.action2.elements)
    labels, steps = Counter(), Counter()
    image_label, extend = theorem._image_label, theorem._extend

    def counted_image_label(adh, g, k, u):
        side = br.tree.node_side[u]
        labels[side, next(i for i, e in enumerate(elements[side - 1]) if e is g), k] += 1
        return image_label(adh, g, k, u)

    def counted_extend(spec, step, w):
        steps[step] += 1
        return extend(spec, step, w)
    monkeypatch.setattr(theorem, "_image_label", counted_image_label)
    monkeypatch.setattr(theorem, "_extend", counted_extend)
    cert = run_certificate(br, ProofParameters(R=0, r=r, depth=depth))
    assert labels and steps
    assert max(labels.values()) == 1 and max(steps.values()) == 1
    assert hashlib.sha256(dumps(cert.to_json_dict()).encode()).hexdigest() == digest


def test_symmetry_map_reports_a_missing_bridge_like_the_whole_walk():
    br = build_doc(chain_spec_doc(24))
    site = path_ids(br.tree)["t1/0/1/1/1/1/1/1/1/1/1"]
    # drop one bridge at the site: the root's bridges map onto it
    br2 = without_a_bridge_at(br, site)
    for radius in (10, 24):
        flags = _assert_maps_match_reference(br2, radius)
        assert not all(flags)
        sm = build_symmetry_map(SymmetryWalk(br2, radius), site)
        assert not sm.edge_ok and "maps to a non-edge" in sm.detail
