"""Tree truncations, bonding atlases, sum graphs, and contraction."""

import itertools
import random
import tracemalloc

import pytest

import asdimforge as af
from asdimforge.amalgam import (ROOT, AdhesionFamily, AmalgamationSpec, ConnectingTree,
                                BondingAtlas, SumGraph, build_connecting_tree,
                                build_sum_graph, contract_to_amalgam, copy_vertex,
                                select_orbit_representatives, validate_bonding_atlas)
from asdimforge.errors import ConfigError, GraphFormatError, PreconditionError
from asdimforge.fixtures import (chain_spec_doc, cycle_graph_doc, triangle_spec_doc,
                                 type2_spec_doc)
from asdimforge.groups import GroupAction, compute_automorphisms

from conftest import (build_doc, copies_by_id, label_paths, line_graph, path_ids,
                      random_spec_doc, reference_connecting_tree,
                      reference_contract_to_amalgam, reference_sum_graph, ring_graph,
                      split_vertex_id)


# -- connecting trees ----------------------------------------------------------


def numbered_tree(p1, p2, depth, **kw):
    """The (p1,p2)-semiregular truncation with labels "0", "1", ... per side."""
    return build_connecting_tree([str(i) for i in range(p1)],
                                 [str(i) for i in range(p2)], depth, **kw)


def tree_size(p1, p2, depth, **kw):
    return len(numbered_tree(p1, p2, depth, **kw).nodes)


def test_tree_node_counts():
    # (3,2): root degree 3, then alternating branching 1 and 2.
    assert tree_size(3, 2, 0) == 1
    assert tree_size(3, 2, 1) == 4
    assert tree_size(3, 2, 2) == 7
    assert tree_size(3, 2, 4) == 19
    # Degree-one sides stop immediately.
    for d in (1, 3, 9):
        assert tree_size(1, 1, d) == 2
    # (2,2) is an unbranched chain: 2k+1 nodes at radius k.
    assert tree_size(2, 2, 6) == 13
    assert tree_size(2, 2, 40) == 81


def test_deep_chain_builds_without_recursion():
    br = build_doc(chain_spec_doc(1500))
    assert len(br.sum.graph) == 6002
    path = label_paths(br.tree)
    assert br.tree.node_depth(max(br.tree.nodes, key=lambda u: len(path[u]))) == 1500


def test_tree_records_nodes_in_preorder():
    t = numbered_tree(3, 2, 4)
    walk, stack = [], [ROOT]
    while stack:
        u = stack.pop()
        walk.append(u)
        stack.extend(reversed(t.children[u]))
    assert list(t.children) == walk
    assert sorted(t.preorder, key=t.preorder.get) == walk
    assert t.preorder[ROOT] == 0 and t.subtree_end[ROOT] == len(walk)
    assert [u for u, _ in t.out_label][:4] == [ROOT, ROOT, ROOT, path_ids(t)[f"{ROOT}/0"]]


def test_tree_structure_and_metric():
    t = numbered_tree(2, 2, 6)
    node = path_ids(t)
    ok, why = t.is_semiregular()
    assert ok, why
    assert t.node_depth(ROOT) == 0
    left = node[ROOT + "/0"]
    right = node[ROOT + "/1"]
    assert t.path(left, right) == (left, ROOT, right)
    assert t.path(left, left) == (left,)
    deep = node[ROOT + "/0/1/1"]
    assert t.node_depth(deep) == 3
    assert len(t.path(deep, right)) == 5
    assert set(t.nodes_at(ROOT, 6)) <= set(t.nodes)
    assert len(t.nodes_within(ROOT, 2)) == 5
    # A depth-1 node's subtree is one run of the preorder walk.
    region = {u for u in t.nodes if _in_subtree(t, u, left)}
    assert left in region and deep in region and right not in region


# reference answers parsed from the label paths the tree's table gives
def _ref_depth(u):
    return u.count("/")


def _ref_distance(u, v):
    pu, pv = u.split("/"), v.split("/")
    common = 0
    for a, b in zip(pu, pv):
        if a != b:
            break
        common += 1
    return len(pu) + len(pv) - 2 * common


def _in_subtree(tree, u, t):
    return tree.preorder[t] <= tree.preorder[u] < tree.subtree_end[t]


def _ref_subtree(tree, path, t):
    return frozenset(u for u in tree.nodes
                     if t == ROOT or u == t or path[u].startswith(path[t] + "/"))


def _kernel_trees():
    # labels holding "-" and "." sort before "/", so sorted order is not preorder
    odd = build_connecting_tree(["a", "a-b", "a.c"], ["x", "x-y"], 5)
    builds = [build_doc(chain_spec_doc(12)), build_doc(triangle_spec_doc(5)),
              build_doc(type2_spec_doc(8))]
    return [br.tree for br in builds] + [odd]


@pytest.mark.parametrize("tree", _kernel_trees(),
                         ids=["chain_k2", "c3_k2", "type2_k2", "dash_dot_labels"])
def test_tree_kernel_matches_label_path_reference(tree):
    nodes = tree.nodes
    at = label_paths(tree)
    assert list(nodes) == sorted(nodes)
    assert tree.frontier == {u for u in nodes if _ref_depth(at[u]) == tree.depth}
    for u in nodes:
        assert tree.node_depth(u) == _ref_depth(at[u])
        assert {v for v in nodes if _in_subtree(tree, v, u)} == _ref_subtree(tree, at, u)
        for radius in range(-1, 2 * tree.depth + 2):
            assert tree.nodes_within(u, radius) == tuple(
                v for v in nodes if _ref_distance(at[u], at[v]) <= radius)
            assert tree.nodes_at(u, radius) == tuple(
                v for v in nodes if _ref_distance(at[u], at[v]) == radius)
        for v in nodes:
            path = tree.path(u, v)
            assert _ref_distance(at[u], at[v]) == len(path) - 1
            assert path[0] == u and path[-1] == v
            assert all(tree.parent.get(a) == b or tree.parent.get(b) == a
                       for a, b in zip(path, path[1:]))
            assert path == tree.path(v, u)[::-1]


def test_tree_semiregularity_names_the_first_bad_node():
    """A hand-built tree whose labels go wrong at two nodes: n06 hands a
    child a label it already uses, and n11 sends one back to its parent
    that its child has.  The check reads each node's labels in ``nodes``
    order, names n06, and names n11 once n06 is mended."""
    t = build_connecting_tree(["0", "1", "2"], ["0", "1"], 3)

    def relabelled(up: dict, down: dict) -> ConnectingTree:
        return ConnectingTree(t.labels1, t.labels2, t.depth, t.nodes, t.node_side, t.parent,
                              t.children, {**t.up_label, **up}, {**t.down_label, **down},
                              t.level, t.preorder, t.subtree_end, t.type2_J)
    assert t.is_semiregular() == (True, "")
    assert relabelled({"n11": "1"}, {"n05": "1"}).is_semiregular() == (
        False, "node 'n06' uses labels ['0', '1', '1'], wanted each of ['0', '1', '2'] once")
    assert relabelled({"n11": "1"}, {}).is_semiregular() == (
        False, "node 'n11' uses labels ['1', '1'], wanted each of ['0', '1'] once")
    assert "out_label" not in vars(t)


def test_tree_entry_and_return_labels():
    t = numbered_tree(3, 2, 2)
    child = path_ids(t)[ROOT + "/0"]
    assert ROOT not in t.up_label
    assert t.out_label[(ROOT, child)] == "0"
    # The return direction takes the least label still free.
    assert t.up_label[child] in ("x", "y", "0", "1")
    grand = t.children[child][0]
    assert t.node_depth(grand) == 2
    assert t.parent[grand] == child


def test_tree_neighbour_by_label():
    for tree in (numbered_tree(3, 2, 4), numbered_tree(2, 2, 5, type2_J=["0"])):
        for w, u in tree.parent.items():
            assert tree.across(u, tree.out_label[(u, w)]) == w
            assert tree.across(w, tree.out_label[(w, u)]) == u
        assert len(tree.out_label) == 2 * (len(tree.nodes) - 1)
        # a frontier node's child labels lead off the truncation
        for u in tree.frontier:
            mine = tree.labels1 if tree.node_side[u] == 1 else tree.labels2
            assert [tree.across(u, k) for k in mine if k != tree.up_label[u]] == \
                [None] * (len(mine) - 1)


def test_tree_rejects_bad_labels():
    with pytest.raises(ConfigError):
        build_connecting_tree(["a/b", "c"], ["0", "1"], 2)
    with pytest.raises(ConfigError):
        build_connecting_tree(["a", "b"], ["x:y", "z"], 2)
    with pytest.raises(PreconditionError):
        build_connecting_tree([], ["0", "1"], 2)
    with pytest.raises(PreconditionError):
        numbered_tree(2, 2, -1)
    # a repeated label would give one node two edges by it
    with pytest.raises(PreconditionError):
        build_connecting_tree(("0", "0"), ("1",), 3)
    with pytest.raises(PreconditionError):
        build_connecting_tree(("0", "1"), ("x", "y", "x"), 3)


def test_tree_alternating_class_must_be_proper():
    with pytest.raises(ConfigError):
        numbered_tree(2, 2, 3, type2_J=[])
    with pytest.raises(ConfigError):
        numbered_tree(2, 2, 3, type2_J=["0", "1"])
    with pytest.raises(ConfigError):
        numbered_tree(3, 2, 3, type2_J=["0"])
    t = numbered_tree(2, 2, 6, type2_J=["0"])
    assert len(t.nodes) == 13


# -- bonding atlases -------------------------------------------------------------


def test_atlas_reverse_lookup():
    atlas = BondingAtlas({("0", "z"): {"a": "x", "b": "y"}})
    assert atlas.map_for("0", "z") == {"a": "x", "b": "y"}
    assert atlas.map_for("z", "0") == {"x": "a", "y": "b"}
    assert atlas.has("z", "0")
    with pytest.raises(ConfigError):
        atlas.map_for("0", "q")


def test_atlas_json_parsing_errors():
    with pytest.raises(ConfigError):
        BondingAtlas.from_json_list([{"left": "0", "pairs": []}])
    with pytest.raises(ConfigError):
        BondingAtlas.from_json_list([{"left": "0", "right": "1",
                                      "pairs": [["a", "b", "c"]]}])
    with pytest.raises(ConfigError):
        BondingAtlas.from_json_list([{"left": "0", "right": "1",
                                      "pairs": [["a", "b"], ["a", "c"]]}])
    doc = [{"left": "0", "right": "1", "pairs": [["a", "b"]]}]
    with pytest.raises(ConfigError):
        BondingAtlas.from_json_list(doc + doc)
    atlas = BondingAtlas.from_json_list(doc)
    assert atlas.entries == {("0", "1"): {"a": "b"}}


def test_atlas_validation_problems():
    g1 = line_graph(4, "u")
    g2 = line_graph(4, "w")
    adh1 = AdhesionFamily(g1, {"0": ["u0", "u1"]})
    adh2 = AdhesionFamily(g2, {"z": ["w0", "w1"]})
    good = BondingAtlas({("0", "z"): {"u0": "w0", "u1": "w1"}})
    assert validate_bonding_atlas(good, adh1, adh2).ok

    wrong_domain = BondingAtlas({("0", "z"): {"u0": "w0", "u2": "w1"}})
    rep = validate_bonding_atlas(wrong_domain, adh1, adh2)
    assert not rep.ok and any("domain" in p for p in rep.problems)

    not_onto = BondingAtlas({("0", "z"): {"u0": "w0", "u1": "w0"}})
    rep = validate_bonding_atlas(not_onto, adh1, adh2)
    assert not rep.ok and any("onto" in p for p in rep.problems)

    not_inverse = BondingAtlas({("0", "z"): {"u0": "w0", "u1": "w1"},
                                ("z", "0"): {"w0": "u1", "w1": "u0"}})
    rep = validate_bonding_atlas(not_inverse, adh1, adh2)
    assert not rep.ok and any("inverse" in p for p in rep.problems)

    rep = validate_bonding_atlas(BondingAtlas({}), adh1, adh2)
    assert not rep.ok and any("missing" in p for p in rep.problems)

    mixed = AdhesionFamily(g2, {"z": ["w0"]})
    rep = validate_bonding_atlas(good, adh1, mixed)
    assert not rep.ok and any("cardinalit" in p for p in rep.problems)


def test_adhesion_family_validation():
    g = line_graph(3)
    fam = AdhesionFamily(g, {"0": ["p0"], "1": ["p2"]})
    assert fam["0"] == frozenset({"p0"})
    with pytest.raises(ConfigError):
        fam["missing"]
    with pytest.raises(ConfigError):
        AdhesionFamily(g, {})
    with pytest.raises(ConfigError):
        AdhesionFamily(g, {"0": []})
    with pytest.raises(ConfigError):
        AdhesionFamily(g, {"a/b": ["p0"]})
    with pytest.raises(ConfigError):
        AdhesionFamily(g, {"0": ["nope"]})


def test_adhesion_family_rejects_non_list_sets():
    g = af.FiniteGraph(["x", "y", "xy"], [("x", "y"), ("y", "xy")])
    with pytest.raises(ConfigError):
        AdhesionFamily(g, {"0": "xy"})  # not read as {"x", "y"}
    with pytest.raises(ConfigError):
        AdhesionFamily(g, {"0": 3})
    with pytest.raises(ConfigError):
        AdhesionFamily(g, [["x"]])
    assert AdhesionFamily(g, {"0": ["xy"]})["0"] == frozenset({"xy"})


# -- sum graph and contraction ----------------------------------------------------


def test_copy_vertex_round_trip():
    vid = copy_vertex("t1/0/1", "a")
    assert vid == "t1/0/1:a"
    assert split_vertex_id(vid) == ("t1/0/1", "a")


def test_chain_build_shapes(chain6):
    assert len(chain6.tree.nodes) == 13
    assert len(chain6.sum.graph) == 26
    assert len(chain6.sum.bridges) == 12
    am = chain6.amalgam.graph
    assert len(am) == 14
    degrees = sorted(len(am.adjacency[v]) for v in am.vertices)
    assert degrees == [1, 1] + [2] * 12  # an unbranched path
    assert am.diameter(am.vertices) == 13
    assert chain6.max_id_size == 2
    assert not chain6.trivial
    report = chain6.report_dict()
    assert report["sum_vertices"] == 26
    assert report["amalgam_vertices"] == 14
    assert report["tree_semiregular"]["ok"]
    assert report["atlas"]["ok"]


def test_triangle_build_shapes(triangle8):
    assert len(triangle8.tree.nodes) == 91
    assert len(triangle8.sum.graph) == 228
    assert not triangle8.trivial


def test_type2_build_shapes(type2_6):
    assert len(type2_6.tree.nodes) == 13
    assert len(type2_6.sum.graph) == 26
    assert len(type2_6.amalgam.graph) == 14
    assert type2_6.spec.type2_J == frozenset({"0"})


def test_sum_graph_accessors(chain6):
    h = chain6.sum
    assert set(h.copy_vertices(ROOT)) == {"t1:a", "t1:b"}
    assert h.node_of("t1:a") == ROOT
    over = h.vertices_over([ROOT])
    assert over == frozenset({"t1:a", "t1:b"})


def test_projection_never_stretches(chain6):
    h, tree = chain6.sum, chain6.tree
    vids = sorted(h.graph.vertices)
    for u, v in itertools.combinations(vids, 2):
        d_h = h.graph.distances_from(u).get(v, af.INF)
        assert len(tree.path(h.node_of(u), h.node_of(v))) - 1 <= d_h


def test_amalgam_fibers(chain6):
    a = chain6.amalgam
    for amid in a.graph.vertices:
        fiber = a.fibers[amid]
        assert fiber
        assert {a.projection[v] for v in fiber} == {amid}
        assert {chain6.sum.node_of(v) for v in fiber} <= set(chain6.tree.nodes)
    sizes = {amid: len(a.fibers[amid]) for amid in a.graph.vertices}
    assert chain6.max_id_size == 2
    assert set(sizes.values()) <= {1, 2}
    # Interior identifications glue exactly two copies.
    assert sum(1 for s in sizes.values() if s == 2) == 12


def _assert_contraction_matches_the_union_find(h: SumGraph) -> int:
    """The contraction against the union-find reference, field by field;
    returns the largest fiber."""
    got, want = contract_to_amalgam(h), reference_contract_to_amalgam(h)
    assert got.projection == want.projection
    assert got.fibers == want.fibers
    assert got.graph.vertices == want.graph.vertices
    assert got.graph.edges == want.graph.edges
    assert list(got.graph.adjacency.items()) == list(want.graph.adjacency.items())
    # a fiber meets each copy at most once, so its size counts its nodes
    sizes = {amid: len(fiber) for amid, fiber in got.fibers.items()}
    assert sizes == {amid: len({h.node_of(v) for v in fiber})
                     for amid, fiber in sorted(want.fibers.items())}
    return max(sizes.values(), default=0)


def test_contraction_matches_the_union_find_reference():
    """The ladder documents, ``type2_k2``, builds bridged from the side-2 end,
    and seeded random specs, among them the class whose fibers grow with the
    depth (a boundary set repeated on both sides)."""
    docs = [chain_spec_doc(d) for d in (0, 1, 40, 400)]
    docs += [triangle_spec_doc(d) for d in (0, 1, 8, 12)] + [type2_spec_doc(8)]
    for doc in docs:
        _assert_contraction_matches_the_union_find(build_doc(doc).sum)
    rng = random.Random(2026)
    randoms = [random_spec_doc(rng) for _ in range(120)]
    for doc in [triangle_spec_doc(6), *randoms[:10]]:
        spec = AmalgamationSpec.from_json_dict(doc)
        tree = build_connecting_tree(spec.adh1.labels, spec.adh2.labels, 4)
        _assert_contraction_matches_the_union_find(build_sum_graph(
            spec.g1, spec.g2, spec.adh1, spec.adh2, spec.atlas, tree, flip_orientations=True))
    biggest = [_assert_contraction_matches_the_union_find(build_doc(doc, 6).sum)
               for doc in randoms]
    assert max(biggest) >= 31 and sum(b >= 31 for b in biggest) >= 4


def test_contraction_rejects_bridges_it_cannot_follow(chain6):
    """Bridges that run down the vertex list, a vertex with two bridges up,
    and a bridge from no vertex all raise instead of gluing wrongly."""
    h = chain6.sum
    last = h.graph.vertices[-1]
    low = next(a for a, b in h.bridges if b != last)
    for bridges in ([(b, a) for a, b in h.bridges], [*h.bridges, (low, last)],
                    [*h.bridges, ("nowhere", last)]):
        with pytest.raises(PreconditionError):
            contract_to_amalgam(SumGraph(h.graph, h.tree, tuple(bridges),
                                         copies_by_id(h.graph)))


def test_orientation_flip_same_edges(chain6):
    spec = chain6.spec
    tree = build_connecting_tree(spec.adh1.labels, spec.adh2.labels, 3)
    fwd = build_sum_graph(spec.g1, spec.g2, spec.adh1, spec.adh2, spec.atlas, tree)
    rev = build_sum_graph(spec.g1, spec.g2, spec.adh1, spec.adh2, spec.atlas, tree,
                          flip_orientations=True)
    assert fwd.graph.same_as(rev.graph)
    assert fwd.bridges == rev.bridges


def _random_build_doc(rng, alternating: bool) -> dict:
    """A random spec with the factor vertices listed in shuffled order,
    some of their names holding ``:``, and bijections between random
    equal-size boundary sets; ``alternating`` gives one shared factor
    under a random alternating class."""
    def factor(n, prefix):
        names = [f"{prefix}{i}" if rng.random() < 0.5 else f"{prefix}:{i}:{prefix}"
                 for i in range(n)]
        edges = {tuple(sorted((names[rng.randrange(i)], names[i]))) for i in range(1, n)}
        for _ in range(rng.randint(0, n) if n > 1 else 0):
            edges.add(tuple(sorted(rng.sample(names, 2))))
        rng.shuffle(names)
        return {"vertices": names, "edges": [list(e) for e in edges]}

    k = rng.randint(1, 3)
    p1 = rng.randint(2 if alternating else 1, 4)
    g1 = factor(rng.randint(k, 7), "a")
    adh1 = {str(i): rng.sample(g1["vertices"], k) for i in range(p1)}
    tree = {"p1": p1, "depth": rng.randint(0, 6)}
    if alternating:
        labels = sorted(adh1)
        J = rng.sample(labels, rng.randint(1, p1 - 1))
        pairs = [(l1, l2) for l1 in J for l2 in labels if l2 not in J]
        factors, adhesions, sets2 = [g1], [adh1], adh1
        tree.update(p2=p1, type2_J=J)
    else:
        g2 = factor(rng.randint(k, 6), "b")
        sets2 = {chr(ord("x") - i): rng.sample(g2["vertices"], k)
                 for i in range(rng.randint(1, 3))}
        pairs = [(l1, l2) for l1 in adh1 for l2 in sets2]
        factors, adhesions = [g1, g2], [adh1, sets2]
        tree.update(p2=len(sets2))
    atlas = [{"left": l1, "right": l2,
              "pairs": [list(xy) for xy in zip(adh1[l1], rng.sample(sets2[l2], k))]}
             for l1, l2 in pairs]
    return {"name": "random", "factors": factors, "adhesions": adhesions, "atlas": atlas,
            "actions": {"mode": "trivial"}, "tree": tree}


TREE_FIELDS = ("labels1", "labels2", "depth", "nodes", "node_side", "parent", "children",
               "up_label", "down_label", "out_label", "level", "preorder", "subtree_end",
               "type2_J", "node_set", "frontier")


def _assert_same_records(got, want, fields):
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a == b, name
        if isinstance(a, dict):
            assert list(a) == list(b), name


def test_build_matches_the_edge_list_reference():
    """Seeded random specs, alternating ones among them, against the stack
    walk and the edge-list sum graph, both orientations, record by record
    and in dict insertion order."""
    rng = random.Random(20261019)
    # a one-vertex first factor: at depth 0 the root's vertex has no neighbour
    lone = {"name": "lone", "factors": [{"vertices": ["w"], "edges": []},
                                        {"vertices": ["c", "d"], "edges": [["c", "d"]]}],
            "adhesions": [{"z": ["w"]}, {"0": ["c"], "1": ["c"]}],
            "atlas": [{"left": "z", "right": k, "pairs": [["w", "c"]]} for k in "01"],
            "tree": {"p1": 1, "p2": 2, "depth": 0}}
    docs = [chain_spec_doc(0), chain_spec_doc(9), triangle_spec_doc(6), type2_spec_doc(8), lone,
            {**lone, "tree": {"p1": 1, "p2": 2, "depth": 3}}]
    docs += [_random_build_doc(rng, alternating=i % 3 == 0) for i in range(60)]
    assert any(":" in v for doc in docs for f in doc["factors"] for v in f["vertices"])
    for doc in docs:
        spec = AmalgamationSpec.from_json_dict(doc)
        assert validate_bonding_atlas(spec.atlas, spec.adh1, spec.adh2, spec.type2_J).ok
        args = (spec.adh1.labels, spec.adh2.labels, spec.depth, spec.type2_J)
        tree = build_connecting_tree(*args)
        _assert_same_records(tree, reference_connecting_tree(*args), TREE_FIELDS)
        for flip in (False, True):
            parts = (spec.g1, spec.g2, spec.adh1, spec.adh2, spec.atlas, tree)
            got, want = build_sum_graph(*parts, flip), reference_sum_graph(*parts, flip)
            _assert_same_records(got.graph, want.graph,
                                 ("vertices", "vertex_set", "edges", "adjacency"))
            _assert_same_records(got, want, ("bridges", "copies"))


@pytest.mark.parametrize("flip", [False, True])
def test_sum_graph_rejects_a_bridge_off_the_factor(flip):
    """Atlases doctored past validation, handed straight to the builder:
    wherever the edge-list graph rejects a stray bridge, the build raises
    the same message.  Each seeded spec has one atlas entry doctored, a
    value sent off the factor or a key moved off its adhesion set; a map
    the reference cannot apply (``KeyError``) is skipped."""
    spec = AmalgamationSpec.from_json_dict(triangle_spec_doc(3))
    entries = {pair: dict(m) for pair, m in spec.atlas.entries.items()}
    if flip:
        entries[("x", "2")] = {"x": "5"}
    else:
        entries[("2", "x")] = {"2": "z"}
    cases = [(spec, BondingAtlas(entries))]
    rng = random.Random(7)
    for i in range(255):
        spec = AmalgamationSpec.from_json_dict(_random_build_doc(rng, alternating=i % 3 == 0))
        entries = {pair: dict(m) for pair, m in spec.atlas.entries.items()}
        m = entries[rng.choice(sorted(entries))]
        x = rng.choice(sorted(m))
        if rng.random() < 0.5:
            m[x] = "stray"
        else:
            m["stray"] = m.pop(x)
        cases.append((spec, BondingAtlas(entries)))
    raised = 0
    for spec, atlas in cases:
        tree = build_connecting_tree(spec.adh1.labels, spec.adh2.labels, spec.depth,
                                     spec.type2_J)
        parts = (spec.g1, spec.g2, spec.adh1, spec.adh2, atlas, tree, flip)
        try:
            reference_sum_graph(*parts)
        except KeyError:
            continue
        except GraphFormatError as want:
            with pytest.raises(GraphFormatError) as got:
                build_sum_graph(*parts)
            assert str(got.value) == str(want)
            raised += 1
    assert raised > 50


def test_single_gluing_and_trivial_projection():
    doc = {
        "name": "one-glue",
        "factors": [{"vertices": ["a", "b"], "edges": [["a", "b"]]},
                    {"vertices": ["x", "y"], "edges": [["x", "y"]]}],
        "adhesions": [{"0": ["a"]}, {"z": ["x"]}],
        "atlas": [{"left": "0", "right": "z", "pairs": [["a", "x"]]}],
        "tree": {"p1": 1, "p2": 1, "depth": 1},
        "actions": {"mode": "trivial"},
    }
    br = build_doc(doc)
    assert len(br.tree.nodes) == 2
    assert len(br.sum.graph) == 4
    assert len(br.sum.bridges) == 1
    assert len(br.amalgam.graph) == 3
    # Depth zero leaves the bare root copy.
    br0 = build_doc(doc, depth=0)
    assert len(br0.amalgam.graph) == 2
    assert br0.trivial


def test_star_center_fiber():
    doc = {
        "name": "star",
        "factors": [{"vertices": ["c", "d"], "edges": [["c", "d"]]},
                    {"vertices": ["w"], "edges": []}],
        "adhesions": [{k: ["c"] for k in "0123"}, {"z": ["w"]}],
        "atlas": [{"left": k, "right": "z", "pairs": [["c", "w"]]} for k in "0123"],
        "tree": {"p1": 4, "p2": 1, "depth": 2},
        "actions": {"mode": "trivial"},
    }
    br = build_doc(doc)
    assert len(br.tree.nodes) == 5
    assert len(br.sum.graph) == 6
    center = br.amalgam.projection["t1:c"]
    assert len(br.amalgam.fibers[center]) == 5
    assert len(br.amalgam.graph) == 2
    assert br.trivial  # the root copy already covers both classes


def test_check_trivial_false_on_growing_chain(chain6):
    assert not chain6.trivial


# -- symmetry bookkeeping ---------------------------------------------------------


def test_orbit_representatives_trivial_action():
    g = line_graph(4)
    fam = AdhesionFamily(g, {"0": ["p0"], "1": ["p3"]})
    reps, rep_map = select_orbit_representatives(fam, GroupAction.trivial(g))
    assert reps == ("0", "1")
    assert rep_map == {"0": "0", "1": "1"}


def test_orbit_representatives_fold_by_symmetry():
    g = ring_graph(4)
    fam = AdhesionFamily(g, {"e0": ["c0", "c1"], "e2": ["c2", "c3"]})
    half_turn = {"c0": "c2", "c1": "c3", "c2": "c0", "c3": "c1"}
    act = GroupAction.from_generators(g, [half_turn])
    reps, rep_map = select_orbit_representatives(fam, act)
    assert reps == ("e0",)
    assert rep_map == {"e0": "e0", "e2": "e0"}


def test_orbit_representatives_reject_wandering_sets():
    g = ring_graph(4)
    fam = AdhesionFamily(g, {"e0": ["c0", "c1"], "e2": ["c2", "c3"]})
    quarter = {"c0": "c1", "c1": "c2", "c2": "c3", "c3": "c0"}
    act = GroupAction.from_generators(g, [quarter])
    with pytest.raises(PreconditionError):
        select_orbit_representatives(fam, act)


# -- document parsing --------------------------------------------------------------


def test_spec_document_errors():
    base = chain_spec_doc(4)

    def broken(**changes):
        doc = dict(base)
        doc.update(changes)
        return doc

    with pytest.raises(ConfigError):
        AmalgamationSpec.from_json_dict(broken(factors=[]))
    with pytest.raises(ConfigError):
        AmalgamationSpec.from_json_dict(
            broken(factors=base["factors"] + [base["factors"][0]]))
    with pytest.raises(ConfigError):
        AmalgamationSpec.from_json_dict(broken(factors=[base["factors"][0]]))
    with pytest.raises(ConfigError):
        AmalgamationSpec.from_json_dict(broken(adhesions=[base["adhesions"][0]]))
    with pytest.raises(ConfigError):
        AmalgamationSpec.from_json_dict(
            broken(tree={"p1": 3, "p2": 2, "depth": 4}))
    with pytest.raises(ConfigError):
        AmalgamationSpec.from_json_dict(
            broken(tree={"p1": 2, "p2": 2, "depth": 4, "type2_J": ["0"]}))
    with pytest.raises(ConfigError):
        AmalgamationSpec.from_json_dict(broken(asdim={"factor9": 1}))
    with pytest.raises(ConfigError):
        AmalgamationSpec.from_json_dict({"name": "x"})
    # a parsed document that is no object; text that is no JSON at all is
    # read_json's to reject (tests/test_cli.py, test_a_document_that_is_no_object_exits_2)
    for doc in ([1, 2], "{not json", None):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            AmalgamationSpec.from_json_dict(doc)


def rotating_cycle_doc(n: int) -> dict:
    """A cycle of n vertices glued at one vertex to an edge, with the
    rotation as factor 1's generator: the rotation moves the one adhesion
    set off the family, so the document is rejected."""
    names = cycle_graph_doc(n)["vertices"]
    return {"name": f"cycle{n}_rotation",
            "factors": [cycle_graph_doc(n), {"vertices": ["x", "y"], "edges": [["x", "y"]]}],
            "adhesions": [{"0": ["c0"]}, {"x": ["x"], "y": ["y"]}],
            "atlas": [{"left": "0", "right": l, "pairs": [["c0", l]]} for l in ("x", "y")],
            "tree": {"p1": 1, "p2": 2, "depth": 4},
            "actions": {"mode": "generators",
                        "factor1": [{names[i]: names[(i + 1) % n] for i in range(n)}],
                        "factor2": [{"x": "y", "y": "x"}]}}


def test_generators_are_checked_against_the_family_before_the_closure(monkeypatch):
    """A generator that moves an adhesion set off the family is rejected
    while the spec is parsed, before the group is closed: at n=500 the
    closure alone has a traced peak of 16.4 MB."""
    doc = rotating_cycle_doc(500)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError,
                           match="moves the '0' set off the adhesion family"):
            AmalgamationSpec.from_json_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16.4e6 / 4, peak

    def no_closure(*args):
        raise AssertionError("the group was closed")
    monkeypatch.setattr(GroupAction, "from_generators", no_closure)
    with pytest.raises(PreconditionError, match="off the adhesion family"):
        AmalgamationSpec.from_json_dict(rotating_cycle_doc(6))


def test_a_generator_that_is_no_automorphism_is_reported_first():
    """Even when it also moves a set off the family, and when it is a
    partial map, which the family check could not read."""
    names = cycle_graph_doc(6)["vertices"]
    for gen in ({**{v: v for v in names}, "c0": "c2", "c2": "c0"},  # moves c0 off too
                {"c0": "c1"},
                {"c0": "c1", "c1": "c0"}):
        doc = rotating_cycle_doc(6)
        doc["actions"]["factor1"] = [gen]
        with pytest.raises(PreconditionError, match="generator is not an automorphism"):
            AmalgamationSpec.from_json_dict(doc)


def test_build_rejects_invalid_atlas():
    doc = chain_spec_doc(4)
    doc["atlas"] = doc["atlas"][:3]
    with pytest.raises(ConfigError):
        build_doc(doc)


def test_orbit_representatives_on_builds(chain6, triangle8):
    assert chain6.reps1 == ("0",)
    assert chain6.rep_map1 == {"0": "0", "1": "0"}
    # The edge factor's swap folds both corner labels together; the
    # triangle's rotations fold all three.
    assert triangle8.reps1 == ("0",)
    assert triangle8.reps2 == ("x",)


def test_full_action_parsing(chain6):
    assert len(chain6.spec.action1) == 2
    assert len(chain6.spec.action2) == 2
    assert compute_automorphisms(chain6.spec.g1).elements == chain6.spec.action1.elements
