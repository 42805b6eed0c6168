"""Permutation groups acting on graphs: search, closure, stabilizers."""

import pytest

import asdimforge as af
from asdimforge import groups
from asdimforge.errors import PreconditionError
from asdimforge.groups import (GroupAction, compose, compute_automorphisms,
                               invert, is_automorphism)

from conftest import complete_graph, line_graph, ring_graph


def test_perm_algebra():
    a = {"x": "y", "y": "z", "z": "x"}
    b = {"x": "x", "y": "z", "z": "y"}
    assert compose(a, b) == {"x": "y", "y": "x", "z": "z"}
    assert invert(a) == {"y": "x", "z": "y", "x": "z"}
    assert compose(a, invert(a)) == {v: v for v in a}


def test_is_automorphism():
    g = line_graph(3)
    flip = {"p0": "p2", "p1": "p1", "p2": "p0"}
    assert is_automorphism(g, flip)
    assert not is_automorphism(g, {"p0": "p1", "p1": "p0", "p2": "p2"})
    assert not is_automorphism(g, {"p0": "p0"})  # not a total map


def test_full_automorphism_groups():
    assert len(compute_automorphisms(complete_graph(3))) == 6
    assert len(compute_automorphisms(line_graph(2))) == 2
    p3 = compute_automorphisms(line_graph(3))
    assert len(p3) == 2
    assert set(p3.orbits()) == {frozenset({"p0", "p2"}),
                                      frozenset({"p1"})}
    # Dihedral group of the 7-ring: 7 rotations and 7 reflections.
    c7 = compute_automorphisms(ring_graph(7))
    assert len(c7) == 14
    assert c7.orbits() == (frozenset(f"c{i}" for i in range(7)),)


def test_trivial_action():
    g = line_graph(4)
    t = GroupAction.trivial(g)
    assert len(t) == 1
    assert t.orbits() == tuple(frozenset({v}) for v in sorted(g.vertices))


def test_from_generators_closure():
    g = ring_graph(4)
    rot = {"c0": "c1", "c1": "c2", "c2": "c3", "c3": "c0"}
    act = GroupAction.from_generators(g, [rot])
    assert len(act) == 4
    assert {v: v for v in g.vertices} in act.elements
    assert compose(rot, rot) in act.elements
    with pytest.raises(PreconditionError):
        GroupAction.from_generators(g, [{"c0": "c1", "c1": "c0",
                                         "c2": "c2", "c3": "c3"}])


def test_group_cap(monkeypatch):
    monkeypatch.setattr(groups, "GROUP_CAP", 100)
    with pytest.raises(PreconditionError):
        compute_automorphisms(complete_graph(9))


def test_set_orbit():
    g = ring_graph(4)
    full = compute_automorphisms(g)
    orbit = full.set_orbit(frozenset({"c0", "c1"}))
    assert orbit == {frozenset({"c0", "c1"}), frozenset({"c1", "c2"}),
                     frozenset({"c2", "c3"}), frozenset({"c3", "c0"})}


def test_json_round_trip():
    act = compute_automorphisms(line_graph(3))
    doc = act.to_json_dict()
    assert doc["order"] == 2
    assert sorted(doc["vertex_order"]) == ["p0", "p1", "p2"]
    assert len(doc["elements"]) == 2
