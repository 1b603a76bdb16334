from __future__ import annotations

import pytest

import kgraphs as kg
from kgraphs.groupoid import GroupoidElement
from kgraphs.skeleton import Degree

import oracles as orc


@pytest.fixture(scope="module")
def space_b(instance_b):
    return kg.enumerate_path_space(instance_b)


@pytest.fixture(scope="module")
def G_b(space_b):
    return kg.build_path_groupoid(space_b)


@pytest.fixture(scope="module")
def Gb_b(space_b):
    return kg.build_boundary_groupoid(space_b)


@pytest.fixture(scope="module")
def space_e(instance_e):
    return kg.enumerate_path_space(instance_e)


@pytest.fixture(scope="module")
def G_e(space_e):
    return kg.build_path_groupoid(space_e)


@pytest.fixture(scope="module")
def Gb_e(space_e):
    return kg.build_boundary_groupoid(space_e)


def labels(G, space, sk):
    """Human-readable labels: (x word or vertex, m, y word or vertex)."""

    def name(i):
        p = space.elements[i]
        return ".".join(p.word) if p.word else p.range

    return {(name(g.x), g.m, name(g.y)) for g in G.elements}


def test_two_vertex_groupoid_elements(instance_b, space_b, G_b):
    assert len(G_b) == 5
    got = labels(G_b, space_b, instance_b)
    assert got == {
        ("v", (0,), "v"),
        ("w", (0,), "w"),
        ("e", (0,), "e"),
        ("e", (1,), "w"),
        ("w", (-1,), "e"),
    }


def test_two_vertex_boundary_groupoid(instance_b, Gb_b):
    assert len(Gb_b) == 4
    got = labels(Gb_b, Gb_b.space, instance_b)
    assert got == {
        ("w", (0,), "w"),
        ("e", (0,), "e"),
        ("e", (1,), "w"),
        ("w", (-1,), "e"),
    }


def test_single_vertex_groupoid(edgeless):
    space = kg.enumerate_path_space(edgeless)
    G = kg.build_path_groupoid(space)
    assert len(G) == 1
    assert kg.build_boundary_groupoid(space).elements == G.elements


def test_three_vertex_line_groupoid(instance_e, space_e, G_e):
    # Every pair of paths with a common tail contributes: in an acyclic
    # rank-1 graph that is sum over vertices of (paths sourced there)^2,
    # here 1 + 4 + 9.
    assert len(G_e) == 14
    got = labels(G_e, space_e, instance_e)
    expected_nonunits = {
        ("f2.f3", (1,), "f3"),
        ("f3", (-1,), "f2.f3"),
        ("f2.f3", (2,), "v3"),
        ("v3", (-2,), "f2.f3"),
        ("f3", (1,), "v3"),
        ("v3", (-1,), "f3"),
        ("f2", (1,), "v2"),
        ("v2", (-1,), "f2"),
    }
    units = {(n, (0,), n) for n in ("v1", "v2", "v3", "f2", "f3", "f2.f3")}
    assert got == units | expected_nonunits


def test_groupoid_size_matches_source_fiber_count(instance_b, instance_e):
    # Independent count: principal acyclic case gives sum of squared
    # source-fiber sizes.
    for sk, G_size in ((instance_b, 5), (instance_e, 14)):
        by_source = {}
        for p in kg.enumerate_paths(sk):
            by_source.setdefault(kg.source(sk, p), []).append(p)
        assert sum(len(v) ** 2 for v in by_source.values()) == G_size
        space = kg.enumerate_path_space(sk)
        assert len(kg.build_path_groupoid(space)) == G_size


def test_boundary_line_groupoid_is_full_pair_groupoid(Gb_e):
    assert len(Gb_e) == 9
    n = len(Gb_e.space.elements)
    assert n == 3
    assert {(g.x, g.y) for g in Gb_e.elements} == {
        (i, j) for i in range(n) for j in range(n)
    }


def test_boundary_groupoid_is_restriction(space_e, G_e, Gb_e):
    boundary = set(Gb_e.space.elements)
    expected = set()
    for g in G_e.elements:
        xp = space_e.elements[g.x]
        yp = space_e.elements[g.y]
        if xp in boundary and yp in boundary:
            expected.add((xp, g.m, yp))
    got = {
        (Gb_e.space.elements[g.x], g.m, Gb_e.space.elements[g.y])
        for g in Gb_e.elements
    }
    assert got == expected


def test_composition_and_inverse(instance_b, space_b, G_b):
    e_idx = space_b.index_of(kg.edge_path(instance_b, "e"))
    w_idx = space_b.index_of(kg.vertex_path(instance_b, "w"))
    fwd = G_b.elements[G_b.index_of((e_idx, (1,), w_idx))]
    back = orc.invert_element(G_b, fwd)
    assert back.label() == (w_idx, (-1,), e_idx)
    unit = orc.compose_elements(G_b, fwd, back)
    assert unit.label() == (e_idx, (0,), e_idx)


def test_composition_in_line_groupoid(instance_e, space_e, G_e):
    f2f3 = kg.compose(
        instance_e, kg.edge_path(instance_e, "f2"), kg.edge_path(instance_e, "f3")
    )
    i_f2f3 = space_e.index_of(f2f3)
    i_f3 = space_e.index_of(kg.edge_path(instance_e, "f3"))
    i_v3 = space_e.index_of(kg.vertex_path(instance_e, "v3"))
    g1 = G_e.elements[G_e.index_of((i_f2f3, (1,), i_f3))]
    g2 = G_e.elements[G_e.index_of((i_f3, (1,), i_v3))]
    assert orc.compose_elements(G_e, g1, g2).label() == (i_f2f3, (2,), i_v3)


def test_composition_rejects_mismatch(G_b):
    g = next(g for g in G_b.elements if g.m == (1,))
    with pytest.raises(ValueError, match="not composable"):
        orc.compose_elements(G_b, g, g)


def test_axioms_pass(G_b, G_e, Gb_b, Gb_e):
    for G in (G_b, G_e, Gb_b, Gb_e):
        report = kg.verify_groupoid_axioms(G)
        assert report.passed, report.failures


def test_axioms_catch_dropped_inverse(space_b, G_b):
    broken = [g for g in G_b.elements if g.m != (-1,)]
    G = orc.LabelGroupoid(space_b, broken)
    report = kg.verify_groupoid_axioms(G)
    assert not report.passed
    assert any("inverse" in f or "composite" in f for f in report.failures)


def test_axioms_catch_bad_witness(space_b, G_b):
    elements = list(G_b.elements)
    target = next(i for i, g in enumerate(elements) if g.m == (1,))
    g = elements[target]
    elements[target] = GroupoidElement(
        g.x, g.m, g.y, witness=(Degree((0,)), Degree((0,)))
    )
    report = kg.verify_groupoid_axioms(orc.LabelGroupoid(space_b, elements))
    assert not report.passed
    assert any("witness" in f for f in report.failures)


def test_cylinder_of_edge_against_vertex(instance_b, space_b, G_b):
    e = kg.edge_path(instance_b, "e")
    w = kg.vertex_path(instance_b, "w")
    cyl = kg.cylinder(G_b, e, w)
    assert [G_b.elements[i].label() for i in cyl.members] == [
        (space_b.index_of(e), (1,), space_b.index_of(w))
    ]


def test_cylinder_of_vertex_is_local_units(instance_b, space_b, G_b):
    v = kg.vertex_path(instance_b, "v")
    cyl = kg.cylinder(G_b, v, v)
    got = {G_b.elements[i].label() for i in cyl.members}
    expected = {
        (i, (0,), i)
        for i, el in enumerate(space_b.elements)
        if el.range == "v"
    }
    assert got == expected


def test_cylinder_line_instance(instance_e, space_e, G_e):
    f2 = kg.edge_path(instance_e, "f2")
    cyl = kg.cylinder(G_e, f2, f2)
    got = {G_e.elements[i].label() for i in cyl.members}
    f2f3 = kg.compose(
        instance_e, f2, kg.edge_path(instance_e, "f3")
    )
    expected = {
        (space_e.index_of(f2), (0,), space_e.index_of(f2)),
        (space_e.index_of(f2f3), (0,), space_e.index_of(f2f3)),
    }
    assert got == expected


def test_cylinder_rejects_mismatched_sources(instance_e, G_e):
    f2 = kg.edge_path(instance_e, "f2")
    f3 = kg.edge_path(instance_e, "f3")
    with pytest.raises(ValueError, match="common source"):
        kg.cylinder(G_e, f2, f3)


def test_etale_structure(G_b, G_e, Gb_b, Gb_e):
    for G in (G_b, G_e, Gb_b, Gb_e):
        report = kg.verify_etale(G)
        assert report.passed, report.failures


def test_etale_on_two_unit_pair_groupoid(Gb_b):
    # The boundary groupoid of the one-edge graph is exactly the pair
    # groupoid on two units; a sanity control for the checker.
    assert len(Gb_b.space.elements) == 2
    assert {(g.x, g.y) for g in Gb_b.elements} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert kg.verify_etale(Gb_b).passed


def test_cocycle_reads_offset(G_b):
    g = next(g for g in G_b.elements if g.m == (1,))
    assert orc.cocycle(g) == (1,)


def test_cocycle_is_additive_and_antisymmetric(G_b, G_e, Gb_e):
    for G in (G_b, G_e, Gb_e):
        for g1 in G.elements:
            assert orc.cocycle(orc.invert_element(G, g1)) == tuple(
                -c for c in orc.cocycle(g1)
            )
            for g2 in G.elements:
                if g1.y != g2.x:
                    continue
                combined = orc.compose_elements(G, g1, g2)
                assert orc.cocycle(combined) == tuple(
                    a + b for a, b in zip(orc.cocycle(g1), orc.cocycle(g2))
                )


def test_orbits_of_boundary_groupoid(Gb_b):
    assert kg.orbits(Gb_b) == ((0, 1),)


def test_orbits_of_line_groupoid(instance_e, space_e, G_e):
    parts = kg.orbits(G_e)
    by_path = {}
    for part in parts:
        for i in part:
            by_path[space_e.elements[i]] = part
    # The vertex path at v1 has no tail in common with anything else.
    v1 = kg.vertex_path(instance_e, "v1")
    assert by_path[v1] == (space_e.index_of(v1),)
    # f2 and v2 share a tail, as do f2.f3, f3, v3.
    f2 = kg.edge_path(instance_e, "f2")
    v2 = kg.vertex_path(instance_e, "v2")
    assert by_path[f2] == by_path[v2]
    f3 = kg.edge_path(instance_e, "f3")
    v3 = kg.vertex_path(instance_e, "v3")
    f2f3 = kg.compose(instance_e, f2, f3)
    assert by_path[f3] == by_path[v3] == by_path[f2f3]


def test_isotropy_trivial_on_acyclic(G_b, G_e, Gb_e):
    for G in (G_b, G_e, Gb_e):
        for u in range(len(G.space.elements)):
            assert [g.m for g in orc.isotropy(G, u)] == [(0,) * G.rank]


def test_truncated_build_is_flagged(instance_a):
    space = kg.enumerate_path_space(instance_a, bound=Degree((1, 1)))
    G = kg.build_path_groupoid(space)
    assert not G.complete
    assert len(G) >= len(space.elements)


def test_elements_sorted_and_deduplicated(G_e):
    labels_list = [g.label() for g in G_e.elements]
    assert labels_list == sorted(labels_list)
    assert len(set(labels_list)) == len(labels_list)


def test_serialization_is_deterministic(G_b):
    assert G_b.to_json() == G_b.to_json()
    assert [e["unit"] for e in G_b.to_json()["elements"]].count(True) == 3
