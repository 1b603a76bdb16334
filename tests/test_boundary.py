from __future__ import annotations

import json
import sys
from itertools import combinations

import pytest

import kgraphs as kg
from kgraphs.boundary_text import boundary_chunks
from kgraphs.skeleton import Degree, ExactModeError, degree_box

import oracles as orc
from conftest import line_document
from test_element_json import written_records


# --- vertex classification ------------------------------------------------


def test_classification_two_vertex(instance_b):
    classes = kg.classify_vertices(instance_b)
    assert classes.sources == ("w",)
    assert classes.finitely_receiving == ("v", "w")
    assert classes.regular == ("v",)


def test_classification_loops(instance_a):
    classes = kg.classify_vertices(instance_a)
    assert classes.sources == ()
    assert classes.regular == ("u",)


def test_classification_edgeless(edgeless):
    classes = kg.classify_vertices(edgeless)
    assert classes.regular == ()
    assert classes.sources == ("u",)


def test_classification_partitions_vertices(instance_b, instance_e, instance_a):
    for sk in (instance_b, instance_e, instance_a):
        classes = kg.classify_vertices(sk)
        assert sorted(classes.sources + classes.regular) == sorted(
            v.id for v in sk.vertices
        )
        assert not set(classes.sources) & set(classes.regular)


# --- exhaustiveness ---------------------------------------------------


def test_edge_is_exhaustive_at_its_range(instance_b):
    e = kg.edge_path(instance_b, "e")
    assert kg.is_exhaustive(instance_b, "v", [e]).status == "exhaustive"


def test_vertex_path_always_exhaustive(instance_b):
    v = kg.vertex_path(instance_b, "v")
    assert kg.is_exhaustive(instance_b, "v", [v]).status == "exhaustive"


def test_empty_set_is_not_exhaustive(instance_b):
    result = kg.is_exhaustive(instance_b, "w", [])
    assert result.status == "not_exhaustive"
    assert result.witness == kg.vertex_path(instance_b, "w")


def test_exhaustive_rejects_foreign_members(instance_b):
    e = kg.edge_path(instance_b, "e")
    with pytest.raises(ValueError, match="ranges at"):
        kg.is_exhaustive(instance_b, "w", [e])


def test_exact_exhaustiveness_needs_finite_path_set(instance_a):
    u = kg.vertex_path(instance_a, "u")
    with pytest.raises(ExactModeError):
        kg.is_exhaustive(instance_a, "u", [u])


def test_bounded_mode_gives_witness_or_unknown(instance_a, instance_b):
    b = kg.edge_path(instance_a, "b")
    result = kg.is_exhaustive(instance_a, "u", [b], bound=Degree((1, 1)))
    assert result.status == "unknown"
    result = kg.is_exhaustive(instance_b, "w", [], bound=Degree((1,)))
    assert result.status == "not_exhaustive"


def test_bounded_witnesses_confirmed_exactly(instance_b, instance_e):
    # On acyclic instances a bounded refutation must agree with exact mode.
    for sk in (instance_b, instance_e):
        for v in sk.vertices:
            pool = kg.paths_with_range(sk, v.id)
            for size in range(len(pool) + 1):
                for combo in combinations(pool, size):
                    bounded = kg.is_exhaustive(sk, v.id, combo, bound=Degree((2,)))
                    exact = kg.is_exhaustive(sk, v.id, combo)
                    if bounded.status == "not_exhaustive":
                        assert exact.status == "not_exhaustive"


def test_exhaustivity_is_monotone(instance_b, instance_e):
    for sk in (instance_b, instance_e):
        for v in sk.vertices:
            pool = kg.paths_with_range(sk, v.id)
            assert len(pool) <= 12
            statuses = {}
            for size in range(len(pool) + 1):
                for combo in combinations(range(len(pool)), size):
                    result = kg.is_exhaustive(sk, v.id, [pool[i] for i in combo])
                    statuses[combo] = result.status == "exhaustive"
            for combo, good in statuses.items():
                if not good:
                    continue
                for other, verdict in statuses.items():
                    if set(combo) <= set(other):
                        assert verdict


def test_minimal_sets_two_vertex(instance_b):
    sets_v = kg.minimal_exhaustive_sets(instance_b, "v")
    members = {s.members for s in sets_v}
    v = kg.vertex_path(instance_b, "v")
    e = kg.edge_path(instance_b, "e")
    assert members == {(v,), (e,)}
    sets_w = kg.minimal_exhaustive_sets(instance_b, "w")
    assert [s.members for s in sets_w] == [(kg.vertex_path(instance_b, "w"),)]


def test_minimal_sets_edgeless(edgeless):
    sets_u = kg.minimal_exhaustive_sets(edgeless, "u")
    assert [s.members for s in sets_u] == [(kg.vertex_path(edgeless, "u"),)]


def test_minimal_sets_are_an_antichain(instance_e):
    for v in instance_e.vertices:
        sets_v = [set(s.members) for s in kg.minimal_exhaustive_sets(instance_e, v.id)]
        for a in sets_v:
            for b in sets_v:
                assert a == b or not a <= b


# --- path space enumeration -------------------------------------------


def test_exact_space_two_vertex(instance_b):
    space = kg.enumerate_path_space(instance_b)
    assert len(space) == 3
    assert set(space) == {
        kg.vertex_path(instance_b, "v"),
        kg.vertex_path(instance_b, "w"),
        kg.edge_path(instance_b, "e"),
    }


def test_exact_space_rejects_cycles(instance_a):
    with pytest.raises(ExactModeError, match="truncation bound"):
        kg.enumerate_path_space(instance_a)


def test_exact_space_edgeless(edgeless):
    space = kg.enumerate_path_space(edgeless)
    assert list(space) == [kg.vertex_path(edgeless, "u")]


def test_truncated_space_of_commuting_loops(instance_a):
    space = kg.enumerate_path_space(instance_a, bound=Degree((1, 1)))
    assert len(space) == 4
    assert {el.degree.coords for el in space} == {(0, 0), (1, 0), (0, 1), (1, 1)}
    for marked in written_records(space):
        assert marked["truncated"] is True
        assert marked["extendable"] == [True, True]
        assert marked["degree"] == ["inf", "inf"]


def test_truncated_markers_honest_on_acyclic(instance_e):
    space = kg.enumerate_path_space(instance_e, bound=Degree((1,)))
    for el, marked in zip(space, written_records(space)):
        assert marked["degree"] == [el.degree.coords[0]]
        tail = kg.source(instance_e, el)
        assert marked["extendable"] == [bool(instance_e.edges_by_range[tail])]


def test_element_prefix_tables_cohere(instance_e):
    space = kg.enumerate_path_space(instance_e)
    for el, row, marked in zip(space, space.factors, written_records(space)):
        prefixes = marked["prefixes"]
        assert [m for m, _ in prefixes] == [list(m.coords) for m in degree_box(el.degree)]
        for m, prefix in prefixes:
            head, tail = kg.factorize(instance_e, el, Degree(tuple(m)))
            assert prefix == head.to_json() and head.degree.coords == tuple(m)
            assert row[tuple(m)] == (head, tail)


# --- shift and prepend -------------------------------------------------


def test_shift_to_source(instance_b):
    space = kg.enumerate_path_space(instance_b)
    e = space.elements[space.index_of(kg.edge_path(instance_b, "e"))]
    shifted = orc.shift(instance_b, e, Degree((1,)))
    assert shifted == kg.vertex_path(instance_b, "w")
    assert orc.shift(instance_b, e, Degree((0,))) == e


def test_shift_composes(instance_e):
    space = kg.enumerate_path_space(instance_e)
    for el in space:
        for m in degree_box(el.degree):
            once = orc.shift(instance_e, el, m)
            for n in degree_box(once.degree):
                assert orc.shift(instance_e, once, n) == orc.shift(
                    instance_e, el, m + n
                )


def test_shift_rejects_overrun(instance_b):
    space = kg.enumerate_path_space(instance_b)
    v = space.elements[space.index_of(kg.vertex_path(instance_b, "v"))]
    with pytest.raises(ValueError, match="shift"):
        orc.shift(instance_b, v, Degree((1,)))


def test_shift_truncated_class(instance_a):
    space = kg.enumerate_path_space(instance_a, bound=Degree((1, 1)))
    full = next(el for el in space if el.degree == Degree((1, 1)))
    smaller = orc.shift(instance_a, full, Degree((1, 0)))
    assert smaller.degree == Degree((0, 1))
    marked = written_records(space)[space.index_of(smaller)]
    assert marked["truncated"] is True and marked["degree"] == ["inf", "inf"]


def test_prepend_identities(instance_b):
    space = kg.enumerate_path_space(instance_b)
    w = space.elements[space.index_of(kg.vertex_path(instance_b, "w"))]
    e = kg.edge_path(instance_b, "e")
    assert kg.prepend(instance_b, e, w) == e
    x = space.elements[space.index_of(e)]
    assert kg.prepend(instance_b, kg.vertex_path(instance_b, "v"), x) == x


def test_prepend_then_shift_recovers(instance_a):
    space = kg.enumerate_path_space(instance_a, bound=Degree((0, 1)))
    r_el = next(el for el in space if el == kg.edge_path(instance_a, "r"))
    b = kg.edge_path(instance_a, "b")
    combined = kg.prepend(instance_a, b, r_el)
    assert combined.degree == Degree((1, 1))
    assert orc.shift(instance_a, combined, b.degree) == r_el


# --- boundary membership ------------------------------------------------


def test_boundary_verdicts_two_vertex(instance_b):
    space = kg.enumerate_path_space(instance_b)
    e = kg.edge_path(instance_b, "e")
    v = kg.vertex_path(instance_b, "v")
    w = kg.vertex_path(instance_b, "w")
    ok, cert = orc.is_boundary(space, e)
    assert ok and cert.status == "boundary"
    bad, cert = orc.is_boundary(space, v)
    assert bad is False
    failing = cert.entries[-1]
    assert failing.witness is None
    assert failing.members == (e,)
    assert failing.at == Degree((0,))
    ok, _ = orc.is_boundary(space, w)
    assert ok


def test_boundary_undecided_when_truncated(instance_a):
    space = kg.enumerate_path_space(instance_a, bound=Degree((1, 1)))
    verdict, cert = orc.is_boundary(space, space.elements[0])
    assert verdict is None
    assert cert.status == "undecided_at_bound"


def test_boundary_set_two_vertex(instance_b):
    space = kg.enumerate_path_space(instance_b)
    bp = kg.boundary_paths(space)
    assert set(bp) == {
        kg.edge_path(instance_b, "e"),
        kg.vertex_path(instance_b, "w"),
    }
    assert bp.parent is not None


def test_boundary_set_edgeless(edgeless):
    space = kg.enumerate_path_space(edgeless)
    bp = kg.boundary_paths(space)
    assert list(bp) == [kg.vertex_path(edgeless, "u")]


def test_boundary_set_three_vertex_line(instance_e):
    space = kg.enumerate_path_space(instance_e)
    bp = kg.boundary_paths(space)
    assert len(bp) == 3
    got = {(el.range, el.word) for el in bp}
    assert got == orc.rank1_boundary(instance_e)


def test_boundary_matches_raw_definition(instance_b, instance_e):
    for sk in (instance_b, instance_e):
        space = kg.enumerate_path_space(sk)
        got = {
            (el.range, el.word) for el in kg.boundary_paths(space)
        }
        assert got == orc.rank1_boundary(sk)


def test_boundary_invariance(instance_b, instance_e):
    # Shifts of boundary paths and boundary-preserving prepends stay inside.
    for sk in (instance_b, instance_e):
        space = kg.enumerate_path_space(sk)
        bp = kg.boundary_paths(space)
        boundary = set(bp)
        for el in bp:
            for m in degree_box(el.degree):
                assert orc.shift(sk, el, m) in boundary
            for lam in kg.enumerate_paths(sk):
                if kg.source(sk, lam) == el.range:
                    assert kg.prepend(sk, lam, el) in boundary


def test_boundary_nonempty_on_valid_instances(instance_b, instance_e, edgeless):
    pool = [instance_b, instance_e, edgeless,
            kg.grid_skeleton(1, Degree((2,))).skeleton,
            kg.grid_skeleton(2, Degree((1, 1))).skeleton]
    for sk in pool:
        space = kg.enumerate_path_space(sk)
        assert len(kg.boundary_paths(space)) > 0


def test_boundary_report_shape(instance_b):
    space = kg.enumerate_path_space(instance_b)
    report = json.loads("".join(boundary_chunks(space)))
    assert report == orc.boundary_report(space)
    assert report["boundary_size"] == 2
    assert report["classification"]["regular"] == ["v"]
    assert len(report["elements"]) == 3


def test_minimal_exhaustive_sets_of_a_wide_star_need_no_deep_recursion():
    """The 300 edges into n0 form one minimal set: a search 300 choices deep."""
    leaves = [f"n{i:03d}" for i in range(1, 301)]
    sk = kg.load_skeleton(
        {
            "rank": 1,
            "vertices": [{"id": v} for v in ["n0", *leaves]],
            "edges": [
                {"id": f"e{v}", "color": 1, "range": "n0", "source": v} for v in leaves
            ],
        }
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        found = kg.minimal_exhaustive_sets(sk, "n0")
    finally:
        sys.setrecursionlimit(limit)
    assert [ex.members for ex in found] == [
        (kg.vertex_path(sk, "n0"),),
        tuple(kg.edge_path(sk, f"e{v}") for v in leaves),
    ]


def test_truncated_markers_on_a_long_line_equal_the_oracle():
    """A 200-vertex line with a loop at its far end and a source w before v0."""
    doc = line_document(199)
    doc["vertices"].append({"id": "w"})
    doc["edges"] += [
        {"id": "loop", "color": 1, "range": "v199", "source": "v199"},
        {"id": "f", "color": 1, "range": "v0", "source": "w"},
    ]
    sk = kg.load_skeleton(doc)
    space = kg.enumerate_path_space(sk, Degree((2,)))
    tails = {kg.source(sk, el) for el in space}
    grows = {v: 1 in orc.reachable_cycle_colors(sk, v) for v in tails}
    for el, marked in zip(space, written_records(space)):
        tail = kg.source(sk, el)
        assert marked["extendable"] == [bool(sk.edges_by_range[tail])]
        assert marked["degree"] == ["inf" if grows[tail] else el.degree.coords[0]]
    assert list(grows.values()).count(False) == 1 and len(space) > 600
