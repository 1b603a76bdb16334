"""Boundary membership without the subset search, against the search.

`minimal_exhaustive_sets` (minimal transversals of the maximal paths, read
from the factorization table or built from one-letter cuts), `is_boundary`
(reading the table, kept in `oracles.py` as the reference for the `boundary`
report) and `boundary_paths` (the source rule) are checked
against the subset search, the `segment`-based membership test and the
`is_boundary` filter kept in `oracles.py`.  The transversal search is also
checked against its rescanning form, which derives each prefix with
`factorize`, on the same instances, on stars (whose one all-edges set is
the deep case) and on random exact spaces.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import assume, given

import kgraphs as kg
from kgraphs.boundary_text import boundary_chunks
from kgraphs import paths as pth
from kgraphs.cli import main
from kgraphs.skeleton import Degree

import oracles as orc
from conftest import line_document
from test_full_groupoid import path_spaces
from test_validate_properties import examples
from test_verify_digests import tree_document


def tree(rng: random.Random, size: int) -> kg.Skeleton:
    """A rooted tree: edge t_i runs from vertex i to a random earlier vertex."""
    return kg.load_skeleton(
        {
            "rank": 1,
            "vertices": [{"id": f"n{i}"} for i in range(size)],
            "edges": [
                {"id": f"t{i}", "color": 1, "range": f"n{rng.randrange(i)}", "source": f"n{i}"}
                for i in range(1, size)
            ],
        }
    )


def multigraph(rng: random.Random, size: int) -> kg.Skeleton:
    """An acyclic 1-graph with 0-2 parallel edges from each vertex to a few earlier ones."""
    edges = []
    for s in range(1, size):
        for r in rng.sample(range(s), min(s, 2)):
            for copy in range(rng.randrange(3)):
                edges.append({"id": f"e{s}_{r}_{copy}", "color": 1, "range": f"v{r}", "source": f"v{s}"})
    return kg.load_skeleton(
        {"rank": 1, "vertices": [{"id": f"v{i}"} for i in range(size)], "edges": edges}
    )


def product(left: kg.Skeleton, right: kg.Skeleton) -> kg.Skeleton:
    """The 2-graph left x right: color 1 moves in left, color 2 in right."""
    def pair(a, b):
        return f"{a}|{b}"

    edges = [
        {"id": pair(e.id, w.id), "color": 1, "range": pair(e.range, w.id), "source": pair(e.source, w.id)}
        for e in left.edges for w in right.vertices
    ] + [
        {"id": pair(v.id, f.id), "color": 2, "range": pair(v.id, f.range), "source": pair(v.id, f.source)}
        for v in left.vertices for f in right.edges
    ]
    squares = [
        {
            "first": pair(e.id, f.range),
            "second": pair(e.source, f.id),
            "swapped_first": pair(e.range, f.id),
            "swapped_second": pair(e.id, f.source),
        }
        for e in left.edges for f in right.edges
    ]
    vertices = [{"id": pair(v.id, w.id)} for v in left.vertices for w in right.vertices]
    return kg.load_skeleton({"rank": 2, "vertices": vertices, "edges": edges, "squares": squares})


# Two edges into v.  In the product of this graph with itself, the minimal
# exhaustive set {f|v, v|f, g|g} at v|v holds two prefixes of the maximal
# path through f|v and v|f, one of each color.
FORK = {
    "rank": 1,
    "vertices": [{"id": "v"}, {"id": "a"}, {"id": "b"}],
    "edges": [
        {"id": "f", "color": 1, "range": "v", "source": "a"},
        {"id": "g", "color": 1, "range": "v", "source": "b"},
    ],
}

# v receives a blue edge from u and a red edge from w; with no blue-red or
# red-blue two-edge paths there are no squares, and v is not locally convex.
NOT_LOCALLY_CONVEX = {
    "rank": 2,
    "vertices": [{"id": "u"}, {"id": "v"}, {"id": "w"}],
    "edges": [
        {"id": "f", "color": 1, "range": "v", "source": "u"},
        {"id": "g", "color": 2, "range": "v", "source": "w"},
    ],
}


def instances():
    rng = random.Random(2005)
    out = [(f"tree-{i}", tree(rng, rng.randrange(1, 12))) for i in range(24)]
    out += [(f"multigraph-{i}", multigraph(rng, rng.randrange(2, 6))) for i in range(16)]
    for shape in ((1, 1), (2, 2), (2, 3), (1, 1, 1)):
        out.append((f"grid-{shape}", kg.grid_skeleton(len(shape), Degree(shape)).skeleton))
    out.append(("not-locally-convex", kg.load_skeleton(NOT_LOCALLY_CONVEX)))
    fork = kg.load_skeleton(FORK)
    out.append(("fork-squared", product(fork, fork)))
    for i in range(8):
        left, right = tree(rng, rng.randrange(1, 5)), tree(rng, rng.randrange(1, 5))
        out.append((f"tree-product-{i}", product(left, right)))
    return out


INSTANCES = instances()


@pytest.fixture(params=[sk for _, sk in INSTANCES], ids=[name for name, _ in INSTANCES])
def skeleton(request):
    return request.param


@pytest.fixture(params=["b", "e", "edgeless"])
def bundled(request):
    name = request.param
    return request.getfixturevalue(name if name == "edgeless" else f"instance_{name}")


def check_against_the_subset_search(sk: kg.Skeleton) -> None:
    assert kg.validate(sk)[0].passed
    for v in sk.vertices:
        want = orc.subset_search_minimal_exhaustive_sets(sk, v.id)
        assert kg.minimal_exhaustive_sets(sk, v.id) == want, v.id
    space = kg.enumerate_path_space(sk)
    report = "".join(boundary_chunks(space))
    assert report == json.dumps(orc.subset_search_boundary_report(space), sort_keys=True, indent=2) + "\n"
    got = kg.boundary_paths(space)
    sources = set(kg.classify_vertices(sk).sources)
    by_source_rule = [el for el in space if kg.source(sk, el) in sources]
    assert got.elements == orc.filtered_boundary_paths(space).elements == tuple(by_source_rule)
    assert got.parent is not None and got.is_exact
    cache: dict = {}
    for el in space:
        assert orc.is_boundary(space, el) == orc.segment_is_boundary(space, el, cache)


def test_generated_instances_match_the_subset_search(skeleton):
    check_against_the_subset_search(skeleton)


def test_bundled_instances_match_the_subset_search(bundled):
    check_against_the_subset_search(bundled)


def test_two_prefixes_of_one_maximal_path_in_a_minimal_set():
    sk = product(kg.load_skeleton(FORK), kg.load_skeleton(FORK))
    want = {kg.edge_path(sk, "f|v"), kg.edge_path(sk, "v|f"), kg.path_from_word(sk, ["g|v", "b|g"])}
    assert want in [set(s.members) for s in kg.minimal_exhaustive_sets(sk, "v|v")]


def test_not_locally_convex_minimal_sets_and_boundary():
    sk = kg.load_skeleton(NOT_LOCALLY_CONVEX)
    f, g = kg.edge_path(sk, "f"), kg.edge_path(sk, "g")
    v = kg.vertex_path(sk, "v")
    assert [s.members for s in kg.minimal_exhaustive_sets(sk, "v")] == [(v,), (f, g)]
    space = kg.enumerate_path_space(sk)
    assert set(kg.boundary_paths(space)) == {
        f, g, kg.vertex_path(sk, "u"), kg.vertex_path(sk, "w")
    }


def star(leaves: int, spoke: int) -> kg.Skeleton:
    """`leaves` paths of `spoke` edges each, all with range n0."""
    vertices, edges = ["n0"], []
    for leaf in range(leaves):
        below = "n0"
        for step in range(spoke):
            vertices.append(f"s{leaf}_{step}")
            edges.append({"id": f"e{leaf}_{step}", "color": 1, "range": below, "source": vertices[-1]})
            below = vertices[-1]
    return kg.load_skeleton({"rank": 1, "vertices": [{"id": v} for v in vertices], "edges": edges})


def check_against_the_rescan(sk: kg.Skeleton) -> None:
    for v in sk.vertices:
        assert kg.minimal_exhaustive_sets(sk, v.id) == orc.rescan_minimal_exhaustive_sets(sk, v.id), v.id


def test_generated_instances_match_the_rescan(skeleton):
    check_against_the_rescan(skeleton)


@pytest.mark.parametrize(("leaves", "spoke"), [(1, 1), (2, 1), (5, 1), (60, 1), (3, 2), (4, 3), (12, 2)])
def test_stars_match_the_rescan(leaves, spoke):
    check_against_the_rescan(star(leaves, spoke))


def test_star_products_match_the_rescan():
    check_against_the_rescan(product(star(3, 1), star(2, 2)))


@pytest.mark.parametrize("name", ["tree-0", "multigraph-0", "grid-(2, 3)", "fork-squared", "tree-product-0"])
def test_a_report_and_repeated_verdicts_find_each_vertex_sets_once(monkeypatch, name):
    """The writer, and the oracle over repeated verdicts, each search each vertex's minimal
    exhaustive sets once: one search per distinct range vertex."""
    sk = dict(INSTANCES)[name]
    space = kg.enumerate_path_space(sk)
    calls = []
    search = kg.boundary.minimal_exhaustive_sets

    def spy(sk, vertex_id, *space):
        calls.append(vertex_id)
        return search(sk, vertex_id, *space)

    monkeypatch.setattr(kg.boundary, "minimal_exhaustive_sets", spy)
    report = json.loads("".join(boundary_chunks(space)))
    assert sorted(calls) == sorted({el.range for el in space})
    calls.clear()
    for _ in range(3):
        assert [orc.is_boundary(space, el)[0] for el in space] == [m["boundary"] for m in report["elements"]]
    assert sorted(calls) == sorted({el.range for el in space})


@examples(60)
@given(path_spaces())
def test_table_read_sets_equal_the_rescan_and_a_restriction_reads_its_parent(space):
    """Exact spaces: each vertex's sets from the table, and from one-letter cuts without
    a space, equal the per-prefix `factorize` rescan, and a boundary restriction gives
    each kept element the same certificate."""
    assume(space.is_exact)
    sk = space.skeleton
    for v in sk.vertices:
        want = orc.rescan_minimal_exhaustive_sets(sk, v.id)
        assert kg.minimal_exhaustive_sets(sk, v.id, space) == want, v.id
        assert kg.minimal_exhaustive_sets(sk, v.id) == want, v.id
    restricted = kg.boundary_paths(space)
    for el in restricted:
        assert orc.is_boundary(restricted, el) == orc.is_boundary(space, el)


def spy_on(monkeypatch, *names):
    """Replace these `paths` functions by ones that log (name, args) and call through."""
    calls = []
    for name in names:
        original = getattr(pth, name)
        monkeypatch.setattr(pth, name, lambda *a, f=original, n=name: calls.append((n, a)) or f(*a))
    return calls


def test_the_boundary_command_on_a_tree_factorizes_only_for_the_table(tmp_path, monkeypatch):
    """The exhaustive sets come from the table: no path walk, and one `factorize` per edge
    path (its one-letter cut at rank 1), none per prefix."""
    doc = tree_document(5, 13)
    instance, out = tmp_path / "tree.json", tmp_path / "report.json"
    instance.write_text(json.dumps(doc), encoding="utf-8")
    calls = spy_on(monkeypatch, "factorize", "paths_with_range")
    assert main(["boundary", str(instance), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["boundary_size"] > 0
    edge_paths = sum(1 for e in report["elements"] if e["element"]["degree"] != [0])
    assert [n for n, _ in calls] == ["factorize"] * edge_paths


def test_the_sets_at_a_vertex_without_a_space_walk_only_its_paths(monkeypatch):
    """On a 199-edge line, the sets at the top vertex read its 200 paths, one `factorize`
    each, and build no table over the 20,100 paths it reaches."""
    sk = kg.load_skeleton(line_document(199))
    want = orc.rescan_minimal_exhaustive_sets(sk, "v0")
    calls = spy_on(monkeypatch, "factorize", "paths_with_range")
    monkeypatch.setattr(kg.FinitePathSpace, "factors", property(lambda _: pytest.fail("a table")))
    assert kg.minimal_exhaustive_sets(sk, "v0") == want
    assert len(want) == 200
    assert [n for n, _ in calls] == ["paths_with_range"] + ["factorize"] * 199
