"""Path enumeration is one walk over color-ascending words.

`paths_from`, `all_paths`, `paths_with_range`, `enumerate_paths` and the
truncated path space all list the composable color-ascending words within
per-color degree bounds.  They must equal the breadth-first search by
`compose` kept in `oracles.py`, with no bound on random 2-graphs, trees and
grids and stopped at the bound on instances a and c and random cyclic
2-graphs; they must never rewrite a word; and a long path must cost no
Python frames.

The hypothesis runs are derandomized and keep no example database.
"""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import kgraphs as kg
from kgraphs import paths as pth
from kgraphs.cli import main
from kgraphs.skeleton import Degree

import oracles as orc
from conftest import line_document, load_instance
from test_validate_properties import document, examples, mixed_pairs, random_2graphs
from test_verify_digests import tree_document

GRID_SHAPES = [(1,), (4,), (1, 1), (2, 1), (2, 2), (3, 2), (1, 1, 1), (2, 1, 1)]


@st.composite
def acyclic_skeletons(draw) -> kg.Skeleton:
    """Random 2-graphs that pass validation, seeded trees and grids."""
    kind = draw(st.sampled_from(["2-graph", "tree", "grid"]))
    if kind == "2-graph":
        return kg.load_skeleton(draw(random_2graphs()))
    if kind == "tree":
        return kg.load_skeleton(tree_document(draw(st.integers(0, 10**6)), draw(st.integers(1, 13))))
    shape = draw(st.sampled_from(GRID_SHAPES))
    return kg.grid_skeleton(len(shape), Degree(shape)).skeleton


@st.composite
def one_graphs(draw) -> tuple[int, list[tuple[int, int]]]:
    """A vertex count and edges (range, source); loops, cycles and parallel edges allowed."""
    n = draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    return n, [(draw(vertex), draw(vertex)) for _ in range(draw(st.integers(0, 4)))]


@st.composite
def cyclic_2graphs(draw) -> dict:
    """The product of two random 1-graphs, cycles allowed, with its mixed pairs matched at random."""
    (n1, blue), (n2, red) = draw(one_graphs()), draw(one_graphs())
    edges = {}
    for k, (r, s) in enumerate(blue):
        for b in range(n2):
            edges[f"b{k}.{b}"] = (1, f"v{r}.{b}", f"v{s}.{b}")
    for k, (r, s) in enumerate(red):
        for a in range(n1):
            edges[f"r{a}.{k}"] = (2, f"v{a}.{r}", f"v{a}.{s}")
    pairs = mixed_pairs(edges)
    squares = []
    for (cg, _, r, s), blue_red in sorted(pairs.items()):
        if cg == 1:
            red_blue = draw(st.permutations(pairs[2, 1, r, s]))
            squares += [(*fwd, *bwd) for fwd, bwd in zip(blue_red, red_blue)]
    vertices = [f"v{a}.{b}" for a in range(n1) for b in range(n2)]
    return document(2, vertices, edges, squares)


# --- the walk against the breadth-first search ---------------------------


@examples(120)
@given(acyclic_skeletons())
def test_paths_with_range_and_enumerate_paths_equal_the_search(sk):
    for v in sk.vertices:
        assert kg.paths_with_range(sk, v.id) == orc.bfs_paths_with_range(sk, v.id)
    assert kg.enumerate_paths(sk) == orc.bfs_enumerate_paths(sk)


@examples(60)
@given(cyclic_2graphs(), st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_the_truncated_pool_equals_the_bounded_search_on_cyclic_2graphs(doc, bound):
    sk = kg.load_skeleton(doc)
    assume(not kg.is_acyclic(sk))
    assert all(report.passed for report in kg.validate(sk))
    space = kg.enumerate_path_space(sk, bound=Degree(bound))
    assert space.elements == orc.bfs_enumerate_paths(sk, Degree(bound))


@pytest.mark.parametrize(
    "name,bound",
    [("a", (0, 0)), ("a", (1, 0)), ("a", (2, 3)), ("a", (4, 4)),
     ("c", (0, 1, 0)), ("c", (1, 1, 1)), ("c", (2, 0, 2)), ("c", (2, 2, 2))],
)
def test_the_truncated_pool_equals_the_bounded_search(name, bound):
    sk = load_instance(name)
    space = kg.enumerate_path_space(sk, bound=Degree(bound))
    assert space.elements == orc.bfs_enumerate_paths(sk, Degree(bound))


def test_the_walk_keeps_the_guards():
    a, line = load_instance("a"), kg.load_skeleton(line_document(3))
    with pytest.raises(kg.ExactModeError, match="reaches a cycle"):
        kg.paths_with_range(a, "u")
    with pytest.raises(kg.ExactModeError, match="reaches a cycle"):
        kg.enumerate_paths(a)
    with pytest.raises(ValueError, match="unknown vertex 'nope'"):
        kg.paths_with_range(line, "nope")
    with pytest.raises(ValueError, match="degree has 2 coordinates, skeleton has rank 1"):
        kg.paths_from(line, "v0", Degree((1, 1)))
    with pytest.raises(ValueError, match="degree has 1 coordinates, skeleton has rank 2"):
        kg.enumerate_path_space(a, bound=Degree((1,)))


# --- enumeration never rewrites ------------------------------------------


def test_enumeration_never_rewrites(monkeypatch):
    grid = kg.grid_skeleton(2, Degree((3, 3))).skeleton
    tree = kg.load_skeleton(tree_document(1, 13))
    a = load_instance("a")
    exact = {id(sk): orc.bfs_enumerate_paths(sk) for sk in (grid, tree)}
    bounded = [(grid, (2, 1)), (tree, (3,)), (a, (3, 2))]
    pools = [orc.bfs_enumerate_paths(sk, Degree(bound)) for sk, bound in bounded]

    def refuse(*args, **kwargs):
        raise AssertionError("enumeration rewrote a word")

    monkeypatch.setattr(pth, "compose", refuse)
    monkeypatch.setattr(pth, "_normalize", refuse)
    for sk in (grid, tree):
        space = kg.enumerate_path_space(sk)
        assert space.elements == exact[id(sk)]
        walked = [p for v in sk.vertices for p in kg.paths_with_range(sk, v.id)]
        assert pth.sort_paths(walked) == exact[id(sk)]
    for (sk, bound), pool in zip(bounded, pools):
        space = kg.enumerate_path_space(sk, bound=Degree(bound))
        assert space.elements == pool
        top = [p for v in sk.vertices for p in kg.paths_from(sk, v.id, Degree(bound))]
        assert pth.sort_paths(top) == tuple(p for p in pool if p.degree == Degree(bound))


# --- long paths cost no recursion ----------------------------------------


def test_paths_command_lists_a_path_of_1050_letters(tmp_path, capsys):
    instance = tmp_path / "line.json"
    instance.write_text(json.dumps(line_document(1100)), encoding="utf-8")
    code = main(["paths", str(instance), "--vertex", "v0", "--degree", "1050"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["paths"] == [{"range": "v0", "blocks": [[f"e{i}" for i in range(1, 1051)]]}]


def test_long_paths_need_no_recursion():
    sk, longer = kg.load_skeleton(line_document(1100)), kg.load_skeleton(line_document(1999))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        deep = kg.paths_from(sk, "v0", Degree((1050,)))
        every = kg.paths_with_range(longer, "v0")
    finally:
        sys.setrecursionlimit(limit)
    assert [p.word for p in deep] == [tuple(f"e{i}" for i in range(1, 1051))]
    assert sorted(p.degree.total for p in every) == list(range(2000))
