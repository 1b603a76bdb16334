"""The exact `boundary` report, written as text, against the dict reference.

`boundary_text.boundary_chunks` renders each path, set and tail once and joins
the records from those texts; `oracles.boundary_report` builds the report as
a dict from `is_boundary` and `element_json`.  The writer's bytes must be
`json.dumps(reference, sort_keys=True, indent=2)` plus a newline on random
trees, random exact 2-graphs, the grid (2,2,2), a single vertex, no vertex
at all, and ids that JSON escapes.  The writer finds every certificate's
obligations before it yields a piece, so a failing search leaves no file.

The property runs are derandomized and keep no example database, so tier-1
sees the same examples every time.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kgraphs as kg
from kgraphs import boundary as bnd
from kgraphs.boundary_text import boundary_chunks
from kgraphs.cli import main

import oracles as orc
from conftest import instance_path
from test_validate_properties import examples, random_2graphs
from test_verify_digests import grid_document, tree_document


def reference_text(space: bnd.FinitePathSpace) -> str:
    return json.dumps(orc.boundary_report(space), sort_keys=True, indent=2) + "\n"


def check_writer(document: dict) -> None:
    space = bnd.enumerate_path_space(kg.load_skeleton(document))
    pieces = list(boundary_chunks(space))
    assert len(pieces) == len(space) + 2  # the head, one piece per record, the end
    assert "".join(pieces) == reference_text(space)


@st.composite
def escaped_trees(draw) -> dict:
    """A tree of at most five vertices whose ids hold quotes, backslashes, newlines or non-ASCII."""
    size = draw(st.integers(1, 5))
    names = st.text('"\\\né☃x', min_size=1, max_size=3)
    ids = draw(st.lists(names, min_size=2 * size, max_size=2 * size, unique=True))
    vertices, edges = ids[:size], ids[size:]
    return {
        "rank": 1,
        "vertices": [{"id": v} for v in vertices],
        "edges": [
            {"id": edge, "color": 1, "range": vertices[draw(st.integers(0, i - 1))], "source": vertices[i]}
            for i, edge in enumerate(edges[1:], 1)
        ],
        "squares": [],
    }


@examples(40)
@given(st.integers(0, 10**6), st.integers(1, 12))
def test_tree_reports_equal_the_reference(seed, size):
    check_writer(tree_document(seed, size))


@examples(40)
@given(random_2graphs().filter(lambda document: len(document["edges"]) <= 12))
def test_2graph_reports_equal_the_reference(document):
    check_writer(document)


@examples(30)
@given(escaped_trees())
def test_escaped_ids_equal_the_reference(document):
    check_writer(document)


@pytest.mark.parametrize(
    "document",
    [
        grid_document((2, 2, 2)),
        {"rank": 1, "vertices": [{"id": "v"}], "edges": [], "squares": []},
        {"rank": 2, "vertices": [], "edges": [], "squares": []},
        json.loads(instance_path("b").read_text(encoding="utf-8")),
        json.loads(instance_path("e").read_text(encoding="utf-8")),
    ],
    ids=["grid-2-2-2", "one-vertex", "no-vertex", "b", "e"],
)
def test_fixed_instances_equal_the_reference(document):
    check_writer(document)


def test_every_search_runs_before_the_first_piece(monkeypatch):
    """One search per range vertex, all of them before a piece is read, and none while writing."""
    space = bnd.enumerate_path_space(kg.load_skeleton(tree_document(5, 9)))
    search, calls = bnd.minimal_exhaustive_sets, []
    monkeypatch.setattr(bnd, "minimal_exhaustive_sets", lambda *args: calls.append(args[1]) or search(*args))
    pieces = boundary_chunks(space)
    assert sorted(calls) == sorted({x.range for x in space})
    "".join(pieces)
    assert len(calls) == len({x.range for x in space})


def test_a_failing_search_leaves_no_file(tmp_path, capsys, monkeypatch):
    def fail(sk, vertex_id, *space):
        raise ValueError(f"no sets at {vertex_id}")

    monkeypatch.setattr(bnd, "minimal_exhaustive_sets", fail)
    out = tmp_path / "report.json"
    assert main(["boundary", str(instance_path("e")), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: no sets at ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("document", [tree_document(3, 9), grid_document((2, 3))], ids=["tree", "grid-2x3"])
def test_the_text_listing_states_the_reports_verdicts(tmp_path, capsys, document):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["boundary", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(["boundary", str(path), "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    space = bnd.enumerate_path_space(kg.load_skeleton(document))
    want = [f"  {kg.paths.path_sort_key(x)}: {'boundary' if m['boundary'] else 'interior'}"
            for x, m in zip(space, report["elements"])]
    assert lines[1:-1] == want
    assert lines[-1] == f"boundary size: {report['boundary_size']}"
