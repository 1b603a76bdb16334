"""A path space's elements are its paths; the `boundary` writer lists each one.

`boundary_text.boundary_chunks` reads an element's truncation markers off its
source where it writes them.  Each record it writes, parsed, must equal what
the per-element wrapper kept in `oracles.py` writes (`reference_element_json`),
byte for byte, on exact and truncated spaces; on a boundary restriction, whose
table rows are its parent's, the wrapper must write the parent's records; and
the reference `is_boundary` must leave every element of a truncated space
undecided.

The hypothesis runs are derandomized and keep no example database.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given

import kgraphs as kg
from kgraphs.boundary_text import boundary_chunks
from kgraphs.skeleton import Degree

import oracles as orc
from conftest import load_instance, one_cycling_colour_document
from test_full_groupoid import path_spaces
from test_validate_properties import examples

UNDECIDED = (None, orc.BoundaryCertificate("undecided_at_bound", ()))


def dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def written_records(space: kg.FinitePathSpace) -> list[dict]:
    """The element records the `boundary` writer lists for the space, parsed (in exact mode, each
    record's "element"), each checked against `reference_element_json`.  The bound a truncated
    listing states is in its head alone, so any bound of the right rank serves here."""
    bound = None if space.is_exact else Degree((0,) * space.skeleton.rank)
    records = json.loads("".join(boundary_chunks(space, bound)))["elements"]
    records = [r["element"] for r in records] if space.is_exact else records
    assert len(records) == len(space)
    for i, record in enumerate(records):
        assert dumps(record) == dumps(orc.reference_element_json(space, i))
    return records


def check_elements(space: kg.FinitePathSpace) -> None:
    assert all(isinstance(x, kg.Path) for x in space.elements)
    written = written_records(space)
    if space.is_exact:
        restricted = kg.boundary_paths(space)
        for i, x in enumerate(restricted):
            assert dumps(orc.reference_element_json(restricted, i)) == dumps(written[space.index_of(x)])
    else:
        assert all(orc.is_boundary(space, x) == UNDECIDED for x in space)


@examples(60)
@given(path_spaces())
def test_element_json_equals_the_wrapper_on_drawn_spaces(space):
    check_elements(space)


# Instance d lacks the square of b2.r, so its truncations stay within one color.
TRUNCATIONS = {
    "a": [(0, 0), (2, 1), (3, 3)],
    "c": [(0, 0, 0), (1, 1, 1), (2, 0, 1)],
    "d": [(2, 0), (0, 2)],
    "one-cycling-colour": [(0, 0), (2, 1), (1, 3)],
}


@pytest.mark.parametrize(
    "name, bound", [(name, bound) for name, bounds in TRUNCATIONS.items() for bound in bounds]
)
def test_element_json_equals_the_wrapper_on_truncations(name, bound):
    if name == "one-cycling-colour":
        sk = kg.load_skeleton(one_cycling_colour_document())
    else:
        sk = load_instance(name)
    space = kg.enumerate_path_space(sk, bound=Degree(bound))
    assert not space.is_exact and len(space) > 0
    check_elements(space)


def test_the_markers_follow_each_source_in_the_one_cycling_colour_graph():
    sk = kg.load_skeleton(one_cycling_colour_document())
    space = kg.enumerate_path_space(sk, bound=Degree((2, 1)))
    seen = set()
    for x, marked in zip(space, written_records(space)):
        tail = kg.source(sk, x)
        assert marked["extendable"] == ([True, True] if tail == "u" else [True, False])
        assert marked["degree"] == ["inf", x.degree.coords[1]]
        seen.add(tail)
    assert seen == {"u", "v"}
