"""A path space's elements are its paths; `element_json` writes each one.

`FinitePathSpace.element_json` reads an element's truncation markers off its
source where it writes them.  It must write what the per-element wrapper
kept in `oracles.py` writes (`reference_element_json`), byte for byte, on
exact, truncated and boundary-restricted spaces, and the reference
`is_boundary` must leave every element of a truncated space undecided.

The hypothesis runs are derandomized and keep no example database.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given

import kgraphs as kg
from kgraphs.skeleton import Degree

import oracles as orc
from conftest import load_instance, one_cycling_colour_document
from test_full_groupoid import path_spaces
from test_validate_properties import examples

UNDECIDED = (None, orc.BoundaryCertificate("undecided_at_bound", ()))


def check_elements(space: kg.FinitePathSpace) -> None:
    for s in [space, *([kg.boundary_paths(space)] if space.is_exact else [])]:
        assert all(isinstance(x, kg.Path) for x in s.elements)
        for i in range(len(s)):
            got, want = s.element_json(i), orc.reference_element_json(s, i)
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        if not s.is_exact:
            assert all(orc.is_boundary(s, x) == UNDECIDED for x in s)


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
    for i, x in enumerate(space):
        marked = space.element_json(i)
        tail = kg.source(sk, x)
        assert marked["extendable"] == ([True, True] if tail == "u" else [True, False])
        assert marked["degree"] == ["inf", x.degree.coords[1]]
        seen.add(tail)
    assert seen == {"u", "v"}
