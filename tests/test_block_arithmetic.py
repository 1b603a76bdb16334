"""A built groupoid's block arithmetic against the label dicts of `oracles.LabelGroupoid`.

`build_path_groupoid` lays the element (x, d(x) - d(y), y) out at start[x] + pos[y],
and `FiniteGroupoid` finds, multiplies, inverts and composes by that layout.  On
every drawn space (exact, truncated, and the boundary restriction) each answer
must equal the one that the hand-built groupoid of the same elements finds
through its dicts keyed by labels.  Labels that are no element (a shifted m, a y
from another source block, an index off the space) are refused by both, and a
product of a pair that does not compose raises ValueError in both.

The hypothesis runs are derandomized and keep no example database.
"""

from __future__ import annotations

from itertools import islice

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

import kgraphs as kg
from kgraphs import paths as pth

from oracles import LabelGroupoid
from test_columnar_groupoid import spaces_of
from test_full_groupoid import path_spaces
from test_validate_properties import examples


def outcome(call, *args):
    try:
        return call(*args)
    except (KeyError, ValueError) as exc:
        return type(exc)


def not_elements(G) -> list[tuple]:
    """Labels near G's own that G lacks: m shifted, y from another block, x or y off the space."""
    space, n = G.space, len(G.space)
    source = [pth.source(space.skeleton, el) for el in space.elements]
    degree = [el.degree.coords for el in space.elements]
    out = []
    for x, m, y in G.labels:
        out.append((x, (m[0] + 1, *m[1:]), y))
        out += [(x, m, -1), (-1, m, y), (x, m, n), (n, m, y)]
        other = next((v for v in range(n) if source[v] != source[x]), None)
        if other is not None:
            out.append((x, tuple(a - b for a, b in zip(degree[x], degree[other])), other))
    return out


@examples(60)
@given(path_spaces(), st.data())
def test_block_arithmetic_equals_the_label_dicts(space, data):
    assume(len(space) <= 70)  # the label composition pairs every two elements
    for s in spaces_of(space):
        G = kg.build_path_groupoid(s)
        L = LabelGroupoid(s, G.elements)
        assert L.labels == G.labels and L.is_full
        for i, label in enumerate(G.labels):
            assert G.index_of(label) == L.index_of(label) == i
            assert label in G and label in L
        for label in not_elements(G):
            assert label not in G and label not in L
            assert outcome(G.index_of, label) is outcome(L.index_of, label) is KeyError
        assert list(G.unit_index.items()) == list(L.unit_index.items())
        assert G.inverse == L.inverse
        assert G.inverse_array.tolist() == L.inverse_array.tolist()
        (pairs, missing), (label_pairs, label_missing) = G.composition, L.composition
        assert missing == label_missing == []
        assert all(np.array_equal(c, d) and c.dtype == d.dtype for c, d in zip(pairs, label_pairs))
        n = len(G)
        drawn = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
        xs, ys = G.x.tolist(), G.y.tolist()
        apart = list(islice(((a, b) for a in range(n) for b in range(n) if ys[a] != xs[b]), 5))
        for a, b in drawn + apart:
            assert outcome(G.product, a, b) == outcome(L.product, a, b)
        for a, b in apart:
            assert outcome(G.product, a, b) is ValueError


def test_a_y_from_another_block_can_land_inside_row_x():
    """start[x] + pos[y] may fall inside row x for a y of another block: the label there refuses it."""
    sk = kg.load_skeleton(
        {
            "rank": 1,
            "vertices": [{"id": "u"}, {"id": "v"}, {"id": "w"}],
            "edges": [
                {"id": "e", "color": 1, "range": "u", "source": "v"},
                {"id": "f", "color": 1, "range": "u", "source": "w"},
            ],
            "squares": [],
        }
    )
    G = kg.build_path_groupoid(kg.enumerate_path_space(sk))
    n = len(G.space)
    inside = [
        (x, m, y) for x, m, y in not_elements(G)
        if 0 <= x < n and 0 <= y < n and G.start[x] + G.pos[y] < G.start[x + 1]
    ]
    assert inside and not any(label in G for label in inside)
    assert all(outcome(G.index_of, label) is KeyError for label in inside)
