"""The regular representation's fibers and label lookups against the per-unit product scan."""

from __future__ import annotations

import numpy as np
import pytest

import kgraphs as kg
from kgraphs import algebra as alg

from conftest import line_document, load_instance
from oracles import LabelGroupoid


def per_unit_scan(G):
    """The fibers and entry tables as one scan of G per unit builds them."""
    bases = {u: tuple(i for i, g in enumerate(G.elements) if g.y == u) for u in G.units()}
    entries = {
        u: np.array([[G.product(ig, G.inverse[ib]) for ib in fiber] for ig in fiber], dtype=np.intp)
        for u, fiber in bases.items()
    }
    return bases, entries


@pytest.mark.parametrize("name", ["b", "e", "line-6"])
def test_fibers_and_entries_equal_the_per_unit_scan(name):
    sk = kg.load_skeleton(line_document(6)) if name == "line-6" else load_instance(name)
    space = kg.enumerate_path_space(sk)
    for G in (kg.build_path_groupoid(space), kg.build_boundary_groupoid(space)):
        rep = alg.RegularRepresentation(G)
        bases, entries = per_unit_scan(G)
        assert list(rep.bases.items()) == list(bases.items())
        assert list(rep.entries) == list(entries)
        for u, table in entries.items():
            assert rep.entries[u].dtype == table.dtype and np.array_equal(rep.entries[u], table)


@pytest.mark.parametrize("name", ["e", "line-3"])
def test_a_dropped_element_raises_key_error_where_the_scan_does(name):
    """gamma beta^{-1} is looked up by its label; a missing inverse or composite raises as before."""
    sk = kg.load_skeleton(line_document(3)) if name == "line-3" else load_instance(name)
    space = kg.enumerate_path_space(sk)
    for G in (kg.build_path_groupoid(space), kg.build_boundary_groupoid(space)):
        for h in range(len(G)):
            broken = LabelGroupoid(G.space, [g for i, g in enumerate(G.elements) if i != h])
            try:
                _, entries = per_unit_scan(broken)
            except KeyError:
                with pytest.raises(KeyError):
                    alg.RegularRepresentation(broken)
                continue
            rep = alg.RegularRepresentation(broken)
            assert all(np.array_equal(rep.entries[u], table) for u, table in entries.items())
