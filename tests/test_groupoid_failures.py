"""Failure branches of the groupoid checks, reached by hand-broken groupoids.

Each mutant below is a copy of the path groupoid or the boundary groupoid
of instance b or e with one flaw.  `verify_etale` must report a witness
that names no cylinder (a corner off its `factors` row, or heads with
different sources) as an element not covered by its witness cylinder, not
raise; and `verify_groupoid_axioms` must report a dropped unit as the
axiom loops of `oracles.py` do, `unit for ... missing` among its lines.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import kgraphs as kg
from kgraphs import paths as pth

import oracles as orc
from conftest import load_instance


def built() -> dict:
    out = {}
    for name in ("b", "e"):
        space = kg.enumerate_path_space(load_instance(name))
        out[f"{name}-full"] = kg.build_path_groupoid(space)
        out[f"{name}-boundary"] = kg.build_boundary_groupoid(space)
    return out


GROUPOIDS = built()
NON_UNITS = [
    (name, h) for name, G in GROUPOIDS.items() for h in range(len(G)) if h not in set(G.unit_index.values())
]


def swapped_witness(G, h) -> orc.LabelGroupoid:
    """G with the witness (p, q) of element h given as (q, p)."""
    p, q = G.elements[h].witness
    return orc.LabelGroupoid(G.space, [replace(g, witness=(q, p)) if i == h else g for i, g in enumerate(G.elements)])


def not_covered(G, h) -> tuple[str, ...]:
    return (f"element {G.labels[h]} not covered by its witness cylinder",)


@pytest.mark.parametrize("name, h", NON_UNITS)
def test_a_swapped_witness_is_reported_not_raised(name, h):
    G = GROUPOIDS[name]
    broken = swapped_witness(G, h)
    assert kg.verify_etale(broken).failures == not_covered(G, h)


def test_swapped_witnesses_reach_both_kinds_of_invalid_corner():
    """Some swapped witness has a corner off its row, and some has heads with different sources."""
    kinds = set()
    for name, h in NON_UNITS:
        G = GROUPOIDS[name]
        (x, _, y), (q, p) = G.labels[h], G.elements[h].witness
        rows, sk = G.space.factors, G.space.skeleton
        if p.coords not in rows[x] or q.coords not in rows[y]:
            kinds.add("off the row")
        elif pth.source(sk, rows[x][p.coords][0]) != pth.source(sk, rows[y][q.coords][0]):
            kinds.add("different sources")
    assert kinds == {"off the row", "different sources"}


@pytest.mark.parametrize("name, h", NON_UNITS)
def test_a_duplicated_label_is_not_covered(name, h):
    """The cylinders name the last copy of a label, so the first copy is not covered."""
    G = GROUPOIDS[name]
    broken = orc.LabelGroupoid(G.space, [*G.elements, G.elements[h]])
    assert kg.verify_etale(broken).failures == not_covered(G, h)


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_a_dropped_unit_gives_the_loop_report(name):
    """Each unit in turn; a unit that other elements end at leaves them without their unit."""
    G = GROUPOIDS[name]
    for x, u in G.unit_index.items():
        broken = orc.LabelGroupoid(G.space, [g for i, g in enumerate(G.elements) if i != u])
        report = kg.verify_groupoid_axioms(broken)
        assert report == orc.loop_groupoid_axioms(broken)
        assert report.failures[0] == f"missing unit at space index {x}"
        stranded = [label for label in G.labels if x in (label[0], label[2]) and label != G.labels[u]]
        unit_lines = [f for f in report.failures if f.startswith("unit for ")]
        assert unit_lines == [f"unit for {label} missing" for label in stranded]
    assert any(len(orc.label_by_range(G)[x]) > 1 for x in G.unit_index)
