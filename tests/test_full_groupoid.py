"""The certificate `FiniteGroupoid.is_full` and the checks that read it.

A groupoid is full when its elements are exactly the labels
(x, d(x) - d(y), y) of the space elements with a common source, each once.
Every built groupoid is; each hand-made mutant below breaks one clause of
the certificate and is not.  The regular representation's tables must equal
the per-unit label lookups kept in `oracles.py` on both of its paths (one
table per source block when full, one `product` scan per unit otherwise),
and the spies pin the work the checks do on built groupoids, so that the
passes over composable pairs (sum of n_v^3) cannot come back unnoticed.

The hypothesis runs are derandomized and keep no example database.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import kgraphs as kg
from kgraphs import algebra as alg
from kgraphs import groupoid as gpd
from kgraphs import paths as pth
from kgraphs.groupoid import CylinderSet, FiniteGroupoid
from kgraphs.skeleton import Degree

import oracles as orc
from conftest import line_document, load_instance
from test_validate_properties import examples, random_2graphs
from test_verify_digests import tree_document

CYCLIC = {"a": load_instance("a"), "c": load_instance("c")}


@st.composite
def path_spaces(draw):
    """Exact spaces of random 2-graphs, grids and trees; truncated spaces of instances a and c."""
    kind = draw(st.sampled_from(["2-graph", "grid", "tree", "a", "c"]))
    if kind == "2-graph":
        return kg.enumerate_path_space(kg.load_skeleton(draw(random_2graphs())))
    if kind == "grid":
        shape = draw(st.sampled_from([(1,), (3,), (1, 1), (2, 1), (2, 2), (3, 2), (1, 1, 1), (2, 1, 1)]))
        return kg.enumerate_path_space(kg.grid_skeleton(len(shape), Degree(shape)).skeleton)
    if kind == "tree":
        doc = tree_document(draw(st.integers(0, 10**6)), draw(st.integers(1, 13)))
        return kg.enumerate_path_space(kg.load_skeleton(doc))
    sk = CYCLIC[kind]
    bound = tuple(draw(st.integers(0, 2)) for _ in range(sk.rank))
    return kg.enumerate_path_space(sk, bound=Degree(bound))


def built(space) -> list[FiniteGroupoid]:
    """The path groupoid, and on an exact space its boundary groupoid."""
    out = [kg.build_path_groupoid(space)]
    if space.is_exact:
        out.append(kg.build_boundary_groupoid(space))
    return out


def source_counts(space) -> Counter:
    return Counter(pth.source(space.skeleton, el) for el in space.elements)


@examples(80)
@given(path_spaces())
def test_built_groupoids_are_full(space):
    for G in built(space):
        assert G.is_full


@examples(80)
@given(path_spaces())
def test_a_built_groupoid_has_the_sum_of_its_squared_source_blocks(space):
    for G in built(space):
        assert len(G) == sum(n * n for n in source_counts(G.space).values())


# --- mutants: each breaks one clause of the certificate ---------------------


def dropped_element(G, h):
    return [g for i, g in enumerate(G.elements) if i != h]


def dropped_inverse_pair(G, h):
    gone = {h, G.inverse[h]}
    return [g for i, g in enumerate(G.elements) if i not in gone]


def duplicated_label(G, h):
    """Element h's label twice, in place of the next element's: the count still holds."""
    j = (h + 1) % len(G)
    return [replace(G.elements[h]) if i == j else g for i, g in enumerate(G.elements)]


def shifted_m(G, h):
    g = G.elements[h]
    return [replace(g, m=(g.m[0] + 1, *g.m[1:])) if i == h else e for i, e in enumerate(G.elements)]


def moved_across_blocks(G, h):
    """(x, m, y) becomes (x, d(x) - d(y'), y') for a y' of another source block."""
    space, g = G.space, G.elements[h]
    source = [pth.source(space.skeleton, el) for el in space.elements]
    y = next(y for y in range(len(space.elements)) if source[y] != source[g.x])
    m = tuple(a - b for a, b in zip(space.elements[g.x].degree.coords, space.elements[y].degree.coords))
    return [replace(g, m=m, y=y) if i == h else e for i, e in enumerate(G.elements)]


MUTANTS = {
    "dropped-element": (dropped_element, lambda G: True),
    "dropped-inverse-pair": (dropped_inverse_pair, lambda G: True),
    "duplicated-label": (duplicated_label, lambda G: len(G) >= 2),
    "shifted-m": (shifted_m, lambda G: True),
    "moved-across-blocks": (moved_across_blocks, lambda G: len(source_counts(G.space)) >= 2),
}


@examples(150)
@given(path_spaces(), st.sampled_from(sorted(MUTANTS)), st.data())
def test_every_mutant_fails_the_certificate(space, mutant, data):
    make, applies = MUTANTS[mutant]
    G = data.draw(st.sampled_from(built(space)))
    assume(applies(G))
    h = data.draw(st.integers(0, len(G) - 1))
    assert not FiniteGroupoid(G.space, make(G, h)).is_full


def test_each_mutant_keeps_the_other_clauses():
    """So each one fails the certificate through its own clause."""
    G = kg.build_path_groupoid(kg.enumerate_path_space(kg.grid_skeleton(2, Degree((2, 1))).skeleton))
    space = G.space
    source = [pth.source(space.skeleton, el) for el in space.elements]
    degree = [el.degree.coords for el in space.elements]
    for name, (make, _) in MUTANTS.items():
        H = FiniteGroupoid(space, make(G, 5))
        clauses = {
            "distinct": len(H._index) == len(H),
            "count": len(H) == len(G),
            "m": all(g.m == tuple(a - b for a, b in zip(degree[g.x], degree[g.y])) for g in H),
            "source": all(source[g.x] == source[g.y] for g in H),
        }
        broken = {
            "dropped-element": "count",
            "dropped-inverse-pair": "count",
            "duplicated-label": "distinct",
            "shifted-m": "m",
            "moved-across-blocks": "source",
        }[name]
        assert {c for c, holds in clauses.items() if not holds} == {broken}, name


# --- the regular representation on both of its paths ------------------------


def exact_groupoids() -> dict[str, FiniteGroupoid]:
    skeletons = {
        "b": load_instance("b"),
        "e": load_instance("e"),
        "line-6": kg.load_skeleton(line_document(6)),
        "tree-13": kg.load_skeleton(tree_document(3, 13)),
        "grid-2x2": kg.grid_skeleton(2, Degree((2, 2))).skeleton,
    }
    out = {}
    for name, sk in skeletons.items():
        space = kg.enumerate_path_space(sk)
        out[f"{name}-full"], out[f"{name}-boundary"] = built(space)
    return out


EXACT = exact_groupoids()


def entries_outcome(build, G):
    try:
        return build(G)
    except KeyError:
        return KeyError


def same_entries(rep_entries, oracle_entries) -> bool:
    return list(rep_entries) == list(oracle_entries) and all(
        rep_entries[u].dtype == table.dtype and np.array_equal(rep_entries[u], table)
        for u, table in oracle_entries.items()
    )


@pytest.mark.parametrize("name", sorted(EXACT))
def test_block_tables_equal_the_label_lookups_and_are_shared_per_block(name):
    G = EXACT[name]
    assert G.is_full
    rep = alg.RegularRepresentation(G)
    assert same_entries(rep.entries, orc.label_regular_entries(G))
    sk, elements = G.space.skeleton, G.space.elements
    block = {u: pth.source(sk, elements[u]) for u in rep.entries}
    for u in rep.entries:
        for v in rep.entries:
            assert (rep.entries[u] is rep.entries[v]) == (block[u] == block[v])


def units_only_block(G):
    """G with the first source block that has a non-unit cut down to its units: still a groupoid."""
    source = [pth.source(G.space.skeleton, el) for el in G.space.elements]
    v = next(source[g.x] for g in G.elements if g.x != g.y)
    return FiniteGroupoid(G.space, [g for g in G.elements if source[g.x] != v or g.x == g.y])


@pytest.mark.parametrize("name", sorted(EXACT))
def test_scan_tables_equal_the_label_lookups_off_full_groupoids(name):
    """One `product` scan per unit where G is not full: equal tables, or KeyError where the lookups raise."""
    G = EXACT[name]
    mutants = [units_only_block(G)] if any(g.x != g.y for g in G) else []
    mutants += [FiniteGroupoid(G.space, dropped_element(G, h)) for h in range(0, len(G), max(1, len(G) // 12))]
    for H in mutants:
        assert not H.is_full
        expected = entries_outcome(orc.label_regular_entries, H)
        got = entries_outcome(lambda H: alg.RegularRepresentation(H).entries, H)
        assert got is KeyError if expected is KeyError else same_entries(got, expected)
    assert mutants and any(entries_outcome(orc.label_regular_entries, H) is not KeyError for H in mutants)


# --- work-count guards on built groupoids ----------------------------------


def count_calls(monkeypatch, owner, name) -> list:
    calls, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def count_builds(monkeypatch, owner, name) -> list:
    """The instances that the cached property `name` of `owner` is built for, in order."""
    builds, real = [], vars(owner)[name].func

    def spy(self):
        builds.append(self)
        return real(self)

    prop = cached_property(spy)
    prop.__set_name__(owner, name)
    monkeypatch.setattr(owner, name, prop)
    return builds


LINE_12 = kg.enumerate_path_space(kg.load_skeleton(line_document(12)))


def test_the_axiom_check_walks_no_composable_pairs_on_built_groupoids(monkeypatch):
    calls = count_builds(monkeypatch, FiniteGroupoid, "composition")
    for G in [*built(LINE_12), EXACT["grid-2x2-full"], EXACT["e-boundary"]]:
        assert kg.verify_groupoid_axioms(G).passed
    assert calls == []
    broken = FiniteGroupoid(LINE_12, dropped_element(kg.build_path_groupoid(LINE_12), 3))
    assert not kg.verify_groupoid_axioms(broken).passed
    assert calls == [broken]


def test_the_regular_representation_makes_one_product_per_element(monkeypatch):
    calls = count_calls(monkeypatch, FiniteGroupoid, "product")
    for G, size in zip(built(LINE_12), (819, 169)):
        calls.clear()
        alg.RegularRepresentation(G)
        assert len(calls) == len(G) == size


def test_generation_makes_one_convolution_per_path_of_positive_length(monkeypatch):
    calls = count_calls(monkeypatch, alg, "convolve")
    for G in built(LINE_12):
        calls.clear()
        assert kg.generation_check(G).passed
        assert len(calls) == sum(el.degree.total >= 1 for el in G.space.elements)
    assert len(calls) == 12  # on the boundary: the paths ending at v12, v12 itself aside


def test_generation_keeps_the_generators_of_two_lengths_only():
    """On line n=20 (|G| 3,311) the certificate's peak stays near two lengths of s_x."""
    G = kg.build_path_groupoid(kg.enumerate_path_space(kg.load_skeleton(line_document(20))))
    tracemalloc.start()
    try:
        assert kg.generation_check(G).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20, f"{peak / 2**20:.1f} MB"


# --- verify_etale's failing cylinders, ordered by their paths ---------------


def test_two_non_injective_cylinders_are_reported_in_path_order(monkeypatch):
    """The failures name the cylinders in `path_sort_key` order, range before source."""
    G = EXACT["grid-2x2-full"]
    real, built_first = gpd.cylinder, []

    def recording(G, lam, mu):
        built_first.append(real(G, lam, mu))
        return built_first[-1]

    monkeypatch.setattr(gpd, "cylinder", recording)
    assert gpd.verify_etale(G).passed

    def twin(cyl, axis):
        """An element outside cyl sharing its `axis` ("x" or "y") with the first member, and nothing else."""
        other = "y" if axis == "x" else "x"
        taken = {getattr(G.elements[i], other) for i in cyl.members}
        at = getattr(G.elements[cyl.members[0]], axis)
        return next(
            (j for j, g in enumerate(G.elements) if getattr(g, axis) == at and getattr(g, other) not in taken),
            None,
        )

    # Two non-vertex cylinders, with twins, whose first use runs against their path order.
    key = {(c.lam, c.mu): tuple(map(pth.path_sort_key, (c.lam, c.mu))) for c in built_first}
    candidates = [c for c in built_first if c.lam != c.mu and None not in (twin(c, "x"), twin(c, "y"))]
    first, second = next(
        (a, b) for i, b in enumerate(candidates) for a in candidates[:i] if key[a.lam, a.mu] > key[b.lam, b.mu]
    )
    extra = {
        (first.lam, first.mu): (twin(first, "x"), twin(first, "y")),
        (second.lam, second.mu): (twin(second, "y"),),
    }

    def widened(G, lam, mu):
        cyl = real(G, lam, mu)
        return CylinderSet(lam, mu, tuple(sorted(cyl.members + extra.get((lam, mu), ()))))

    monkeypatch.setattr(gpd, "cylinder", widened)

    def named(end, c):
        return f"{end} map not injective on cylinder ({c.lam.to_json()}, {c.mu.to_json()})"

    assert gpd.verify_etale(G).failures == (
        named("source", second),
        named("range", first),
        named("source", first),
    )
