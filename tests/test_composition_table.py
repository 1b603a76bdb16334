"""Composition by label arithmetic against the label and loop oracles.

`FiniteGroupoid.product`, the groupoid's composition table and the
axiom report must equal the pair-by-pair label oracles and the old axiom
loops; the array arithmetic must equal the coefficient loops bit for bit,
not up to a tolerance.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import kgraphs as kg
from kgraphs.algebra import AlgebraElement
from kgraphs.skeleton import Degree

import oracles as orc
from conftest import line_document
from oracles import LabelGroupoid, label_composite, label_convolve, label_involution, label_inverse


def groupoids(sk):
    space = kg.enumerate_path_space(sk)
    return kg.build_path_groupoid(space), kg.build_boundary_groupoid(space)


@pytest.fixture(scope="module")
def exact_groupoids(instance_b, instance_e):
    grid = kg.grid_skeleton(2, Degree((2, 2))).skeleton
    line = kg.load_skeleton(line_document(6))
    return {
        f"{name}-{part}": G
        for name, sk in (("b", instance_b), ("e", instance_e), ("grid", grid), ("line-6", line))
        for part, G in zip(("full", "boundary"), groupoids(sk))
    }


def with_zeros(rng, f: AlgebraElement) -> AlgebraElement:
    """f with about half its entries set to an explicit zero, of either sign."""
    values = f.values.copy()
    zeros = rng.random(len(values)) < 0.5
    values[zeros] = rng.choice([0j, complex(-0.0, 0.0), complex(0.0, -0.0)], zeros.sum())
    return AlgebraElement(f.groupoid, values)


def sample_elements(rng, G) -> list[AlgebraElement]:
    """Dense elements, dense elements with explicit zeros, and a spread of deltas."""
    dense = [orc.random_algebra_element(rng, G) for _ in range(3)]
    deltas = [AlgebraElement.delta(G, g.label(), complex(*rng.standard_normal(2))) for g in G]
    return dense + [with_zeros(rng, f) for f in dense] + deltas[:: max(1, len(deltas) // 8)]


def product_outcome(G, a: int, b: int):
    try:
        return G.product(a, b)
    except (KeyError, ValueError) as exc:
        return type(exc)


def table_matches_labels(G):
    index = orc.label_index(G)
    for ia, a in enumerate(G.elements):
        for ib, b in enumerate(G.elements):
            expected = ValueError if b.x != a.y else index.get(label_composite(a, b), KeyError)
            assert product_outcome(G, ia, ib) == expected
        assert G.inverse.get(ia) == index.get(label_inverse(a))


def test_table_entries_follow_label_arithmetic(exact_groupoids):
    for G in exact_groupoids.values():
        table_matches_labels(G)


def test_truncated_table_follows_label_arithmetic(instance_a):
    table_matches_labels(
        kg.build_path_groupoid(kg.enumerate_path_space(instance_a, bound=Degree((1, 1))))
    )


def test_each_composition_column_is_contiguous(exact_groupoids, instance_a):
    """a, b and ab are each a C-contiguous intp array, not a strided row of one (pairs x 3) array."""
    truncated = kg.build_path_groupoid(kg.enumerate_path_space(instance_a, bound=Degree((1, 1))))
    broken, _ = drop_a_composite(exact_groupoids["e-full"])
    for G in [*exact_groupoids.values(), truncated, broken]:
        (a, b, ab), missing = G.composition
        for column in (a, b, ab):
            assert column.flags.c_contiguous and column.dtype == np.intp and column.base is None
        assert G.bins("ab", 1) is ab
    assert broken.composition[1]


def test_table_is_built_on_first_use(instance_a, instance_e):
    truncated = kg.build_path_groupoid(kg.enumerate_path_space(instance_a, bound=Degree((2, 2))))
    truncated.to_json()
    G = kg.build_path_groupoid(kg.enumerate_path_space(instance_e))
    for H in (truncated, G):
        assert "inverse" not in vars(H)
        assert "composition" not in vars(H)
    kg.convolve(AlgebraElement.delta(G, G.elements[0].label()), AlgebraElement.zero(G))
    assert "composition" in vars(G)


def test_convolve_and_involution_equal_the_label_oracle_exactly(exact_groupoids):
    rng = np.random.default_rng(11)
    for G in exact_groupoids.values():
        dense = [orc.random_algebra_element(rng, G) for _ in range(4)]
        dense.append(with_zeros(rng, dense[0]))
        deltas = [AlgebraElement.delta(G, g.label(), complex(*rng.standard_normal(2))) for g in G.elements]
        for f in dense + deltas[:: max(1, len(deltas) // 12)]:
            assert kg.involution(f) == label_involution(f)
            for g in dense:
                assert kg.convolve(f, g) == label_convolve(f, g)
                assert kg.convolve(g, f) == label_convolve(g, f)
        if len(G) <= 50:
            for f in deltas:
                for g in deltas:
                    assert kg.convolve(f, g) == label_convolve(f, g)


def label_rows(G) -> list[tuple[int, int, int | None]]:
    """(a, b, index of ab or None) over every composable pair, by label arithmetic."""
    index = orc.label_index(G)
    return [
        (ia, ib, index.get(label_composite(a, b)))
        for ia, a in enumerate(G.elements)
        for ib, b in enumerate(G.elements)
        if b.x == a.y
    ]


def test_pairs_list_the_table_ascending(exact_groupoids, instance_a):
    truncated = kg.build_path_groupoid(kg.enumerate_path_space(instance_a, bound=Degree((1, 1))))
    for G in [*exact_groupoids.values(), truncated]:
        rows = label_rows(G)
        pairs, missing = G.composition
        assert list(zip(*(c.tolist() for c in pairs))) == [r for r in rows if r[2] is not None]
        assert missing == [(a, b) for a, b, ab in rows if ab is None]
        assert rows == sorted(rows)


def test_by_range_and_isotropy_equal_the_scans(exact_groupoids, instance_a):
    truncated = kg.build_path_groupoid(kg.enumerate_path_space(instance_a, bound=Degree((2, 2))))
    for G in [*exact_groupoids.values(), truncated]:
        xs = {g.x for g in G.elements}
        by_range = LabelGroupoid(G.space, G.elements).by_range
        assert by_range == {u: [i for i, g in enumerate(G.elements) if g.x == u] for u in sorted(xs)}
        for u in range(len(G.space.elements) + 1):
            assert orc.isotropy(G, u) == tuple(g for g in G.elements if g.x == u and g.y == u)


def test_scale_moduli_and_gauge_equal_the_coefficient_loops_exactly(exact_groupoids):
    rng = np.random.default_rng(23)
    for G in exact_groupoids.values():
        for f in sample_elements(rng, G):
            t = complex(np.exp(2j * np.pi * rng.random()))
            ts = tuple(complex(np.exp(2j * np.pi * rng.random())) for _ in range(G.rank))
            for c in (t, -1, 2.5):
                assert f.scale(c) == orc.loop_scale(f, c)
            assert f.max_abs() == orc.loop_max_abs(f)
            assert (f - f.scale(t)).max_abs() == orc.loop_max_abs(f - f.scale(t))
            assert orc.i_norm(f) == orc.loop_i_norm(f)
            assert orc.gauge_automorphism(f, ts) == orc.loop_gauge_automorphism(f, ts)


def test_swapped_composites_fail_basis_associativity_by_exactly_one(instance_e):
    G, _ = groupoids(instance_e)
    units = set(G.unit_index.values())
    (a, b, ab), _ = G.composition
    # The first row with two non-unit successors whose composites differ.
    rows: dict[int, list[int]] = {}
    for k in range(len(a)):
        if a[k] not in units and b[k] not in units:
            rows.setdefault(int(a[k]), []).append(k)
    k1, k2 = next(ks for ks in rows.values() if len({int(ab[k]) for k in ks}) > 1)[:2]
    ab[k1], ab[k2] = ab[k2], ab[k1]
    reports = kg.verify_algebra_identities(G, samples=0)
    assert reports[0].identity == "convolution_associativity"
    assert reports[0].max_deviation == 1.0 and not reports[0].passed
    assert [r.max_deviation for r in reports[1:]] == [0.0] * 5


def drop_a_composite(G):
    """G without one non-unit element that is the composite of non-unit pairs.

    Returns the broken groupoid and those pairs, as index pairs into G.
    """
    units = set(G.unit_index.values())
    rows = list(zip(*(c.tolist() for c in G.composition[0])))

    def factorizations(i):
        return [(ia, ib) for ia, ib, iab in rows if iab == i and not {ia, ib} & units]

    dropped = next(i for i in range(len(G)) if i not in units and factorizations(i))
    kept = [g for i, g in enumerate(G.elements) if i != dropped]
    return LabelGroupoid(G.space, kept), factorizations(dropped)


def test_dropped_element_is_a_missing_composite(instance_e):
    G, _ = groupoids(instance_e)
    broken, pairs = drop_a_composite(G)
    report = kg.verify_groupoid_axioms(broken)
    assert not report.passed
    for ia, ib in pairs:
        a, b = G.elements[ia], G.elements[ib]
        assert f"composite of {a.label()} and {b.label()} missing" in report.failures
        ja, jb = broken.index_of(a.label()), broken.index_of(b.label())
        assert (ja, jb) in broken.composition[1]
        with pytest.raises(KeyError, match="composite of"):
            broken.product(ja, jb)
        with pytest.raises(KeyError, match="composite of"):
            kg.convolve(AlgebraElement(broken, {ja: 1.0}), AlgebraElement(broken, {jb: 1.0}))


def test_a_missing_composite_fails_only_what_reads_it(instance_e):
    G, _ = groupoids(instance_e)
    broken, pairs = drop_a_composite(G)
    rng = np.random.default_rng(5)
    f = orc.random_algebra_element(rng, broken)
    g = orc.random_algebra_element(rng, broken)
    # Nothing below reads a composite or an inverse.
    ts = tuple(complex(np.exp(2j * np.pi * rng.random())) for _ in range(broken.rank))
    assert orc.i_norm(f) == orc.loop_i_norm(f)
    assert orc.gauge_automorphism(f, ts) == orc.loop_gauge_automorphism(f, ts)
    assert orc.support_levels(f) == {el.m for el in broken.elements}
    level = broken.elements[0].m
    part = orc.homogeneous_component(f, level)
    assert part.coefficients == {
        i: c for i, c in f.coefficients.items() if broken.elements[i].m == level
    }
    # A product fails only where nonzero coefficients meet at a missing composite.
    off = f.values.copy()
    off[[broken.index_of(G.elements[ia].label()) for ia, _ in pairs]] = 0
    f_off = AlgebraElement(broken, off)
    assert kg.convolve(f_off, g) == label_convolve(f_off, g)
    with pytest.raises(KeyError, match="composite of"):
        kg.convolve(f, g)
    # The dropped element's inverse lost its own inverse.
    with pytest.raises(KeyError):
        kg.involution(f)


def test_generation_total_is_the_delta_span(instance_b, instance_e):
    for sk in (instance_b, instance_e):
        for G in groupoids(sk):
            deltas = [AlgebraElement.delta(G, g.label()) for g in G.elements]
            assert kg.algebra_dimension(deltas) == kg.generation_check(G).total_dimension == len(G)


def mutants(G):
    """Hand-broken copies of G: name -> element list."""
    units = set(G.unit_index.values())
    h = next(i for i, g in enumerate(G.elements) if i not in units)
    g = G.elements[h]
    p, q = g.witness
    return {
        "dropped composite": list(drop_a_composite(G)[0].elements),
        "dropped inverse": [k for i, k in enumerate(G.elements) if i != G.inverse[h]],
        "bad witness": [replace(k, witness=(q, p)) if i == h else k for i, k in enumerate(G.elements)],
        "duplicated non-unit label": [*G.elements, g],
        "duplicated unit": [*G.elements, G.elements[max(units)]],
    }


def test_axiom_report_equals_the_loops(exact_groupoids, instance_a):
    truncated = kg.build_path_groupoid(kg.enumerate_path_space(instance_a, bound=Degree((1, 1))))
    for G in [*exact_groupoids.values(), truncated]:
        assert kg.verify_groupoid_axioms(G) == orc.loop_groupoid_axioms(G)


@pytest.mark.parametrize("name", ["e-full", "e-boundary", "line-6-full", "grid-boundary"])
def test_axiom_report_equals_the_loops_on_mutants(exact_groupoids, name):
    expected_prefix = {
        "dropped composite": "composite of",
        "dropped inverse": "inverse of",
        "bad witness": "invalid witness on",
        "duplicated non-unit label": "unit law fails at",
        "duplicated unit": "unit law fails at",
    }
    G = exact_groupoids[name]
    for mutant, elements in mutants(G).items():
        broken = LabelGroupoid(G.space, elements)
        report = kg.verify_groupoid_axioms(broken)
        assert report == orc.loop_groupoid_axioms(broken), mutant
        assert not report.passed
        assert any(f.startswith(expected_prefix[mutant]) for f in report.failures), mutant
