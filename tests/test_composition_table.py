"""The composition table of `FiniteGroupoid` against label arithmetic."""

from __future__ import annotations

import numpy as np
import pytest

import kgraphs as kg
from kgraphs import algebra as alg
from kgraphs.algebra import AlgebraElement
from kgraphs.groupoid import FiniteGroupoid
from kgraphs.skeleton import Degree

from oracles import label_composite, label_convolve, label_involution, label_inverse


def groupoids(sk):
    space = kg.enumerate_path_space(sk)
    return kg.build_path_groupoid(space), kg.build_boundary_groupoid(space)


@pytest.fixture(scope="module")
def exact_groupoids(instance_b, instance_e):
    grid = kg.grid_skeleton(2, Degree((2, 2))).skeleton
    return {
        f"{name}-{part}": G
        for name, sk in (("b", instance_b), ("e", instance_e), ("grid", grid))
        for part, G in zip(("full", "boundary"), groupoids(sk))
    }


def table_matches_labels(G):
    for ia, a in enumerate(G.elements):
        composable = [ib for ib, b in enumerate(G.elements) if b.x == a.y]
        assert list(G.successors[ia]) == composable
        for ib in composable:
            label = label_composite(a, G.elements[ib])
            expected = G.index_of(label) if label in G else None
            assert G.successors[ia][ib] == expected
        inv = label_inverse(a)
        assert G.inverse.get(ia) == (G.index_of(inv) if inv in G else None)


def test_table_entries_follow_label_arithmetic(exact_groupoids):
    for G in exact_groupoids.values():
        table_matches_labels(G)


def test_truncated_table_follows_label_arithmetic(instance_a):
    table_matches_labels(
        kg.build_path_groupoid(kg.enumerate_path_space(instance_a, bound=Degree((1, 1))))
    )


def test_table_is_built_on_first_use(instance_a, instance_e):
    truncated = kg.build_path_groupoid(kg.enumerate_path_space(instance_a, bound=Degree((2, 2))))
    truncated.to_json()
    G = kg.build_path_groupoid(kg.enumerate_path_space(instance_e))
    for H in (truncated, G):
        assert "successors" not in vars(H) and "inverse" not in vars(H)
    kg.convolve(AlgebraElement.delta(G, G.elements[0].label()), AlgebraElement.zero(G))
    assert "successors" in vars(G)


def test_convolve_and_involution_equal_the_label_oracle_exactly(exact_groupoids):
    rng = np.random.default_rng(11)
    for G in exact_groupoids.values():
        dense = [alg.random_algebra_element(rng, G) for _ in range(4)]
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


def test_dropped_element_is_a_missing_composite(instance_e):
    G, _ = groupoids(instance_e)
    units = set(G.unit_index.values())

    def factorizations(i):
        return [
            (ia, ib)
            for ia, row in enumerate(G.successors)
            for ib, iab in row.items()
            if iab == i and not {ia, ib} & units
        ]

    dropped = next(i for i in range(len(G)) if i not in units and factorizations(i))
    kept = [g for i, g in enumerate(G.elements) if i != dropped]
    broken = FiniteGroupoid(G.space, kept)
    report = kg.verify_groupoid_axioms(broken)
    assert not report.passed
    for ia, ib in factorizations(dropped):
        a, b = G.elements[ia], G.elements[ib]
        assert f"composite of {a.label()} and {b.label()} missing" in report.failures
        ja, jb = broken.index_of(a.label()), broken.index_of(b.label())
        assert broken.successors[ja][jb] is None
        with pytest.raises(KeyError, match="composite of"):
            broken.product(ja, jb)
        with pytest.raises(KeyError, match="composite of"):
            kg.convolve(AlgebraElement(broken, {ja: 1.0}), AlgebraElement(broken, {jb: 1.0}))


def test_generation_total_is_the_delta_span(instance_b, instance_e):
    for sk in (instance_b, instance_e):
        for G in groupoids(sk):
            deltas = [AlgebraElement.delta(G, g.label()) for g in G.elements]
            assert kg.algebra_dimension(deltas) == kg.generation_check(G).total_dimension == len(G)
