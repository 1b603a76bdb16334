"""Acceptance suite: one test per criterion, each printing a pass line.

Tolerances are pinned here exactly as stated; the sample counts are 100
with fixed seeds.  Structural equalities use zero tolerance.

Every expected count below was recomputed from scratch by the oracles in
tests/oracles.py (word-level enumeration, raw-definition boundary checks)
before being frozen.  Note: the full path groupoid of the three-vertex line
instance has 14 elements, not 12: the pair (f2, 1, v2) and its inverse are
forced by the groupoid definition (the tail of f2 after one shift is the
vertex path v2), and without them the degree-1 representation of the edge
function at f2 would not exist and the adjoint-product identity would fail.
The independent crosscheck sum over vertices of (paths sourced there)^2 =
1 + 4 + 9 = 14 agrees.
"""

from __future__ import annotations

import time
from itertools import product as iproduct

import numpy as np
import pytest

import kgraphs as kg
from kgraphs import algebra as alg
from kgraphs.algebra import AlgebraElement, VertexFunction
from kgraphs.bimodule import BimoduleOperator
from kgraphs.skeleton import Degree, degree_box

import oracles as orc
from conftest import load_instance

TOL = 1e-9
SAMPLES = 100
SEED = 12345


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


@pytest.fixture(scope="module")
def instances():
    return {name: load_instance(name) for name in "abcde"}


@pytest.fixture(scope="module")
def rank1_setups(instances):
    out = {}
    for name in ("b", "e"):
        sk = instances[name]
        space = kg.enumerate_path_space(sk)
        out[name] = (
            sk,
            space,
            kg.build_path_groupoid(space),
            kg.build_boundary_groupoid(space),
        )
    return out


def test_criterion_01_axiom_validation(instances):
    for name in "abce":
        start = time.perf_counter()
        squares, hexagons = kg.validate(instances[name])
        elapsed = time.perf_counter() - start
        assert squares.passed and hexagons.passed, name
        assert elapsed < 1.0
    start = time.perf_counter()
    squares, hexagons = kg.validate(instances["d"])
    elapsed = time.perf_counter() - start
    assert not squares.passed
    assert ("b2", "r") in [f.items for f in squares.failures]
    assert elapsed < 1.0
    _passed(1, "axiom validation")


def test_criterion_02_unique_factorization(instances):
    for name in "abce":
        sk = instances[name]
        bound = Degree((3,) * sk.rank)
        pool = [p for n in degree_box(bound) for p in kg.all_paths(sk, n)]
        by_degree: dict[tuple, list] = {}
        for p in pool:
            by_degree.setdefault(p.degree.coords, []).append(p)
        for lam in pool:
            for m in degree_box(lam.degree):
                head, tail = kg.factorize(sk, lam, m)
                assert kg.compose(sk, head, tail) == lam
                # brute-force search over all candidate pairs
                rest = lam.degree - m
                matches = [
                    (xi, eta)
                    for xi in by_degree.get(m.coords, [])
                    for eta in by_degree.get(rest.coords, [])
                    if xi.range == lam.range
                    and kg.source(sk, xi) == eta.range
                    and kg.compose(sk, xi, eta) == lam
                ]
                assert matches == [(head, tail)]
    _passed(2, "unique factorization")


def test_criterion_03_minimal_extensions_against_oracle(instances):
    for name in "abce":
        sk = instances[name]
        bound = Degree((2,) * sk.rank)
        pool = [p for n in degree_box(bound) for p in kg.all_paths(sk, n)]
        for a in pool:
            for b in pool:
                got = {
                    (
                        orc.word_class(sk, p.alpha.word)
                        if p.alpha.word
                        else frozenset({()}),
                        orc.word_class(sk, p.beta.word)
                        if p.beta.word
                        else frozenset({()}),
                    )
                    for p in kg.minimal_extension_pairs(sk, a, b)
                }
                expected = (
                    orc.brute_minimal_extension_pairs(
                        sk, a.word, b.word, a.degree, b.degree, a.range
                    )
                    if a.range == b.range
                    else set()
                )
                assert got == expected
                if sk.rank == 1:
                    assert len(got) <= 1
    _passed(3, "minimal common extension oracle equivalence")


def test_criterion_04_boundary_space(rank1_setups, instances):
    sk_b, space_b, _, _ = rank1_setups["b"]
    names = {
        (el.range, el.word)
        for el in kg.boundary_paths(space_b)
    }
    assert names == {("v", ("e",)), ("w", ())}
    sk_e, space_e, _, _ = rank1_setups["e"]
    boundary_e = kg.boundary_paths(space_e)
    assert len(boundary_e) == 3
    assert {
        (el.range, el.word) for el in boundary_e
    } == orc.rank1_boundary(sk_e)
    # invariance under shift and prepend, exhaustively
    for sk, space, _, _ in rank1_setups.values():
        members = set(kg.boundary_paths(space))
        for el in kg.boundary_paths(space):
            for m in degree_box(el.degree):
                assert orc.shift(sk, el, m) in members
            for lam in kg.enumerate_paths(sk):
                if kg.source(sk, lam) == el.range:
                    assert kg.prepend(sk, lam, el) in members
    # nonempty on every valid instance with a decidable boundary
    extra = [
        kg.grid_skeleton(1, Degree((2,))).skeleton,
        kg.grid_skeleton(2, Degree((1, 1))).skeleton,
        kg.load_skeleton({"rank": 1, "vertices": [{"id": "u"}], "edges": [], "squares": []}),
    ]
    for sk in [rank1_setups["b"][0], rank1_setups["e"][0], *extra]:
        assert len(kg.boundary_paths(kg.enumerate_path_space(sk))) > 0
    _passed(4, "boundary space")


def test_criterion_05_groupoid_counts_and_axioms(rank1_setups):
    start = time.perf_counter()
    _, _, G_b, Gb_b = rank1_setups["b"]
    _, _, G_e, Gb_e = rank1_setups["e"]
    assert (len(G_b), len(Gb_b)) == (5, 4)
    # 14, not the 12 of the original tally: see module docstring.
    assert (len(G_e), len(Gb_e)) == (14, 9)
    extras = [
        kg.build_path_groupoid(
            kg.enumerate_path_space(kg.grid_skeleton(2, Degree((1, 1))).skeleton)
        )
    ]
    for G in (G_b, Gb_b, G_e, Gb_e, *extras):
        assert kg.verify_groupoid_axioms(G).passed
        assert kg.verify_etale(G).passed
        for g1 in G.elements:
            assert orc.cocycle(orc.invert_element(G, g1)) == tuple(
                -c for c in orc.cocycle(g1)
            )
            for g2 in G.elements:
                if g1.y == g2.x:
                    assert orc.cocycle(orc.compose_elements(G, g1, g2)) == tuple(
                        a + b for a, b in zip(g1.m, g2.m)
                    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(5, "groupoid counts and axioms")


def test_criterion_06_convolution_algebra(rank1_setups):
    for name in ("b", "e"):
        _, _, G, Gb = rank1_setups[name]
        for gpd in (G, Gb):
            reports = alg.verify_algebra_identities(gpd, SAMPLES, TOL, SEED)
            for r in reports:
                assert r.passed, (name, r.identity, r.max_deviation)
                assert r.max_deviation <= TOL
    _passed(6, "convolution algebra identities")


def test_criterion_07_toeplitz_relations(rank1_setups):
    for name in ("b", "e"):
        _, _, G, Gb = rank1_setups[name]
        for gpd in (G, Gb):
            reports = alg.verify_toeplitz_identities(gpd, SAMPLES, TOL, SEED)
            for r in reports:
                assert r.passed, (name, r.identity, r.max_deviation)
    _passed(7, "toeplitz relations")


def test_criterion_08_cuntz_krieger_relation(rank1_setups):
    for name in ("b", "e"):
        sk, _, _, Gb = rank1_setups[name]
        report = alg.verify_cuntz_krieger(Gb, SAMPLES, TOL, SEED)
        assert report.passed and report.max_deviation <= TOL
        # decomposition properties hold with zero deviation
        rng = np.random.default_rng(SEED)
        regular = kg.classify_vertices(sk).regular
        for _ in range(20):
            f = orc.random_vertex_function(rng, regular)
            pairs = kg.rank_one_decomposition(sk, f)
            for e in sk.edges:
                assert (
                    sum(xi(e.id) * eta(e.id).conjugate() for xi, eta in pairs)
                    == f(e.range)
                )
            for xi, eta in pairs:
                for e, e2 in iproduct(sk.edges, sk.edges):
                    if e.id != e2.id and e.source == e2.source:
                        assert xi(e.id) * eta(e2.id).conjugate() == 0
            total = BimoduleOperator({})
            for xi, eta in pairs:
                total = total + kg.rank_one_operator(sk, xi, eta)
            assert (total - kg.left_mult_operator(sk, f)).max_abs() == 0.0
    _passed(8, "cuntz-krieger relation")


def test_criterion_09_algebra_dimensions(rank1_setups):
    _, _, G_b, Gb_b = rank1_setups["b"]
    _, _, G_e, Gb_e = rank1_setups["e"]
    assert alg.algebra_dimension(
        [AlgebraElement.delta(Gb_b, g.label()) for g in Gb_b]
    ) == 4
    assert alg.algebra_dimension(
        [AlgebraElement.delta(G_b, g.label()) for g in G_b]
    ) == 5
    assert alg.algebra_dimension(
        [AlgebraElement.delta(Gb_e, g.label()) for g in Gb_e]
    ) == 9
    for G in (G_b, Gb_b, G_e, Gb_e):
        assert kg.generation_check(G).passed
    _passed(9, "algebra dimensions and generation")


def test_criterion_10_gauge_action(rank1_setups):
    for name in ("b", "e"):
        sk, _, G, Gb = rank1_setups[name]
        for gpd in (G, Gb):
            reports = alg.verify_gauge_action(gpd, SAMPLES, TOL, SEED)
            by_name = {r.identity: r for r in reports}
            assert by_name["gauge_automorphism"].passed
            assert by_name["gauge_automorphism"].max_deviation <= TOL
            assert by_name["gauge_grading"].passed
            # generator scaling is exact: tolerance zero
            assert by_name["gauge_scales_generators"].max_deviation == 0.0
    _passed(10, "gauge action")


def test_criterion_11_quotient_compatibility(rank1_setups):
    for name in ("b", "e"):
        _, _, G, Gb = rank1_setups[name]
        report = alg.verify_quotient(G, Gb, SAMPLES, SEED)
        assert report.passed
        assert report.max_deviation == 0.0
    _passed(11, "quotient compatibility")
