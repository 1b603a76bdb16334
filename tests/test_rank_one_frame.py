"""The rank-1 edge columns and the one frame the Cuntz-Krieger suite lifts.

`verify_cuntz_krieger` decomposes the indicator of the regular vertices once
per call into the frame (delta_e, delta_e), forms each projection
P_e = S(delta_e) S(delta_e)* once per call, and lifts each sample f as the sum
of f(r(e)) P_e.  That rests on one identity: the decomposition
of f is the left action of f on that frame, pair for pair, less the pairs f
sends to 0 (hypothesis, derandomized, no example database).  The
decomposition itself takes time linear in its pairs, and so does reading the
frame's rows.  The P_e have disjoint supports, so the lift is one gather of f
at each element's range times their sum; its reports equal the per-sample
oracle's, floats included.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgraphs as kg
from kgraphs import algebra as alg
from kgraphs.bimodule import BimoduleOperator, EdgeFunction, VertexFunction

import oracles as orc
from conftest import line_document, load_instance
from test_boundary_search import star, tree
from test_stacked_suites import groupoids

TREES = {f"tree-{seed}": tree(random.Random(seed), size) for seed, size in ((1, 5), (2, 8), (3, 11))}
SKELETONS = {
    **{name: load_instance(name) for name in "be"},
    **{f"line-{n}": kg.load_skeleton(line_document(n)) for n in range(5)},
    **TREES,
}


@pytest.mark.parametrize("name", ["b", "e", "line-4"])
@pytest.mark.parametrize("samples", [1, 100, 257])
def test_the_cuntz_krieger_suite_decomposes_once_per_call(monkeypatch, name, samples):
    _, _, Gb = groupoids(name)
    calls = []

    def spy(sk, f):
        calls.append(f)
        return kg.rank_one_decomposition(sk, f)

    monkeypatch.setattr(alg, "rank_one_decomposition", spy)
    assert alg.verify_cuntz_krieger(Gb, samples).passed
    assert len(calls) == 1


@pytest.mark.parametrize("samples", [0, 1, 100])
def test_the_cuntz_krieger_suite_forms_each_projection_once_per_call(monkeypatch, samples):
    """Line n=12 runs one sample per chunk, so forming them per chunk would convolve 12 times a sample."""
    sk = kg.load_skeleton(line_document(12))
    Gb = kg.build_boundary_groupoid(kg.enumerate_path_space(sk))
    calls = []
    convolve_rows = alg._convolve_rows

    def spy(G, F, H):
        calls.append(G)
        return convolve_rows(G, F, H)

    monkeypatch.setattr(alg, "_convolve_rows", spy)
    assert alg.verify_cuntz_krieger(Gb, samples).passed
    assert len(calls) == (len(sk.edges) if samples else 0)


def test_the_decomposition_still_guards_the_cuntz_krieger_suite(monkeypatch):
    """Parallel edges a, b and an overlapping delta: the suite's one call must fail its cross-term check."""
    sk = kg.load_skeleton(
        {
            "rank": 1,
            "vertices": [{"id": "v"}, {"id": "w"}],
            "edges": [
                {"id": "a", "color": 1, "range": "v", "source": "w"},
                {"id": "b", "color": 1, "range": "v", "source": "w"},
            ],
            "squares": [],
        }
    )
    Gb = kg.build_boundary_groupoid(kg.enumerate_path_space(sk))
    assert alg.verify_cuntz_krieger(Gb, 3).passed

    def both(cls, edge_id, coeff=1.0):
        return cls({e.id: complex(coeff) for e in sk.edges})

    monkeypatch.setattr(EdgeFunction, "delta", classmethod(both))
    with pytest.raises(AssertionError, match="cross-term orthogonality failed"):
        alg.verify_cuntz_krieger(Gb, 3)


@pytest.mark.parametrize("name", sorted(SKELETONS))
def test_the_edge_columns_are_the_skeleton_columns(name):
    sk = SKELETONS[name]
    edge_range, edge_source = alg._edge_ends(sk)
    column = [v.id for v in sk.vertices].index
    assert edge_range.tolist() == [column(e.range) for e in sk.edges]
    assert edge_source.tolist() == [column(e.source) for e in sk.edges]


values = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=1e6, allow_infinity=False))


@pytest.mark.parametrize("name", sorted(SKELETONS))
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_a_decomposition_is_the_left_action_on_the_frame(name, data):
    sk = SKELETONS[name]
    regular = kg.classify_vertices(sk).regular
    drawn = data.draw(st.lists(values, min_size=len(regular), max_size=len(regular)))
    f = VertexFunction(dict(zip(regular, drawn)))
    frame = kg.rank_one_decomposition(sk, VertexFunction.indicator(regular))
    assert len(frame) == len(sk.edges)
    acted = [(kg.left_action(sk, f, xi), eta) for xi, eta in frame]
    assert kg.rank_one_decomposition(sk, f) == [(xi, eta) for xi, eta in acted if xi.values]


def test_the_decomposition_takes_linear_time_on_a_star(monkeypatch):
    """2,000 leaves feed one vertex: a check over edges x pairs would call each function 4,000,000 times."""
    leaves = [f"l{i:04d}" for i in range(2000)]
    sk = kg.load_skeleton(
        {
            "rank": 1,
            "vertices": [{"id": "c"}, *({"id": v} for v in leaves)],
            "edges": [{"id": f"e{v}", "color": 1, "range": "c", "source": v} for v in leaves],
        }
    )
    calls = []
    call = EdgeFunction.__call__

    def counted(self, edge_id):
        calls.append(edge_id)
        return call(self, edge_id)

    def no_add(self, other):
        raise AssertionError("BimoduleOperator.__add__ called")

    monkeypatch.setattr(EdgeFunction, "__call__", counted)
    monkeypatch.setattr(BimoduleOperator, "__add__", no_add)
    pairs = kg.rank_one_decomposition(sk, VertexFunction.delta("c", 2j))
    assert [xi.values for xi, _ in pairs] == [{f"e{v}": 2j} for v in leaves]
    assert len(calls) <= 10 * len(sk.edges)


def test_the_cuntz_krieger_frame_rows_take_linear_time_on_a_star(monkeypatch):
    """2,000 leaves feed one vertex: reading each frame row edge by edge calls the deltas 4,000,000 times."""
    sk = star(2000, 1)
    Gb = kg.build_boundary_groupoid(kg.enumerate_path_space(sk))
    calls = [0]
    call = EdgeFunction.__call__

    def counted(self, edge_id):
        calls[0] += 1
        return call(self, edge_id)

    monkeypatch.setattr(EdgeFunction, "__call__", counted)
    assert alg.verify_cuntz_krieger(Gb, 1).passed
    assert calls[0] <= 10 * len(sk.edges)


LIFTED = {
    **{f"line-{n}": kg.load_skeleton(line_document(n)) for n in (3, 4, 6, 12, 16)},
    **TREES,
    "star-500": star(500, 1),
}


@pytest.mark.parametrize("name", sorted(LIFTED))
def test_the_lift_by_one_gather_equals_the_per_sample_oracle(name):
    """Seeds 0, 1 and 7; the per-sample oracle is slow on the larger inputs, so they run fewer samples."""
    Gb = kg.build_boundary_groupoid(kg.enumerate_path_space(LIFTED[name]))
    counts = {"star-500": (0, 1), "line-12": (0, 1, 100), "line-16": (0, 1, 100)}.get(name, (0, 1, 100, 257))
    for seed in (0, 1, 7):
        for samples in counts:
            want = orc.verify_cuntz_krieger(Gb, samples, 1e-9, seed)
            assert alg.verify_cuntz_krieger(Gb, samples, 1e-9, seed) == want, (seed, samples)
