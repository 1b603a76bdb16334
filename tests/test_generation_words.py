"""`generation_check` by cylinder words, against the span closure.

The words s_x s_y* are unitriangular in the delta basis of a path groupoid,
so `generation_check` reports |G| without `algebra_dimension`.  Where a word
does not check (a broken generator, a missing composite), it must give the
span closure's report, through the span closure.
"""

from __future__ import annotations

import numpy as np
import pytest

import kgraphs as kg
from kgraphs import algebra as alg
from kgraphs.algebra import AlgebraElement, EdgeFunction, GenerationReport, VertexFunction
from kgraphs.algebra import algebra_dimension

from kgraphs.groupoid import FiniteGroupoid

from conftest import line_document, load_instance
from test_boundary_search import INSTANCES
from test_composition_table import drop_a_composite


def span_closure_report(G) -> GenerationReport:
    """The report as the span closure of the (possibly patched) generators gives it."""
    sk = G.space.skeleton
    generators = [alg.vertex_operator(G, VertexFunction.delta(v.id)) for v in sk.vertices]
    generators += [alg.edge_operator(G, EdgeFunction.delta(e.id)) for e in sk.edges]
    generated = algebra_dimension([g for g in generators if g.coefficients])
    return GenerationReport(generated, len(G), generated == len(G))


def rank_one_groupoids(max_size: int | None = None) -> dict:
    skeletons = [("b", load_instance("b")), ("e", load_instance("e"))]
    skeletons += [(f"line-{n}", kg.load_skeleton(line_document(n))) for n in range(1, 5)]
    skeletons += [(name, sk) for name, sk in INSTANCES if sk.rank == 1]
    out = {}
    for name, sk in skeletons:
        space = kg.enumerate_path_space(sk)
        for part, G in (("full", kg.build_path_groupoid(space)), ("boundary", kg.build_boundary_groupoid(space))):
            if max_size is None or len(G) <= max_size:
                out[f"{name}-{part}"] = G
    return out


SMALL = rank_one_groupoids(max_size=60)


@pytest.fixture
def span_closure_calls(monkeypatch) -> list:
    """Counts the calls `generation_check` makes to `algebra_dimension`."""
    calls = []

    def spy(generators):
        calls.append(1)
        return algebra_dimension(generators)

    monkeypatch.setattr(alg, "algebra_dimension", spy)
    return calls


@pytest.mark.parametrize("name", sorted(SMALL))
def test_words_give_the_span_closure_report_without_it(name, span_closure_calls):
    G = SMALL[name]
    assert kg.generation_check(G) == span_closure_report(G)
    assert span_closure_calls == []


def test_every_instance_family_is_covered():
    families = {name.rsplit("-", 2)[0] for name in SMALL}
    assert {"b", "e", "line", "tree", "multigraph"} <= families
    assert any(name.endswith("boundary") for name in SMALL)


def test_no_span_closure_on_bundled_instances_and_line_12(span_closure_calls):
    space = kg.enumerate_path_space(kg.load_skeleton(line_document(12)))
    groupoids = [kg.build_path_groupoid(space), kg.build_boundary_groupoid(space)]
    for name in ("b", "e"):
        sk_space = kg.enumerate_path_space(load_instance(name))
        groupoids += [kg.build_path_groupoid(sk_space), kg.build_boundary_groupoid(sk_space)]
    for G in groupoids:
        assert kg.generation_check(G) == GenerationReport(len(G), len(G), True)
    assert [len(G) for G in groupoids[:2]] == [819, 169]
    assert span_closure_calls == []


# --- broken generators: the words fail and the span closure decides --------


def dropped_edge(monkeypatch, G):
    """`edge_operator` gives 0 for the first edge."""
    real, dropped = alg.edge_operator, G.space.skeleton.edges[0].id

    def mutant(G, xi):
        return AlgebraElement.zero(G) if set(xi.values) == {dropped} else real(G, xi)

    monkeypatch.setattr(alg, "edge_operator", mutant)


def wrong_tail(monkeypatch, G):
    """`edge_operator` puts x's value at (x, 1, y) for the last y other than x's tail."""
    real = alg.edge_operator

    def mutant(G, xi):
        values = np.zeros(len(G), dtype=complex)
        for h, c in real(G, xi).coefficients.items():
            x, m, y = G.elements[h].label()
            twins = [j for j in range(len(G.space.elements)) if j != y and (x, m, j) in G]
            values[G.index_of((x, m, twins[-1] if twins else y))] = c
        return AlgebraElement(G, values)

    monkeypatch.setattr(alg, "edge_operator", mutant)


def wrong_unit(monkeypatch, G):
    """`vertex_operator` swaps a vertex path's unit with a unit of another range."""
    real = alg.vertex_operator
    a, b = swapped_units(G)

    def mutant(G, f):
        values = real(G, f).values.copy()
        values[[a, b]] = values[[b, a]]
        return AlgebraElement(G, values)

    monkeypatch.setattr(alg, "vertex_operator", mutant)


def shared_unit(monkeypatch, G):
    """`vertex_operator` repeats a vertex path's value at another vertex path's unit.

    Each word keeps its leading 1; the words of the first vertex gain a term at
    an x of the same length, which only the triangular check sees.
    """
    real = alg.vertex_operator
    a, b = vertex_units(G)[:2]

    def mutant(G, f):
        values = real(G, f).values.copy()
        values[b] += values[a]
        return AlgebraElement(G, values)

    monkeypatch.setattr(alg, "vertex_operator", mutant)


def doubled_long_units(monkeypatch, G):
    """`vertex_operator` doubles its value at the units of paths of length >= 1.

    Each word keeps its leading 1 and its triangular support, but the terms
    at longer x become 4, which only the coefficient check sees.
    """
    real = alg.vertex_operator
    long_units = [i for p, i in G.unit_index.items() if G.space.elements[p].path.degree.total]

    def mutant(G, f):
        values = real(G, f).values.copy()
        values[long_units] *= 2
        return AlgebraElement(G, values)

    monkeypatch.setattr(alg, "vertex_operator", mutant)


def vertex_units(G) -> list[int]:
    return [i for p, i in sorted(G.unit_index.items()) if G.space.elements[p].path.degree.total == 0]


def swapped_units(G) -> tuple[int, int] | None:
    paths = {i: G.space.elements[i].path for i in G.unit_index}
    p = next(i for i, path in paths.items() if path.degree.total == 0)
    q = next((i for i, path in paths.items() if path.range != paths[p].range), None)
    return None if q is None else (G.unit_index[p], G.unit_index[q])


def has_a_twin_tail(G) -> bool:
    return any(
        (x, (1,), j) in G
        for x, el in enumerate(G.space.elements)
        if el.path.degree.total >= 1
        for j in range(len(G.space.elements))
        if j != G.space.index_of(G.space.factors[x][(1,)][1])
    )


MUTANTS = {
    "dropped-edge": (dropped_edge, lambda G: bool(G.space.skeleton.edges)),
    "wrong-tail": (wrong_tail, has_a_twin_tail),
    "wrong-unit": (wrong_unit, lambda G: swapped_units(G) is not None),
    "shared-unit": (shared_unit, lambda G: len(vertex_units(G)) >= 2),
    # On a boundary groupoid the words end in source vertices, whose paths are all length 0.
    "doubled-long-units": (
        doubled_long_units,
        lambda G: not G.space.boundary_only and len(vertex_units(G)) < len(G.unit_index),
    ),
}
# Twin tails need parallel paths, which the smallest instances lack.
MUTANT_CASES = [
    (mutant, name)
    for mutant, (_, applies) in MUTANTS.items()
    for name in sorted(SMALL)
    if len(SMALL[name]) <= (36 if mutant == "wrong-tail" else 20) and applies(SMALL[name])
]


def test_every_mutant_has_cases():
    assert {mutant for mutant, _ in MUTANT_CASES} == set(MUTANTS)
    assert sum(mutant == "wrong-tail" for mutant, _ in MUTANT_CASES) >= 3


@pytest.mark.parametrize("mutant,name", MUTANT_CASES)
def test_a_broken_generator_gets_the_span_closure_report(mutant, name, monkeypatch, span_closure_calls):
    G = SMALL[name]
    MUTANTS[mutant][0](monkeypatch, G)
    assert kg.generation_check(G) == span_closure_report(G)
    assert span_closure_calls == [1]


def outcome(check, G):
    try:
        return check(G)
    except Exception as exc:  # an exception is an outcome too: same type, same message
        return type(exc), str(exc)


def without_pair(G, h):
    """G without the element h and its inverse; every remaining inverse is there."""
    gone = {h, G.inverse[h]}
    return FiniteGroupoid(G.space, [g for i, g in enumerate(G.elements) if i not in gone])


@pytest.mark.parametrize("name", ["e", "line-3", "line-4"])
def test_a_dropped_composite_behaves_as_the_span_closure(name):
    sk = load_instance(name) if name == "e" else kg.load_skeleton(line_document(int(name[-1])))
    broken, _ = drop_a_composite(kg.build_path_groupoid(kg.enumerate_path_space(sk)))
    assert outcome(kg.generation_check, broken) == outcome(span_closure_report, broken)


@pytest.mark.parametrize("name", ["e", "line-3"])
def test_every_dropped_inverse_pair_behaves_as_the_span_closure(name):
    """Some of these leave every word checking; the missing composite still decides."""
    sk = load_instance(name) if name == "e" else kg.load_skeleton(line_document(3))
    G = kg.build_path_groupoid(kg.enumerate_path_space(sk))
    for h in range(len(G)):
        broken = without_pair(G, h)
        assert outcome(kg.generation_check, broken) == outcome(span_closure_report, broken), h
