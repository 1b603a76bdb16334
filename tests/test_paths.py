from __future__ import annotations

import random
import tracemalloc

import pytest

import kgraphs as kg
from kgraphs.skeleton import Degree, degree_box

import oracles as orc
from conftest import line_document, load_instance
from test_boundary_search import tree


def box(*coords):
    return list(degree_box(Degree(coords)))


def paths_up_to(sk, bound):
    return [p for n in degree_box(bound) for p in kg.all_paths(sk, n)]


# --- enumeration against the word-level oracle ---------------------------


@pytest.fixture(scope="module")
def instance_grid_2x2() -> kg.Skeleton:
    return kg.grid_skeleton(2, Degree((2, 2))).skeleton


@pytest.fixture(scope="module")
def instance_grid_1x1x1() -> kg.Skeleton:
    return kg.grid_skeleton(3, Degree((1, 1, 1))).skeleton


@pytest.mark.parametrize(
    "name,bound",
    [
        ("a", (2, 2)), ("b", (3,)), ("c", (1, 1, 1)), ("e", (3,)),
        ("grid_2x2", (2, 2)), ("grid_1x1x1", (1, 1, 1)),
    ],
)
def test_all_paths_matches_word_classes(name, bound, request):
    sk = request.getfixturevalue(f"instance_{name}")
    for n in degree_box(Degree(bound)):
        for v in sk.vertices:
            got = kg.paths_from(sk, v.id, n)
            classes = orc.brute_path_classes(sk, n, v.id)
            assert len(got) == len(classes)
            assert {orc.word_class(sk, p.word) for p in got} == classes
            # unique factorization at the word level: each class holds
            # exactly one color-sorted word, and it is the normal form
            for p in got:
                sorted_words = [
                    w
                    for w in orc.word_class(sk, p.word)
                    if all(
                        sk.color_of(w[t]) <= sk.color_of(w[t + 1])
                        for t in range(len(w) - 1)
                    )
                ]
                assert sorted_words == [p.word]


def test_single_path_of_mixed_degree(instance_a):
    found = kg.all_paths(instance_a, Degree((2, 1)))
    assert len(found) == 1
    assert found[0].blocks == (("b", "b"), ("r",))


def test_degree_zero_paths_are_vertices(instance_b, instance_a):
    for sk in (instance_b, instance_a):
        zero = Degree.zero(sk.rank)
        assert {p.range for p in kg.all_paths(sk, zero)} == set(
            v.id for v in sk.vertices
        )
        assert all(p.is_vertex for p in kg.all_paths(sk, zero))


def test_no_long_paths_off_a_single_edge(instance_b):
    assert kg.all_paths(instance_b, Degree((2,))) == ()


# --- composition ----------------------------------------------------------


def test_compose_rewrites_to_normal_form(instance_a):
    b = kg.edge_path(instance_a, "b")
    r = kg.edge_path(instance_a, "r")
    rb = kg.compose(instance_a, r, b)
    assert rb.degree == Degree((1, 1))
    assert rb.blocks == (("b",), ("r",))
    assert rb == kg.compose(instance_a, b, r)


def test_compose_identity_laws(instance_a, instance_b):
    lam = kg.edge_path(instance_a, "b")
    u = kg.vertex_path(instance_a, "u")
    assert kg.compose(instance_a, u, lam) == lam
    assert kg.compose(instance_a, lam, u) == lam
    e = kg.edge_path(instance_b, "e")
    w = kg.vertex_path(instance_b, "w")
    assert kg.compose(instance_b, e, w) == e


def test_compose_rejects_mismatched_endpoints(instance_b):
    e = kg.edge_path(instance_b, "e")
    with pytest.raises(ValueError, match="not composable"):
        kg.compose(instance_b, e, e)


# --- factorization --------------------------------------------------------


def test_factorize_swaps_colors(instance_a):
    b = kg.edge_path(instance_a, "b")
    r = kg.edge_path(instance_a, "r")
    lam = kg.compose(instance_a, b, r)
    head, tail = kg.factorize(instance_a, lam, Degree((0, 1)))
    assert head == r and tail == b


def test_factorize_trivial_ends(instance_e):
    f2 = kg.edge_path(instance_e, "f2")
    f3 = kg.edge_path(instance_e, "f3")
    lam = kg.compose(instance_e, f2, f3)
    zero = Degree.zero(1)
    assert kg.factorize(instance_e, lam, zero) == (
        kg.vertex_path(instance_e, "v1"),
        lam,
    )
    assert kg.factorize(instance_e, lam, lam.degree) == (
        lam,
        kg.vertex_path(instance_e, "v3"),
    )


def test_factorize_rejects_incomparable_degree(instance_a):
    b = kg.edge_path(instance_a, "b")
    with pytest.raises(ValueError, match="cannot factor"):
        kg.factorize(instance_a, b, Degree((0, 1)))


@pytest.mark.parametrize(
    "name,bound",
    [("a", (2, 2)), ("b", (3,)), ("c", (1, 1, 1)), ("e", (3,))],
)
def test_factorize_compose_round_trip(name, bound, request):
    sk = request.getfixturevalue(f"instance_{name}")
    for lam in paths_up_to(sk, Degree(bound)):
        for m in degree_box(lam.degree):
            head, tail = kg.factorize(sk, lam, m)
            assert head.degree == m
            assert kg.compose(sk, head, tail) == lam


def test_compose_factorize_round_trip(instance_a):
    pool = paths_up_to(instance_a, Degree((1, 1)))
    for lam in pool:
        for mu in pool:
            if kg.source(instance_a, lam) != mu.range:
                continue
            whole = kg.compose(instance_a, lam, mu)
            assert kg.factorize(instance_a, whole, lam.degree) == (lam, mu)


# --- segments ---------------------------------------------------------


def test_segment_endpoints_and_middle(instance_a):
    bbr = kg.all_paths(instance_a, Degree((2, 1)))[0]
    assert orc.segment(instance_a, bbr, Degree((0, 0)), bbr.degree) == bbr
    mid = orc.segment(instance_a, bbr, Degree((1, 0)), Degree((2, 1)))
    assert mid == kg.compose(
        instance_a, kg.edge_path(instance_a, "b"), kg.edge_path(instance_a, "r")
    )
    point = orc.segment(instance_a, bbr, Degree((1, 0)), Degree((1, 0)))
    assert point.is_vertex and point.range == "u"


def test_segment_prefix_is_factorize_head(instance_e):
    lam = kg.compose(
        instance_e, kg.edge_path(instance_e, "f2"), kg.edge_path(instance_e, "f3")
    )
    q = Degree((1,))
    assert orc.segment(instance_e, lam, Degree((0,)), q) == kg.factorize(instance_e, lam, q)[0]


def test_segment_rejects_bad_bounds(instance_e):
    lam = kg.edge_path(instance_e, "f2")
    with pytest.raises(ValueError, match="segment bounds"):
        orc.segment(instance_e, lam, Degree((1,)), Degree((0,)))


# --- minimal common extensions ---------------------------------------


def test_extension_pairs_on_commuting_loops(instance_a):
    b = kg.edge_path(instance_a, "b")
    r = kg.edge_path(instance_a, "r")
    pairs = kg.minimal_extension_pairs(instance_a, b, r)
    assert len(pairs) == 1
    assert pairs[0].alpha == r and pairs[0].beta == b


def test_extension_pairs_of_path_with_itself(instance_a):
    b = kg.edge_path(instance_a, "b")
    pairs = kg.minimal_extension_pairs(instance_a, b, b)
    assert len(pairs) == 1
    assert pairs[0].alpha == pairs[0].beta == kg.vertex_path(instance_a, "u")


def test_extension_pairs_vertex_against_edge(instance_b):
    v = kg.vertex_path(instance_b, "v")
    e = kg.edge_path(instance_b, "e")
    pairs = kg.minimal_extension_pairs(instance_b, v, e)
    assert len(pairs) == 1
    assert pairs[0].alpha == e
    assert pairs[0].beta == kg.vertex_path(instance_b, "w")


def test_extension_pairs_empty_on_distinct_ranges(instance_b):
    v = kg.vertex_path(instance_b, "v")
    w = kg.vertex_path(instance_b, "w")
    assert kg.minimal_extension_pairs(instance_b, v, w) == ()


@pytest.mark.parametrize("name,bound", [("a", (1, 1)), ("b", (2,)), ("e", (2,))])
def test_extension_pairs_symmetry(name, bound, request):
    sk = request.getfixturevalue(f"instance_{name}")
    pool = paths_up_to(sk, Degree(bound))
    for a in pool:
        for b in pool:
            fwd = {(p.alpha, p.beta) for p in kg.minimal_extension_pairs(sk, a, b)}
            bwd = {(p.beta, p.alpha) for p in kg.minimal_extension_pairs(sk, b, a)}
            assert fwd == bwd


@pytest.mark.parametrize(
    "name,bound",
    [("a", (2, 2)), ("b", (2,)), ("c", (1, 1, 1)), ("e", (2,))],
)
def test_extension_pairs_match_word_oracle(name, bound, request):
    sk = request.getfixturevalue(f"instance_{name}")
    pool = paths_up_to(sk, Degree(bound))
    for a in pool:
        for b in pool:
            got = {
                (
                    orc.word_class(sk, p.alpha.word) if p.alpha.word else frozenset({()}),
                    orc.word_class(sk, p.beta.word) if p.beta.word else frozenset({()}),
                )
                for p in kg.minimal_extension_pairs(sk, a, b)
            }
            expected = orc.brute_minimal_extension_pairs(
                sk, a.word, b.word, a.degree, b.degree, a.range
            ) if a.range == b.range else set()
            assert got == expected


def test_extension_pairs_by_a_join_equal_the_pairwise_comparison():
    """Looking each a.alpha up among the b.beta gives the pairs, or the `ValueError`, of
    comparing every (alpha, beta), on every ordered pair of degree <= (1, ..., 1)."""
    skeletons = [load_instance(name) for name in "abcde"]
    skeletons += [kg.grid_skeleton(len(s), Degree(s)).skeleton for s in ((2, 2), (1, 1, 1), (3, 2))]
    skeletons.append(kg.load_skeleton(line_document(5)))

    def outcome(find, sk, a, b):
        try:
            return find(sk, a, b)
        except ValueError as err:
            return str(err)

    seen, failures = 0, 0
    for sk in skeletons:
        pool = paths_up_to(sk, Degree((1,) * sk.rank))
        for a in pool:
            for b in pool:
                got = outcome(kg.minimal_extension_pairs, sk, a, b)
                assert got == outcome(orc.pairwise_minimal_extension_pairs, sk, a, b), (a, b)
                seen, failures = seen + 1, failures + isinstance(got, str)
    assert (seen, failures) == (2850, 8)


@pytest.mark.parametrize("name", ["b", "e"])
def test_rank_one_graphs_have_at_most_one_pair(name, request):
    sk = request.getfixturevalue(f"instance_{name}")
    pool = paths_up_to(sk, Degree((3,)))
    for a in pool:
        for b in pool:
            assert len(kg.minimal_extension_pairs(sk, a, b)) <= 1


def test_common_extensions_of_singletons(instance_a, instance_b):
    b = kg.edge_path(instance_a, "b")
    r = kg.edge_path(instance_a, "r")
    br = kg.compose(instance_a, b, r)
    assert orc.minimal_common_extensions(instance_a, [b], [r]) == (br,)
    assert orc.minimal_common_extensions(instance_a, [b], [b]) == (b,)
    v = kg.vertex_path(instance_b, "v")
    e = kg.edge_path(instance_b, "e")
    assert orc.minimal_common_extensions(instance_b, [v], [e]) == (e,)


def test_common_extensions_reject_mixed_degrees(instance_b):
    v = kg.vertex_path(instance_b, "v")
    e = kg.edge_path(instance_b, "e")
    with pytest.raises(ValueError, match="mixes degrees"):
        orc.minimal_common_extensions(instance_b, [v, e], [e])


# --- alignment survey -------------------------------------------------


def test_alignment_survey_values(instance_a, instance_b):
    rep_b = orc.alignment_report(instance_b, Degree((1,)))
    assert rep_b.max_size == 1 and rep_b.passed
    assert rep_b.rank_one_single_valued is True
    rep_a = orc.alignment_report(instance_a, Degree((1, 1)))
    assert rep_a.max_size == 1 and rep_a.passed
    assert rep_a.rank_one_single_valued is None


def test_alignment_at_bound_zero(instance_e):
    rep = orc.alignment_report(instance_e, Degree((0,)))
    assert rep.max_size == 1


# --- the interval model ------------------------------------------------


def test_interval_model_counts():
    one = kg.grid_skeleton(1, Degree((2,)))
    assert len(one.skeleton.vertices) == 3
    assert len(one.skeleton.edges) == 2
    assert one.morphism_count == 6

    two = kg.grid_skeleton(2, Degree((1, 1)))
    assert len(two.skeleton.vertices) == 4
    assert len(two.skeleton.edges) == 4
    assert two.morphism_count == 9

    point = kg.grid_skeleton(2, Degree((0, 0)))
    assert len(point.skeleton.vertices) == 1
    assert len(point.skeleton.edges) == 0
    assert point.morphism_count == 1


def test_interval_model_rejects_bad_rank():
    with pytest.raises(ValueError, match="rank"):
        kg.grid_skeleton(0, Degree((1,)))


def test_interval_model_validates_and_is_a_bijection():
    model = kg.grid_skeleton(2, Degree((2, 1)))
    squares, hexagons = kg.validate(model.skeleton)
    assert squares.passed and hexagons.passed
    intervals = set(model.morphisms.values())
    assert len(intervals) == model.morphism_count
    expected = {
        (p.coords, q.coords)
        for q in degree_box(Degree((2, 1)))
        for p in degree_box(q)
    }
    assert intervals == expected


def test_interval_model_unique_factorization_counts():
    # Exactly one degree-n path from each vertex q with n <= q.
    model = kg.grid_skeleton(2, Degree((1, 1)))
    for n in degree_box(Degree((1, 1))):
        got = kg.all_paths(model.skeleton, n)
        starts = [
            q for q in degree_box(Degree((1, 1))) if n <= q
        ]
        assert len(got) == len(starts)


# --- confluence -------------------------------------------------------


def _random_normalize(sk, word, rng):
    """Sort a word by color using randomly chosen descents."""
    w = list(word)
    while True:
        descents = [
            t
            for t in range(len(w) - 1)
            if sk.color_of(w[t]) > sk.color_of(w[t + 1])
        ]
        if not descents:
            return tuple(w)
        t = rng.choice(descents)
        w[t], w[t + 1] = sk.swap_map[(w[t], w[t + 1])]


@pytest.mark.parametrize("name", ["a", "c"])
def test_rewriting_is_confluent_up_to_length_four(name, request):
    sk = request.getfixturevalue(f"instance_{name}")
    rng = random.Random(20260810)
    bound = Degree((4,) * sk.rank)
    words = []
    for n in degree_box(bound):
        if 0 < n.total <= 4:
            words.extend(orc.all_words(sk, n))
    for word in words:
        canonical = kg.path_from_word(sk, word)
        for _ in range(5):
            assert _random_normalize(sk, word, rng) == canonical.word


def test_path_from_word_needs_vertex_for_empty(instance_b):
    with pytest.raises(ValueError, match="empty word"):
        kg.path_from_word(instance_b, [])
    assert kg.path_from_word(instance_b, [], at="v") == kg.vertex_path(instance_b, "v")


def test_paths_at_the_end_of_a_long_line_build_no_reachable_sets():
    """v1999 of a 2,000-vertex line has one path; finding it costs no V^2 table."""
    sk = kg.load_skeleton(line_document(1999))
    tracemalloc.start()
    try:
        paths = kg.paths_with_range(sk, "v1999")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert paths == (kg.vertex_path(sk, "v1999"),)
    assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MB"


@pytest.mark.parametrize(
    "name, make",
    [
        ("e", lambda: (load_instance("e"), None)),
        ("tree", lambda: (tree(random.Random(2), 8), None)),
        ("grid-2x2", lambda: (kg.grid_skeleton(2, Degree((2, 2))).skeleton, None)),
        ("a-2x2", lambda: (load_instance("a"), Degree((2, 2)))),
        ("c-1x1x1", lambda: (load_instance("c"), Degree((1, 1, 1)))),
    ],
)
def test_source_reads_the_last_letter_of_the_word(name, make):
    sk, bound = make()
    paths = list(kg.enumerate_path_space(sk, bound).elements)
    assert any(p.is_vertex for p in paths) and any(not p.is_vertex for p in paths)
    for p in paths:
        assert kg.source(sk, p) == orc.word_source(sk, p.word, p.range)
