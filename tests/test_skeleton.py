from __future__ import annotations

import random
from itertools import permutations

import pytest

import kgraphs as kg
from kgraphs.skeleton import Degree, degree_box

import oracles as orc
from conftest import instance_path, line_document, load_instance
from test_validate_digests import DOCUMENTS


def test_load_two_vertex_instance(instance_b):
    assert len(instance_b.vertices) == 2
    assert len(instance_b.edges) == 1
    e = instance_b.edge_by_id["e"]
    assert (e.range, e.source, e.color) == ("v", "w", 1)


def test_load_commuting_loops_instance(instance_a):
    assert instance_a.rank == 2
    assert len(instance_a.rules) == 1


def test_load_rejects_dangling_vertex():
    doc = {
        "rank": 1,
        "vertices": [{"id": "v"}],
        "edges": [{"id": "e", "color": 1, "range": "v", "source": "nope"}],
        "squares": [],
    }
    with pytest.raises(kg.SkeletonFormatError, match="unknown vertex"):
        kg.load_skeleton(doc)


def test_load_rejects_duplicate_ids():
    doc = {"rank": 1, "vertices": [{"id": "v"}, {"id": "v"}], "edges": [], "squares": []}
    with pytest.raises(kg.SkeletonFormatError, match="duplicate"):
        kg.load_skeleton(doc)


def test_load_rejects_color_out_of_range():
    doc = {
        "rank": 1,
        "vertices": [{"id": "v"}],
        "edges": [{"id": "e", "color": 2, "range": "v", "source": "v"}],
        "squares": [],
    }
    with pytest.raises(kg.SkeletonFormatError, match="color"):
        kg.load_skeleton(doc)


def test_load_rejects_bad_json():
    with pytest.raises(kg.SkeletonFormatError, match="JSON"):
        kg.load_skeleton("{not json")


def test_squares_pass_on_single_commuting_square(instance_a):
    assert kg.validate_squares(instance_a).passed


def test_squares_vacuous_for_rank_one(instance_b):
    report = kg.validate_squares(instance_b)
    assert report.passed and not report.failures


def test_squares_fail_on_missing_factorization(instance_d):
    report = kg.validate_squares(instance_d)
    assert not report.passed
    assert ("b2", "r") in [f.items for f in report.failures]


def test_square_counts_match_composable_pairs(instance_a, instance_c):
    # Counting form of bijectivity: rules per color pair match both
    # composable pair counts.
    for sk in (instance_a, instance_c):
        assert kg.validate_squares(sk).passed
        for i in range(1, sk.rank + 1):
            for j in range(i + 1, sk.rank + 1):
                fwd = sum(
                    1
                    for g in sk.edges
                    for h in sk.edges
                    if g.color == i and h.color == j and g.source == h.range
                )
                bwd = sum(
                    1
                    for g in sk.edges
                    for h in sk.edges
                    if g.color == j and h.color == i and g.source == h.range
                )
                rules = [
                    r
                    for r in sk.rules
                    if sk.color_of(r.first) == i and sk.color_of(r.second) == j
                ]
                assert len(rules) == fwd == bwd


def test_associativity_passes_on_free_commuting_loops(instance_c):
    assert kg.validate_associativity(instance_c).passed


@pytest.mark.parametrize("name", ["a", "b", "d"])
def test_associativity_vacuous_below_rank_three(name):
    sk = kg.load_skeleton(instance_path(name).read_text())
    report = kg.validate_associativity(sk)
    assert report.passed and not report.failures


LOOPS = {c: (f"c{c}x", f"c{c}y") for c in (1, 2, 3)}
PAIRS21 = [(b, a) for b in LOOPS[2] for a in LOOPS[1]]
PAIRS32 = [(b, a) for b in LOOPS[3] for a in LOOPS[2]]


def _two_loop_instance(perm12, perm23):
    """One vertex, two loops per color, rank 3.

    Squares for color pairs {1,2} and {2,3} are given by bijections onto the
    2x2 reversed pairs; the {1,3} squares commute identically.
    """
    edges = [
        {"id": eid, "color": c, "range": "u", "source": "u"}
        for c in LOOPS
        for eid in LOOPS[c]
    ]
    squares = [
        {"first": a, "second": b, "swapped_first": b, "swapped_second": a}
        for a in LOOPS[1]
        for b in LOOPS[3]
    ]
    pairs12 = [(a, b) for a in LOOPS[1] for b in LOOPS[2]]
    for (a, b), (b2, a2) in zip(pairs12, perm12):
        squares.append(
            {"first": a, "second": b, "swapped_first": b2, "swapped_second": a2}
        )
    pairs23 = [(a, b) for a in LOOPS[2] for b in LOOPS[3]]
    for (a, b), (b2, a2) in zip(pairs23, perm23):
        squares.append(
            {"first": a, "second": b, "swapped_first": b2, "swapped_second": a2}
        )
    return kg.load_skeleton(
        {"rank": 3, "vertices": [{"id": "u"}], "edges": edges, "squares": squares}
    )


def colored_document(rank: int, colors: tuple[int, ...]) -> dict:
    """A path u <- v <- w <- ... whose i-th edge has the i-th color; no squares."""
    return {
        "rank": rank,
        "vertices": [{"id": f"n{i}"} for i in range(len(colors) + 1)],
        "edges": [
            {"id": f"e{i}", "color": c, "range": f"n{i}", "source": f"n{i + 1}"}
            for i, c in enumerate(colors)
        ],
        "squares": [],
    }


@pytest.mark.parametrize("colors", [(1,), (1, 2), (2, 1, 2)], ids=["one-edge", "two-colors", "three-edges"])
def test_unused_colors_leave_the_square_report_unchanged(colors):
    """Rank 10,000 with only colors 1 and 2 in use reports what rank 2 does."""
    wide = kg.load_skeleton(colored_document(10_000, colors))
    narrow = kg.load_skeleton(colored_document(2, colors))
    assert kg.validate(wide) == kg.validate(narrow)
    assert kg.validate_squares(wide).passed == (len(set(colors)) == 1)


def test_associativity_catches_incoherent_squares():
    # Brute-force search over square assignments on a one-vertex skeleton
    # with two loops per color until some triple rewrites inconsistently.
    found = None
    for perm12 in permutations(PAIRS21):
        for perm23 in permutations(PAIRS32):
            sk = _two_loop_instance(perm12, perm23)
            assert kg.validate_squares(sk).passed
            report = kg.validate_associativity(sk)
            if not report.passed:
                found = report
                break
        if found:
            break
    assert found is not None, "no incoherent square assignment found"
    witness = found.failures[0]
    assert witness.kind == "hexagon_divergence"
    assert len(witness.items) == 3


def test_acyclicity(instance_a, instance_b, instance_c, instance_e):
    assert kg.is_acyclic(instance_b)
    assert kg.is_acyclic(instance_e)
    assert not kg.is_acyclic(instance_a)
    assert not kg.is_acyclic(instance_c)


def random_multigraph(rng: random.Random) -> kg.Skeleton:
    """A rank-1 multigraph on up to 6 vertices; self-loops and parallel edges allowed."""
    n = rng.randint(1, 6)
    vertices = [f"v{i}" for i in range(n)]
    edges = [
        {"id": f"e{i}", "color": 1, "range": rng.choice(vertices), "source": rng.choice(vertices)}
        for i in range(rng.randint(0, 8))
    ]
    return kg.load_skeleton(
        {"rank": 1, "vertices": [{"id": v} for v in vertices], "edges": edges, "squares": []}
    )


def test_acyclicity_agrees_with_the_topological_sort():
    rng = random.Random(5)
    skeletons = [load_instance(name) for name in "abcde"]
    skeletons += [random_multigraph(rng) for _ in range(3000)]
    verdicts = [kg.is_acyclic(sk) for sk in skeletons]
    assert verdicts == [orc.graphlib_is_acyclic(sk) for sk in skeletons]
    assert 500 < sum(verdicts) < 2500


def test_validation_builds_no_reachable_sets():
    """A 2,000-vertex line validates without every vertex's reachable set."""
    sk = kg.load_skeleton(line_document(1999))
    assert all(report.passed for report in kg.validate(sk))
    assert kg.is_acyclic(sk)
    assert "descendants" not in vars(sk)


@pytest.mark.parametrize(
    "shape", [(1, 1), (2, 3), (3, 3), (1, 1, 1), (2, 1, 2), (1, 1, 1, 1)], ids=str
)
def test_square_report_equals_the_rescan_on_grids(shape):
    sk = kg.grid_skeleton(len(shape), Degree(shape)).skeleton
    assert kg.validate_squares(sk) == orc.rescan_validate_squares(sk)
    assert kg.validate_squares(sk).passed


def test_square_report_equals_the_rescan_on_fixed_instances():
    skeletons = [load_instance(name) for name in "abcde"]
    skeletons += [kg.load_skeleton(doc) for doc in DOCUMENTS.values()]
    skeletons += [_two_loop_instance(perm, PAIRS32) for perm in permutations(PAIRS21)]
    kinds = set()
    for sk in skeletons:
        report = kg.validate_squares(sk)
        assert report == orc.rescan_validate_squares(sk)
        kinds.update(f.kind for f in report.failures)
    assert kinds == {"invalid_colors", "endpoint_mismatch", "missing_square", "duplicate_square"}


def test_acyclic_implies_path_degrees_bounded(instance_b, instance_e):
    # No paths survive past the longest directed path length.
    for sk in (instance_b, instance_e):
        longest = max(p.degree.total for p in kg.enumerate_paths(sk))
        beyond = Degree((longest + 1,))
        assert kg.all_paths(sk, beyond) == ()


def test_export_dot_two_vertices(instance_b):
    dot = kg.export_dot(instance_b)
    assert dot.count("->") == 1
    assert '"v";' in dot and '"w";' in dot
    assert '"w" -> "v" [label="e:1"];' in dot


def test_export_dot_self_loops_have_distinct_color_labels(instance_a):
    dot = kg.export_dot(instance_a)
    assert '"u" -> "u" [label="b:1"];' in dot
    assert '"u" -> "u" [label="r:2"];' in dot


def test_export_dot_empty_skeleton():
    sk = kg.load_skeleton({"rank": 1, "vertices": [], "edges": [], "squares": []})
    assert kg.export_dot(sk) == "digraph skeleton {\n}\n"


def test_degree_partial_order_and_lattice():
    a, b = Degree((1, 0)), Degree((0, 1))
    assert not a <= b and not b <= a
    assert a.join(b) == Degree((1, 1))
    assert a.meet(b) == Degree((0, 0))
    assert a + b == Degree((1, 1))
    with pytest.raises(ValueError):
        a - b
    assert (a + b) - a == b


def test_degree_rejects_overflow():
    with pytest.raises(OverflowError):
        Degree((2**31,))


def test_degree_box_is_lexicographic():
    box = list(degree_box(Degree((1, 1))))
    assert [d.coords for d in box] == [(0, 0), (0, 1), (1, 0), (1, 1)]
