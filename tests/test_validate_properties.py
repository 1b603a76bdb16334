"""Property tests of `validate` on generated presentations (hypothesis).

Random 2-graphs are products of two random acyclic 1-graphs whose squares
are then re-paired: at each range/source pair a random bijection matches the
blue-red two-edge paths with the red-blue ones.  Any such bijection is a
complete set of squares, and rank 2 has no hexagons, so every one of these
presentations is a 2-graph.  Arbitrary presentations (random colors,
endpoints and squares, several squares on one side included) compare the
square report with the rescan kept in `oracles.py`.

The runs are derandomized and keep no example database, so tier-1 sees the
same examples every time.
"""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import kgraphs as kg
from kgraphs.skeleton import Failure

import oracles as orc

SQUARE_KEYS = ("first", "second", "swapped_first", "swapped_second")


def examples(n: int):
    return settings(
        max_examples=n,
        deadline=None,
        database=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )


@st.composite
def acyclic_1graphs(draw) -> tuple[int, list[tuple[int, int]]]:
    """A vertex count and edges (range, source) with range < source, parallel ones allowed."""
    n = draw(st.integers(1, 4))
    edges = []
    for _ in range(draw(st.integers(1, 5)) if n > 1 else 0):
        r = draw(st.integers(0, n - 2))
        edges.append((r, draw(st.integers(r + 1, n - 1))))
    return n, edges


def document(rank: int, vertices, edges: dict, squares) -> dict:
    return {
        "rank": rank,
        "vertices": [{"id": v} for v in vertices],
        "edges": [
            {"id": eid, "color": c, "range": r, "source": s} for eid, (c, r, s) in edges.items()
        ],
        "squares": [dict(zip(SQUARE_KEYS, square)) for square in squares],
    }


def mixed_pairs(edges: dict) -> dict[tuple[int, int, str, str], list[tuple[str, str]]]:
    """Composable two-colored pairs g.h, keyed by (color of g, color of h, range, source)."""
    out: dict = {}
    for g, (cg, rg, sg) in edges.items():
        for h, (ch, rh, sh) in edges.items():
            if cg != ch and sg == rh:
                out.setdefault((cg, ch, rg, sh), []).append((g, h))
    return out


@st.composite
def random_2graphs(draw) -> dict:
    (n1, blue), (n2, red) = draw(acyclic_1graphs()), draw(acyclic_1graphs())
    vertices = [f"v{a}.{b}" for a in range(n1) for b in range(n2)]
    edges = {}
    for k, (r, s) in enumerate(blue):
        for b in range(n2):
            edges[f"b{k}.{b}"] = (1, f"v{r}.{b}", f"v{s}.{b}")
    for k, (r, s) in enumerate(red):
        for a in range(n1):
            edges[f"r{a}.{k}"] = (2, f"v{a}.{r}", f"v{a}.{s}")
    pairs = mixed_pairs(edges)
    squares = []
    for (cg, ch, r, s), blue_red in sorted(pairs.items()):
        if cg == 1:
            red_blue = draw(st.permutations(pairs[2, 1, r, s]))
            assert len(red_blue) == len(blue_red)
            squares += [(*fwd, *bwd) for fwd, bwd in zip(blue_red, red_blue)]
    return document(2, vertices, edges, squares)


@st.composite
def presentations(draw) -> dict:
    """Any loadable presentation; most squares are built from composable sides."""
    rank = draw(st.integers(1, 3))
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 2)))]
    edges = {
        f"e{i}": (
            draw(st.integers(1, rank)),
            draw(st.sampled_from(vertices)),
            draw(st.sampled_from(vertices)),
        )
        for i in range(draw(st.integers(0, 6)))
    }
    pairs = mixed_pairs(edges)
    squares = []
    for _ in range(draw(st.integers(0, 8)) if edges else 0):
        if pairs and draw(st.integers(0, 3)):
            cg, ch, r, s = key = draw(st.sampled_from(sorted(pairs)))
            back = pairs.get((ch, cg, r, s)) or pairs[draw(st.sampled_from(sorted(pairs)))]
            squares.append((*draw(st.sampled_from(pairs[key])), *draw(st.sampled_from(back))))
        else:
            squares.append(tuple(draw(st.sampled_from(sorted(edges))) for _ in SQUARE_KEYS))
    return document(rank, vertices, edges, squares)


@examples(60)
@given(random_2graphs())
def test_random_2graphs_pass_validation(doc):
    sk = kg.load_skeleton(doc)
    squares, hexagons = kg.validate(sk)
    assert squares.passed and hexagons.passed
    assert squares == orc.rescan_validate_squares(sk)
    assert kg.is_acyclic(sk)


@examples(60)
@given(random_2graphs(), st.data())
def test_deleting_a_square_misses_exactly_its_two_sides(doc, data):
    assume(doc["squares"])
    gone = doc["squares"].pop(data.draw(st.integers(0, len(doc["squares"]) - 1)))
    sk = kg.load_skeleton(doc)
    report = kg.validate_squares(sk)
    sides = [(gone["first"], gone["second"]), (gone["swapped_first"], gone["swapped_second"])]
    message = "no factorization for the composable pair {}.{}"
    assert report.failures == tuple(
        Failure("missing_square", side, message.format(*side)) for side in sides
    )
    assert report == orc.rescan_validate_squares(sk)


@examples(300)
@given(presentations())
def test_square_report_equals_the_rescan(doc):
    sk = kg.load_skeleton(doc)
    assert kg.validate_squares(sk) == orc.rescan_validate_squares(sk)
    assert kg.is_acyclic(sk) == orc.graphlib_is_acyclic(sk)
