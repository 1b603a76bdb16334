"""The insertion sort of `paths._normalize` and `factorize` against the bubble sorts.

`_normalize` sorts a word by per-letter keys with one insertion sort, and
`factorize` sorts with the keys (j >= m_c, c).  Both must give the words
and the errors of the bubble sorts kept in `oracles.py` on random words, on
valid presentations and on presentations that fail validation (a missing
square, a hexagon divergence, generated ones whose squares exchange two
colors), where the rewriting order decides the outcome.  The one intended difference: a
missing square in `factorize` raises the `ValueError` of `compose`, where
the bubble sort raised a bare `KeyError` with the pair.

The runs are derandomized and keep no example database.
"""

from __future__ import annotations

from itertools import product

from hypothesis import given
from hypothesis import strategies as st

import kgraphs as kg
from kgraphs import paths as pth
from kgraphs.skeleton import Degree, degree_box

import oracles as orc
from conftest import load_instance
from test_validate_digests import loops_document
from test_validate_properties import examples, presentations, random_2graphs


def hexagon_divergent_document() -> dict:
    """Rank 3 on one vertex: every square is there, but r and g permute b0, b1, b2 non-commutingly."""
    sigma, tau = (1, 0, 2), (0, 2, 1)
    squares = [(f"b{i}", "r", "r", f"b{sigma[i]}") for i in range(3)]
    squares += [(f"b{i}", "g", "g", f"b{tau[i]}") for i in range(3)] + [("r", "g", "g", "r")]
    return loops_document(3, {"b0": 1, "b1": 1, "b2": 1, "r": 2, "g": 3}, squares)


NAMED = {
    "a": load_instance("a"),
    "c": load_instance("c"),
    "grid-2x2": kg.grid_skeleton(2, Degree((2, 2))).skeleton,
    "grid-1x1x1": kg.grid_skeleton(3, Degree((1, 1, 1))).skeleton,
    "missing-square": kg.load_skeleton(loops_document(3, {"b": 1, "r": 2, "g": 3}, [("b", "r", "r", "b")])),
    "hexagon-divergent": kg.load_skeleton(hexagon_divergent_document()),
}
INVALID = ("missing-square", "hexagon-divergent")


def test_the_invalid_presentations_fail_validation():
    squares, _ = kg.validate(NAMED["missing-square"])
    assert not squares.passed
    squares, hexagons = kg.validate(NAMED["hexagon-divergent"])
    assert squares.passed and {f.kind for f in hexagons.failures} == {"hexagon_divergence"}


def outcome(call, *args):
    try:
        return call(*args)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def walks(draw, sk, max_len: int = 7) -> tuple[str, ...]:
    """A composable word: each letter's range is the previous letter's source."""
    at = draw(st.sampled_from([v.id for v in sk.vertices]))
    word = []
    for _ in range(draw(st.integers(0, max_len))):
        edges = sk.edges_by_range[at]
        if not edges:
            break
        e = draw(st.sampled_from(edges))
        word.append(e.id)
        at = e.source
    return tuple(word)


def color_exchanging(doc: dict) -> dict:
    """The presentation without its squares that do not exchange two colors.

    Only such squares carry a letter's color along a swap, so only with them
    does sorting stop; `validate` reports the others as `invalid_colors`.
    """
    color = {e["id"]: e["color"] for e in doc["edges"]}
    return doc | {
        "squares": [
            sq for sq in doc["squares"]
            if color[sq["first"]] != color[sq["second"]] == color[sq["swapped_first"]]
            and color[sq["swapped_second"]] == color[sq["first"]]
        ]
    }


skeletons = st.one_of(
    st.sampled_from(sorted(NAMED)).map(NAMED.__getitem__),
    random_2graphs().map(kg.load_skeleton),
    presentations().map(color_exchanging).map(kg.load_skeleton),
)


@examples(200)
@given(skeletons, st.data())
def test_normalize_equals_the_bubble_sort(sk, data):
    word = data.draw(walks(sk))
    assert outcome(pth._normalize, sk, word) == outcome(orc.bubble_normalize, sk, word)


def factorize_outcomes(sk, p, m):
    """(new, old) outcomes; the old KeyError on a missing pair becomes the new message."""
    try:
        old = orc.bubble_factorize(sk, p, m)
    except KeyError as exc:
        a, b = exc.args[0]
        old = (ValueError, f"no factorization square for the pair {a}.{b}; skeleton does not present a rank-k graph")
    except ValueError as exc:
        old = (ValueError, str(exc))
    return outcome(kg.factorize, sk, p, m), old


@examples(200)
@given(skeletons, st.data())
def test_factorize_equals_the_bubble_sort(sk, data):
    word = data.draw(walks(sk))
    p = outcome(kg.path_from_word, sk, word, None if word else sk.vertices[0].id)
    if isinstance(p, pth.Path):
        m = Degree(tuple(data.draw(st.integers(0, d)) for d in p.degree.coords))
        new, old = factorize_outcomes(sk, p, m)
        assert new == old


def test_the_invalid_presentations_raise_on_some_words_and_agree_on_all():
    """Every word up to length 4 on the invalid presentations; some of them raise."""
    raised = {"normalize": 0, "factorize": 0}
    for name in INVALID:
        sk = NAMED[name]
        for n in range(5):
            for word in product(sorted(e.id for e in sk.edges), repeat=n):
                new = outcome(pth._normalize, sk, word)
                assert new == outcome(orc.bubble_normalize, sk, word)
                raised["normalize"] += isinstance(new, tuple)
                if isinstance(p := outcome(kg.path_from_word, sk, word, "u"), pth.Path):
                    for m in degree_box(p.degree):
                        new, old = factorize_outcomes(sk, p, m)
                        assert new == old
                        raised["factorize"] += new[0] is ValueError
    assert raised == {"normalize": 64, "factorize": 78}


def test_factorize_names_a_missing_square_as_compose_does():
    sk = NAMED["missing-square"]
    p = pth.Path("u", (("b",), (), ("g",)))
    new, old = factorize_outcomes(sk, p, Degree((0, 0, 1)))
    assert new == old == (
        ValueError,
        "no factorization square for the pair b.g; skeleton does not present a rank-k graph",
    )
    assert outcome(kg.compose, sk, pth.edge_path(sk, "g"), pth.edge_path(sk, "b"))[1] == new[1].replace("b.g", "g.b")
