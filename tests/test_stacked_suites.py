"""The stacked sampled suites against the one-sample-at-a-time oracles (hypothesis).

Each suite of `kgraphs.algebra` draws its samples chunk by chunk into rows and
evaluates its identities once per chunk.  Its reports must equal, floats
included, those of the per-sample suites kept in `oracles.py`, at any sample
count, any seed and any chunk size: `_CHUNK` = 1 runs one sample per chunk,
2**20 runs every sample in one chunk.  A suite's traced memory peak must not
grow with the sample count, and `rank_one_decomposition`, which the
Cuntz-Krieger suite runs once per call, must still catch a cross term.

The runs are derandomized and keep no example database, so tier-1 sees the
same examples every time.
"""

from __future__ import annotations

import random
import tracemalloc
from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kgraphs as kg
from kgraphs import algebra as alg
from kgraphs.skeleton import Degree

import oracles as orc
from conftest import line_document, load_instance
from test_boundary_search import tree
from test_composition_table import drop_a_composite

TREES = [tree(random.Random(seed), size) for seed, size in ((1, 5), (2, 8), (3, 11))]
SKELETONS = {
    **{name: lambda name=name: load_instance(name) for name in "be"},
    **{f"line-{n}": lambda n=n: kg.load_skeleton(line_document(n)) for n in range(7)},
    **{f"tree-{i}": lambda i=i: TREES[i] for i in range(len(TREES))},
    "grid-2x2": lambda: kg.grid_skeleton(2, Degree((2, 2))).skeleton,
    "grid-1x1x1": lambda: kg.grid_skeleton(3, Degree((1, 1, 1))).skeleton,
}
# Cyclic instances, truncated: no boundary groupoid, so only the suites on G run.
# (Instance d presents no 2-graph, b2.r has no square, so it has no groupoid at all.)
TRUNCATED = {"a-2x2": ("a", (2, 2)), "c-1x1x1": ("c", (1, 1, 1))}


@cache
def groupoids(name: str):
    """(skeleton, G, boundary groupoid or None); a name ending in -dropped lacks a composite."""
    base = name.removesuffix("-dropped")
    if base in TRUNCATED:
        sk = load_instance(TRUNCATED[base][0])
        G, Gb = kg.build_path_groupoid(kg.enumerate_path_space(sk, Degree(TRUNCATED[base][1]))), None
    else:
        sk = SKELETONS[base]()
        space = kg.enumerate_path_space(sk)
        G, Gb = kg.build_path_groupoid(space), kg.build_boundary_groupoid(space)
    if name.endswith("-dropped"):
        G = drop_a_composite(G)[0]
    return sk, G, Gb


def outcome(suite, *args):
    try:
        return suite(*args)
    except KeyError as exc:  # an exception is an outcome too: same type, same message
        return type(exc), str(exc)


def suite_reports(module, name: str, samples: int, seed: int) -> list:
    """Every sampled suite's outcome, as `kgraphs verify` runs the suites."""
    sk, G, Gb = groupoids(name)
    suites = [module.verify_algebra_identities, module.verify_gauge_action]
    suites += [module.verify_toeplitz_identities] if sk.rank == 1 else []
    out = [outcome(suite, H, samples, 1e-9, seed) for H in (G, Gb) if H is not None for suite in suites]
    if Gb is not None and sk.rank == 1:
        out.append(outcome(module.verify_cuntz_krieger, Gb, samples, 1e-9, seed))
    if Gb is not None:
        out.append(outcome(module.verify_quotient, G, Gb, samples, seed))
    return out


@pytest.mark.parametrize("name", [*sorted(SKELETONS), *TRUNCATED, "e-dropped", "line-3-dropped"])
@settings(
    max_examples=5,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    samples=st.sampled_from([1, 2, 7, 100]),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, alg._CHUNK, 2**20]),
)
def test_stacked_suites_equal_the_per_sample_oracles(name, samples, seed, chunk):
    expected = suite_reports(orc, name, samples, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alg, "_CHUNK", chunk)
        assert suite_reports(alg, name, samples, seed) == expected


def line_4_suites() -> dict:
    """Each sampled suite on line-4 (|G| = 55, 225 composable pairs), by sample count."""
    _, G, Gb = groupoids("line-4")
    return {
        "algebra": lambda n: alg.verify_algebra_identities(G, n),
        "gauge": lambda n: alg.verify_gauge_action(G, n),
        "toeplitz": lambda n: alg.verify_toeplitz_identities(G, n),
        "cuntz-krieger": lambda n: alg.verify_cuntz_krieger(Gb, n),
        "quotient": lambda n: alg.verify_quotient(G, Gb, n),
    }


def traced_peak(run, samples: int) -> int:
    tracemalloc.start()
    try:
        run(samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("suite", sorted(line_4_suites()))
def test_a_suite_peak_is_small_and_does_not_grow_with_the_samples(suite):
    run = line_4_suites()[suite]
    run(100)
    run(1000)  # index arrays, inverses and first-use allocations come before the measurement
    peak_100, peak_1000 = traced_peak(run, 100), traced_peak(run, 1000)
    assert peak_100 < 256 * 1024
    assert abs(peak_1000 - peak_100) <= 0.1 * peak_100


def test_an_overlapping_support_fails_the_cross_term_check(monkeypatch):
    """eta = delta_a + delta_b for the parallel edges a, b: each pair meets a sibling edge.

    The pointwise product identity still holds, so only the cross-term check
    can catch it, and it must, although it walks only the support pairs.
    """
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
    assert len(alg.rank_one_decomposition(sk, alg.VertexFunction.delta("v"))) == 2

    def both(cls, edge_id, coeff=1.0):
        return cls({e.id: complex(coeff) for e in sk.edges})

    monkeypatch.setattr(alg.EdgeFunction, "delta", classmethod(both))
    with pytest.raises(AssertionError, match="cross-term orthogonality failed"):
        alg.rank_one_decomposition(sk, alg.VertexFunction.delta("v"))
