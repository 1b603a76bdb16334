"""The flat bins a `FiniteGroupoid` keeps for the row kernels (`FiniteGroupoid.bins`).

`_convolve_rows` and `_i_norms` must equal, bit for bit, the per-call kernels
of `oracles.py`, which build their bins afresh on every call: at one row, at a
full chunk, at a short last chunk, with a one-row operand against many rows,
and with `_CHUNK` changed between calls on the same groupoid, so that a table
kept for one height never serves a taller one.  A missing composite still
raises the same `KeyError`; `verify` builds each table once per height; and a
dropped groupoid takes its tables with it.

The hypothesis runs are derandomized and keep no example database.
"""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kgraphs as kg
from kgraphs import algebra as alg
from kgraphs import groupoid as gpd
from kgraphs.cli import main
from kgraphs.groupoid import FiniteGroupoid

import oracles as orc
from conftest import line_document
from test_composition_table import drop_a_composite
from test_full_groupoid import built, path_spaces
from test_validate_properties import examples


def assert_kernels_match(G, F, H):
    """Both kernels on (F, H), and with each operand cut to one row, equal the per-call oracle's bytes."""
    for f, h in ((F, H), (F[:1], H), (F, H[:1])):
        assert alg._convolve_rows(G, f, h).tobytes() == orc.per_call_convolve_rows(G, f, h).tobytes()
    assert alg._i_norms(G, F).tobytes() == orc.per_call_i_norms(G, F).tobytes()


@examples(60)
@given(path_spaces(), st.integers(0, 10**6), st.integers(1, 40), st.permutations([1, 2**10, 2**20]))
def test_the_kernels_equal_the_per_call_bins_at_every_height(space, seed, samples, chunks):
    rng = np.random.default_rng(seed)
    for G in built(space):
        for chunk in chunks:  # the same groupoid, its tables kept from the chunk before
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(alg, "_CHUNK", chunk)
                heights = list(alg._chunks(G, samples))  # full chunks, then maybe a short one
            for rows in (1, heights[-1], *heights):  # the short chunk first: the full one is taller
                F, H = alg._normal_rows(rng, (2, rows, len(G)))
                assert_kernels_match(G, F, H)


def test_one_row_reads_the_index_array_itself(instance_e):
    G = kg.build_path_groupoid(kg.enumerate_path_space(instance_e))
    assert G.bins("ab", 1) is G.composition[0][2]
    assert G.bins("x", 1) is G.x and G.bins("y", 1) is G.y


def test_a_short_chunk_reads_a_prefix_and_a_taller_one_rebuilds(instance_e):
    G = kg.build_path_groupoid(kg.enumerate_path_space(instance_e))
    ab = G.composition[0][2]
    expected = [orc.per_call_row_sums(ab, np.ones((rows, len(ab))), len(G)) for rows in (2, 3, 5)]
    for rows, sums in zip((5, 3, 2), reversed(expected)):
        assert G.bins("ab", rows).tolist() == [a + len(G) * r for r in range(rows) for a in ab.tolist()]
        assert alg._row_sums(G, "ab", np.ones((rows, len(ab))), len(G)).tobytes() == sums.tobytes()
    assert len(vars(G)["_bins"]["ab"]) == 5 * len(ab)  # the tallest, read by the shorter ones
    G.bins("ab", 7)
    assert len(vars(G)["_bins"]["ab"]) == 7 * len(ab)


def test_a_missing_composite_raises_the_same_key_error(instance_e):
    G = kg.build_path_groupoid(kg.enumerate_path_space(instance_e))
    broken, pairs = drop_a_composite(G)
    (ia, ib), index = pairs[0], broken.index_of
    F, H = np.zeros((2, 3, len(broken)), complex)
    F[1, index(G.labels[ia])] = H[1, index(G.labels[ib])] = 1.0
    with pytest.raises(KeyError) as expected:
        orc.per_call_convolve_rows(broken, F, H)
    with pytest.raises(KeyError) as raised:
        alg._convolve_rows(broken, F, H)
    assert (raised.type, str(raised.value)) == (expected.type, str(expected.value))


@pytest.mark.parametrize("samples", ["1", "100", "257"])
def test_verify_builds_each_groupoids_bins_once_per_height(tmp_path, monkeypatch, samples):
    groupoids, builds = [], []
    build, bins = kg.build_path_groupoid, FiniteGroupoid.bins

    def keep(space):
        groupoids.append(G := build(space))
        return G

    def spy(G, name, rows):
        kept = vars(G)["_bins"].get(name)
        out = bins(G, name, rows)
        if vars(G)["_bins"].get(name) is not kept:
            builds.append((id(G), name, rows))
        return out

    monkeypatch.setattr(gpd, "build_path_groupoid", keep)
    monkeypatch.setattr(FiniteGroupoid, "bins", spy)
    path = tmp_path / "line-4.json"
    path.write_text(json.dumps(line_document(4)), encoding="utf-8")
    assert main(["verify", str(path), "--samples", samples, "--out", str(tmp_path / "report.json")]) == 0
    assert len(groupoids) == 2  # the path groupoid and the boundary groupoid
    assert {G for G, _, _ in builds} <= set(map(id, groupoids))
    assert len(builds) == len(set(builds))  # once per groupoid, index array and height
    assert bool(builds) == (samples != "1")  # one row per chunk reads the index arrays themselves


def test_a_dropped_groupoid_is_collected_with_its_bins(instance_b):
    G = kg.build_path_groupoid(kg.enumerate_path_space(instance_b))
    F = alg._normal_rows(np.random.default_rng(1), (3, len(G)))
    alg._convolve_rows(G, F, F)
    alg._i_norms(G, F)
    assert sorted(vars(G)["_bins"]) == ["ab", "x", "y"]
    alive, table = weakref.ref(G), weakref.ref(vars(G)["_bins"]["ab"])
    del G
    gc.collect()
    assert alive() is None and table() is None
