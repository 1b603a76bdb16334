"""The gauge suite's scale table (`algebra._gauge_scales`).

`_gauge_scales(levels, ts)` takes a (rows x k) table of circle parameters
and returns the (rows x levels) table of monomials t^m.  Each entry must
equal, bit for bit, the coefficient loop of `oracles.loop_gauge_automorphism`
(Python's complex product, negative powers through the conjugate).
`verify_gauge_action` only draws in its per-sample loops: it calls
`_gauge_scales` once per chunk in each of its parts, with that chunk's rows.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import kgraphs as kg
from kgraphs import algebra as alg
from kgraphs.algebra import AlgebraElement
from kgraphs.cli import main
from kgraphs.skeleton import Degree

import oracles as orc
from conftest import line_document, load_instance
from test_verify_digests import grid_document


def graded_groupoids() -> dict:
    """Groupoids of ranks 1 to 3 whose levels include negative coordinates."""
    spaces = {
        "b": kg.enumerate_path_space(load_instance("b")),
        "e": kg.enumerate_path_space(load_instance("e")),
        "a-2x2": kg.enumerate_path_space(load_instance("a"), bound=Degree((2, 2))),
        "c-1x1x1": kg.enumerate_path_space(load_instance("c"), bound=Degree((1, 1, 1))),
    }
    return {name: kg.build_path_groupoid(space) for name, space in spaces.items()}


GROUPOIDS = graded_groupoids()


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
@pytest.mark.parametrize("rows", [1, 3])
def test_each_row_of_the_table_equals_the_coefficient_loop(name, rows):
    G = GROUPOIDS[name]
    levels, level = G.grading
    ts = np.exp(2j * np.pi * np.random.default_rng(rows).random((rows, G.rank)))
    scales = alg._gauge_scales(levels, ts)
    assert scales.shape == (rows, len(levels)) and scales.dtype == complex
    ones = AlgebraElement(G, np.ones(len(G), dtype=complex))
    for r, t in enumerate(ts.tolist()):
        assert scales[r, level].tobytes() == orc.loop_gauge_automorphism(ones, tuple(t)).values.tobytes()
    assert any(min(m) < 0 for m in levels)


def spy_scales(monkeypatch) -> list[tuple[int, int]]:
    """The shape of the circle-parameter table of each `_gauge_scales` call."""
    calls, real = [], alg._gauge_scales

    def spy(levels, ts):
        calls.append(ts.shape)
        return real(levels, ts)

    monkeypatch.setattr(alg, "_gauge_scales", spy)
    return calls


@pytest.mark.parametrize("samples", [1, 100, 257])
def test_verify_forms_the_scales_once_per_chunk_in_each_part(tmp_path, monkeypatch, samples):
    space = kg.enumerate_path_space(kg.load_skeleton(line_document(4)))
    groupoids = kg.build_path_groupoid(space), kg.build_boundary_groupoid(space)
    heights = [list(alg._chunks(G, samples)) for G in groupoids]
    calls = spy_scales(monkeypatch)
    path = tmp_path / "line-4.json"
    path.write_text(json.dumps(line_document(4)), encoding="utf-8")
    assert main(["verify", str(path), "--samples", str(samples), "--out", str(tmp_path / "report.json")]) == 0
    # per groupoid: the automorphism part, then the generator part, one call per chunk each
    assert calls == [(rows, 1) for chunks in heights for _ in range(2) for rows in chunks]
    assert samples == 1 or any(rows > 1 for rows, _ in calls)


def test_a_rank_two_suite_draws_two_parameters_per_row(monkeypatch):
    G = kg.build_path_groupoid(kg.enumerate_path_space(kg.load_skeleton(grid_document((2, 2)))))
    calls = spy_scales(monkeypatch)
    reports = alg.verify_gauge_action(G, samples=5, seed=3)
    assert calls == [(rows, 2) for rows in alg._chunks(G, 5)]
    assert [r.identity for r in reports] == ["gauge_automorphism", "gauge_grading"]
    assert all(r.passed for r in reports)


def test_the_oracle_checks_the_parameters_it_takes_from_outside():
    G = GROUPOIDS["a-2x2"]
    f = AlgebraElement(G, np.ones(len(G), dtype=complex))
    with pytest.raises(ValueError, match="expected 2 circle parameters, got 1"):
        orc.gauge_automorphism(f, 1j)
    with pytest.raises(ValueError, match="is not on the unit circle"):
        orc.gauge_automorphism(f, (1j, 0.5))
    assert orc.gauge_automorphism(f, (1j, -1)) == orc.loop_gauge_automorphism(f, (1j, -1 + 0j))
