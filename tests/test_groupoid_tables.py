"""The index arrays a `FiniteGroupoid` builds on first use and keeps.

The composition table (pairs and missing pairs), `inverse_array`, the grading
(levels and each element's level), `unit_vertex` and `arrows` are cached
properties: the table, the inverses and the grading must equal the label arithmetic of `test_composition_table.label_rows`
on every drawn space, on its boundary restriction and on a mutant with one
element dropped; nothing is built by the commands that never convolve; and a
dropped groupoid takes its tables with it.

The hypothesis runs are derandomized and keep no example database.
"""

from __future__ import annotations

import gc
import json
import weakref

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import kgraphs as kg
from kgraphs import groupoid as gpd
from kgraphs.cli import main
from kgraphs.groupoid import FiniteGroupoid

from conftest import instance_path
from test_columnar_groupoid import spaces_of
from test_composition_table import label_rows
from test_full_groupoid import count_builds, dropped_element, path_spaces
from test_validate_properties import examples
from test_verify_digests import grid_document

TABLES = ("composition", "inverse_array", "grading", "unit_vertex", "arrows")


def table_matches_labels(G):
    rows, (pairs, missing) = label_rows(G), G.composition
    assert list(zip(*(c.tolist() for c in pairs))) == [r for r in rows if r[2] is not None]
    assert missing == [(a, b) for a, b, ab in rows if ab is None]
    if len(G.inverse) == len(G):
        assert G.inverse_array.tolist() == [G.inverse[i] for i in range(len(G))]
    else:
        with pytest.raises(KeyError):
            G.inverse_array
    levels, level = G.grading
    assert [levels[j] for j in level.tolist()] == [m for _, m, _ in G.labels]
    assert list(levels) == sorted(set(levels))


@examples(40)
@given(path_spaces(), st.integers(0, 10**6))
def test_the_table_inverses_and_grading_follow_the_labels(space, seed):
    assume(len(space) <= 70)  # `label_rows` pairs every two elements: 13M pairs at |G| 3,600
    for s in spaces_of(space):
        G = kg.build_path_groupoid(s)
        table_matches_labels(G)
        assert G.composition[1] == []
        table_matches_labels(FiniteGroupoid(s, dropped_element(G, seed % len(G))))


def spy_tables(monkeypatch) -> dict[str, list]:
    return {name: count_builds(monkeypatch, FiniteGroupoid, name) for name in TABLES}


@pytest.mark.parametrize(
    "argv",
    [
        ["groupoid", "b"],
        ["groupoid", "e", "--boundary"],
        ["groupoid", "grid"],
        ["groupoid", "a", "--bound", "2,2"],
        ["groupoid", "c", "--bound", "1,1,1"],
    ],
)
def test_the_groupoid_command_builds_no_table(tmp_path, monkeypatch, argv):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid_document((2, 2))), encoding="utf-8")
    command, name, *options = argv
    instance = path if name == "grid" else instance_path(name)
    built = spy_tables(monkeypatch)
    assert main([command, str(instance), *options, "--out", str(tmp_path / "report.json")]) == 0
    assert built == {name: [] for name in TABLES}


@pytest.mark.parametrize("name", ["b", "e"])
def test_verify_builds_each_table_once_per_groupoid(tmp_path, monkeypatch, name):
    groupoids = []
    build = kg.build_path_groupoid

    def keep(space):
        groupoids.append(G := build(space))
        return G

    monkeypatch.setattr(gpd, "build_path_groupoid", keep)
    built = spy_tables(monkeypatch)
    assert main(["verify", str(instance_path(name)), "--out", str(tmp_path / "report.json")]) == 0
    assert len(groupoids) == 2  # the path groupoid and the boundary groupoid
    for table, owners in built.items():
        assert sorted(map(id, owners)) == sorted(map(id, groupoids)), table


def test_a_dropped_groupoid_is_collected_with_its_tables(instance_b):
    G = kg.build_path_groupoid(kg.enumerate_path_space(instance_b))
    for name in TABLES:
        getattr(G, name)
    assert all(name in vars(G) for name in TABLES)
    alive, table = weakref.ref(G), weakref.ref(G.inverse_array)
    del G
    gc.collect()
    assert alive() is None and table() is None
