"""The columnar path groupoid against the object build it replaced.

`build_path_groupoid` forms the labels per source block with no witness
search and never reads the factorization table; witnesses and element objects
are made on first use, once per groupoid.  Everything it reports must equal
the object build kept in `oracles.py` (labels, witnesses, `to_json`, orbits,
isotropy, units, inverses, the fullness certificate), on the drawn spaces and
their boundary restrictions.  The size guard refuses a build before it
allocates, and the commands agree with each other on what they share.

The hypothesis runs are derandomized and keep no example database.
"""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kgraphs as kg
from kgraphs import boundary as bnd
from kgraphs import groupoid as gpd
from kgraphs import paths as pth
from kgraphs.boundary import FinitePathSpace
from kgraphs.cli import main

import oracles as orc
from conftest import instance_path, line_document
from test_full_groupoid import path_spaces
from test_validate_properties import examples, random_2graphs
from test_verify_digests import grid_document, tree_document


def spaces_of(space):
    """The drawn space and, if exact, its boundary restriction."""
    return [space, *([kg.boundary_paths(space)] if space.is_exact else [])]


@examples(60)
@given(path_spaces())
def test_the_columns_equal_the_object_build(space):
    for s in spaces_of(space):
        G, oracle = kg.build_path_groupoid(s), orc.object_path_groupoid(s)
        assert G.labels == [g.label() for g in oracle]
        assert G.x.tolist() == [g.x for g in oracle] and G.y.tolist() == [g.y for g in oracle]
        assert G.unit_index == orc.object_unit_index(oracle)
        assert list(G.unit_index.items()) == list(orc.object_unit_index(oracle).items())
        assert G.inverse == orc.object_inverse(oracle)
        assert G.is_full and orc.object_is_full(G) and orc.object_is_full(oracle) and oracle.is_full
        assert gpd.orbits(G) == orc.union_find_orbits(oracle)
        assert json.dumps(G.to_json()) == json.dumps(orc.object_groupoid_json(oracle))
        for u in G.units():
            assert sum(x == y == u for x, _, y in G.labels) == len(orc.isotropy(oracle, u))
        assert G.witnesses == [g.witness for g in oracle]
        assert G.elements == oracle.elements


@examples(30)
@given(path_spaces())
def test_orbits_are_the_source_blocks(space):
    for s in spaces_of(space):
        blocks: dict = {}
        for u, el in enumerate(s.elements):
            blocks.setdefault(pth.source(s.skeleton, el), []).append(u)
        assert gpd.orbits(kg.build_path_groupoid(s)) == tuple(sorted(map(tuple, blocks.values())))


def test_a_hand_built_list_keeps_its_witnesses_and_orbits_by_components(instance_e):
    space = kg.enumerate_path_space(instance_e)
    G = kg.build_path_groupoid(space)
    units = set(G.unit_index.values())
    kept = [g for i, g in enumerate(G.elements) if i in units or g.x < g.y]  # no inverses
    H = orc.LabelGroupoid(space, list(reversed(kept)))
    assert H.elements == tuple(kept) and H.witnesses == [g.witness for g in kept]
    assert not H.is_full and not orc.object_is_full(H)
    assert gpd.orbits(H) == orc.union_find_orbits(H) == gpd.orbits(G)
    assert json.dumps(H.to_json()) == json.dumps(orc.object_groupoid_json(H))


# --- the size guard ---------------------------------------------------------


def test_an_oversized_truncated_build_exits_2_before_it_allocates(tmp_path, capsys):
    """instance a at 100,100 would have 10,201^2 elements: refused in one line."""
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["groupoid", str(instance_path("a")), "--bound", "100,100", "--out", str(out)])
    took = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.count("\n") == 1 and "104060401 elements" in err and "Traceback" not in err
    assert took < 1.0, f"{took:.2f} s"


def test_the_guard_admits_exactly_max_elements(monkeypatch):
    space = kg.enumerate_path_space(kg.load_skeleton(line_document(4)))
    size = len(kg.build_path_groupoid(space))
    assert size == 55
    monkeypatch.setattr(gpd, "MAX_ELEMENTS", size)
    assert len(kg.build_path_groupoid(space)) == size
    monkeypatch.setattr(gpd, "MAX_ELEMENTS", size - 1)
    with pytest.raises(ValueError, match="would have 55 elements, over 54"):
        kg.build_path_groupoid(space)


def test_the_guard_sits_well_above_the_ladder():
    assert gpd.MAX_ELEMENTS >= 8 * 1_185_921  # the 32x32 torus of the ladder


# --- spies: what each command computes --------------------------------------


def spy_builds(monkeypatch):
    """Counts `least_witness` calls, and the `factors` reads made inside a build."""
    witnesses, reads, inside = [], [], []
    real_witness, real_build = gpd.least_witness, gpd.build_path_groupoid
    real_factors = FinitePathSpace.factors

    def least_witness(*args):
        witnesses.append(1)
        return real_witness(*args)

    def build(space):
        inside.append(space)
        try:
            return real_build(space)
        finally:
            inside.pop()

    def factors(space):
        if inside:
            reads.append(space)
        return real_factors.__get__(space, FinitePathSpace)

    monkeypatch.setattr(gpd, "least_witness", least_witness)
    monkeypatch.setattr(gpd, "build_path_groupoid", build)
    monkeypatch.setattr(FinitePathSpace, "factors", property(factors))
    return witnesses, reads


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", str(instance_path("e")), "--samples", "3"],
        ["verify", str(instance_path("b")), "--samples", "3"],
        ["groupoid", str(instance_path("a")), "--bound", "3,3"],
        ["groupoid", str(instance_path("c")), "--bound", "1,1,1"],
    ],
)
def test_verify_and_a_truncated_groupoid_seek_no_witness(tmp_path, monkeypatch, capsys, argv):
    witnesses, reads = spy_builds(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / "report.json")]) == 0
    capsys.readouterr()
    assert witnesses == [] and reads == []


@pytest.mark.parametrize("instance", ["b", "e", "grid"])
def test_the_exact_groupoid_seeks_each_witness_once(tmp_path, monkeypatch, capsys, instance):
    """Axioms and etale share one witness per element of G; the boundary groupoid needs none."""
    path = instance_path(instance) if instance != "grid" else tmp_path / "grid.json"
    if instance == "grid":
        path.write_text(json.dumps(grid_document((2, 2))), encoding="utf-8")
    witnesses, reads = spy_builds(monkeypatch)
    for options in ([], ["--boundary"]):
        out = tmp_path / "report.json"
        witnesses.clear()
        assert main(["groupoid", str(path), *options, "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["axioms"]["passed"] and report["etale"]["passed"]
        assert len(witnesses) == report["path_groupoid_size"]
    capsys.readouterr()
    assert reads == []


# --- the commands agree -----------------------------------------------------


@st.composite
def small_instances(draw):
    """A random 2-graph of at most 12 edges, or a rooted tree of at most 9 vertices.

    The cap keeps `boundary` quick: on a drawn 2-graph of 32 edges it wrote
    an 886 MB report, and each run took 17 s.
    """
    if draw(st.booleans()):
        return draw(random_2graphs().filter(lambda document: len(document["edges"]) <= 12))
    return tree_document(draw(st.integers(0, 10**6)), draw(st.integers(1, 9)))


def run(tmp_path, *argv):
    """(exit code, report bytes) of one command, run twice: the bytes must repeat."""
    outs = []
    for k in range(2):
        out = tmp_path / f"report-{k}.json"
        out.unlink(missing_ok=True)
        code = main([*argv, "--out", str(out)])
        assert code in (0, 1, 2), argv
        outs.append((code, out.read_bytes() if out.exists() else None))
    assert outs[0] == outs[1], argv
    return outs[0]


@examples(40)
@given(small_instances())
def test_verify_groupoid_and_boundary_agree_on_sizes_and_blocks(tmp_path_factory, document):
    tmp_path = tmp_path_factory.mktemp("commands")
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    (_, verified), (_, groupoid), (_, boundary_groupoid), (_, boundary) = (
        run(tmp_path, "verify", str(path), "--samples", "2"),
        run(tmp_path, "groupoid", str(path)),
        run(tmp_path, "groupoid", str(path), "--boundary"),
        run(tmp_path, "boundary", str(path)),
    )
    verified, groupoid = json.loads(verified), json.loads(groupoid)
    boundary_groupoid, boundary = json.loads(boundary_groupoid), json.loads(boundary)
    assert verified["groupoid_sizes"] == {
        "full": groupoid["path_groupoid_size"],
        "boundary": groupoid["boundary_groupoid_size"],
    }
    assert boundary["boundary_size"] == len(boundary_groupoid["groupoid"]["units"])
    sk = kg.load_skeleton(document)
    space = bnd.enumerate_path_space(sk)
    blocks: dict = {}
    for u, el in enumerate(space.elements):
        blocks.setdefault(pth.source(sk, el), []).append(u)
    assert groupoid["orbits"] == sorted(blocks.values())
