"""The factorization table of `FinitePathSpace` and the code that reads it.

The source blocks of `build_path_groupoid` and the table lookups of
`cylinder` are checked against the tail join, the all-pairs build and the
prepend-based cylinder kept in `oracles.py`.
"""

from __future__ import annotations

from collections import Counter

import pytest

import kgraphs as kg
from kgraphs import boundary as bnd
from kgraphs import groupoid as gpd
from kgraphs import paths as pth
from kgraphs.boundary import FinitePathSpace, PathSpaceElement
from kgraphs.cli import main
from kgraphs.skeleton import Degree, degree_box

from conftest import instance_path, line_document
from oracles import all_pairs_path_groupoid, prepend_cylinder, tail_join_path_groupoid
from test_verify_digests import tree_document


def grid(k, shape):
    return kg.grid_skeleton(k, Degree(shape)).skeleton


@pytest.fixture(scope="module")
def spaces(instance_a, instance_b, instance_c, instance_e):
    out = {}
    for name, sk in (
        ("b", instance_b),
        ("e", instance_e),
        ("grid-2x2", grid(2, (2, 2))),
        ("grid-1x1x1", grid(3, (1, 1, 1))),
    ):
        space = kg.enumerate_path_space(sk)
        out[f"{name}-full"] = space
        out[f"{name}-boundary"] = kg.boundary_paths(space)
    out["a-2,2"] = kg.enumerate_path_space(instance_a, bound=Degree((2, 2)))
    out["c-1,1,1"] = kg.enumerate_path_space(instance_c, bound=Degree((1, 1, 1)))
    return out


def same_groupoid(G, oracle) -> bool:
    return [(g.label(), g.witness) for g in G] == [(g.label(), g.witness) for g in oracle]


def test_tail_join_equals_the_all_pairs_build(spaces):
    """The source-block build equals the tail join and the all-pairs build."""
    for name, space in spaces.items():
        G, oracle = kg.build_path_groupoid(space), all_pairs_path_groupoid(space)
        assert same_groupoid(G, oracle), name
        assert same_groupoid(G, tail_join_path_groupoid(space)), name
        assert G.complete == oracle.complete == space.is_exact


def test_source_blocks_equal_the_tail_join_on_larger_spaces(instance_a, instance_c):
    skeletons = {
        "grid-3x3": grid(2, (3, 3)),
        "grid-2x4": grid(2, (2, 4)),
        "line-12": kg.load_skeleton(line_document(12)),
        "tree-13": kg.load_skeleton(tree_document(3, 13)),
    }
    spaces = {f"{name}-full": kg.enumerate_path_space(sk) for name, sk in skeletons.items()}
    spaces |= {f"{name[:-5]}-boundary": kg.boundary_paths(s) for name, s in spaces.items()}
    spaces["a-4,4"] = kg.enumerate_path_space(instance_a, bound=Degree((4, 4)))
    spaces["c-2,2,2"] = kg.enumerate_path_space(instance_c, bound=Degree((2, 2, 2)))
    for name, space in spaces.items():
        G = kg.build_path_groupoid(space)
        assert same_groupoid(G, tail_join_path_groupoid(space)), name
        blocks = Counter(pth.source(space.skeleton, el.path) for el in space.elements)
        assert len(G) == sum(n * n for n in blocks.values()), name


def test_factors_are_factorize_and_index_of_factors_round_trips(spaces):
    for name, space in spaces.items():
        sk = space.skeleton
        splits = 0
        for i, el in enumerate(space.elements):
            row = space.factors[i]
            assert list(row) == [m.coords for m in degree_box(el.degree)], name
            for m in degree_box(el.degree):
                head, tail = row[m.coords]
                assert (head, tail) == pth.factorize(sk, el.path, m)
                assert pth.compose(sk, head, tail) == el.path
                assert space.index_of_factors[(head, tail)] == i
            splits += len(row)
        assert len(space.index_of_factors) == splits, name


def test_etale_cylinders_equal_the_prepend_oracle(spaces, monkeypatch):
    built = []
    cylinder = gpd.cylinder

    def recording_cylinder(G, lam, mu):
        built.append(cylinder(G, lam, mu))
        return built[-1]

    monkeypatch.setattr(gpd, "cylinder", recording_cylinder)
    for name in ("b-full", "b-boundary", "e-full", "e-boundary", "grid-2x2-full", "grid-2x2-boundary"):
        G = kg.build_path_groupoid(spaces[name])
        built.clear()
        assert gpd.verify_etale(G).passed, name
        visited = [(c.lam, c.mu) for c in built]
        assert len(visited) == len(set(visited)), f"{name}: a cylinder was built twice"
        witnessed = {
            (
                pth.factorize(G.space.skeleton, G.space.elements[g.x].path, g.witness[0])[0],
                pth.factorize(G.space.skeleton, G.space.elements[g.y].path, g.witness[1])[0],
            )
            for g in G
        }
        assert witnessed <= set(visited), name
        for cyl in built:
            assert cyl == prepend_cylinder(G, cyl.lam, cyl.mu), name


def test_cylinder_over_a_missing_composite_raises_key_error(instance_b):
    w, e = pth.vertex_path(instance_b, "w"), pth.edge_path(instance_b, "e")
    space = FinitePathSpace(instance_b, "exact", [PathSpaceElement(w)])
    G = kg.build_path_groupoid(space)
    assert kg.cylinder(G, w, w).members == (0,)
    for build in (kg.cylinder, prepend_cylinder):
        with pytest.raises(KeyError):
            build(G, e, e)


def capture_spaces(monkeypatch) -> list[FinitePathSpace]:
    made: list[FinitePathSpace] = []
    enumerate_path_space = bnd.enumerate_path_space

    def recording(*args, **kwargs):
        made.append(enumerate_path_space(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(bnd, "enumerate_path_space", recording)
    return made


def test_boundary_and_truncated_groupoid_do_not_build_what_they_never_read(
    tmp_path, monkeypatch, capsys
):
    made = capture_spaces(monkeypatch)
    out = str(tmp_path / "report.json")
    assert main(["boundary", str(instance_path("e")), "--out", out]) == 0
    (space,) = made
    assert "factors" in vars(space) and "index_of_factors" not in vars(space)
    made.clear()
    assert main(["boundary", str(instance_path("a")), "--bound", "2,2", "--out", out]) == 0
    (space,) = made
    assert "factors" in vars(space) and "index_of_factors" not in vars(space)
    made.clear()
    assert main(["groupoid", str(instance_path("a")), "--bound", "2,2", "--out", out]) == 0
    (space,) = made
    assert "factors" in vars(space) and "index_of_factors" not in vars(space)
    capsys.readouterr()
