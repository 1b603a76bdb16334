"""Exhaustiveness by one rule: a set is exhaustive at a finite vertex iff it
holds a prefix of every maximal path there.

Exact `is_exhaustive` reads the prefix rows of the vertex's maximal paths, the
rows the minimal-set search reads, and takes as witness the first path at the
vertex in no row that holds a member.  It is checked against the sweep kept in
`oracles.py`, which tests every path at the vertex against every member with
`minimal_extension_pairs`, and so is bounded mode, which still sweeps.  Spies
show that exact mode makes no pairwise test, and the CLI bytes of
`exhaustive --members` are pinned.
"""

from __future__ import annotations

import hashlib
from itertools import combinations

from hypothesis import assume, given

import kgraphs as kg
from kgraphs.cli import main
from kgraphs.skeleton import Degree, degree_box

import oracles as orc
from conftest import instance_path, load_instance
from test_boundary_search import spy_on, star
from test_full_groupoid import path_spaces
from test_validate_properties import examples
from test_verify_digests import tree_document


def member_sets(pool):
    """Every set of at most three paths from the first four and the last three of the pool."""
    chosen = pool[:4] + pool[4:][-3:]
    return [combo for size in range(4) for combo in combinations(chosen, size)]


@examples(25)
@given(path_spaces())
def test_exact_and_bounded_results_equal_the_sweep(space):
    """At every vertex of an exact space, for member sets of size <= 3, both modes give
    the sweep's (status, witness, bound)."""
    assume(space.is_exact)
    sk = space.skeleton
    bound = Degree((1,) * sk.rank)
    for v in sk.vertices:
        for combo in member_sets(kg.paths_with_range(sk, v.id)):
            assert kg.is_exhaustive(sk, v.id, combo) == orc.sweep_is_exhaustive(sk, v.id, combo)
            got = kg.is_exhaustive(sk, v.id, combo, bound=bound)
            assert got == orc.sweep_is_exhaustive(sk, v.id, combo, bound=bound)


def test_exact_mode_at_a_tree_root_makes_no_pairwise_test(monkeypatch):
    """The root of the first 13-vertex tree of the benchmark's seed-1 `boundary` jobs,
    with its 8 maximal paths as members: the sweep makes 47 `minimal_extension_pairs`
    calls, exact mode none and no `compose`; bounded mode still sweeps."""
    sk = kg.load_skeleton(tree_document(1, 13))
    maximal = [p for p in kg.paths_with_range(sk, "n0") if not sk.edges_by_range[kg.source(sk, p)]]
    assert len(maximal) == 8
    calls = spy_on(monkeypatch, "minimal_extension_pairs", "compose")
    assert orc.sweep_is_exhaustive(sk, "n0", maximal).status == "exhaustive"
    assert [n for n, _ in calls].count("minimal_extension_pairs") == 47
    calls.clear()
    assert kg.is_exhaustive(sk, "n0", maximal) == kg.ExhaustivenessResult("exhaustive")
    assert calls == []
    assert kg.is_exhaustive(sk, "n0", maximal, bound=Degree((1,))).status == "unknown"
    assert "minimal_extension_pairs" in [n for n, _ in calls]


def test_exhaustiveness_at_a_star_centre_cuts_each_edge_once(monkeypatch):
    """2,000 edges into n0: all of them are exhaustive, and without the last one it is
    the witness; each call makes at most one `factorize` per edge and no pairwise test."""
    sk = star(2000, 1)
    edges = [kg.edge_path(sk, f"e{leaf}_0") for leaf in range(2000)]
    calls = spy_on(monkeypatch, "factorize", "minimal_extension_pairs")
    assert kg.is_exhaustive(sk, "n0", edges) == kg.ExhaustivenessResult("exhaustive")
    assert [n for n, _ in calls].count("factorize") <= 2000
    assert "minimal_extension_pairs" not in [n for n, _ in calls]
    calls.clear()
    missing_last = kg.ExhaustivenessResult("not_exhaustive", witness=edges[-1])
    assert kg.is_exhaustive(sk, "n0", edges[:-1]) == missing_last
    assert [n for n, _ in calls].count("factorize") <= 2000
    assert "minimal_extension_pairs" not in [n for n, _ in calls]


def literal(p: kg.Path) -> str:
    """The command-line literal of a path: its range if it is a vertex, else its word."""
    return p.range if p.is_vertex else ",".join(p.word)


def exhaustive_transcript(capsys, name: str, bound: tuple[int, ...] | None = None) -> str:
    """sha256 of every `exhaustive --members` run at every vertex of the instance, over
    the member sets of size <= 3 from its paths (of degree <= bound, if given)."""
    sk, out = load_instance(name), hashlib.sha256()
    for v in sk.vertices:
        if bound is None:
            pool = kg.paths_with_range(sk, v.id)
        else:
            pool = [p for n in degree_box(Degree(bound)) for p in kg.paths_from(sk, v.id, n)]
        for combo in member_sets(pool):
            argv = ["exhaustive", str(instance_path(name)), "--vertex", v.id]
            argv += ["--members", ";".join(literal(p) for p in combo)]
            argv += [] if bound is None else ["--bound", ",".join(map(str, bound))]
            code = main(argv)
            out.update(f"{argv[2:]}\n{code}\n{capsys.readouterr().out}".encode())
    return out.hexdigest()


def test_exhaustive_members_bytes_are_pinned(capsys):
    got = {
        (name, bound): exhaustive_transcript(capsys, name, bound)
        for name, bound in [("b", None), ("e", None), ("a", (1, 1)), ("a", (2, 1)), ("c", (1, 1, 1))]
    }
    assert got == PINS


# Digests of the answers of the sweep in `oracles.sweep_is_exhaustive`, which both modes keep.
PINS = {
    ("b", None): "d6b553c727bc4123794ebde991ac6d2946e80f27235272160b47ec808d4a0966",
    ("e", None): "51f4ad8011e98ba684255f3e72e51ce5135c97ab39a8a050edc6ccae9857521a",
    ("a", (1, 1)): "fad05ebf4d7b53f268f1b3cb80cfb91555ead5fb1c50d7b5f1f9b1665329d3b0",
    ("a", (2, 1)): "63d5839d565a7eac909f02f15b197a7e012e2a4cae0967ccfa4162205544669b",
    ("c", (1, 1, 1)): "ad64443aea347950615dd22ee22ee352c258cd6c3968a123292cbb9243a0ad18",
}
