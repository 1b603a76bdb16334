"""Benchmark inputs: seeded instance generators, jobs, and closed-form oracles.

Nothing here imports kgraphs at module level, so instances can be built
before the program is imported; `grid_document` imports it lazily because the
grid presentation comes from `kgraphs.paths.grid_skeleton`.

Every job carries the counts its report must show, derived from closed forms
rather than from the program:

    T(n) = (n+1)(n+2)/2            paths of a line with n edges
    L(n) = sum_{j=1}^{n+1} j^2     path-groupoid size of that line
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

INSTANCES = Path(__file__).resolve().parents[1] / "instances"

DEFAULT_SEED = 1
HELDOUT_SEED = 7919

# 36 trees of 13 vertices rather than 12 of 15: the subset-search work of a
# random tree varies a lot, and summing more trees keeps a seed's total
# within a few percent of another's (IQR 4% over 20 seeds, against 11%).
TREE_COUNT = 36
TREE_VERTICES = 13


def T(n: int) -> int:
    return (n + 1) * (n + 2) // 2


def L(n: int) -> int:
    return sum(j * j for j in range(1, n + 2))


@dataclass(frozen=True)
class Job:
    """One `kgraphs <command> <instance> <options> --out <file>` call."""

    name: str
    command: str
    options: tuple[str, ...]
    document: dict
    expect: dict = field(compare=False)

    def argv(self, instance: str, out: str) -> list[str]:
        return [self.command, instance, *self.options, "--out", out]


# ---------------------------------------------------------------- instances


def line_document(n: int) -> dict:
    """Rank-1 line v0 <- v1 <- ... <- vn (edge e_i has range v_{i-1})."""
    return {
        "rank": 1,
        "vertices": [{"id": f"v{i}"} for i in range(n + 1)],
        "edges": [
            {"id": f"e{i}", "color": 1, "range": f"v{i - 1}", "source": f"v{i}"}
            for i in range(1, n + 1)
        ],
        "squares": [],
    }


def random_parents(rng: random.Random, size: int) -> list[int]:
    """Parent of vertex i (i >= 1) is uniform on 0..i-1; vertex 0 is the root."""
    return [-1] + [rng.randrange(i) for i in range(1, size)]


def tree_document(parents: list[int]) -> dict:
    """Rank-1 rooted tree: edge t_i runs from child i (source) to parent (range)."""
    return {
        "rank": 1,
        "vertices": [{"id": f"n{i}"} for i in range(len(parents))],
        "edges": [
            {"id": f"t{i}", "color": 1, "range": f"n{p}", "source": f"n{i}"}
            for i, p in enumerate(parents)
            if p >= 0
        ],
        "squares": [],
    }


def tree_counts(parents: list[int]) -> dict:
    """|space| = sum over vertices of (depth+1); boundary = same over leaves."""
    depth = [0] * len(parents)
    for i in range(1, len(parents)):
        depth[i] = depth[parents[i]] + 1
    leaves = set(range(len(parents))) - set(parents)
    return {
        "space": sum(d + 1 for d in depth),
        "boundary": sum(depth[v] + 1 for v in leaves),
    }


def grid_document(shape: tuple[int, ...]) -> dict:
    """`grid_skeleton(k, shape)` as an instance document."""
    from kgraphs.paths import grid_skeleton
    from kgraphs.skeleton import Degree

    sk = grid_skeleton(len(shape), Degree(shape)).skeleton
    return {
        "rank": sk.rank,
        "vertices": [{"id": v.id} for v in sk.vertices],
        "edges": [
            {"id": e.id, "color": e.color, "range": e.range, "source": e.source}
            for e in sk.edges
        ],
        "squares": [
            {
                "first": r.first,
                "second": r.second,
                "swapped_first": r.swapped_first,
                "swapped_second": r.swapped_second,
            }
            for r in sk.rules
        ],
    }


def bundled_document(name: str) -> dict:
    """A bundled instance, `instances/instance_<name>.json` of the checkout."""
    path = INSTANCES / f"instance_{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def relabel(document: dict, rng: random.Random) -> dict:
    """Rename every vertex and edge by a seeded permutation and shuffle the lists.

    The result presents the same rank-k graph, so every closed-form count is
    unchanged, while the ids the program sorts and hashes differ per seed.
    """
    vertex_ids = [v["id"] for v in document["vertices"]]
    edge_ids = [e["id"] for e in document["edges"]]
    vperm = rng.sample(range(len(vertex_ids)), len(vertex_ids))
    eperm = rng.sample(range(len(edge_ids)), len(edge_ids))
    vname = {old: f"x{p}" for old, p in zip(vertex_ids, vperm)}
    ename = {old: f"a{p}" for old, p in zip(edge_ids, eperm)}
    vertices = [{"id": vname[v]} for v in vertex_ids]
    edges = [
        {
            "id": ename[e["id"]],
            "color": e["color"],
            "range": vname[e["range"]],
            "source": vname[e["source"]],
        }
        for e in document["edges"]
    ]
    squares = [{key: ename[val] for key, val in sq.items()} for sq in document["squares"]]
    for items in (vertices, edges, squares):
        rng.shuffle(items)
    return {"rank": document["rank"], "vertices": vertices, "edges": edges, "squares": squares}


# --------------------------------------------------------------------- jobs


def _line_counts(n: int) -> dict:
    return {"space": T(n), "groupoid": L(n), "boundary_groupoid": (n + 1) ** 2}


def _line_verify(seed: int) -> list[Job]:
    jobs = [
        Job(f"line-{n}", "verify", ("--seed", str(seed)), line_document(n), _line_counts(n))
        for n in (3, 4)
    ]
    # A small exact `groupoid` job, so that the axiom and etale checks are
    # traced on this workload too (about 1% of a round).
    rng = random.Random(seed)
    jobs.append(Job("line-4-groupoid", "groupoid", (), relabel(line_document(4), rng), _line_counts(4)))
    return jobs


def _tree_boundary(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for i in range(TREE_COUNT):
        parents = random_parents(rng, TREE_VERTICES)
        jobs.append(Job(f"tree-{i:02d}", "boundary", (), tree_document(parents), tree_counts(parents)))
    return jobs


def _grid_groupoid(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for a, b in ((3, 3), (2, 4)):
        jobs.append(
            Job(
                f"grid-{a}x{b}",
                "groupoid",
                (),
                relabel(grid_document((a, b)), rng),
                {
                    "space": T(a) * T(b),
                    "groupoid": L(a) * L(b),
                    "boundary_groupoid": ((a + 1) * (b + 1)) ** 2,
                },
            )
        )
    return jobs


def _torus_groupoid(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for name, instance, k, n in (("a-8x8", "a", 2, 8), ("c-3x3x3", "c", 3, 3)):
        space = (n + 1) ** k
        jobs.append(
            Job(
                name,
                "groupoid",
                ("--bound", ",".join([str(n)] * k)),
                relabel(bundled_document(instance), rng),
                {"space": space, "groupoid": space * space},
            )
        )
    return jobs


def _tree_grid_torus(seed: int) -> list[Job]:
    # The small `verify` job puts the algebra layer in the trace of this
    # workload too (about 1.5% of a round).
    line = Job("line-1", "verify", ("--seed", str(seed)), line_document(1), _line_counts(1))
    return _tree_boundary(seed) + _grid_groupoid(seed) + _torus_groupoid(seed) + [line]


# Two workloads rather than four, so that each run can last a minute: the
# host's speed drifts over tens of seconds, and 60 s runs of line-verify had
# half the run-to-run spread of 24 s runs (0.105 against 0.22).
WORKLOADS = {
    "line-verify": _line_verify,
    "tree-grid-torus": _tree_grid_torus,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](seed)


# ------------------------------------------------------------------ oracles


def check_report(job: Job, report: dict) -> list[str]:
    """Compare a parsed report with the job's closed-form counts.

    Returns one message per mismatch; an empty list means the report is right.
    """
    want = job.expect
    problems: list[str] = []

    def expect(label: str, got, wanted) -> None:
        if got != wanted:
            problems.append(f"{job.name}: {label} is {got!r}, expected {wanted!r}")

    if job.command == "verify":
        expect("passed", report.get("passed"), True)
        expect(
            "groupoid_sizes",
            report.get("groupoid_sizes"),
            {"full": want["groupoid"], "boundary": want["boundary_groupoid"]},
        )
        generation = report.get("generation", {})
        for part, size in (("full", want["groupoid"]), ("boundary", want["boundary_groupoid"])):
            dims = generation.get(part, {})
            expect(f"{part} generated dimension", dims.get("generated_dimension"), size)
            expect(f"{part} total dimension", dims.get("total_dimension"), size)
    elif job.command == "boundary":
        elements = report.get("elements", [])
        expect("path space size", len(elements), want["space"])
        expect("boundary_size", report.get("boundary_size"), want["boundary"])
        expect("boundary flags", sum(1 for el in elements if el.get("boundary")), want["boundary"])
    elif job.command == "groupoid":
        groupoid = report.get("groupoid", {})
        expect("path_groupoid_size", report.get("path_groupoid_size"), want["groupoid"])
        expect("unit count", len(groupoid.get("units", [])), want["space"])
        if "boundary_groupoid" in want:
            expect("element count", len(groupoid.get("elements", [])), want["groupoid"])
            expect("boundary_groupoid_size", report.get("boundary_groupoid_size"), want["boundary_groupoid"])
            expect("axioms", report.get("axioms", {}).get("passed"), True)
            expect("etale", report.get("etale", {}).get("passed"), True)
        else:
            expect("complete", report.get("complete"), False)
    else:
        problems.append(f"{job.name}: no oracle for command {job.command!r}")
    return problems
