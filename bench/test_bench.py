"""Self-tests of the benchmark: tracing arithmetic, oracles, and workloads.

Run from the root of a source checkout:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import kgraphs.cli  # noqa: E402
from kgraphs import boundary, groupoid, paths  # noqa: E402
from kgraphs.skeleton import Degree, load_skeleton  # noqa: E402

import workloads  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402
from workloads import L, T  # noqa: E402

KGRAPHS = {name: sys.modules[f"kgraphs.{name}"] for name in MODULES}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_times_on_synthetic_span_tree():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    script = [
        (0, "cli.main"),
        (1, "skeleton.load_skeleton"), (3, None),
        (4, "boundary.boundary_report"),
        (5, "paths.factorize"), (6, None),
        (6.5, "paths.compose"), (7, "paths.factorize"), (7.5, None), (8, None),
        (9, "boundary.is_boundary"), (9.5, "paths.factorize"), (10, None), (11, None),
        (12, None),
        (13, "groupoid.build_path_groupoid"), (15, None),
        (16, None),
    ]
    for at, name in script:
        clock.now = at
        tr.enter(name) if name else tr.exit()

    assert tr.self_times() == {
        "skeleton": 2.0,
        "paths": 3.0,  # 1 + (1.5 - 0.5) + 0.5 + 0.5
        "boundary": 5.0,  # report 8 - 4.5 of children, is_boundary 2 - 0.5
        "groupoid": 2.0,
        "algebra": 0.0,
        "cli": 4.0,  # 16 - 2 - 8 - 2
    }
    assert sum(tr.self_times().values()) == tr.spans[0].duration == 16.0
    assert [s.name for s in tr.spans] == [
        "cli.main",
        "skeleton.load_skeleton",
        "boundary.boundary_report",
        "boundary.is_boundary",
        "groupoid.build_path_groupoid",
    ]
    assert [s.parent for s in tr.spans] == [None, 0, 0, 2, 0]
    # Hot calls are aggregated under the nearest recorded span, not recorded.
    assert tr.hot_calls("paths.factorize") == 3
    assert tr.hot_calls("paths.compose") == 1
    assert tr.aggregates[(2, "paths.factorize")].calls == 2
    assert tr.aggregates[(3, "paths.factorize")].calls == 1
    assert tr.inclusive("groupoid.build_path_groupoid") == 2.0
    assert tr.span_calls("boundary.is_boundary") == 1


def test_hot_sizes_are_kept_per_parent_span():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    tr.enter("boundary.minimal_exhaustive_sets")
    tr.enter("paths.paths_with_range")
    tr.exit(("sk", "v"), (1, 2, 3))
    tr.exit()
    tr.enter("boundary.is_exhaustive")
    tr.enter("paths.paths_with_range")
    tr.exit(("sk", "v"), tuple(range(9)))
    tr.exit()
    tr.job = "other"
    tr.enter("boundary.minimal_exhaustive_sets")
    tr.enter("paths.paths_with_range")
    tr.exit(("sk", "v"), tuple(range(5)))
    tr.exit()
    size_max = tr.hot_size_max
    assert size_max("paths.paths_with_range", under="boundary.minimal_exhaustive_sets") == 5
    assert size_max("paths.paths_with_range", under="boundary.minimal_exhaustive_sets", jobs={None}) == 3
    assert size_max("paths.paths_with_range", under="boundary.is_exhaustive") == 9


def _run_cli(tmp_path: Path, job: workloads.Job, tag: str) -> bytes:
    instance, out = tmp_path / f"{tag}.json", tmp_path / f"{tag}.out"
    instance.write_text(json.dumps(job.document), encoding="utf-8")
    assert kgraphs.cli.main(job.argv(str(instance), str(out))) == 0
    return out.read_bytes()


def test_tracing_keeps_report_bytes_and_accounts_for_all_time(tmp_path):
    parents = workloads.random_parents(random.Random(3), 7)
    job = workloads.Job("tree", "boundary", (), workloads.tree_document(parents), {})
    plain = _run_cli(tmp_path, job, "plain")
    original = paths.factorize
    tr = Tracer()
    tr.install(KGRAPHS)
    try:
        assert groupoid.boundary_paths.__wrapped__ is boundary.boundary_paths.__wrapped__
        assert kgraphs.cli.validate.__wrapped__.__module__ == "kgraphs.skeleton"
        traced = _run_cli(tmp_path, job, "traced")
    finally:
        tr.uninstall()
    assert paths.factorize is original
    assert not hasattr(groupoid.boundary_paths, "__wrapped__")
    assert traced == plain
    main = tr.spans[0]
    assert main.name == "cli.main" and main.parent is None
    assert sum(tr.self_times().values()) == pytest.approx(main.duration)
    assert tr.span_calls("boundary.minimal_exhaustive_sets") == len(parents)
    assert tr.hot_calls("paths.factorize") > 0
    results = dict(tr.take_results())
    assert len(results["boundary.enumerate_path_space"]) == workloads.tree_counts(parents)["space"]


# ------------------------------------------------------- closed-form oracles


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_line_counts(n):
    space = boundary.enumerate_path_space(load_skeleton(workloads.line_document(n)))
    assert len(space) == T(n)
    assert len(groupoid.build_path_groupoid(space)) == L(n)
    assert len(groupoid.build_boundary_groupoid(space)) == (n + 1) ** 2


@pytest.mark.parametrize("seed", range(8))
def test_tree_counts(seed):
    parents = workloads.random_parents(random.Random(seed), 5)
    space = boundary.enumerate_path_space(load_skeleton(workloads.tree_document(parents)))
    want = workloads.tree_counts(parents)
    assert len(space) == want["space"]
    assert len(boundary.boundary_paths(space)) == want["boundary"]


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2)])
def test_grid_counts(a, b):
    doc = workloads.relabel(workloads.grid_document((a, b)), random.Random(a * 10 + b))
    space = boundary.enumerate_path_space(load_skeleton(doc))
    assert len(space) == T(a) * T(b)
    assert len(groupoid.build_path_groupoid(space)) == L(a) * L(b)
    assert len(groupoid.build_boundary_groupoid(space)) == ((a + 1) * (b + 1)) ** 2


@pytest.mark.parametrize("name,k", [("a", 2), ("c", 3)])
def test_torus_counts(name, k):
    doc = workloads.relabel(workloads.bundled_document(name), random.Random(k))
    space = boundary.enumerate_path_space(load_skeleton(doc), bound=Degree((2,) * k))
    assert len(space) == 3**k
    assert len(groupoid.build_path_groupoid(space)) == (3**k) ** 2


# ------------------------------------------------------------ workloads


def test_pool_max_covers_the_tree_jobs_where_there_are_any():
    import run

    assert run.pool_jobs(workloads.make_jobs("line-verify", 1)) == {"line-3", "line-4", "line-4-groupoid"}
    trees = run.pool_jobs(workloads.make_jobs("tree-grid-torus", 1))
    assert len(trees) == workloads.TREE_COUNT and all(name.startswith("tree-") for name in trees)


def test_each_job_is_scaled_by_the_reference_times_around_it(monkeypatch, tmp_path):
    import types

    import run

    references = iter([1.0, 3.0, 5.0])
    clock = iter([0.0, 0.6, 1.0, 1.5, 2.0, 2.2])  # jobs take 0.6, 0.5 and 0.2 s
    monkeypatch.setattr(run, "reference", lambda: next(references))
    monkeypatch.setattr(run, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    monkeypatch.setattr(run, "WORK", tmp_path)
    jobs = [workloads.Job(f"j{i}", "boundary", (), {}, {}) for i in range(3)]
    fake_cli = types.SimpleNamespace(main=lambda argv: 0)

    result = run.run_pass(fake_cli, jobs, {}, "t")

    # The first two jobs pass REFERENCE_EVERY = 1 s together and share the
    # references 1.0 and 3.0; the last job is scaled by 3.0 and 5.0.
    assert result.ratios == pytest.approx({"j0": 0.3, "j1": 0.25, "j2": 0.05})
    assert run.reference_wall([result, result]) == pytest.approx(run.REFERENCE_SECONDS * 0.6)


def test_jobs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_jobs(workload, 5) == workloads.make_jobs(workload, 5)
        assert workloads.make_jobs(workload, 5) != workloads.make_jobs(workload, 6)


def test_check_report_accepts_a_real_report_and_flags_a_wrong_count(tmp_path):
    small = workloads.Job(
        "grid-1x1",
        "groupoid",
        (),
        workloads.relabel(workloads.grid_document((1, 1)), random.Random(1)),
        {"space": 9, "groupoid": 25, "boundary_groupoid": 16},
    )
    report = json.loads(_run_cli(tmp_path, small, "grid"))
    assert workloads.check_report(small, report) == []
    report["boundary_groupoid_size"] += 1
    assert len(workloads.check_report(small, report)) == 1


def test_check_report_on_verify(tmp_path):
    job = workloads.Job(
        "line-1",
        "verify",
        ("--seed", "3", "--samples", "3"),
        workloads.line_document(1),
        {"space": 3, "groupoid": 5, "boundary_groupoid": 4},
    )
    report = json.loads(_run_cli(tmp_path, job, "line"))
    assert workloads.check_report(job, report) == []
    report["passed"] = False
    report["generation"]["full"]["generated_dimension"] = 4
    assert len(workloads.check_report(job, report)) == 2


def test_benchmark_json_matches_what_run_reports():
    import run

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in config[key]} == units
