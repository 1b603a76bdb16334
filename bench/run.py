"""kgraphs benchmark: one workload, one fresh interpreter, one closed-loop client.

Run from the root of a source checkout (the program is imported from ./src):

    python3 bench/run.py --workload tree-grid-torus --seed 1 --seconds 55 --trace 0

The run measures `setup_s` (median time to import kgraphs.cli in fresh
interpreters), then calls `kgraphs.cli.main(argv)` in-process on the
workload's jobs, back to back, in rounds, until `--seconds` have passed.
Each job gets a freshly written instance file and writes its report with
`--out`; writing inputs and checking reports happen outside the timed calls.
A fixed reference job (`reference.py`) is timed between the jobs, and
`wall_s` divides each job's time by the reference times around it, so that
the shared host's drifting speed cancels.
Every report is checked against closed-form counts (and, on the recorded
seeds, against pinned sha256 digests).

With `--trace 0` the last stdout line holds the end-to-end metrics.  With
`--trace 1` each round runs the jobs untraced and then traced, checks that
the two passes wrote identical reports, and the last line holds the
per-layer metrics; the spans go to .bench_out/.
"""

from __future__ import annotations

import os

# Set before numpy is imported, here and in the import probes.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from reference import reference  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
TRACE_OUT = ROOT / ".bench_out"
PINS = Path(__file__).resolve().parent / "pins.json"

IMPORT_PROBES = 11

# The reference job runs before a pass, after the last job, and after any
# job that ends at least this much job time after the previous reference.
REFERENCE_EVERY = 1.0
# What the reference job takes at the host speed `wall_s` is expressed in:
# a round figure near its median on the machine of the baseline in
# README.md, where the median ran from 0.041 to 0.043 s.
REFERENCE_SECONDS = 0.040
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import kgraphs.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "skeleton.self_s": "s",
    "paths.self_s": "s",
    "paths.factorize.calls": "count",
    "paths.compose.calls": "count",
    "paths.minimal_extension_pairs.calls": "count",
    "boundary.self_s": "s",
    "boundary.minimal_exhaustive_sets.calls": "count",
    "boundary.pool.max": "paths",
    "boundary.space_size": "paths",
    "boundary.boundary_size": "paths",
    "groupoid.build_s": "s",
    "groupoid.size": "elements",
    "groupoid.composable_pairs": "pairs",
    "groupoid.self_s": "s",
    "groupoid.axioms_s": "s",
    "groupoid.etale_s": "s",
    "groupoid.boundary_size": "elements",
    "algebra.self_s": "s",
    "algebra.suites_s": "s",
    "algebra.generation_s": "s",
    "algebra.convolve.calls": "count",
    "algebra.convolve.pairs": "pairs",
    "algebra.algebra_dimension.calls": "count",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_s": "s",
}

SUITES = (
    "algebra.verify_algebra_identities",
    "algebra.verify_gauge_action",
    "algebra.verify_toeplitz_identities",
    "algebra.verify_cuntz_krieger",
    "algebra.verify_quotient",
)


def import_program():
    """Import kgraphs from ./src, and only from there."""
    if not (SRC / "kgraphs" / "cli.py").is_file():
        raise SystemExit(f"error: no kgraphs sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import kgraphs.cli

    if Path(kgraphs.cli.__file__).resolve().parent != (SRC / "kgraphs").resolve():
        raise SystemExit(f"error: imported kgraphs from {kgraphs.cli.__file__}, not {SRC}")
    return {name: sys.modules[f"kgraphs.{name}"] for name in MODULES}


def measure_setup() -> tuple[float, float]:
    """Median time to import kgraphs.cli in a fresh interpreter, at the
    reference host speed (as `reference_wall`) and unscaled.

    One extra probe runs first and is discarded: it may compile bytecode.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    times, ratios = [], []
    last_reference = reference()
    for _ in range(IMPORT_PROBES + 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        now = reference()
        times.append(float(probe.stdout))
        ratios.append(times[-1] / ((last_reference + now) / 2))
        last_reference = now
    return REFERENCE_SECONDS * statistics.median(ratios[1:]), statistics.median(times[1:])


def load_pins(seed: int, workload: str) -> dict:
    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}
    return pins.get(str(seed), {}).get(workload, {})


SIZE_METRICS = (
    "boundary.space_size",
    "boundary.boundary_size",
    "groupoid.size",
    "groupoid.composable_pairs",
    "groupoid.boundary_size",
)


class Pass:
    """One run of every job of the workload, with the time of each `main` call."""

    def __init__(self):
        self.times: dict[str, float] = {}
        # Each job's time over the mean of the reference times around it.
        self.ratios: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.report_bytes = 0
        self.sizes = dict.fromkeys(SIZE_METRICS, 0)


def run_pass(cli, jobs, pins: dict, tag: str, tracer: Tracer | None = None) -> Pass:
    result = Pass()
    calibrate = tracer is None
    last_reference = reference() if calibrate else 0.0
    segment: list[str] = []  # jobs timed since the last reference
    for job in jobs:
        instance = WORK / f"{tag}-{job.name}.json"
        out = WORK / f"{tag}-{job.name}.out"
        instance.write_text(json.dumps(job.document, indent=1), encoding="utf-8")
        argv = job.argv(str(instance), str(out))
        if tracer is not None:
            tracer.job = job.name
        error = None
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crashing job is a failed job
            code, error = None, repr(exc)
        result.times[job.name] = time.perf_counter() - start
        if calibrate:
            segment.append(job.name)
            if job is jobs[-1] or sum(result.times[n] for n in segment) >= REFERENCE_EVERY:
                now = reference()
                scale = (last_reference + now) / 2
                for name in segment:
                    result.ratios[name] = result.times[name] / scale
                last_reference, segment = now, []
        problems = check_job(job, code, error, out, pins, result)
        if tracer is not None:
            problems += measure_results(job, tracer.take_results(), result.sizes)
        result.attempted += 1
        result.failed += bool(problems)
        result.problems += problems
        instance.unlink()
        out.unlink(missing_ok=True)
    return result


def check_job(job, code, error, out: Path, pins: dict, result: Pass) -> list[str]:
    if error is not None:
        return [f"{job.name}: raised {error}"]
    if code != 0:
        return [f"{job.name}: exit code {code}"]
    if not out.is_file():
        return [f"{job.name}: no report written"]
    data = out.read_bytes()
    result.report_bytes += len(data)
    digest = hashlib.sha256(data).hexdigest()
    result.digests[job.name] = digest
    problems = workloads.check_report(job, json.loads(data))
    if job.name in pins and pins[job.name] != digest:
        problems.append(f"{job.name}: report sha256 {digest} differs from the pinned one")
    return problems


def measure_results(job, results, sizes: dict) -> list[str]:
    """Size counters from the objects a traced job built, taken after its timing."""
    spaces = []
    for name, obj in results:
        if name == "boundary.enumerate_path_space":
            spaces.append(len(obj))
            sizes["boundary.space_size"] += len(obj)
        elif name == "boundary.boundary_paths":
            sizes["boundary.boundary_size"] += len(obj)
        elif name == "boundary.boundary_report":
            sizes["boundary.boundary_size"] += obj["boundary_size"]
        elif name == "groupoid.build_path_groupoid":
            sizes["groupoid.size"] += len(obj)
            sizes["groupoid.composable_pairs"] += composable_pairs(obj)
        elif name == "groupoid.build_boundary_groupoid":
            sizes["groupoid.boundary_size"] += len(obj)
    if spaces != [job.expect["space"]]:
        return [f"{job.name}: traced path space sizes {spaces}, expected [{job.expect['space']}]"]
    return []


def composable_pairs(G) -> int:
    """Number of pairs (g, h) with s(g) = r(h): sum over units of #{y=u} * #{x=u}."""
    by_x: dict[int, int] = {}
    by_y: dict[int, int] = {}
    for g in G.elements:
        by_x[g.x] = by_x.get(g.x, 0) + 1
        by_y[g.y] = by_y.get(g.y, 0) + 1
    return sum(n * by_x.get(u, 0) for u, n in by_y.items())


def median_wall(passes: list[Pass]) -> float:
    """Sum over jobs of each job's median time over the passes."""
    return sum(statistics.median(p.times[name] for p in passes) for name in passes[0].times)


def reference_wall(passes: list[Pass]) -> float:
    """Like `median_wall`, on the jobs' times relative to the reference job,
    in seconds at the host speed where the reference takes REFERENCE_SECONDS."""
    return REFERENCE_SECONDS * sum(
        statistics.median(p.ratios[name] for p in passes) for name in passes[0].ratios
    )


def pool_jobs(jobs) -> set[str]:
    """The jobs `boundary.pool.max` covers: the `boundary` jobs (the trees)
    where the workload has them, so that the grids' larger corner pools do
    not hide the tree root pools; otherwise every job."""
    return {j.name for j in jobs if j.command == "boundary"} or {j.name for j in jobs}


def layer_metrics(tracer: Tracer, traced: Pass, covered: set[str]) -> dict[str, float]:
    self_s = tracer.self_times()
    m = {f"{mod}.self_s": self_s[mod] for mod in MODULES}
    m.update(
        {
            "paths.factorize.calls": tracer.hot_calls("paths.factorize"),
            "paths.compose.calls": tracer.hot_calls("paths.compose"),
            "paths.minimal_extension_pairs.calls": tracer.hot_calls("paths.minimal_extension_pairs"),
            "boundary.minimal_exhaustive_sets.calls": tracer.span_calls("boundary.minimal_exhaustive_sets"),
            "boundary.pool.max": tracer.hot_size_max(
                "paths.paths_with_range", under="boundary.minimal_exhaustive_sets", jobs=covered
            ),
            "groupoid.build_s": tracer.inclusive("groupoid.build_path_groupoid"),
            "groupoid.axioms_s": tracer.inclusive("groupoid.verify_groupoid_axioms"),
            "groupoid.etale_s": tracer.inclusive("groupoid.verify_etale"),
            "algebra.suites_s": tracer.inclusive(*SUITES),
            "algebra.generation_s": tracer.inclusive("algebra.generation_check"),
            "algebra.convolve.calls": tracer.hot_calls("algebra.convolve"),
            "algebra.convolve.pairs": tracer.hot_size_sum("algebra.convolve"),
            "algebra.algebra_dimension.calls": tracer.span_calls("algebra.algebra_dimension"),
            "cli.report_bytes": traced.report_bytes,
            "trace.uncovered_s": sum(traced.times.values()) - sum(self_s.values()),
        }
    )
    m.update(traced.sizes)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = import_program()
    cli = modules["cli"]
    setup_s, raw_setup_s = measure_setup() if not args.trace else (None, None)
    jobs = workloads.make_jobs(args.workload, args.seed)
    pins = load_pins(args.seed, args.workload)

    WORK.mkdir(exist_ok=True)
    tag = f"{os.getpid()}"
    untraced: list[Pass] = []
    traced: list[tuple[Pass, Tracer]] = []
    try:
        deadline = time.perf_counter() + args.seconds
        while True:
            round_start = time.perf_counter()
            plain = run_pass(cli, jobs, pins, tag)
            untraced.append(plain)
            if args.trace:
                tracer = Tracer()
                tracer.install(modules)
                try:
                    pass_ = run_pass(cli, jobs, pins, tag, tracer)
                finally:
                    tracer.uninstall()
                for name, digest in plain.digests.items():
                    if pass_.digests.get(name, digest) != digest:
                        pass_.problems.append(f"{name}: traced report differs from the untraced one")
                        pass_.failed += 1
                traced.append((pass_, tracer))
            # Start another round only if it can end before the deadline.
            now = time.perf_counter()
            if now + (now - round_start) > deadline:
                break
    finally:
        for leftover in WORK.glob(f"{tag}-*"):
            leftover.unlink()
        if not any(WORK.iterdir()):
            WORK.rmdir()

    passes = untraced + [p for p, _ in traced]
    problems = [msg for p in passes for msg in p.problems]
    for msg in problems:
        print(msg, file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    raw_wall_s = median_wall(untraced)

    if args.trace:
        covered = pool_jobs(jobs)
        rows = [layer_metrics(t, p, covered) for p, t in traced]
        values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        values["trace.wall_s"] = median_wall([p for p, _ in traced])
        values["trace.overhead_ratio"] = values["trace.wall_s"] / raw_wall_s
        units = PER_LAYER_UNITS
        TRACE_OUT.mkdir(exist_ok=True)
        dump = TRACE_OUT / f"spans-{args.workload}-seed{args.seed}.json"
        dump.write_text(
            json.dumps([{"pass": i, "records": t.dump()} for i, (_, t) in enumerate(traced)]),
            encoding="utf-8",
        )
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": setup_s, "wall_s": reference_wall(untraced), "peak_rss_mb": peak_mb}
        units = END_TO_END_UNITS

    print(
        f"{args.workload} seed={args.seed}: {len(untraced)} rounds of {len(jobs)} jobs, "
        f"unscaled wall {raw_wall_s:.4f} s"
        + (f", unscaled setup {raw_setup_s:.4f} s" if raw_setup_s else "")
    )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": sum(p.failed for p in passes),
                "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
