"""Ceiling ladder: time each pipeline stage on growing instances until one hits a cap.

From the root of a source checkout:

    python3 bench/ladder.py                 # writes bench/ladder.json

Families: a rank-1 line with n edges, a random rooted tree with n vertices
(seeded), `grid_skeleton(2, (n,n))`, and instance_a truncated at (n,n).  Each
size runs in its own interpreter, which reports every stage as it finishes.
A stage that runs past the 5 s cap is killed and recorded as "timeout"; the
size is then run again without it, so the stages after it are still measured.  At
larger sizes a timed-out stage, and every stage that needs its output, is
recorded as "skipped".  A family stops growing when only `validate` and
`path_space` are left.  Sizes (|space|, |G|, composable pairs) sit next to
the times so that no speed-up can hide a smaller input.  The ladder is a
record of ceilings; nothing compares it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import subprocess
import sys
import time
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
SIZES = {
    "line": [1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32],
    "tree": [5, 8, 11, 14, 17, 20, 25, 30],
    "grid": [1, 2, 3, 4, 5, 6, 8],
    "torus": [2, 4, 8, 12, 16, 24, 32],
}
CAP = 5.0
TREE_SEED = 0
SUITE_SAMPLES = 10
STARTUP_LIMIT = 60.0


def instance(family: str, size: int) -> tuple[dict, tuple[int, ...] | None]:
    if family == "line":
        return workloads.line_document(size), None
    if family == "tree":
        return workloads.tree_document(workloads.random_parents(random.Random(TREE_SEED), size)), None
    if family == "grid":
        return workloads.grid_document((size, size)), None
    return workloads.bundled_document("a"), (size, size)


# Stage -> the stages whose output it needs.
NEEDS = {
    "validate": (),
    "path_space": (),
    "boundary": ("path_space",),
    "groupoid": ("path_space",),
    "boundary_groupoid": ("boundary",),
    "axioms": ("groupoid",),
    "etale": ("groupoid",),
    "algebra_suites": ("groupoid", "boundary_groupoid"),
    "generation": ("groupoid", "boundary_groupoid"),
    "verify_cli": (),
}


def stage_names(exact: bool, rank_one: bool) -> list[str]:
    if not exact:
        return ["validate", "path_space", "groupoid"]
    names = list(NEEDS)
    return names if rank_one else names[:-2]


def child(family: str, size: int, skip: set[str]) -> None:
    """Run the stages of one instance, printing one JSON line per stage."""
    modules = run.import_program()
    alg, bnd, cli, gpd = (modules[m] for m in ("algebra", "boundary", "cli", "groupoid"))
    skeleton = modules["skeleton"]

    doc, bound = instance(family, size)
    sk = skeleton.load_skeleton(doc)
    exact = bound is None
    rank_one = sk.rank == 1
    print(json.dumps({"stages": stage_names(exact, rank_one)}), flush=True)
    made: dict[str, object] = {}

    def stage(name, fn, **sizes):
        if name in skip or any(need not in made for need in NEEDS[name]):
            return
        args = [made[need] for need in NEEDS[name]]
        start = time.perf_counter()
        made[name] = out = fn(*args)
        seconds = time.perf_counter() - start
        print(json.dumps({"stage": name, "seconds": seconds,
                          **{k: f(out) for k, f in sizes.items()}}), flush=True)

    def suites(G, Gb):
        for obj in (G, Gb):
            alg.verify_algebra_identities(obj, SUITE_SAMPLES, seed=0)
            alg.verify_gauge_action(obj, SUITE_SAMPLES, seed=0)
            if rank_one:
                alg.verify_toeplitz_identities(obj, SUITE_SAMPLES, seed=0)
        if rank_one:
            alg.verify_cuntz_krieger(Gb, SUITE_SAMPLES, seed=0)
        alg.verify_quotient(G, Gb, SUITE_SAMPLES, seed=0)

    def verify_cli():
        run.WORK.mkdir(exist_ok=True)
        path = run.WORK / f"ladder-{os.getpid()}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            return cli.main(["verify", str(path), "--out", str(path.with_suffix(".out"))])
        finally:
            path.unlink()
            path.with_suffix(".out").unlink(missing_ok=True)

    stage("validate", lambda: skeleton.validate(sk))
    stage("path_space", lambda: bnd.enumerate_path_space(sk, None if exact else skeleton.Degree(bound)),
          space=len)
    if exact:
        stage("boundary", bnd.boundary_paths, boundary_size=len)
    stage("groupoid", gpd.build_path_groupoid, groupoid=len, composable_pairs=run.composable_pairs)
    if exact:
        stage("boundary_groupoid", gpd.build_path_groupoid, boundary_groupoid=len)
        stage("axioms", gpd.verify_groupoid_axioms)
        stage("etale", gpd.verify_etale)
        stage("algebra_suites", suites)
        if rank_one:
            stage("generation", lambda G, Gb: (alg.generation_check(G), alg.generation_check(Gb)))
            stage("verify_cli", verify_cli)


def run_child(family: str, size: int, skip: set[str], row: dict) -> str | None:
    """Run one size in a child process; return the stage that passed the cap, if any."""
    proc = subprocess.Popen(
        [sys.executable, __file__, "--child", family, str(size), ",".join(sorted(skip))],
        stdout=subprocess.PIPE,
        text=True,
        env=dict(os.environ, **run.THREAD_ENV),
    )
    try:
        stage_start = time.perf_counter()
        while True:
            # The cap starts once the child has imported kgraphs and named its stages.
            limit = CAP if row["names"] else STARTUP_LIMIT
            left = limit - (time.perf_counter() - stage_start)
            ready, _, _ = select.select([proc.stdout], [], [], max(left, 0))
            if not ready and not row["names"]:
                row["error"] = "child did not start"
                return None
            if not ready:
                # The stage in progress is the first one still owed; none owed
                # means the child is only slow to exit.
                stages = row["stages"]
                owed = [
                    n for n in row["names"]
                    if n not in stages and n not in skip
                    and all(isinstance(stages.get(need), float) for need in NEEDS[n])
                ]
                return owed[0] if owed else None
            line = proc.stdout.readline()
            if not line:
                return None
            record = json.loads(line)
            if "stages" in record:
                row["names"] = record["stages"]
            else:
                row["stages"][record.pop("stage")] = round(record.pop("seconds"), 6)
                row.update(record)
            stage_start = time.perf_counter()
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        if proc.returncode not in (0, -9) and "error" not in row:
            row["error"] = f"child exited with {proc.returncode}"


def climb(family: str, size: int, skip: set[str]) -> dict:
    """Time every stage not yet skipped at one size; add stages that time out to `skip`."""
    row: dict = {"family": family, "size": size, "stages": {}, "names": []}
    while "error" not in row:
        timed_out = run_child(family, size, skip, row)
        if timed_out is None:
            break
        row["stages"][timed_out] = "timeout"
        skip.add(timed_out)
    stages = row.pop("stages")
    row["stages"] = {n: stages.get(n, "skipped") for n in row.pop("names")}
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "ladder.json"))
    parser.add_argument("--child", nargs=3, metavar=("FAMILY", "SIZE", "SKIP"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        family, size, skip = args.child
        child(family, int(size), set(filter(None, skip.split(","))))
        return 0

    rows = []
    for family in SIZES:
        skip: set[str] = set()
        for size in SIZES[family]:
            row = climb(family, size, skip)
            rows.append(row)
            print(json.dumps(row), flush=True)
            left = [n for n, t in row["stages"].items() if not isinstance(t, str)]
            if "error" in row or set(left) <= {"validate", "path_space"}:
                break
    for leftover in run.WORK.glob("ladder-*"):
        leftover.unlink()
    if run.WORK.is_dir() and not any(run.WORK.iterdir()):
        run.WORK.rmdir()
    result = {
        "cap_s": CAP,
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, Python {platform.python_version()}",
        "suite_samples": SUITE_SAMPLES,
        "tree_seed": TREE_SEED,
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
