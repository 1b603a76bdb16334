"""Run the benchmark over workloads and seeds and print every metric by name.

From the root of a source checkout:

    python3 bench/report.py                          # all workloads, default seed
    python3 bench/report.py --seeds 1-10             # ten seeds, spread per metric
    python3 bench/report.py --workloads tree-grid-torus --seeds 7919,7919,7919
    python3 bench/report.py --trace 1                # per-layer metrics

Each (workload, seed) pair is one `bench/run.py` process of BENCHMARK.json's
`run_seconds`, run one after the other.  For every metric the table gives
the median over the runs, the first and third quartiles
(`statistics.quantiles(values, n=4)`), the spread (Q3 - Q1) / median, and
the bound from BENCHMARK.json.  `fail_ratio` is
failed / attempted jobs over all runs of the workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if dash else [int(lo)]
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], bounds: dict) -> list[str]:
    lines = []
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    lines.append(f"  {'fail_ratio':<40} {'failed/attempted':<16} {failed / attempted:>12.4f}  ({failed}/{attempted})")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        row = f"  {name:<40} {first['unit']:<16} {median:>12.4f}"
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            row += f"  q1 {q1:.4f}  q3 {q3:.4f}  spread {spread:.3f}"
            if name in bounds:
                row += f"  bound {bounds[name]}"
        lines.append(row)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default=str(workloads.DEFAULT_SEED))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, help="write every run's result line here")
    args = parser.parse_args(argv)

    seconds = CONFIG["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    saved = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, seconds, args.trace) for seed in seeds]
        saved[workload] = [{"seed": s, **r} for s, r in zip(seeds, results)]
        print(f"{workload}  ({len(results)} runs, seeds {args.seeds}, {seconds} s each)")
        print("\n".join(summarize(results, bounds)), flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
