"""Write bench/pins.json: sha256 of the float-free reports on the recorded seeds.

From the root of a source checkout:

    python3 bench/pins.py

Only `boundary` and `groupoid` reports are pinned; `verify` reports hold
float deviations and are checked through their verdicts.  A report is pinned
only after it passes its closed-form checks.  Re-pin only when a change is
meant to alter report bytes, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    cli = run.import_program()["cli"]
    run.WORK.mkdir(exist_ok=True)
    pins: dict = {}
    try:
        for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED):
            for workload in workloads.WORKLOADS:
                jobs = [j for j in workloads.make_jobs(workload, seed) if j.command != "verify"]
                if not jobs:
                    continue
                result = run.run_pass(cli, jobs, {}, "pins")
                if result.problems:
                    raise SystemExit("\n".join(result.problems))
                pins.setdefault(str(seed), {})[workload] = result.digests
    finally:
        if not any(run.WORK.iterdir()):
            run.WORK.rmdir()
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
