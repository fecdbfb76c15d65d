"""Record ``reference.json``: the report values that every benchmark run is
checked against.

Usage, from the root of a checkout at the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

It records desk and seeds 0-24 of each generated workload.  Each entry comes
from one run whose outputs first pass every check that does not need the
reference.  The tolerances already in the file are kept.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import check
import run
import workloads

SEEDS = range(25)


def record(name: str, seed: int, root: Path, env: dict) -> tuple[str, dict, int]:
    work = run.WORK / "reference" / f"{name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.build(name, root, work / "inputs", seed)
    out = work / "out"
    sample = run.spawn([sys.executable, "-m", "evgrid.cli", *workload.argv, "-o", str(out)],
                       env, work / "stderr.txt")
    problems = run.judge(sample, dataclasses.replace(workload, reference_key=None),
                         out, work / "stderr.txt")
    if problems:
        raise SystemExit(f"{name} seed {seed}: {problems[:5]}")
    entry = check.report_values(json.loads((out / "report.json").read_text()))
    rounds = check.rounds_in_traces(out) if (out / "traces.csv").exists() else 0
    shutil.rmtree(work)
    return workload.reference_key, entry, rounds


def main() -> int:
    root = Path.cwd()
    env = run.child_env(root)
    table = json.loads(check.REFERENCE.read_text())
    jobs = [("desk", 0)] + [(name, seed) for name in ("replan", "compare-20k")
                            for seed in SEEDS]
    for name, seed in jobs:
        key, entry, rounds = record(name, seed, root, env)
        table["runs"][key] = entry
        print(key, entry["peak_after_mw"], f"rounds={rounds}", flush=True)
        check.REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
