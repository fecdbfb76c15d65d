"""Run the evgrid benchmark on two checkouts in interleaved pairs.

Usage: python3 tools/pairs.py PARENT CHANGE --workload W --pairs N --seed S
                              --seconds T --out PATH [--size full|tiny]

PARENT and CHANGE are the roots of two checkouts.  Pair i (0-based) runs
``perfbench/run.py --workload W --seed S+i --seconds T --trace 0 --size Z``
once from each checkout's root, with each checkout's own benchmark code and
the interpreter that runs this script.  PARENT runs first in even pairs and
CHANGE in odd ones, so a drift of host speed favours neither side.  Each
run's result is the JSON object on the last line of its stdout; a run whose
result does not read ``"correct": true`` counts as failed for its side and
gives no metric.

PATH receives one JSON object holding both checkouts (commit, whether the
work tree differs from it, and the digest of ``src/``), the host (platform,
Python and numpy versions, ``nproc``, load average before and after), each
pair's result on both sides (``setup_s`` among them, the host-speed marker),
and, for every end-to-end metric that PARENT's ``BENCHMARK.json`` declares:
each side's median and quartiles, the change's wins out of the pairs where
both sides gave the metric (a tie counts for neither side), and whether the
medians differ by more than the parent's interquartile range.  The script
prints one line per metric, and exits 1 if any run failed, else 0.  It
imports nothing from either checkout, and writes into a checkout only what
``perfbench/run.py`` itself writes there (``.perfbench/``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")


def checkout(root: Path) -> dict:
    """The commit of ``root``, whether its tracked files differ from it, and
    the digest of its ``src/`` as ``perfbench/run.py`` computes it."""
    def git(*args) -> str | None:
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "source_sha256": digest.hexdigest()}


def bench(root: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """The result line of one untraced ``perfbench/run.py`` run in ``root``;
    a run without one reads ``"correct": false`` and keeps its stderr tail."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--size", size],
        cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if result.get("correct") is not True:
        result = {**result, "correct": False,
                  "stderr": done.stderr.strip().splitlines()[-5:]}
    return result


def spread(values: list[float]) -> dict:
    """Median and quartiles of one side's values of one metric."""
    if not values:
        return {"runs": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"runs": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(metric: dict, pairs: list[dict]) -> dict:
    """One end-to-end metric over every pair: each side's spread, the
    change's wins and the gap between the medians against the parent's IQR."""
    name, lower = metric["name"], metric["better"] == "lower"
    values = [{s: p[s]["metrics"][name]["value"] for s in SIDES
               if p[s]["correct"] and name in p[s]["metrics"]} for p in pairs]
    side = {s: [v[s] for v in values if s in v] for s in SIDES}
    both = [(v["parent"], v["change"]) for v in values if len(v) == 2]
    wins = sum(1 for old, new in both if (new < old if lower else new > old))
    row = {"unit": metric["unit"], "better": metric["better"],
           "parent": spread(side["parent"]), "change": spread(side["change"]),
           "change_wins": wins, "pairs_compared": len(both)}
    if side["parent"] and side["change"]:
        parent, change = row["parent"], row["change"]
        row["median_gap"] = change["median"] - parent["median"]
        row["gap_exceeds_parent_iqr"] = abs(row["median_gap"]) > parent["q3"] - parent["q1"]
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--size", default="full")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    end_to_end = json.loads((roots["parent"] / "BENCHMARK.json").read_text())["end_to_end"]

    record = {
        "workload": args.workload, "size": args.size, "seconds": args.seconds,
        "first_seed": args.seed,
        "checkouts": {s: checkout(root) for s, root in roots.items()},
        "host": {"platform": platform.platform(), "python": platform.python_version(),
                 "numpy": metadata.version("numpy"), "nproc": os.cpu_count(),
                 "loadavg_before": os.getloadavg()},
    }
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for s in order:
            pair[s] = bench(roots[s], args.workload, seed, args.seconds, args.size)
        pairs.append(pair)
    record["host"]["loadavg_after"] = os.getloadavg()
    record["failed"] = {s: sum(1 for p in pairs if not p[s]["correct"]) for s in SIDES}
    record["metrics"] = {m["name"]: compare(m, pairs) for m in end_to_end}
    record["pairs"] = pairs
    args.out.write_text(json.dumps(record, indent=2) + "\n")

    for name, row in record["metrics"].items():
        medians = " -> ".join(f"{row[s].get('median', float('nan')):.4g}" for s in SIDES)
        print(f"{name}: {medians} {row['unit']}, change better in "
              f"{row['change_wins']} of {row['pairs_compared']}, gap beyond parent IQR: "
              f"{row.get('gap_exceeds_parent_iqr')}")
    print(f"failed runs: parent {record['failed']['parent']}, "
          f"change {record['failed']['change']}")
    return int(any(record["failed"].values()))


if __name__ == "__main__":
    sys.exit(main())
