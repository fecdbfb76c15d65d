"""Print every metric of the evgrid benchmark, workload by workload.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--seeds 1 2 3] [--seconds 35]
                                [--size full|tiny] [--json PATH]

For each workload of ``BENCHMARK.json`` it makes one untraced run of
``run.py`` per seed and one traced run on the first seed, one process at a
time.  It then prints each end-to-end metric with its unit, median, high
percentile and sample count, the failed runs over the attempted ones, and
every per-layer metric of the traced run.  It also prints each untraced
run's median ``setup_s`` in run order: the set-up is the same fixed work on
every workload, so a drift there is a drift of the host's speed.  ``--json``
also writes the same figures, with the environment of every run, to a file.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = Path(".perfbench") / "results"


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond
    it (nearest rank); the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", ordered[math.ceil(p * n / 100) - 1]
    return "max", ordered[-1]


def run(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--size", size]
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    path.unlink(missing_ok=True)
    done = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, check=False)
    if path.exists():
        return json.loads(path.read_text())
    tail = " | ".join(done.stderr.strip().splitlines()[-3:])
    return {"sizes": None, "environment": None, "attempted": 1, "failed": 1,
            "problems": [f"run.py exited {done.returncode} without results: {tail}"],
            "samples": [], "setup_s": [], "metrics": {}}


def summarize(workload: str, untraced: list[dict], traced: dict, spec: dict) -> dict:
    pooled = {
        "wall_s": [s["wall_s"] for r in untraced for s in r["samples"]],
        "cpu_s": [s["cpu_s"] for r in untraced for s in r["samples"]],
        "peak_rss_mb": [s["peak_rss_mb"] for r in untraced for s in r["samples"]],
        "setup_s": [v for r in untraced for v in r["setup_s"]],
        "peak_after_mw": [r["metrics"]["peak_after_mw"]["value"]
                          for r in untraced if r["metrics"]],
    }
    end_to_end = {}
    for metric in spec["end_to_end"]:
        values = pooled[metric["name"]]
        entry = {"unit": metric["unit"], "n": len(values)}
        if values:
            label, high = high_percentile(values)
            entry.update(median=statistics.median(values), high=high, high_label=label)
        end_to_end[metric["name"]] = entry
    runs = untraced + [traced]
    return {
        "workload": workload,
        "sizes": next((r["sizes"] for r in runs if r["sizes"]), None),
        "host_marker_s": [statistics.median(r["setup_s"]) for r in untraced if r["setup_s"]],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]],
        "end_to_end": end_to_end,
        "per_layer": traced["metrics"],
        "environment": [r["environment"] for r in runs],
    }


def render(summary: dict) -> str:
    sizes = summary["sizes"]
    lines = [
        f"== {summary['workload']}: " + (
            f"N={sizes['N']} T={sizes['T']} steps={sizes['steps']} "
            f"events={sizes['events']} input={sizes['input_bytes']} bytes" if sizes else "no inputs"),
        f"   runs failed / attempted: {summary['failed']} / {summary['attempted']}",
        "   host-speed marker, setup_s per run: "
        + " ".join(f"{v:.3f}" for v in summary["host_marker_s"]),
        f"   {'end-to-end metric':<26}{'unit':<7}{'median':>12}{'high':>12}  {'':<5}{'n':>4}",
    ]
    for name, e in summary["end_to_end"].items():
        if "median" in e:
            lines.append(f"   {name:<26}{e['unit']:<7}{e['median']:>12.4f}{e['high']:>12.4f}"
                         f"  {e['high_label']:<5}{e['n']:>4}")
        else:
            lines.append(f"   {name:<26}{e['unit']:<7}{'-':>12}{'-':>12}  {'':<5}{0:>4}")
    lines.append(f"   {'per-layer metric (traced)':<26}{'unit':<7}{'value':>12}")
    for name, m in summary["per_layer"].items():
        value = m["value"]
        shown = f"{value:>12d}" if isinstance(value, int) else f"{value:>12.6g}"
        lines.append(f"   {name:<26}{m['unit']:<7}{shown}")
    for problem in summary["problems"][:10]:
        lines.append(f"   problem: {problem}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--json", type=Path, help="also write the figures here")
    args = parser.parse_args(argv)

    summaries = []
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = [run(workload, seed, args.seconds, 0, args.size) for seed in args.seeds]
        traced = run(workload, args.seeds[0], args.seconds, 1, args.size)
        summaries.append(summarize(workload, untraced, traced, spec))
        print(render(summaries[-1]), flush=True)
    if args.json:
        args.json.write_text(json.dumps(summaries, indent=2) + "\n")
    return 0 if all(s["failed"] == 0 for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
