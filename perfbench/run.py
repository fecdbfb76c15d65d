"""Benchmark of the ``evgrid`` command-line tool.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 35 --trace 0

The benchmark is a closed loop with one client: it starts one ``evgrid`` child,
waits for it to exit, checks its outputs, and only then starts the next, so
no two children ever compete for the two cores of a small box.  Every child
runs the program from ``src/`` of the checkout.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics: medians over the children of one run.  With
``--trace 1`` the same untraced loop runs first, then one traced in-process
run, and the metrics are the per-layer ones.  A run whose exit code is not 0
or whose outputs fail a check counts as failed and its timing is dropped.
Everything the run writes stays under ``.perfbench/`` in the checkout; the
full record, environment included, goes to
``.perfbench/results/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench")
# Fresh children per set-up or import measurement, each after one untimed
# warm-up.
REPEATS = {"full": 7, "tiny": 1}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Sample:
    wall_s: float        # spawn to exit
    cpu_s: float         # user + system, from wait4
    peak_rss_mb: float   # maximum resident set, from wait4
    code: int


def spawn(argv: list[str], env: dict, stderr_path: Path) -> Sample:
    with open(os.devnull, "wb") as sink, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=sink, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return " | ".join(lines[-3:])


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "loadavg_before": os.getloadavg(),
    }


def run_loop(workload: workloads.Workload, seconds: float, work: Path, env: dict,
             record: dict, probes: int) -> tuple[list[Sample], Path | None, list[float]]:
    """Closed loop of untraced children for ``seconds``; returns the samples
    of the runs that passed, the output directory of the first one, and the
    wall times of ``probes`` set-up children.

    A child is started only when a typical child still ends within
    ``seconds``, so a run never overshoots by most of a child.  The set-up
    children are spread over the run, between workload children, so that
    they meet the same stretch of host speed as the workload."""
    samples: list[Sample] = []
    walls: list[float] = []
    setup: list[float] = []
    probe = [sys.executable, str(HERE / "setup_probe.py")]
    first_out, first_digest = None, None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        if len(setup) < probes * (time.perf_counter() - start) / seconds:
            setup.append(spawn(probe, env, work / "stderr.txt").wall_s)
        out = work / f"out-{record['attempted']}"
        argv = [sys.executable, "-m", "evgrid.cli", *workload.argv, "-o", str(out)]
        sample = spawn(argv, env, work / "stderr.txt")
        walls.append(sample.wall_s)
        problems = judge(sample, workload, out, work / "stderr.txt")
        if not problems:
            d = check.digest(out)
            if first_digest is None:
                first_out, first_digest = out, d
            elif d != first_digest:
                problems = ["outputs differ from the first run of the same inputs"]
        record["attempted"] += 1
        if problems:
            record["failed"] += 1
            record["problems"] += problems
        else:
            samples.append(sample)
        if out != first_out:
            shutil.rmtree(out, ignore_errors=True)
    while len(setup) < probes:
        setup.append(spawn(probe, env, work / "stderr.txt").wall_s)
    return samples, first_out, setup


def judge(sample: Sample, workload, out: Path, stderr_path: Path) -> list[str]:
    if sample.code != 0:
        return [f"exit code {sample.code}: {_tail(stderr_path)}"]
    try:
        return check.check_run(workload, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"outputs unreadable: {exc!r}"]


def median_of(argv: list[str], env: dict, repeats: int, work: Path) -> float:
    spawn(argv, env, work / "stderr.txt")
    return statistics.median(spawn(argv, env, work / "stderr.txt").wall_s
                             for _ in range(repeats))


def end_to_end(samples: list[Sample], first_out: Path, setup: list[float]) -> dict:
    report = json.loads((first_out / "report.json").read_text())
    return {
        "wall_s": {"value": statistics.median(s.wall_s for s in samples), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "cpu_s": {"value": statistics.median(s.cpu_s for s in samples), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(s.peak_rss_mb for s in samples),
                        "unit": "MB"},
        "peak_after_mw": {"value": report["peak"]["after_mw"], "unit": "MW"},
    }


def span_table(spans: list[list]) -> dict:
    """Per span name: calls, total and self seconds, durations, infos."""
    children = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    table: dict[str, dict] = {}
    for (name, start, end, _, info), inner in zip(spans, children):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "durations_ns": [], "info": []})
        row["calls"] += 1
        row["total_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - inner) / 1e9
        row["durations_ns"].append(end - start)
        if info is not None:
            row["info"].append(info)
    return table


def per_layer(table: dict, imports: dict, overhead_s: float) -> dict:
    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                "durations_ns": [], "info": []})

    def info_sum(name, key):
        return sum(i[key] for i in row(name)["info"])

    solve = row("scheduler.solve")
    values = {
        "import.evgrid_s": (imports["evgrid"], "s"),
        "import.scipy_s": (imports["scipy"], "s"),
        "fileio.read_s": (row("fileio.read")["total_s"], "s"),
        "fileio.read_bytes": (info_sum("fileio.read", "bytes"), "bytes"),
        "fileio.write_s": (row("fileio.write")["total_s"], "s"),
        "fileio.write_bytes": (info_sum("fileio.write", "bytes"), "bytes"),
        "fleet.baseline_s": (row("fleet.baseline")["total_s"], "s"),
        "fleet.baseline_calls": (row("fleet.baseline")["calls"], "count"),
        "scheduler.solves": (solve["calls"], "count"),
        "scheduler.solve_us": (statistics.median(solve["durations_ns"]) / 1e3
                               if solve["calls"] else 0.0, "us"),
        "scheduler.solve_s": (solve["total_s"], "s"),
        "scheduler.rounds": (info_sum("scheduler.fixed_point", "rounds"), "count"),
        "scheduler.gather_s": (row("scheduler.fixed_point")["self_s"], "s"),
        "coordinator.horizon_s": (row("coordinator.horizon")["total_s"], "s"),
        "coordinator.self_s": (row("coordinator.horizon")["self_s"], "s"),
        "coordinator.steps": (info_sum("coordinator.horizon", "steps"), "count"),
        "coordinator.active_steps": (info_sum("coordinator.horizon", "active_steps"), "count"),
        "powerflow.calls": (row("powerflow.solve")["calls"], "count"),
        "powerflow.iterations": (info_sum("powerflow.solve", "iterations"), "count"),
        "powerflow.solve_ms": (row("powerflow.solve")["total_s"] * 1e3, "ms"),
        "metrics.aggregate_s": (row("metrics.aggregate")["total_s"], "s"),
        "metrics.compare_self_s": (row("metrics.compare")["self_s"], "s"),
        "metrics.report_ms": (row("metrics.report")["total_s"] * 1e3, "ms"),
        "cli.self_s": (row("cli.main")["self_s"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def cross_check(table: dict, layer: dict, traced_out: Path, first_out: Path) -> list[str]:
    """Counts from the trace against the run's own outputs."""
    problems = []
    stations_x_rounds = sum(i["stations"] * i["rounds"]
                            for i in table.get("scheduler.fixed_point", {"info": []})["info"])
    if layer["scheduler.solves"]["value"] != stations_x_rounds:
        problems.append(f"scheduler.solves {layer['scheduler.solves']['value']} != "
                        f"sum of rounds x stations {stations_x_rounds}")
    rounds = (check.rounds_in_traces(traced_out)
              if (traced_out / "traces.csv").exists() else 0)
    if layer["scheduler.rounds"]["value"] != rounds:
        problems.append(f"scheduler.rounds {layer['scheduler.rounds']['value']} != "
                        f"{rounds} rounds in traces.csv")
    if check.digest(traced_out) != check.digest(first_out):
        problems.append("traced outputs differ from the untraced run's")
    return problems


def traced_run(workload, work: Path, env: dict, repeats: int, samples: list[Sample],
               first_out: Path, record: dict) -> dict:
    """Import costs from fresh children, then one traced run of the workload;
    returns the per-layer metrics, or nothing when the traced run failed."""
    py = sys.executable
    bare = median_of([py, "-c", "pass"], env, repeats, work)
    imports = {
        "evgrid": median_of([py, "-c", "import evgrid.cli"], env, repeats, work) - bare,
        "scipy": median_of([py, "-c", "import scipy.linalg"], env, repeats, work) - bare,
    }
    out, spans_path = work / "out-traced", work / "spans.json"
    traced = spawn([py, str(HERE / "traced.py"), str(spans_path), *workload.argv,
                    "-o", str(out)], env, work / "stderr.txt")
    record["attempted"] += 1
    record["traced_wall_s"] = traced.wall_s
    metrics: dict = {}
    problems = judge(traced, workload, out, work / "stderr.txt")
    if not problems:
        table = span_table(json.loads(spans_path.read_text()))
        overhead = traced.wall_s - statistics.median(s.wall_s for s in samples)
        metrics = per_layer(table, imports, overhead)
        problems = cross_check(table, metrics, out, first_out)
        record["spans"] = {k: {"calls": v["calls"], "total_s": v["total_s"],
                               "self_s": v["self_s"]} for k, v in table.items()}
    if problems:
        record["failed"] += 1
        record["problems"] += problems
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="tiny: small generated inputs for the harness self-check")
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [str(p) for p in (workloads.DESK_CONFIG, workloads.DESK_BASE, workloads.CASE,
                                Path("src/evgrid/cli.py")) if not (root / p).is_file()]
    if missing:
        print(f"error: not the root of an evgrid checkout; missing {missing}",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(root)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": environment(root),
              "attempted": 0, "failed": 0, "problems": []}

    workload = workloads.build(args.workload, root, work / "inputs", args.seed, args.size)
    record["sizes"] = workload.sizes
    repeats = REPEATS[args.size]
    # untimed: fills bytecode and page caches
    spawn([sys.executable, str(HERE / "setup_probe.py")], env, work / "stderr.txt")
    samples, first_out, setup = run_loop(workload, args.seconds, work, env, record,
                                         repeats if args.trace == 0 else 0)
    record["samples"] = [asdict(s) for s in samples]
    record["setup_s"] = setup

    metrics: dict = {}
    if samples and args.trace == 0:
        metrics = end_to_end(samples, first_out, setup)
    elif samples:
        metrics = traced_run(workload, work, env, repeats, samples, first_out, record)
    record["environment"]["loadavg_after"] = os.getloadavg()
    record["metrics"] = metrics
    correct = record["failed"] == 0 and bool(metrics)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    shutil.rmtree(work / "inputs", ignore_errors=True)
    for out in work.glob("out-*"):
        shutil.rmtree(out, ignore_errors=True)

    for problem in record["problems"][:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
