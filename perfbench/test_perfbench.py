"""Fast self-check of the benchmark harness: tiny generated inputs, one
repetition, the code path of every workload, and every named metric in
valid JSON.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_run_prints_the_contract_line():
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "replan", "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        result = _last_json(done.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}
        for m in SPEC[group]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_report_covers_every_workload_and_metric():
    out = ROOT / ".perfbench" / "selfcheck.json"
    done = subprocess.run(
        [sys.executable, "perfbench/report.py", "--size", "tiny", "--seeds", "1",
         "--seconds", "1", "--json", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    summaries = json.loads(out.read_text())
    assert [s["workload"] for s in summaries] == [w["name"] for w in SPEC["workloads"]]
    for s in summaries:
        assert s["failed"] == 0, s["problems"]
        assert set(s["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(e["n"] >= 1 and "median" in e for e in s["end_to_end"].values())
        assert set(s["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    desk = summaries[0]["per_layer"]
    assert desk["scheduler.rounds"]["value"] == 16
    assert desk["scheduler.solves"]["value"] == 7205
    assert desk["powerflow.calls"]["value"] == 2


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_checks_catch_a_broken_schedule(tmp_path):
    workload = workloads.build("replan", ROOT, tmp_path / "inputs", 5, "tiny")
    out = tmp_path / "out"
    sample = run.spawn([sys.executable, "-m", "evgrid.cli", *workload.argv, "-o", str(out)],
                       run.child_env(ROOT), tmp_path / "stderr.txt")
    assert sample.code == 0
    assert check.check_run(workload, out) == []

    path = out / "schedules_coordinated.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[-1] = "1000000.0"
    path.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    assert any(p.startswith(cells[0] + ":") for p in check.check_run(workload, out))


def test_report_counts_a_run_without_results_as_failed(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/report.py", "--seeds", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.count("runs failed / attempted: 2 / 2") == len(SPEC["workloads"])
    assert "not the root of an evgrid checkout" in done.stdout
