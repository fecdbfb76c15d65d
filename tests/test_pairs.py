"""``tools/pairs.py``: one short pair of benchmark runs, parent = change."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_tiny_pair_reports_every_end_to_end_metric(tmp_path):
    out = tmp_path / "pairs.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairs.py"), str(ROOT), str(ROOT),
         "--workload", "replan", "--size", "tiny", "--pairs", "1", "--seed", "1",
         "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads(out.read_text())
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert sorted(record["metrics"]) == sorted(names)
    assert record["failed"] == {"parent": 0, "change": 0}
    for row in record["metrics"].values():
        assert row["pairs_compared"] == 1
        assert row["parent"]["runs"] == row["change"]["runs"] == 1
    assert [pair["seed"] for pair in record["pairs"]] == [1]
