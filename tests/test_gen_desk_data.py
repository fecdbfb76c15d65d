"""``tools/gen_desk_data.py``: the bundled desk inputs are what the tool writes."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DESK = Path("src") / "evgrid" / "data" / "desk"
WRITTEN = ("base_load.csv", "sessions.csv", "events.csv")


def test_regenerates_the_desk_files_byte_for_byte(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "gen_desk_data.py", tmp_path / "tools")
    for name in WRITTEN:
        (tmp_path / DESK / name).unlink()
    env = dict(os.environ, PYTHONPATH=str(tmp_path / "src"))
    subprocess.run([sys.executable, "tools/gen_desk_data.py"], cwd=tmp_path, env=env,
                   check=True, capture_output=True)
    for name in WRITTEN:
        assert (tmp_path / DESK / name).read_bytes() == (ROOT / DESK / name).read_bytes(), name
