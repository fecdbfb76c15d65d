"""Check that two checkouts of evgrid give byte-identical outputs.

Usage: python3 tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  The generated inputs
(replan seeds 1 and 2, compare-20k seed 1) are written once, by
``perfbench/workloads.build`` of PARENT, into a temporary directory, so both
checkouts read the same files.  Each run then starts ``python3 -m
evgrid.cli`` from a checkout's root with that checkout's ``src/`` on the
path:

* desk ``simulate`` and ``schedule`` on the shipped desk config;
* desk ``simulate`` with ``--steps 12 --lambda 3.0 --epsilon 0.001
  --max-iterations 50``, and desk ``gen-fleet --seed 2``, so that each
  flag override is compared too;
* ``powerflow`` on the WSCC-9 case alone, and with the desk base load at
  its peak slot and at ``--slot 40``;
* replan ``simulate`` for seeds 1 and 2;
* compare-20k ``compare`` for seed 1.

Every file a run writes under ``-o``, its stdout, its stderr and its exit
status must be the same bytes in both checkouts.  The script prints the
first difference and exits 1, or prints one line per identical run and
exits 0.  It writes no bytecode and nothing into either checkout.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DESK_CONFIG = "src/evgrid/data/desk/config.json"
CASE = "src/evgrid/data/wscc9.case"
GENERATED = [("replan", 1), ("replan", 2), ("compare-20k", 1)]


def load_workloads(root: Path):
    """``perfbench/workloads.py`` of ``root``, imported by path."""
    spec = importlib.util.spec_from_file_location(
        "same_outputs_workloads", root / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(parent: Path, work: Path) -> list[tuple[str, list[str]]]:
    """Each run's label and its evgrid arguments, without ``-o``."""
    todo = [
        ("desk simulate", ["simulate", "-c", DESK_CONFIG]),
        ("desk schedule", ["schedule", "-c", DESK_CONFIG]),
        ("desk simulate, scheduler and horizon flags",
         ["simulate", "-c", DESK_CONFIG, "--steps", "12", "--lambda", "3.0",
          "--epsilon", "0.001", "--max-iterations", "50"]),
        ("desk gen-fleet, seed 2", ["gen-fleet", "-c", DESK_CONFIG, "--seed", "2"]),
        ("powerflow, case only", ["powerflow", "--case", CASE]),
        ("powerflow, desk base load", ["powerflow", "-c", DESK_CONFIG]),
        ("powerflow, desk base load, slot 40", ["powerflow", "-c", DESK_CONFIG, "--slot", "40"]),
    ]
    workloads = load_workloads(parent)
    for name, seed in GENERATED:
        built = workloads.build(name, parent, work / f"{name}-{seed}", seed)
        todo.append((f"{name} seed {seed}", built.argv))
    return todo


def run(root: Path, argv: list[str], out: Path) -> dict[str, bytes]:
    """Every output of one run in ``root``: the ``-o`` files by relative
    path, plus its stdout, stderr and exit status."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "evgrid.cli", *argv, "-o", str(out)],
                          cwd=root, env=env, capture_output=True, timeout=600)
    files = {f"-o {p.relative_to(out)}": p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {**files, "stdout": done.stdout, "stderr": done.stderr,
            "exit status": str(done.returncode).encode()}


def first_difference(old: dict[str, bytes], new: dict[str, bytes]) -> str | None:
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            return f"{key} written by only one checkout"
        if old[key] != new[key]:
            return f"{key} differs"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        work = Path(tmp)
        for k, (label, args) in enumerate(runs(parent, work / "inputs")):
            old = run(parent, args, work / "parent" / str(k))
            new = run(change, args, work / "change" / str(k))
            difference = first_difference(old, new)
            if difference:
                print(f"{label}: {difference}")
                return 1
            print(f"{label}: identical ({len(old) - 3} files, stdout, stderr, exit status)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
