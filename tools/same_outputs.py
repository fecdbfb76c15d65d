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
* compare-20k ``compare`` for seed 1;
* ``simulate`` and ``gen-fleet`` of a generated fleet of N = 20,000 at
  seed 1: the desk config of PARENT without its ``sessions`` and
  ``events`` keys, with 6,667/6,667/6,666 EVs at buses 5/7/9,
  ``energy_kwh_range`` [2, 5.5] and +/-7 kW chargers, written into the
  temporary directory with absolute case and base-load paths;
* four failing desk ``simulate`` runs, each on a copy of the desk config
  whose one broken input is written into the temporary directory: a
  session whose energy is out of reach, an event that removes an unknown
  ev_id, a base load missing its slot 0 entry for bus 7, and a case with a
  branch to an unknown bus;
* a failing ``powerflow`` on a two-bus case whose branch has x = 1e15 pu,
  so that its Jacobian is singular at the flat start.

Every file a run writes under ``-o``, its stdout, its stderr and its exit
status must be the same bytes in both checkouts.  The script runs every
run and prints one line for each run that is identical, or one line for
each output of the run that differs.  For a differing ``.json`` file that
line also gives how many floats moved and the largest
``|change - parent| / max(1, |parent|)`` with its key path, or the first
key path where the two files differ in more than their floats.  It exits 1
if any output differs, else 0.  It writes no bytecode and nothing into
either checkout.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DESK_CONFIG = "src/evgrid/data/desk/config.json"
CASE = "src/evgrid/data/wscc9.case"
GENERATED = [("replan", 1), ("replan", 2), ("compare-20k", 1)]
# each failing simulate run: its label, the desk input it breaks, and the
# broken file's lines made from the desk file's lines
BROKEN_DESK = [
    ("session energy out of reach", "sessions",
     lambda lines: [lines[0], "b5e0000,5,16,96,5000.0,200.0,-200.0\n", *lines[2:]]),
    ("event removing an unknown ev_id", "events",
     lambda lines: [*lines, "30,remove_session,ghost,,,,,,\n"]),
    ("base load missing an entry", "base_load", lambda lines: lines[:2] + lines[3:]),
    ("case branch to an unknown bus", "case", lambda lines: [*lines, "9  10  0.0  0.1  0.0\n"]),
]
SINGULAR_CASE = """[system]
s_base_mva = 100.0

[buses]
1  swing  1.0  0.0  0.0    0.0  230.0
2  pq     1.0  0.0  -50.0  0.0  230.0

[branches]
1  2  0.0  1e15  0.0  1.0
"""


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
    fleet_20k = str(fleet_20k_config(parent, work))
    todo.append(("generated fleet N = 20,000 simulate, seed 1", ["simulate", "-c", fleet_20k]))
    todo.append(("generated fleet N = 20,000 gen-fleet, seed 1", ["gen-fleet", "-c", fleet_20k]))
    for label, key, lines in BROKEN_DESK:
        todo.append((f"desk simulate, {label}",
                     ["simulate", "-c", str(broken_desk_config(parent, work, key, lines))]))
    singular = work / "singular.case"
    singular.write_text(SINGULAR_CASE)
    todo.append(("powerflow, singular Jacobian", ["powerflow", "--case", str(singular)]))
    return todo


def desk_config(parent: Path) -> dict:
    """The desk config of ``parent``, with absolute input paths."""
    desk = parent / DESK_CONFIG
    cfg = json.loads(desk.read_text())
    for key in ("case", "base_load", "sessions", "events"):
        cfg[key] = str((desk.parent / cfg[key]).resolve())
    return cfg


def broken_desk_config(parent: Path, work: Path, key: str, lines) -> Path:
    """Write into ``work`` a desk config whose ``key`` input is the desk
    file rewritten by ``lines``, and that input."""
    cfg = desk_config(parent)
    source = Path(cfg[key])
    broken = work / f"broken-{key}{source.suffix}"
    broken.write_text("".join(lines(source.read_text().splitlines(keepends=True))))
    cfg[key] = str(broken)
    path = work / f"broken-{key}.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


def fleet_20k_config(parent: Path, work: Path) -> Path:
    """Write the N = 20,000 generated-fleet config into ``work``."""
    cfg = desk_config(parent)
    del cfg["sessions"], cfg["events"]
    cfg["seed"] = 1
    cfg["fleet"].update(counts={"5": 6667, "7": 6667, "9": 6666},
                        energy_kwh_range=[2.0, 5.5], p_max_kw=7.0, d_max_kw=-7.0)
    path = work / "fleet-20k.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


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


def float_moves(old, new, path: str = ""):
    """Yield ``(path, parent, change)`` for each float leaf of two parsed JSON
    trees whose text differs; raise ValueError naming the first path where
    the trees differ in anything but a float's value."""
    if type(old) is not type(new):
        raise ValueError(path)
    if isinstance(old, dict):
        if list(old) != list(new):
            raise ValueError(path)
        for key in old:
            yield from float_moves(old[key], new[key], f"{path}.{key}" if path else key)
    elif isinstance(old, list):
        if len(old) != len(new):
            raise ValueError(path)
        for k, (a, b) in enumerate(zip(old, new)):
            yield from float_moves(a, b, f"{path}[{k}]")
    elif isinstance(old, float):
        if repr(old) != repr(new):
            yield path, old, new
    elif old != new:
        raise ValueError(path)


def relative_change(parent: float, change: float) -> float:
    """``|change - parent| / max(1, |parent|)``, infinite where not finite."""
    size = abs(change - parent) / max(1.0, abs(parent))
    return size if math.isfinite(size) else math.inf


def json_change(old: bytes, new: bytes) -> str:
    """How the floats of two JSON outputs moved, in words."""
    old, new = json.loads(old), json.loads(new)
    try:
        moves = list(float_moves(old, new))
    except ValueError as exc:
        return f"differs beyond its floats at {str(exc) or 'the top level'}"
    if not moves:
        return "0 floats moved"
    size, path = max((relative_change(a, b), path) for path, a, b in moves)
    return f"{len(moves)} floats moved, largest |change|/max(1, |parent|) {size:.1e} at {path}"


def differences(old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """One line per output that differs between two runs."""
    lines = []
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            lines.append(f"{key} written by only one checkout")
        elif old[key] != new[key]:
            detail = f": {json_change(old[key], new[key])}" if key.endswith(".json") else ""
            lines.append(f"{key} differs{detail}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    sys.dont_write_bytecode = True
    failed = False
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        work = Path(tmp)
        for k, (label, args) in enumerate(runs(parent, work / "inputs")):
            old = run(parent, args, work / "parent" / str(k))
            new = run(change, args, work / "change" / str(k))
            lines = differences(old, new)
            if not lines:
                print(f"{label}: identical ({len(old) - 3} files, stdout, stderr, exit status)")
            for line in lines:
                print(f"{label}: {line}")
            failed |= bool(lines)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
