"""Correctness checks on the output directory of one ``evgrid`` run.

Each check returns a list of problems; an empty list means the run passed.
The checks rebuild what they need from the workload's own inputs and never
call into ``evgrid``.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from workloads import Workload, full_rate_profile, read_base, read_csv

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Absolute tolerances against an independent recomputation from the files.
RECOMPUTE_MW = 1e-6
ENERGY_KWH = 1e-6
RATE_KW = 1e-9
VOLTAGE_RANGE_PU = (0.9, 1.1)

_CLAMP = re.compile(r"^step (\d+): session (\S+) energy target .* clamped to (\S+)$")


def digest(out: Path) -> str:
    """One hash over every file the run wrote, names included."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def load_reference(workload: Workload) -> tuple[dict | None, dict]:
    """Reference values recorded at the commit that introduced the benchmark
    (one entry for desk, one per recorded seed of each generated workload),
    and the tolerances they are held to."""
    table = json.loads(REFERENCE.read_text())
    entry = table["runs"].get(workload.reference_key) if workload.reference_key else None
    return entry, table["tolerance"]


def report_values(report: dict) -> dict:
    """The values of report.json that the reference pins."""
    return {
        "peak_before_mw": report["peak"]["before_mw"],
        "peak_after_mw": report["peak"]["after_mw"],
        "slot_before": report["peak"]["slot_before"],
        "v_before_pu": {str(r["bus"]): r["before_pu"] for r in report["bus_voltages"]},
        "v_after_pu": {str(r["bus"]): r["after_pu"] for r in report["bus_voltages"]},
    }


def _against_reference(values: dict, ref: dict, tol: dict) -> list[str]:
    problems = []
    if values["slot_before"] != ref["slot_before"]:
        problems.append(f"slot_before {values['slot_before']} != reference {ref['slot_before']}")
    for key in ("peak_before_mw", "peak_after_mw"):
        if abs(values[key] - ref[key]) > tol[key + "_rel"] * abs(ref[key]):
            problems.append(f"{key} {values[key]!r} differs from reference {ref[key]!r}")
    for key in ("v_before_pu", "v_after_pu"):
        if set(values[key]) != set(ref[key]):
            problems.append(f"{key}: buses {sorted(values[key])} != {sorted(ref[key])}")
            continue
        for bus, v in ref[key].items():
            if abs(values[key][bus] - v) > tol[key + "_abs"]:
                problems.append(f"{key} bus {bus}: {values[key][bus]!r} vs reference {v!r}")
    return problems


def _schedule(path: Path) -> tuple[list[str], list[int], np.ndarray]:
    _, rows = read_csv(path)
    ids = [r[0] for r in rows]
    buses = [int(r[1]) for r in rows]
    kw = np.array([[float(v) for v in r[2:]] for r in rows])
    return ids, buses, kw


def _peak(base_mw: np.ndarray, kw: np.ndarray) -> float:
    return float((base_mw.sum(axis=0) + kw.sum(axis=0) / 1000.0).max())


def _final_sessions(workload: Workload) -> tuple[dict, set[str]]:
    """Sessions after every scripted event, and the ids removed on the way."""
    sessions = {s[0]: s for s in workload.sessions}
    removed = set()
    for slot, kind, ev_id, bus, t0, t1, energy, pmax, dmax in workload.events:
        if kind == "add_session":
            sessions[ev_id] = (ev_id, int(bus), int(t0), int(t1), float(energy),
                               float(pmax), float(dmax))
        elif kind == "update_energy":
            sessions[ev_id] = sessions[ev_id][:4] + (float(energy),) + sessions[ev_id][5:]
        else:
            removed.add(ev_id)
    return sessions, removed


def _rows(workload: Workload, report: dict, ids, buses, kw, dt: float) -> list[str]:
    """Bus, window, rate bounds and energy target of every coordinated row; a
    session clamped at the final step is held to the clamped target."""
    sessions, removed = _final_sessions(workload)
    problems = []
    if sorted(ids) != sorted(sessions):
        problems.append(f"coordinated rows {len(ids)} != sessions ever active {len(sessions)}")
        return problems
    last = workload.sizes["steps"] - 1
    clamped = {}
    for flag in report["flags"]:
        m = _CLAMP.match(flag)
        if m and int(m.group(1)) == last:
            clamped[m.group(2)] = float(m.group(3))
    for ev_id, bus, row in zip(ids, buses, kw):
        _, session_bus, t0, t1, energy, pmax, dmax = sessions[ev_id]
        if bus != session_bus:
            problems.append(f"{ev_id}: on bus {bus}, session is on bus {session_bus}")
        outside = np.concatenate([row[:t0], row[t1:]])
        if outside.size and np.abs(outside).max() > RATE_KW:
            problems.append(f"{ev_id}: charges outside its window [{t0}, {t1})")
        inside = row[t0:t1]
        if inside.min() < dmax - RATE_KW or inside.max() > pmax + RATE_KW:
            problems.append(f"{ev_id}: rate outside [{dmax}, {pmax}] kW")
        if ev_id in removed:
            continue
        target = clamped.get(ev_id, energy)
        delivered = float(row.sum()) * dt
        if abs(delivered - target) > ENERGY_KWH:
            problems.append(f"{ev_id}: delivers {delivered!r} kWh, target {target!r}")
        if len(problems) > 20:
            break
    return problems


def check_run(workload: Workload, out: Path) -> list[str]:
    """Every check for one untraced or traced run of ``workload``."""
    report = json.loads((out / "report.json").read_text())
    values = report_values(report)
    problems = []
    for key in ("v_before_pu", "v_after_pu"):
        for bus, v in values[key].items():
            if not VOLTAGE_RANGE_PU[0] <= v <= VOLTAGE_RANGE_PU[1]:
                problems.append(f"{key} bus {bus}: {v!r} outside {VOLTAGE_RANGE_PU}")

    if workload.expected_peaks is not None:
        before, after = workload.expected_peaks
    else:
        _, base_mw = read_base(workload.base_load)
        dt, slots = workload.slot_hours, base_mw.shape[1]
        unc = np.array([full_rate_profile(t0, t1, e, pm, slots, dt)
                        for _, _, t0, t1, e, pm, _ in workload.sessions])
        ids, _, unc_kw = _schedule(out / "schedules_uncoordinated.csv")
        if ids != [s[0] for s in workload.sessions] or np.abs(unc_kw - unc).max() > RATE_KW:
            problems.append("uncoordinated schedules differ from the full-rate baseline")
        ids, buses, kw = _schedule(out / "schedules_coordinated.csv")
        problems += _rows(workload, report, ids, buses, kw, dt)
        before, after = _peak(base_mw, unc), _peak(base_mw, kw)
    for key, expect in (("peak_before_mw", before), ("peak_after_mw", after)):
        if abs(values[key] - expect) > RECOMPUTE_MW:
            problems.append(f"{key} {values[key]!r} but the schedules give {expect!r}")

    ref, tol = load_reference(workload)
    if ref is not None:
        problems += _against_reference(values, ref, tol)
    return problems


def rounds_in_traces(out: Path) -> int:
    """Response rounds recorded in traces.csv: one row per round per step,
    plus the row of the starting point."""
    _, rows = read_csv(out / "traces.csv")
    return len(rows) - len({row[0] for row in rows})
