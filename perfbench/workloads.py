"""Workload inputs and command lines for the evgrid benchmark.

Every generated input is a pure function of the benchmark seed and of two
files the program ships (the desk base load and the WSCC-9 case).  The
generator deliberately shares no code with ``evgrid`` so that a change to
the program can never change what the benchmark feeds it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

DATA = Path("src") / "evgrid" / "data"
DESK_CONFIG = DATA / "desk" / "config.json"
DESK_BASE = DATA / "desk" / "base_load.csv"
CASE = DATA / "wscc9.case"

WORKLOADS = ("desk", "replan", "compare-20k")

# Sizes of the generated workloads.  ``tiny`` keeps every code path of the
# full size but finishes in seconds; the harness self-check uses it.
SIZES = {
    "full": {"replan_per_bus": 50, "replan_events": (15, 3, 2), "compare_n": 20_000},
    "tiny": {"replan_per_bus": 8, "replan_events": (6, 2, 2), "compare_n": 300},
}

SESSION_HEADER = ["ev_id", "bus_id", "t_start", "t_end", "energy_kwh",
                  "p_max_kw", "d_max_kw"]
EVENT_HEADER = ["slot", "kind", "ev_id", "bus_id", "t_start", "t_end",
                "energy_kwh", "p_max_kw", "d_max_kw"]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: list[str]          # evgrid arguments, without -o
    sizes: dict              # N, T, steps, events, input_bytes
    slot_hours: float
    base_load: Path          # base load CSV the program reads
    sessions: list | None    # (ev_id, bus, t_start, t_end, energy, p_max, d_max), simulate only
    events: list | None      # event rows as written, simulate only
    expected_peaks: tuple[float, float] | None   # compare only: (before, after)
    reference_key: str | None  # entry in reference.json; None for tiny inputs


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln]


def read_base(path: Path) -> tuple[list[int], np.ndarray]:
    """Base load as (bus ids, MW array of shape (buses, slots))."""
    _, rows = read_csv(path)
    buses = sorted({int(r[1]) for r in rows})
    slots = 1 + max(int(r[0]) for r in rows)
    mw = np.zeros((len(buses), slots))
    for slot, bus, value in rows:
        mw[buses.index(int(bus)), int(slot)] = float(value)
    return buses, mw


def full_rate_profile(t_start: int, t_end: int, energy: float, p_max: float,
                      slots: int, dt: float) -> np.ndarray:
    """Charge at p_max from arrival, fractional last slot (the uncoordinated
    baseline the program also uses)."""
    profile = np.zeros(slots)
    remaining = energy
    for t in range(t_start, t_end):
        if remaining <= 0.0:
            break
        p = min(p_max, remaining / dt)
        profile[t] = p
        remaining -= p * dt
    return profile


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """One point in each of the n equal strata of (0, 1), in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _desk(root: Path, work: Path, seed: int, size: str) -> Workload:
    config = json.loads((root / DESK_CONFIG).read_text())
    _, rows = read_csv(root / DATA / "desk" / "sessions.csv")
    sessions = [(r[0], int(r[1]), int(r[2]), int(r[3]), float(r[4]),
                 float(r[5]), float(r[6])) for r in rows]
    _, events = read_csv(root / DATA / "desk" / "events.csv")
    paths = [DESK_CONFIG, DESK_BASE, DATA / "desk" / "sessions.csv",
             DATA / "desk" / "events.csv", CASE]
    sizes = {"N": len(sessions), "T": config["scheduler"]["slots"],
             "steps": config["horizon_steps"], "events": len(events),
             "input_bytes": sum((root / p).stat().st_size for p in paths)}
    return Workload("desk", ["simulate", "-c", str(DESK_CONFIG)], sizes,
                    config["scheduler"]["slot_hours"], root / DESK_BASE,
                    sessions, events, None, "desk")


def _replan(root: Path, work: Path, seed: int, size: str) -> Workload:
    """Desk fleet rescaled to 288 five-minute slots, re-planned at 96 steps
    with scripted prediction updates spread over the day."""
    rng = np.random.default_rng([seed, 1])
    slots, dt, steps = 288, 1.0 / 12.0, 96
    sps = slots // steps
    p_max, d_max = 200.0, -200.0
    per_bus = SIZES[size]["replan_per_bus"]

    # Arrival, stay and energy are drawn one per stratum of their
    # distributions, in seed-dependent order, so that the fleet (and with it
    # the run's work and its coordinated peak) varies little from seed to seed.
    sessions = []
    for bus in (5, 7, 9):
        arrivals = [NormalDist(42.0, 21.0).inv_cdf(u) for u in _strata(rng, per_bus)]
        stays = [NormalDist(228.0, 30.0).inv_cdf(u) for u in _strata(rng, per_bus)]
        energies = 100.0 + 100.0 * _strata(rng, per_bus)
        for n in range(per_bus):
            start = int(round(arrivals[n]))
            duration = int(round(stays[n]))
            start = min(max(start, 0), slots - 2)
            end = min(max(start + max(duration, 1), start + 1), slots)
            energy = min(float(energies[n]), p_max * (end - start) * dt)
            sessions.append((f"b{bus}e{n:04d}", bus, start, end, energy, p_max, d_max))

    # One event per stratum of the day, with the kinds interleaved at fixed
    # positions, so that the number of re-planned steps (and with it the
    # run's work) varies little from seed to seed.
    n_update, n_add, n_remove = SIZES[size]["replan_events"]
    n_events = n_update + n_add + n_remove
    kinds = ["update_energy"] * n_events
    for j in range(n_add):
        kinds[(2 * j + 1) * n_events // (2 * n_add)] = "add_session"
    for j in range(n_remove):
        kinds[(2 * j + 1) * n_events // (2 * n_remove) - 1] = "remove_session"
    width = (slots - 2 * sps) / n_events
    event_slots = [sps + int((k + rng.random()) * width) for k in range(n_events)]
    live = {s[0]: s for s in sessions}
    events = []
    for k, (kind, slot) in enumerate(zip(kinds, event_slots)):
        slot = int(slot)
        replan_slot = min(-(-slot // sps), steps - 1) * sps
        ids = sorted(live)
        if kind == "add_session":
            t0 = min(replan_slot + int(rng.integers(0, 7)), slots - 12)
            t1 = min(t0 + int(rng.integers(60, 181)), slots)
            bus = int(rng.choice([5, 7, 9]))
            energy = min(float(rng.uniform(50.0, 150.0)), 0.9 * p_max * (t1 - t0) * dt)
            ev_id = f"late{k:02d}"
            live[ev_id] = (ev_id, bus, t0, t1, energy, p_max, d_max)
            events.append([slot, kind, ev_id, bus, t0, t1, energy, p_max, d_max])
        elif kind == "update_energy":
            ev_id = ids[int(rng.integers(len(ids)))]
            _, bus, t0, t1, energy, pm, dm = live[ev_id]
            energy = min(energy * float(rng.uniform(0.8, 1.2)), pm * (t1 - t0) * dt)
            live[ev_id] = (ev_id, bus, t0, t1, energy, pm, dm)
            events.append([slot, kind, ev_id, "", "", "", energy, "", ""])
        else:
            ev_id = ids[int(rng.integers(len(ids)))]
            del live[ev_id]
            events.append([slot, kind, ev_id, "", "", "", "", "", ""])

    buses, desk_mw = read_base(root / DESK_BASE)
    x = (np.arange(slots) + 0.5) * desk_mw.shape[1] / slots - 0.5
    base_rows = [[t, bus, float(np.interp(x[t], np.arange(desk_mw.shape[1]), desk_mw[k]))]
                 for t in range(slots) for k, bus in enumerate(buses)]

    work.mkdir(parents=True, exist_ok=True)
    _write_csv(work / "sessions.csv", SESSION_HEADER, sessions)
    _write_csv(work / "events.csv", EVENT_HEADER, events)
    _write_csv(work / "base_load.csv", ["slot", "bus_id", "mw"], base_rows)
    desk = json.loads((root / DESK_CONFIG).read_text())
    config = {
        "case": str((root / CASE).resolve()),
        "base_load": "base_load.csv",
        "sessions": "sessions.csv",
        "events": "events.csv",
        "seed": seed,
        "scheduler": dict(desk["scheduler"], slots=slots, slot_hours=dt),
        "horizon_steps": steps,
        "power_flow": desk["power_flow"],
        "reactive": desk["reactive"],
        "pv_mw": desk["pv_mw"],
    }
    (work / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    sizes = {"N": len(sessions), "T": slots, "steps": steps, "events": len(events),
             "input_bytes": sum((work / f).stat().st_size for f in
                                ("sessions.csv", "events.csv", "base_load.csv",
                                 "config.json")) + (root / CASE).stat().st_size}
    return Workload("replan", ["simulate", "-c", str(work / "config.json")],
                    sizes, dt, work / "base_load.csv", sessions, events, None,
                    f"replan/{seed}" if size == "full" else None)


def _compare(root: Path, work: Path, seed: int, size: str) -> Workload:
    """Two large schedule files at T=96: plug-in-and-charge versus a greedy
    valley fill of the same sessions, 3.6 kW chargers needing 5-20 kWh."""
    rng = np.random.default_rng([seed, 2])
    slots, dt, p_max = 96, 0.25, 3.6
    n = SIZES[size]["compare_n"]
    buses, base_mw = read_base(root / DESK_BASE)
    evening = rng.random(n) < 0.5
    arrival = np.where(evening, rng.normal(70.0, 6.0, n), rng.normal(18.0, 4.0, n))
    duration = rng.normal(32.0, 8.0, n)
    energy = rng.uniform(5.0, 20.0, n)
    bus_of = rng.choice(buses, size=n, p=[0.42, 0.08, 0.50])

    total = base_mw.sum(axis=0).copy()
    before = total.copy()
    ids, bus_ids, unc, coord = [], [], np.zeros((n, slots)), np.zeros((n, slots))
    for k in range(n):
        t0 = min(max(int(round(arrival[k])), 0), slots - 2)
        t1 = min(max(t0 + int(round(duration[k])), t0 + 1), slots)
        e = min(float(energy[k]), p_max * (t1 - t0) * dt)
        unc[k] = full_rate_profile(t0, t1, e, p_max, slots, dt)
        # fill the currently lowest slots of the window at full rate
        remaining = e
        for t in t0 + np.argsort(total[t0:t1], kind="stable"):
            if remaining <= 0.0:
                break
            p = min(p_max, remaining / dt)
            coord[k, t] = p
            remaining -= p * dt
        total += coord[k] / 1000.0
        before += unc[k] / 1000.0
        ids.append(f"c{k:05d}")
        bus_ids.append(int(bus_of[k]))

    work.mkdir(parents=True, exist_ok=True)
    header = ["ev_id", "bus_id"] + [f"kw_{t}" for t in range(slots)]
    _write_csv(work / "uncoordinated.csv", header,
               ([ids[k], bus_ids[k]] + list(unc[k]) for k in range(n)))
    _write_csv(work / "coordinated.csv", header,
               ([ids[k], bus_ids[k]] + list(coord[k]) for k in range(n)))
    desk = json.loads((root / DESK_CONFIG).read_text())
    config = {
        "case": str((root / CASE).resolve()),
        "base_load": str((root / DESK_BASE).resolve()),
        "uncoordinated": "uncoordinated.csv",
        "coordinated": "coordinated.csv",
        "power_flow": desk["power_flow"],
        "reactive": desk["reactive"],
        "pv_mw": desk["pv_mw"],
    }
    (work / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    sizes = {"N": n, "T": slots, "steps": 0, "events": 0,
             "input_bytes": sum((work / f).stat().st_size for f in
                                ("uncoordinated.csv", "coordinated.csv", "config.json"))
             + (root / CASE).stat().st_size + (root / DESK_BASE).stat().st_size}
    return Workload("compare-20k", ["compare", "-c", str(work / "config.json")],
                    sizes, dt, root / DESK_BASE, None, None,
                    (float(before.max()), float(total.max())),
                    f"compare-20k/{seed}" if size == "full" else None)


def build(name: str, root: Path, work: Path, seed: int, size: str = "full") -> Workload:
    """Write the workload's inputs under ``work`` and describe its run."""
    makers = {"desk": _desk, "replan": _replan, "compare-20k": _compare}
    return makers[name](root, work, seed, size)
