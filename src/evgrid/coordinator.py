"""Scripted session events and the real-time receding-horizon loop.

At every re-planning step the coordinator runs the scheduler's
broadcast/gather fixed point over the active stations (the scheduler module
owns the math).  The horizon loop re-optimizes the full day at every step
with the already committed slots pinned (lower bound = upper bound =
committed value) and the session's total energy target kept on the full
horizon.  Pinning past slots while retaining the full-horizon energy
equality is arithmetically the same as shrinking the remaining demand by
the delivered energy: the free slots must supply exactly the signed
remainder, so mid-horizon discharge increases what is still owed.

The slot grid is the scheduler config's, and the sessions come checked on it
(``fleet.check_sessions``).  An event script is a list of ``(slot, ev_id,
change)`` rows, one per line of an events file (``read_events``): ``change``
is the ``EvSession`` that the event adds, the new kWh target it sets, or None
when it removes the session.  ``schedule_events`` checks the script and
replays it once, into each step's session updates; the loop applies those and
never reads an event.  The loop's bookkeeping is array-backed.  Every id that
can ever be active (the sessions and the ids the updates name) owns one row,
in sorted id order, of the committed kW, the last profiles and the delivered
kWh.  The bounds of the active stations are one ``(N, 2, T)`` kW array from
``scheduler.session_bounds``, rebuilt and pinned to the committed prefix only
when an update changes the active set or a target.  Every step checks
reachability over all rows at once and flags the unreachable targets.  The
first step and each step with updates hand the bounds and targets to the
fixed point as they are (an unreachable target gets its nearer bound row
there), and flag a fixed point that did not converge and each of its
diagnostics; any other step keeps its last profiles.  Every step commits its block
in one array operation and pins that block into the bounds in place.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import fileio
from .fleet import ENERGY_TOL_KWH, EvSession
from .scheduler import (
    ConvergenceTrace,
    SchedulerConfig,
    run_fixed_point,
    session_bounds,
)
# unused here; kept because perfbench/traced.py wraps coordinator.solve_task
from .scheduler import solve_task  # noqa: F401


EVENT_COLUMNS = ["slot", "kind", "ev_id", "bus_id", "t_start", "t_end",
                 "energy_kwh", "p_max_kw", "d_max_kw"]
# the cells after ev_id that each kind uses; the others must be empty
_USED = {"add_session": EVENT_COLUMNS[3:], "update_energy": ["energy_kwh"],
         "remove_session": []}

# (slot, ev_id, change): the EvSession an add_session row adds, the energy
# target of an update_energy row, or None for a remove_session row
Event = tuple[int, str, EvSession | float | None]


def _event_row(row: list[str]) -> Event:
    slot, kind, ev_id = int(row[0]), row[1], row[2]
    cells = dict(zip(EVENT_COLUMNS[3:], row[3:]))
    values = {name: parse(cell) if cell else None
              for (name, cell), parse in zip(cells.items(), (int, int, int, float, float, float))}
    if kind not in _USED:
        raise ValueError(f"unknown event kind {kind!r}")
    if slot < 0:
        raise ValueError(f"event slot {slot} is negative")
    for name in ("energy_kwh", "p_max_kw", "d_max_kw"):
        if values[name] is not None and not math.isfinite(values[name]):
            raise ValueError(f"event for {ev_id!r}: {name} {values[name]!r} "
                             "is not finite")
    if kind == "add_session" and None in values.values():
        raise ValueError(f"add_session event for {ev_id!r} is missing fields")
    if kind == "update_energy" and values["energy_kwh"] is None:
        raise ValueError(f"update_energy event for {ev_id!r} needs energy_kwh")
    unused = [name for name, cell in cells.items() if cell and name not in _USED[kind]]
    if unused:
        raise ValueError(f"{kind} event for {ev_id!r}: unused {unused[0]} must be "
                         f"empty, got {cells[unused[0]]!r}")
    if kind == "add_session":
        return slot, ev_id, EvSession(ev_id, **values)
    return slot, ev_id, values["energy_kwh"]


def read_events(path) -> list[Event]:
    """The ``(slot, ev_id, change)`` of every row; a bad row fails at its
    ``path:line``."""
    return fileio.read_rows(path, EVENT_COLUMNS, _event_row)


class HorizonResult(NamedTuple):
    ev_ids: tuple[str, ...]              # every station ever active, sorted
    bus_ids: dict[str, int]
    committed_kw: np.ndarray             # rows follow ev_ids
    step_traces: tuple[ConvergenceTrace, ...]
    flags: tuple[str, ...]


def schedule_events(events: list[Event], sessions, slots: int,
                    steps: int) -> dict[int, list[tuple[str, EvSession | None]]]:
    """Resolve ``events`` into the session updates of each re-planning step,
    for ``steps`` in 1..slots, after checking every event slot and every
    added session's rate box (``EvSession.validate_box``), and replaying the
    events on ``sessions`` in step order: an energy update and a removal
    need a live id, and an added session a new one (a removed id is not
    reused).  Each step's updates follow the script; an update is an ev_id
    and its session as the event leaves it, None once removed."""
    sps = slots // steps
    # every slot and added box is checked before the replay, so that such an
    # error anywhere in the script surfaces before a replay error
    by_step: dict[int, list[Event]] = {}
    for slot, ev_id, change in events:
        if slot >= slots:
            raise ValueError(f"event slot {slot} outside 0..{slots - 1}")
        if isinstance(change, EvSession):
            try:
                change.validate_box(slots)
            except ValueError as exc:
                raise ValueError(f"event at slot {slot}: {exc}") from None
        # an event lands at the first re-planning instant at or after its
        # slot, so slots committed earlier are never re-opened; events past
        # the final re-plan fold into the last step
        step = min(-(-slot // sps), steps - 1)
        by_step.setdefault(step, []).append((slot, ev_id, change))

    live = {s.ev_id: s for s in sessions}
    used = set(live)
    updates: dict[int, list[tuple[str, EvSession | None]]] = {}
    for step in sorted(by_step):
        for slot, ev_id, change in by_step[step]:
            if isinstance(change, EvSession):
                if ev_id in used:
                    raise ValueError(
                        f"event at slot {slot}: ev_id {ev_id!r} already used")
                live[ev_id] = change
                used.add(ev_id)
            elif ev_id not in live:
                raise ValueError(f"event at slot {slot}: unknown ev_id {ev_id!r}")
            elif change is None:
                del live[ev_id]
            else:
                live[ev_id] = live[ev_id]._replace(energy_kwh=change)
            updates.setdefault(step, []).append((ev_id, live.get(ev_id)))
    return updates


def run_receding_horizon(config: SchedulerConfig, base_load_mw: np.ndarray,
                         sessions, steps: int,
                         events_by_step: dict[int, list[tuple[str, EvSession | None]]]
                         | None = None) -> HorizonResult:
    """Commit the schedule step by step, re-optimizing as predictions change.

    Each step pins all previously committed slots, applies this step's
    session updates, and re-runs the fixed-point iteration.  A later step
    with no update runs none: its last profiles still are the fixed point,
    so it commits them with a zero-round trace, and an event-free horizon
    reproduces the one-shot solution slot for slot.  ``steps`` is in
    1..slots and ``events_by_step`` is what ``schedule_events`` returned for
    these sessions and steps.
    """
    t = config.slots
    dt = config.slot_hours
    events_by_step = events_by_step or {}
    sps = t // steps

    live = {s.ev_id: s for s in sessions}
    # one row per id that can ever be active, in sorted order, so the rows
    # of any active set are ascending and match its sorted ids
    ids = sorted(set(live) | {ev_id for updates in events_by_step.values()
                              for ev_id, _ in updates})
    row_by_id = {ev_id: k for k, ev_id in enumerate(ids)}
    committed = np.zeros((len(ids), t))
    profiles = np.zeros((len(ids), t))
    delivered = np.zeros(len(ids))
    ever_active = np.zeros(len(ids), dtype=bool)

    bus_ids: dict[str, int] = {}
    step_traces: list[ConvergenceTrace] = []
    flags: list[str] = []

    for tau in range(steps):
        slot0 = tau * sps
        slot1 = (tau + 1) * sps if tau < steps - 1 else t

        updates = events_by_step.get(tau, [])
        for ev_id, session in updates:
            if session is None:
                session = live.pop(ev_id)
                flags.append(f"step {tau}: session {ev_id} removed before completion; "
                             f"delivered {float(delivered[row_by_id[ev_id]])!r} of "
                             f"{session.energy_kwh!r} kWh")
            else:
                live[ev_id] = session
        solve = tau == 0 or bool(updates)

        if solve:
            active_ids = sorted(live)
            active = [live[ev_id] for ev_id in active_ids]
            rows = np.array([row_by_id[ev_id] for ev_id in active_ids], dtype=np.intp)
            ever_active[rows] = True
            bus_ids.update((s.ev_id, s.bus_id) for s in active)
            energy = np.array([s.energy_kwh for s in active], dtype=float)
            bounds = session_bounds(active, t)
            bounds[:, :, :slot0] = committed[rows, None, :slot0]

        # a target the pinned bounds can no longer reach is flagged at every
        # step it stays so; the fixed point gives it the nearer bound row
        lo_kwh, hi_kwh = bounds.sum(axis=2).T * dt
        unreachable = (energy < lo_kwh - ENERGY_TOL_KWH) | (energy > hi_kwh + ENERGY_TOL_KWH)
        for k in np.flatnonzero(unreachable):
            flags.append(
                f"step {tau}: session {active_ids[k]} energy target "
                f"{active[k].energy_kwh!r} kWh outside reachable "
                f"[{float(lo_kwh[k])!r}, {float(hi_kwh[k])!r}]; "
                f"clamped to {float(np.clip(energy[k], lo_kwh[k], hi_kwh[k]))!r}"
            )

        if solve:
            result = run_fixed_point(config, base_load_mw, bounds, energy, profiles[rows])
            trace = result.trace
            if not trace.converged:
                flags.append(
                    f"step {tau}: fixed point not converged after "
                    f"{trace.iterations} iterations (residual {trace.residuals[-1]!r})"
                )
            flags.extend(f"step {tau}: {line}" for line in trace.diagnostics)
            profiles[rows] = result.profiles_kw
        else:
            # nothing changed: the last profiles, and their signal, still stand
            trace = ConvergenceTrace((math.nan if rows.size == 0 else 0.0,),
                                     step_traces[-1].objectives[-1:], 0, True)
        step_traces.append(trace)

        block = profiles[rows, slot0:slot1]
        committed[rows, slot0:slot1] = block
        delivered[rows] += block.sum(axis=1) * dt
        # pinned from the next step on
        bounds[:, :, slot0:slot1] = block[:, None]

    return HorizonResult(
        ev_ids=tuple(ids[k] for k in np.flatnonzero(ever_active)),
        bus_ids=bus_ids,
        committed_kw=committed[ever_active],
        step_traces=tuple(step_traces),
        flags=tuple(flags),
    )
