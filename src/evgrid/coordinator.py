"""Broadcast-gather protocol shell and the real-time receding-horizon loop.

The coordinator broadcasts the control signal to every station, gathers one
profile update per station, and repeats until convergence (the scheduler
module owns the math).  A pluggable in-process loopback transport makes the
message exchange explicit and inspectable; a networked transport would slot
in behind the same interface but is not provided.

The horizon loop re-optimizes the full day at every step with the already
committed slots pinned (lower bound = upper bound = committed value) and the
session's total energy target kept on the full horizon.  Pinning past slots
while retaining the full-horizon energy equality is arithmetically the same
as shrinking the remaining demand by the delivered energy: the free slots
must supply exactly the signed remainder, so mid-horizon discharge increases
what is still owed.

The loop's bookkeeping is array-backed.  Every id that can ever be active
(the scenario's sessions and the ``add_session`` events) owns one row, in
sorted id order, of the committed kW, the last profiles and the delivered
kWh.  The window bounds of the active rows are ``(N, T)`` arrays, built
with one broadcast mask and pinned to the committed prefix only when an
event changes the active set or a target.  Every step checks reachability
over all rows at once, commits its block in one array operation and pins
that block into the bounds in place by slice.  Each station task holds row
views of those bounds, and the fixed point still solves one task per
station per round.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fileio
from .fleet import EvSession, FleetError, FleetScenario
from .scheduler import (
    ControlSignal,
    ConvergenceTrace,
    FixedPointResult,
    SchedulerConfig,
    StationTask,
    run_fixed_point,
    solve_task,
)


class CoordinatorError(ValueError):
    pass


class ProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
class Broadcast:
    signal: ControlSignal

    @property
    def iteration(self) -> int:
        return self.signal.iteration


@dataclass(frozen=True)
class ProfileUpdate:
    ev_id: str
    profile_kw: np.ndarray
    iteration: int


@dataclass(frozen=True)
class Converged:
    iteration: int


@dataclass(frozen=True)
class Delivery:
    sender: str
    recipient: str
    message: Broadcast | ProfileUpdate | Converged


class Station:
    """One charging station: holds its task and its latest profile, and
    answers each broadcast with the proximal subproblem solution."""

    def __init__(self, task: StationTask, initial_profile_kw: np.ndarray,
                 config: SchedulerConfig):
        self.task = task
        self.profile_kw = np.array(initial_profile_kw, dtype=float, copy=True)
        self.config = config

    @property
    def ev_id(self) -> str:
        return self.task.ev_id

    def respond(self, message: Broadcast) -> ProfileUpdate:
        self.profile_kw = solve_task(message.signal, self.profile_kw, self.task,
                                     self.config)
        return ProfileUpdate(self.ev_id, self.profile_kw, message.iteration)


class LoopbackTransport:
    """In-process transport with a delivery log.

    ``silent_stations`` lists stations that receive broadcasts but never
    reply, for fault-injection tests.
    """

    def __init__(self, silent_stations: frozenset[str] | set[str] = frozenset()):
        self.silent_stations = frozenset(silent_stations)
        self.log: list[Delivery] = []

    def broadcast(self, message: Broadcast, stations: list[Station]) -> list[ProfileUpdate]:
        self.log.append(Delivery("coordinator", "*", message))
        replies: list[ProfileUpdate] = []
        for station in stations:
            if station.ev_id in self.silent_stations:
                continue
            reply = station.respond(message)
            self.log.append(Delivery(station.ev_id, "coordinator", reply))
            replies.append(reply)
        return replies

    def announce(self, message: Converged) -> None:
        self.log.append(Delivery("coordinator", "*", message))

    def serialize(self) -> list[dict]:
        rows = []
        for entry in self.log:
            msg = entry.message
            row = {
                "sender": entry.sender,
                "recipient": entry.recipient,
                "kind": type(msg).__name__.lower(),
                "iteration": msg.iteration,
            }
            if isinstance(msg, ProfileUpdate):
                row["ev_id"] = msg.ev_id
            rows.append(row)
        return rows


def transport_respond(stations: list[Station], transport: LoopbackTransport):
    """Respond hook for the fixed-point loop that routes every exchange
    through the transport and gathers replies in fixed station order."""

    def respond(signal: ControlSignal, profiles_kw: np.ndarray) -> np.ndarray:
        replies = transport.broadcast(Broadcast(signal), stations)
        by_id = {reply.ev_id: reply.profile_kw for reply in replies}
        missing = [st.ev_id for st in stations if st.ev_id not in by_id]
        if missing:
            raise ProtocolError(
                "no profile update from stations: " + ", ".join(missing)
            )
        out = np.empty_like(profiles_kw)
        for k, station in enumerate(stations):
            out[k] = by_id[station.ev_id]
        return out

    return respond


def run_with_transport(config: SchedulerConfig, base_load_mw: np.ndarray,
                       tasks: list[StationTask], transport: LoopbackTransport,
                       initial_profiles: np.ndarray | None = None,
                       initial_signal: ControlSignal | None = None) -> FixedPointResult:
    """One convergence run with every exchange logged on the transport.

    With zero stations the coordinator still emits one Broadcast (the scaled
    base load) and then Converged, so the degenerate message pattern is
    visible in the log.
    """
    if not tasks:
        signal = ControlSignal(values=base_load_mw / config.lam, iteration=0)
        transport.log.append(Delivery("coordinator", "*", Broadcast(signal)))
        result = run_fixed_point(config, base_load_mw, tasks, initial_profiles)
        transport.announce(Converged(result.trace.iterations))
        return result

    if initial_profiles is None:
        initial_profiles = np.zeros((len(tasks), config.slots))
    stations = [
        Station(task, initial_profiles[k], config) for k, task in enumerate(tasks)
    ]
    result = run_fixed_point(
        config, base_load_mw, tasks, initial_profiles, initial_signal,
        respond=transport_respond(stations, transport),
    )
    transport.announce(Converged(result.trace.iterations))
    return result


EVENT_KINDS = ("add_session", "update_energy", "remove_session")

EVENT_COLUMNS = ["slot", "kind", "ev_id", "bus_id", "t_start", "t_end",
                 "energy_kwh", "p_max_kw", "d_max_kw"]


@dataclass(frozen=True)
class ScriptedEvent:
    """One deterministic prediction update, applied at the first re-planning
    step at or after ``slot`` (already-committed slots stay committed)."""

    slot: int
    kind: str
    ev_id: str
    bus_id: int | None = None
    t_start: int | None = None
    t_end: int | None = None
    energy_kwh: float | None = None
    p_max_kw: float | None = None
    d_max_kw: float | None = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise CoordinatorError(f"unknown event kind {self.kind!r}")
        if self.slot < 0:
            raise CoordinatorError(f"event slot {self.slot} is negative")
        if not fileio.is_plain_cell(self.ev_id):
            raise CoordinatorError(f"ev_id {self.ev_id!r} contains a comma or line break")
        if self.kind == "add_session":
            needed = (self.bus_id, self.t_start, self.t_end, self.energy_kwh,
                      self.p_max_kw, self.d_max_kw)
            if any(v is None for v in needed):
                raise CoordinatorError(
                    f"add_session event for {self.ev_id!r} is missing fields"
                )
        if self.kind == "update_energy" and self.energy_kwh is None:
            raise CoordinatorError(
                f"update_energy event for {self.ev_id!r} needs energy_kwh"
            )


def write_events(path, events: list[ScriptedEvent]) -> None:
    rows = []
    for ev in events:
        rows.append([
            ev.slot, ev.kind, ev.ev_id,
            "" if ev.bus_id is None else ev.bus_id,
            "" if ev.t_start is None else ev.t_start,
            "" if ev.t_end is None else ev.t_end,
            "" if ev.energy_kwh is None else ev.energy_kwh,
            "" if ev.p_max_kw is None else ev.p_max_kw,
            "" if ev.d_max_kw is None else ev.d_max_kw,
        ])
    fileio.write_rows(path, EVENT_COLUMNS, rows)


def read_events(path) -> list[ScriptedEvent]:
    events = []
    for row in fileio.read_rows(path, EVENT_COLUMNS):
        slot, kind, ev_id, bus, t0, t1, energy, pmax, dmax = row
        events.append(ScriptedEvent(
            slot=int(slot),
            kind=kind,
            ev_id=ev_id,
            bus_id=int(bus) if bus else None,
            t_start=int(t0) if t0 else None,
            t_end=int(t1) if t1 else None,
            energy_kwh=float(energy) if energy else None,
            p_max_kw=float(pmax) if pmax else None,
            d_max_kw=float(dmax) if dmax else None,
        ))
    return events


@dataclass
class HorizonState:
    """Mutable state of the receding-horizon loop.

    ``sessions`` and ``removed`` follow the events as they are applied.  The
    committed kW and the delivered kWh are kept in row-indexed arrays while
    the loop runs (one row per id that can ever be active, see the module
    docstring); when it ends, ``committed_kw`` maps every id that was ever
    active to its row view of the committed array and ``delivered_kwh`` to
    its delivered energy.
    """

    tau: int
    committed_kw: dict[str, np.ndarray]
    delivered_kwh: dict[str, float]
    sessions: dict[str, EvSession]
    removed: set[str]


@dataclass(frozen=True)
class HorizonResult:
    ev_ids: tuple[str, ...]              # every station ever active, sorted
    bus_ids: dict[str, int]
    committed_kw: np.ndarray             # rows follow ev_ids
    step_traces: tuple[ConvergenceTrace, ...]
    flags: tuple[str, ...]
    state: HorizonState


def schedule_events(events: list[ScriptedEvent], session_ids, slots: int,
                    steps: int) -> dict[int, list[ScriptedEvent]]:
    """Group ``events`` by the re-planning step that applies them, after
    checking the step count, every event slot and every added session's
    window and rate bounds, and replaying the ev_ids in that order:
    ``update_energy`` and ``remove_session`` need a live id, and
    ``add_session`` a new one (a removed id is not reused)."""
    if steps < 1 or steps > slots:
        raise CoordinatorError(f"steps {steps} must be in 1..{slots}")
    sps = slots // steps
    by_step: dict[int, list[ScriptedEvent]] = {}
    for event in events:
        if not 0 <= event.slot < slots:
            raise CoordinatorError(f"event slot {event.slot} outside 0..{slots - 1}")
        if event.kind == "add_session":
            if not 0 <= event.t_start < event.t_end <= slots:
                raise CoordinatorError(
                    f"event at slot {event.slot}: window [{event.t_start}, {event.t_end}) "
                    f"of {event.ev_id!r} outside horizon of {slots} slots")
            try:
                _added_session(event).validate_rates()
            except FleetError as exc:
                raise CoordinatorError(f"event at slot {event.slot}: {exc}") from None
        # an event lands at the first re-planning instant at or after its
        # slot, so slots committed earlier are never re-opened; events past
        # the final re-plan fold into the last step
        step = min(-(-event.slot // sps), steps - 1)
        by_step.setdefault(step, []).append(event)

    live = set(session_ids)
    used = set(live)
    for step in sorted(by_step):
        for event in by_step[step]:
            if event.kind == "add_session":
                if event.ev_id in used:
                    raise CoordinatorError(
                        f"event at slot {event.slot}: ev_id {event.ev_id!r} already used")
                live.add(event.ev_id)
                used.add(event.ev_id)
            elif event.ev_id not in live:
                raise CoordinatorError(
                    f"event at slot {event.slot}: unknown ev_id {event.ev_id!r}")
            elif event.kind == "remove_session":
                live.remove(event.ev_id)
    return by_step


def _added_session(event: ScriptedEvent) -> EvSession:
    return EvSession(
        ev_id=event.ev_id, bus_id=event.bus_id, t_start=event.t_start,
        t_end=event.t_end, energy_kwh=event.energy_kwh,
        p_max_kw=event.p_max_kw, d_max_kw=event.d_max_kw,
    )


def _apply_event(event: ScriptedEvent, state: HorizonState, tau: int,
                 flags: list[str], delivered_kwh: float) -> None:
    """Apply one event that ``schedule_events`` has checked;
    ``delivered_kwh`` is what the event's session has delivered so far."""
    if event.kind == "add_session":
        state.sessions[event.ev_id] = _added_session(event)
    elif event.kind == "update_energy":
        state.sessions[event.ev_id] = replace(
            state.sessions[event.ev_id], energy_kwh=event.energy_kwh
        )
    else:
        session = state.sessions.pop(event.ev_id)
        state.removed.add(event.ev_id)
        flags.append(
            f"step {tau}: session {event.ev_id} removed before completion; "
            f"delivered {delivered_kwh!r} of {session.energy_kwh!r} kWh"
        )


def run_receding_horizon(config: SchedulerConfig, base_load_mw: np.ndarray,
                         scenario: FleetScenario, steps: int,
                         events: list[ScriptedEvent] = (),
                         transport: LoopbackTransport | None = None) -> HorizonResult:
    """Commit the schedule step by step, re-optimizing as predictions change.

    Each step pins all previously committed slots, applies this step's
    scripted events, and re-runs the fixed-point iteration.  When nothing
    changed, the carried control signal lets the run converge immediately
    with profiles untouched, so an event-free horizon reproduces the one-shot
    solution slot for slot.
    """
    t = config.slots
    dt = config.slot_hours
    if scenario.slots_per_horizon != t or scenario.slot_hours != dt:
        raise CoordinatorError("scenario slot grid differs from scheduler config")
    events_by_step = schedule_events(events, [s.ev_id for s in scenario.sessions],
                                     t, steps)
    sps = t // steps

    state = HorizonState(
        tau=0,
        committed_kw={},
        delivered_kwh={},
        sessions={s.ev_id: s for s in scenario.sessions},
        removed=set(),
    )
    # one row per id that can ever be active, in sorted order, so the rows
    # of any active set are ascending and match its sorted ids
    ids = sorted(set(state.sessions)
                 | {e.ev_id for e in events if e.kind == "add_session"})
    row_of = {ev_id: k for k, ev_id in enumerate(ids)}
    committed = np.zeros((len(ids), t))
    profiles = np.zeros((len(ids), t))
    delivered = np.zeros(len(ids))
    ever_active = np.zeros(len(ids), dtype=bool)
    slot_index = np.arange(t)

    bus_ids: dict[str, int] = {}
    carried: ControlSignal | None = None
    step_traces: list[ConvergenceTrace] = []
    flags: list[str] = []

    for tau in range(steps):
        state.tau = tau
        slot0 = tau * sps
        slot1 = (tau + 1) * sps if tau < steps - 1 else t

        step_events = events_by_step.get(tau, [])
        for event in step_events:
            _apply_event(event, state, tau, flags,
                         float(delivered[row_of[event.ev_id]]))
        changed = bool(step_events)

        if tau == 0 or changed:
            active = [state.sessions[ev_id] for ev_id in sorted(state.sessions)]
            rows = np.array([row_of[s.ev_id] for s in active], dtype=np.intp)
            ever_active[rows] = True
            bus_ids.update((s.ev_id, s.bus_id) for s in active)
            t_start, t_end, d_max, p_max, energy = np.array(
                [(s.t_start, s.t_end, s.d_max_kw, s.p_max_kw, s.energy_kwh)
                 for s in active], dtype=float).reshape(-1, 5).T
            window = (slot_index >= t_start[:, None]) & (slot_index < t_end[:, None])
            lo = np.where(window, d_max[:, None], 0.0)
            hi = np.where(window, p_max[:, None], 0.0)
            lo[:, :slot0] = hi[:, :slot0] = committed[rows, :slot0]
            # the tasks see every later pin through their row views
            tasks = [StationTask(s.ev_id, s.bus_id, lo[k], hi[k], s.energy_kwh)
                     for k, s in enumerate(active)]
            clamped = np.zeros(len(active), dtype=bool)

        # a task gets a new target only while it is clamped, and once more
        # when it stops being clamped
        lo_kwh = lo.sum(axis=1) * dt
        hi_kwh = hi.sum(axis=1) * dt
        unreachable = (energy < lo_kwh - 1e-9) | (energy > hi_kwh + 1e-9)
        for k in np.flatnonzero(unreachable | clamped):
            session = active[k]
            target = session.energy_kwh
            if unreachable[k]:
                reachable = float(lo_kwh[k]), float(hi_kwh[k])
                target = min(max(target, reachable[0]), reachable[1])
                flags.append(
                    f"step {tau}: session {session.ev_id} energy target "
                    f"{session.energy_kwh!r} kWh outside reachable "
                    f"[{reachable[0]!r}, {reachable[1]!r}]; clamped to {target!r}"
                )
            tasks[k] = StationTask(session.ev_id, session.bus_id, lo[k], hi[k], target)
        clamped = unreachable

        init = profiles[rows]
        initial_signal = carried if not changed else None
        if transport is not None:
            result = run_with_transport(config, base_load_mw, tasks, transport,
                                        init, initial_signal)
        else:
            result = run_fixed_point(config, base_load_mw, tasks, init,
                                     initial_signal)
        if not result.trace.converged:
            flags.append(
                f"step {tau}: fixed point not converged after "
                f"{result.trace.iterations} iterations "
                f"(residual {result.trace.residuals[-1]!r})"
            )
        step_traces.append(result.trace)
        carried = result.signal

        block = result.profiles_kw[:, slot0:slot1]
        profiles[rows] = result.profiles_kw
        committed[rows, slot0:slot1] = block
        delivered[rows] += block.sum(axis=1) * dt
        # pinned from the next step on
        lo[:, slot0:slot1] = hi[:, slot0:slot1] = block

    ev_ids = tuple(ids[k] for k in np.flatnonzero(ever_active))
    state.committed_kw.update((ev_id, committed[row_of[ev_id]]) for ev_id in ev_ids)
    state.delivered_kwh.update(zip(ev_ids, delivered[ever_active].tolist()))
    state.tau = steps
    return HorizonResult(
        ev_ids=ev_ids,
        bus_ids=bus_ids,
        committed_kw=committed[ever_active],
        step_traces=tuple(step_traces),
        flags=tuple(flags),
        state=state,
    )
