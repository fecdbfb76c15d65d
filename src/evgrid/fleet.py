"""EV session model, synthetic fleet generation, and the uncoordinated baseline.

Charging rates are kW at the session plug (positive = charging, negative =
V2G discharge); energies are kWh.  Slot width and horizon length come from
the scenario so sessions themselves stay unit-light.  The grid side works in
MW; ``KW_PER_MW`` is the one conversion factor between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fileio


KW_PER_MW = 1000.0


class FleetError(ValueError):
    pass


@dataclass(frozen=True)
class EvSession:
    """One EV's predicted availability window, demand, and rate bounds."""

    ev_id: str
    bus_id: int
    t_start: int              # predicted plug-in slot
    t_end: int                # predicted departure slot, exclusive
    energy_kwh: float         # predicted net demand over the window
    p_max_kw: float           # max charge rate, >= 0
    d_max_kw: float           # max discharge rate, <= 0

    def __post_init__(self):
        if not fileio.is_plain_cell(self.ev_id):
            raise FleetError(f"ev_id {self.ev_id!r} contains a comma or line break")

    @property
    def window_slots(self) -> int:
        return self.t_end - self.t_start

    def energy_bounds_kwh(self, slot_hours: float) -> tuple[float, float]:
        w = self.window_slots * slot_hours
        return self.d_max_kw * w, self.p_max_kw * w

    def validate(self, slots: int, slot_hours: float) -> None:
        if not (0 <= self.t_start < self.t_end <= slots):
            raise FleetError(
                f"session {self.ev_id}: window [{self.t_start}, {self.t_end}) "
                f"outside horizon of {slots} slots"
            )
        self.validate_rates()
        lo, hi = self.energy_bounds_kwh(slot_hours)
        if not (lo - 1e-9 <= self.energy_kwh <= hi + 1e-9):
            raise FleetError(
                f"session {self.ev_id}: energy {self.energy_kwh} kWh outside "
                f"feasible interval [{lo}, {hi}] kWh"
            )

    def validate_rates(self) -> None:
        if not (math.isfinite(self.p_max_kw) and math.isfinite(self.d_max_kw)):
            raise FleetError(
                f"session {self.ev_id}: rate bounds must be finite, "
                f"got [{self.d_max_kw}, {self.p_max_kw}]"
            )
        if self.p_max_kw < 0 or self.d_max_kw > 0:
            raise FleetError(
                f"session {self.ev_id}: rate bounds must satisfy "
                f"d_max <= 0 <= p_max, got [{self.d_max_kw}, {self.p_max_kw}]"
            )


@dataclass(frozen=True)
class FleetScenario:
    sessions: tuple[EvSession, ...]
    slots_per_horizon: int
    slot_hours: float
    per_bus_counts: dict[int, int] = field(init=False)   # derived from sessions

    def __post_init__(self):
        ids = [s.ev_id for s in self.sessions]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise FleetError(f"duplicate ev_id(s) in scenario: {dupes}")
        counts: dict[int, int] = {}
        for s in self.sessions:
            s.validate(self.slots_per_horizon, self.slot_hours)
            counts[s.bus_id] = counts.get(s.bus_id, 0) + 1
        object.__setattr__(self, "per_bus_counts", counts)


# --- synthetic fleet generation ----------------------------------------------

@dataclass(frozen=True)
class FleetSpec:
    """Distribution parameters for deterministic fleet generation."""

    counts: dict[int, int]            # bus id -> number of sessions
    slots: int
    slot_hours: float
    arrival_mean_slot: float
    arrival_std_slots: float
    duration_mean_slots: float
    duration_std_slots: float
    energy_kwh_range: tuple[float, float]
    p_max_kw: float
    d_max_kw: float

    def validate(self) -> None:
        if any(c < 0 for c in self.counts.values()):
            raise FleetError(f"negative session count in {self.counts}")
        lo, hi = self.energy_kwh_range
        if not (0.0 <= lo <= hi):
            raise FleetError(f"energy range [{lo}, {hi}] must satisfy 0 <= lo <= hi")
        if self.p_max_kw < 0 or self.d_max_kw > 0:
            raise FleetError("rates must satisfy d_max <= 0 <= p_max")
        if lo > 0 and self.p_max_kw == 0:
            raise FleetError("positive energy demanded but p_max is zero")
        if self.duration_mean_slots < 1 or self.slots < 2:
            raise FleetError("horizon/duration too short to place sessions")


def generate_fleet(seed: int, spec: FleetSpec) -> FleetScenario:
    """Deterministic synthetic fleet; identical (seed, spec) give identical output."""
    spec.validate()
    rng = np.random.default_rng(seed)
    sessions = []
    for bus in sorted(spec.counts):
        for n in range(spec.counts[bus]):
            start = int(round(rng.normal(spec.arrival_mean_slot, spec.arrival_std_slots)))
            duration = int(round(rng.normal(spec.duration_mean_slots, spec.duration_std_slots)))
            start = min(max(start, 0), spec.slots - 2)
            end = min(max(start + max(duration, 1), start + 1), spec.slots)
            energy = float(rng.uniform(*spec.energy_kwh_range))
            cap = spec.p_max_kw * (end - start) * spec.slot_hours
            energy = min(max(energy, 0.0), cap)
            sessions.append(
                EvSession(
                    ev_id=f"b{bus}e{n:04d}",
                    bus_id=bus,
                    t_start=start,
                    t_end=end,
                    energy_kwh=energy,
                    p_max_kw=spec.p_max_kw,
                    d_max_kw=spec.d_max_kw,
                )
            )
    return FleetScenario(tuple(sessions), spec.slots, spec.slot_hours)


# --- uncoordinated baseline ----------------------------------------------

def uncoordinated_profile(session: EvSession, slots: int, slot_hours: float) -> np.ndarray:
    """Plug-in-and-charge-at-full-rate baseline; no V2G.

    Charges at p_max from arrival, with a fractional final slot so the
    delivered energy matches the demand exactly.
    """
    if session.energy_kwh < 0:
        raise FleetError(
            f"session {session.ev_id}: baseline undefined for net-discharge "
            f"energy {session.energy_kwh} kWh"
        )
    session.validate(slots, slot_hours)
    profile = np.zeros(slots)
    remaining = session.energy_kwh
    for t in range(session.t_start, session.t_end):
        if remaining <= 0.0:
            break
        p = min(session.p_max_kw, remaining / slot_hours)
        profile[t] = p
        remaining -= p * slot_hours
    return profile


# --- file formats -------------------------------------------------------------

_SESSION_HEADER = ["ev_id", "bus_id", "t_start", "t_end", "energy_kwh", "p_max_kw", "d_max_kw"]


def write_sessions(path, sessions) -> None:
    fileio.write_rows(
        path,
        _SESSION_HEADER,
        ([s.ev_id, s.bus_id, s.t_start, s.t_end, s.energy_kwh, s.p_max_kw, s.d_max_kw]
         for s in sessions),
    )


def read_sessions(path) -> list[EvSession]:
    return fileio.read_rows(path, _SESSION_HEADER, lambda r: EvSession(
        ev_id=r[0],
        bus_id=int(r[1]),
        t_start=int(r[2]),
        t_end=int(r[3]),
        energy_kwh=float(r[4]),
        p_max_kw=float(r[5]),
        d_max_kw=float(r[6]),
    ))
