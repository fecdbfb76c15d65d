"""EV session model, synthetic fleet generation, and the uncoordinated baseline.

Charging rates are kW at the session plug (positive = charging, negative =
V2G discharge); energies are kWh.  The slot grid is the scheduler config's,
so sessions stay unit-light.  The grid side works in MW; ``KW_PER_MW`` is
the one conversion factor between the two.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import fileio


KW_PER_MW = 1000.0
# an energy target this close outside a session's reachable interval counts as reachable
ENERGY_TOL_KWH = 1e-9


class EvSession(NamedTuple):
    """One EV's predicted availability window, demand, and rate bounds."""

    ev_id: str
    bus_id: int
    t_start: int              # predicted plug-in slot
    t_end: int                # predicted departure slot, exclusive
    energy_kwh: float         # predicted net demand over the window
    p_max_kw: float           # max charge rate, >= 0
    d_max_kw: float           # max discharge rate, <= 0

    def validate(self, slots: int, slot_hours: float) -> None:
        """The rate box (``validate_box``) and an energy target it can reach."""
        self.validate_box(slots)
        # associated as generate_fleet's energy cap, so the cap it draws passes
        span = self.t_end - self.t_start
        lo, hi = self.d_max_kw * span * slot_hours, self.p_max_kw * span * slot_hours
        if not (lo - ENERGY_TOL_KWH <= self.energy_kwh <= hi + ENERGY_TOL_KWH):
            raise ValueError(
                f"session {self.ev_id}: energy {self.energy_kwh} kWh outside "
                f"feasible interval [{lo}, {hi}] kWh"
            )

    def validate_box(self, slots: int) -> None:
        """A non-empty window inside ``slots`` and finite rates with
        d_max <= 0 <= p_max."""
        if self.t_start >= self.t_end:
            raise ValueError(f"session {self.ev_id}: window [{self.t_start}, {self.t_end}) "
                             "is empty")
        if self.t_start < 0 or self.t_end > slots:
            raise ValueError(
                f"session {self.ev_id}: window [{self.t_start}, {self.t_end}) "
                f"outside horizon of {slots} slots"
            )
        if not (math.isfinite(self.p_max_kw) and math.isfinite(self.d_max_kw)):
            raise ValueError(
                f"session {self.ev_id}: rate bounds must be finite, "
                f"got [{self.d_max_kw}, {self.p_max_kw}]"
            )
        if self.p_max_kw < 0 or self.d_max_kw > 0:
            raise ValueError(
                f"session {self.ev_id}: rate bounds must satisfy "
                f"d_max <= 0 <= p_max, got [{self.d_max_kw}, {self.p_max_kw}]"
            )


def check_sessions(sessions, slots: int, slot_hours: float) -> tuple[EvSession, ...]:
    """``sessions`` as a tuple, once their ev_ids are checked unique and each
    session is checked (``EvSession.validate``) on the slot grid."""
    sessions = tuple(sessions)
    ids = [s.ev_id for s in sessions]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate ev_id(s) in scenario: {dupes}")
    for s in sessions:
        s.validate(slots, slot_hours)
    return sessions


# --- synthetic fleet generation ----------------------------------------------

class FleetSpec(NamedTuple):
    """Distribution parameters for deterministic fleet generation, checked
    where the config is read: each key by its row of ``cli._RULES``, the
    rules that compare two keys in ``cli._fleet_spec``."""

    counts: dict[int, int]            # bus id -> number of sessions
    arrival_mean_slot: float
    arrival_std_slots: float
    duration_mean_slots: float
    duration_std_slots: float
    energy_kwh_range: tuple[float, float]
    p_max_kw: float
    d_max_kw: float


def generate_fleet(seed: int, spec: FleetSpec, slots: int,
                   slot_hours: float) -> tuple[EvSession, ...]:
    """Deterministic synthetic fleet, valid by construction (``check_sessions``
    accepts it for every rule-valid spec) on a grid of at least 2 slots, as
    the CLI checks; identical arguments give identical output."""
    rng = np.random.default_rng(seed)
    sessions = []
    for bus in sorted(spec.counts):
        for n in range(spec.counts[bus]):
            # each draw is clamped in float before rounding: an infinite one lands on the grid
            start = rng.normal(spec.arrival_mean_slot, spec.arrival_std_slots)
            start = int(round(min(max(start, 0.0), slots - 2)))
            duration = rng.normal(spec.duration_mean_slots, spec.duration_std_slots)
            end = min(start + int(round(min(max(duration, 1.0), slots))), slots)
            energy = float(rng.uniform(*spec.energy_kwh_range))
            cap = spec.p_max_kw * (end - start) * slot_hours
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
    return tuple(sessions)


# --- uncoordinated baseline ----------------------------------------------

def uncoordinated_profile(session: EvSession, slots: int, slot_hours: float) -> np.ndarray:
    """Plug-in-and-charge-at-full-rate baseline; no V2G.

    Charges at p_max from arrival, with a fractional final slot so the
    delivered energy matches the demand exactly.  ``session`` is valid (read
    and checked, or generated; ``simulate`` requires a non-negative target).
    """
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
    fileio.check_ev_ids([s.ev_id for s in sessions])
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
