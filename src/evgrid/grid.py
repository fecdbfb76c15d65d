"""Network data model, case-file parsing, the branch model and the admittance matrix.

A grid case is a single structured text file with three sections::

    [system]
    s_base_mva = 100.0

    [buses]
    # id  kind  v_mag  v_angle_deg  p_inj_mw  q_inj_mvar  base_kv
    1  swing  1.04  0.0  0.0  0.0  16.5

    [branches]
    # from  to  r_pu  x_pu  b_pu  tap
    1  4  0.0  0.0576  0.0  1.0

Angles are degrees and powers MW/MVAr at the file boundary; everything is
radians and per-unit on ``s_base`` once loaded.  ``branch_terms`` is the one pi
model; ``powerflow.solve_power_flow`` builds the admittance matrix from it and
computes its line flows from it.
"""

from __future__ import annotations

import enum
import math
import os
from typing import NamedTuple

import numpy as np


class BusKind(enum.Enum):
    SWING = "swing"
    PV = "pv"
    PQ = "pq"


class Bus(NamedTuple):
    id: int
    kind: BusKind
    v_mag: float          # pu; setpoint for swing/PV, initial guess otherwise
    v_angle: float        # rad; fixed for swing only
    p_inj: float          # pu, generation minus load
    q_inj: float          # pu
    base_kv: float


class Branch(NamedTuple):
    from_bus: int
    to_bus: int
    r: float              # pu series resistance
    x: float              # pu series reactance
    b_shunt: float        # pu total line-charging susceptance
    tap: float = 1.0      # off-nominal turns ratio on the from side


class GridCase(NamedTuple):
    """Immutable network description, taken as given (``parse_grid_case`` checks it)."""

    buses: tuple[Bus, ...]        # in id order, ids 1..M
    branches: tuple[Branch, ...]
    s_base: float         # MVA

    @property
    def order(self) -> int:
        return len(self.buses)

    def bus(self, bus_id: int) -> Bus:
        return self.buses[self.index_of(bus_id)]

    def index_of(self, bus_id: int) -> int:
        if not 1 <= bus_id <= len(self.buses):
            raise ValueError(f"unknown bus {bus_id}; bus ids are 1..{len(self.buses)}")
        return bus_id - 1

    @property
    def swing_index(self) -> int:
        return next(i for i, b in enumerate(self.buses) if b.kind is BusKind.SWING)

    def indices_of_kind(self, kind: BusKind) -> list[int]:
        return [i for i, b in enumerate(self.buses) if b.kind is kind]

    def with_injections(self, p_pu: dict[int, float], q_pu: dict[int, float]) -> "GridCase":
        """Copy of the case with per-bus injections replaced (keyed by bus id)."""
        buses = tuple(
            b._replace(p_inj=p_pu.get(b.id, b.p_inj), q_inj=q_pu.get(b.id, b.q_inj))
            for b in self.buses
        )
        return GridCase(buses, self.branches, self.s_base)


def validate_case(case: GridCase) -> None:
    ids = [b.id for b in case.buses]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate bus id(s): {dupes}")
    if sorted(ids) != list(range(1, len(ids) + 1)):
        raise ValueError(f"bus ids must be dense 1..{len(ids)}, got {sorted(ids)}")

    swings = [b.id for b in case.buses if b.kind is BusKind.SWING]
    if len(swings) != 1:
        raise ValueError(f"exactly one swing bus required, found {swings or 'none'}")
    for b in case.buses:
        if b.base_kv <= 0:
            raise ValueError(f"bus {b.id}: base_kv must be positive, got {b.base_kv}")
        if b.kind in (BusKind.SWING, BusKind.PV) and b.v_mag <= 0:
            raise ValueError(f"bus {b.id}: {b.kind.value} setpoint v_mag must be positive")

    known = set(ids)
    for k, br in enumerate(case.branches):
        where = f"branch {k + 1} ({br.from_bus}-{br.to_bus})"
        if br.from_bus == br.to_bus:
            raise ValueError(f"{where}: from and to bus are identical")
        for end in (br.from_bus, br.to_bus):
            if end not in known:
                raise ValueError(f"{where}: endpoint references unknown bus {end}")
        if br.r == 0.0 and br.x == 0.0:
            raise ValueError(f"{where}: zero series impedance")
        if br.tap <= 0:
            raise ValueError(f"{where}: tap must be positive, got {br.tap}")

    if len(ids) > 1:
        seen = {ids[0]}
        frontier = [ids[0]]
        adj: dict[int, list[int]] = {i: [] for i in ids}
        for br in case.branches:
            adj[br.from_bus].append(br.to_bus)
            adj[br.to_bus].append(br.from_bus)
        while frontier:
            nxt = frontier.pop()
            for n in adj[nxt]:
                if n not in seen:
                    seen.add(n)
                    frontier.append(n)
        if seen != known:
            missing = sorted(known - seen)
            raise ValueError(f"network is disconnected; unreachable bus(es): {missing}")


# --- case file parsing -------------------------------------------------------

_BUS_COLUMNS = 7
_BRANCH_COLUMNS = 6


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


def parse_grid_case(text: str, name: str = "<case>") -> GridCase:
    """Parse and check (``validate_case``) a case; raises ValueError with file:line."""
    s_base = None
    bus_rows: list[tuple[int, list[str]]] = []
    branch_rows: list[tuple[int, list[str]]] = []
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        loc = f"{name}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("system", "buses", "branches"):
                raise ValueError(f"{loc}: unknown section [{section}]")
            continue
        if section == "system":
            key, _, value = line.partition("=")
            if key.strip() != "s_base_mva" or not value.strip():
                raise ValueError(f"{loc}: expected 's_base_mva = <MVA>', got {line!r}")
            if s_base is not None:
                raise ValueError(f"{loc}: s_base_mva given twice")
            try:
                s_base = _finite(value)
                if s_base <= 0:
                    raise ValueError(f"expected a positive number, got {value.strip()!r}")
            except ValueError as exc:
                raise ValueError(f"{loc}: s_base_mva: {exc}") from None
        elif section == "buses":
            bus_rows.append((lineno, line.split()))
        elif section == "branches":
            branch_rows.append((lineno, line.split()))
        else:
            raise ValueError(f"{loc}: data before any section header")

    if s_base is None:
        raise ValueError(f"{name}: missing [system] s_base_mva")
    if not bus_rows:
        raise ValueError(f"{name}: no buses defined")

    buses = []
    for lineno, cols in bus_rows:
        loc = f"{name}:{lineno}"
        if len(cols) != _BUS_COLUMNS:
            raise ValueError(f"{loc}: bus row needs {_BUS_COLUMNS} columns, got {len(cols)}")
        try:
            bus_id = int(cols[0])
            kind = BusKind(cols[1].lower())
            v_mag, angle_deg, p_mw, q_mvar, base_kv = map(_finite, cols[2:])
        except ValueError as exc:
            raise ValueError(f"{loc}: {exc}") from None
        buses.append(
            Bus(
                id=bus_id,
                kind=kind,
                v_mag=v_mag,
                v_angle=math.radians(angle_deg),
                p_inj=p_mw / s_base,
                q_inj=q_mvar / s_base,
                base_kv=base_kv,
            )
        )

    branches = []
    for lineno, cols in branch_rows:
        loc = f"{name}:{lineno}"
        # the tap column may be omitted; off-nominal ratios are the exception
        if len(cols) not in (_BRANCH_COLUMNS - 1, _BRANCH_COLUMNS):
            raise ValueError(
                f"{loc}: branch row needs {_BRANCH_COLUMNS - 1} or "
                f"{_BRANCH_COLUMNS} columns, got {len(cols)}"
            )
        try:
            f, t = int(cols[0]), int(cols[1])
            r, x, b = map(_finite, cols[2:5])
            tap = _finite(cols[5]) if len(cols) == _BRANCH_COLUMNS else 1.0
        except ValueError as exc:
            raise ValueError(f"{loc}: {exc}") from None
        branches.append(Branch(from_bus=f, to_bus=t, r=r, x=x, b_shunt=b, tap=tap))

    buses.sort(key=lambda b: b.id)
    case = GridCase(tuple(buses), tuple(branches), s_base)
    try:
        validate_case(case)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    return case


def load_grid_case(path: str | os.PathLike) -> GridCase:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grid_case(fh.read(), name=str(path))


# --- branch model and admittance assembly ------------------------------------

def branch_terms(case: GridCase) -> list[tuple[int, int, complex, complex, complex, complex]]:
    """The pi model of every branch, in branch order, as ``(f, t, yff, yft,
    ytf, ytt)``: the from and to bus indices and the admittances that give
    the branch's end currents ``i_from = yff*v_f + yft*v_t`` and
    ``i_to = ytf*v_f + ytt*v_t``.  With ``y = 1/(r + jx)`` and the tap on the
    from side, ``yff = y/tap^2 + jb/2``, ``yft = ytf = -y/tap`` and
    ``ytt = y + jb/2``.
    """
    terms = []
    for br in case.branches:
        y = 1.0 / complex(br.r, br.x)
        shunt = complex(0.0, br.b_shunt / 2.0)
        mutual = -y / br.tap
        terms.append((case.index_of(br.from_bus), case.index_of(br.to_bus),
                      y / (br.tap * br.tap) + shunt, mutual, mutual, y + shunt))
    return terms


def build_admittance_matrix(case: GridCase) -> np.ndarray:
    """Nodal admittance matrix (complex, dense, order M) stamped from the
    ``branch_terms``, accumulated in (row, col, value) order so that it is
    bit-identical under any permutation of the input branch list."""
    contribs: list[tuple[int, int, complex]] = []
    for f, t, yff, yft, ytf, ytt in branch_terms(case):
        contribs += [(f, f, yff), (t, t, ytt), (f, t, yft), (t, f, ytf)]

    contribs.sort(key=lambda c: (c[0], c[1], c[2].real, c[2].imag))
    ybus = np.zeros((case.order, case.order), dtype=complex)
    for i, j, v in contribs:
        ybus[i, j] += v
    return ybus
