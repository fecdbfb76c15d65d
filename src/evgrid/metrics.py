"""Scenario comparison: peak shaving, voltage profile, line currents, and
generation split, evaluated by power flow at each scenario's worst-case slot.

Loads are modeled per bus as base load (configurable power factor, default
0.95 lagging) plus EV load (default unity power factor).  PV buses hold their
scheduled active power; the swing bus absorbs the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fileio
from .fleet import KW_PER_MW
from .grid import BusKind, GridCase, build_admittance_matrix
from .powerflow import (
    LineFlow,
    PowerFlowError,
    PowerFlowSolution,
    compute_line_flows,
    solve_power_flow,
)


class MetricsError(ValueError):
    pass


BASE_LOAD_HEADER = ["slot", "bus_id", "mw"]


@dataclass(frozen=True)
class BaseLoadProfile:
    """Per-bus base load in MW over the horizon; rows follow bus_ids."""

    bus_ids: tuple[int, ...]
    mw: np.ndarray                    # shape (len(bus_ids), T)

    def __post_init__(self):
        if len(set(self.bus_ids)) != len(self.bus_ids):
            raise MetricsError(f"duplicate bus ids in base load: {self.bus_ids}")
        if self.mw.ndim != 2 or self.mw.shape[0] != len(self.bus_ids):
            raise MetricsError(
                f"base load shape {self.mw.shape} does not match {len(self.bus_ids)} buses"
            )
        if not np.all(np.isfinite(self.mw)) or np.any(self.mw < 0):
            raise MetricsError("base load must be finite and non-negative")

    @property
    def slots(self) -> int:
        return self.mw.shape[1]

    def row_of(self, bus_id: int) -> int:
        try:
            return self.bus_ids.index(bus_id)
        except ValueError:
            raise MetricsError(f"bus {bus_id} carries no base load row") from None

    def validate_against(self, case: GridCase) -> None:
        for bus_id in self.bus_ids:
            if not any(b.id == bus_id for b in case.buses):
                raise MetricsError(f"base load references unknown bus {bus_id}")
            if case.bus(bus_id).kind is not BusKind.PQ:
                raise MetricsError(f"base load bus {bus_id} is not a PQ bus")


def write_base_load(path, profile: BaseLoadProfile) -> None:
    rows = []
    for t in range(profile.slots):
        for k, bus_id in enumerate(profile.bus_ids):
            rows.append([t, bus_id, profile.mw[k, t]])
    fileio.write_rows(path, BASE_LOAD_HEADER, rows)


def read_base_load(path) -> BaseLoadProfile:
    cells: dict[tuple[int, int], float] = {}
    rows = fileio.read_rows(path, BASE_LOAD_HEADER,
                            lambda r: (int(r[0]), int(r[1]), float(r[2])))
    for slot, bus_id, mw in rows:
        if (slot, bus_id) in cells:
            raise MetricsError(f"{path}: duplicate entry for slot {slot}, bus {bus_id}")
        cells[(slot, bus_id)] = mw
    if not cells:
        raise MetricsError(f"{path}: no base load rows")
    slots = sorted({s for s, _ in cells})
    bus_ids = sorted({b for _, b in cells})
    if slots != list(range(len(slots))):
        raise MetricsError(f"{path}: slots must be contiguous from 0, got {slots[:5]}...")
    mw = np.zeros((len(bus_ids), len(slots)))
    for k, bus_id in enumerate(bus_ids):
        for t in range(len(slots)):
            if (t, bus_id) not in cells:
                raise MetricsError(f"{path}: missing entry for slot {t}, bus {bus_id}")
            mw[k, t] = cells[(t, bus_id)]
    return BaseLoadProfile(tuple(bus_ids), mw)


@dataclass(frozen=True)
class ReactiveAssumptions:
    """Power factors used to derive reactive load from active load."""

    base_power_factor: float = 0.95   # lagging
    ev_power_factor: float = 1.0

    def __post_init__(self):
        for pf in (self.base_power_factor, self.ev_power_factor):
            if not 0.0 < pf <= 1.0:
                raise MetricsError(f"power factor {pf} outside (0, 1]")

    @staticmethod
    def _tan_phi(pf: float) -> float:
        return math.sqrt(1.0 - pf * pf) / pf

    def reactive_mvar(self, base_mw: np.ndarray, ev_mw: np.ndarray) -> np.ndarray:
        return (base_mw * self._tan_phi(self.base_power_factor)
                + ev_mw * self._tan_phi(self.ev_power_factor))


@dataclass(frozen=True)
class ScenarioLoads:
    """Per-bus active load split into base and EV components, MW over T."""

    bus_ids: tuple[int, ...]
    base_mw: np.ndarray
    ev_mw: np.ndarray

    @property
    def total_mw(self) -> np.ndarray:
        return self.base_mw + self.ev_mw

    def system_total(self) -> np.ndarray:
        return self.total_mw.sum(axis=0)


def aggregate_load(base: BaseLoadProfile, blocks) -> ScenarioLoads:
    """Add EV profiles onto the base load.

    ``blocks`` yields ``(bus_ids, profiles_kw)`` pairs, with one kW row per
    EV in ``profiles_kw`` (shape ``(len(bus_ids), T)``); each block is used
    as it arrives, so a file can be summed while it is read.  Each bus's rows
    are accumulated one after another in the given order, so reruns are
    bit-identical and the sum does not depend on how the rows are blocked.
    """
    ev_mw = np.zeros_like(base.mw)
    for bus_ids, profiles_kw in blocks:
        profiles_kw = np.asarray(profiles_kw, dtype=float)
        if profiles_kw.shape != (len(bus_ids), base.slots):
            raise MetricsError(
                f"profiles of {len(bus_ids)} EVs have shape {profiles_kw.shape}, "
                f"expected ({len(bus_ids)}, {base.slots})"
            )
        rows = np.array([base.row_of(bus_id) for bus_id in bus_ids], dtype=np.intp)
        scaled = profiles_kw / KW_PER_MW
        for k in range(len(base.bus_ids)):
            # cumsum adds row after row, as a per-row loop would
            ev_mw[k] = np.cumsum(np.vstack((ev_mw[k], scaled[rows == k])), axis=0)[-1]
    return ScenarioLoads(base.bus_ids, base.mw.copy(), ev_mw)


def evaluate_grid_at_slot(case: GridCase, loads: ScenarioLoads, slot: int,
                          assumptions: ReactiveAssumptions = ReactiveAssumptions(),
                          pv_mw: dict[int, float] | None = None,
                          ybus: np.ndarray | None = None,
                          tol: float = 1e-8, max_iter: int = 20,
                          ) -> tuple[PowerFlowSolution, list[LineFlow]]:
    """Power flow with PQ injections taken from the scenario at one slot."""
    if not 0 <= slot < loads.base_mw.shape[1]:
        raise MetricsError(f"slot {slot} outside horizon")
    base_mw = loads.base_mw[:, slot]
    ev_mw = loads.ev_mw[:, slot]
    q_mvar = assumptions.reactive_mvar(base_mw, ev_mw)

    p_pu: dict[int, float] = {}
    q_pu: dict[int, float] = {}
    for k, bus_id in enumerate(loads.bus_ids):
        p_pu[bus_id] = -(base_mw[k] + ev_mw[k]) / case.s_base
        q_pu[bus_id] = -q_mvar[k] / case.s_base
    if pv_mw:
        for bus_id, mw in pv_mw.items():
            if case.bus(bus_id).kind is not BusKind.PV:
                raise MetricsError(f"generation override on non-PV bus {bus_id}")
            p_pu[bus_id] = mw / case.s_base

    loaded = case.with_injections(p_pu, q_pu)
    if ybus is None:
        ybus = build_admittance_matrix(loaded)
    solution = solve_power_flow(loaded, ybus, tol=tol, max_iter=max_iter)
    return solution, compute_line_flows(solution, loaded)


@dataclass(frozen=True)
class GenerationRecord:
    bus_id: int
    p_mw: float
    q_mvar: float


@dataclass(frozen=True)
class BusVoltageRow:
    bus_id: int
    v_before: float
    v_after: float


@dataclass(frozen=True)
class BranchCurrentRow:
    from_bus: int
    to_bus: int
    amps_before: float
    amps_after: float
    is_line: bool                     # same voltage base at both ends


@dataclass(frozen=True)
class ScenarioReport:
    peak_before_mw: float
    peak_after_mw: float
    peak_shaving_pct: float
    slot_before: int
    slot_after: int
    bus_voltages: tuple[BusVoltageRow, ...]
    branch_currents: tuple[BranchCurrentRow, ...]
    line_current_total_before_a: float
    line_current_total_after_a: float
    line_current_reduction_pct: float
    swing_before: GenerationRecord
    swing_after: GenerationRecord
    pv_before: tuple[GenerationRecord, ...]
    pv_after: tuple[GenerationRecord, ...]
    flags: tuple[str, ...] = ()
    diagnostics: tuple[str, ...] = ()


def _generation(case: GridCase, solution: PowerFlowSolution,
                kind: BusKind) -> list[GenerationRecord]:
    records = []
    for i in case.indices_of_kind(kind):
        bus = case.buses[i]
        records.append(GenerationRecord(
            bus_id=bus.id,
            p_mw=float(solution.p_inj[i]) * case.s_base,
            q_mvar=float(solution.q_inj[i]) * case.s_base,
        ))
    return records


def compare_scenarios(case: GridCase, loads_before: ScenarioLoads,
                      loads_after: ScenarioLoads,
                      assumptions: ReactiveAssumptions = ReactiveAssumptions(),
                      pv_mw: dict[int, float] | None = None,
                      flags: tuple[str, ...] = (),
                      tol: float = 1e-8, max_iter: int = 20) -> ScenarioReport:
    """Evaluate the uncoordinated and coordinated loads (from
    ``aggregate_load`` over one base load checked against ``case``) at their
    worst-case slots and tabulate the before/after quantities.  ``flags``
    carries run-level notes (clamped sessions, non-converged steps) into the
    report."""
    total_before = loads_before.system_total()
    total_after = loads_after.system_total()
    slot_before = int(np.argmax(total_before))
    slot_after = int(np.argmax(total_after))
    peak_before = float(total_before[slot_before])
    peak_after = float(total_after[slot_after])

    ybus = build_admittance_matrix(case)
    results = {}
    for label, loads, slot in (("uncoordinated", loads_before, slot_before),
                               ("coordinated", loads_after, slot_after)):
        try:
            results[label] = evaluate_grid_at_slot(
                case, loads, slot, assumptions, pv_mw, ybus, tol, max_iter
            )
        except PowerFlowError as exc:
            raise MetricsError(
                f"power flow failed for the {label} scenario at slot {slot}: {exc}"
            ) from exc
    sol_before, flows_before = results["uncoordinated"]
    sol_after, flows_after = results["coordinated"]

    voltage_rows = tuple(
        BusVoltageRow(case.buses[i].id,
                      float(sol_before.v_mag[i]), float(sol_after.v_mag[i]))
        for i in case.indices_of_kind(BusKind.PQ)
    )

    current_rows = []
    total_a_before = 0.0
    total_a_after = 0.0
    for fb, fa in zip(flows_before, flows_after):
        br = fb.branch
        is_line = case.bus(br.from_bus).base_kv == case.bus(br.to_bus).base_kv
        current_rows.append(BranchCurrentRow(
            br.from_bus, br.to_bus, fb.i_from_amps, fa.i_from_amps, is_line
        ))
        if is_line:
            total_a_before += fb.i_from_amps
            total_a_after += fa.i_from_amps

    swing_id = case.buses[case.swing_index].id
    swing_before = _generation(case, sol_before, BusKind.SWING)[0]
    swing_after = _generation(case, sol_after, BusKind.SWING)[0]

    diagnostics = []
    dominated = bool(np.all(loads_after.total_mw <= loads_before.total_mw + 1e-9))
    if dominated:
        worse = [row.bus_id for row in voltage_rows
                 if row.v_after < row.v_before - 1e-12]
        if worse:
            diagnostics.append(
                "coordinated load is slot-wise dominated yet voltage dropped "
                f"at buses {worse}"
            )
    if swing_after.p_mw >= swing_before.p_mw:
        diagnostics.append(
            f"swing bus {swing_id} active power did not fall: "
            f"{swing_before.p_mw!r} -> {swing_after.p_mw!r} MW"
        )

    return ScenarioReport(
        peak_before_mw=peak_before,
        peak_after_mw=peak_after,
        peak_shaving_pct=100.0 * (peak_before - peak_after) / peak_before,
        slot_before=slot_before,
        slot_after=slot_after,
        bus_voltages=voltage_rows,
        branch_currents=tuple(current_rows),
        line_current_total_before_a=total_a_before,
        line_current_total_after_a=total_a_after,
        line_current_reduction_pct=(
            100.0 * (total_a_before - total_a_after) / total_a_before
            if total_a_before else 0.0
        ),
        swing_before=swing_before,
        swing_after=swing_after,
        pv_before=tuple(_generation(case, sol_before, BusKind.PV)),
        pv_after=tuple(_generation(case, sol_after, BusKind.PV)),
        flags=tuple(flags),
        diagnostics=tuple(diagnostics),
    )


def report_to_dict(report: ScenarioReport) -> dict:
    return {
        "peak": {
            "before_mw": report.peak_before_mw,
            "after_mw": report.peak_after_mw,
            "shaving_pct": report.peak_shaving_pct,
            "slot_before": report.slot_before,
            "slot_after": report.slot_after,
        },
        "bus_voltages": [
            {"bus": r.bus_id, "before_pu": r.v_before, "after_pu": r.v_after}
            for r in report.bus_voltages
        ],
        "branch_currents": [
            {
                "from_bus": r.from_bus,
                "to_bus": r.to_bus,
                "before_a": r.amps_before,
                "after_a": r.amps_after,
                "is_line": r.is_line,
            }
            for r in report.branch_currents
        ],
        "line_current_total": {
            "before_a": report.line_current_total_before_a,
            "after_a": report.line_current_total_after_a,
            "reduction_pct": report.line_current_reduction_pct,
        },
        "generation": {
            "swing": {
                "bus": report.swing_before.bus_id,
                "before": {"p_mw": report.swing_before.p_mw,
                           "q_mvar": report.swing_before.q_mvar},
                "after": {"p_mw": report.swing_after.p_mw,
                          "q_mvar": report.swing_after.q_mvar},
            },
            "pv": [
                {
                    "bus": b.bus_id,
                    "before": {"p_mw": b.p_mw, "q_mvar": b.q_mvar},
                    "after": {"p_mw": a.p_mw, "q_mvar": a.q_mvar},
                }
                for b, a in zip(report.pv_before, report.pv_after)
            ],
        },
        "flags": list(report.flags),
        "diagnostics": list(report.diagnostics),
    }


def render_report(report: ScenarioReport) -> str:
    """Aligned, human-readable before/after tables."""
    out = []
    out.append(
        f"Peak load: {report.peak_before_mw:.3f} MW (slot {report.slot_before})"
        f" -> {report.peak_after_mw:.3f} MW (slot {report.slot_after})"
        f"   shaving {report.peak_shaving_pct:.2f}%"
    )
    out.append("")
    out.append("Branch currents, from side (A)")
    out.append(f"  {'branch':<10}{'before':>12}{'after':>12}{'change %':>12}")
    for r in report.branch_currents:
        change = (100.0 * (r.amps_after - r.amps_before) / r.amps_before
                  if r.amps_before else 0.0)
        tag = "" if r.is_line else "  (transformer)"
        out.append(
            f"  {f'{r.from_bus}-{r.to_bus}':<10}{r.amps_before:>12.1f}"
            f"{r.amps_after:>12.1f}{change:>12.1f}{tag}"
        )
    out.append(
        f"  {'lines total':<10}{report.line_current_total_before_a:>11.1f}"
        f"{report.line_current_total_after_a:>12.1f}"
        f"{-report.line_current_reduction_pct:>12.1f}"
    )
    out.append("")
    out.append("Generation (MW, MVAr)")
    out.append(f"  {'bus':<6}{'role':<8}{'P before':>12}{'Q before':>12}"
               f"{'P after':>12}{'Q after':>12}")
    rows = [(report.swing_before, report.swing_after, "swing")]
    rows += [(b, a, "pv") for b, a in zip(report.pv_before, report.pv_after)]
    for before, after, role in rows:
        out.append(
            f"  {before.bus_id:<6}{role:<8}{before.p_mw:>12.2f}{before.q_mvar:>12.2f}"
            f"{after.p_mw:>12.2f}{after.q_mvar:>12.2f}"
        )
    out.append("")
    out.append("PQ bus voltages (pu)")
    out.append(f"  {'bus':<6}{'before':>10}{'after':>10}{'delta':>10}")
    for r in report.bus_voltages:
        out.append(
            f"  {r.bus_id:<6}{r.v_before:>10.4f}{r.v_after:>10.4f}"
            f"{r.v_after - r.v_before:>10.4f}"
        )
    for title, lines in (("Flags", report.flags), ("Diagnostics", report.diagnostics)):
        if lines:
            out.append("")
            out.append(title)
            for line in lines:
                out.append(f"  - {line}")
    out.append("")
    return "\n".join(out)
