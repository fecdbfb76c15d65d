"""Scenario comparison: peak shaving, voltage profile, line currents, and
generation split, evaluated by power flow at each scenario's worst-case slot.

A scenario's EV load is a plain ``(buses, T)`` MW array on the base load's
buses, summed by ``aggregate_load``; its total is ``base.mw + ev_mw``.
``solve_scenario`` solves one scenario at its worst slot with one
``solve_power_flow`` call, ``compare_scenarios`` returns two solved
scenarios' report as the JSON-ready dict that ``report.json`` holds, and
``render_report`` prints that dict as the text of ``report.txt``.  The
types take their values as given (``read_base_load`` and the config rule
table ``cli._RULES`` check them).

Loads are modeled per bus as base load (configurable power factor, default
0.95 lagging) plus EV load (default unity power factor).  PV buses hold the
case's active power (``cli.preflight`` applies the configured PV dispatch
to the case); the swing bus absorbs the residual.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import fileio
from .fleet import KW_PER_MW
from .grid import BusKind, GridCase
from .powerflow import PowerFlowError, PowerFlowSolution, solve_power_flow


BASE_LOAD_HEADER = ["slot", "bus_id", "mw"]


class BaseLoadProfile(NamedTuple):
    """Per-bus base load in MW, one row per bus (as ``read_base_load`` builds it)."""

    bus_ids: tuple[int, ...]          # unique
    mw: np.ndarray                    # shape (len(bus_ids), T)

    @property
    def slots(self) -> int:
        return self.mw.shape[1]


def _base_load_row(cells: list[str]) -> tuple[int, int, float]:
    slot, bus_id, mw = int(cells[0]), int(cells[1]), float(cells[2])
    if not 0.0 <= mw < math.inf:
        raise ValueError(f"base load {mw} MW must be finite and non-negative")
    return slot, bus_id, mw


def read_base_load(path) -> BaseLoadProfile:
    cells: dict[tuple[int, int], float] = {}
    rows = fileio.read_rows(path, BASE_LOAD_HEADER, _base_load_row)
    for slot, bus_id, mw in rows:
        if (slot, bus_id) in cells:
            raise ValueError(f"{path}: duplicate entry for slot {slot}, bus {bus_id}")
        cells[(slot, bus_id)] = mw
    if not cells:
        raise ValueError(f"{path}: no base load rows")
    slots = sorted({s for s, _ in cells})
    bus_ids = sorted({b for _, b in cells})
    if slots != list(range(len(slots))):
        raise ValueError(f"{path}: slots must be contiguous from 0, got {slots[:5]}...")
    mw = np.zeros((len(bus_ids), len(slots)))
    for k, bus_id in enumerate(bus_ids):
        for t in range(len(slots)):
            if (t, bus_id) not in cells:
                raise ValueError(f"{path}: missing entry for slot {t}, bus {bus_id}")
            mw[k, t] = cells[(t, bus_id)]
    return BaseLoadProfile(tuple(bus_ids), mw)


class ReactiveAssumptions(NamedTuple):
    """Power factors in (0, 1] used to derive reactive load from active load."""

    base_power_factor: float = 0.95   # lagging
    ev_power_factor: float = 1.0

    @staticmethod
    def _tan_phi(pf: float) -> float:
        return math.sqrt(1.0 - pf * pf) / pf

    def reactive_mvar(self, base_mw: np.ndarray, ev_mw: np.ndarray) -> np.ndarray:
        return (base_mw * self._tan_phi(self.base_power_factor)
                + ev_mw * self._tan_phi(self.ev_power_factor))


def aggregate_load(base: BaseLoadProfile, blocks) -> np.ndarray:
    """The EV load on ``base``'s buses, MW of shape ``(len(base.bus_ids), T)``
    with rows in ``base.bus_ids`` order.

    ``blocks`` yields ``(bus_ids, profiles_kw)`` pairs on ``base``'s buses, one kW
    row per EV in ``profiles_kw`` (shape ``(len(bus_ids), T)``); each block is
    used as it arrives, so a file can be summed while it is read.  Each bus's
    rows are accumulated one after another in the given order, so reruns are
    bit-identical and the sum does not depend on how the rows are blocked.
    """
    ev_mw = np.zeros_like(base.mw)
    index = {bus_id: k for k, bus_id in enumerate(base.bus_ids)}
    for bus_ids, profiles_kw in blocks:
        rows = np.array([index[bus_id] for bus_id in bus_ids], dtype=np.intp)
        scaled = profiles_kw / KW_PER_MW
        for k in range(len(base.bus_ids)):
            # cumsum adds row after row, as a per-row loop would
            ev_mw[k] = np.cumsum(np.vstack((ev_mw[k], scaled[rows == k])), axis=0)[-1]
    return ev_mw


def evaluate_grid_at_slot(case: GridCase, base: BaseLoadProfile, ev_mw: np.ndarray,
                          slot: int,
                          assumptions: ReactiveAssumptions = ReactiveAssumptions(),
                          tol: float = 1e-8, max_iter: int = 20) -> PowerFlowSolution:
    """Power flow of ``case`` with PQ injections taken from the base load
    plus the EV load ``ev_mw`` (an ``aggregate_load`` array) at one slot;
    the slot comes checked (``cli.preflight``)."""
    base_mw, ev = base.mw[:, slot], ev_mw[:, slot]
    q_mvar = assumptions.reactive_mvar(base_mw, ev)

    p_pu: dict[int, float] = {}
    q_pu: dict[int, float] = {}
    for k, bus_id in enumerate(base.bus_ids):
        p_pu[bus_id] = -(base_mw[k] + ev[k]) / case.s_base
        q_pu[bus_id] = -q_mvar[k] / case.s_base
    return solve_power_flow(case.with_injections(p_pu, q_pu), tol=tol, max_iter=max_iter)


def solve_scenario(label: str, case: GridCase, base: BaseLoadProfile, ev_mw: np.ndarray,
                   assumptions: ReactiveAssumptions = ReactiveAssumptions(),
                   tol: float = 1e-8, max_iter: int = 20) -> tuple:
    """The EV load ``ev_mw`` (an ``aggregate_load`` array over ``base``,
    checked against ``case``) solved at the worst-case slot of its total with
    the base load, as the ``(slot, peak_mw, solution)`` that
    ``compare_scenarios`` takes.  A failed power flow is a PowerFlowError
    that names the ``label`` scenario and the slot."""
    total = (base.mw + ev_mw).sum(axis=0)
    slot = int(np.argmax(total))
    try:
        solution = evaluate_grid_at_slot(case, base, ev_mw, slot, assumptions, tol, max_iter)
    except PowerFlowError as exc:
        raise PowerFlowError(f"power flow failed for the {label} scenario at slot {slot}: "
                             f"{exc}") from exc
    return slot, float(total[slot]), solution


def compare_scenarios(case: GridCase, base: BaseLoadProfile, ev_before: np.ndarray,
                      ev_after: np.ndarray, before: tuple, after: tuple,
                      flags: tuple[str, ...] = ()) -> dict:
    """The report, the dict that ``report.json`` holds (see
    ``report_to_dict``), of the uncoordinated and coordinated EV loads
    ``ev_before`` and ``ev_after`` over ``base`` and their ``solve_scenario``
    results ``before`` and ``after``.  ``flags`` carries run-level notes
    (clamped sessions, non-converged steps) into the report."""
    dominated = bool(np.all(base.mw + ev_after <= base.mw + ev_before + 1e-9))
    return report_to_dict(case, before, after, dominated, flags)


def _pct_drop(before: float, after: float) -> float:
    return 100.0 * (before - after) / before if before else 0.0


def report_to_dict(case: GridCase, before: tuple, after: tuple, dominated: bool,
                   flags=()) -> dict:
    """Tabulate two solved scenarios as the JSON-ready report.

    ``before`` and ``after`` are each ``(slot, peak_mw, solution)``, the
    uncoordinated and the coordinated scenario at its worst-case slot; the
    branch currents are the solutions' ``flows``.  ``dominated`` says the
    coordinated load is nowhere above the uncoordinated one; a voltage drop
    is then a diagnostic, as is a swing output that did not fall."""
    slot_b, peak_b, sol_b = before
    slot_a, peak_a, sol_a = after

    def output(i: int) -> dict:
        return {label: {"p_mw": float(sol.p_inj[i]) * case.s_base,
                        "q_mvar": float(sol.q_inj[i]) * case.s_base}
                for label, sol in (("before", sol_b), ("after", sol_a))}

    voltages = [
        {"bus": case.buses[i].id,
         "before_pu": float(sol_b.v_mag[i]), "after_pu": float(sol_a.v_mag[i])}
        for i in case.indices_of_kind(BusKind.PQ)
    ]
    currents = []
    total_b = total_a = 0.0
    for fb, fa in zip(sol_b.flows, sol_a.flows):
        br = fb.branch
        # a line has the same voltage base at both ends; a transformer does not
        is_line = case.bus(br.from_bus).base_kv == case.bus(br.to_bus).base_kv
        currents.append({"from_bus": br.from_bus, "to_bus": br.to_bus,
                         "before_a": fb.i_from_amps, "after_a": fa.i_from_amps,
                         "is_line": is_line})
        if is_line:
            total_b += fb.i_from_amps
            total_a += fa.i_from_amps
    swing = {"bus": case.buses[case.swing_index].id, **output(case.swing_index)}

    diagnostics = []
    if dominated:
        worse = [r["bus"] for r in voltages if r["after_pu"] < r["before_pu"] - 1e-12]
        if worse:
            diagnostics.append(
                "coordinated load is slot-wise dominated yet voltage dropped "
                f"at buses {worse}"
            )
    p_before, p_after = swing["before"]["p_mw"], swing["after"]["p_mw"]
    if p_after >= p_before:
        diagnostics.append(
            f"swing bus {swing['bus']} active power did not fall: "
            f"{p_before!r} -> {p_after!r} MW"
        )

    return {
        "peak": {"before_mw": peak_b, "after_mw": peak_a,
                 "shaving_pct": _pct_drop(peak_b, peak_a),
                 "slot_before": slot_b, "slot_after": slot_a},
        "bus_voltages": voltages,
        "branch_currents": currents,
        "line_current_total": {"before_a": total_b, "after_a": total_a,
                               "reduction_pct": _pct_drop(total_b, total_a)},
        "generation": {
            "swing": swing,
            "pv": [{"bus": case.buses[i].id, **output(i)}
                   for i in case.indices_of_kind(BusKind.PV)],
        },
        "flags": list(flags),
        "diagnostics": diagnostics,
    }


def render_report(report: dict) -> str:
    """Aligned, human-readable before/after tables of a ``report_to_dict``
    report."""
    peak, lines = report["peak"], report["line_current_total"]
    out = []
    out.append(
        f"Peak load: {peak['before_mw']:.3f} MW (slot {peak['slot_before']})"
        f" -> {peak['after_mw']:.3f} MW (slot {peak['slot_after']})"
        f"   shaving {peak['shaving_pct']:.2f}%"
    )
    out.append("")
    out.append("Branch currents, from side (A)")
    out.append(f"  {'branch':<10}{'before':>12}{'after':>12}{'change %':>12}")
    for r in report["branch_currents"]:
        before, after = r["before_a"], r["after_a"]
        change = 100.0 * (after - before) / before if before else 0.0
        branch = f"{r['from_bus']}-{r['to_bus']}"
        tag = "" if r["is_line"] else "  (transformer)"
        out.append(f"  {branch:<10}{before:>12.1f}{after:>12.1f}{change:>12.1f}{tag}")
    out.append(
        f"  {'lines total':<10}{lines['before_a']:>11.1f}"
        f"{lines['after_a']:>12.1f}"
        f"{-lines['reduction_pct']:>12.1f}"
    )
    out.append("")
    out.append("Generation (MW, MVAr)")
    out.append(f"  {'bus':<6}{'role':<8}{'P before':>12}{'Q before':>12}"
               f"{'P after':>12}{'Q after':>12}")
    generation = report["generation"]
    rows = [(generation["swing"], "swing")] + [(g, "pv") for g in generation["pv"]]
    for g, role in rows:
        before, after = g["before"], g["after"]
        out.append(
            f"  {g['bus']:<6}{role:<8}{before['p_mw']:>12.2f}{before['q_mvar']:>12.2f}"
            f"{after['p_mw']:>12.2f}{after['q_mvar']:>12.2f}"
        )
    out.append("")
    out.append("PQ bus voltages (pu)")
    out.append(f"  {'bus':<6}{'before':>10}{'after':>10}{'delta':>10}")
    for r in report["bus_voltages"]:
        out.append(
            f"  {r['bus']:<6}{r['before_pu']:>10.4f}{r['after_pu']:>10.4f}"
            f"{r['after_pu'] - r['before_pu']:>10.4f}"
        )
    for title, key in (("Flags", "flags"), ("Diagnostics", "diagnostics")):
        if report[key]:
            out.append("")
            out.append(title)
            for line in report[key]:
                out.append(f"  - {line}")
    out.append("")
    return "\n".join(out)
