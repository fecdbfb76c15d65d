"""Command-line entry point.

Subcommands: powerflow | schedule | simulate | compare | gen-fleet.
Configuration comes from a JSON file plus flag overrides (flags win); paths
inside the config file resolve relative to the file, flag paths relative to
the working directory.  All randomness flows from the single configured seed,
and every output is deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

# The largest BLAS calls are the power flow's 9 x 9 products, so OpenBLAS's
# thread pool only costs start-up time.  This must run before numpy loads;
# a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import coordinator, fileio, fleet, metrics  # noqa: E402
from .fleet import EvSession, FleetSpec  # noqa: E402
from .grid import BusKind, GridCase, load_grid_case  # noqa: E402
from .metrics import ReactiveAssumptions  # noqa: E402
from .powerflow import PowerFlowError, solve_power_flow  # noqa: E402
from .scheduler import SchedulerConfig, run_until_converged  # noqa: E402

# every input error of the package is a ValueError, and a failed solve a
# PowerFlowError
USER_ERRORS = (ValueError, OSError, PowerFlowError)

# the input files a config may name
_INPUTS = ("case", "base_load", "sessions", "events", "uncoordinated", "coordinated")
# in "<key>: expected <what>, got <value>", the <what> of a rule and its test
_FINITE = ("a finite number", math.isfinite)
_POSITIVE = ("a finite positive number", lambda v: 0 < v < math.inf)
_AT_LEAST_0 = ("at least 0", lambda v: v >= 0)
_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)

# every config key, dotted (``*`` stands for any bus id): its kind, then the
# rules its value must pass, in order.  A kind is ``str`` for a path (null is
# absent), ``int`` or ``float`` for a JSON number, ``tuple`` for a [lo, hi]
# pair of floats, or ``dict`` for a section of the keys below it.
_RULES = {
    **dict.fromkeys((*_INPUTS, "output_dir"), (str,)),
    "seed": (int, ("a non-negative integer", lambda v: v >= 0)),
    "horizon_steps": (int,), "slot": (int,),
    "scheduler": (dict,),
    # above 0.5, each round's step lowers the flattening objective
    "scheduler.lambda": (float, _POSITIVE, ("above 0.5", lambda v: v > 0.5)),
    **dict.fromkeys(("scheduler.epsilon", "scheduler.slot_hours"), (float, _POSITIVE)),
    **dict.fromkeys(("scheduler.max_iterations", "scheduler.slots"), (int, _POSITIVE)),
    "power_flow": (dict,), "power_flow.tol": (float, _POSITIVE),
    "power_flow.max_iter": (int, _AT_LEAST_1),
    "reactive": (dict,),
    **dict.fromkeys(("reactive.base_power_factor", "reactive.ev_power_factor"),
                    (float, ("a power factor in (0, 1]", lambda v: 0 < v <= 1))),
    "pv_mw": (dict,), "pv_mw.*": (float, _FINITE),
    "fleet": (dict,), "fleet.counts": (dict,),
    "fleet.counts.*": (int, ("a non-negative count", lambda v: v >= 0)),
    "fleet.arrival_mean_slot": (float, _FINITE),
    "fleet.arrival_std_slots": (float, _FINITE, _AT_LEAST_0),
    "fleet.duration_mean_slots": (float, _FINITE, _AT_LEAST_1),
    "fleet.duration_std_slots": (float, _FINITE, _AT_LEAST_0),
    "fleet.energy_kwh_range": (tuple, _FINITE),
    "fleet.p_max_kw": (float, _FINITE, _AT_LEAST_0),
    "fleet.d_max_kw": (float, _FINITE, ("at most 0", lambda v: v <= 0)),
}


class RunConfig(NamedTuple):
    case_path: Path | None
    base_load_path: Path | None
    sessions_path: Path | None
    events_path: Path | None
    uncoordinated_path: Path | None
    coordinated_path: Path | None
    output_dir: Path
    seed: int
    scheduler: SchedulerConfig
    horizon_steps: int
    pf_tol: float
    pf_max_iter: int
    reactive: ReactiveAssumptions
    pv_mw: dict[int, float]
    fleet_spec: FleetSpec | None
    slot: int | None


def _resolve(base_dir: Path, value) -> Path | None:
    if value is None:
        return None
    path = Path(value)
    return path if path.is_absolute() else base_dir / path


def _number(key: str, value, kind=float):
    """``value`` as a ``kind`` (int or float); anything but a JSON number in
    float range, of integral value for an int, is an error that names ``key``."""
    what = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key}: expected {what}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{key}: expected {what} in float range, got {value!r}") from None
    if kind is int and not number.is_integer():
        raise ValueError(f"{key}: expected {what}, got {value!r}")
    return kind(value)


def _ruled(key: str, value, rules):
    """``value``, once it passes each ``(what, test)`` rule in turn."""
    for what, test in rules:
        if not test(value):
            raise ValueError(f"{key}: expected {what}, got {value!r}")
    return value


def _checked(name: str, section) -> dict:
    """Config section ``name`` ("config" for the top level), each value typed
    and checked by its row of ``_RULES``: a key without a row is an error, a
    section comes back checked too, and a section of bus ids keyed by int.
    Errors name the dotted key."""
    if not isinstance(section, dict):
        raise ValueError(f"{name} must be a JSON object")
    prefix = "" if name == "config" else f"{name}."
    by_bus = f"{prefix}*" in _RULES
    unknown = sorted(key for key in section if not by_bus and prefix + key not in _RULES)
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}")
    out = {}
    for key, value in section.items():
        kind, *rules = _RULES[f"{prefix}*" if by_bus else prefix + key]
        # a type error names a top-level key as "config.<key>", a rule as "<key>"
        typed_as, where = f"{name}.{key}", prefix + key
        if by_bus:
            try:
                key = int(key)
            except ValueError:
                raise ValueError(f"{name}: bus id {key!r} is not an integer") from None
            if key in out:
                raise ValueError(f"{name}: bus id {key} given twice")
        if kind is dict:
            out[key] = _checked(where, value)
        elif kind is str:
            if not isinstance(value, (str, type(None))):
                raise ValueError(f"{typed_as}: expected a path string, got {value!r}")
            out[key] = value
        elif kind is tuple:
            if not isinstance(value, list) or len(value) != 2:
                raise ValueError(f"{where}: expected [lo, hi], got {value!r}")
            out[key] = tuple(_ruled(where, _number(typed_as, v), rules) for v in value)
        else:
            out[key] = _ruled(where, _number(typed_as, value, kind), rules)
    return out


def _fleet_spec(spec: dict) -> FleetSpec:
    """The checked ``fleet`` section as a FleetSpec, once the rules that
    compare two of its keys hold."""
    missing = sorted({key.split(".")[1] for key in _RULES if key.startswith("fleet.")}
                     - set(spec))
    if missing:
        raise ValueError(f"missing fleet keys {missing}")
    lo, hi = spec["energy_kwh_range"]
    if not 0.0 <= lo <= hi:
        raise ValueError(f"fleet.energy_kwh_range: expected 0 <= lo <= hi, got [{lo}, {hi}]")
    if lo > 0 and spec["p_max_kw"] == 0:
        raise ValueError(f"fleet.p_max_kw: expected above 0 when fleet.energy_kwh_range "
                         f"starts above 0, got {spec['p_max_kw']}")
    return FleetSpec(**spec)


def load_run_config(config_path: str | None, overrides: dict) -> RunConfig:
    """Parse the config file plus flag overrides.  Unknown keys in any
    section and bad values are errors that name the config file."""
    base_dir = Path(config_path).parent if config_path else Path.cwd()
    try:
        raw = {}
        if config_path:
            with open(config_path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        cfg = _parse_config(raw, overrides, base_dir)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{config_path or 'command line'}: {exc}") from None
    for name in _INPUTS:
        path = getattr(cfg, f"{name}_path")
        if path is not None and not path.is_file():
            raise ValueError(f"{name}: {path} is not a file" if path.exists()
                             else f"{name} file not found: {path}")
    return cfg


def _parse_config(raw, overrides: dict, base_dir: Path) -> RunConfig:
    """``raw`` and the flag values in ``overrides`` (by flag dest), each
    checked by ``_checked``, with the flags laid over the file; the file's
    paths resolve against ``base_dir``, the flags' against the working
    directory."""
    cfg, flags = _checked("config", raw), {}
    for dest, (key, _) in _FLAGS.items():
        if (value := overrides.get(dest)) is not None:
            if _RULES[key][0] is str:
                value = str(Path.cwd() / value)
            section, _, leaf = key.rpartition(".")
            (flags.setdefault(section, {}) if section else flags)[leaf] = value
    for key, value in _checked("config", flags).items():
        cfg[key] = {**cfg.get(key, {}), **value} if isinstance(value, dict) else value
    power_flow = cfg.get("power_flow", {})
    return RunConfig(
        **{f"{name}_path": _resolve(base_dir, cfg.get(name)) for name in _INPUTS},
        output_dir=_resolve(base_dir, cfg.get("output_dir")) or Path.cwd() / "out",
        seed=cfg.get("seed", 1),
        scheduler=SchedulerConfig(**{"lam" if key == "lambda" else key: value
                                     for key, value in cfg.get("scheduler", {}).items()}),
        horizon_steps=cfg.get("horizon_steps", 24),
        pf_tol=power_flow.get("tol", 1e-8),
        pf_max_iter=power_flow.get("max_iter", 20),
        reactive=ReactiveAssumptions(**cfg.get("reactive", {})),
        pv_mw=cfg.get("pv_mw", {}),
        fleet_spec=_fleet_spec(cfg["fleet"]) if "fleet" in cfg else None,
        slot=cfg.get("slot"),
    )


class Inputs(NamedTuple):
    """Every input file a command uses, loaded and cross-checked."""

    case: GridCase | None = None
    base: metrics.BaseLoadProfile | None = None
    sessions: tuple[EvSession, ...] = ()
    # simulate's session updates by re-planning step (``schedule_events``)
    events_by_step: dict[int, list[tuple[str, EvSession | None]]] | None = None
    # compare's uncoordinated and coordinated EV load (``metrics.aggregate_load``)
    ev_mw: tuple[np.ndarray, ...] = ()


def _on_load_buses(label, bus_ids, base: metrics.BaseLoadProfile) -> None:
    stray = sorted(set(bus_ids) - set(base.bus_ids))
    if stray:
        raise ValueError(f"{label}: EVs on bus(es) {stray}, which carry no base load row")


def preflight(cfg: RunConfig, command: str) -> Inputs:
    """Load and cross-check every input ``command`` uses, so that bad input
    fails before any schedule, power flow or output write."""
    _, required, optional = COMMANDS[command]
    reads = {*required, *optional}
    missing = [n for n in required if getattr(cfg, f"{n}_path") is None]
    if missing:
        raise ValueError(f"missing required input(s): {', '.join(missing)}")
    # the output directory, or else its nearest existing ancestor, must be one
    existing = next(p for p in (cfg.output_dir, *cfg.output_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"-o/output_dir: {existing} is not a directory"
                         + ("" if existing == cfg.output_dir
                            else f", so {cfg.output_dir} cannot be created"))
    if cfg.slot is not None and "slot" not in reads:
        raise ValueError(f"slot: only powerflow takes a snapshot slot; drop slot "
                         f"from {command}")
    if command == "gen-fleet":
        if cfg.fleet_spec is None:
            raise ValueError("config has no fleet spec")
        return Inputs(sessions=_generated_fleet(cfg))

    case = load_grid_case(cfg.case_path)
    pv_buses = sorted(b.id for b in case.buses if b.kind is BusKind.PV)
    not_pv = sorted(set(cfg.pv_mw) - set(pv_buses))
    if not_pv:
        raise ValueError(f"pv_mw: bus(es) {not_pv} are not PV buses of "
                         f"{cfg.case_path}; its PV buses are {pv_buses}")
    case = case.with_injections({bus: mw / case.s_base for bus, mw in cfg.pv_mw.items()}, {})
    if cfg.base_load_path is None:
        if cfg.slot is not None:
            raise ValueError(f"slot: powerflow without a base load has no slots and solves "
                             f"{cfg.case_path} as written; give a base_load or drop slot")
        return Inputs(case)

    base = metrics.read_base_load(cfg.base_load_path)
    kinds = {b.id: b.kind for b in case.buses}
    for bus_id in base.bus_ids:
        if bus_id not in kinds:
            raise ValueError(f"{cfg.base_load_path}: base load references unknown bus {bus_id}")
        if kinds[bus_id] is not BusKind.PQ:
            raise ValueError(f"{cfg.base_load_path}: base load bus {bus_id} is not a PQ bus")
    if cfg.slot is not None and not 0 <= cfg.slot < base.slots:
        raise ValueError(f"slot {cfg.slot} outside the base load's 0..{base.slots - 1}")
    with np.errstate(over="ignore"):    # schedules square the system load, power flows sum it
        total = base.mw.sum(axis=0)
        if not math.isfinite(np.sum(total * total)):
            raise ValueError(f"{cfg.base_load_path}: the squared system base load "
                             "sums to inf over the slots")
    sessions = ()
    if "sessions" in reads:
        if base.slots != cfg.scheduler.slots:
            raise ValueError(
                f"base load has {base.slots} slots, scheduler expects {cfg.scheduler.slots}"
            )
        sessions = _load_sessions(cfg)
        label = cfg.sessions_path or "fleet"
        _on_load_buses(label, [s.bus_id for s in sessions], base)
        # simulate's uncoordinated baseline only charges; schedule runs V2G
        for s in sessions if command == "simulate" else ():
            if s.energy_kwh < 0:
                raise ValueError(f"{label}: session {s.ev_id}: the uncoordinated baseline "
                                 f"needs a non-negative energy target, got {s.energy_kwh} kWh")
    if "steps" in reads and not 1 <= cfg.horizon_steps <= base.slots:
        raise ValueError(f"horizon_steps {cfg.horizon_steps} must be in 1..{base.slots}")
    events_by_step = None
    if "events" in reads and cfg.events_path is not None:
        events = coordinator.read_events(cfg.events_path)
        _on_load_buses(cfg.events_path, [change.bus_id for _, _, change in events
                                         if isinstance(change, EvSession)], base)
        try:
            events_by_step = coordinator.schedule_events(
                events, sessions, cfg.scheduler.slots, cfg.horizon_steps)
        except ValueError as exc:
            raise ValueError(f"{cfg.events_path}: {exc}") from None
    ev_mw = ()
    if "uncoordinated" in reads:
        ev_mw = tuple(metrics.aggregate_load(base, _checked_blocks(path, base))
                      for path in (cfg.uncoordinated_path, cfg.coordinated_path))
    return Inputs(case, base, sessions, events_by_step, ev_mw)


def _checked_blocks(path, base: metrics.BaseLoadProfile):
    """The ``(bus_ids, profiles_kw)`` blocks of one schedule file, whose
    header must have the base load's slots, each block checked against the
    base load's buses before it is summed."""
    slots, blocks = fileio.read_schedule_blocks(path)
    if slots != base.slots:
        raise ValueError(f"{path}: {slots} slots, base load has {base.slots}")
    for _, bus_ids, profiles_kw in blocks:
        _on_load_buses(path, bus_ids, base)
        yield bus_ids, profiles_kw


def _load_sessions(cfg: RunConfig) -> tuple[EvSession, ...]:
    """The sessions file or the generated fleet, sorted by ev_id."""
    sched = cfg.scheduler
    if cfg.sessions_path is not None:
        sessions = sorted(fleet.read_sessions(cfg.sessions_path),
                          key=lambda s: s.ev_id)
        try:
            return fleet.check_sessions(sessions, sched.slots, sched.slot_hours)
        except ValueError as exc:
            raise ValueError(f"{cfg.sessions_path}: {exc}") from None
    if cfg.fleet_spec is not None:
        return tuple(sorted(_generated_fleet(cfg), key=lambda s: s.ev_id))
    raise ValueError("config provides neither sessions nor a fleet spec")


def _generated_fleet(cfg: RunConfig) -> tuple[EvSession, ...]:
    """The fleet of the config's spec, in generation order, on a slot grid
    with room for a session."""
    sched = cfg.scheduler
    if sched.slots < 2:
        raise ValueError(f"scheduler.slots: expected at least 2 to generate a fleet, "
                         f"got {sched.slots}")
    return fleet.generate_fleet(cfg.seed, cfg.fleet_spec, sched.slots, sched.slot_hours)


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_report(out: Path, report: dict) -> None:
    """``report.json`` and ``report.txt`` in ``out``, and the text on stdout."""
    _write_json(out / "report.json", report)
    text = metrics.render_report(report)
    with open(out / "report.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(text, end="")


def _fixed(value: float, places: int) -> str:
    """``value`` to ``places`` decimals; a value that rounds to zero prints
    without the sign of its round-off, as ``0.00`` and not ``-0.00``."""
    return f"{round(value, places) + 0.0:.{places}f}"


def cmd_powerflow(cfg: RunConfig, inputs: Inputs) -> int:
    case, base = inputs.case, inputs.base
    if base is not None:
        slot = cfg.slot if cfg.slot is not None else int(np.argmax(base.mw.sum(axis=0)))
        solution = metrics.evaluate_grid_at_slot(
            case, base, np.zeros_like(base.mw), slot, cfg.reactive,
            tol=cfg.pf_tol, max_iter=cfg.pf_max_iter,
        )
    else:
        slot = None
        solution = solve_power_flow(case, tol=cfg.pf_tol, max_iter=cfg.pf_max_iter)

    payload = {
        "slot": slot,
        "iterations": solution.iterations,
        "max_mismatch": solution.max_mismatch,
        "buses": [
            {
                "id": bus.id,
                "kind": bus.kind.value,
                "v_mag_pu": float(solution.v_mag[i]),
                "v_angle_deg": math.degrees(float(solution.v_angle[i])),
                "p_mw": float(solution.p_inj[i]) * case.s_base,
                "q_mvar": float(solution.q_inj[i]) * case.s_base,
            }
            for i, bus in enumerate(case.buses)
        ],
        "branches": [
            {
                "from_bus": f.branch.from_bus,
                "to_bus": f.branch.to_bus,
                "i_from_a": f.i_from_amps,
                "p_from_mw": f.s_from_mva.real,
                "q_from_mvar": f.s_from_mva.imag,
                "loss_mw": f.loss_mva.real,
            }
            for f in solution.flows
        ],
    }
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.output_dir / "powerflow.json", payload)

    print(f"converged in {solution.iterations} iterations, "
          f"max mismatch {solution.max_mismatch:.3e} pu")
    print(f"{'bus':<5}{'kind':<7}{'v (pu)':>9}{'angle (deg)':>13}"
          f"{'P (MW)':>10}{'Q (MVAr)':>10}")
    for row in payload["buses"]:
        print(f"{row['id']:<5}{row['kind']:<7}{row['v_mag_pu']:>9.4f}"
              f"{_fixed(row['v_angle_deg'], 3):>13}{_fixed(row['p_mw'], 2):>10}"
              f"{_fixed(row['q_mvar'], 2):>10}")
    print(f"{'branch':<9}{'I from (A)':>12}{'P from (MW)':>13}{'loss (MW)':>11}")
    for row in payload["branches"]:
        label = "{}-{}".format(row["from_bus"], row["to_bus"])
        print(f"{label:<9}{row['i_from_a']:>12.1f}"
              f"{_fixed(row['p_from_mw'], 2):>13}{_fixed(row['loss_mw'], 4):>11}")
    return 0


def cmd_schedule(cfg: RunConfig, inputs: Inputs) -> int:
    sessions = inputs.sessions
    base_total = inputs.base.mw.sum(axis=0)
    profiles, trace = run_until_converged(cfg.scheduler, base_total, list(sessions))

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_schedules(cfg.output_dir / "schedules_coordinated.csv",
                           [s.ev_id for s in sessions], [s.bus_id for s in sessions],
                           profiles)
    fileio.write_traces(cfg.output_dir / "traces.csv", [trace])

    status = "converged" if trace.converged else "did not converge"
    print(f"{status} after {trace.iterations} iterations; "
          f"objective {trace.objectives[0]:.3f} -> {trace.objectives[-1]:.3f} MW^2")
    for line in trace.diagnostics:
        print(f"note: {line}")
    return 0


def _solve_scenario(cfg: RunConfig, inputs: Inputs, label: str, ev_mw: np.ndarray) -> tuple:
    return metrics.solve_scenario(label, inputs.case, inputs.base, ev_mw, cfg.reactive,
                                  tol=cfg.pf_tol, max_iter=cfg.pf_max_iter)


def cmd_simulate(cfg: RunConfig, inputs: Inputs) -> int:
    case, base, sessions = inputs.case, inputs.base, inputs.sessions
    slots = cfg.scheduler.slots
    uncoordinated = np.array([
        fleet.uncoordinated_profile(s, slots, cfg.scheduler.slot_hours) for s in sessions
    ]).reshape(-1, slots)
    unc_ids = [s.ev_id for s in sessions]
    unc_buses = [s.bus_id for s in sessions]
    # solved before the horizon, so that a grid it cannot solve fails first
    ev_unc = metrics.aggregate_load(base, [(unc_buses, uncoordinated)])
    before = _solve_scenario(cfg, inputs, "uncoordinated", ev_unc)

    base_total = base.mw.sum(axis=0)
    result = coordinator.run_receding_horizon(
        cfg.scheduler, base_total, sessions, cfg.horizon_steps, inputs.events_by_step
    )
    coord_buses = [result.bus_ids[e] for e in result.ev_ids]

    ev_coord = metrics.aggregate_load(base, [(coord_buses, result.committed_kw)])
    after = _solve_scenario(cfg, inputs, "coordinated", ev_coord)
    report = metrics.compare_scenarios(case, base, ev_unc, ev_coord, before, after,
                                       result.flags)

    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_schedules(out / "schedules_uncoordinated.csv",
                           unc_ids, unc_buses, uncoordinated)
    fileio.write_schedules(out / "schedules_coordinated.csv",
                           list(result.ev_ids), coord_buses, result.committed_kw)
    fileio.write_traces(out / "traces.csv", result.step_traces)
    _write_report(out, report)
    total_unc, total_coord = base.mw + ev_unc, base.mw + ev_coord
    fileio.write_system_aggregate(out / "system_load.csv", base_total,
                                  total_unc.sum(axis=0), total_coord.sum(axis=0))
    fileio.write_bus_aggregate(out / "bus_load.csv", base.bus_ids, base.mw,
                               total_unc, total_coord)
    return 0


def cmd_compare(cfg: RunConfig, inputs: Inputs) -> int:
    ev_unc, ev_coord = inputs.ev_mw
    report = metrics.compare_scenarios(
        inputs.case, inputs.base, ev_unc, ev_coord,
        _solve_scenario(cfg, inputs, "uncoordinated", ev_unc),
        _solve_scenario(cfg, inputs, "coordinated", ev_coord),
    )
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    _write_report(cfg.output_dir, report)
    return 0


def cmd_gen_fleet(cfg: RunConfig, inputs: Inputs) -> int:
    sessions = inputs.sessions
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    fleet.write_sessions(cfg.output_dir / "sessions.csv", sessions)
    print(f"wrote {len(sessions)} sessions")
    return 0


# every flag besides -c/--config, by its dest (the flag is "--" + the dest
# with "-" for "_"): the config key it overrides, whose row gives its type,
# and its help
_FLAGS = {
    "output": ("output_dir", "output directory"),
    "case": ("case", "grid case file"), "base_load": ("base_load", "base load CSV"),
    "sessions": ("sessions", "EV sessions CSV"), "events": ("events", "scripted events CSV"),
    "uncoordinated": ("uncoordinated", "uncoordinated schedules CSV"),
    "coordinated": ("coordinated", "coordinated schedules CSV"),
    "seed": ("seed", "fleet seed"), "lambda": ("scheduler.lambda", "scheduler lambda"),
    "epsilon": ("scheduler.epsilon", "scheduler epsilon"),
    "max_iterations": ("scheduler.max_iterations", "scheduler max_iterations"),
    "steps": ("horizon_steps", "horizon steps"), "slot": ("slot", "snapshot slot")}
_SCHEDULE = ("sessions", "seed", "lambda", "epsilon", "max_iterations")
# each command's handler, required inputs and other flags; any flag outside
# its row is a usage error
COMMANDS = {"powerflow": (cmd_powerflow, ("case",), ("base_load", "slot")),
            "schedule": (cmd_schedule, ("case", "base_load"), _SCHEDULE),
            "simulate": (cmd_simulate, ("case", "base_load"), (*_SCHEDULE, "events", "steps")),
            "compare": (cmd_compare, ("case", "base_load", "uncoordinated", "coordinated"), ()),
            "gen-fleet": (cmd_gen_fleet, (), ("seed",))}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evgrid",
        description="Bi-directional EV charging coordination on a 9-bus grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, required, optional) in COMMANDS.items():
        # no prefixes: "--s" is no flag, where it could silently mean "--slot"
        p = sub.add_parser(name, allow_abbrev=False)
        p.set_defaults(handler=handler)
        p.add_argument("-c", "--config", help="JSON configuration file")
        p.add_argument("-o", "--output", help=_FLAGS["output"][1])
        for dest in (*required, *optional):
            key, text = _FLAGS[dest]
            p.add_argument("--" + dest.replace("_", "-"), type=_RULES[key][0], help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, vars(args))   # flags override the file
        # schedule and simulate generate a fleet from the seed only without sessions
        if ("sessions" in vars(args) and args.seed is not None
                and cfg.sessions_path is not None):
            raise ValueError(f"--seed: the sessions come from {cfg.sessions_path}, so no "
                             "fleet is generated; drop --seed or the sessions file")
        return args.handler(cfg, preflight(cfg, args.command))
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
