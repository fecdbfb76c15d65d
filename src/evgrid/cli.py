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
from dataclasses import dataclass, field, fields
from pathlib import Path

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

# every input error of the package (grid, fleet, scheduler, coordinator,
# metrics) is a ValueError
USER_ERRORS = (ValueError, OSError, PowerFlowError)

# top-level config keys, with the numbers and paths typed as for ``_keys``
_CONFIG_KEYS = {
    **dict.fromkeys(("case", "base_load", "sessions", "events", "uncoordinated",
                     "coordinated", "output_dir"), "path"),
    **dict.fromkeys(("scheduler", "power_flow", "reactive", "pv_mw", "fleet"), ""),
    "seed": "int", "horizon_steps": "int", "slot": "int",
}


@dataclass
class RunConfig:
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


def _kinds(cls) -> dict[str, str]:
    """Field name -> annotation ("int", "float", ...) of a dataclass."""
    return {f.name: f.type for f in fields(cls)}


def _number(key: str, value, kind=float):
    """``value`` as a ``kind`` (int or float); anything but a JSON number, of
    integral value for an int, is an error that names ``key``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (kind is int and not float(value).is_integer())):
        raise ValueError(f"{key}: expected {'an integer' if kind is int else 'a number'}, "
                         f"got {value!r}")
    return kind(value)


_NUMBER_KINDS = {"int": int, "float": float}


def _typed(key: str, value, kind: str):
    """``value`` checked as ``kind``: "int" or "float" as for ``_number``, and
    "path" a string or null (absent); any other kind passes as it is."""
    if kind in _NUMBER_KINDS:
        return _number(key, value, _NUMBER_KINDS[kind])
    if kind == "path" and not isinstance(value, (str, type(None))):
        raise ValueError(f"{key}: expected a path string, got {value!r}")
    return value


def _keys(name: str, section, kinds: dict[str, str] | None = None) -> dict:
    """A copy of config section ``name``.  Given ``kinds``, a key outside it
    is an error, and each value is checked by ``_typed`` against its kind;
    errors name the key as ``name.key``."""
    if not isinstance(section, dict):
        raise ValueError(f"{name} must be a JSON object")
    if kinds is None:
        return dict(section)
    unknown = sorted(set(section) - set(kinds))
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}")
    return {key: _typed(f"{name}.{key}", value, kinds[key])
            for key, value in section.items()}


def _by_bus(name: str, section, kind) -> dict:
    """A JSON object keyed by bus id, such as ``{"5": 150}``, as ``{5: 150}``."""
    out = {}
    for key, value in _keys(name, section).items():
        try:
            bus_id = int(key)
        except ValueError:
            raise ValueError(f"{name}: bus id {key!r} is not an integer") from None
        out[bus_id] = _number(f"{name}.{key}", value, kind)
        if not math.isfinite(out[bus_id]):
            raise ValueError(f"{name}.{key}: expected a finite number, got {value!r}")
    return out


def _fleet_spec(section) -> FleetSpec:
    kinds = _kinds(FleetSpec)
    spec = _keys("fleet", section, kinds)
    missing = sorted(set(kinds) - set(spec))
    if missing:
        raise ValueError(f"missing fleet keys {missing}")
    spec["counts"] = _by_bus("fleet.counts", spec["counts"], int)
    bounds = spec["energy_kwh_range"]
    if not isinstance(bounds, list) or len(bounds) != 2:
        raise ValueError(f"fleet.energy_kwh_range: expected [lo, hi], got {bounds!r}")
    spec["energy_kwh_range"] = tuple(_number("fleet.energy_kwh_range", v) for v in bounds)
    floats = [(key, spec[key]) for key in section if kinds[key] == "float"]
    for key, value in [*floats, *(("energy_kwh_range", v) for v in spec["energy_kwh_range"])]:
        if not math.isfinite(value):
            raise ValueError(f"fleet.{key}: expected a finite number, got {value!r}")
    for bus, count in spec["counts"].items():
        if count < 0:
            raise ValueError(f"fleet.counts.{bus}: expected a non-negative count, got {count}")
    lo, hi = spec["energy_kwh_range"]
    if not 0.0 <= lo <= hi:
        raise ValueError(f"fleet.energy_kwh_range: expected 0 <= lo <= hi, got [{lo}, {hi}]")
    if spec["d_max_kw"] > 0:
        raise ValueError(f"fleet.d_max_kw: expected at most 0, got {spec['d_max_kw']}")
    if spec["p_max_kw"] < 0:
        raise ValueError(f"fleet.p_max_kw: expected at least 0, got {spec['p_max_kw']}")
    if lo > 0 and spec["p_max_kw"] == 0:
        raise ValueError(f"fleet.p_max_kw: expected above 0 when fleet.energy_kwh_range "
                         f"starts above 0, got {spec['p_max_kw']}")
    if spec["duration_mean_slots"] < 1:
        raise ValueError(f"fleet.duration_mean_slots: expected at least 1, "
                         f"got {spec['duration_mean_slots']}")
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
    for name in ("case", "base_load", "sessions", "events", "uncoordinated", "coordinated"):
        path = getattr(cfg, f"{name}_path")
        if path is not None and not path.is_file():
            raise ValueError(f"{name}: {path} is not a file" if path.exists()
                             else f"{name} file not found: {path}")
    return cfg


def _parse_config(raw, overrides: dict, base_dir: Path) -> RunConfig:
    raw = _keys("config", raw, _CONFIG_KEYS)

    def path_of(key: str) -> Path | None:
        if overrides.get(key) is not None:
            return _resolve(Path.cwd(), overrides[key])
        return _resolve(base_dir, raw.get(key))

    def pick(flag: str, key: str, default):
        if overrides.get(flag) is not None:
            return overrides[flag]
        return raw.get(key, default)

    sched_raw = _keys("scheduler", raw.get("scheduler", {}),
                      {**_kinds(SchedulerConfig), "lambda": "float"})
    for key in ("lambda", "epsilon", "max_iterations"):
        if overrides.get(key) is not None:
            sched_raw[key] = overrides[key]
    if "lambda" in sched_raw:
        sched_raw["lam"] = sched_raw.pop("lambda")
    scheduler = SchedulerConfig(**sched_raw)
    for f in fields(scheduler):
        if not 0 < (value := getattr(scheduler, f.name)) < math.inf:
            raise ValueError(f"scheduler.{'lambda' if f.name == 'lam' else f.name}: "
                             f"expected a finite positive number, got {value!r}")
    pf_raw = _keys("power_flow", raw.get("power_flow", {}),
                   {"tol": "float", "max_iter": "int"})
    pf_tol, pf_max_iter = pf_raw.get("tol", 1e-8), pf_raw.get("max_iter", 20)
    if not 0 < pf_tol < math.inf:
        raise ValueError(f"power_flow.tol: expected a finite positive number, got {pf_tol!r}")
    if pf_max_iter < 1:
        raise ValueError(f"power_flow.max_iter: expected at least 1, got {pf_max_iter!r}")
    reactive = ReactiveAssumptions(**_keys("reactive", raw.get("reactive", {}),
                                           _kinds(ReactiveAssumptions)))
    for f in fields(reactive):
        if not 0.0 < (pf := getattr(reactive, f.name)) <= 1.0:
            raise ValueError(f"reactive.{f.name}: expected a power factor in (0, 1], "
                             f"got {pf!r}")
    seed = pick("seed", "seed", 1)
    if seed < 0:
        raise ValueError(f"seed: expected a non-negative integer, got {seed!r}")

    if overrides.get("output") is not None:
        output_dir = _resolve(Path.cwd(), overrides["output"])
    elif raw.get("output_dir") is not None:
        output_dir = _resolve(base_dir, raw["output_dir"])
    else:
        output_dir = Path.cwd() / "out"

    return RunConfig(
        case_path=path_of("case"),
        base_load_path=path_of("base_load"),
        sessions_path=path_of("sessions"),
        events_path=path_of("events"),
        uncoordinated_path=path_of("uncoordinated"),
        coordinated_path=path_of("coordinated"),
        output_dir=output_dir,
        seed=seed,
        scheduler=scheduler,
        horizon_steps=pick("steps", "horizon_steps", 24),
        pf_tol=pf_tol,
        pf_max_iter=pf_max_iter,
        reactive=reactive,
        pv_mw=_by_bus("pv_mw", raw.get("pv_mw", {}), float),
        fleet_spec=_fleet_spec(raw["fleet"]) if "fleet" in raw else None,
        slot=pick("slot", "slot", None),
    )


@dataclass
class Inputs:
    """Every input file a command uses, loaded and cross-checked."""

    case: GridCase | None = None
    base: metrics.BaseLoadProfile | None = None
    sessions: tuple[EvSession, ...] = ()
    # simulate's session updates by re-planning step (``schedule_events``)
    events_by_step: dict[int, list[tuple[str, EvSession | None]]] = field(default_factory=dict)
    # compare's uncoordinated and coordinated EV load (``metrics.aggregate_load``)
    ev_mw: list[np.ndarray] = field(default_factory=list)


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
        return Inputs(sessions=fleet.generate_fleet(
            cfg.seed, cfg.fleet_spec, cfg.scheduler.slots, cfg.scheduler.slot_hours))

    case = load_grid_case(cfg.case_path)
    pv_buses = sorted(b.id for b in case.buses if b.kind is BusKind.PV)
    not_pv = sorted(set(cfg.pv_mw) - set(pv_buses))
    if not_pv:
        raise ValueError(f"pv_mw: bus(es) {not_pv} are not PV buses of "
                         f"{cfg.case_path}; its PV buses are {pv_buses}")
    case = case.with_injections({bus: mw / case.s_base for bus, mw in cfg.pv_mw.items()}, {})
    inputs = Inputs(case=case)
    if cfg.base_load_path is None:
        if cfg.slot is not None:
            raise ValueError(f"slot: powerflow without a base load has no slots and solves "
                             f"{cfg.case_path} as written; give a base_load or drop slot")
        return inputs

    base = inputs.base = metrics.read_base_load(cfg.base_load_path)
    base.validate_against(case)
    if cfg.slot is not None and not 0 <= cfg.slot < base.slots:
        raise ValueError(f"slot {cfg.slot} outside the base load's 0..{base.slots - 1}")
    with np.errstate(over="ignore"):    # schedules square the system load, power flows sum it
        total = base.mw.sum(axis=0)
        if not math.isfinite(np.sum(total * total)):
            raise ValueError(f"{cfg.base_load_path}: the squared system base load "
                             "sums to inf over the slots")
    if "sessions" in reads:
        if base.slots != cfg.scheduler.slots:
            raise ValueError(
                f"base load has {base.slots} slots, scheduler expects {cfg.scheduler.slots}"
            )
        inputs.sessions = _load_sessions(cfg)
        label = cfg.sessions_path or "fleet"
        _on_load_buses(label, [s.bus_id for s in inputs.sessions], base)
        # simulate's uncoordinated baseline only charges; schedule runs V2G
        for s in inputs.sessions if command == "simulate" else ():
            if s.energy_kwh < 0:
                raise ValueError(f"{label}: session {s.ev_id}: the uncoordinated baseline "
                                 f"needs a non-negative energy target, got {s.energy_kwh} kWh")
    if "steps" in reads and not 1 <= cfg.horizon_steps <= base.slots:
        raise ValueError(f"horizon_steps {cfg.horizon_steps} must be in 1..{base.slots}")
    if "events" in reads and cfg.events_path is not None:
        events = coordinator.read_events(cfg.events_path)
        _on_load_buses(cfg.events_path, [change.bus_id for _, _, change in events
                                         if isinstance(change, EvSession)], base)
        try:
            inputs.events_by_step = coordinator.schedule_events(
                events, inputs.sessions, cfg.scheduler.slots,
                cfg.horizon_steps)
        except coordinator.CoordinatorError as exc:
            raise ValueError(f"{cfg.events_path}: {exc}") from None
    if "uncoordinated" in reads:
        for path in (cfg.uncoordinated_path, cfg.coordinated_path):
            inputs.ev_mw.append(metrics.aggregate_load(base, _checked_blocks(path, base)))
    return inputs


def _checked_blocks(path, base: metrics.BaseLoadProfile):
    """The ``(bus_ids, profiles_kw)`` blocks of one schedule file, each
    checked against the base load before it is summed."""
    for _, bus_ids, profiles_kw in fileio.read_schedule_blocks(path):
        if profiles_kw.shape[1] != base.slots:
            raise ValueError(f"{path}: {profiles_kw.shape[1]} slots, "
                             f"base load has {base.slots}")
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
        except fleet.FleetError as exc:
            raise ValueError(f"{cfg.sessions_path}: {exc}") from None
    if cfg.fleet_spec is not None:
        return tuple(sorted(fleet.generate_fleet(cfg.seed, cfg.fleet_spec, sched.slots,
                                                 sched.slot_hours), key=lambda s: s.ev_id))
    raise ValueError("config provides neither sessions nor a fleet spec")


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
              f"{row['v_angle_deg']:>13.3f}{row['p_mw']:>10.2f}"
              f"{row['q_mvar']:>10.2f}")
    print(f"{'branch':<9}{'I from (A)':>12}{'P from (MW)':>13}{'loss (MW)':>11}")
    for row in payload["branches"]:
        label = "{}-{}".format(row["from_bus"], row["to_bus"])
        print(f"{label:<9}{row['i_from_a']:>12.1f}"
              f"{row['p_from_mw']:>13.2f}{row['loss_mw']:>11.4f}")
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


# every flag besides -c/--config and -o/--output, by the key it overrides
# (the flag is "--" + the key with "-" for "_"): its type and help
_FLAGS = {
    "case": (str, "grid case file"), "base_load": (str, "base load CSV"),
    "sessions": (str, "EV sessions CSV"), "events": (str, "scripted events CSV"),
    "uncoordinated": (str, "uncoordinated schedules CSV"),
    "coordinated": (str, "coordinated schedules CSV"),
    "seed": (int, "fleet seed"), "lambda": (float, "scheduler lambda"),
    "epsilon": (float, "scheduler epsilon"), "max_iterations": (int, "scheduler max_iterations"),
    "steps": (int, "horizon steps"), "slot": (int, "snapshot slot")}
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
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("-c", "--config", help="JSON configuration file")
        p.add_argument("-o", "--output", help="output directory")
        for key in (*required, *optional):
            kind, text = _FLAGS[key]
            p.add_argument("--" + key.replace("_", "-"), type=kind, help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, vars(args))   # flags override the file
        return args.handler(cfg, preflight(cfg, args.command))
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
