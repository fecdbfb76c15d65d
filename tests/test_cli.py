"""Command-line interface: configuration, subcommands, and output files."""

import argparse
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (UNITY_CASE_TEXT, DATA_DIR, DESK_DIR, assert_identical, cell_text,
                      file_ints, finite_floats, make_session, round_trip, two_bus_text)
from evgrid import cli, coordinator, fileio, grid, metrics
from evgrid.cli import main
from evgrid.fileio import read_schedule_blocks, read_schedules, write_schedules
from evgrid.fleet import read_sessions, write_sessions

ROOT = Path(__file__).resolve().parents[1]


def write_config(path: Path, **entries) -> Path:
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


def small_inputs(tmp_path: Path, slots: int = 16, n_sessions: int = 4):
    """A compact runnable setup on the bundled nine-bus case."""
    base_path = tmp_path / "base.csv"
    rows = ["slot,bus_id,mw"]
    shape = 80.0 + 30.0 * np.sin(np.linspace(0.0, 2.0 * np.pi, slots))
    for t in range(slots):
        rows.append(f"{t},5,{float(0.4 * shape[t])!r}")
        rows.append(f"{t},7,{float(0.2 * shape[t])!r}")
        rows.append(f"{t},9,{float(0.4 * shape[t])!r}")
    base_path.write_text("\n".join(rows) + "\n")

    sessions = [
        make_session(ev_id=f"b5e{k}", bus_id=5, t_start=k, t_end=12 + k,
                     energy_kwh=8.0 + k, p_max_kw=200.0, d_max_kw=-200.0)
        for k in range(n_sessions)
    ]
    sessions_path = tmp_path / "sessions.csv"
    write_sessions(sessions_path, sessions)

    config = write_config(
        tmp_path / "config.json",
        case=str(DATA_DIR / "wscc9.case"),
        base_load=str(base_path),
        sessions=str(sessions_path),
        seed=3,
        scheduler={"lambda": 2.0, "epsilon": 1e-6, "max_iterations": 300,
                   "slots": slots, "slot_hours": 0.25},
        horizon_steps=4,
    )
    return config


def read_tree(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def desk_variant(tmp_path: Path, **changes) -> Path:
    """The shipped desk config with absolute input paths and some sections
    merged with (or, for ``pv_mw``, replaced by) ``changes``."""
    raw = json.loads((DESK_DIR / "config.json").read_text())
    for key in ("case", "base_load", "sessions", "events"):
        raw[key] = str((DESK_DIR / raw[key]).resolve())
    for section, values in changes.items():
        raw[section] = values if section == "pv_mw" else {**raw[section], **values}
    return write_config(tmp_path / "desk.json", **raw)


def desk_with_base_row(tmp_path: Path, mw: str, buses=(5,)) -> tuple[Path, Path]:
    """The desk config, and the copy of its base load that it reads, with
    the rows of slot 20 on ``buses`` set to ``mw``."""
    text = (DESK_DIR / "base_load.csv").read_text()
    for bus in buses:
        text = re.sub(rf"\n20,{bus},[^\n]*", f"\n20,{bus},{mw}", text)
    base = tmp_path / "base_load.csv"
    base.write_text(text)
    raw = json.loads(desk_variant(tmp_path).read_text())
    return write_config(tmp_path / "desk.json", **{**raw, "base_load": str(base)}), base


def fails_before_any_work(tmp_path, capsys, argv, message, out=None) -> None:
    """One located error line, exit 1, and no output directory: ``out`` (by
    default a new path under ``tmp_path``) is left as it was."""
    out = out or tmp_path / "out"
    was_file = out.is_file()
    assert main([*argv, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert message in err
    assert out.is_file() if was_file else not out.exists()


def rejected_by_the_parser(tmp_path, capsys, argv, flag) -> None:
    """Exit 2 with a usage error that names ``flag``, before any file is
    opened: no output directory."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([*argv, "-o", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err, err
    assert not out.exists()


def no_power_flow(*args, **kwargs):
    raise AssertionError("solve_power_flow was called")


@pytest.fixture
def no_horizon(monkeypatch):
    """Fail the test if the receding horizon starts."""
    def fail(*args, **kwargs):
        raise AssertionError("run_receding_horizon was called")

    monkeypatch.setattr(coordinator, "run_receding_horizon", fail)


class TestConfigErrors:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", cases="typo.case")
        assert main(["powerflow", "-c", str(config)]) == 1
        assert "unknown config keys ['cases']" in capsys.readouterr().err

    def test_missing_file_reported_with_path(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", case="absent.case")
        assert main(["powerflow", "-c", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "case file not found" in err
        assert "absent.case" in err

    def test_bad_scheduler_parameter(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json",
                              scheduler={"lambda": -1.0})
        assert main(["schedule", "-c", str(config)]) == 1
        assert "positive" in capsys.readouterr().err

    def test_missing_required_inputs_named(self, capsys):
        assert main(["powerflow"]) == 1
        assert "missing required input(s): case" in capsys.readouterr().err

    def test_no_sessions_and_no_fleet(self, tmp_path, capsys):
        config = small_inputs(tmp_path)
        raw = json.loads(config.read_text())
        del raw["sessions"]
        write_config(config, **raw)
        assert main(["schedule", "-c", str(config)]) == 1
        assert "neither sessions nor a fleet spec" in capsys.readouterr().err

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_paths_resolve_relative_to_config(self, tmp_path, monkeypatch,
                                              capsys):
        (tmp_path / "nested").mkdir()
        case_path = tmp_path / "nested" / "unity.case"
        case_path.write_text(UNITY_CASE_TEXT)
        config = write_config(tmp_path / "nested" / "c.json", case="unity.case")
        elsewhere = tmp_path / "cwd"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["powerflow", "-c", str(config),
                     "-o", str(tmp_path / "out")]) == 0
        capsys.readouterr()

    def test_flag_overrides_config_path(self, tmp_path, capsys):
        case_path = tmp_path / "unity.case"
        case_path.write_text(UNITY_CASE_TEXT)
        config = write_config(tmp_path / "c.json", case="absent.case",
                              output_dir=str(tmp_path / "out"))
        # the config alone would fail; the flag must win
        assert main(["powerflow", "-c", str(config),
                     "--case", str(case_path)]) == 0
        capsys.readouterr()


# every flag besides -c/--config and -o/--output, with a value and the
# key it parses into; then each command's flags
FLAGS = {"--case": ("x.case", "case"), "--base-load": ("x.csv", "base_load"),
         "--sessions": ("x.csv", "sessions"), "--events": ("x.csv", "events"),
         "--uncoordinated": ("x.csv", "uncoordinated"),
         "--coordinated": ("x.csv", "coordinated"), "--seed": ("4", "seed"),
         "--lambda": ("2.5", "lambda"), "--epsilon": ("0.5", "epsilon"),
         "--max-iterations": ("7", "max_iterations"), "--steps": ("3", "steps"),
         "--slot": ("2", "slot")}
SCHEDULE_FLAGS = {"--case", "--base-load", "--sessions", "--seed", "--lambda", "--epsilon",
                  "--max-iterations"}
COMMAND_FLAGS = {"powerflow": {"--case", "--base-load", "--slot"},
                 "schedule": SCHEDULE_FLAGS,
                 "simulate": SCHEDULE_FLAGS | {"--events", "--steps"},
                 "compare": {"--case", "--base-load", "--uncoordinated", "--coordinated"},
                 "gen-fleet": {"--seed"}}


class TestFlags:
    @pytest.mark.parametrize("flag", sorted(FLAGS))
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_command_takes_only_the_flags_it_reads(self, tmp_path, capsys, command, flag):
        # a flag the command does not read would be dropped without a word,
        # or checked as a file that the command never opens
        value, key = FLAGS[flag]
        if flag in COMMAND_FLAGS[command]:
            args = cli._build_parser().parse_args([command, flag, value])
            assert str(vars(args)[key]) == value
        else:
            rejected_by_the_parser(tmp_path, capsys, [command, flag, value], flag)

    @pytest.mark.parametrize("argv", [["powerflow", "--s", "3"], ["simulate", "--max", "50"],
                                      ["compare", "--coord", "x.csv"], ["gen-fleet", "--se", "2"]])
    def test_no_flag_prefixes(self, tmp_path, capsys, argv):
        # a prefix could silently mean a flag the user did not name
        rejected_by_the_parser(tmp_path, capsys, argv, argv[1])

    def test_option_count(self):
        subparsers = next(action for action in cli._build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        options = [action for parser in subparsers.choices.values()
                   for action in parser._actions
                   if action.option_strings and action.dest != "help"]
        # -c/--config and -o/--output in each command, plus its flags
        assert len(options) == 34 == sum(2 + len(flags) for flags in COMMAND_FLAGS.values())


class TestPreflight:
    def test_unsolvable_uncoordinated_grid_fails_before_the_horizon(self, tmp_path, capsys,
                                                                     no_horizon):
        config, _ = desk_with_base_row(tmp_path, "1e6")
        fails_before_any_work(tmp_path, capsys, ["simulate", "-c", str(config)],
                              "error: power flow failed for the uncoordinated scenario at "
                              "slot 20: power flow did not converge in 20 iterations")

    @pytest.mark.parametrize("command", ["schedule", "simulate"])
    def test_overflowing_base_load_rejected(self, tmp_path, capsys, monkeypatch, no_horizon,
                                            command):
        # every objective would be inf, so none could show an increase
        def no_schedule(*args, **kwargs):
            raise AssertionError("run_until_converged was called")

        monkeypatch.setattr(cli, "run_until_converged", no_schedule)
        config, base = desk_with_base_row(tmp_path, "1e300")
        fails_before_any_work(tmp_path, capsys, [command, "-c", str(config)],
                              f"error: {base}: the squared system base load sums to inf "
                              "over the slots\n")

    @pytest.mark.parametrize("command", ["powerflow", "compare"])
    def test_overflowing_system_base_load_rejected(self, tmp_path, capsys, monkeypatch,
                                                   command):
        # the slot's system sum itself overflows, so numpy would warn
        # before the power flow failed
        monkeypatch.setattr(cli, "solve_power_flow", no_power_flow)
        monkeypatch.setattr(metrics, "solve_power_flow", no_power_flow)
        config, base = desk_with_base_row(tmp_path, "1e308", buses=(5, 7))
        argv = [command, "-c", str(config)]
        if command == "compare":
            schedule = tmp_path / "schedule.csv"
            write_schedules(schedule, ["a"], [5], np.ones((1, 96)))
            argv += ["--uncoordinated", str(schedule), "--coordinated", str(schedule)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fails_before_any_work(tmp_path, capsys, argv,
                                  f"error: {base}: the squared system base load sums to "
                                  "inf over the slots\n")

    @pytest.mark.parametrize("command,bus,message", [
        ("powerflow", 12, "base load references unknown bus 12"),
        ("simulate", 2, "base load bus 2 is not a PQ bus"),
    ], ids=["unknown", "pv"])
    def test_base_load_bus_names_the_file(self, tmp_path, capsys, no_horizon, command, bus,
                                          message):
        base = tmp_path / "base_load.csv"
        base.write_text((DESK_DIR / "base_load.csv").read_text()
                        + "".join(f"{t},{bus},1.0\n" for t in range(96)))
        raw = json.loads(desk_variant(tmp_path).read_text())
        config = write_config(tmp_path / "desk.json", **{**raw, "base_load": str(base)})
        fails_before_any_work(tmp_path, capsys, [command, "-c", str(config)],
                              f"error: {base}: {message}\n")

    @pytest.mark.parametrize("section,values,message", [
        ("scheduler", {"workers": 1}, "unknown scheduler keys ['workers']"),
        ("power_flow", {"tolerance": 1e-6}, "unknown power_flow keys ['tolerance']"),
        ("reactive", {"pf": 0.9}, "unknown reactive keys ['pf']"),
        ("fleet", {"colour": "red"}, "unknown fleet keys ['colour']"),
    ])
    def test_unknown_section_key(self, tmp_path, capsys, section, values, message):
        config = desk_variant(tmp_path, **{section: values})
        fails_before_any_work(tmp_path, capsys, ["simulate", "-c", str(config)],
                              f"desk.json: {message}")

    @pytest.mark.parametrize("bus", ["12", "0", "5"])
    def test_pv_dispatch_on_a_bus_that_is_not_pv(self, tmp_path, capsys, bus):
        config = desk_variant(tmp_path, pv_mw={bus: 5.0})
        fails_before_any_work(tmp_path, capsys, ["simulate", "-c", str(config)],
                              f"pv_mw: bus(es) [{bus}] are not PV buses")

    def test_pv_dispatch_without_a_base_load(self, tmp_path, capsys):
        # the dispatch is applied to the case, so the case alone is solved
        # with it too
        config = write_config(tmp_path / "pv.json", case=str(DATA_DIR / "wscc9.case"),
                              pv_mw={"2": 50.0})
        out = tmp_path / "out"
        assert main(["powerflow", "-c", str(config), "-o", str(out)]) == 0
        capsys.readouterr()
        buses = json.loads((out / "powerflow.json").read_text())["buses"]
        assert buses[1]["id"] == 2
        assert buses[1]["p_mw"] == pytest.approx(50.0, abs=1e-9)

    def test_slot_without_a_base_load(self, tmp_path, capsys, monkeypatch):
        # without a base load there are no slots, so the slot would be
        # dropped without a word
        monkeypatch.setattr(cli, "solve_power_flow", no_power_flow)
        argv = ["powerflow", "--case", str(DATA_DIR / "wscc9.case"), "--slot", "500"]
        fails_before_any_work(tmp_path, capsys, argv,
                              "slot: powerflow without a base load has no slots")

    @pytest.mark.parametrize("command", ["simulate", "schedule", "compare"])
    @pytest.mark.parametrize("in_config", [False, True])
    def test_slot_outside_powerflow(self, tmp_path, capsys, no_horizon, command, in_config):
        # only powerflow solves a snapshot slot; any other command would
        # drop it without a word, so it takes no --slot flag and stops on
        # the config key
        config = small_inputs(tmp_path)
        argv = [command, "-c", str(config)]
        if command == "compare":
            schedule = tmp_path / "schedule.csv"
            write_schedules(schedule, ["a"], [5], np.ones((1, 16)))
            argv += ["--uncoordinated", str(schedule), "--coordinated", str(schedule)]
        if not in_config:
            rejected_by_the_parser(tmp_path, capsys, [*argv, "--slot", "5"], "--slot")
            return
        write_config(config, **{**json.loads(config.read_text()), "slot": 5})
        fails_before_any_work(tmp_path, capsys, argv, "slot: only powerflow takes a "
                              f"snapshot slot; drop slot from {command}")

    @pytest.mark.parametrize("command", ["schedule", "simulate"])
    @pytest.mark.parametrize("change,message", [
        ({"energy_kwh": 99999.0},
         "session b5e2: energy 99999.0 kWh outside feasible interval [-600.0, 600.0] kWh"),
        ({"t_end": 20}, "session b5e2: window [2, 20) outside horizon of 16 slots"),
        ({"ev_id": "b5e1"}, "duplicate ev_id(s) in scenario: ['b5e1']"),
        ({"t_end": 2}, "session b5e2: window [2, 2) is empty"),
    ], ids=["unreachable", "window", "duplicate", "empty"])
    def test_bad_session_names_the_sessions_file(self, tmp_path, capsys, no_horizon,
                                                  command, change, message):
        # the loader is the only reach and window check: the solver takes
        # any target, so an unreachable one must stop here
        config = small_inputs(tmp_path)
        path = tmp_path / "sessions.csv"
        sessions = read_sessions(path)
        sessions[2] = sessions[2]._replace(**change)
        write_sessions(path, sessions)
        fails_before_any_work(tmp_path, capsys, [command, "-c", str(config)],
                              f"{path}: {message}")

    def test_net_discharge_session_stops_simulate_only(self, tmp_path, capsys, no_horizon):
        # simulate's uncoordinated baseline only charges; schedule runs the
        # same session as V2G
        config = small_inputs(tmp_path)
        path = tmp_path / "sessions.csv"
        sessions = read_sessions(path)
        sessions[2] = sessions[2]._replace(energy_kwh=-5.0)
        write_sessions(path, sessions)
        fails_before_any_work(tmp_path, capsys, ["simulate", "-c", str(config)],
                              f"{path}: session b5e2: the uncoordinated baseline needs a "
                              "non-negative energy target, got -5.0 kWh")
        out = tmp_path / "scheduled"
        assert main(["schedule", "-c", str(config), "-o", str(out)]) == 0
        capsys.readouterr()
        ev_ids, _, profiles = read_schedules(out / "schedules_coordinated.csv")
        assert profiles[ev_ids.index("b5e2")].sum() * 0.25 == pytest.approx(-5.0, abs=1e-6)

    @pytest.mark.parametrize("value", ["nan", "-1.0"])
    def test_bad_base_load_value_located(self, tmp_path, capsys, no_horizon, value):
        config = small_inputs(tmp_path)
        path = tmp_path / "base.csv"
        lines = path.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 1)[0] + "," + value
        path.write_text("\n".join(lines) + "\n")
        fails_before_any_work(tmp_path, capsys, ["simulate", "-c", str(config)],
                              f"{path}:5: base load {value} MW must be finite and "
                              "non-negative")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_schedule_cell_located(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setattr(metrics, "solve_power_flow", no_power_flow)
        config = small_inputs(tmp_path)
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        write_schedules(good, ["a", "b"], [5, 7], np.ones((2, 16)))
        kw = np.ones((2, 16))
        kw[1, 3] = float(value)
        write_schedules(bad, ["a", "b"], [5, 7], kw)
        argv = ["compare", "-c", str(config), "--uncoordinated", str(good),
                "--coordinated", str(bad)]
        fails_before_any_work(tmp_path, capsys, argv,
                              f"{bad}:3: kw_3 {value} is not finite")

    @pytest.mark.parametrize("old,new,message", [
        ("s_base_mva = 100.0", "s_base_mva = inf",
         "6: s_base_mva: expected a finite number, got 'inf'"),
        ("s_base_mva = 100.0", "s_base_mva = 50.0\ns_base_mva = 100.0",
         "7: s_base_mva given twice"),
        ("1  swing  1.04", "1  swing  inf", "10: expected a finite number, got 'inf'"),
        ("4  5  0.017", "4  5  nan", "23: expected a finite number, got 'nan'"),
    ])
    def test_non_finite_case_value_located(self, tmp_path, capsys, old, new, message):
        case = tmp_path / "bad.case"
        case.write_text((DATA_DIR / "wscc9.case").read_text().replace(old, new))
        fails_before_any_work(tmp_path, capsys, ["powerflow", "--case", str(case)],
                              f"{case}:{message}")

    def test_added_session_on_a_bus_without_base_load(self, tmp_path, capsys):
        config = small_inputs(tmp_path)
        events = tmp_path / "events.csv"
        events.write_text(
            "slot,kind,ev_id,bus_id,t_start,t_end,energy_kwh,p_max_kw,d_max_kw\n"
            "2,add_session,new,4,3,9,4.0,6.6,-6.6\n")
        fails_before_any_work(tmp_path, capsys,
                              ["simulate", "-c", str(config), "--events", str(events)],
                              "EVs on bus(es) [4], which carry no base load row")

    def test_schedule_off_the_base_load(self, tmp_path, capsys):
        config = small_inputs(tmp_path)
        good, stray, short = (tmp_path / n for n in ("good.csv", "stray.csv", "short.csv"))
        write_schedules(good, ["a"], [5], np.ones((1, 16)))
        write_schedules(stray, ["a"], [4], np.ones((1, 16)))
        write_schedules(short, ["a"], [5], np.ones((1, 15)))
        argv = ["compare", "-c", str(config), "--uncoordinated", str(good)]
        fails_before_any_work(tmp_path, capsys, argv + ["--coordinated", str(stray)],
                              "stray.csv: EVs on bus(es) [4]")
        fails_before_any_work(tmp_path, capsys, argv + ["--coordinated", str(short)],
                              "short.csv: 15 slots, base load has 16")

    def test_snapshot_slot_outside_the_base_load(self, tmp_path, capsys):
        config = small_inputs(tmp_path)
        fails_before_any_work(tmp_path, capsys,
                              ["powerflow", "-c", str(config), "--slot", "16"],
                              "slot 16 outside the base load's 0..15")


    @pytest.mark.parametrize("line,message", [
        ("90,remove_session,nope,,,,,,", "event at slot 90: unknown ev_id 'nope'"),
        ("41,update_energy,b7e0003,,,,10.0,,", "event at slot 41: unknown ev_id 'b7e0003'"),
        ("50,add_session,b7e0003,7,50,90,10.0,200.0,-200.0",
         "event at slot 50: ev_id 'b7e0003' already used"),
        ("30,add_session,late5a,5,40,90,10.0,200.0,-200.0",
         "event at slot 30: ev_id 'late5a' already used"),
    ])
    def test_scripted_event_ids_replayed(self, tmp_path, capsys, line, message):
        events = tmp_path / "events.csv"
        events.write_text((DESK_DIR / "events.csv").read_text() + line + "\n")
        argv = ["simulate", "-c", str(DESK_DIR / "config.json"), "--events", str(events)]
        fails_before_any_work(tmp_path, capsys, argv, f"events.csv: {message}")

    def test_added_session_window_outside_the_horizon(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_text((DESK_DIR / "events.csv").read_text()
                          + "30,add_session,late5z,5,-2,90,10.0,200.0,-200.0\n")
        argv = ["simulate", "-c", str(DESK_DIR / "config.json"), "--events", str(events)]
        fails_before_any_work(tmp_path, capsys, argv, "events.csv: event at slot 30: "
                              "session late5z: window [-2, 90) outside horizon of 96 slots")

    def test_added_session_rate_bounds(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_text((DESK_DIR / "events.csv").read_text()
                          + "30,add_session,bad1,5,40,90,10.0,-300.0,-200.0\n")
        argv = ["simulate", "-c", str(DESK_DIR / "config.json"), "--events", str(events)]
        fails_before_any_work(tmp_path, capsys, argv, "events.csv: event at slot 30: "
                              "session bad1: rate bounds must satisfy d_max <= 0 <= p_max, "
                              "got [-200.0, -300.0]")

    @pytest.mark.parametrize("line,message", [
        ("30,bogus,zz1,5,40,60,10.0,3.0,-3.0", "unknown event kind 'bogus'"),
        ("30,update_energy,b5e0001,,,,nan,,",
         "event for 'b5e0001': energy_kwh nan is not finite"),
        ("30,add_session,zz1,5,40,60,10.0,nan,-3.0",
         "event for 'zz1': p_max_kw nan is not finite"),
    ])
    def test_bad_event_row_located(self, tmp_path, capsys, no_horizon, line, message):
        shipped = (DESK_DIR / "events.csv").read_text()
        events = tmp_path / "events.csv"
        events.write_text(shipped + line + "\n")
        argv = ["simulate", "-c", str(DESK_DIR / "config.json"), "--events", str(events)]
        fails_before_any_work(tmp_path, capsys, argv,
                              f"events.csv:{len(shipped.splitlines()) + 1}: {message}")

    @pytest.mark.parametrize("flag,value", [("--epsilon", "nan"), ("--lambda", "inf")])
    def test_non_finite_flag_names_its_key(self, tmp_path, capsys, no_horizon, flag, value):
        argv = ["simulate", "-c", str(DESK_DIR / "config.json"), flag, value]
        fails_before_any_work(tmp_path, capsys, argv, f"config.json: scheduler.{flag[2:]}: "
                              f"expected a finite positive number, got {value}")

    def test_empty_schedule_file(self, tmp_path, capsys):
        config = small_inputs(tmp_path)
        good, empty = tmp_path / "good.csv", tmp_path / "empty.csv"
        write_schedules(good, ["a"], [5], np.ones((1, 16)))
        empty.write_text("\n \n")
        argv = ["compare", "-c", str(config), "--uncoordinated", str(good),
                "--coordinated", str(empty)]
        fails_before_any_work(tmp_path, capsys, argv, f"{empty}: empty file")

    def test_horizon_steps_outside_the_slots(self, tmp_path, capsys):
        argv = ["simulate", "-c", str(DESK_DIR / "config.json"), "--steps", "97"]
        fails_before_any_work(tmp_path, capsys, argv, "horizon_steps 97 must be in 1..96")

    def test_horizon_steps_below_one(self, tmp_path, capsys):
        argv = ["simulate", "-c", str(DESK_DIR / "config.json"), "--steps", "0"]
        fails_before_any_work(tmp_path, capsys, argv, "horizon_steps 0 must be in 1..96")

    @pytest.mark.parametrize("section,values,message", [
        ("scheduler", {"epsilon": "x"}, "scheduler.epsilon: expected a number, got 'x'"),
        ("scheduler", {"lambda": True}, "scheduler.lambda: expected a number, got True"),
        ("scheduler", {"max_iterations": 2.5},
         "scheduler.max_iterations: expected an integer, got 2.5"),
        ("power_flow", {"tol": [1e-8]}, "power_flow.tol: expected a number"),
        ("reactive", {"ev_power_factor": None}, "reactive.ev_power_factor: expected a number"),
        ("fleet", {"counts": {"5": "many"}}, "fleet.counts.5: expected an integer"),
        ("fleet", {"energy_kwh_range": 100.0}, "fleet.energy_kwh_range: expected [lo, hi]"),
        ("pv_mw", {"2": "10"}, "pv_mw.2: expected a number, got '10'"),
        ("pv_mw", {"two": 10.0}, "pv_mw: bus id 'two' is not an integer"),
        ("scheduler", {"slot_hours": float("nan")},
         "scheduler.slot_hours: expected a finite positive number, got nan"),
        ("power_flow", {"tol": 0}, "power_flow.tol: expected a finite positive number, got 0.0"),
        ("power_flow", {"tol": float("nan")},
         "power_flow.tol: expected a finite positive number, got nan"),
        ("power_flow", {"max_iter": 0}, "power_flow.max_iter: expected at least 1, got 0"),
        *(("reactive", {key: value},
           f"reactive.{key}: expected a power factor in (0, 1], got {value!r}")
          for key in ("base_power_factor", "ev_power_factor")
          for value in (0.0, 1.5, float("nan"))),
        ("pv_mw", {"2": 10.0, "02": 50.0}, "pv_mw: bus id 2 given twice"),
        ("fleet", {"counts": {"5": 1, "05": 2}}, "fleet.counts: bus id 5 given twice"),
        *(("scheduler", {key: 10**400},
           f"scheduler.{key}: expected {what} in float range, got {10**400!r}")
          for key, what in (("slots", "an integer"), ("slot_hours", "a number"))),
    ])
    def test_wrong_typed_value_names_its_key(self, tmp_path, capsys, no_horizon, section,
                                             values, message):
        config = desk_variant(tmp_path, **{section: values})
        fails_before_any_work(tmp_path, capsys, ["simulate", "-c", str(config)],
                              f"desk.json: {message}")

    def test_wrong_typed_top_level_value_names_its_key(self, tmp_path, capsys):
        config = desk_variant(tmp_path)
        write_config(config, **{**json.loads(config.read_text()), "horizon_steps": "24"})
        fails_before_any_work(tmp_path, capsys, ["simulate", "-c", str(config)],
                              "desk.json: config.horizon_steps: expected an integer, got '24'")

    @pytest.mark.parametrize("command", ["gen-fleet", "schedule", "simulate"])
    @pytest.mark.parametrize("key,value", [("slots", 48), ("slot_hours", 0.5)])
    def test_fleet_cannot_set_the_slot_grid(self, tmp_path, capsys, no_horizon, command,
                                            key, value):
        config = desk_variant(tmp_path, fleet={key: value})
        raw = json.loads(config.read_text())
        del raw["sessions"]
        write_config(config, **raw)
        fails_before_any_work(tmp_path, capsys, [command, "-c", str(config)],
                              f"desk.json: unknown fleet keys ['{key}']")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_pv_dispatch_names_its_bus(self, tmp_path, capsys, no_horizon, value):
        config = desk_variant(tmp_path, pv_mw={"3": 5.0, "2": value})
        fails_before_any_work(tmp_path, capsys, ["simulate", "-c", str(config)],
                              f"desk.json: pv_mw.2: expected a finite number, got {value!r}")

    def test_generated_fleet_comes_back_sorted(self, tmp_path):
        # generated in bus-then-number order, where b5e10000 follows b5e9999
        config = desk_variant(tmp_path, fleet={"counts": {"5": 10001}})
        raw = json.loads(config.read_text())
        del raw["sessions"]
        write_config(config, **raw)
        sessions = cli.preflight(cli.load_run_config(str(config), {}), "schedule").sessions
        ids = [s.ev_id for s in sessions]
        assert len(ids) == 10001 and ids == sorted(ids)

    @pytest.mark.parametrize("key,value", [("case", 5), ("case", True), ("case", ["x"]),
                                           ("output_dir", 7)])
    def test_non_string_path_names_its_key(self, tmp_path, capsys, no_horizon, key, value):
        config = desk_variant(tmp_path)
        write_config(config, **{**json.loads(config.read_text()), key: value})
        fails_before_any_work(tmp_path, capsys, ["simulate", "-c", str(config)],
                              f"desk.json: config.{key}: expected a path string, "
                              f"got {value!r}")

    def test_null_path_is_absent(self, tmp_path):
        config = desk_variant(tmp_path)
        write_config(config, **{**json.loads(config.read_text()), "events": None,
                                "output_dir": None})
        cfg = cli.load_run_config(str(config), {})
        assert cfg.events_path is None
        assert cfg.output_dir == Path.cwd() / "out"

    def test_empty_case_path_in_the_config(self, tmp_path, capsys):
        # "" resolves to the config's own directory
        config = write_config(tmp_path / "c.json", case="")
        fails_before_any_work(tmp_path, capsys, ["powerflow", "-c", str(config)],
                              f"error: case: {tmp_path} is not a file")

    def test_empty_case_flag(self, tmp_path, capsys, monkeypatch):
        # "" resolves to the working directory
        monkeypatch.chdir(tmp_path)
        fails_before_any_work(tmp_path, capsys, ["powerflow", "--case", ""],
                              f"error: case: {tmp_path} is not a file")

    def test_base_load_that_names_a_directory(self, tmp_path, capsys, no_horizon):
        config = desk_variant(tmp_path)
        write_config(config, **{**json.loads(config.read_text()), "base_load": str(tmp_path)})
        fails_before_any_work(tmp_path, capsys, ["simulate", "-c", str(config)],
                              f"error: base_load: {tmp_path} is not a file")

    def test_negative_seed_in_the_config(self, tmp_path, capsys, no_horizon):
        config = desk_variant(tmp_path)
        write_config(config, **{**json.loads(config.read_text()), "seed": -1})
        fails_before_any_work(tmp_path, capsys, ["simulate", "-c", str(config)],
                              "desk.json: seed: expected a non-negative integer, got -1")

    @pytest.mark.parametrize("command", ["gen-fleet", "simulate"])
    def test_negative_seed_flag(self, tmp_path, capsys, no_horizon, command):
        argv = [command, "-c", str(DESK_DIR / "config.json"), "--seed", "-1"]
        fails_before_any_work(tmp_path, capsys, argv,
                              "config.json: seed: expected a non-negative integer, got -1")

    @pytest.mark.parametrize("command", ["schedule", "simulate"])
    def test_seed_flag_with_a_sessions_file(self, tmp_path, capsys, no_horizon, command):
        # the fleet is generated from the seed only when no sessions file is given
        argv = [command, "-c", str(DESK_DIR / "config.json"), "--seed", "9"]
        fails_before_any_work(tmp_path, capsys, argv,
                              f"error: --seed: the sessions come from "
                              f"{DESK_DIR / 'sessions.csv'}, so no fleet is generated")

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-a-file"])
    def test_output_path_through_a_file(self, tmp_path, capsys, no_horizon, below):
        # found at entry, not once the outputs are written
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if below else taken
        fails_before_any_work(tmp_path, capsys, ["simulate", "-c", str(small_inputs(tmp_path))],
                              f"error: -o/output_dir: {taken} is not a directory"
                              + (f", so {out} cannot be created\n" if below else "\n"),
                              out=out)


class TestSchedulesFile:
    @round_trip
    @given(data=st.data())
    def test_round_trip(self, tmp_path, data):
        n = data.draw(st.integers(1, 4))
        slots = data.draw(st.integers(1, 5))
        ev_ids = data.draw(st.lists(cell_text, min_size=n, max_size=n))
        bus_ids = data.draw(st.lists(file_ints, min_size=n, max_size=n))
        kw = data.draw(st.lists(finite_floats, min_size=n * slots, max_size=n * slots))
        path = tmp_path / "schedules.csv"
        write_schedules(path, ev_ids, bus_ids, np.array(kw).reshape(n, slots))
        got_ids, got_buses, got_kw = read_schedules(path)
        assert_identical(got_ids, ev_ids)
        assert_identical(got_buses, bus_ids)
        assert got_kw.shape == (n, slots)
        assert_identical(got_kw.ravel().tolist(), kw)

    def test_empty_fleet_round_trip(self, tmp_path):
        """A schedule with no EVs keeps its slot count in the header."""
        path = tmp_path / "schedules.csv"
        write_schedules(path, [], [], np.zeros((0, 16)))
        assert path.read_text() == "ev_id,bus_id," + ",".join(
            f"kw_{t}" for t in range(16)) + "\n"
        got_ids, got_buses, got_kw = read_schedules(path)
        assert (got_ids, got_buses, got_kw.shape) == ([], [], (0, 16))

    @pytest.mark.parametrize("edit,message", [
        (lambda cells: cells[:-1], "s.csv:3: 4 cells, header has 5"),
        (lambda cells: cells + ["1.0"], "s.csv:3: 6 cells, header has 5"),
        (lambda cells: cells[:2] + ["x"] + cells[3:], "s.csv:3: could not convert"),
        (lambda cells: cells[:2] + ["1.0#x"] + cells[3:], "s.csv:3: could not convert"),
        (lambda cells: cells[:1] + ["five"] + cells[2:], "s.csv:3: invalid literal"),
        (lambda cells: cells[:3] + ["inf"] + cells[4:],
         "s.csv:3: kw_1 inf is not finite"),
    ])
    def test_bad_row_reports_line(self, tmp_path, edit, message):
        path = tmp_path / "s.csv"
        write_schedules(path, ["a", "b"], [5, 7], np.ones((2, 3)))
        lines = path.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            read_schedules(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda cells: cells[:-1], "s.csv:6: 4 cells, header has 5"),
        (lambda cells: cells[:3] + ["nan?"] + cells[4:], "s.csv:6: could not convert"),
        (lambda cells: cells[:1] + ["5.0"] + cells[2:], "s.csv:6: invalid literal"),
    ])
    def test_bad_row_in_a_later_block_reports_its_line(self, tmp_path, monkeypatch,
                                                       edit, message):
        monkeypatch.setattr(fileio, "_BLOCK_ROWS", 2)
        path = tmp_path / "s.csv"
        write_schedules(path, list("abcdef"), [5, 7, 9, 5, 7, 9], np.ones((6, 3)))
        lines = path.read_text().splitlines()
        lines[5] = ",".join(edit(lines[5].split(",")))
        path.write_text("\n".join(lines) + "\n")
        blocks = read_schedule_blocks(path)
        assert [ids for ids, _, _ in itertools.islice(blocks, 2)] == [["a", "b"], ["c", "d"]]
        with pytest.raises(ValueError, match=message):
            next(blocks)
        with pytest.raises(ValueError, match=message):
            read_schedules(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_blank_lines_and_crlf_keep_line_numbers(self, tmp_path, monkeypatch, newline):
        monkeypatch.setattr(fileio, "_BLOCK_ROWS", 2)
        lines = ["ev_id,bus_id,kw_0,kw_1", "", "a,5,1.5,-0.0", "  ", "b,7,2.0,3.0",
                 "c,9,4.0,5.0", "", "d,5,6.0,7.0", ""]
        path = tmp_path / "s.csv"
        path.write_bytes(newline.join(lines).encode())
        ids, buses, kw = read_schedules(path)
        assert (ids, buses) == (["a", "b", "c", "d"], [5, 7, 9, 5])
        assert_identical(kw.tolist(), [[1.5, -0.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]])
        lines[7] = "d,5,6.0,x"      # line 8 of the file, in the second block
        path.write_bytes(newline.join(lines).encode())
        with pytest.raises(ValueError, match="s.csv:8: could not convert"):
            read_schedules(path)

    @pytest.mark.parametrize("text", ["ev_id,bus_id\n", "ev_id,bus_id,kw_0,kw_1\n\n"])
    def test_header_only_file_has_no_evs(self, tmp_path, text):
        path = tmp_path / "s.csv"
        path.write_text(text)
        assert list(read_schedule_blocks(path)) == []
        ids, buses, kw = read_schedules(path)
        assert (ids, buses, kw.shape) == ([], [], (0, text.count("kw_")))

    def test_zero_slot_rows(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("ev_id,bus_id\na,5\n\nb,7\n")
        ids, buses, kw = read_schedules(path)
        assert (ids, buses, kw.shape) == (["a", "b"], [5, 7], (2, 0))
        path.write_text("ev_id,bus_id\na,5\nb,7,\n")
        with pytest.raises(ValueError, match="s.csv:3: 3 cells, header has 2"):
            read_schedules(path)

    def test_first_bad_row_in_file_order_is_named(self, tmp_path):
        """Within one block the first bad row is named, whatever its fault:
        a non-finite cell ahead of a short row, an empty kW cell (which the
        block parse would skip as a blank line) ahead of a good row."""
        path = tmp_path / "s.csv"
        path.write_text("ev_id,bus_id,kw_0,kw_1\na,5,1.0,2.0\nb,7,nan,1.0\nc,9,1.0\n")
        with pytest.raises(ValueError, match="s.csv:3: kw_0 nan is not finite"):
            read_schedules(path)
        path.write_text("ev_id,bus_id,kw_0\na,5,\nb,7,1.0\n")
        with pytest.raises(ValueError, match="s.csv:2: could not convert"):
            read_schedules(path)

    def test_slot_header_must_count_from_zero(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("ev_id,bus_id,kw_1,kw_2\na,5,1.0,2.0\n")
        with pytest.raises(ValueError, match="expected header ev_id,bus_id,kw_0"):
            read_schedules(path)


def test_benchmark_tracer_binds_every_layer(tmp_path):
    """The benchmark's tracer looks up every function it wraps by name
    before the command runs, so deleting or renaming any of them (such as
    ``coordinator.solve_task``) fails this run.  A traced desk ``simulate``
    records one ``scheduler.solve`` span per station per round, the count
    the benchmark cross-checks against the stations and rounds of every
    ``scheduler.fixed_point`` span."""
    def traced(name, *argv):
        spans = tmp_path / f"{name}.json"
        done = subprocess.run(
            [sys.executable, "perfbench/traced.py", str(spans), name, *argv,
             "-o", str(tmp_path / name)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return json.loads(spans.read_text())

    spans = traced("powerflow", "--case", "src/evgrid/data/wscc9.case")
    names = {span[0] for span in spans}
    assert {"fileio.read", "powerflow.solve", "fileio.write"} <= names
    spans = traced("simulate", "-c", "src/evgrid/data/desk/config.json")
    assert {"metrics.compare", "metrics.report"} <= {span[0] for span in spans}
    solves = sum(1 for span in spans if span[0] == "scheduler.solve")
    stations_x_rounds = sum(span[4]["stations"] * span[4]["rounds"]
                            for span in spans if span[0] == "scheduler.fixed_point")
    assert solves == stations_x_rounds > 0


def test_desk_simulate_validates_the_case_once(tmp_path, capsys, monkeypatch):
    """The case is checked where it is read; the copies that carry a slot's
    injections are taken as given."""
    calls = []
    validate = grid.validate_case

    def counted(case):
        calls.append(case)
        validate(case)

    monkeypatch.setattr(grid, "validate_case", counted)
    argv = ["simulate", "-c", str(DESK_DIR / "config.json"), "-o", str(tmp_path / "out")]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("module", ["scipy", "dataclasses"])
def test_cli_import_loads_no_module(module):
    """A fresh ``import evgrid.cli`` must leave ``module`` and its submodules
    unloaded: numpy is the only runtime dependency, and the records are
    ``NamedTuple``s, which need no ``dataclasses``."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, evgrid.cli; print(sorted(m for m in sys.modules "
         f"if m == {module!r} or m.startswith({module + '.'!r})))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_starts_one_blas_thread():
    """A fresh ``import evgrid.cli`` sets ``OPENBLAS_NUM_THREADS=1`` before
    numpy loads, so OpenBLAS starts no worker thread; a value the user set
    is kept."""
    src = str(ROOT / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = ("import os, evgrid.cli; print(os.environ.get('OPENBLAS_NUM_THREADS')); "
             "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
             "else '')")

    def child(**extra):
        done = subprocess.run([sys.executable, "-c", probe], env={**env, **extra},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.split("\n")[:2]

    value, threads = child()
    assert value == "1"
    if threads:
        assert threads == "1"
    assert child(OPENBLAS_NUM_THREADS="2")[0] == "2"


class TestPowerflowCommand:
    def test_flat_network_solves_in_zero_iterations(self, tmp_path, capsys):
        case_path = tmp_path / "unity.case"
        case_path.write_text(UNITY_CASE_TEXT)
        out = tmp_path / "out"
        assert main(["powerflow", "--case", str(case_path),
                     "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "converged in 0 iterations" in stdout
        payload = json.loads((out / "powerflow.json").read_text())
        assert payload["slot"] is None
        assert payload["iterations"] == 0
        assert [b["v_mag_pu"] for b in payload["buses"]] == [1.0, 1.0, 1.0]
        assert [b["v_angle_deg"] for b in payload["buses"]] == [0.0, 0.0, 0.0]

    def test_table_prints_no_negative_zero(self, tmp_path, capsys):
        # buses 4 and 6 inject nothing, which solves to round-off of either sign
        assert main(["powerflow", "--case", str(DATA_DIR / "wscc9.case"),
                     "-o", str(tmp_path / "out")]) == 0
        stdout = capsys.readouterr().out
        assert re.search(r"^4 .* 0\.00 +0\.00$", stdout, re.MULTILINE), stdout
        assert not re.search(r"-0\.0+(?![0-9])", stdout), stdout

    def test_bundled_case_snapshot(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["powerflow", "--case", str(DATA_DIR / "wscc9.case"),
                     "-o", str(out)]) == 0
        payload = json.loads((out / "powerflow.json").read_text())
        by_id = {b["id"]: b for b in payload["buses"]}
        assert by_id[5]["v_mag_pu"] == pytest.approx(1.0127, abs=5e-4)
        assert by_id[9]["v_mag_pu"] == pytest.approx(0.9956, abs=5e-4)
        assert by_id[1]["p_mw"] == pytest.approx(71.64, abs=0.05)
        assert len(payload["branches"]) == 9
        stdout = capsys.readouterr().out
        assert "1-4" in stdout

    def test_slot_selection_with_base_load(self, tmp_path, capsys):
        config = small_inputs(tmp_path)
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        assert main(["powerflow", "-c", str(config), "-o", str(out1)]) == 0
        assert main(["powerflow", "-c", str(config), "-o", str(out2),
                     "--slot", "0"]) == 0
        capsys.readouterr()
        auto = json.loads((out1 / "powerflow.json").read_text())
        pinned = json.loads((out2 / "powerflow.json").read_text())
        # the automatic snapshot sits on the base-load peak
        assert auto["slot"] == 4
        assert pinned["slot"] == 0
        assert auto["buses"] != pinned["buses"]

    def test_overflowing_load_stops_at_the_first_non_finite_mismatch(self, tmp_path, capsys):
        # a base load this large is rejected before the power flow, so the
        # load is the case file's own
        case_path = tmp_path / "heavy.case"
        case_text = (DATA_DIR / "wscc9.case").read_text()
        case_path.write_text(case_text.replace("5  pq     1.0    0.0  -90.0",
                                               "5  pq     1.0    0.0  -1e300"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fails_before_any_work(tmp_path, capsys, ["powerflow", "--case", str(case_path)],
                                  "power flow did not converge in 1 iterations "
                                  "(mismatch inf pu")

    def test_singular_grid_fails_with_one_line(self, tmp_path, capsys):
        # a near-open branch: the first Jacobian's smallest singular value is 1/x
        case_path = tmp_path / "open.case"
        case_path.write_text(two_bus_text(x=1e15))
        out = tmp_path / "out"
        assert main(["powerflow", "--case", str(case_path), "-o", str(out)]) == 1
        assert capsys.readouterr().err == ("error: singular Jacobian at iteration 0: "
                                           "smallest singular value 1.000e-15\n")
        assert not (out / "powerflow.json").exists()


class TestGenFleetCommand:
    def fleet_config(self, tmp_path, counts, seed=1):
        return write_config(
            tmp_path / "fleet.json",
            seed=seed,
            scheduler={"slots": 16, "slot_hours": 0.25},
            fleet={
                "counts": counts,
                "arrival_mean_slot": 4.0,
                "arrival_std_slots": 2.0,
                "duration_mean_slots": 8.0,
                "duration_std_slots": 2.0,
                "energy_kwh_range": [2.0, 12.0],
                "p_max_kw": 6.6,
                "d_max_kw": -6.6,
            },
        )

    def test_zero_count_writes_header_only(self, tmp_path, capsys):
        config = self.fleet_config(tmp_path, {})
        out = tmp_path / "out"
        assert main(["gen-fleet", "-c", str(config), "-o", str(out)]) == 0
        assert "wrote 0 sessions" in capsys.readouterr().out
        lines = (out / "sessions.csv").read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("ev_id")

    def test_deterministic_for_fixed_seed(self, tmp_path, capsys):
        config = self.fleet_config(tmp_path, {"5": 3, "9": 2})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["gen-fleet", "-c", str(config), "-o", str(out1)]) == 0
        assert main(["gen-fleet", "-c", str(config), "-o", str(out2)]) == 0
        capsys.readouterr()
        first = (out1 / "sessions.csv").read_bytes()
        assert first == (out2 / "sessions.csv").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        config = self.fleet_config(tmp_path, {"5": 3, "9": 2})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["gen-fleet", "-c", str(config), "-o", str(out1)]) == 0
        assert main(["gen-fleet", "-c", str(config), "-o", str(out2),
                     "--seed", "99"]) == 0
        capsys.readouterr()
        assert ((out1 / "sessions.csv").read_bytes()
                != (out2 / "sessions.csv").read_bytes())

    @pytest.mark.parametrize("key,value", [
        ("arrival_mean_slot", float("nan")), ("p_max_kw", float("inf")),
        ("energy_kwh_range", [2.0, float("-inf")])])
    def test_non_finite_spec_float_names_its_key(self, tmp_path, capsys, key, value):
        config = self.fleet_config(tmp_path, {"5": 3, "9": 2})
        raw = json.loads(config.read_text())
        raw["fleet"][key] = value
        config.write_text(json.dumps(raw))
        shown = value[1] if isinstance(value, list) else value
        fails_before_any_work(tmp_path, capsys, ["gen-fleet", "-c", str(config)],
                              f"fleet.json: fleet.{key}: expected a finite number, "
                              f"got {shown!r}")

    @pytest.mark.parametrize("key,value,message", [
        ("counts", {"5": -1}, "fleet.counts.5: expected a non-negative count, got -1"),
        ("energy_kwh_range", [40.0, 10.0],
         "fleet.energy_kwh_range: expected 0 <= lo <= hi, got [40.0, 10.0]"),
        ("energy_kwh_range", [-1.0, 10.0],
         "fleet.energy_kwh_range: expected 0 <= lo <= hi, got [-1.0, 10.0]"),
        ("d_max_kw", 1.0, "fleet.d_max_kw: expected at most 0, got 1.0"),
        ("p_max_kw", -1.0, "fleet.p_max_kw: expected at least 0, got -1.0"),
        ("p_max_kw", 0.0, "fleet.p_max_kw: expected above 0 when fleet.energy_kwh_range "
         "starts above 0, got 0.0"),
        ("duration_mean_slots", 0.5, "fleet.duration_mean_slots: expected at least 1, "
         "got 0.5"),
        ("arrival_std_slots", -1, "fleet.arrival_std_slots: expected at least 0, got -1.0"),
        ("duration_std_slots", -1.0, "fleet.duration_std_slots: expected at least 0, "
         "got -1.0"),
    ])
    def test_spec_rule_names_its_key(self, tmp_path, capsys, key, value, message):
        config = self.fleet_config(tmp_path, {"5": 3, "9": 2})
        raw = json.loads(config.read_text())
        raw["fleet"][key] = value
        config.write_text(json.dumps(raw))
        fails_before_any_work(tmp_path, capsys, ["gen-fleet", "-c", str(config)],
                              f"fleet.json: {message}")

    def test_idle_fleet_may_have_no_charge_rate(self, tmp_path, capsys):
        config = self.fleet_config(tmp_path, {"5": 3})
        raw = json.loads(config.read_text())
        raw["fleet"].update(energy_kwh_range=[0.0, 0.0], p_max_kw=0.0)
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["gen-fleet", "-c", str(config), "-o", str(out)]) == 0
        assert "wrote 3 sessions" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["gen-fleet", "schedule", "simulate"])
    def test_too_few_slots_rejected(self, tmp_path, capsys, no_horizon, command):
        # a generated session needs two slots: checked where scheduler.slots
        # is read, before any fleet is generated
        base = tmp_path / "base.csv"
        base.write_text("slot,bus_id,mw\n0,5,90.0\n")
        raw = json.loads(self.fleet_config(tmp_path, {"5": 3}).read_text())
        config = write_config(tmp_path / "fleet.json", **{
            **raw, "scheduler": {"slots": 1, "slot_hours": 0.25},
            "case": str(DATA_DIR / "wscc9.case"), "base_load": str(base)})
        out = tmp_path / "out"
        assert main([command, "-c", str(config), "-o", str(out)]) == 1
        assert capsys.readouterr().err == ("error: scheduler.slots: expected at least 2 "
                                           "to generate a fleet, got 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("in_config", [False, True])
    def test_slot_rejected(self, tmp_path, capsys, in_config):
        config = self.fleet_config(tmp_path, {"5": 3})
        argv = ["gen-fleet", "-c", str(config)]
        if not in_config:
            rejected_by_the_parser(tmp_path, capsys, [*argv, "--slot", "5"], "--slot")
            return
        write_config(config, **{**json.loads(config.read_text()), "slot": 5})
        fails_before_any_work(tmp_path, capsys, argv, "slot: only powerflow takes a "
                              "snapshot slot; drop slot from gen-fleet")

    def test_shipped_sessions_regenerate(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen-fleet", "-c", str(DESK_DIR / "config.json"),
                     "-o", str(out)]) == 0
        capsys.readouterr()
        regenerated = (out / "sessions.csv").read_bytes()
        assert regenerated == (DESK_DIR / "sessions.csv").read_bytes()


class TestScheduleCommand:
    def test_writes_schedule_and_trace(self, tmp_path, capsys):
        config = small_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["schedule", "-c", str(config), "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "converged" in stdout
        ev_ids, bus_ids, profiles = read_schedules(out / "schedules_coordinated.csv")
        assert ev_ids == [f"b5e{k}" for k in range(4)]
        assert set(bus_ids) == {5}
        for k in range(4):
            assert profiles[k].sum() * 0.25 == pytest.approx(8.0 + k, abs=1e-6)
        trace_lines = (out / "traces.csv").read_text().splitlines()
        assert trace_lines[0] == "step,iteration,residual,objective"
        assert len(trace_lines) > 2


class TestSimulateCommand:
    def test_zero_sessions_runs_clean(self, tmp_path, capsys):
        config = small_inputs(tmp_path, n_sessions=0)
        out = tmp_path / "out"
        assert main(["simulate", "-c", str(config), "-o", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["peak"]["shaving_pct"] == 0.0
        assert report["flags"] == []
        stdout = capsys.readouterr().out
        assert "shaving 0.00%" in stdout

    def test_outputs_round_trip(self, tmp_path, capsys):
        config = small_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "-c", str(config), "-o", str(out)]) == 0
        capsys.readouterr()
        expected = {"schedules_uncoordinated.csv", "schedules_coordinated.csv",
                    "traces.csv", "report.json", "report.txt",
                    "system_load.csv", "bus_load.csv"}
        assert {p.name for p in out.iterdir()} == expected

        ev_ids, bus_ids, committed = read_schedules(out / "schedules_coordinated.csv")
        assert ev_ids == [f"b5e{k}" for k in range(4)]
        for k in range(4):
            assert committed[k].sum() * 0.25 == pytest.approx(8.0 + k, abs=1e-6)

        report = json.loads((out / "report.json").read_text())
        totals = np.loadtxt(out / "system_load.csv", delimiter=",", skiprows=1)
        # columns: slot, base, uncoordinated total, coordinated total
        assert report["peak"]["before_mw"] == pytest.approx(
            totals[:, 2].max(), abs=1e-9)
        assert report["peak"]["after_mw"] == pytest.approx(
            totals[:, 3].max(), abs=1e-9)
        assert report["peak"]["shaving_pct"] > 0.0

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        config = small_inputs(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "-c", str(config), "-o", str(out1)]) == 0
        assert main(["simulate", "-c", str(config), "-o", str(out2)]) == 0
        capsys.readouterr()
        assert read_tree(out1) == read_tree(out2)

    def test_event_flags_reach_report(self, tmp_path, capsys):
        config = small_inputs(tmp_path)
        events_path = tmp_path / "events.csv"
        events_path.write_text(
            "slot,kind,ev_id,bus_id,t_start,t_end,energy_kwh,p_max_kw,d_max_kw\n"
            "5,remove_session,b5e1,,,,,,\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", "-c", str(config), "-o", str(out),
                     "--events", str(events_path)]) == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert any("b5e1 removed before completion" in f for f in report["flags"])


class TestCompareCommand:
    def test_matches_simulate_report(self, tmp_path, capsys):
        config = small_inputs(tmp_path)
        sim_out = tmp_path / "sim"
        assert main(["simulate", "-c", str(config), "-o", str(sim_out)]) == 0
        cmp_out = tmp_path / "cmp"
        assert main([
            "compare", "-c", str(config), "-o", str(cmp_out),
            "--uncoordinated", str(sim_out / "schedules_uncoordinated.csv"),
            "--coordinated", str(sim_out / "schedules_coordinated.csv"),
        ]) == 0
        capsys.readouterr()
        sim_report = json.loads((sim_out / "report.json").read_text())
        cmp_report = json.loads((cmp_out / "report.json").read_text())
        sim_report["flags"] = []
        assert cmp_report == sim_report

    def test_header_only_file_is_a_fleet_without_evs(self, tmp_path, capsys):
        """No EVs sum to zero load, exactly as EVs that never charge do."""
        config = small_inputs(tmp_path)
        idle, none = tmp_path / "idle.csv", tmp_path / "none.csv"
        write_schedules(idle, ["a"], [5], np.zeros((1, 16)))
        write_schedules(none, [], [], np.zeros((0, 16)))
        outs = []
        for coordinated in (idle, none):
            outs.append(tmp_path / coordinated.stem)
            assert main(["compare", "-c", str(config), "-o", str(outs[-1]),
                         "--uncoordinated", str(idle), "--coordinated", str(coordinated)]) == 0
        capsys.readouterr()
        for name in ("report.json", "report.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_zero_peak_reports_no_shaving(self, tmp_path):
        """An all-zero base load and no EVs peak at 0 MW: the report shows
        0 % shaving instead of dividing by the zero peak."""
        base = tmp_path / "base.csv"
        base.write_text("slot,bus_id,mw\n" + "".join(
            f"{t},{bus},0.0\n" for t in range(4) for bus in (5, 7, 9)))
        none = tmp_path / "none.csv"
        write_schedules(none, [], [], np.zeros((0, 4)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run(
            [sys.executable, "-m", "evgrid.cli", "compare",
             "--case", str(DATA_DIR / "wscc9.case"), "--base-load", str(base),
             "--uncoordinated", str(none), "--coordinated", str(none),
             "-o", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["peak"]["shaving_pct"] == 0.0


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_report_text_is_rendered_from_the_written_dict(tmp_path, capsys, command):
    """``report.txt`` and stdout are ``render_report`` of the dict that
    ``report.json`` holds, read back from the file."""
    out = tmp_path / "out"
    if command == "simulate":
        argv = ["simulate", "-c", str(DESK_DIR / "config.json")]
    else:
        unc, coord = tmp_path / "unc.csv", tmp_path / "coord.csv"
        write_schedules(unc, ["a", "b"], [5, 9], np.full((2, 16), 30000.0))
        write_schedules(coord, ["a", "b"], [5, 9], np.full((2, 16), 12000.0))
        argv = ["compare", "-c", str(small_inputs(tmp_path)),
                "--uncoordinated", str(unc), "--coordinated", str(coord)]
    assert main([*argv, "-o", str(out)]) == 0
    text = metrics.render_report(json.loads((out / "report.json").read_text()))
    assert (out / "report.txt").read_bytes() == text.encode("utf-8")
    assert capsys.readouterr().out == text


# --- seeded mutation gate ------------------------------------------------------

MUTATION_TOKENS = ["", "0", "-1", "2.5", "1e300", "-1e300", "nan", "inf", "x", "999",
                   "null", '"s"', ",", " ", "\n"]


def mutation_inputs(tmp_path: Path) -> dict[str, str]:
    """The text of a small ``simulate`` run's case, base load, sessions,
    events and config, by file name; the config names the others relatively."""
    small_inputs(tmp_path, n_sessions=3)
    events = ("slot,kind,ev_id,bus_id,t_start,t_end,energy_kwh,p_max_kw,d_max_kw\n"
              "3,add_session,late,7,5,14,6.0,200.0,-200.0\n"
              "6,update_energy,b5e1,,,,4.0,,\n"
              "9,remove_session,b5e0,,,,,,\n")
    config = {"case": "wscc9.case", "base_load": "base.csv", "sessions": "sessions.csv",
              "events": "events.csv", "seed": 3, "horizon_steps": 4,
              "scheduler": {"lambda": 2.0, "epsilon": 1e-4, "max_iterations": 50,
                            "slots": 16, "slot_hours": 0.25},
              "power_flow": {"tol": 1e-8, "max_iter": 20},
              "reactive": {"base_power_factor": 0.95}, "pv_mw": {"2": 10.0}}
    return {"wscc9.case": (DATA_DIR / "wscc9.case").read_text(),
            "base.csv": (tmp_path / "base.csv").read_text(),
            "sessions.csv": (tmp_path / "sessions.csv").read_text(),
            "events.csv": events, "config.json": json.dumps(config, indent=1)}


def mutate(rng, text: str) -> str:
    """``text`` with one cell replaced, a token inserted, a character
    deleted, a line duplicated or a line truncated, chosen by ``rng``."""
    kind = rng.choice(["replace", "insert", "delete", "duplicate", "truncate"])
    if kind == "replace":
        cell = rng.choice(list(re.finditer(r"[^,\s:{}\[\]]+", text)))
        return text[:cell.start()] + rng.choice(MUTATION_TOKENS) + text[cell.end():]
    at = rng.randrange(len(text))
    if kind == "insert":
        return text[:at] + rng.choice(MUTATION_TOKENS) + text[at:]
    if kind == "delete":
        return text[:at] + text[at + 1:]
    lines = text.split("\n")
    k = rng.randrange(len(lines))
    if kind == "duplicate":
        lines.insert(k, lines[k])
    else:
        lines[k] = lines[k][:rng.randrange(len(lines[k]) + 1)]
    return "\n".join(lines)


MUTATION_COMMANDS = ["simulate", "schedule", "powerflow"]


def exits_cleanly(capsys, files: dict[str, str], work: Path, out: Path,
                  command: str = "simulate") -> int:
    """Write ``files`` into ``work`` and run ``command`` on them with every
    warning an error.  It must exit 0 with nothing on stderr and, from
    ``schedule`` or ``simulate``, only finite objectives in ``traces.csv``.
    Or it must exit 1 with one ``error:`` line and no output directory, and
    before the receding horizon starts unless the error is the coordinated
    scenario's power flow."""
    for name, text in files.items():
        (work / name).write_text(text)
    was_file = out.is_file()
    horizons = []
    horizon = coordinator.run_receding_horizon

    def counted(*args, **kwargs):
        horizons.append(args)
        return horizon(*args, **kwargs)

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")
        patch.setattr(coordinator, "run_receding_horizon", counted)
        code = main([command, "-c", str(work / "config.json"), "-o", str(out)])
    err = capsys.readouterr().err
    if code == 0:
        assert err == "" and out.is_dir()
        if command != "powerflow":
            rows = (out / "traces.csv").read_text().splitlines()[1:]
            assert all(math.isfinite(float(row.split(",")[3])) for row in rows), rows
    else:
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1, err
        assert out.is_file() if was_file else not out.exists()
        # "uncoordinated" holds "coordinated", so match the whole phrase
        assert not horizons or "for the coordinated scenario" in err, err
    return code


class TestMutationGate:
    """Bad input ends in one ``error:`` line and exit 1, never in a
    traceback, a numpy warning or an output directory."""

    def test_seeded_mutations(self, tmp_path, capsys):
        rng = random.Random(20261019)
        clean = mutation_inputs(tmp_path)
        codes = {command: [] for command in MUTATION_COMMANDS}
        for n in range(100):
            name = rng.choice(sorted(clean))
            files = {**clean, name: mutate(rng, clean[name])}
            for command in MUTATION_COMMANDS:
                try:
                    codes[command].append(exits_cleanly(capsys, files, tmp_path,
                                                        tmp_path / f"out{n}-{command}",
                                                        command))
                except AssertionError as exc:
                    raise AssertionError(f"{command}, mutation {n} of {name}:\n"
                                         f"{files[name]}") from exc
        # the mutations reach both outcomes of every command
        for outcomes in codes.values():
            assert 0 < outcomes.count(0) < len(outcomes)

    @staticmethod
    def exit_codes(capsys, tmp_path, mw: str, buses=(5,)) -> dict[str, int]:
        """Each command's exit code with the base load of slot 4 on
        ``buses`` set to ``mw``."""
        files = mutation_inputs(tmp_path)
        for bus in buses:
            files["base.csv"] = re.sub(rf"\n4,{bus},[^\n]*", f"\n4,{bus},{mw}",
                                       files["base.csv"], count=1)
        return {command: exits_cleanly(capsys, files, tmp_path, tmp_path / command, command)
                for command in MUTATION_COMMANDS}

    def test_overflowing_base_load(self, tmp_path, capsys):
        # the squared system load overflows, and no power flow solves the grid
        assert self.exit_codes(capsys, tmp_path, "1e300") == dict.fromkeys(MUTATION_COMMANDS, 1)

    def test_overflowing_system_base_load(self, tmp_path, capsys):
        # the slot's system sum itself overflows
        assert (self.exit_codes(capsys, tmp_path, "1e308", buses=(5, 7))
                == dict.fromkeys(MUTATION_COMMANDS, 1))

    def test_unsolvable_base_load(self, tmp_path, capsys):
        # no power flow solves the grid, but the schedule is finite
        assert self.exit_codes(capsys, tmp_path, "1e6") == {"simulate": 1, "schedule": 0,
                                                             "powerflow": 1}

    def test_output_path_is_a_file(self, tmp_path, capsys, no_horizon):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert exits_cleanly(capsys, mutation_inputs(tmp_path), tmp_path, taken) == 1
