"""Command-line interface: configuration, subcommands, and output files."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (UNITY_CASE_TEXT, DATA_DIR, DESK_DIR, assert_identical, cell_text,
                      file_ints, finite_floats, make_session, round_trip)
from evgrid import coordinator, fileio
from evgrid.cli import main
from evgrid.fileio import read_schedule_blocks, read_schedules, write_schedules
from evgrid.fleet import write_sessions

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


def fails_before_any_work(tmp_path, capsys, argv, message) -> None:
    """One located error line, exit 1, and no output directory."""
    out = tmp_path / "out"
    assert main([*argv, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert message in err
    assert not out.exists()


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


class TestPreflight:
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
                              "window [-2, 90) of 'late5z' outside horizon of 96 slots")

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

    @pytest.mark.parametrize("edit,message", [
        (lambda cells: cells[:-1], "s.csv:3: 4 cells, header has 5"),
        (lambda cells: cells + ["1.0"], "s.csv:3: 6 cells, header has 5"),
        (lambda cells: cells[:2] + ["x"] + cells[3:], "s.csv:3: could not convert"),
        (lambda cells: cells[:2] + ["1.0#x"] + cells[3:], "s.csv:3: could not convert"),
        (lambda cells: cells[:1] + ["five"] + cells[2:], "s.csv:3: invalid literal"),
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

    def test_slot_header_must_count_from_zero(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("ev_id,bus_id,kw_1,kw_2\na,5,1.0,2.0\n")
        with pytest.raises(ValueError, match="expected header ev_id,bus_id,kw_0"):
            read_schedules(path)


def test_benchmark_tracer_binds_every_layer(tmp_path):
    """The benchmark's tracer looks up every function it wraps by name
    before the command runs, so deleting or renaming any of them (such as
    ``coordinator.solve_task``) fails this run."""
    spans = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, "perfbench/traced.py", str(spans), "powerflow",
         "--case", "src/evgrid/data/wscc9.case", "-o", str(tmp_path / "out")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = {span[0] for span in json.loads(spans.read_text())}
    assert {"fileio.read", "powerflow.solve", "fileio.write"} <= names


def test_cli_import_loads_no_scipy():
    """numpy is the only runtime dependency: a fresh ``import evgrid.cli``
    must leave every scipy module unloaded."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, evgrid.cli; print(sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith('scipy.')))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
