"""Scripted events and the receding-horizon loop."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (assert_identical, cell_text, file_ints, finite_floats, make_session,
                      round_trip, small_config)
from evgrid import coordinator, fileio, scheduler
from evgrid.cli import load_run_config, preflight
from evgrid.coordinator import (
    EVENT_COLUMNS,
    read_events,
    run_receding_horizon,
    schedule_events,
)
from evgrid.fleet import EvSession, check_sessions
from evgrid.scheduler import run_until_converged


def sessions_of(*sessions, slots=16):
    return check_sessions(sessions, slots, slot_hours=0.25)


def shaped_base(slots=16):
    return 50.0 + 10.0 * np.sin(np.linspace(0.0, 2.0 * np.pi, slots))


def by_step(events, sessions, steps, slots=16):
    """``events`` resolved into session updates by re-planning step, as the
    CLI preflight hands them to ``run_receding_horizon``."""
    return schedule_events(events, sessions, slots, steps)


def added(slot, ev_id, bus_id, t_start, t_end, energy_kwh, p_max_kw=6.6, d_max_kw=-6.6):
    """The ``(slot, ev_id, change)`` event that adds a session."""
    return slot, ev_id, EvSession(ev_id, bus_id, t_start, t_end, energy_kwh,
                                  p_max_kw, d_max_kw)


def events_file(tmp_path, line):
    """An events file whose one row, at line 2, is ``line``."""
    path = tmp_path / "events.csv"
    path.write_text(",".join(EVENT_COLUMNS) + "\n" + line + "\n")
    return path


class TestScriptedEvent:
    """The rules of one events-file row; a broken one fails at its path:line."""

    def rejected(self, tmp_path, line, message):
        path = events_file(tmp_path, line)
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
            read_events(path)

    def test_unknown_kind_rejected(self, tmp_path):
        self.rejected(tmp_path, "0,swap_battery,e1,,,,,,", "unknown event kind 'swap_battery'")

    def test_negative_slot_rejected(self, tmp_path):
        self.rejected(tmp_path, "-1,remove_session,e1,,,,,,", "event slot -1 is negative")

    def test_add_session_requires_full_definition(self, tmp_path):
        self.rejected(tmp_path, "2,add_session,e1,5,0,8,4.0,,",
                      "add_session event for 'e1' is missing fields")

    def test_update_energy_requires_target(self, tmp_path):
        self.rejected(tmp_path, "2,update_energy,e1,,,,,,",
                      "update_energy event for 'e1' needs energy_kwh")

    def test_remove_session_needs_no_extras(self, tmp_path):
        assert read_events(events_file(tmp_path, "2,remove_session,e1,,,,,,")) == [
            (2, "e1", None)]

    @pytest.mark.parametrize("line,message", [
        ("41,remove_session,b7e0004,5,,,,,",
         "remove_session event for 'b7e0004': unused bus_id must be empty, got '5'"),
        ("3,remove_session,e1,,,,0.0,,",
         "remove_session event for 'e1': unused energy_kwh must be empty, got '0.0'"),
        ("3,update_energy,e1,,,,4.0,6.6,-6.6",
         "update_energy event for 'e1': unused p_max_kw must be empty, got '6.6'"),
    ])
    def test_unused_cell_rejected(self, tmp_path, line, message):
        self.rejected(tmp_path, line, message)


@st.composite
def scripted_events(draw):
    """Any ``(slot, ev_id, change)`` row that an events file can hold."""
    ev_id = draw(cell_text)
    session = st.builds(EvSession, st.just(ev_id), file_ints, file_ints, file_ints,
                        finite_floats, finite_floats, finite_floats)
    return draw(st.integers(0, 10**9)), ev_id, draw(st.none() | finite_floats | session)


def event_row(slot, ev_id, change):
    """The events-file row of one ``(slot, ev_id, change)``."""
    if isinstance(change, EvSession):
        return [slot, "add_session", ev_id, *change[1:]]
    kind = "remove_session" if change is None else "update_energy"
    return [slot, kind, ev_id, "", "", "", "" if change is None else change, "", ""]


class TestEventsFile:
    @round_trip
    @given(events=st.lists(scripted_events(), max_size=5))
    def test_round_trip(self, tmp_path, events):
        path = tmp_path / "events.csv"
        fileio.write_rows(path, EVENT_COLUMNS, (event_row(*e) for e in events))
        assert_identical(read_events(path), events)

    def test_shipped_events_parse(self, desk_config_path):
        events = read_events(desk_config_path.parent / "events.csv")
        assert len(events) == 6
        assert all(0 <= slot < 96 for slot, _, _ in events)
        assert all(change is None or isinstance(change, (EvSession, float))
                   for _, _, change in events)


class TestRecedingHorizon:
    def base_sessions(self):
        sessions = [
            make_session(ev_id="e1", bus_id=5, t_start=0, t_end=12, energy_kwh=8.0),
            make_session(ev_id="e2", bus_id=7, t_start=2, t_end=14, energy_kwh=6.0),
            make_session(ev_id="e3", bus_id=9, t_start=4, t_end=16, energy_kwh=-2.0),
        ]
        return sessions_of(*sessions)

    def test_single_step_equals_one_shot(self):
        config = small_config()
        base = shaped_base()
        sessions = self.base_sessions()
        one_shot, _ = run_until_converged(config, base, list(sessions))
        result = run_receding_horizon(config, base, sessions, steps=1)
        assert result.ev_ids == ("e1", "e2", "e3")
        assert np.array_equal(result.committed_kw, one_shot)

    def test_no_events_matches_one_shot(self):
        config = small_config()
        base = shaped_base()
        sessions = self.base_sessions()
        one_shot, _ = run_until_converged(config, base, list(sessions))
        result = run_receding_horizon(config, base, sessions, steps=4)
        assert np.array_equal(result.committed_kw, one_shot)
        # a step with no update runs no round and keeps its profiles
        assert [t.iterations for t in result.step_traces[1:]] == [0, 0, 0]
        assert result.flags == ()

    def test_committed_prefix_survives_event(self):
        config = small_config()
        base = shaped_base()
        sessions = self.base_sessions()
        plain = run_receding_horizon(config, base, sessions, steps=4)
        event = (5, "e2", 3.0)
        bumped = run_receding_horizon(config, base, sessions, steps=4,
                                      events_by_step=by_step([event], sessions, 4))
        # slot 5 lands at the step that re-plans from slot 8, so everything
        # committed before then is untouched, byte for byte
        assert np.array_equal(bumped.committed_kw[:, :8], plain.committed_kw[:, :8])
        assert not np.array_equal(bumped.committed_kw, plain.committed_kw)
        assert bumped.flags == ()
        row = list(bumped.ev_ids).index("e2")
        assert float(bumped.committed_kw[row].sum()) * 0.25 == pytest.approx(
            3.0, abs=1e-6)

    def test_add_session_event(self):
        config = small_config()
        base = shaped_base()
        sessions = self.base_sessions()
        event = added(6, "late", 5, 9, 16, 5.0)
        result = run_receding_horizon(config, base, sessions, steps=4,
                                      events_by_step=by_step([event], sessions, 4))
        assert "late" in result.ev_ids
        assert result.bus_ids["late"] == 5
        row = list(result.ev_ids).index("late")
        # nothing before the arrival window or the join step
        assert np.array_equal(result.committed_kw[row, :9], np.zeros(9))
        assert float(result.committed_kw[row].sum()) * 0.25 == pytest.approx(
            5.0, abs=1e-6)
        assert result.flags == ()

    def test_steps_without_stations_run_no_round(self, tmp_path):
        """Once events remove every session, each later step gathers nothing:
        it runs no round and writes one ``nan`` residual row, so the rounds
        add up to the traces.csv rows minus one per step."""
        config = small_config()
        sessions = self.base_sessions()
        events = [(5, s.ev_id, None) for s in sessions]
        result = run_receding_horizon(config, shaped_base(), sessions, steps=4,
                                      events_by_step=by_step(events, sessions, 4))
        path = tmp_path / "traces.csv"
        fileio.write_traces(path, result.step_traces)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert sum(t.iterations for t in result.step_traces) == len(rows) - 4
        assert [row[2] for row in rows if row[0] in ("3", "4")] == ["nan", "nan"]

    def test_add_existing_id_rejected(self):
        sessions = self.base_sessions()
        event = added(6, "e1", 5, 9, 16, 5.0)
        with pytest.raises(ValueError, match="already used"):
            by_step([event], sessions, 4)

    def test_remove_session_event(self):
        config = small_config()
        base = shaped_base()
        sessions = self.base_sessions()
        event = (7, "e3", None)
        result = run_receding_horizon(config, base, sessions, steps=4,
                                      events_by_step=by_step([event], sessions, 4))
        assert len(result.flags) == 1
        assert "session e3 removed before completion" in result.flags[0]
        assert "e3" in result.ev_ids
        row = list(result.ev_ids).index("e3")
        # the committed prefix stays on the books; nothing runs afterwards
        assert np.array_equal(result.committed_kw[row, 8:], np.zeros(8))
        delivered = float(result.committed_kw[row].sum()) * 0.25
        assert f"delivered {delivered!r}" in result.flags[0]

    def test_unknown_ev_rejected(self):
        sessions = self.base_sessions()
        for change in (1.0, None):
            event = (7, "ghost", change)
            with pytest.raises(ValueError, match="unknown ev_id 'ghost'"):
                by_step([event], sessions, 4)

    def test_infeasible_update_clamped_and_flagged(self):
        config = small_config()
        base = shaped_base()
        sessions = self.base_sessions()
        # e1 can reach at most 6.6 kW * 12 slots * 0.25 h = 19.8 kWh, and by
        # slot 8 part of that window is already spent
        event = (5, "e1", 50.0)
        result = run_receding_horizon(config, base, sessions, steps=4,
                                      events_by_step=by_step([event], sessions, 4))
        clamp_flags = [f for f in result.flags if "clamped" in f]
        assert clamp_flags and "session e1" in clamp_flags[0]
        row = list(result.ev_ids).index("e1")
        committed = result.committed_kw[row]
        # everything still inside the window and rate box
        assert np.array_equal(committed[12:], np.zeros(4))
        assert np.all(committed <= 6.6 + 1e-12)
        # from the step that applies the update on, the target is out of
        # reach and the station answers with its hi row, p_max in every
        # open slot
        assert np.array_equal(committed[8:12], np.full(4, 6.6))

    def test_non_convergence_flagged(self):
        config = small_config(max_iterations=1, epsilon=1e-12)
        result = run_receding_horizon(config, shaped_base(),
                                      self.base_sessions(), steps=2)
        assert any("not converged" in f for f in result.flags)
        assert any(not t.converged for t in result.step_traces)

    def test_events_resolve_into_session_updates(self):
        # each step's updates keep script order, not slot order, and carry
        # the session as its event leaves it
        sessions = self.base_sessions()
        events = [
            (7, "e3", None),
            (1, "e2", 3.0),
            added(6, "late", 5, 9, 16, 5.0),
            (8, "late", 4.0),
        ]
        late = EvSession(ev_id="late", bus_id=5, t_start=9, t_end=16, energy_kwh=5.0,
                         p_max_kw=6.6, d_max_kw=-6.6)
        assert by_step(events, sessions, 4) == {
            1: [("e2", sessions[1]._replace(energy_kwh=3.0))],
            2: [("e3", None), ("late", late), ("late", late._replace(energy_kwh=4.0))],
        }

    def test_event_slot_bounds_checked(self):
        event = (16, "e1", None)
        with pytest.raises(ValueError, match="outside 0..15"):
            by_step([event], self.base_sessions(), 4)

    @pytest.mark.parametrize("t_start,t_end", [(-1, 8), (9, 17), (9, 9), (10, 9)])
    def test_added_window_outside_the_horizon_rejected(self, t_start, t_end):
        event = added(6, "late", 5, t_start, t_end, 1.0)
        # an empty window is named as such, wherever it lies
        what = "is empty" if t_start >= t_end else "outside horizon of 16 slots"
        with pytest.raises(ValueError, match=(
                rf"event at slot 6: session late: window \[{t_start}, {t_end}\) {what}")):
            by_step([event], self.base_sessions(), 4)

    @pytest.mark.parametrize("p_max,d_max", [(-3.0, -6.6), (6.6, 1.0), (-300.0, -200.0)])
    def test_added_rate_bounds_rejected(self, p_max, d_max):
        event = added(6, "late", 5, 8, 12, 1.0, p_max, d_max)
        with pytest.raises(ValueError, match=(
                rf"event at slot 6: session late: rate bounds must satisfy "
                rf"d_max <= 0 <= p_max, got \[{d_max}, {p_max}\]")):
            by_step([event], self.base_sessions(), 4)

    def test_box_error_surfaces_before_an_earlier_replay_error(self):
        """Every added session is box-checked before the replay, so a later
        bad box wins over an earlier unknown id; the replay then hands on
        the session the event adds."""
        ghost = (1, "ghost", None)
        bad = added(10, "late", 5, 8, 12, 1.0, p_max_kw=-3.0)
        with pytest.raises(ValueError, match="event at slot 10: session late: rate"):
            by_step([ghost, bad], self.base_sessions(), 4)
        good = added(10, "late", 5, 8, 12, 1.0)
        [(ev_id, session)] = by_step([good], self.base_sessions(), 4)[3]
        assert (ev_id, session) == ("late", EvSession("late", 5, 8, 12, 1.0, 6.6, -6.6))

    def test_delivered_energy_accounting(self):
        config = small_config()
        base = shaped_base()
        result = run_receding_horizon(config, base, self.base_sessions(),
                                      steps=4)
        dt = 0.25
        targets = {"e1": 8.0, "e2": 6.0, "e3": -2.0}
        for k, ev_id in enumerate(result.ev_ids):
            total = float(result.committed_kw[k].sum()) * dt
            assert total == pytest.approx(targets[ev_id], abs=1e-6)

    def test_rerun_is_bit_identical(self):
        config = small_config()
        base = shaped_base()
        sessions = self.base_sessions()
        events = [(5, "e2", 7.0)]
        first = run_receding_horizon(config, base, sessions, steps=4,
                                     events_by_step=by_step(events, sessions, 4))
        second = run_receding_horizon(config, base, sessions, steps=4,
                                      events_by_step=by_step(events, sessions, 4))
        assert np.array_equal(first.committed_kw, second.committed_kw)
        assert first.step_traces == second.step_traces
        assert first.flags == second.flags


def assert_same_horizon(got, want):
    """Exact equality of two horizon results, float bits included."""
    assert got.ev_ids == want.ev_ids
    assert got.bus_ids == want.bus_ids
    assert got.committed_kw.shape == want.committed_kw.shape
    assert got.committed_kw.tobytes() == want.committed_kw.tobytes()
    assert got.flags == want.flags
    assert repr(got.step_traces) == repr(want.step_traces)


@st.composite
def horizon_scripts(draw):
    """A small session set, base load, config, step count and an event script
    that ``schedule_events`` accepts."""
    slots = draw(st.integers(4, 12))
    steps = draw(st.integers(1, slots))
    dt = 0.25
    ids = draw(st.lists(st.text("abAB01", min_size=1, max_size=3), unique=True,
                        min_size=1, max_size=8))
    n_sessions = draw(st.integers(0, min(4, len(ids))))

    def window():
        t_start = draw(st.integers(0, slots - 1))
        return t_start, draw(st.integers(t_start + 1, slots))

    def rates():
        return draw(st.sampled_from([0.0, 3.3, 7.0])), draw(st.sampled_from([0.0, -3.3]))

    sessions = []
    for ev_id in ids[:n_sessions]:
        (t_start, t_end), (p_max, d_max) = window(), rates()
        share = draw(st.floats(0.0, 1.0))
        energy = (d_max + share * (p_max - d_max)) * (t_end - t_start) * dt
        sessions.append(EvSession(ev_id, draw(st.sampled_from([5, 7, 9])), t_start,
                                  t_end, energy, p_max, d_max))

    # events in slot order, so the replay by step meets them in list order
    live, fresh = [s.ev_id for s in sessions], ids[n_sessions:]
    events, slot = [], 0
    for _ in range(draw(st.integers(0, 6))):
        slot = draw(st.integers(slot, slots - 1))
        kinds = (["add"] if fresh else []) + (["update", "remove"] if live else [])
        if not kinds:
            break
        kind = draw(st.sampled_from(kinds))
        if kind == "add":
            ev_id = fresh.pop(0)
            (t_start, t_end), (p_max, d_max) = window(), rates()
            events.append(added(slot, ev_id, draw(st.sampled_from([5, 7, 9])), t_start,
                                t_end, draw(st.floats(-10.0, 30.0)), p_max, d_max))
            live.append(ev_id)
        elif kind == "update":
            events.append((slot, draw(st.sampled_from(live)), draw(st.floats(-30.0, 60.0))))
        else:
            ev_id = draw(st.sampled_from(live))
            live.remove(ev_id)
            events.append((slot, ev_id, None))

    config = small_config(slots=slots, epsilon=draw(st.sampled_from([1e-4, 1e-2])),
                          max_iterations=draw(st.sampled_from([2, 60])))
    return config, shaped_base(slots), check_sessions(sessions, slots, dt), steps, events


class TestAgainstReferenceLoop:
    """The array-backed horizon loop against the per-station loop it
    replaced (``oracles.reference_horizon``): identical results, bit for bit."""

    @given(horizon_scripts())
    @settings(max_examples=80, deadline=None)
    def test_random_scripts(self, script):
        config, base, sessions, steps, events = script
        got = run_receding_horizon(config, base, sessions, steps,
                                   by_step(events, sessions, steps, config.slots))
        want = oracles.reference_horizon(config, base, sessions, steps, events)
        assert_same_horizon(got, want)

    def run_both(self, events, extra=()):
        config = small_config()
        sessions = sessions_of(*TestRecedingHorizon().base_sessions(), *extra)
        got = run_receding_horizon(config, shaped_base(), sessions, 4,
                                   by_step(events, sessions, 4))
        want = oracles.reference_horizon(config, shaped_base(), sessions, 4, events)
        assert_same_horizon(got, want)
        return got

    def test_add_and_remove_in_one_step(self):
        # slots 5 and 6 both land at step 2, so "late" is never solved
        result = self.run_both([
            added(5, "late", 5, 9, 16, 5.0),
            (6, "late", None),
        ])
        assert "late" not in result.ev_ids
        assert result.flags == (
            "step 2: session late removed before completion; delivered 0.0 of 5.0 kWh",)

    def test_removal_before_the_window_opens(self):
        late = make_session(ev_id="e4", bus_id=7, t_start=12, t_end=16, energy_kwh=4.0)
        result = self.run_both([(3, "e4", None)], [late])
        row = result.ev_ids.index("e4")
        assert not result.committed_kw[row].any()
        assert result.flags == (
            "step 1: session e4 removed before completion; delivered 0.0 of 4.0 kWh",)

    def test_unreachable_update_flags_every_later_step(self):
        result = self.run_both([(5, "e1", 50.0)])
        assert [f.split(":")[0] for f in result.flags] == ["step 2", "step 3"]
        assert all("session e1 energy target 50.0 kWh" in f for f in result.flags)

    def test_removal_of_a_clamped_session(self):
        result = self.run_both([
            (1, "e1", 50.0),
            (9, "e1", None),
        ])
        assert [f.split(":")[0] for f in result.flags] == ["step 1", "step 2", "step 3"]
        assert all("session e1 energy target 50.0 kWh" in f for f in result.flags[:2])
        assert "session e1 removed before completion" in result.flags[2]

    def test_events_fold_into_the_last_step(self):
        # the last re-plan starts at slot 12; slots 13..15 fold into it
        result = self.run_both([
            (13, "e2", 3.0),
            added(14, "late", 7, 12, 16, 2.0),
            (15, "e3", None),
        ])
        row = result.ev_ids.index("late")
        assert not result.committed_kw[row, :12].any()
        assert result.flags[0].startswith("step 3: session e3 removed")


def test_one_solve_per_station_per_round(monkeypatch, desk_config_path):
    """The desk horizon calls ``solve_task`` once per active station per
    round, and hands ``_project`` as many rows in all: the count the
    benchmark's traced runs cross-check."""
    cfg = load_run_config(str(desk_config_path), {})
    inputs = preflight(cfg, "simulate")
    solves = rows = 0
    real_solve, real_project = scheduler.solve_task, scheduler._project

    def counting(*args, **kwargs):
        nonlocal solves
        solves += 1
        return real_solve(*args, **kwargs)

    def counting_rows(stations, p):
        nonlocal rows
        rows += p.shape[0]
        return real_project(stations, p)

    monkeypatch.setattr(scheduler, "solve_task", counting)
    monkeypatch.setattr(coordinator, "solve_task", counting)
    monkeypatch.setattr(scheduler, "_project", counting_rows)
    steps, sessions = cfg.horizon_steps, inputs.sessions
    result = run_receding_horizon(cfg.scheduler, inputs.base.mw.sum(axis=0), sessions,
                                  steps, inputs.events_by_step)

    live, expected = {s.ev_id for s in sessions}, 0
    for tau, trace in enumerate(result.step_traces):
        for ev_id, session in inputs.events_by_step.get(tau, []):
            if session is None:
                live.discard(ev_id)
            else:
                live.add(ev_id)
        expected += len(live) * trace.iterations
    assert solves == rows == expected > 0


def test_stations_prepared_once_per_fixed_point(monkeypatch, desk_config_path):
    """The desk horizon runs a fixed point only on its first step and on
    its two event steps, and each prepares its stations once, never once
    per round."""
    cfg = load_run_config(str(desk_config_path), {})
    inputs = preflight(cfg, "simulate")
    calls = {"prepare": 0, "fixed_point": 0}

    def counting(module, name, key):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(scheduler, "prepare_stations", "prepare")
    counting(coordinator, "run_fixed_point", "fixed_point")
    result = run_receding_horizon(cfg.scheduler, inputs.base.mw.sum(axis=0),
                                  inputs.sessions, cfg.horizon_steps, inputs.events_by_step)
    traces = result.step_traces
    active = sum(1 for trace in traces if trace.iterations > 0)
    assert calls["fixed_point"] == calls["prepare"] == active == 3
    assert active < sum(trace.iterations for trace in traces)
