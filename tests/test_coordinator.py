"""Scripted events and the receding-horizon loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (assert_identical, cell_text, file_ints, finite_floats, make_session,
                      round_trip, small_config)
from evgrid import coordinator, scheduler
from evgrid.cli import load_run_config, preflight
from evgrid.coordinator import (
    EVENT_KINDS,
    CoordinatorError,
    ScriptedEvent,
    read_events,
    run_receding_horizon,
    schedule_events,
    write_events,
)
from evgrid.fleet import EvSession, FleetScenario
from evgrid.scheduler import run_until_converged


def scenario_of(*sessions, slots=16):
    return FleetScenario(tuple(sessions), slots_per_horizon=slots, slot_hours=0.25)


def shaped_base(slots=16):
    return 50.0 + 10.0 * np.sin(np.linspace(0.0, 2.0 * np.pi, slots))


class TestScriptedEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(CoordinatorError, match="unknown event kind"):
            ScriptedEvent(slot=0, kind="swap_battery", ev_id="e1")

    def test_negative_slot_rejected(self):
        with pytest.raises(CoordinatorError, match="negative"):
            ScriptedEvent(slot=-1, kind="remove_session", ev_id="e1")

    def test_add_session_requires_full_definition(self):
        with pytest.raises(CoordinatorError, match="missing fields"):
            ScriptedEvent(slot=2, kind="add_session", ev_id="e1", bus_id=5,
                          t_start=0, t_end=8, energy_kwh=4.0)

    def test_update_energy_requires_target(self):
        with pytest.raises(CoordinatorError, match="needs energy_kwh"):
            ScriptedEvent(slot=2, kind="update_energy", ev_id="e1")

    def test_remove_session_needs_no_extras(self):
        event = ScriptedEvent(slot=2, kind="remove_session", ev_id="e1")
        assert event.bus_id is None


@st.composite
def scripted_events(draw):
    kind = draw(st.sampled_from(EVENT_KINDS))
    adds = kind == "add_session"

    def field(values, required):
        return draw(values if required else st.none() | values)

    return ScriptedEvent(
        slot=draw(st.integers(0, 10**9)), kind=kind, ev_id=draw(cell_text),
        bus_id=field(file_ints, adds), t_start=field(file_ints, adds),
        t_end=field(file_ints, adds),
        energy_kwh=field(finite_floats, adds or kind == "update_energy"),
        p_max_kw=field(finite_floats, adds), d_max_kw=field(finite_floats, adds),
    )


class TestEventsFile:
    @round_trip
    @given(events=st.lists(scripted_events(), max_size=5))
    def test_round_trip(self, tmp_path, events):
        path = tmp_path / "events.csv"
        write_events(path, events)
        assert_identical(read_events(path), events)

    @pytest.mark.parametrize("ev_id", ["a,b", "a\nb", "a\rb"])
    def test_ev_id_that_breaks_a_row_rejected(self, ev_id):
        with pytest.raises(CoordinatorError, match="comma or line break"):
            ScriptedEvent(slot=2, kind="remove_session", ev_id=ev_id)

    def test_shipped_events_parse(self, desk_config_path):
        events = read_events(desk_config_path.parent / "events.csv")
        assert len(events) == 6
        assert {e.kind for e in events} <= {"add_session", "update_energy",
                                            "remove_session"}
        assert all(0 <= e.slot < 96 for e in events)


class TestRecedingHorizon:
    def base_scenario(self):
        sessions = [
            make_session(ev_id="e1", bus_id=5, t_start=0, t_end=12, energy_kwh=8.0),
            make_session(ev_id="e2", bus_id=7, t_start=2, t_end=14, energy_kwh=6.0),
            make_session(ev_id="e3", bus_id=9, t_start=4, t_end=16, energy_kwh=-2.0),
        ]
        return scenario_of(*sessions)

    def test_single_step_equals_one_shot(self):
        config = small_config()
        base = shaped_base()
        scenario = self.base_scenario()
        one_shot, _ = run_until_converged(config, base, list(scenario.sessions))
        result = run_receding_horizon(config, base, scenario, steps=1)
        assert result.ev_ids == ("e1", "e2", "e3")
        assert np.array_equal(result.committed_kw, one_shot)

    def test_no_events_matches_one_shot(self):
        config = small_config()
        base = shaped_base()
        scenario = self.base_scenario()
        one_shot, _ = run_until_converged(config, base, list(scenario.sessions))
        result = run_receding_horizon(config, base, scenario, steps=4)
        assert np.array_equal(result.committed_kw, one_shot)
        # the carried signal settles every later step without new rounds
        assert [t.iterations for t in result.step_traces[1:]] == [0, 0, 0]
        assert result.flags == ()

    def test_committed_prefix_survives_event(self):
        config = small_config()
        base = shaped_base()
        scenario = self.base_scenario()
        plain = run_receding_horizon(config, base, scenario, steps=4)
        event = ScriptedEvent(slot=5, kind="update_energy", ev_id="e2",
                              energy_kwh=3.0)
        bumped = run_receding_horizon(config, base, scenario, steps=4,
                                      events=[event])
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
        scenario = self.base_scenario()
        event = ScriptedEvent(slot=6, kind="add_session", ev_id="late",
                              bus_id=5, t_start=9, t_end=16, energy_kwh=5.0,
                              p_max_kw=6.6, d_max_kw=-6.6)
        result = run_receding_horizon(config, base, scenario, steps=4,
                                      events=[event])
        assert "late" in result.ev_ids
        assert result.bus_ids["late"] == 5
        row = list(result.ev_ids).index("late")
        # nothing before the arrival window or the join step
        assert np.array_equal(result.committed_kw[row, :9], np.zeros(9))
        assert float(result.committed_kw[row].sum()) * 0.25 == pytest.approx(
            5.0, abs=1e-6)
        assert result.flags == ()

    def test_add_existing_id_rejected(self):
        config = small_config()
        scenario = self.base_scenario()
        event = ScriptedEvent(slot=6, kind="add_session", ev_id="e1",
                              bus_id=5, t_start=9, t_end=16, energy_kwh=5.0,
                              p_max_kw=6.6, d_max_kw=-6.6)
        with pytest.raises(CoordinatorError, match="already used"):
            run_receding_horizon(config, shaped_base(), scenario, steps=4,
                                 events=[event])

    def test_remove_session_event(self):
        config = small_config()
        base = shaped_base()
        scenario = self.base_scenario()
        event = ScriptedEvent(slot=7, kind="remove_session", ev_id="e3")
        result = run_receding_horizon(config, base, scenario, steps=4,
                                      events=[event])
        assert len(result.flags) == 1
        assert "session e3 removed before completion" in result.flags[0]
        assert "e3" in result.ev_ids
        assert result.state.removed == {"e3"}
        row = list(result.ev_ids).index("e3")
        # the committed prefix stays on the books; nothing runs afterwards
        assert np.array_equal(result.committed_kw[row, 8:], np.zeros(8))
        delivered = float(result.committed_kw[row].sum()) * 0.25
        assert f"delivered {delivered!r}" in result.flags[0]

    def test_unknown_ev_rejected(self):
        config = small_config()
        scenario = self.base_scenario()
        for kind in ("update_energy", "remove_session"):
            event = ScriptedEvent(slot=7, kind=kind, ev_id="ghost",
                                  energy_kwh=1.0)
            with pytest.raises(CoordinatorError, match="unknown ev_id 'ghost'"):
                run_receding_horizon(config, shaped_base(), scenario, steps=4,
                                     events=[event])

    def test_infeasible_update_clamped_and_flagged(self):
        config = small_config()
        base = shaped_base()
        scenario = self.base_scenario()
        # e1 can reach at most 6.6 kW * 12 slots * 0.25 h = 19.8 kWh, and by
        # slot 8 part of that window is already spent
        event = ScriptedEvent(slot=5, kind="update_energy", ev_id="e1",
                              energy_kwh=50.0)
        result = run_receding_horizon(config, base, scenario, steps=4,
                                      events=[event])
        clamp_flags = [f for f in result.flags if "clamped" in f]
        assert clamp_flags and "session e1" in clamp_flags[0]
        row = list(result.ev_ids).index("e1")
        committed = result.committed_kw[row]
        # everything still inside the window and rate box
        assert np.array_equal(committed[12:], np.zeros(4))
        assert np.all(committed <= 6.6 + 1e-12)

    def test_non_convergence_flagged(self):
        config = small_config(max_iterations=1, epsilon=1e-12)
        result = run_receding_horizon(config, shaped_base(),
                                      self.base_scenario(), steps=2)
        assert any("not converged" in f for f in result.flags)
        assert any(not t.converged for t in result.step_traces)

    def test_steps_bounds_checked(self):
        config = small_config()
        scenario = self.base_scenario()
        for steps in (0, 17):
            with pytest.raises(CoordinatorError, match="must be in 1..16"):
                run_receding_horizon(config, shaped_base(), scenario, steps=steps)

    def test_event_slot_bounds_checked(self):
        config = small_config()
        event = ScriptedEvent(slot=16, kind="remove_session", ev_id="e1")
        with pytest.raises(CoordinatorError, match="outside 0..15"):
            run_receding_horizon(config, shaped_base(), self.base_scenario(),
                                 steps=4, events=[event])

    @pytest.mark.parametrize("t_start,t_end", [(-1, 8), (9, 17), (9, 9), (10, 9)])
    def test_added_window_outside_the_horizon_rejected(self, t_start, t_end):
        event = ScriptedEvent(slot=6, kind="add_session", ev_id="late", bus_id=5,
                              t_start=t_start, t_end=t_end, energy_kwh=1.0,
                              p_max_kw=6.6, d_max_kw=-6.6)
        with pytest.raises(CoordinatorError, match=(
                rf"event at slot 6: window \[{t_start}, {t_end}\) of 'late' "
                "outside horizon of 16 slots")):
            run_receding_horizon(small_config(), shaped_base(), self.base_scenario(),
                                 steps=4, events=[event])

    @pytest.mark.parametrize("p_max,d_max", [(-3.0, -6.6), (6.6, 1.0), (-300.0, -200.0)])
    def test_added_rate_bounds_rejected(self, p_max, d_max):
        event = ScriptedEvent(slot=6, kind="add_session", ev_id="late", bus_id=5,
                              t_start=8, t_end=12, energy_kwh=1.0,
                              p_max_kw=p_max, d_max_kw=d_max)
        with pytest.raises(CoordinatorError, match=(
                rf"event at slot 6: session late: rate bounds must satisfy "
                rf"d_max <= 0 <= p_max, got \[{d_max}, {p_max}\]")):
            run_receding_horizon(small_config(), shaped_base(), self.base_scenario(),
                                 steps=4, events=[event])

    def test_slot_grid_mismatch_rejected(self):
        config = small_config(slots=24)
        with pytest.raises(CoordinatorError, match="slot grid"):
            run_receding_horizon(config, np.zeros(24), self.base_scenario(),
                                 steps=4)

    def test_delivered_energy_accounting(self):
        config = small_config()
        base = shaped_base()
        result = run_receding_horizon(config, base, self.base_scenario(),
                                      steps=4)
        dt = 0.25
        targets = {"e1": 8.0, "e2": 6.0, "e3": -2.0}
        for k, ev_id in enumerate(result.ev_ids):
            total = float(result.committed_kw[k].sum()) * dt
            assert result.state.delivered_kwh[ev_id] == pytest.approx(
                total, abs=1e-9)
            assert total == pytest.approx(targets[ev_id], abs=1e-6)

    def test_rerun_is_bit_identical(self):
        config = small_config()
        base = shaped_base()
        scenario = self.base_scenario()
        events = [ScriptedEvent(slot=5, kind="update_energy", ev_id="e2",
                                energy_kwh=7.0)]
        first = run_receding_horizon(config, base, scenario, steps=4,
                                     events=events)
        second = run_receding_horizon(config, base, scenario, steps=4,
                                      events=events)
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
    assert (repr(sorted(got.state.delivered_kwh.items()))
            == repr(sorted(want.state.delivered_kwh.items())))
    assert ({k: v.tobytes() for k, v in got.state.committed_kw.items()}
            == {k: v.tobytes() for k, v in want.state.committed_kw.items()})
    assert got.state.removed == want.state.removed
    assert got.state.sessions == want.state.sessions
    assert got.state.tau == want.state.tau


@st.composite
def horizon_scripts(draw):
    """A small scenario, base load, config, step count and an event script
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
        kinds = (["add_session"] if fresh else []) + (
            ["update_energy", "remove_session"] if live else [])
        if not kinds:
            break
        kind = draw(st.sampled_from(kinds))
        if kind == "add_session":
            ev_id = fresh.pop(0)
            (t_start, t_end), (p_max, d_max) = window(), rates()
            events.append(ScriptedEvent(slot, kind, ev_id, draw(st.sampled_from([5, 7, 9])),
                                        t_start, t_end, draw(st.floats(-10.0, 30.0)),
                                        p_max, d_max))
            live.append(ev_id)
        elif kind == "update_energy":
            events.append(ScriptedEvent(slot, kind, draw(st.sampled_from(live)),
                                        energy_kwh=draw(st.floats(-30.0, 60.0))))
        else:
            ev_id = draw(st.sampled_from(live))
            live.remove(ev_id)
            events.append(ScriptedEvent(slot, kind, ev_id))

    config = small_config(slots=slots, epsilon=draw(st.sampled_from([1e-4, 1e-2])),
                          max_iterations=draw(st.sampled_from([2, 60])))
    scenario = FleetScenario(tuple(sessions), slots, dt)
    return config, shaped_base(slots), scenario, steps, events


class TestAgainstReferenceLoop:
    """The array-backed horizon loop against the per-station loop it
    replaced (``oracles.reference_horizon``): identical results, bit for bit."""

    @given(horizon_scripts())
    @settings(max_examples=80, deadline=None)
    def test_random_scripts(self, script):
        config, base, scenario, steps, events = script
        got = run_receding_horizon(config, base, scenario, steps, events)
        want = oracles.reference_horizon(config, base, scenario, steps, events)
        assert_same_horizon(got, want)

    def run_both(self, events, extra=()):
        config = small_config()
        scenario = scenario_of(*TestRecedingHorizon().base_scenario().sessions, *extra)
        got = run_receding_horizon(config, shaped_base(), scenario, 4, events)
        want = oracles.reference_horizon(config, shaped_base(), scenario, 4, events)
        assert_same_horizon(got, want)
        return got

    def test_add_and_remove_in_one_step(self):
        # slots 5 and 6 both land at step 2, so "late" is never solved
        result = self.run_both([
            ScriptedEvent(5, "add_session", "late", 5, 9, 16, 5.0, 6.6, -6.6),
            ScriptedEvent(6, "remove_session", "late"),
        ])
        assert "late" not in result.ev_ids
        assert "late" not in result.state.delivered_kwh
        assert result.flags == (
            "step 2: session late removed before completion; delivered 0.0 of 5.0 kWh",)

    def test_removal_before_the_window_opens(self):
        late = make_session(ev_id="e4", bus_id=7, t_start=12, t_end=16, energy_kwh=4.0)
        result = self.run_both([ScriptedEvent(3, "remove_session", "e4")], [late])
        row = result.ev_ids.index("e4")
        assert not result.committed_kw[row].any()
        assert result.flags == (
            "step 1: session e4 removed before completion; delivered 0.0 of 4.0 kWh",)

    def test_unreachable_update_flags_every_later_step(self):
        result = self.run_both([ScriptedEvent(5, "update_energy", "e1", energy_kwh=50.0)])
        assert [f.split(":")[0] for f in result.flags] == ["step 2", "step 3"]
        assert all("session e1 energy target 50.0 kWh" in f for f in result.flags)

    def test_removal_of_a_clamped_session(self):
        result = self.run_both([
            ScriptedEvent(1, "update_energy", "e1", energy_kwh=50.0),
            ScriptedEvent(9, "remove_session", "e1"),
        ])
        assert [f.split(":")[0] for f in result.flags] == ["step 1", "step 2", "step 3"]
        assert all("session e1 energy target 50.0 kWh" in f for f in result.flags[:2])
        assert "session e1 removed before completion" in result.flags[2]

    def test_events_fold_into_the_last_step(self):
        # the last re-plan starts at slot 12; slots 13..15 fold into it
        result = self.run_both([
            ScriptedEvent(13, "update_energy", "e2", energy_kwh=3.0),
            ScriptedEvent(14, "add_session", "late", 7, 12, 16, 2.0, 6.6, -6.6),
            ScriptedEvent(15, "remove_session", "e3"),
        ])
        row = result.ev_ids.index("late")
        assert not result.committed_kw[row, :12].any()
        assert result.flags[0].startswith("step 3: session e3 removed")


def test_one_solve_per_station_per_round(monkeypatch, desk_config_path):
    """The desk horizon calls ``solve_task`` once per active station per
    round, the count the benchmark's traced runs cross-check."""
    cfg = load_run_config(str(desk_config_path), {})
    inputs = preflight(cfg, "simulate")
    solves = 0
    real_solve = scheduler.solve_task

    def counting(*args, **kwargs):
        nonlocal solves
        solves += 1
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(scheduler, "solve_task", counting)
    monkeypatch.setattr(coordinator, "solve_task", counting)
    steps, scenario = cfg.horizon_steps, inputs.scenario
    result = run_receding_horizon(cfg.scheduler, inputs.base.mw.sum(axis=0), scenario,
                                  steps, inputs.events)

    by_step = schedule_events(inputs.events, [s.ev_id for s in scenario.sessions],
                              cfg.scheduler.slots, steps)
    stations, expected = len(scenario.sessions), 0
    for tau, trace in enumerate(result.step_traces):
        for event in by_step.get(tau, []):
            stations += {"add_session": 1, "remove_session": -1}.get(event.kind, 0)
        expected += stations * trace.iterations
    assert solves == expected > 0
