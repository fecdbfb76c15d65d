"""EV session model, prediction, synthetic fleets, and the baseline profile."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_identical, cell_text, file_ints, finite_floats, make_session, round_trip
from evgrid.fleet import (
    EvSession,
    FleetError,
    FleetScenario,
    FleetSpec,
    HistoricalRecord,
    generate_fleet,
    predict_sessions,
    read_history,
    read_sessions,
    uncoordinated_profile,
    write_history,
    write_sessions,
)


def default_spec(**kwargs) -> FleetSpec:
    defaults = dict(
        counts={5: 3, 7: 2},
        slots=96,
        slot_hours=0.25,
        arrival_mean_slot=14.0,
        arrival_std_slots=7.0,
        duration_mean_slots=76.0,
        duration_std_slots=10.0,
        energy_kwh_range=(10.0, 40.0),
        p_max_kw=6.6,
        d_max_kw=-6.6,
    )
    defaults.update(kwargs)
    return FleetSpec(**defaults)


class TestEvSession:
    def test_valid_session_passes(self):
        make_session().validate(slots=96, slot_hours=0.25)

    @pytest.mark.parametrize("start,end", [(-1, 10), (10, 10), (12, 10), (90, 100)])
    def test_bad_window_rejected(self, start, end):
        with pytest.raises(FleetError):
            make_session(t_start=start, t_end=end).validate(96, 0.25)

    def test_energy_above_reachable_rejected(self):
        # 8 slots x 0.25 h x 6.6 kW = 13.2 kWh max
        with pytest.raises(FleetError, match="energy"):
            make_session(energy_kwh=13.3).validate(96, 0.25)

    def test_energy_below_reachable_rejected(self):
        with pytest.raises(FleetError, match="energy"):
            make_session(energy_kwh=-13.3).validate(96, 0.25)

    def test_rate_signs_enforced(self):
        with pytest.raises(FleetError):
            make_session(p_max_kw=-1.0).validate(96, 0.25)
        with pytest.raises(FleetError):
            make_session(d_max_kw=1.0).validate(96, 0.25)

    def test_net_discharge_session_allowed(self):
        make_session(energy_kwh=-5.0).validate(96, 0.25)


class TestPredictSessions:
    def test_single_record_mean(self):
        history = [HistoricalRecord("a", "2026-01-05", 30, 60, 12.0)]
        sessions, flags = predict_sessions(history, 96, 0.25, 6.6, -6.6)
        assert flags == []
        s = sessions[0]
        assert (s.t_start, s.t_end, s.energy_kwh) == (30, 60, 12.0)

    def test_two_record_mean(self):
        history = [
            HistoricalRecord("a", "2026-01-05", 20, 60, 10.0),
            HistoricalRecord("a", "2026-01-06", 40, 80, 14.0),
        ]
        sessions, _ = predict_sessions(history, 96, 0.25, 6.6, -6.6)
        s = sessions[0]
        assert (s.t_start, s.t_end, s.energy_kwh) == (30, 70, 12.0)

    def test_missing_ev_named_in_error(self):
        history = [HistoricalRecord("a", "2026-01-05", 30, 60, 12.0)]
        with pytest.raises(FleetError, match="ghost"):
            predict_sessions(history, 96, 0.25, 6.6, -6.6, ev_ids=["a", "ghost"])

    def test_empty_history_rejected(self):
        with pytest.raises(FleetError):
            predict_sessions([], 96, 0.25, 6.6, -6.6)

    def test_end_forced_after_start(self):
        history = [
            HistoricalRecord("a", "2026-01-05", 40, 41, 0.5),
            HistoricalRecord("a", "2026-01-06", 41, 42, 0.5),
        ]
        sessions, _ = predict_sessions(history, 96, 0.25, 6.6, -6.6)
        assert sessions[0].t_end > sessions[0].t_start

    def test_infeasible_energy_clamped_and_flagged(self):
        # a 2-slot window cannot absorb 50 kWh at 6.6 kW
        history = [HistoricalRecord("a", "2026-01-05", 10, 12, 50.0)]
        sessions, flags = predict_sessions(history, 96, 0.25, 6.6, -6.6)
        assert sessions[0].energy_kwh == pytest.approx(6.6 * 0.5)
        assert len(flags) == 1 and "a" in flags[0]
        sessions[0].validate(96, 0.25)

    def test_bus_assignment_mapping(self):
        history = [HistoricalRecord("a", "2026-01-05", 30, 60, 12.0)]
        sessions, _ = predict_sessions(history, 96, 0.25, 6.6, -6.6,
                                       bus_assignment={"a": 7})
        assert sessions[0].bus_id == 7

    @settings(max_examples=30, deadline=None)
    @given(rnd=st.randoms(use_true_random=False))
    def test_record_order_invariant(self, rnd):
        history = [
            HistoricalRecord("a", f"2026-01-{d:02d}", 10 + d, 50 + d, 5.0 + d)
            for d in range(1, 8)
        ] + [
            HistoricalRecord("b", f"2026-01-{d:02d}", 20 + d, 60 + d, 9.0 + d)
            for d in range(1, 5)
        ]
        baseline = predict_sessions(history, 96, 0.25, 6.6, -6.6)
        rnd.shuffle(history)
        assert predict_sessions(history, 96, 0.25, 6.6, -6.6) == baseline


class TestGenerateFleet:
    def test_zero_count_empty(self):
        scenario = generate_fleet(1, default_spec(counts={5: 0}))
        assert scenario.sessions == ()

    def test_seed_determinism(self):
        spec = default_spec()
        assert generate_fleet(1, spec) == generate_fleet(1, spec)

    def test_seeds_differ(self):
        spec = default_spec()
        assert generate_fleet(1, spec) != generate_fleet(2, spec)

    def test_counts_and_buses_honoured(self):
        scenario = generate_fleet(3, default_spec(counts={5: 3, 7: 2}))
        by_bus = {}
        for s in scenario.sessions:
            by_bus[s.bus_id] = by_bus.get(s.bus_id, 0) + 1
        assert by_bus == {5: 3, 7: 2}
        assert scenario.per_bus_counts == {5: 3, 7: 2}

    def test_all_sessions_feasible(self):
        scenario = generate_fleet(11, default_spec(counts={5: 40, 9: 40}))
        for s in scenario.sessions:
            s.validate(scenario.slots_per_horizon, scenario.slot_hours)

    def test_ev_ids_unique(self):
        scenario = generate_fleet(5, default_spec(counts={5: 20, 7: 20}))
        ids = [s.ev_id for s in scenario.sessions]
        assert len(set(ids)) == len(ids)

    def test_invalid_spec_rejected(self):
        with pytest.raises(FleetError):
            default_spec(energy_kwh_range=(40.0, 10.0)).validate()
        with pytest.raises(FleetError):
            default_spec(counts={5: -1}).validate()

    def test_duplicate_ids_rejected_by_scenario(self):
        s = make_session()
        with pytest.raises(FleetError, match="duplicate"):
            FleetScenario((s, s), 96, 0.25)


class TestUncoordinatedProfile:
    def test_exact_three_slots(self):
        # 8 kW for exactly three 0.25 h slots = 6 kWh
        s = make_session(energy_kwh=6.0, p_max_kw=8.0, t_start=2, t_end=10)
        profile = uncoordinated_profile(s, 16, 0.25)
        assert list(profile[2:5]) == [8.0, 8.0, 8.0]
        assert not profile[:2].any() and not profile[5:].any()

    def test_zero_energy_zero_profile(self):
        s = make_session(energy_kwh=0.0)
        assert not uncoordinated_profile(s, 16, 0.25).any()

    def test_fractional_final_slot(self):
        # 5 kWh at 8 kW: two full slots then half rate
        s = make_session(energy_kwh=5.0, p_max_kw=8.0, t_start=0, t_end=8)
        profile = uncoordinated_profile(s, 16, 0.25)
        assert list(profile[:3]) == [8.0, 8.0, 4.0]
        assert not profile[3:].any()

    def test_negative_energy_rejected(self):
        with pytest.raises(FleetError, match="discharge"):
            uncoordinated_profile(make_session(energy_kwh=-2.0), 16, 0.25)

    @settings(max_examples=100, deadline=None)
    @given(
        start=st.integers(0, 40),
        width=st.integers(1, 50),
        p_max=st.floats(0.5, 50.0),
        fill=st.floats(0.0, 1.0),
    )
    def test_energy_and_window_invariants(self, start, width, p_max, fill):
        end = min(start + width, 96)
        energy = fill * p_max * 0.25 * (end - start)
        s = make_session(energy_kwh=energy, p_max_kw=p_max,
                         d_max_kw=-p_max, t_start=start, t_end=end)
        profile = uncoordinated_profile(s, 96, 0.25)
        assert float(profile.sum()) * 0.25 == pytest.approx(energy, abs=1e-9)
        assert not profile[:start].any()
        assert not profile[end:].any()
        assert profile.max(initial=0.0) <= p_max + 1e-12
        assert profile.min(initial=0.0) >= 0.0


sessions_lists = st.lists(st.builds(
    EvSession, ev_id=cell_text, bus_id=file_ints, t_start=file_ints, t_end=file_ints,
    energy_kwh=finite_floats, p_max_kw=finite_floats, d_max_kw=finite_floats,
), max_size=5)

# start precedes end and the energy is not negative (-0.0 included)
history_lists = st.lists(st.builds(
    lambda ev_id, date, start, width, energy:
        HistoricalRecord(ev_id, date, start, start + width, energy),
    cell_text, cell_text, file_ints, st.integers(1, 10**9),
    finite_floats.filter(lambda x: x >= 0.0),
), max_size=5)


class TestFiles:
    @round_trip
    @given(sessions=sessions_lists)
    def test_sessions_round_trip(self, tmp_path, sessions):
        path = tmp_path / "sessions.csv"
        write_sessions(path, sessions)
        assert_identical(read_sessions(path), sessions)

    @pytest.mark.parametrize("ev_id", ["a,b", "a\nb", "a\rb"])
    def test_ev_id_that_breaks_a_row_rejected(self, ev_id):
        with pytest.raises(FleetError, match="comma or line break"):
            make_session(ev_id=ev_id)

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "sessions.csv"
        write_sessions(path, [make_session("a"), make_session("b")])
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"sessions\.csv:3: 6 cells, header has 7"):
            read_sessions(path)

    def test_sessions_round_trip_bit_exact_bytes(self, tmp_path):
        scenario = generate_fleet(4, default_spec())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sessions(a, scenario.sessions)
        write_sessions(b, read_sessions(a))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_sessions_header_only(self, tmp_path):
        path = tmp_path / "none.csv"
        write_sessions(path, [])
        assert read_sessions(path) == []
        assert len(path.read_text().strip().splitlines()) == 1

    @round_trip
    @given(records=history_lists)
    def test_history_round_trip(self, tmp_path, records):
        path = tmp_path / "history.csv"
        write_history(path, records)
        assert_identical(read_history(path), records)

    @pytest.mark.parametrize("ev_id,date", [
        ("a,b", "2026-01-05"), ("a\nb", "2026-01-05"), ("a", "2026-01-05\r"),
        ("a", "2026,01,05"),
    ])
    def test_history_cell_that_breaks_a_row_rejected(self, ev_id, date):
        with pytest.raises(FleetError, match="comma or line break"):
            HistoricalRecord(ev_id, date, 30, 60, 12.0)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("who,what\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_sessions(path)

    def test_record_validation(self):
        with pytest.raises(FleetError):
            HistoricalRecord("a", "2026-01-05", 30, 30, 12.0)
        with pytest.raises(FleetError):
            HistoricalRecord("a", "2026-01-05", 10, 30, -1.0)
