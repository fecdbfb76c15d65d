"""EV session model, synthetic fleets, and the baseline profile."""

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
    generate_fleet,
    read_sessions,
    uncoordinated_profile,
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

    @pytest.mark.parametrize("rates", [{"p_max_kw": float("inf")},
                                       {"d_max_kw": float("-inf")},
                                       {"p_max_kw": float("nan")}])
    def test_rates_must_be_finite(self, rates):
        with pytest.raises(FleetError, match="rate bounds must be finite"):
            make_session(**rates).validate(96, 0.25)

    def test_net_discharge_session_allowed(self):
        make_session(energy_kwh=-5.0).validate(96, 0.25)


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

    def test_unparsable_cell_reports_line(self, tmp_path):
        path = tmp_path / "sessions.csv"
        write_sessions(path, [make_session("a"), make_session("b")])
        path.write_text(path.read_text().replace("b,5,", "b,five,"))
        with pytest.raises(ValueError, match=r"sessions\.csv:3: invalid literal .* 'five'"):
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

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("who,what\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_sessions(path)
