"""Load aggregation, per-slot grid evaluation, and scenario comparison."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_identical, cell_text, round_trip
from evgrid import fileio
from evgrid.cli import load_run_config
from evgrid.fileio import read_schedule_blocks, read_schedules, write_schedules
from evgrid.grid import BusKind
from evgrid.metrics import (
    BASE_LOAD_HEADER,
    BaseLoadProfile,
    ReactiveAssumptions,
    aggregate_load,
    compare_scenarios,
    evaluate_grid_at_slot,
    read_base_load,
    render_report,
    solve_scenario,
)
from evgrid.powerflow import PowerFlowError, solve_power_flow
from oracles import reference_aggregate


def constant_base(mw_by_bus: dict[int, float], slots: int = 6) -> BaseLoadProfile:
    bus_ids = tuple(sorted(mw_by_bus))
    mw = np.tile(np.array([[mw_by_bus[b]] for b in bus_ids]), (1, slots))
    return BaseLoadProfile(bus_ids, mw)


class TestBaseLoadProfile:
    def test_negative_load_rejected(self, tmp_path):
        # the value rule is checked where a file is read, at its row
        path = tmp_path / "base.csv"
        for value in ("-1.0", "nan", "inf"):
            path.write_text(f"slot,bus_id,mw\n0,5,1.0\n1,5,{value}\n")
            with pytest.raises(ValueError, match=(
                    rf"base\.csv:3: base load {value} MW must be finite and non-negative")):
                read_base_load(path)

    def test_row_lookup(self):
        profile = constant_base({5: 90.0, 7: 100.0})
        assert profile.slots == 6

    @round_trip
    @given(data=st.data())
    def test_file_round_trip(self, tmp_path, data):
        bus_ids = data.draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=4,
                                     unique=True).map(sorted))
        slots = data.draw(st.integers(1, 6))
        # base load is finite and non-negative; -0.0 passes that check
        mw = data.draw(st.lists(st.floats(min_value=0.0, allow_infinity=False)
                                | st.just(-0.0),
                                min_size=len(bus_ids) * slots,
                                max_size=len(bus_ids) * slots))
        profile = BaseLoadProfile(tuple(bus_ids), np.array(mw).reshape(len(bus_ids), slots))
        path = tmp_path / "base.csv"
        fileio.write_rows(path, BASE_LOAD_HEADER,
                          ([t, bus_id, profile.mw[k, t]] for t in range(slots)
                           for k, bus_id in enumerate(bus_ids)))
        back = read_base_load(path)
        assert back.bus_ids == profile.bus_ids
        assert_identical(back.mw.tolist(), profile.mw.tolist())

    def test_read_rejects_empty(self, tmp_path):
        path = tmp_path / "base.csv"
        path.write_text("slot,bus_id,mw\n")
        with pytest.raises(ValueError, match="no base load rows"):
            read_base_load(path)

    def test_read_rejects_gap_in_slots(self, tmp_path):
        path = tmp_path / "base.csv"
        path.write_text("slot,bus_id,mw\n0,5,10\n2,5,11\n")
        with pytest.raises(ValueError, match="contiguous"):
            read_base_load(path)

    def test_read_rejects_missing_cell(self, tmp_path):
        path = tmp_path / "base.csv"
        path.write_text("slot,bus_id,mw\n0,5,10\n0,7,12\n1,5,11\n")
        with pytest.raises(ValueError, match="missing entry for slot 1, bus 7"):
            read_base_load(path)

    def test_read_locates_an_unparsable_cell(self, tmp_path):
        path = tmp_path / "base.csv"
        path.write_text("slot,bus_id,mw\n0,5,10\n\n1,5,ten\n")
        with pytest.raises(ValueError, match=r"base\.csv:4: could not convert string to float"):
            read_base_load(path)

    def test_read_rejects_duplicate_cell(self, tmp_path):
        path = tmp_path / "base.csv"
        path.write_text("slot,bus_id,mw\n0,5,10\n0,5,11\n")
        with pytest.raises(ValueError, match="duplicate entry"):
            read_base_load(path)


class TestReactiveAssumptions:
    def test_unity_power_factor_means_no_reactive(self):
        assumptions = ReactiveAssumptions(1.0, 1.0)
        q = assumptions.reactive_mvar(np.array([90.0]), np.array([10.0]))
        assert np.array_equal(q, np.zeros(1))

    def test_known_tangent(self):
        assumptions = ReactiveAssumptions(0.9, 1.0)
        q = assumptions.reactive_mvar(np.array([90.0]), np.array([50.0]))
        expected = 90.0 * math.sqrt(1.0 - 0.81) / 0.9
        assert q[0] == pytest.approx(expected, rel=1e-12)

    def test_ev_power_factor_contributes(self):
        assumptions = ReactiveAssumptions(1.0, 0.95)
        q = assumptions.reactive_mvar(np.array([90.0]), np.array([50.0]))
        assert q[0] == pytest.approx(50.0 * math.sqrt(1 - 0.95 ** 2) / 0.95,
                                     rel=1e-12)

    @pytest.mark.parametrize("pf", [0.0, -0.5, 1.2])
    def test_invalid_power_factor_rejected(self, tmp_path, pf):
        # the rule is checked where the config is read; the type takes its
        # values as given
        ReactiveAssumptions(base_power_factor=pf)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"reactive": {"base_power_factor": pf}}))
        with pytest.raises(ValueError) as info:
            load_run_config(str(path), {})
        assert str(info.value) == (f"{path}: reactive.base_power_factor: expected a power "
                                   f"factor in (0, 1], got {pf!r}")


class TestAggregateLoad:
    def test_zero_profiles(self):
        base = constant_base({5: 90.0, 7: 100.0})
        ev_mw = aggregate_load(base, [])
        assert np.array_equal(ev_mw, np.zeros_like(base.mw))
        assert np.array_equal((base.mw + ev_mw).sum(axis=0), np.full(6, 190.0))

    def test_kilowatts_become_megawatts(self):
        base = constant_base({5: 90.0, 7: 100.0}, slots=4)
        ev_mw = aggregate_load(base, [([7], np.full((1, 4), 6.6))])
        assert ev_mw.shape == base.mw.shape
        assert np.array_equal(ev_mw[0], np.zeros(4))
        assert np.allclose(ev_mw[1], 0.0066, atol=1e-15)

    def test_profiles_accumulate_per_bus(self):
        base = constant_base({5: 0.0}, slots=3)
        ev_mw = aggregate_load(
            base, [([5, 5], np.array([[1000.0, 0.0, 0.0], [500.0, -250.0, 0.0]]))])
        assert np.array_equal(ev_mw[0], np.array([1.5, -0.25, 0.0]))


def bus_blocks(path):
    """The ``(bus_ids, profiles_kw)`` blocks of a schedule file, as read."""
    return ((bus_ids, kw) for _, bus_ids, kw in read_schedule_blocks(path))


class TestStreamedAggregation:
    @round_trip
    @given(data=st.data(), block_rows=st.sampled_from([1, 3, 7]))
    def test_file_blocks_match_per_row_oracle(self, tmp_path, data, block_rows):
        """write -> blocks -> sum equals the per-row sum byte for byte, and the
        concatenated blocks round-trip, whatever the block size."""
        n = data.draw(st.integers(1, 23))
        slots = data.draw(st.integers(1, 5))
        ev_ids = data.draw(st.lists(cell_text, min_size=n, max_size=n))
        bus_ids = data.draw(st.lists(st.sampled_from([5, 7, 9]), min_size=n, max_size=n))
        kw = np.array(data.draw(st.lists(st.floats(-1e300, 1e300), min_size=n * slots,
                                         max_size=n * slots))).reshape(n, slots)
        base = constant_base({5: 90.0, 7: 100.0, 9: 125.0}, slots)
        path = tmp_path / "schedules.csv"
        write_schedules(path, ev_ids, bus_ids, kw)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileio, "_BLOCK_ROWS", block_rows)
            sizes = [len(ids) for ids, _, _ in read_schedule_blocks(path)]
            ev_mw = aggregate_load(base, bus_blocks(path))
            got_ids, got_buses, got_kw = read_schedules(path)
        assert sizes == [min(block_rows, n - start) for start in range(0, n, block_rows)]
        want = reference_aggregate(base, zip(bus_ids, kw))
        assert ev_mw.tobytes() == want.tobytes()
        assert_identical(got_ids, ev_ids)
        assert_identical(got_buses, bus_ids)
        assert got_kw.shape == kw.shape and got_kw.tobytes() == kw.tobytes()

    def test_streamed_file_stays_small(self, tmp_path):
        """Summing a 20,000 x 96 file holds a block at a time, not the matrix
        (15 MB of doubles alone)."""
        n, slots = 20_000, 96
        rng = np.random.default_rng(7)
        arrive = rng.integers(0, slots - 8, n)
        charging = ((np.arange(slots) >= arrive[:, None])
                    & (np.arange(slots) < arrive[:, None] + 8))
        path = tmp_path / "schedules.csv"
        write_schedules(path, [f"ev{k}" for k in range(n)],
                        rng.choice([5, 7, 9], n).tolist(), np.where(charging, 3.6, 0.0))
        base = constant_base({5: 90.0, 7: 100.0, 9: 125.0}, slots)
        tracemalloc.start()
        try:
            ev_mw = aggregate_load(base, bus_blocks(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"
        assert ev_mw.sum() == pytest.approx(n * 8 * 3.6 / 1000.0, rel=1e-12)

    def test_schedule_write_holds_one_row_of_floats(self, tmp_path):
        """Writing a 4,000 x 96 schedule makes one row's Python floats at a
        time, not every cell's (12 MB of them at once)."""
        n, slots = 4_000, 96
        kw = np.random.default_rng(7).uniform(-6.6, 6.6, (n, slots))
        ev_ids = [f"ev{k}" for k in range(n)]
        tracemalloc.start()
        try:
            write_schedules(tmp_path / "schedules.csv", ev_ids, [5] * n, kw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"


class TestEvaluateGridAtSlot:
    def test_zero_load_is_flat(self, unity_case):
        base = BaseLoadProfile((2, 3), np.zeros((2, 4)))
        solution = evaluate_grid_at_slot(unity_case, base, np.zeros((2, 4)), 0)
        assert np.array_equal(solution.v_mag, np.ones(3))
        assert np.array_equal(solution.v_angle, np.zeros(3))
        assert all(f.i_from_amps < 1e-12 for f in solution.flows)

    def test_matches_direct_injection_setup(self, wscc_case):
        base = constant_base({5: 90.0, 7: 100.0, 9: 125.0}, slots=2)
        ev_mw = aggregate_load(base, [([5], np.full((1, 2), 2000.0))])
        assumptions = ReactiveAssumptions(0.9, 1.0)
        solution = evaluate_grid_at_slot(wscc_case, base, ev_mw, 1, assumptions)

        tan_phi = math.sqrt(1 - 0.81) / 0.9
        p_pu = {5: -92.0 / 100.0, 7: -1.0, 9: -1.25}
        q_pu = {5: -90.0 * tan_phi / 100.0, 7: -100.0 * tan_phi / 100.0,
                9: -125.0 * tan_phi / 100.0}
        loaded = wscc_case.with_injections(p_pu, q_pu)
        direct = solve_power_flow(loaded)
        assert np.array_equal(solution.v_mag, direct.v_mag)
        assert np.array_equal(solution.v_angle, direct.v_angle)

    def test_pv_override_changes_dispatch(self, wscc_case):
        base = constant_base({5: 90.0, 7: 100.0, 9: 125.0}, slots=2)
        dispatched = wscc_case.with_injections({2: 120.0 / 100.0, 3: 40.0 / 100.0}, {})
        solution = evaluate_grid_at_slot(dispatched, base, np.zeros((3, 2)), 0)
        assert solution.p_inj[1] * 100.0 == pytest.approx(120.0, abs=1e-6)
        assert solution.p_inj[2] * 100.0 == pytest.approx(40.0, abs=1e-6)

    def test_heavier_load_sags_remote_buses(self, wscc_case):
        no_ev = np.zeros((3, 1))
        sol_light = evaluate_grid_at_slot(
            wscc_case, constant_base({5: 60.0, 7: 60.0, 9: 60.0}, 1), no_ev, 0)
        sol_heavy = evaluate_grid_at_slot(
            wscc_case, constant_base({5: 110.0, 7: 110.0, 9: 110.0}, 1), no_ev, 0)
        for i in (4, 6, 8):
            assert sol_heavy.v_mag[i] < sol_light.v_mag[i]


def compare(case, base, uncoordinated, coordinated, flags=()):
    """``compare_scenarios`` on two lists of (bus_id, kW profile) over
    ``base``, each scenario solved by ``solve_scenario``."""
    ev_mw = [aggregate_load(base, [([bus_id], np.reshape(kw, (1, -1))) for bus_id, kw in rows])
             for rows in (uncoordinated, coordinated)]
    solved = [solve_scenario(label, case, base, ev)
              for label, ev in zip(("uncoordinated", "coordinated"), ev_mw)]
    return compare_scenarios(case, base, *ev_mw, *solved, flags)


class TestCompareScenarios:
    def test_identical_scenarios(self, wscc_case):
        base = constant_base({5: 90.0, 7: 100.0, 9: 125.0}, slots=4)
        profiles = [(5, np.full(4, 1500.0))]
        report = compare(wscc_case, base, profiles, profiles)
        assert report["peak"]["shaving_pct"] == 0.0
        assert report["peak"]["slot_before"] == report["peak"]["slot_after"] == 0
        assert report["line_current_total"]["reduction_pct"] == 0.0
        for row in report["bus_voltages"]:
            assert row["after_pu"] == row["before_pu"]
        # an unchanged swing dispatch is worth a note
        assert any("did not fall" in d for d in report["diagnostics"])

    def test_shaving_percentage(self, wscc_case):
        mw = np.array([[100.0, 180.0, 120.0, 90.0]])
        base = BaseLoadProfile((5,), mw)
        coordinated = [(5, np.array([25.0, -55.0, 5.0, 35.0]) * 1000.0)]
        peak = compare(wscc_case, base, [], coordinated)["peak"]
        assert peak["before_mw"] == 180.0
        assert peak["slot_before"] == 1
        assert peak["after_mw"] == pytest.approx(125.0, abs=1e-9)
        assert peak["slot_after"] == 0
        assert peak["shaving_pct"] == pytest.approx(
            100.0 * (180.0 - 125.0) / 180.0, rel=1e-12)

    def test_zero_peak_shaves_nothing(self, wscc_case):
        # no load at all: the shaving is 0 %, as a zero line total's is
        base = constant_base({5: 0.0, 7: 0.0, 9: 0.0}, slots=3)
        peak = compare(wscc_case, base, [], [])["peak"]
        assert peak["before_mw"] == peak["after_mw"] == 0.0
        assert_identical(peak["shaving_pct"], 0.0)

    def test_peak_tie_goes_to_earliest_slot(self, wscc_case):
        mw = np.array([[150.0, 150.0, 140.0]])
        base = BaseLoadProfile((5,), mw)
        peak = compare(wscc_case, base, [], [])["peak"]
        assert peak["slot_before"] == 0
        assert peak["slot_after"] == 0

    def test_transformers_excluded_from_line_total(self, wscc_case):
        base = constant_base({5: 90.0, 7: 100.0, 9: 125.0}, slots=2)
        report = compare(wscc_case, base, [], [])
        transformer_ends = {(1, 4), (3, 6), (8, 2)}
        line_sum = 0.0
        for row in report["branch_currents"]:
            expected_line = (row["from_bus"], row["to_bus"]) not in transformer_ends
            assert row["is_line"] is expected_line
            if row["is_line"]:
                line_sum += row["before_a"]
        assert report["line_current_total"]["before_a"] == pytest.approx(
            line_sum, rel=1e-12)
        assert len(report["branch_currents"]) == 9

    def test_voltage_rows_cover_pq_buses(self, wscc_case):
        base = constant_base({5: 90.0, 7: 100.0, 9: 125.0}, slots=2)
        report = compare(wscc_case, base, [], [])
        assert [r["bus"] for r in report["bus_voltages"]] == [4, 5, 6, 7, 8, 9]

    def test_flags_passed_through(self, wscc_case):
        base = constant_base({5: 90.0}, slots=2)
        report = compare(wscc_case, base, [], [], flags=("step 3: something notable",))
        assert report["flags"] == ["step 3: something notable"]

    def test_divergent_power_flow_reported_with_label(self, wscc_case):
        base = constant_base({5: 5000.0}, slots=2)
        with pytest.raises(PowerFlowError,
                           match="uncoordinated scenario at slot 0"):
            compare(wscc_case, base, [], [])

    def test_lighter_peaks_improve_everything(self, wscc_case):
        slots = 4
        base = constant_base({5: 90.0, 7: 100.0, 9: 125.0}, slots)
        uncoordinated = [(5, np.full(slots, 40000.0)),
                         (9, np.full(slots, 45000.0))]
        # same energy spread as V2G-free constant halves
        coordinated = [(5, np.full(slots, 20000.0)),
                       (9, np.full(slots, 22500.0))]
        report = compare(wscc_case, base, uncoordinated, coordinated)
        assert report["peak"]["shaving_pct"] > 0.0
        lines = report["line_current_total"]
        assert lines["after_a"] < lines["before_a"]
        swing = report["generation"]["swing"]
        assert swing["after"]["p_mw"] < swing["before"]["p_mw"]
        assert report["diagnostics"] == []
        for row in report["bus_voltages"]:
            assert row["after_pu"] > row["before_pu"]


class TestReportOutput:
    @pytest.fixture()
    def report(self, wscc_case):
        base = constant_base({5: 90.0, 7: 100.0, 9: 125.0}, slots=3)
        uncoordinated = [(5, np.full(3, 30000.0))]
        coordinated = [(5, np.full(3, 12000.0))]
        return compare(wscc_case, base, uncoordinated, coordinated, flags=("note one",))

    def test_dict_is_json_ready(self, report):
        parsed = json.loads(json.dumps(report))
        assert parsed == report
        assert parsed["peak"]["before_mw"] == report["peak"]["before_mw"]
        assert parsed["peak"]["shaving_pct"] == report["peak"]["shaving_pct"]
        assert len(parsed["bus_voltages"]) == 6
        assert len(parsed["branch_currents"]) == 9
        assert parsed["generation"]["swing"]["bus"] == 1
        assert {g["bus"] for g in parsed["generation"]["pv"]} == {2, 3}
        assert parsed["flags"] == ["note one"]

    def test_rendered_tables(self, report):
        text = render_report(report)
        assert "Peak load:" in text
        assert "shaving" in text
        assert "4-5" in text
        assert "(transformer)" in text
        assert "PQ bus voltages (pu)" in text
        assert "note one" in text
        # percent strings match the stored numbers
        assert f"{report['peak']['shaving_pct']:.2f}%" in text
