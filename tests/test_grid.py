"""Network model, case-file parsing, and admittance assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evgrid.grid import (
    Branch,
    Bus,
    BusKind,
    GridCase,
    build_admittance_matrix,
    load_grid_case,
    parse_grid_case,
)

from conftest import DATA_DIR


def minimal_case(branch_line: str = "1  2  0.0  0.1  0.0") -> str:
    return f"""
[system]
s_base_mva = 100.0

[buses]
1  swing  1.0  0.0  0.0  0.0  230.0
2  pq     1.0  0.0  0.0  0.0  230.0

[branches]
{branch_line}
"""


class TestCaseParsing:
    def test_bundled_nine_bus_shape(self, wscc_case):
        assert wscc_case.order == 9
        assert wscc_case.s_base == 100.0
        assert wscc_case.buses[0].kind is BusKind.SWING
        assert wscc_case.bus(1).kind is BusKind.SWING
        assert [b.id for b in wscc_case.buses if b.kind is BusKind.PV] == [2, 3]
        loaded = [b.id for b in wscc_case.buses if b.p_inj < 0.0]
        assert loaded == [5, 7, 9]
        assert all(wscc_case.bus(i).kind is BusKind.PQ for i in loaded)

    def test_bundled_units_converted(self, wscc_case):
        five = wscc_case.bus(5)
        assert five.p_inj == pytest.approx(-0.9)     # -90 MW on a 100 MVA base
        assert five.q_inj == pytest.approx(-0.3)
        assert five.base_kv == 230.0
        assert wscc_case.bus(1).v_angle == 0.0

    def test_branch_tap_defaults_to_one(self):
        case = parse_grid_case(minimal_case("1  2  0.0  0.1  0.0"))
        assert case.branches[0].tap == 1.0

    def test_dangling_endpoint_names_bus(self):
        with pytest.raises(ValueError, match="99"):
            parse_grid_case(minimal_case("1  99  0.0  0.1  0.0"))

    def test_duplicate_bus_id_rejected(self):
        text = minimal_case().replace("2  pq", "1  pq")
        with pytest.raises(ValueError, match="bus id"):
            parse_grid_case(text)

    def test_disconnected_network_rejected(self):
        text = """
[system]
s_base_mva = 100.0

[buses]
1  swing  1.0  0.0  0.0  0.0  230.0
2  pq     1.0  0.0  0.0  0.0  230.0
3  pq     1.0  0.0  0.0  0.0  230.0

[branches]
1  2  0.0  0.1  0.0  1.0
"""
        with pytest.raises(ValueError, match="connect"):
            parse_grid_case(text)

    def test_zero_impedance_branch_rejected(self):
        with pytest.raises(ValueError, match="impedance"):
            parse_grid_case(minimal_case("1  2  0.0  0.0  0.0"))

    def test_malformed_row_reports_location(self):
        with pytest.raises(ValueError, match="branch"):
            parse_grid_case(minimal_case("1  2  0.0"))

    @pytest.mark.parametrize("old,new,message", [
        ("s_base_mva = 100.0", "s_base_mva = inf",
         "<case>:3: s_base_mva: expected a finite number, got 'inf'"),
        ("1  swing  1.0", "1  swing  inf", "<case>:6: expected a finite number, got 'inf'"),
        ("1  2  0.0  0.1", "1  2  nan  0.1", "<case>:10: expected a finite number, got 'nan'"),
        ("0.1  0.0", "0.1  0.0  -inf", "<case>:10: expected a finite number, got '-inf'"),
    ])
    def test_non_finite_number_located(self, old, new, message):
        with pytest.raises(ValueError) as info:
            parse_grid_case(minimal_case().replace(old, new))
        assert str(info.value) == message

    @pytest.mark.parametrize("value", ["0", "-100.0"])
    def test_non_positive_s_base_located(self, value):
        # the bus injections are divided by it, so a zero must fail at its line
        with pytest.raises(ValueError) as info:
            parse_grid_case(minimal_case().replace("s_base_mva = 100.0", f"s_base_mva = {value}"))
        assert str(info.value) == f"<case>:3: s_base_mva: expected a positive number, got '{value}'"

    def test_unknown_kind_rejected(self):
        text = minimal_case().replace("2  pq", "2  load")
        with pytest.raises(ValueError, match="load"):
            parse_grid_case(text)

    def test_missing_file_reports_path(self, tmp_path):
        missing = tmp_path / "nope.case"
        with pytest.raises(OSError):
            load_grid_case(missing)


class TestCaseValidation:
    def test_two_swing_buses_rejected(self):
        text = minimal_case().replace("2  pq", "2  swing")
        with pytest.raises(ValueError, match="swing"):
            parse_grid_case(text)

    def test_no_swing_bus_rejected(self):
        text = minimal_case().replace("1  swing", "1  pq")
        with pytest.raises(ValueError, match="swing"):
            parse_grid_case(text)

    def test_nonpositive_setpoint_rejected(self):
        text = minimal_case().replace("1  swing  1.0", "1  swing  0.0")
        with pytest.raises(ValueError, match="v_mag"):
            parse_grid_case(text)

    def test_nonpositive_base_kv_rejected(self):
        text = minimal_case().replace("1  swing  1.0  0.0  0.0  0.0  230.0",
                                      "1  swing  1.0  0.0  0.0  0.0  0.0")
        with pytest.raises(ValueError) as info:
            parse_grid_case(text)
        assert str(info.value) == "<case>: bus 1: base_kv must be positive, got 0.0"

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError) as info:
            parse_grid_case(minimal_case("1  1  0.0  0.1  0.0"))
        assert str(info.value) == "<case>: branch 1 (1-1): from and to bus are identical"

    def test_nonpositive_tap_rejected(self):
        with pytest.raises(ValueError, match="tap"):
            parse_grid_case(minimal_case("1  2  0.0  0.1  0.0  0.0"))


class TestBusLookup:
    def test_ids_map_to_their_buses(self, wscc_case):
        assert [wscc_case.bus(k).id for k in range(1, 10)] == list(range(1, 10))
        assert wscc_case.index_of(9) == 8

    @pytest.mark.parametrize("bus_id", [0, 10, -1])
    def test_out_of_range_id_rejected(self, wscc_case, bus_id):
        with pytest.raises(ValueError, match=f"unknown bus {bus_id}"):
            wscc_case.bus(bus_id)
        with pytest.raises(ValueError, match=f"unknown bus {bus_id}"):
            wscc_case.index_of(bus_id)


class TestAdmittanceAssembly:
    def test_single_reactance_branch(self):
        case = parse_grid_case(minimal_case("1  2  0.0  0.1  0.0"))
        ybus = build_admittance_matrix(case)
        y = 1.0 / complex(0.0, 0.1)          # -10j
        assert ybus[0, 0] == y
        assert ybus[1, 1] == y
        assert ybus[0, 1] == -y
        assert ybus[1, 0] == -y

    def test_no_branches_gives_zero_matrix(self):
        case = GridCase((Bus(1, BusKind.SWING, 1.0, 0.0, 0.0, 0.0, 230.0),), (), 100.0)
        assert np.array_equal(build_admittance_matrix(case), np.zeros((1, 1)))

    def test_nine_bus_spot_checks(self, wscc_case, wscc_ybus):
        # couplings recomputed here from the branch table by direct division
        for from_id, to_id, r, x in ((4, 5, 0.017, 0.092),
                                     (9, 4, 0.01, 0.085),
                                     (8, 9, 0.032, 0.161)):
            y = 1.0 / complex(r, x)
            i, j = from_id - 1, to_id - 1
            assert wscc_ybus[i, j] == pytest.approx(-y, abs=1e-12)
            assert wscc_ybus[j, i] == pytest.approx(-y, abs=1e-12)

    def test_diagonal_collects_shunts(self, wscc_case, wscc_ybus):
        # bus 5 touches branches 4-5 and 5-6 only
        y45 = 1.0 / complex(0.017, 0.092)
        y56 = 1.0 / complex(0.039, 0.17)
        expected = y45 + y56 + 1j * (0.158 + 0.358) / 2.0
        assert wscc_ybus[4, 4] == pytest.approx(expected, abs=1e-12)

    def test_symmetric_with_unit_taps(self, wscc_ybus):
        assert np.array_equal(wscc_ybus, wscc_ybus.T)

    def test_off_diagonal_zero_iff_unconnected(self, wscc_case, wscc_ybus):
        connected = set()
        for br in wscc_case.branches:
            connected.add((br.from_bus - 1, br.to_bus - 1))
            connected.add((br.to_bus - 1, br.from_bus - 1))
        for i in range(9):
            for j in range(9):
                if i == j:
                    continue
                if (i, j) in connected:
                    assert wscc_ybus[i, j] != 0
                else:
                    assert wscc_ybus[i, j] == 0

    def test_zero_shunt_rows_sum_to_zero(self, wscc_case):
        stripped = GridCase(
            wscc_case.buses,
            tuple(Branch(b.from_bus, b.to_bus, b.r, b.x, 0.0, b.tap)
                  for b in wscc_case.branches),
            wscc_case.s_base,
        )
        ybus = build_admittance_matrix(stripped)
        # equivalent statement of I = Y.V = 0 on a flat profile
        assert np.max(np.abs(ybus.sum(axis=1))) < 1e-12

    def test_tap_scales_from_side(self):
        case = parse_grid_case(minimal_case("1  2  0.0  0.1  0.0  2.0"))
        ybus = build_admittance_matrix(case)
        y = 1.0 / complex(0.0, 0.1)
        assert ybus[0, 0] == pytest.approx(y / 4.0)
        assert ybus[1, 1] == pytest.approx(y)
        assert ybus[0, 1] == pytest.approx(-y / 2.0)

    @settings(max_examples=25, deadline=None)
    @given(rnd=st.randoms(use_true_random=False))
    def test_branch_permutation_bit_identical(self, wscc_case, wscc_ybus, rnd):
        branches = list(wscc_case.branches)
        rnd.shuffle(branches)
        shuffled = GridCase(wscc_case.buses, tuple(branches), wscc_case.s_base)
        assert np.array_equal(build_admittance_matrix(shuffled), wscc_ybus)

    def test_bundled_file_loads_from_package_data(self):
        case = load_grid_case(DATA_DIR / "wscc9.case")
        assert case.order == 9
