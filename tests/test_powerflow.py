"""Newton-Raphson power flow against analytic, oracle, and identity checks."""

import math

import numpy as np
import pytest

import oracles
from conftest import two_bus_case
from evgrid.grid import Branch, Bus, BusKind, GridCase, build_admittance_matrix
from evgrid.powerflow import (
    PowerFlowError,
    _injections,
    _jacobian,
    amps_per_unit,
    solve_power_flow,
)


def analytic_two_bus() -> tuple[float, float]:
    """Closed form for swing 1 angle 0, x = 0.1, P2 = -0.5, Q2 = 0.

    From P2 = 10 V2 sin(th2) and Q2 = 10 V2 (V2 - cos th2) = 0:
    V2 = cos th2 and sin(2 th2) = 2 P2 x = -0.1.
    """
    theta2 = 0.5 * math.asin(-0.1)
    return math.cos(theta2), theta2


def injection_at(v_mag, v_angle, ybus, i):
    """The oracle's polar-sum injection at bus index ``i``, after checking
    that the solver's own injections agree with it."""
    p, q = oracles.compute_injection(v_mag, v_angle, ybus, i)
    p_all, q_all = _injections(v_mag, v_angle, ybus)
    assert p_all[i] == pytest.approx(p, abs=1e-12)
    assert q_all[i] == pytest.approx(q, abs=1e-12)
    return p, q


def loaded_nine_bus(case: GridCase) -> GridCase:
    """The WSCC-9 case with heavier, EV-style extra load on its three load
    buses."""
    extra = {5: (40.0, 13.0), 7: (20.0, 7.0), 9: (45.0, 15.0)}
    p = {b: case.bus(b).p_inj - mw / 100.0 for b, (mw, _) in extra.items()}
    q = {b: case.bus(b).q_inj - mv / 100.0 for b, (_, mv) in extra.items()}
    return case.with_injections(p, q)


class TestComputeInjection:
    def test_flat_zero_matrix(self):
        v = np.ones(3)
        th = np.zeros(3)
        p, q = injection_at(v, th, np.zeros((3, 3), dtype=complex), 1)
        assert (p, q) == (0.0, 0.0)

    @pytest.mark.parametrize("v2,th2", [(1.0, 0.0), (0.97, -0.12), (1.03, 0.2)])
    def test_two_bus_pure_reactance_closed_form(self, v2, th2):
        case = two_bus_case(x=0.1)
        ybus = build_admittance_matrix(case)
        v = np.array([1.0, v2])
        th = np.array([0.0, th2])
        p, q = injection_at(v, th, ybus, 1)
        assert p == pytest.approx((v2 / 0.1) * math.sin(th2), abs=1e-12)
        assert q == pytest.approx(v2 * v2 / 0.1 - (v2 / 0.1) * math.cos(th2), abs=1e-12)

    def test_flat_with_shunts_only(self):
        case = two_bus_case(x=0.1, b=0.3)
        ybus = build_admittance_matrix(case)
        v = np.ones(2)
        th = np.zeros(2)
        for i in range(2):
            p, q = injection_at(v, th, ybus, i)
            assert p == pytest.approx(0.0, abs=1e-12)
            assert q == pytest.approx(-1.0 * 0.15, abs=1e-12)


class TestSolvePowerFlow:
    def test_flat_case_exact(self, unity_case):
        sol = solve_power_flow(unity_case)
        assert np.array_equal(sol.v_mag, np.ones(3))
        assert np.array_equal(sol.v_angle, np.zeros(3))
        assert sol.iterations <= 1
        assert sol.max_mismatch == 0.0

    def test_two_bus_analytic(self):
        case = two_bus_case(p_inj_mw=-50.0, q_inj_mvar=0.0, x=0.1)
        sol = solve_power_flow(case)
        v2, theta2 = analytic_two_bus()
        assert sol.v_mag[1] == pytest.approx(v2, abs=1e-8)
        assert sol.v_angle[1] == pytest.approx(theta2, abs=1e-8)

    def test_nine_bus_matches_gauss_seidel(self, wscc_case):
        sol = solve_power_flow(wscc_case)
        vm, va, _ = oracles.gauss_seidel_power_flow(wscc_case)
        assert np.max(np.abs(sol.v_mag - vm)) < 1e-6
        assert np.max(np.abs(sol.v_angle - va)) < 1e-6

    def test_loaded_nine_bus_matches_gauss_seidel(self, wscc_case):
        loaded = loaded_nine_bus(wscc_case)
        sol = solve_power_flow(loaded)
        vm, va, _ = oracles.gauss_seidel_power_flow(loaded)
        assert np.max(np.abs(sol.v_mag - vm)) < 1e-6
        assert np.max(np.abs(sol.v_angle - va)) < 1e-6

    def test_swing_and_pv_pinned(self, wscc_case):
        sol = solve_power_flow(wscc_case)
        assert sol.v_mag[0] == wscc_case.buses[0].v_mag
        assert sol.v_angle[0] == wscc_case.buses[0].v_angle
        assert sol.v_mag[1] == wscc_case.buses[1].v_mag
        assert sol.v_mag[2] == wscc_case.buses[2].v_mag

    def test_specified_injections_reproduced(self, wscc_case):
        sol = solve_power_flow(wscc_case, tol=1e-8)
        for i, bus in enumerate(wscc_case.buses):
            if bus.kind is BusKind.PQ:
                assert sol.p_inj[i] == pytest.approx(bus.p_inj, abs=1e-8)
                assert sol.q_inj[i] == pytest.approx(bus.q_inj, abs=1e-8)
            elif bus.kind is BusKind.PV:
                assert sol.p_inj[i] == pytest.approx(bus.p_inj, abs=1e-8)

    def test_swing_absorbs_residual(self, wscc_case):
        sol = solve_power_flow(wscc_case)
        losses = sum(f.loss_mva.real for f in sol.flows) / wscc_case.s_base
        others = sum(sol.p_inj[1:])
        assert sol.p_inj[0] == pytest.approx(losses - others, abs=1e-8)

    def test_quadratic_convergence_signature(self, wscc_case):
        sol = solve_power_flow(wscc_case)
        hist = sol.mismatch_history
        assert len(hist) >= 3
        tail = [m for m in hist if m < 0.1]
        assert len(tail) >= 2
        for a, b in zip(tail, tail[1:]):
            assert b <= 10.0 * a * a

    def test_non_convergence_reports_mismatch(self, wscc_case):
        with pytest.raises(PowerFlowError, match="mismatch"):
            solve_power_flow(wscc_case, tol=1e-12, max_iter=1)

    def test_singular_jacobian_reports_smallest_singular_value(self):
        # a near-open branch decouples bus 2: the flat-start Jacobian is
        # diag(1/x, 1/x), whose smallest singular value is 1e-15
        with pytest.raises(PowerFlowError) as err:
            solve_power_flow(two_bus_case(p_inj_mw=-50.0, x=1e15))
        assert str(err.value) == ("singular Jacobian at iteration 0: "
                                  "smallest singular value 1.000e-15")
        # a less open branch passes the check at flat start but not after a step
        with pytest.raises(PowerFlowError, match="^singular Jacobian at iteration 1: "):
            solve_power_flow(two_bus_case(p_inj_mw=-50.0, x=1e12))


def assert_jacobian_matches_finite_differences(case, v_mag, v_angle):
    ybus = build_admittance_matrix(case)
    pq = case.indices_of_kind(BusKind.PQ)
    pvpq = sorted(case.indices_of_kind(BusKind.PV) + pq)
    analytic = _jacobian(v_mag * np.exp(1j * v_angle), ybus, pvpq, pq)
    numeric = oracles.finite_difference_jacobian(v_mag, v_angle, ybus, pvpq, pq)
    rel = np.max(np.abs(numeric - analytic)) / max(1.0, np.max(np.abs(analytic)))
    assert rel < 1e-6


class TestJacobian:
    def test_matches_finite_differences_at_flat_start(self, wscc_case):
        v_mag = np.array([1.0 if bus.kind is BusKind.PQ else bus.v_mag
                          for bus in wscc_case.buses])
        assert_jacobian_matches_finite_differences(wscc_case, v_mag, np.zeros(wscc_case.order))

    def test_matches_finite_differences_at_a_loaded_solution(self, wscc_case):
        # away from flat start every angle difference is non-zero, so a sign
        # error in an angle term shows
        loaded = loaded_nine_bus(wscc_case)
        sol = solve_power_flow(loaded)
        assert len(set(sol.v_angle)) == loaded.order
        assert_jacobian_matches_finite_differences(loaded, sol.v_mag, sol.v_angle)


class TestLineFlows:
    def test_equal_voltages_no_shunt_zero_current(self):
        case = two_bus_case(p_inj_mw=0.0, q_inj_mvar=0.0, x=0.1)
        flow = solve_power_flow(case).flows[0]
        assert flow.i_from_amps == pytest.approx(0.0, abs=1e-12)

    def test_two_bus_current_from_phasor_difference(self):
        case = two_bus_case(p_inj_mw=-50.0, x=0.1)
        flow = solve_power_flow(case).flows[0]
        v2, theta2 = analytic_two_bus()
        expected = abs(1.0 - v2 * np.exp(1j * theta2)) / 0.1 * amps_per_unit(100.0, 230.0)
        assert flow.i_from_amps == pytest.approx(expected, abs=1e-8 * amps_per_unit(100.0, 230.0))

    def test_loss_conservation(self, wscc_case):
        sol = solve_power_flow(wscc_case)
        total_loss = sum(f.loss_mva for f in sol.flows) / wscc_case.s_base
        net_p = float(np.sum(sol.p_inj))
        net_q = float(np.sum(sol.q_inj))
        assert net_p == pytest.approx(total_loss.real, abs=1e-8)
        assert net_q == pytest.approx(total_loss.imag, abs=1e-8)

    @pytest.mark.parametrize("transformer_tap", [1.0, 0.95])
    def test_bus_balance(self, wscc_case, transformer_tap):
        """At every bus the flows leaving it on its branches (``s_from`` at a
        from end, ``loss - s_from`` at a to end) add up to its injection, so
        the line flows and the admittance matrix share one branch model."""
        loaded = loaded_nine_bus(wscc_case)
        # the three zero-resistance branches are the generator transformers
        loaded = GridCase(loaded.buses, tuple(
            br._replace(tap=transformer_tap) if br.r == 0.0 else br
            for br in loaded.branches), loaded.s_base)
        sol = solve_power_flow(loaded)
        leaving = np.zeros(loaded.order, dtype=complex)
        for flow in sol.flows:
            leaving[loaded.index_of(flow.branch.from_bus)] += flow.s_from_mva
            leaving[loaded.index_of(flow.branch.to_bus)] += flow.loss_mva - flow.s_from_mva
        injected = (sol.p_inj + 1j * sol.q_inj) * loaded.s_base
        assert np.max(np.abs(leaving - injected)) < 1e-9

    def test_real_loss_nonnegative(self, wscc_case):
        sol = solve_power_flow(wscc_case)
        for flow in sol.flows:
            assert flow.loss_mva.real >= -1e-12

    def test_ampere_conversion(self, wscc_case):
        # |I_from| = |S_from| / |V_from| in pu, taken to A on the from bus's base
        sol = solve_power_flow(wscc_case)
        for flow in sol.flows:
            f = wscc_case.index_of(flow.branch.from_bus)
            i_pu = abs(flow.s_from_mva) / wscc_case.s_base / sol.v_mag[f]
            expected = i_pu * amps_per_unit(wscc_case.s_base, wscc_case.buses[f].base_kv)
            assert flow.i_from_amps == pytest.approx(expected, rel=1e-12)

    def test_amps_per_unit_value(self):
        # 100 MVA / (sqrt(3) . 230 kV) = 251.02.. A per unit current
        assert amps_per_unit(100.0, 230.0) == pytest.approx(251.0219, abs=1e-3)


class TestCanonicalNineBusSolution:
    """The bundled case against its own textbook operating point."""

    def test_textbook_voltages(self, wscc_case):
        sol = solve_power_flow(wscc_case)
        v = {bus.id: sol.v_mag[i] for i, bus in enumerate(wscc_case.buses)}
        assert v[5] == pytest.approx(1.0127, abs=5e-4)
        assert v[7] == pytest.approx(1.0159, abs=5e-4)
        assert v[9] == pytest.approx(0.9956, abs=5e-4)
        assert min(v[b] for b in (4, 5, 6, 7, 8, 9)) == v[9]

    def test_textbook_swing_power(self, wscc_case):
        sol = solve_power_flow(wscc_case)
        assert sol.p_inj[0] * wscc_case.s_base == pytest.approx(71.64, abs=0.05)
        assert sol.iterations <= 6
