"""Newton-Raphson power flow against analytic, oracle, and identity checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import two_bus_case
from evgrid.grid import Branch, Bus, BusKind, GridCase, build_admittance_matrix
from evgrid.powerflow import (
    NonConvergenceError,
    SingularJacobianError,
    _injections,
    _lu_solve,
    amps_per_unit,
    compute_line_flows,
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
        ybus = build_admittance_matrix(unity_case)
        sol = solve_power_flow(unity_case, ybus)
        assert np.array_equal(sol.v_mag, np.ones(3))
        assert np.array_equal(sol.v_angle, np.zeros(3))
        assert sol.iterations <= 1
        assert sol.max_mismatch == 0.0

    def test_two_bus_analytic(self):
        case = two_bus_case(p_inj_mw=-50.0, q_inj_mvar=0.0, x=0.1)
        sol = solve_power_flow(case, build_admittance_matrix(case))
        v2, theta2 = analytic_two_bus()
        assert sol.v_mag[1] == pytest.approx(v2, abs=1e-8)
        assert sol.v_angle[1] == pytest.approx(theta2, abs=1e-8)

    def test_nine_bus_matches_gauss_seidel(self, wscc_case, wscc_ybus):
        sol = solve_power_flow(wscc_case, wscc_ybus)
        vm, va, _ = oracles.gauss_seidel_power_flow(wscc_case)
        assert np.max(np.abs(sol.v_mag - vm)) < 1e-6
        assert np.max(np.abs(sol.v_angle - va)) < 1e-6

    def test_loaded_nine_bus_matches_gauss_seidel(self, wscc_case, wscc_ybus):
        # heavier, EV-style extra load on the three load buses
        extra = {5: (40.0, 13.0), 7: (20.0, 7.0), 9: (45.0, 15.0)}
        p = {b: wscc_case.bus(b).p_inj - mw / 100.0 for b, (mw, _) in extra.items()}
        q = {b: wscc_case.bus(b).q_inj - mv / 100.0 for b, (_, mv) in extra.items()}
        loaded = wscc_case.with_injections(p, q)
        sol = solve_power_flow(loaded, build_admittance_matrix(loaded))
        vm, va, _ = oracles.gauss_seidel_power_flow(loaded)
        assert np.max(np.abs(sol.v_mag - vm)) < 1e-6
        assert np.max(np.abs(sol.v_angle - va)) < 1e-6

    def test_swing_and_pv_pinned(self, wscc_case, wscc_ybus):
        sol = solve_power_flow(wscc_case, wscc_ybus)
        assert sol.v_mag[0] == wscc_case.buses[0].v_mag
        assert sol.v_angle[0] == wscc_case.buses[0].v_angle
        assert sol.v_mag[1] == wscc_case.buses[1].v_mag
        assert sol.v_mag[2] == wscc_case.buses[2].v_mag

    def test_specified_injections_reproduced(self, wscc_case, wscc_ybus):
        sol = solve_power_flow(wscc_case, wscc_ybus, tol=1e-8)
        for i, bus in enumerate(wscc_case.buses):
            if bus.kind is BusKind.PQ:
                assert sol.p_inj[i] == pytest.approx(bus.p_inj, abs=1e-8)
                assert sol.q_inj[i] == pytest.approx(bus.q_inj, abs=1e-8)
            elif bus.kind is BusKind.PV:
                assert sol.p_inj[i] == pytest.approx(bus.p_inj, abs=1e-8)

    def test_swing_absorbs_residual(self, wscc_case, wscc_ybus):
        sol = solve_power_flow(wscc_case, wscc_ybus)
        flows = compute_line_flows(sol, wscc_case)
        losses = sum(f.loss_mva.real for f in flows) / wscc_case.s_base
        others = sum(sol.p_inj[1:])
        assert sol.p_inj[0] == pytest.approx(losses - others, abs=1e-8)

    def test_quadratic_convergence_signature(self, wscc_case, wscc_ybus):
        sol = solve_power_flow(wscc_case, wscc_ybus)
        hist = sol.mismatch_history
        assert len(hist) >= 3
        tail = [m for m in hist if m < 0.1]
        assert len(tail) >= 2
        for a, b in zip(tail, tail[1:]):
            assert b <= 10.0 * a * a

    def test_warm_start_skips_iterations(self, wscc_case, wscc_ybus):
        sol = solve_power_flow(wscc_case, wscc_ybus)
        again = solve_power_flow(wscc_case, wscc_ybus,
                                 warm_start=(sol.v_mag, sol.v_angle))
        assert again.iterations == 0
        assert np.array_equal(again.v_mag, sol.v_mag)

    def test_non_convergence_reports_mismatch(self, wscc_case, wscc_ybus):
        with pytest.raises(NonConvergenceError, match="mismatch"):
            solve_power_flow(wscc_case, wscc_ybus, tol=1e-12, max_iter=1)

    def test_singular_jacobian_reports_pivot(self):
        # a near-open branch decouples bus 2; the Jacobian pivot collapses
        case = two_bus_case(p_inj_mw=-50.0, x=1e15)
        with pytest.raises(SingularJacobianError, match="pivot"):
            solve_power_flow(case, build_admittance_matrix(case))

    def test_parameter_validation(self, wscc_case, wscc_ybus):
        with pytest.raises(ValueError, match="tol"):
            solve_power_flow(wscc_case, wscc_ybus, tol=0.0)
        with pytest.raises(ValueError, match="tol must be positive, got nan"):
            solve_power_flow(wscc_case, wscc_ybus, tol=float("nan"))
        with pytest.raises(ValueError, match="max_iter"):
            solve_power_flow(wscc_case, wscc_ybus, max_iter=0)


class TestJacobian:
    def test_matches_finite_differences_at_flat_start(self, wscc_case, wscc_ybus):
        from evgrid.powerflow import _injections, _jacobian

        m = wscc_case.order
        pv = wscc_case.indices_of_kind(BusKind.PV)
        pq = wscc_case.indices_of_kind(BusKind.PQ)
        pvpq = sorted(pv + pq)
        v_mag = np.ones(m)
        v_angle = np.zeros(m)
        for i, bus in enumerate(wscc_case.buses):
            if bus.kind is not BusKind.PQ:
                v_mag[i] = bus.v_mag
        p_calc, q_calc = _injections(v_mag, v_angle, wscc_ybus)
        analytic = _jacobian(v_mag, v_angle, wscc_ybus, p_calc, q_calc, pvpq, pq)
        numeric = oracles.finite_difference_jacobian(v_mag, v_angle, wscc_ybus,
                                                     pvpq, pq)
        rel = np.max(np.abs(numeric - analytic)) / max(1.0, np.max(np.abs(analytic)))
        assert rel < 1e-6


@st.composite
def dominant_systems(draw):
    """A row-permuted, strictly diagonally dominant matrix and a right-hand
    side; the permutation makes the solve swap rows."""
    n = draw(st.integers(1, 20))
    entries = st.floats(-1.0, 1.0)
    a = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, signs * (np.abs(a).sum(axis=1) + 1.0))
    order = draw(st.permutations(range(n)))
    b = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    return a[order], b[order]


class TestLuSolve:
    @settings(max_examples=200, deadline=None)
    @given(system=dominant_systems())
    def test_matches_numpy_solve(self, system):
        a, b = system
        want = np.linalg.solve(a, b)
        got = _lu_solve(a, b, 0)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_zero_pivot_located_without_dividing_by_it(self):
        # column 1 is twice column 0, so after the first elimination it is
        # zero from the diagonal down; the diagonal of U is (4, 0, 2.5)
        a = np.array([[1.0, 2.0, 0.0], [4.0, 8.0, 1.0], [2.0, 4.0, 3.0]])
        with np.errstate(all="raise"), pytest.raises(SingularJacobianError) as err:
            _lu_solve(a, np.ones(3), 7)
        assert (err.value.iteration, err.value.pivot_index) == (7, 1)
        assert str(err.value) == "singular Jacobian at iteration 7: pivot 0.000e+00 at position 1"


class TestLineFlows:
    def test_equal_voltages_no_shunt_zero_current(self):
        case = two_bus_case(p_inj_mw=0.0, q_inj_mvar=0.0, x=0.1)
        sol = solve_power_flow(case, build_admittance_matrix(case))
        flows = compute_line_flows(sol, case)
        assert flows[0].i_from_pu == pytest.approx(0.0, abs=1e-12)
        assert flows[0].i_to_pu == pytest.approx(0.0, abs=1e-12)

    def test_two_bus_current_from_phasor_difference(self):
        case = two_bus_case(p_inj_mw=-50.0, x=0.1)
        sol = solve_power_flow(case, build_admittance_matrix(case))
        v2, theta2 = analytic_two_bus()
        expected = abs(1.0 - v2 * np.exp(1j * theta2)) / 0.1
        flow = compute_line_flows(sol, case)[0]
        assert flow.i_from_pu == pytest.approx(expected, abs=1e-8)

    def test_loss_conservation(self, wscc_case, wscc_ybus):
        sol = solve_power_flow(wscc_case, wscc_ybus)
        flows = compute_line_flows(sol, wscc_case)
        total_loss = sum(f.loss_mva for f in flows) / wscc_case.s_base
        net_p = float(np.sum(sol.p_inj))
        net_q = float(np.sum(sol.q_inj))
        assert net_p == pytest.approx(total_loss.real, abs=1e-8)
        assert net_q == pytest.approx(total_loss.imag, abs=1e-8)

    def test_real_loss_nonnegative(self, wscc_case, wscc_ybus):
        sol = solve_power_flow(wscc_case, wscc_ybus)
        for flow in compute_line_flows(sol, wscc_case):
            assert flow.loss_mva.real >= -1e-12

    def test_ampere_conversion(self, wscc_case, wscc_ybus):
        sol = solve_power_flow(wscc_case, wscc_ybus)
        for flow in compute_line_flows(sol, wscc_case):
            kv = wscc_case.bus(flow.branch.from_bus).base_kv
            expected = flow.i_from_pu * amps_per_unit(wscc_case.s_base, kv)
            assert flow.i_from_amps == pytest.approx(expected, rel=1e-12)

    def test_amps_per_unit_value(self):
        # 100 MVA / (sqrt(3) . 230 kV) = 251.02.. A per unit current
        assert amps_per_unit(100.0, 230.0) == pytest.approx(251.0219, abs=1e-3)


class TestCanonicalNineBusSolution:
    """The bundled case against its own textbook operating point."""

    def test_textbook_voltages(self, wscc_case, wscc_ybus):
        sol = solve_power_flow(wscc_case, wscc_ybus)
        v = {bus.id: sol.v_mag[i] for i, bus in enumerate(wscc_case.buses)}
        assert v[5] == pytest.approx(1.0127, abs=5e-4)
        assert v[7] == pytest.approx(1.0159, abs=5e-4)
        assert v[9] == pytest.approx(0.9956, abs=5e-4)
        assert min(v[b] for b in (4, 5, 6, 7, 8, 9)) == v[9]

    def test_textbook_swing_power(self, wscc_case, wscc_ybus):
        sol = solve_power_flow(wscc_case, wscc_ybus)
        assert sol.p_inj[0] * wscc_case.s_base == pytest.approx(71.64, abs=0.05)
        assert sol.iterations <= 6
