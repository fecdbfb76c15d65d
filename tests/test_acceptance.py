"""Acceptance gate: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion.  The desk-scale scenario bundled with the package (nine-bus grid,
three load buses, 450 EVs) is simulated once per session and shared by the
criteria that inspect its outputs.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from conftest import DATA_DIR, DESK_DIR, project_rows, two_bus_case
from evgrid.cli import load_run_config, main
from evgrid.coordinator import read_events, run_receding_horizon, schedule_events
from evgrid.fleet import EvSession, check_sessions, read_sessions
from evgrid.grid import BusKind, build_admittance_matrix, load_grid_case, parse_grid_case
from evgrid.metrics import read_base_load
from evgrid.powerflow import solve_power_flow
from evgrid.scheduler import run_until_converged

UNITY_CASE = """
[system]
s_base_mva = 100.0

[buses]
1  swing  1.0  0.0  0.0  0.0  230.0
2  pq     1.0  0.0  0.0  0.0  230.0
3  pq     1.0  0.0  0.0  0.0  230.0

[branches]
1  2  0.01  0.1  0.0  1.0
2  3  0.01  0.1  0.0  1.0
"""


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """One full simulate invocation on the shipped configuration, timed."""
    out = tmp_path_factory.mktemp("desk-acceptance")
    start = time.perf_counter()
    code = main(["simulate", "-c", str(DESK_DIR / "config.json"), "-o", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    return SimpleNamespace(out=out, report=report, elapsed=elapsed)


@pytest.fixture(scope="session")
def desk_problem():
    """The shipped scenario loaded through the public readers."""
    cfg = load_run_config(str(DESK_DIR / "config.json"), {})
    sessions = sorted(read_sessions(cfg.sessions_path), key=lambda s: s.ev_id)
    sessions = check_sessions(sessions, cfg.scheduler.slots, cfg.scheduler.slot_hours)
    base_total = read_base_load(cfg.base_load_path).mw.sum(axis=0)
    events = read_events(cfg.events_path)
    events_by_step = schedule_events(events, sessions, cfg.scheduler.slots,
                                     cfg.horizon_steps)
    return SimpleNamespace(cfg=cfg, sessions=sessions, base_total=base_total,
                           events=events, events_by_step=events_by_step)


def random_instance(rng, slots=8, dt=0.25):
    """A feasible windowed box with an energy target and a price vector."""
    a = int(rng.integers(0, slots - 1))
    b = int(rng.integers(a + 1, slots + 1))
    lo = np.zeros(slots)
    hi = np.zeros(slots)
    lo[a:b] = -float(rng.uniform(0.5, 5.0))
    hi[a:b] = float(rng.uniform(0.5, 5.0))
    margin = 1e-6
    energy = float(rng.uniform(lo.sum() * dt + margin, hi.sum() * dt - margin))
    c = rng.normal(0.0, 1.0, slots)
    previous = rng.uniform(lo, hi)
    return c, previous, lo, hi, energy


def test_criterion_1_subproblem_matches_bruteforce_oracle():
    rng = np.random.default_rng(2024)
    dt = 0.25
    start = time.perf_counter()
    instances = [random_instance(rng) for _ in range(1000)]
    # every station in one call, as the scheduler solves a round
    solved = project_rows(*(np.array(column) for column in zip(*instances)), dt)
    worst = 0.0
    for row, (c, previous, lo, hi, energy) in zip(solved, instances):
        reference = oracles.active_set_minimize(c, previous, lo, hi, energy, dt)
        worst = max(worst, float(np.max(np.abs(row - reference))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6, f"worst per-slot gap {worst} kW"
    assert elapsed < 10.0, f"1000 instances took {elapsed:.1f} s"


def test_criterion_2_schedule_constraints_hold(desk_run):
    from evgrid.fileio import read_schedules

    ev_ids, _, committed = read_schedules(
        desk_run.out / "schedules_coordinated.csv")
    sessions = {s.ev_id: s for s in read_sessions(DESK_DIR / "sessions.csv")}
    windows = {e: (s.t_start, s.t_end, s.p_max_kw, s.d_max_kw)
               for e, s in sessions.items()}
    targets = {e: s.energy_kwh for e, s in sessions.items()}
    removed = set()
    for _, ev_id, change in read_events(DESK_DIR / "events.csv"):
        if isinstance(change, EvSession):
            windows[ev_id] = (change.t_start, change.t_end, change.p_max_kw, change.d_max_kw)
            targets[ev_id] = change.energy_kwh
        elif change is not None:
            targets[ev_id] = change
        else:
            removed.add(ev_id)

    assert set(ev_ids) == set(windows)
    assert not any("not converged" in f for f in desk_run.report["flags"])
    dt = 0.25
    for k, ev_id in enumerate(ev_ids):
        t0, t1, p_max, d_max = windows[ev_id]
        profile = committed[k]
        # rates vanish outside the availability window, exactly
        assert not profile[:t0].any(), ev_id
        assert not profile[t1:].any(), ev_id
        # and stay inside the box, exactly
        assert np.all(profile[t0:t1] <= p_max), ev_id
        assert np.all(profile[t0:t1] >= d_max), ev_id
        if ev_id not in removed:
            delivered = float(profile.sum()) * dt
            assert abs(delivered - targets[ev_id]) <= 1e-6, (
                f"{ev_id}: delivered {delivered}, target {targets[ev_id]}")


def test_criterion_3_power_flow_cross_checks():
    # flat network: the start vector is already the solution, untouched
    unity = parse_grid_case(UNITY_CASE, name="unity")
    flat = solve_power_flow(unity)
    assert flat.iterations == 0
    assert np.array_equal(flat.v_mag, np.ones(3))
    assert np.array_equal(flat.v_angle, np.zeros(3))

    # one line, closed form: V2 = cos(th2), sin(2 th2) = -0.1
    two = two_bus_case(p_inj_mw=-50.0, x=0.1)
    sol = solve_power_flow(two)
    theta2 = 0.5 * math.asin(-0.1)
    assert abs(sol.v_mag[1] - math.cos(theta2)) <= 1e-8
    assert abs(sol.v_angle[1] - theta2) <= 1e-8

    # nine-bus Newton-Raphson against an independent Gauss-Seidel solve
    case = load_grid_case(DATA_DIR / "wscc9.case")
    newton = solve_power_flow(case)
    vm, va, _ = oracles.gauss_seidel_power_flow(case)
    assert float(np.max(np.abs(newton.v_mag - vm))) <= 1e-6
    assert float(np.max(np.abs(newton.v_angle - va))) <= 1e-6

    # analytic Jacobian against central finite differences at flat start
    from evgrid.powerflow import _jacobian

    ybus = build_admittance_matrix(case)
    pv = case.indices_of_kind(BusKind.PV)
    pq = case.indices_of_kind(BusKind.PQ)
    pvpq = sorted(pv + pq)
    v_mag = np.ones(case.order)
    v_angle = np.zeros(case.order)
    for i, bus in enumerate(case.buses):
        if bus.kind is not BusKind.PQ:
            v_mag[i] = bus.v_mag
    analytic = _jacobian(v_mag * np.exp(1j * v_angle), ybus, pvpq, pq)
    numeric = oracles.finite_difference_jacobian(v_mag, v_angle, ybus, pvpq, pq)
    rel = np.max(np.abs(numeric - analytic)) / max(1.0, np.max(np.abs(analytic)))
    assert rel <= 1e-6

    # terminal iterations square the mismatch
    tail = [m for m in newton.mismatch_history if m < 0.1]
    assert len(tail) >= 2
    for a, b in zip(tail, tail[1:]):
        assert b <= 10.0 * a * a


def test_criterion_4_peak_shaving_band(desk_run):
    shaving = desk_run.report["peak"]["shaving_pct"]
    assert 25.0 <= shaving <= 40.0, f"peak shaving {shaving:.2f}%"
    assert desk_run.elapsed < 60.0, f"simulate took {desk_run.elapsed:.1f} s"


def test_criterion_5_voltage_improvement(desk_run):
    rows = desk_run.report["bus_voltages"]
    assert len(rows) == 6
    for row in rows:
        assert row["after_pu"] > row["before_pu"], row
    weakest = sorted(rows, key=lambda r: r["before_pu"])[:2]
    for row in weakest:
        gain = row["after_pu"] - row["before_pu"]
        assert gain >= 0.015, f"bus {row['bus']} gained only {gain:.4f} pu"


def test_criterion_6_line_current_and_swing(desk_run):
    lines = desk_run.report["line_current_total"]
    assert lines["reduction_pct"] >= 25.0, lines
    swing = desk_run.report["generation"]["swing"]
    assert swing["after"]["p_mw"] < swing["before"]["p_mw"]
    assert 80.0 <= swing["after"]["p_mw"] <= 160.0, swing


def test_criterion_7_convergence_behavior(desk_problem, desk_run):
    sched = desk_problem.cfg.scheduler._replace(lam=2.0, epsilon=1e-3)
    result = run_receding_horizon(sched, desk_problem.base_total,
                                  desk_problem.sessions,
                                  desk_problem.cfg.horizon_steps,
                                  desk_problem.events_by_step)
    for tau, trace in enumerate(result.step_traces):
        assert trace.converged, f"step {tau} did not converge"
        assert trace.iterations <= 200, f"step {tau}: {trace.iterations}"
        assert trace.diagnostics == (), f"step {tau}: {trace.diagnostics}"
        objectives = trace.objectives[1:]
        for earlier, later in zip(objectives, objectives[1:]):
            assert later <= earlier + 1e-9 * max(1.0, abs(earlier)), (
                f"step {tau}: objective rose {earlier} -> {later}")

    # the shipped run's recorded traces satisfy the same bound
    by_step: dict[int, list[tuple[int, float]]] = {}
    for line in (desk_run.out / "traces.csv").read_text().splitlines()[1:]:
        step, iteration, _, objective = line.split(",")
        by_step.setdefault(int(step), []).append(
            (int(iteration), float(objective)))
    assert len(by_step) == 24
    for step, rows in by_step.items():
        rows.sort()
        assert rows[-1][0] <= 200
        objectives = [obj for it, obj in rows if it >= 1]
        for earlier, later in zip(objectives, objectives[1:]):
            assert later <= earlier + 1e-9 * max(1.0, abs(earlier)), (
                f"recorded step {step}: objective rose {earlier} -> {later}")


def test_criterion_8_receding_horizon_consistency(desk_problem):
    sched = desk_problem.cfg.scheduler
    steps = desk_problem.cfg.horizon_steps

    one_shot, _ = run_until_converged(sched, desk_problem.base_total,
                                      list(desk_problem.sessions))
    stitched = run_receding_horizon(sched, desk_problem.base_total,
                                    desk_problem.sessions, steps)
    assert stitched.ev_ids == tuple(
        s.ev_id for s in desk_problem.sessions)
    gap = float(np.max(np.abs(stitched.committed_kw - one_shot)))
    assert gap <= 1e-9, f"stitched vs one-shot gap {gap} kW"

    scripted = run_receding_horizon(sched, desk_problem.base_total,
                                    desk_problem.sessions, steps,
                                    desk_problem.events_by_step)
    first_event_slot = min(slot for slot, _, _ in desk_problem.events)
    assert first_event_slot == 25
    plain_rows = {e: stitched.committed_kw[k]
                  for k, e in enumerate(stitched.ev_ids)}
    added = set(scripted.ev_ids) - set(stitched.ev_ids)
    assert added == {"late5a", "late7a", "late9a"}
    for k, ev_id in enumerate(scripted.ev_ids):
        row = scripted.committed_kw[k]
        if ev_id in added:
            # joined at the first re-plan after slot 25, which starts at 28
            assert not row[:28].any(), ev_id
        else:
            before = plain_rows[ev_id][:first_event_slot]
            assert row[:first_event_slot].tobytes() == before.tobytes(), ev_id


def test_criterion_9_simulate_determinism(tmp_path):
    config = str(DESK_DIR / "config.json")

    def run(tag):
        out = tmp_path / tag
        assert main(["simulate", "-c", config, "-o", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run("s1")
    second = run("s2")
    assert first == second
