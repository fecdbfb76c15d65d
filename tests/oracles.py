"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch along a different
algorithmic route than the library code it checks:

* ``gs_admittance`` builds the nodal admittance matrix with per-branch dict
  accumulation instead of the library's sorted-contribution assembly.
* ``gauss_seidel_power_flow`` solves the load flow by Gauss-Seidel sweeps
  rather than Newton-Raphson.
* ``active_set_minimize`` solves the proximal station subproblem exactly by
  enumerating every lower/free/upper slot pattern instead of a breakpoint
  search on the dual multiplier.
* ``finite_difference_jacobian`` differentiates the injection equations
  numerically.
* ``compute_injection`` evaluates one bus's injection from the polar sums
  instead of the library's complex ``V * conj(Y V)`` product.
* ``reference_horizon`` runs the receding-horizon loop station by station,
  with per-id dicts, instead of the library's row-indexed arrays.
* ``reference_aggregate`` adds EV profiles onto their buses one row at a
  time instead of the library's per-bus cumulative sums over row blocks.
"""

from __future__ import annotations

import cmath
import math

from dataclasses import replace

import numpy as np

from evgrid.coordinator import (
    CoordinatorError,
    HorizonResult,
    HorizonState,
    ScriptedEvent,
    schedule_events,
)
from evgrid.fleet import KW_PER_MW, EvSession, FleetScenario
from evgrid.grid import BusKind, GridCase
from evgrid.metrics import BaseLoadProfile
from evgrid.scheduler import (
    ControlSignal,
    ConvergenceTrace,
    SchedulerConfig,
    StationTask,
    run_fixed_point,
    session_bounds,
)


# ---------------------------------------------------------------------------
# Gauss-Seidel power flow


def gs_admittance(case: GridCase) -> np.ndarray:
    """Nodal admittance matrix assembled branch by branch into a dict."""
    index = {bus.id: k for k, bus in enumerate(case.buses)}
    entries: dict[tuple[int, int], complex] = {}

    def add(i: int, j: int, value: complex) -> None:
        entries[(i, j)] = entries.get((i, j), 0j) + value

    for branch in case.branches:
        i = index[branch.from_bus]
        j = index[branch.to_bus]
        y = 1.0 / complex(branch.r, branch.x)
        shunt = complex(0.0, branch.b_shunt / 2.0)
        t = branch.tap
        add(i, i, y / (t * t) + shunt)
        add(j, j, y + shunt)
        add(i, j, -y / t)
        add(j, i, -y / t)

    ybus = np.zeros((case.order, case.order), dtype=complex)
    for (i, j), value in entries.items():
        ybus[i, j] = value
    return ybus


def gauss_seidel_power_flow(case: GridCase, tol: float = 1e-12,
                            max_iter: int = 100000,
                            ) -> tuple[np.ndarray, np.ndarray, int]:
    """Solve the load flow by Gauss-Seidel; returns (v_mag, v_angle, sweeps).

    PV buses update their reactive injection from the current state each
    sweep and are rescaled back to the magnitude setpoint.  Convergence is
    on the largest complex voltage change per sweep.
    """
    ybus = gs_admittance(case)
    m = case.order
    v = np.array([
        complex(bus.v_mag, 0.0) if bus.kind is not BusKind.PQ
        else cmath.rect(1.0, 0.0)
        for bus in case.buses
    ])
    for k, bus in enumerate(case.buses):
        if bus.kind is BusKind.SWING:
            v[k] = cmath.rect(bus.v_mag, bus.v_angle)

    p = np.array([bus.p_inj for bus in case.buses])
    q = np.array([bus.q_inj for bus in case.buses])

    for sweep in range(1, max_iter + 1):
        delta = 0.0
        for k, bus in enumerate(case.buses):
            if bus.kind is BusKind.SWING:
                continue
            coupled = ybus[k] @ v
            if bus.kind is BusKind.PV:
                q_k = (v[k] * coupled.conjugate()).imag
            else:
                q_k = q[k]
            s = complex(p[k], q_k)
            v_new = (s.conjugate() / v[k].conjugate()
                     - (coupled - ybus[k, k] * v[k])) / ybus[k, k]
            if bus.kind is BusKind.PV:
                v_new = v_new * (bus.v_mag / abs(v_new))
            delta = max(delta, abs(v_new - v[k]))
            v[k] = v_new
        if delta <= tol:
            return np.abs(v), np.angle(v), sweep
    raise RuntimeError(f"Gauss-Seidel did not reach {tol} in {max_iter} sweeps "
                       f"(last change {delta})")


# ---------------------------------------------------------------------------
# Exact proximal subproblem by active-set enumeration

_PATTERN_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _patterns(t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All 3**t assignments of slots to lower bound / free / upper bound."""
    if t not in _PATTERN_CACHE:
        digits = np.zeros((3 ** t, t), dtype=np.int8)
        codes = np.arange(3 ** t)
        for slot in range(t):
            digits[:, slot] = (codes // (3 ** slot)) % 3
        _PATTERN_CACHE[t] = (digits == 0, digits == 1, digits == 2)
    return _PATTERN_CACHE[t]


def active_set_minimize(c: np.ndarray, previous: np.ndarray, lo: np.ndarray,
                        hi: np.ndarray, energy: float, dt: float,
                        feas_tol: float = 1e-9) -> np.ndarray:
    """Exact minimizer of sum(c*p) + 0.5*||p - previous||^2 subject to
    lo <= p <= hi and sum(p)*dt == energy.

    Enumerates every lower/free/upper pattern, solves the stationarity
    condition on the free set, keeps KKT-consistent candidates, and returns
    the candidate with the smallest objective.
    """
    c = np.asarray(c, dtype=float)
    previous = np.asarray(previous, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    t = c.shape[0]
    if t > 12:
        raise ValueError("enumeration oracle is for small horizons only")
    at_lo, free, at_hi = _patterns(t)
    base = previous - c

    bound_part = at_lo @ lo + at_hi @ hi            # sum of pinned slots
    free_base = free @ base                          # sum of base over free
    n_free = free.sum(axis=1)

    target = energy / dt
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = (target - bound_part - free_base) / (n_free * dt)

    p_unc = base[None, :] + mu[:, None] * dt
    p = np.where(at_lo, lo[None, :], np.where(at_hi, hi[None, :], p_unc))

    ok = np.ones(p.shape[0], dtype=bool)
    # KKT sign conditions: pinned-low slots want to go lower, pinned-high
    # slots want to go higher, free slots must land inside the box.
    ok &= np.where(at_lo, p_unc <= lo[None, :] + feas_tol, True).all(axis=1)
    ok &= np.where(at_hi, p_unc >= hi[None, :] - feas_tol, True).all(axis=1)
    ok &= np.where(free, (p_unc >= lo[None, :] - feas_tol)
                   & (p_unc <= hi[None, :] + feas_tol), True).all(axis=1)
    # patterns with no free slot carry no multiplier; they must meet the
    # energy equality on their own
    fixed = n_free == 0
    ok[fixed] = np.abs(p[fixed].sum(axis=1) * dt - energy) <= feas_tol
    ok &= np.isfinite(p).all(axis=1)

    if not ok.any():
        raise RuntimeError("no KKT-consistent pattern; instance infeasible?")

    objective = (p * c[None, :]).sum(axis=1) + 0.5 * ((p - previous[None, :]) ** 2).sum(axis=1)
    objective[~ok] = np.inf
    return p[int(np.argmin(objective))]


# ---------------------------------------------------------------------------
# Injections from the polar sums


def compute_injection(v_mag: np.ndarray, v_angle: np.ndarray, ybus: np.ndarray,
                      i: int) -> tuple[float, float]:
    """Active/reactive injection at bus index ``i`` from the polar sums."""
    y_mag = np.abs(ybus[i])
    alpha = np.angle(ybus[i])
    gamma = v_angle[i] - v_angle - alpha
    p = v_mag[i] * float(np.sum(v_mag * y_mag * np.cos(gamma)))
    q = v_mag[i] * float(np.sum(v_mag * y_mag * np.sin(gamma)))
    return p, q


# ---------------------------------------------------------------------------
# Finite-difference Jacobian of the injection equations


def injection_vector(v_mag: np.ndarray, v_angle: np.ndarray, ybus: np.ndarray,
                     pvpq: list[int], pq: list[int]) -> np.ndarray:
    """[P_i for i in pvpq] + [Q_i for i in pq] computed from first principles."""
    out = []
    m = len(v_mag)
    for i in pvpq:
        total = 0.0
        for j in range(m):
            y = abs(ybus[i, j])
            a = math.atan2(ybus[i, j].imag, ybus[i, j].real)
            total += v_mag[j] * y * math.cos(v_angle[i] - v_angle[j] - a)
        out.append(v_mag[i] * total)
    for i in pq:
        total = 0.0
        for j in range(m):
            y = abs(ybus[i, j])
            a = math.atan2(ybus[i, j].imag, ybus[i, j].real)
            total += v_mag[j] * y * math.sin(v_angle[i] - v_angle[j] - a)
        out.append(v_mag[i] * total)
    return np.array(out)


def finite_difference_jacobian(v_mag: np.ndarray, v_angle: np.ndarray,
                               ybus: np.ndarray, pvpq: list[int],
                               pq: list[int], h: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of the injections w.r.t. [theta_pvpq, v_pq]."""
    n = len(pvpq) + len(pq)
    jac = np.zeros((n, n))
    for col in range(n):
        vm_plus, va_plus = v_mag.copy(), v_angle.copy()
        vm_minus, va_minus = v_mag.copy(), v_angle.copy()
        if col < len(pvpq):
            va_plus[pvpq[col]] += h
            va_minus[pvpq[col]] -= h
        else:
            vm_plus[pq[col - len(pvpq)]] += h
            vm_minus[pq[col - len(pvpq)]] -= h
        f_plus = injection_vector(vm_plus, va_plus, ybus, pvpq, pq)
        f_minus = injection_vector(vm_minus, va_minus, ybus, pvpq, pq)
        jac[:, col] = (f_plus - f_minus) / (2.0 * h)
    return jac


# ---------------------------------------------------------------------------
# Receding horizon, one station at a time


def _reference_apply_event(event: ScriptedEvent, state: HorizonState, tau: int,
                           flags: list[str]) -> None:
    if event.kind == "add_session":
        state.sessions[event.ev_id] = EvSession(
            ev_id=event.ev_id, bus_id=event.bus_id, t_start=event.t_start,
            t_end=event.t_end, energy_kwh=event.energy_kwh,
            p_max_kw=event.p_max_kw, d_max_kw=event.d_max_kw,
        )
    elif event.kind == "update_energy":
        state.sessions[event.ev_id] = replace(
            state.sessions[event.ev_id], energy_kwh=event.energy_kwh
        )
    else:
        session = state.sessions.pop(event.ev_id)
        state.removed.add(event.ev_id)
        delivered = state.delivered_kwh.get(event.ev_id, 0.0)
        flags.append(
            f"step {tau}: session {event.ev_id} removed before completion; "
            f"delivered {delivered!r} of {session.energy_kwh!r} kWh"
        )


def reference_horizon(config: SchedulerConfig, base_load_mw: np.ndarray,
                      scenario: FleetScenario, steps: int,
                      events: list[ScriptedEvent] = ()) -> HorizonResult:
    """``coordinator.run_receding_horizon`` as a per-station loop: every
    step rebuilds each active station's bounds from its session, pins its
    committed slots and checks its reachable energy on its own, and commits
    through per-id dicts."""
    t = config.slots
    dt = config.slot_hours
    if scenario.slots_per_horizon != t or scenario.slot_hours != dt:
        raise CoordinatorError("scenario slot grid differs from scheduler config")
    events_by_step = schedule_events(events, [s.ev_id for s in scenario.sessions],
                                     t, steps)
    sps = t // steps

    state = HorizonState(
        tau=0,
        committed_kw={},
        delivered_kwh={},
        sessions={s.ev_id: s for s in scenario.sessions},
        removed=set(),
    )
    profiles: dict[str, np.ndarray] = {}
    bus_ids: dict[str, int] = {}
    carried: ControlSignal | None = None
    step_traces: list[ConvergenceTrace] = []
    flags: list[str] = []

    for tau in range(steps):
        state.tau = tau
        slot0 = tau * sps
        slot1 = (tau + 1) * sps if tau < steps - 1 else t

        changed = False
        for event in events_by_step.get(tau, []):
            _reference_apply_event(event, state, tau, flags)
            changed = True

        active_ids = sorted(state.sessions)
        tasks: list[StationTask] = []
        init = np.zeros((len(active_ids), t))
        for k, ev_id in enumerate(active_ids):
            session = state.sessions[ev_id]
            bus_ids[ev_id] = session.bus_id
            committed = state.committed_kw.setdefault(ev_id, np.zeros(t))
            state.delivered_kwh.setdefault(ev_id, 0.0)
            lo, hi = session_bounds(session, t)
            lo[:slot0] = committed[:slot0]
            hi[:slot0] = committed[:slot0]
            lo_kwh = float(lo.sum()) * dt
            hi_kwh = float(hi.sum()) * dt
            energy = session.energy_kwh
            if energy < lo_kwh - 1e-9 or energy > hi_kwh + 1e-9:
                clamped = min(max(energy, lo_kwh), hi_kwh)
                flags.append(
                    f"step {tau}: session {ev_id} energy target {energy!r} kWh "
                    f"outside reachable [{lo_kwh!r}, {hi_kwh!r}]; "
                    f"clamped to {clamped!r}"
                )
                energy = clamped
            tasks.append(StationTask(ev_id, session.bus_id, lo, hi, energy))
            if ev_id in profiles:
                init[k] = profiles[ev_id]

        initial_signal = carried if not changed else None
        result = run_fixed_point(config, base_load_mw, tasks, init, initial_signal)
        if not result.trace.converged:
            flags.append(
                f"step {tau}: fixed point not converged after "
                f"{result.trace.iterations} iterations "
                f"(residual {result.trace.residuals[-1]!r})"
            )
        step_traces.append(result.trace)
        carried = result.signal

        for k, ev_id in enumerate(active_ids):
            profiles[ev_id] = result.profiles_kw[k]
            state.committed_kw[ev_id][slot0:slot1] = result.profiles_kw[k][slot0:slot1]
            state.delivered_kwh[ev_id] += (
                float(result.profiles_kw[k][slot0:slot1].sum()) * dt
            )

    ev_ids = tuple(sorted(state.committed_kw))
    committed = np.zeros((len(ev_ids), t))
    for k, ev_id in enumerate(ev_ids):
        committed[k] = state.committed_kw[ev_id]
    state.tau = steps
    return HorizonResult(
        ev_ids=ev_ids,
        bus_ids=dict(bus_ids),
        committed_kw=committed,
        step_traces=tuple(step_traces),
        flags=tuple(flags),
        state=state,
    )


# ---------------------------------------------------------------------------
# Per-row load aggregation


def reference_aggregate(base: BaseLoadProfile, profiles_by_bus) -> np.ndarray:
    """EV load in MW per base-load row, from ``(bus_id, kW profile)`` pairs
    added one at a time in the given order."""
    ev_mw = np.zeros_like(base.mw)
    for bus_id, profile_kw in profiles_by_bus:
        k = base.bus_ids.index(bus_id)
        ev_mw[k] = ev_mw[k] + np.asarray(profile_kw, dtype=float) / KW_PER_MW
    return ev_mw
