"""Decentralized charging coordination: control signal, per-station proximal
subproblem, and the broadcast/gather fixed-point iteration.

Unit bridge: base load is MW, per-EV profiles are kW.  The control signal is
the aggregate load scaled by 1/(lambda*N), so it carries MW-scale values.
Each station's subproblem is solved with its kW decision variables divided by
the fixed factor ``KW_PER_MW`` (1000), which makes the control signal act as a
dimensionless slot price in the KKT form

    p(t) = clip(previous(t) - c(t) + mu * dt, lo(t), hi(t))

with the scalar multiplier mu fixed exactly by the energy equality: a sort of
the 2T breakpoints of the piecewise-linear energy curve and one closed-form
interpolation on the segment that holds the target (the breakpoint search
for the continuous quadratic knapsack; Kiwiel 2008, Condat 2016).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .fleet import KW_PER_MW, EvSession

# a target this close to the box's energy bound (MWh, i.e. 1e-9 kWh) is met
# by the bound profile itself
ENERGY_TOL = 1e-12


class SchedulerError(ValueError):
    pass


class InfeasibleSessionError(SchedulerError):
    def __init__(self, ev_id: str, energy_kwh: float, lo_kwh: float, hi_kwh: float):
        self.ev_id = ev_id
        self.energy_kwh = energy_kwh
        self.feasible_kwh = (lo_kwh, hi_kwh)
        super().__init__(
            f"station {ev_id}: energy target {energy_kwh!r} kWh outside the "
            f"box-reachable interval [{lo_kwh!r}, {hi_kwh!r}] kWh"
        )


@dataclass(frozen=True)
class SchedulerConfig:
    lam: float = 2.0                 # control-signal tuning parameter
    epsilon: float = 1e-3            # convergence threshold on the signal, MW scale
    max_iterations: int = 200
    slots: int = 96
    slot_hours: float = 0.25

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0 < value < math.inf:
                key = "lambda" if f.name == "lam" else f.name
                raise SchedulerError(
                    f"scheduler.{key}: expected a finite positive number, got {value!r}")


@dataclass(frozen=True)
class ControlSignal:
    values: np.ndarray               # length T, MW scale
    iteration: int


@dataclass(frozen=True)
class ConvergenceTrace:
    residuals: tuple[float, ...]     # inf-norm signal change; nan before the first
    objectives: tuple[float, ...]    # entry 0 at the starting profiles, then one per iteration, MW^2
    iterations: int                  # station response rounds performed
    converged: bool
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True)
class StationTask:
    """Effective per-station subproblem: slot bounds plus the energy target.

    For a fresh session the bounds are the availability-masked rate limits;
    the receding-horizon loop additionally pins already-committed slots by
    setting lo = hi = committed value there.
    """

    ev_id: str
    bus_id: int
    lo_kw: np.ndarray
    hi_kw: np.ndarray
    energy_kwh: float


def session_bounds(session: EvSession, slots: int) -> tuple[np.ndarray, np.ndarray]:
    """Rate bounds over the horizon: the limits inside the window, 0 outside."""
    lo = np.zeros(slots)
    hi = np.zeros(slots)
    lo[session.t_start:session.t_end] = session.d_max_kw
    hi[session.t_start:session.t_end] = session.p_max_kw
    return lo, hi


def task_from_session(session: EvSession, slots: int) -> StationTask:
    lo, hi = session_bounds(session, slots)
    return StationTask(session.ev_id, session.bus_id, lo, hi, session.energy_kwh)


def aggregate_ev_mw(profiles_kw: np.ndarray) -> np.ndarray:
    """Sum of per-EV profiles in MW; rows are in fixed ev_id order."""
    return (profiles_kw / KW_PER_MW).sum(axis=0)


def compute_control_signal(base_load_mw: np.ndarray, profiles_kw: np.ndarray,
                           lam: float, iteration: int = 0) -> ControlSignal:
    """Scaled aggregate load broadcast to every station."""
    n = profiles_kw.shape[0]
    if n == 0:
        raise SchedulerError("control signal undefined for zero stations")
    total = base_load_mw + aggregate_ev_mw(profiles_kw)
    return ControlSignal(values=total / (lam * n), iteration=iteration)


def flattening_objective(base_load_mw: np.ndarray, profiles_kw: np.ndarray) -> float:
    """Sum of squared total load over the horizon, MW^2."""
    total = base_load_mw + aggregate_ev_mw(profiles_kw)
    return float(np.sum(total * total))


def project_to_energy_box(c: np.ndarray, previous: np.ndarray, lo: np.ndarray,
                          hi: np.ndarray, energy: float, dt: float,
                          label: str = "station") -> np.ndarray:
    """Minimize sum(c*p) + 0.5*||p - previous||^2 over the box with an energy
    equality sum(p)*dt == energy.

    All arguments share one consistent unit system.  The KKT stationary form
    is p = clip(previous - c + mu*dt, lo, hi).  sum(p(mu)) is continuous,
    nondecreasing and piecewise linear in mu, so mu is found exactly by
    sorting its 2T breakpoints and interpolating on the segment that reaches
    the energy target; no iteration, no stopping tolerance.
    """
    lo_total = float(lo.sum())
    lo_sum = lo_total * dt
    hi_sum = float(hi.sum()) * dt
    slack = max(ENERGY_TOL, 1e-9 * max(1.0, abs(energy)))
    if energy < lo_sum - slack or energy > hi_sum + slack:
        raise InfeasibleSessionError(label, energy, lo_sum, hi_sum)
    # compare the miss itself, so a snapped profile misses by at most
    # ENERGY_TOL, not by ENERGY_TOL plus the rounding of hi_sum - ENERGY_TOL
    if hi_sum - energy <= ENERGY_TOL:
        return hi.copy()
    if energy - lo_sum <= ENERGY_TOL:
        return lo.copy()

    # with nu = mu*dt, S(nu) = sum(clip(base + nu, lo, hi)) is piecewise
    # linear: its slope steps up by one at each a = lo - base and down by one
    # at each b = hi - base.  The stable sort keeps every a ahead of an equal
    # b, so the running slope never goes negative.
    base = previous - c
    t = base.size
    ks = np.concatenate((lo - base, hi - base))
    order = ks.argsort(kind="stable")
    ks = ks[order]
    slope = np.cumsum(np.where(order < t, 1.0, -1.0))
    # S at every breakpoint
    sk = lo_total + np.concatenate(([0.0], np.cumsum(slope[:-1] * np.diff(ks))))
    target = energy / dt
    # the first breakpoint with S >= target closes the segment holding the
    # root, whose slope is at least one
    j = min(max(int(np.searchsorted(sk, target)), 1), 2 * t - 1)
    nu = ks[j - 1] + (target - sk[j - 1]) / slope[j - 1]
    return np.clip(base + nu, lo, hi)


def solve_task(signal: ControlSignal, previous_kw: np.ndarray, task: StationTask,
               config: SchedulerConfig) -> np.ndarray:
    """One station's proximal update against the broadcast signal, in kW."""
    try:
        p_mw = project_to_energy_box(
            c=signal.values,
            previous=previous_kw / KW_PER_MW,
            lo=task.lo_kw / KW_PER_MW,
            hi=task.hi_kw / KW_PER_MW,
            energy=task.energy_kwh / KW_PER_MW,
            dt=config.slot_hours,
            label=task.ev_id,
        )
    except InfeasibleSessionError as exc:
        # the projection works in MW units; report the interval in kWh
        raise InfeasibleSessionError(
            task.ev_id, exc.energy_kwh * KW_PER_MW,
            exc.feasible_kwh[0] * KW_PER_MW, exc.feasible_kwh[1] * KW_PER_MW) from None
    return p_mw * KW_PER_MW


@dataclass(frozen=True)
class FixedPointResult:
    profiles_kw: np.ndarray
    trace: ConvergenceTrace
    signal: ControlSignal | None    # last computed signal; None when no stations


def run_fixed_point(config: SchedulerConfig, base_load_mw: np.ndarray,
                    tasks: list[StationTask],
                    initial_profiles: np.ndarray | None = None,
                    initial_signal: ControlSignal | None = None,
                    respond=None) -> FixedPointResult:
    """Iterate broadcast/gather until the signal residual drops below epsilon.

    When ``initial_signal`` is supplied and the first computed signal already
    matches it within epsilon the state is taken as converged with zero
    response rounds; the receding-horizon loop uses this so an unchanged
    problem re-solves to the identical profiles.
    """
    n = len(tasks)
    t = config.slots
    if initial_profiles is None:
        profiles = np.zeros((n, t))
    else:
        profiles = np.array(initial_profiles, dtype=float, copy=True)
        if profiles.shape != (n, t):
            raise SchedulerError(f"initial profiles shape {profiles.shape} != ({n}, {t})")

    objectives = [flattening_objective(base_load_mw, profiles)]
    if n == 0:
        # a single degenerate round: nothing to gather, base load is final
        trace = ConvergenceTrace((math.nan,), tuple(objectives), 1, True)
        return FixedPointResult(profiles, trace, None)

    if respond is None:
        def respond(signal, profiles_kw):
            out = np.empty_like(profiles_kw)
            for k, task in enumerate(tasks):
                out[k] = solve_task(signal, profiles_kw[k], task, config)
            return out

    signal = compute_control_signal(base_load_mw, profiles, config.lam, 0)
    residuals: list[float] = []
    diagnostics: list[str] = []
    converged = False
    iterations = 0

    if initial_signal is not None:
        r0 = float(np.max(np.abs(signal.values - initial_signal.values)))
        residuals.append(r0)
        if r0 <= config.epsilon:
            trace = ConvergenceTrace(tuple(residuals), tuple(objectives), 0, True)
            return FixedPointResult(profiles, trace, signal)
    else:
        residuals.append(math.nan)

    while iterations < config.max_iterations:
        profiles = respond(signal, profiles)
        iterations += 1
        new_signal = compute_control_signal(base_load_mw, profiles, config.lam, iterations)
        residual = float(np.max(np.abs(new_signal.values - signal.values)))
        objective = flattening_objective(base_load_mw, profiles)
        # compare response rounds only: the starting profiles may not satisfy
        # the energy equalities yet, and restoring them can only add load
        if iterations > 1 and objective > objectives[-1] + 1e-9 * max(1.0, abs(objectives[-1])):
            diagnostics.append(
                f"flattening objective increased at iteration {iterations}: "
                f"{objectives[-1]!r} -> {objective!r}"
            )
        residuals.append(residual)
        objectives.append(objective)
        signal = new_signal
        if residual <= config.epsilon:
            converged = True
            break

    trace = ConvergenceTrace(
        residuals=tuple(residuals),
        objectives=tuple(objectives),
        iterations=iterations,
        converged=converged,
        diagnostics=tuple(diagnostics),
    )
    return FixedPointResult(profiles, trace, signal)


def run_until_converged(config: SchedulerConfig, base_load_mw: np.ndarray,
                        sessions, initial_profiles: np.ndarray | None = None
                        ) -> tuple[np.ndarray, ConvergenceTrace]:
    """Solve the one-shot coordination problem for a list of sessions (or
    prepared tasks) and return the per-EV kW profiles plus the trace.
    """
    tasks = [
        item if isinstance(item, StationTask) else task_from_session(item, config.slots)
        for item in sessions
    ]
    result = run_fixed_point(config, base_load_mw, tasks, initial_profiles)
    return result.profiles_kw, result.trace
