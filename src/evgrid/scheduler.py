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

The work is split by how often its inputs change:

- once per fixed point, before its first round: the (N, 2, T) kW bounds
  and the kWh targets the caller hands in, converted to MW, and
  (``prepare_stations``) the bound totals; the snap of each row whose
  target lies on or beyond one of its bound totals to that bound row; and
  the +/-1 slope of each breakpoint;
- once per round, for all rows at once and over the profiles handed in:
  previous - c in MW, the (N, 2T) breakpoints, each row's shift by its nu,
  one clip to the bounds, the snapped rows' bound profiles, the conversion
  back to kW; then one gather, ``total_load_mw``, for signal and objective;
- per station, per round (``solve_task``): the breakpoint search alone,
  which returns the station's nu.

Stations are rows throughout: row k of the bounds, the targets and the
profiles is one station, which sees only the broadcast signal and its own
row.  A target out of reach is not an error here (the session loader is
what rejects one): it gets the nearer bound row.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .fleet import ENERGY_TOL_KWH, KW_PER_MW

# a target this close to the box's energy bound (MWh) is met by the bound
# profile itself
ENERGY_TOL = ENERGY_TOL_KWH / KW_PER_MW


class SchedulerConfig(NamedTuple):
    # every field is finite and positive, and lam above 0.5 (checked by ``cli._RULES``)
    lam: float = 2.0                 # control-signal tuning parameter
    epsilon: float = 1e-3            # convergence threshold on the signal, MW scale
    max_iterations: int = 200
    slots: int = 96
    slot_hours: float = 0.25


class ConvergenceTrace(NamedTuple):
    residuals: tuple[float, ...]     # inf-norm signal change; nan before the first
    objectives: tuple[float, ...]    # entry 0 at the starting profiles, then one per iteration, MW^2
    iterations: int                  # station response rounds performed
    converged: bool
    diagnostics: tuple[str, ...] = ()


def session_bounds(sessions, slots: int) -> np.ndarray:
    """The (N, 2, T) kW rate bounds of ``sessions``: row k holds session k's
    d_max and p_max inside its window [t_start, t_end) and 0 outside."""
    t_start, t_end, d_max, p_max = np.array(
        [(s.t_start, s.t_end, s.d_max_kw, s.p_max_kw) for s in sessions],
        dtype=float).reshape(-1, 4).T
    slot = np.arange(slots)
    window = (slot >= t_start[:, None]) & (slot < t_end[:, None])
    rates = np.stack((d_max, p_max), axis=1)[:, :, None]
    return np.where(window[:, None, :], rates, 0.0)


def total_load_mw(base_load_mw: np.ndarray, profiles_kw: np.ndarray) -> np.ndarray:
    """The gather: base load plus the per-EV rows summed in row order for
    T >= 2 (numpy sums a lone column pairwise), in MW."""
    return base_load_mw + (profiles_kw / KW_PER_MW).sum(axis=0)


def flattening_objective(total_mw: np.ndarray) -> float:
    """Sum of squared total load over the horizon, MW^2 (inf once that
    overflows, without a warning)."""
    with np.errstate(all="ignore"):
        return float(np.sum(total_mw * total_mw))


class PreparedStations(NamedTuple):
    """The round-invariant part of every station's subproblem, in MW.

    Built once per fixed point by ``prepare_stations``; row k is station k.
    A row whose target lies on or beyond one of its bound totals, within
    ``ENERGY_TOL``, is snapped: its profile is that bound row whatever the
    signal, so each round writes the row from ``snap_profiles`` and
    ``solve_task`` returns no shift for it.
    """

    bounds: np.ndarray               # (N, 2, T): each row's lo and hi, MW
    lo_total: list[float]            # sum of each row's lo, MW
    target: list[float]              # energy target / dt, MW summed over slots
    free: list[bool]                 # False on a snapped row
    snap_rows: np.ndarray            # indices of the snapped rows
    snap_profiles: np.ndarray        # (len(snap_rows), T): their bound rows, MW
    slopes: np.ndarray               # (2T,): +1 at a lo breakpoint, -1 at a hi one


def prepare_stations(bounds: np.ndarray, energy: np.ndarray,
                     dt: float) -> PreparedStations:
    """Stations from their (N, 2, T) bounds and energy targets in one unit
    system, sorted into free rows and rows snapped to the bound row whose
    total their target lies on (within ``ENERGY_TOL``) or beyond, hi first."""
    lo_total, hi_total = bounds.sum(axis=2).T
    # compare the miss itself, so a snapped profile misses by at most
    # ENERGY_TOL, not by ENERGY_TOL plus the rounding of a shifted bound total
    at_hi = hi_total * dt - energy <= ENERGY_TOL
    snapped = at_hi | (energy - lo_total * dt <= ENERGY_TOL)
    rows = np.flatnonzero(snapped)
    return PreparedStations(
        bounds=bounds,
        lo_total=lo_total.tolist(),
        target=(energy / dt).tolist(),
        free=(~snapped).tolist(),
        snap_rows=rows,
        # copied, not clipped to, so that a -0.0 bound stays -0.0
        snap_profiles=bounds[rows, at_hi[rows].astype(np.intp)],
        slopes=np.repeat((1.0, -1.0), bounds.shape[2]),
    )


def _project(stations: PreparedStations, p: np.ndarray) -> None:
    """Overwrite ``p``, whose row k holds station k's previous - c, with
    station k's minimizer x of sum(c*x) + 0.5*||x - previous||^2 over the box
    lo <= x <= hi, (lo, hi) = ``stations.bounds[k]``, with sum(x)*dt == energy.
    The minimizer is clip(previous - c + nu, lo, hi), and ``solve_task`` finds
    nu exactly by the breakpoint search; a snapped row gets its bound row."""
    n, t = p.shape
    ks = (stations.bounds - p[:, None, :]).reshape(n, 2 * t)
    nu = np.array([solve_task(stations, k, ks[k]) for k in range(n)])
    p += nu[:, None]
    np.clip(p, stations.bounds[:, 0], stations.bounds[:, 1], out=p)
    p[stations.snap_rows] = stations.snap_profiles


def solve_task(stations: PreparedStations, k: int, ks: np.ndarray) -> float:
    """Station k's shift nu = mu*dt against the broadcast signal, in MW.

    ``ks`` holds the station's 2T breakpoints, lo - base then hi - base,
    where base is its previous profile minus the signal; its new profile is
    clip(base + nu, lo, hi).  A snapped station returns 0.0, because the
    round writes its bound row instead.
    """
    if not stations.free[k]:
        return 0.0
    # S(nu) = sum(clip(base + nu, lo, hi)) is piecewise linear: its slope
    # steps up by one at each a = lo - base and down by one at each
    # b = hi - base.  The order inside a group of equal keys cannot change
    # nu: the rises inside a group are +-0.0, the slope after the group's
    # last key does not depend on the order, the segment j - 1 chosen below
    # always ends a group (a target at a bound total is a snapped row), and
    # a +-0.0 last key leaves nu as it is, since -0.0 + x == 0.0 + x for
    # every x.
    order = ks.argsort()
    ks = ks[order]
    # np.add.accumulate is the cumsum, without ndarray.cumsum's dispatch
    slope = np.add.accumulate(stations.slopes[order])
    # S at every breakpoint: lo_total plus the area under the slope so far
    sk = np.empty(ks.size)
    sk[0] = 0.0
    rise = sk[1:]
    np.subtract(ks[1:], ks[:-1], out=rise)
    rise *= slope[:-1]
    np.add.accumulate(rise, out=rise)
    sk += stations.lo_total[k]
    target = stations.target[k]
    # the first breakpoint with S >= target closes the segment holding the
    # root, whose slope is at least one
    j = min(max(int(sk.searchsorted(target)), 1), ks.size - 1)
    return ks[j - 1] + (target - sk[j - 1]) / slope[j - 1]


class FixedPointResult(NamedTuple):
    profiles_kw: np.ndarray
    trace: ConvergenceTrace


def run_fixed_point(config: SchedulerConfig, base_load_mw: np.ndarray,
                    bounds_kw: np.ndarray, energy_kwh, start_kw: np.ndarray) -> FixedPointResult:
    """Iterate broadcast/gather until the signal residual drops below epsilon.

    Station k has the kW bounds ``bounds_kw[k]`` = (lo, hi), the energy
    target ``energy_kwh[k]`` and the starting profile ``start_kw[k]``
    (length T); a target out of reach gets the nearer bound row.  With no
    stations there is nothing to broadcast: the trace has no round.  Each
    round every station answers the signal in place, on this call's own copy
    of ``start_kw``, through ``_project`` in MW.
    """
    n = len(bounds_kw)
    # prepared before the copy of the profiles, which this call returns: the copy
    # then sits above the stations on the heap, and freeing them leaves no top to trim
    stations = prepare_stations(bounds_kw / KW_PER_MW,
                                np.asarray(energy_kwh, dtype=float) / KW_PER_MW,
                                config.slot_hours)
    # a copy even of a fresh array (the horizon's profiles[rows]): np.asarray
    # here doubled the horizon's minor page faults on desk and replan
    profiles = np.array(start_kw, dtype=float)
    total = total_load_mw(base_load_mw, profiles)

    objectives = [flattening_objective(total)]
    if n == 0:
        trace = ConvergenceTrace((math.nan,), tuple(objectives), 0, True)
        return FixedPointResult(profiles, trace)

    signal = total / (config.lam * n)
    residuals = [math.nan]
    diagnostics: list[str] = []
    converged = False
    iterations = 0

    while iterations < config.max_iterations:
        np.divide(profiles, KW_PER_MW, out=profiles)
        profiles -= signal
        _project(stations, profiles)
        profiles *= KW_PER_MW
        iterations += 1
        total = total_load_mw(base_load_mw, profiles)
        new_signal = total / (config.lam * n)
        residual = float(np.max(np.abs(new_signal - signal)))
        objective = flattening_objective(total)
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
    return FixedPointResult(profiles, trace)


def run_until_converged(config: SchedulerConfig, base_load_mw: np.ndarray,
                        sessions) -> tuple[np.ndarray, ConvergenceTrace]:
    """Solve the one-shot coordination problem for a list of sessions from
    zero profiles and return the per-EV kW profiles plus the trace.
    """
    result = run_fixed_point(config, base_load_mw, session_bounds(sessions, config.slots),
                             [s.energy_kwh for s in sessions],
                             np.zeros((len(sessions), config.slots)))
    return result.profiles_kw, result.trace
