"""Steady-state AC power flow in one call: ``solve_power_flow(case)`` builds
the case's admittance matrix, solves it by Newton-Raphson in polar form and
returns the bus state with the line flows.

The solver works on the per-unit injection equations

    P_i = V_i * sum_j V_j * Y_ij * cos(theta_i - theta_j - alpha_ij)
    Q_i = V_i * sum_j V_j * Y_ij * sin(theta_i - theta_j - alpha_ij)

with an analytically assembled Jacobian, solved at each step by Gaussian
elimination with partial pivoting in numpy.  PV reactive limits are not
modeled.  Line flows come from the branch model of ``grid.branch_terms``,
the one the admittance matrix is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Branch, BusKind, GridCase, branch_terms, build_admittance_matrix

SQRT3 = math.sqrt(3.0)
SINGULAR_PIVOT = 1e-12


class PowerFlowError(RuntimeError):
    pass


class NonConvergenceError(PowerFlowError):
    def __init__(self, iterations: int, mismatch: float, tol: float):
        self.iterations = iterations
        self.mismatch = mismatch
        super().__init__(
            f"power flow did not converge in {iterations} iterations "
            f"(mismatch {mismatch:.3e} pu, tol {tol:.1e} pu)"
        )


class SingularJacobianError(PowerFlowError):
    def __init__(self, iteration: int, pivot_index: int, pivot: float):
        self.iteration = iteration
        self.pivot_index = pivot_index
        super().__init__(
            f"singular Jacobian at iteration {iteration}: "
            f"pivot {pivot:.3e} at position {pivot_index}"
        )


@dataclass(frozen=True)
class LineFlow:
    branch: Branch
    i_from_pu: float
    i_to_pu: float
    i_from_amps: float
    s_from_mva: complex
    loss_mva: complex


@dataclass(frozen=True)
class PowerFlowSolution:
    v_mag: np.ndarray        # pu, all buses
    v_angle: np.ndarray      # rad, all buses
    p_inj: np.ndarray        # pu, computed at the solution
    q_inj: np.ndarray        # pu, computed at the solution
    iterations: int
    max_mismatch: float      # pu, at exit
    mismatch_history: tuple[float, ...]   # inf-norm before each update
    flows: tuple[LineFlow, ...]           # one per branch, in branch order


def _injections(v_mag: np.ndarray, v_angle: np.ndarray, ybus: np.ndarray):
    v = v_mag * np.exp(1j * v_angle)
    s = v * np.conj(ybus @ v)
    return s.real, s.imag


def _jacobian(v_mag, v_angle, ybus, p_calc, q_calc, pvpq, pq):
    y_mag = np.abs(ybus)
    alpha = np.angle(ybus)
    gamma = v_angle[:, None] - v_angle[None, :] - alpha
    vv = np.outer(v_mag, v_mag)
    e = vv * y_mag * np.cos(gamma)
    f = vv * y_mag * np.sin(gamma)

    h = f.copy()
    np.fill_diagonal(h, -q_calc + np.diag(f))
    n = e / v_mag[None, :]
    np.fill_diagonal(n, (p_calc + np.diag(e)) / v_mag)
    m = -e
    np.fill_diagonal(m, p_calc - np.diag(e))
    l = f / v_mag[None, :]
    np.fill_diagonal(l, (q_calc + np.diag(f)) / v_mag)

    return np.block([
        [h[np.ix_(pvpq, pvpq)], n[np.ix_(pvpq, pq)]],
        [m[np.ix_(pq, pvpq)], l[np.ix_(pq, pq)]],
    ])


def _lu_solve(a: np.ndarray, b: np.ndarray, iteration: int) -> np.ndarray:
    """Solve ``a @ x = b`` by Gaussian elimination with partial pivoting.

    Each column pivots on its first entry of largest magnitude, as LAPACK's
    ``getrf`` does; a column that is zero from the diagonal down is left
    as it is.  Raises SingularJacobianError (reporting ``iteration``) when
    the smallest ``|U_kk|`` is below SINGULAR_PIVOT.
    """
    n = len(b)
    u = np.column_stack((a, b))   # eliminating [a | b] carries b along
    for k in range(n - 1):
        p = k + int(abs(u[k:, k]).argmax())
        if p != k:
            u[[k, p]] = u[[p, k]]
        if u[k, k] != 0.0:
            u[k + 1:, k + 1:] -= (u[k + 1:, k] / u[k, k])[:, None] * u[k, k + 1:]
    diag = np.abs(np.diag(u))
    worst = int(np.argmin(diag))
    if diag[worst] < SINGULAR_PIVOT:
        raise SingularJacobianError(iteration, worst, float(diag[worst]))
    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (u[k, n] - u[k, k + 1:n] @ x[k + 1:]) / u[k, k]
    return x


def solve_power_flow(case: GridCase, tol: float = 1e-8,
                     max_iter: int = 20) -> PowerFlowSolution:
    """Newton-Raphson solve of ``case`` from a flat start, on the admittance
    matrix built from it.

    Raises NonConvergenceError after ``max_iter`` updates or at the first
    non-finite mismatch, and SingularJacobianError; on success the returned
    injections are the computed values at the solution state, and the flows
    those of every branch.
    """
    ybus = build_admittance_matrix(case)
    m = case.order
    kinds = [b.kind for b in case.buses]
    pv = [i for i in range(m) if kinds[i] is BusKind.PV]
    pq = [i for i in range(m) if kinds[i] is BusKind.PQ]
    pvpq = sorted(pv + pq)

    p_spec = np.array([b.p_inj for b in case.buses])
    q_spec = np.array([b.q_inj for b in case.buses])

    v_mag = np.ones(m)
    v_angle = np.zeros(m)
    # fixed quantities come from the case
    for i, b in enumerate(case.buses):
        if b.kind is BusKind.SWING:
            v_mag[i] = b.v_mag
            v_angle[i] = b.v_angle
        elif b.kind is BusKind.PV:
            v_mag[i] = b.v_mag

    history: list[float] = []
    iterations = 0
    # a state that overflows ends the solve at its non-finite mismatch, so
    # numpy's warnings along the way say nothing new
    with np.errstate(all="ignore"):
        while True:
            p_calc, q_calc = _injections(v_mag, v_angle, ybus)
            mismatch = np.concatenate([p_spec[pvpq] - p_calc[pvpq], q_spec[pq] - q_calc[pq]])
            max_mis = float(np.max(np.abs(mismatch))) if mismatch.size else 0.0
            history.append(max_mis)
            if max_mis <= tol:
                break
            if iterations >= max_iter or not math.isfinite(max_mis):
                raise NonConvergenceError(iterations, max_mis, tol)

            jac = _jacobian(v_mag, v_angle, ybus, p_calc, q_calc, pvpq, pq)
            dx = _lu_solve(jac, mismatch, iterations)

            n_ang = len(pvpq)
            v_angle[pvpq] += dx[:n_ang]
            v_mag[pq] += dx[n_ang:]
            iterations += 1

    return PowerFlowSolution(
        v_mag=v_mag,
        v_angle=v_angle,
        p_inj=p_calc,
        q_inj=q_calc,
        iterations=iterations,
        max_mismatch=max_mis,
        mismatch_history=tuple(history),
        flows=_line_flows(case, v_mag * np.exp(1j * v_angle)),
    )


def _line_flows(case: GridCase, v: np.ndarray) -> tuple[LineFlow, ...]:
    """Branch currents and complex flows at the bus voltages ``v``, from the
    same ``grid.branch_terms`` that the admittance matrix is stamped from."""
    flows = []
    for br, (f, t, yff, yft, ytf, ytt) in zip(case.branches, branch_terms(case)):
        i_from = yff * v[f] + yft * v[t]
        i_to = ytf * v[f] + ytt * v[t]
        s_from = v[f] * np.conj(i_from) * case.s_base
        s_to = v[t] * np.conj(i_to) * case.s_base
        base_kv = case.buses[f].base_kv
        flows.append(
            LineFlow(
                branch=br,
                i_from_pu=float(abs(i_from)),
                i_to_pu=float(abs(i_to)),
                i_from_amps=float(abs(i_from)) * amps_per_unit(case.s_base, base_kv),
                s_from_mva=complex(s_from),
                loss_mva=complex(s_from + s_to),
            )
        )
    return tuple(flows)


def amps_per_unit(s_base_mva: float, base_kv: float) -> float:
    """Ampere value of 1.0 pu current at the given voltage base."""
    return s_base_mva * 1000.0 / (SQRT3 * base_kv)
