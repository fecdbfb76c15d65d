"""Steady-state AC power flow in one call: ``solve_power_flow(case)`` builds
the case's admittance matrix, solves it by Newton-Raphson and returns the bus
state with the line flows.

The solver works on the complex bus injections ``S = V * conj(Ybus V)``; its
unknowns are the angles of the PV and PQ buses and the magnitudes of the PQ
buses.  The Jacobian is the complex form of MATPOWER's ``dSbus_dV``
(Zimmerman, Murillo-Sanchez & Thomas, IEEE TPWRS 26(1), 2011): with
``I = Ybus V``,

    dS/dVa = 1j diag(V) conj(diag(I) - Ybus diag(V))
    dS/dVm = diag(V) conj(Ybus diag(V/|V|)) + conj(diag(I)) diag(V/|V|)

whose real parts are the derivatives of P and imaginary parts those of Q.
Each step is solved by ``np.linalg.solve`` (LAPACK ``gesv``), after a check
that the Jacobian's smallest singular value is at least MIN_SINGULAR_VALUE.
PV reactive limits are not modeled.  Line flows come from the branch model of
``grid.branch_terms``, the one the admittance matrix is built from.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .grid import Branch, BusKind, GridCase, branch_terms, build_admittance_matrix

SQRT3 = math.sqrt(3.0)
MIN_SINGULAR_VALUE = 1e-12


class PowerFlowError(RuntimeError):
    """A solve that did not converge or met a singular Jacobian."""


class LineFlow(NamedTuple):
    branch: Branch
    i_from_amps: float
    s_from_mva: complex
    loss_mva: complex


class PowerFlowSolution(NamedTuple):
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


def _jacobian(v: np.ndarray, ybus: np.ndarray, pvpq: list[int], pq: list[int]) -> np.ndarray:
    """Derivatives of P at ``pvpq`` and Q at ``pq`` with respect to the angles
    at ``pvpq`` and the magnitudes at ``pq``, at the complex voltages ``v``."""
    i = ybus @ v
    v_unit = v / np.abs(v)
    ds_dva = 1j * v[:, None] * np.conj(np.diag(i) - ybus * v)
    ds_dvm = v[:, None] * np.conj(ybus * v_unit) + np.diag(np.conj(i) * v_unit)
    return np.block([
        [ds_dva.real[np.ix_(pvpq, pvpq)], ds_dvm.real[np.ix_(pvpq, pq)]],
        [ds_dva.imag[np.ix_(pq, pvpq)], ds_dvm.imag[np.ix_(pq, pq)]],
    ])


def solve_power_flow(case: GridCase, tol: float = 1e-8,
                     max_iter: int = 20) -> PowerFlowSolution:
    """Newton-Raphson solve of ``case`` from a flat start, on the admittance
    matrix built from it.

    Raises PowerFlowError after ``max_iter`` updates, at the first
    non-finite mismatch, or at a singular Jacobian; on success the returned
    injections are the computed values at the solution state, and the flows
    those of every branch.
    """
    ybus = build_admittance_matrix(case)
    pq = case.indices_of_kind(BusKind.PQ)
    pvpq = sorted(case.indices_of_kind(BusKind.PV) + pq)

    p_spec = np.array([b.p_inj for b in case.buses])
    q_spec = np.array([b.q_inj for b in case.buses])
    # flat start; the fixed magnitudes and the swing angle come from the case
    v_mag = np.array([1.0 if b.kind is BusKind.PQ else b.v_mag for b in case.buses])
    v_angle = np.array([b.v_angle if b.kind is BusKind.SWING else 0.0 for b in case.buses])

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
                raise PowerFlowError(f"power flow did not converge in {iterations} iterations "
                                     f"(mismatch {max_mis:.3e} pu, tol {tol:.1e} pu)")

            jac = _jacobian(v_mag * np.exp(1j * v_angle), ybus, pvpq, pq)
            smallest = np.linalg.svd(jac, compute_uv=False)[-1]
            if smallest < MIN_SINGULAR_VALUE:
                raise PowerFlowError(f"singular Jacobian at iteration {iterations}: "
                                     f"smallest singular value {smallest:.3e}")
            dx = np.linalg.solve(jac, mismatch)

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
                i_from_amps=float(abs(i_from)) * amps_per_unit(case.s_base, base_kv),
                s_from_mva=complex(s_from),
                loss_mva=complex(s_from + s_to),
            )
        )
    return tuple(flows)


def amps_per_unit(s_base_mva: float, base_kv: float) -> float:
    """Ampere value of 1.0 pu current at the given voltage base."""
    return s_base_mva * 1000.0 / (SQRT3 * base_kv)
