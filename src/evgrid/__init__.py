"""Bi-directional EV charging coordination with steady-state grid evaluation.

The package couples three layers:

* an electrical network model with Newton-Raphson AC power flow (``grid``,
  ``powerflow``),
* a decentralized charging scheduler that flattens the aggregate load by
  broadcast/gather iteration over per-station proximal subproblems
  (``fleet``, ``scheduler``, ``coordinator``),
* scenario evaluation that compares uncoordinated and coordinated charging
  through peak, voltage, line-current, and generation metrics (``metrics``).

``cli`` wires everything into a single ``evgrid`` command.
"""

__version__ = "0.1.0"

from .grid import Bus, Branch, GridCase, BusKind, build_admittance_matrix, load_grid_case
from .fleet import EvSession, FleetScenario, HistoricalRecord, generate_fleet, uncoordinated_profile
from .scheduler import (
    ControlSignal,
    ConvergenceTrace,
    SchedulerConfig,
    run_until_converged,
)
from .coordinator import LoopbackTransport, ScriptedEvent, run_receding_horizon
from .powerflow import PowerFlowSolution, LineFlow, solve_power_flow
from .metrics import BaseLoadProfile, ReactiveAssumptions, ScenarioReport, compare_scenarios

__all__ = [
    "Bus",
    "Branch",
    "BusKind",
    "GridCase",
    "build_admittance_matrix",
    "load_grid_case",
    "EvSession",
    "FleetScenario",
    "HistoricalRecord",
    "generate_fleet",
    "uncoordinated_profile",
    "ControlSignal",
    "ConvergenceTrace",
    "SchedulerConfig",
    "run_until_converged",
    "LoopbackTransport",
    "ScriptedEvent",
    "run_receding_horizon",
    "PowerFlowSolution",
    "LineFlow",
    "solve_power_flow",
    "BaseLoadProfile",
    "ReactiveAssumptions",
    "ScenarioReport",
    "compare_scenarios",
]
