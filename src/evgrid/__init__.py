"""Bi-directional EV charging coordination with steady-state grid evaluation.

The package couples three layers:

* an electrical network model with Newton-Raphson AC power flow (``grid``,
  ``powerflow``),
* a decentralized charging scheduler that flattens the aggregate load by
  broadcast/gather iteration over per-station proximal subproblems
  (``fleet``, ``scheduler``, ``coordinator``),
* scenario evaluation that compares uncoordinated and coordinated charging
  through peak, voltage, line-current, and generation metrics (``metrics``).

``cli`` wires everything into a single ``evgrid`` command.  Import names
from these submodules, such as ``from evgrid.scheduler import SchedulerConfig``.
"""

__version__ = "0.1.0"
