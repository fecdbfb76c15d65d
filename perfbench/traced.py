"""Run one ``evgrid`` command in-process with a span around every public
call into each layer, then write the spans as JSON.

Usage: python3 perfbench/traced.py SPANS.json EVGRID-ARGS...

Run from the root of a checkout.  A span is [name, start_ns, end_ns,
parent_index, info]; ``info`` carries the counts measured at that boundary
(bytes read or written, stations, rounds, power-flow iterations).  Spans stay
in memory until the command returns.  Where a module imported a function by
name, the wrapper is installed at that binding too, because that is the one
the calling module looks up.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced


def _bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _fixed_point(args, kwargs, result):
    tasks = args[2] if len(args) > 2 else kwargs["tasks"]
    return {"stations": len(tasks), "rounds": result.trace.iterations}


def _horizon(args, kwargs, result):
    iterations = [trace.iterations for trace in result.step_traces]
    return {"steps": len(iterations), "active_steps": sum(1 for i in iterations if i)}


def _power_flow(args, kwargs, result):
    return {"iterations": result.iterations}


def install(tracer: Tracer) -> None:
    from evgrid import cli, coordinator, fileio, fleet, grid, metrics, powerflow, scheduler

    layers = [
        ("fileio.read", _bytes, [
            (fileio, "read_schedules"), (fleet, "read_sessions"),
            (metrics, "read_base_load"), (coordinator, "read_events"),
            (grid, "load_grid_case"), (cli, "load_grid_case")]),
        ("fileio.write", _bytes, [
            (fileio, "write_schedules"), (fileio, "write_traces"),
            (fileio, "write_system_aggregate"), (fileio, "write_bus_aggregate"),
            (cli, "_write_json")]),
        ("fleet.baseline", None, [(fleet, "uncoordinated_profile")]),
        ("scheduler.solve", None, [(scheduler, "solve_task"), (coordinator, "solve_task")]),
        ("scheduler.fixed_point", _fixed_point, [
            (scheduler, "run_fixed_point"), (coordinator, "run_fixed_point")]),
        ("scheduler.run", None, [
            (scheduler, "run_until_converged"), (cli, "run_until_converged")]),
        ("coordinator.horizon", _horizon, [(coordinator, "run_receding_horizon")]),
        ("powerflow.solve", _power_flow, [
            (powerflow, "solve_power_flow"), (metrics, "solve_power_flow"),
            (cli, "solve_power_flow")]),
        ("metrics.aggregate", None, [(metrics, "aggregate_load")]),
        ("metrics.compare", None, [(metrics, "compare_scenarios")]),
        ("metrics.report", None, [(metrics, "report_to_dict"), (metrics, "render_report")]),
    ]
    wrapped: dict[int, object] = {}
    for name, info, bindings in layers:
        for module, attr in bindings:
            fn = getattr(module, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = tracer.wrap(fn, name, info)
            setattr(module, attr, wrapped[id(fn)])


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    tracer = Tracer()
    install(tracer)
    from evgrid import cli

    code = tracer.wrap(cli.main, "cli.main")(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
