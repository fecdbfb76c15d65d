"""The fixed set-up every ``evgrid`` run pays before it reads a
workload-sized input: import, configuration, grid case, admittance matrix
and the desk base load.  Run from the root of a checkout; the benchmark
times this process from spawn to exit."""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from evgrid import cli, grid, metrics  # noqa: E402

cfg = cli.load_run_config(os.path.join("src", "evgrid", "data", "desk", "config.json"), {})
case = cli.load_grid_case(cfg.case_path)
grid.build_admittance_matrix(case)
metrics.read_base_load(cfg.base_load_path)
