"""Shared fixtures: bundled case data, desk scenario paths, small builders."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from evgrid import grid
from evgrid.fleet import EvSession
from evgrid.scheduler import SchedulerConfig, _project, prepare_stations

DATA_DIR = Path(str(resources.files("evgrid") / "data"))
DESK_DIR = DATA_DIR / "desk"


@pytest.fixture(scope="session")
def wscc_case() -> grid.GridCase:
    return grid.load_grid_case(DATA_DIR / "wscc9.case")


@pytest.fixture(scope="session")
def wscc_ybus(wscc_case) -> np.ndarray:
    return grid.build_admittance_matrix(wscc_case)


@pytest.fixture(scope="session")
def desk_config_path() -> Path:
    return DESK_DIR / "config.json"


UNITY_CASE_TEXT = """
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


@pytest.fixture()
def unity_case() -> grid.GridCase:
    """Three buses at 1.0 pu setpoints, no load: flat start is the solution."""
    return grid.parse_grid_case(UNITY_CASE_TEXT, name="unity")


def two_bus_text(p_inj_mw: float = -50.0, q_inj_mvar: float = 0.0,
                 x: float = 0.1, r: float = 0.0, b: float = 0.0) -> str:
    """Case file text: swing at 1 angle 0 feeding one PQ bus over a single
    branch."""
    return f"""
[system]
s_base_mva = 100.0

[buses]
1  swing  1.0  0.0  0.0  0.0  230.0
2  pq     1.0  0.0  {p_inj_mw}  {q_inj_mvar}  230.0

[branches]
1  2  {r}  {x}  {b}  1.0
"""


def two_bus_case(p_inj_mw: float = -50.0, q_inj_mvar: float = 0.0,
                 x: float = 0.1, r: float = 0.0, b: float = 0.0) -> grid.GridCase:
    return grid.parse_grid_case(two_bus_text(p_inj_mw, q_inj_mvar, x, r, b), name="two-bus")


def make_session(ev_id: str = "ev1", bus_id: int = 5, t_start: int = 2,
                 t_end: int = 10, energy_kwh: float = 10.0,
                 p_max_kw: float = 6.6, d_max_kw: float = -6.6) -> EvSession:
    return EvSession(ev_id, bus_id, t_start, t_end, energy_kwh, p_max_kw, d_max_kw)


def project_rows(c, previous, lo, hi, energy, dt) -> np.ndarray:
    """Each row's minimizer of sum(c*p) + 0.5*||p - previous||^2 over the box
    lo <= p <= hi with sum(p)*dt == energy, through the scheduler's own
    entry, ``_project``, in one call.  Rows are stations: c, previous, lo and
    hi are (N, T) and energy (N,); 1-D arguments are one row."""
    one_row = np.ndim(previous) == 1
    p = np.atleast_2d(np.subtract(previous, c, dtype=float))
    bounds = np.stack((np.atleast_2d(lo), np.atleast_2d(hi)), axis=1).astype(float)
    stations = prepare_stations(bounds, np.atleast_1d(np.asarray(energy, dtype=float)), dt)
    _project(stations, p)
    return p[0] if one_row else p


def small_config(**kwargs) -> SchedulerConfig:
    defaults = dict(lam=2.0, epsilon=1e-6, max_iterations=500,
                    slots=16, slot_hours=0.25)
    defaults.update(kwargs)
    return SchedulerConfig(**defaults)


# --- round-trip properties ----------------------------------------------------

# any text the package's unquoted CSV cells can hold
cell_text = st.text(st.characters(exclude_categories=("Cs",),
                                  exclude_characters=",\r\n"), max_size=12)
# every finite double, -0.0 and subnormals included
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
file_ints = st.integers(-10**9, 10**9)

# the properties rewrite one file under tmp_path per example
round_trip = settings(max_examples=60, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


def assert_identical(got, want) -> None:
    """Exact equality: ``repr`` spells every double distinctly, so -0.0 and
    0.0 differ here although they compare equal."""
    assert type(got) is type(want)
    assert repr(got) == repr(want)
