"""Control signal, proximal subproblem, and the fixed-point iteration."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import assert_identical, make_session, project_rows, small_config
from evgrid import scheduler
from evgrid.cli import load_run_config
from evgrid.fleet import KW_PER_MW
from evgrid.scheduler import (
    ENERGY_TOL,
    SchedulerConfig,
    flattening_objective,
    run_fixed_point,
    run_until_converged,
    session_bounds,
    total_load_mw,
)


def random_box(rng, slots=8, dt=0.25):
    """A feasible session-shaped instance: window, box, target, signal."""
    a = int(rng.integers(0, slots - 1))
    b = int(rng.integers(a + 1, slots + 1))
    lo = np.zeros(slots)
    hi = np.zeros(slots)
    lo[a:b] = -float(rng.uniform(0.5, 5.0))
    hi[a:b] = float(rng.uniform(0.5, 5.0))
    margin = 1e-6
    energy = float(rng.uniform(lo.sum() * dt + margin, hi.sum() * dt - margin))
    c = rng.normal(0.0, 1.0, slots)
    previous = rng.uniform(lo, hi)
    return c, previous, lo, hi, energy


def solve_one(signal, previous_kw, session, config):
    """One session's station update through ``_project``, in and out in kW;
    the session's target lies strictly inside its box."""
    lo, hi = session_bounds([session], config.slots)[0] / KW_PER_MW
    return project_rows(signal, previous_kw / KW_PER_MW, lo, hi,
                        session.energy_kwh / KW_PER_MW, config.slot_hours) * KW_PER_MW


def sliced_bounds(session, slots):
    """One session's (2, T) kW bounds, by slicing its window."""
    lo, hi = np.zeros(slots), np.zeros(slots)
    lo[session.t_start:session.t_end] = session.d_max_kw
    hi[session.t_start:session.t_end] = session.p_max_kw
    return np.array((lo, hi))


@st.composite
def knapsack_boxes(draw):
    """Small boxes on a coarse grid, so breakpoints tie and segments go flat;
    some slots are pinned (lo == hi)."""
    t = draw(st.integers(1, 8))
    cells = st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                     min_size=t, max_size=t)
    lo = np.array(draw(cells))
    widths = st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]), min_size=t, max_size=t)
    hi = lo + np.array(draw(widths))
    return np.array(draw(cells)), np.array(draw(cells)), lo, hi


@st.composite
def session_lists(draw):
    """(sessions, slots): up to six windows anywhere on the horizon, one slot
    long to all of it, with rates that may be zero, -0.0 or subnormal."""
    slots = draw(st.integers(1, 20))
    rates = st.sampled_from([0.0, -0.0, 3.3, 7.0, 5e-324])
    sessions = []
    for k in range(draw(st.integers(0, 6))):
        t_start = draw(st.integers(0, slots - 1))
        sessions.append(make_session(
            ev_id=f"e{k}", t_start=t_start, t_end=draw(st.integers(t_start + 1, slots)),
            p_max_kw=draw(rates), d_max_kw=-draw(rates)))
    return sessions, slots


class TestConfig:
    @pytest.mark.parametrize("field,value", [
        ("lam", 0.0), ("lam", -1.0), ("epsilon", 0.0), ("max_iterations", 0),
        ("slots", 0), ("slot_hours", 0.0),
    ])
    def test_positivity_enforced(self, tmp_path, field, value):
        # the rule is checked where the config is read; the type takes its
        # values as given
        small_config(**{field: value})
        key = "lambda" if field == "lam" else field
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scheduler": {key: value}}))
        with pytest.raises(ValueError) as info:
            load_run_config(str(path), {})
        assert str(info.value) == (f"{path}: scheduler.{key}: expected a finite positive "
                                   f"number, got {value!r}")


class TestControlSignal:
    def test_zero_profiles(self):
        base = np.full(4, 80.0)
        signal = total_load_mw(base, np.zeros((5, 4))) / (2.0 * 5)
        assert np.array_equal(signal, base / 10.0)

    def test_doubling_lambda_halves(self):
        base = np.linspace(50.0, 120.0, 8)
        profiles = np.random.default_rng(0).uniform(0, 6.6, (3, 8))
        one = total_load_mw(base, profiles) / (2.0 * 3)
        two = total_load_mw(base, profiles) / (4.0 * 3)
        assert np.allclose(two * 2.0, one, rtol=0, atol=1e-15)

    def test_worked_example(self):
        # B = 100 MW flat, N = 2, lambda = 2, profiles sum to 10 MW flat
        base = np.full(6, 100.0)
        profiles = np.full((2, 6), 5000.0)    # kW
        signal = total_load_mw(base, profiles) / (2.0 * 2)
        assert np.array_equal(signal, np.full(6, 27.5))

    def test_summation_in_row_order(self):
        # bit for bit a loop from row 0; at T = 1 numpy's pairwise sum differs
        rng = np.random.default_rng(7)
        for slots in (2, 96):
            for _ in range(50):
                base = np.zeros(slots)      # a base load would hide most last-bit moves
                profiles = rng.uniform(-7.0, 7.0, (300, slots)) * 10.0 ** rng.integers(-3, 4)
                rows_mw = profiles / KW_PER_MW
                by_row = rows_mw[0].copy()
                for row in rows_mw[1:]:
                    by_row += row
                assert total_load_mw(base, profiles).tobytes() == (base + by_row).tobytes()


class TestFlatteningObjective:
    def test_zero(self):
        assert flattening_objective(total_load_mw(np.zeros(8), np.zeros((2, 8)))) == 0.0

    def test_direct_arithmetic(self):
        total = total_load_mw(np.full(96, 100.0), np.zeros((1, 96)))
        assert flattening_objective(total) == 960000.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_uniform_allocation_is_minimal(self, data):
        t = data.draw(st.integers(2, 12))
        total = data.draw(st.floats(-50.0, 200.0))
        shifts = data.draw(st.lists(
            st.floats(-30.0, 30.0, allow_nan=False), min_size=t, max_size=t))
        uneven = np.full(t, total / t) + np.array(shifts) - np.mean(shifts)
        uniform = np.full(t, total / t)
        # same energy, so the flat profile can never be beaten
        assert (flattening_objective(total_load_mw(uniform, np.zeros((1, t))))
                <= flattening_objective(total_load_mw(uneven, np.zeros((1, t)))) + 1e-9)


class TestSessionBounds:
    def test_window_mask(self):
        s = make_session(t_start=2, t_end=5, p_max_kw=6.6, d_max_kw=-3.3)
        lo, hi = session_bounds([s], 8)[0]
        assert list(hi) == [0, 0, 6.6, 6.6, 6.6, 0, 0, 0]
        assert list(lo) == [0, 0, -3.3, -3.3, -3.3, 0, 0, 0]

    @settings(max_examples=100, deadline=None)
    @given(case=session_lists())
    @example(case=([
        make_session(ev_id="first", t_start=0, t_end=3),
        make_session(ev_id="last", t_start=9, t_end=12, p_max_kw=3.3, d_max_kw=-7.0),
        make_session(ev_id="one", t_start=5, t_end=6),
        make_session(ev_id="whole", t_start=0, t_end=12),
        make_session(ev_id="idle", t_start=2, t_end=8, p_max_kw=0.0, d_max_kw=0.0),
        make_session(ev_id="signed", t_start=4, t_end=10, p_max_kw=-0.0, d_max_kw=-0.0),
    ], 12))
    def test_rows_match_per_session_slicing(self, case):
        sessions, slots = case
        got = session_bounds(sessions, slots)
        want = np.array([sliced_bounds(s, slots) for s in sessions]).reshape(-1, 2, slots)
        assert (got.shape, got.dtype) == (want.shape, want.dtype)
        assert got.tobytes() == want.tobytes()


class TestProjection:
    def test_uniform_when_unconstrained(self):
        t, dt = 8, 0.25
        lo = np.full(t, -100.0)
        hi = np.full(t, 100.0)
        p = project_rows(np.zeros(t), np.zeros(t), lo, hi, 12.0, dt)
        assert np.allclose(p, 12.0 / (t * dt), atol=1e-12)

    def test_uniform_inside_window(self):
        s = make_session(t_start=2, t_end=10, energy_kwh=10.0)
        lo, hi = session_bounds([s], 16)[0]
        p = project_rows(np.zeros(16), np.zeros(16), lo, hi, 10.0, 0.25)
        assert np.allclose(p[2:10], 10.0 / (8 * 0.25), atol=1e-12)
        assert not p[:2].any() and not p[10:].any()

    def test_tight_box_ignores_signal(self):
        s = make_session(t_start=0, t_end=4, energy_kwh=6.6, p_max_kw=6.6)
        lo, hi = session_bounds([s], 4)[0]
        c = np.array([5.0, -3.0, 40.0, 0.1])
        p = project_rows(c, np.zeros(4), lo, hi, 6.6, 0.25)
        assert np.array_equal(p, hi)

    def test_lo_edge(self):
        s = make_session(t_start=0, t_end=4, energy_kwh=-6.6, d_max_kw=-6.6)
        lo, hi = session_bounds([s], 4)[0]
        p = project_rows(np.ones(4), np.zeros(4), lo, hi, -6.6, 0.25)
        assert np.array_equal(p, lo)

    def test_unreachable_target_gets_the_nearer_bound_row(self):
        # the box reaches [-0.5, 2.0]; a target past either end is not an
        # error, it gets the bound row on that side
        lo = np.array([-0.5, -0.0, -1.5, -0.0])
        hi = np.full(4, 2.0)
        c = np.array([5.0, -3.0, 40.0, 0.1])
        for energy, row in ((99.0, hi), (2.5, hi), (-0.6, lo), (-99.0, lo)):
            p = project_rows(c, np.zeros(4), lo, hi, energy, 0.25)
            assert p.tobytes() == row.tobytes()

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        c, previous, lo, hi, energy = random_box(rng, slots=6)
        got = project_rows(c, previous, lo, hi, energy, 0.25)
        want = oracles.active_set_minimize(c, previous, lo, hi, energy, 0.25)
        assert np.max(np.abs(got - want)) < 1e-9

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_feasibility_properties(self, seed):
        rng = np.random.default_rng(seed)
        c, previous, lo, hi, energy = random_box(rng)
        p = project_rows(c, previous, lo, hi, energy, 0.25)
        assert (p >= lo).all() and (p <= hi).all()
        assert float(p.sum()) * 0.25 == pytest.approx(energy, abs=1e-9)


    @settings(max_examples=300, deadline=None)
    @given(box=knapsack_boxes(), where=st.one_of(
        st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-9,
                         1.0 - 1e-12, 1.0]),
        st.floats(0.0, 1.0), st.integers(0, 15)))
    # a target ENERGY_TOL inside a bound, up to rounding
    @example(box=(np.array([-2.0, -2.0]), np.array([-2.0, -2.0]), np.array([-1.0, 0.0]),
                  np.array([0.0, 3.0])), where=1e-12)
    def test_exact_on_ties_pins_and_edges(self, box, where):
        c, previous, lo, hi = box
        dt = 0.25
        lo_sum, hi_sum = float(lo.sum()) * dt, float(hi.sum()) * dt
        if isinstance(where, int):
            # land on a breakpoint of the energy curve, flat segments included
            knots = np.concatenate((lo - previous + c, hi - previous + c))
            nu = knots[where % knots.size]
            energy = float(np.clip(previous - c + nu, lo, hi).sum()) * dt
        else:
            energy = lo_sum + where * (hi_sum - lo_sum)
        p = project_rows(c, previous, lo, hi, energy, dt)
        assert (p >= lo).all() and (p <= hi).all()
        assert abs(float(p.sum()) * dt - energy) <= 1e-12 * max(1.0, abs(energy))
        # a tight oracle tolerance, so that it resolves targets just inside the box
        want = oracles.active_set_minimize(c, previous, lo, hi, energy, dt, feas_tol=1e-12)
        assert np.max(np.abs(p - want)) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(box=knapsack_boxes(), above=st.booleans())
    def test_out_of_range_targets(self, box, above):
        c, previous, lo, hi = box
        dt = 0.25
        lo_sum, hi_sum = float(lo.sum()) * dt, float(hi.sum()) * dt
        edge = hi_sum if above else lo_sum
        step = 1e-6 * max(1.0, abs(edge))
        # inside the 1e-9 relative slack the bound profile is returned
        within = edge + (step if above else -step) * 1e-4
        p = project_rows(c, previous, lo, hi, within, dt)
        assert np.array_equal(p, hi if above else lo)
        # beyond it, the nearer bound row, bit for bit, as the reference gives
        beyond = edge + (step if above else -step)
        p = project_rows(c, previous, lo, hi, beyond, dt)
        assert p.tobytes() == (hi if above else lo).tobytes()
        want = oracles._reference_project(c, previous, lo, hi, beyond, dt)
        assert p.tobytes() == want.tobytes()


class TestStationSubproblem:
    def test_oracle_agreement_sample(self):
        config = small_config(slots=8)
        rng = np.random.default_rng(99)
        for _ in range(50):
            c, prev_mw, lo, hi, energy = random_box(rng)
            session = make_session(
                t_start=int(np.flatnonzero(hi)[0]),
                t_end=int(np.flatnonzero(hi)[-1]) + 1,
                energy_kwh=energy * 1000.0,
                p_max_kw=float(hi.max()) * 1000.0,
                d_max_kw=float(lo.min()) * 1000.0,
            )
            got_kw = solve_one(c, prev_mw * 1000.0, session, config)
            want = oracles.active_set_minimize(
                c, prev_mw, lo, hi, energy, 0.25) * 1000.0
            assert np.max(np.abs(got_kw - want)) < 1e-6

    def test_no_profitable_pair_transfer(self):
        # KKT check: moving delta between any two slots never helps
        config = small_config(slots=8)
        rng = np.random.default_rng(5)
        delta = 1e-4
        for _ in range(20):
            c, prev_mw, lo, hi, energy = random_box(rng)
            session = make_session(
                t_start=int(np.flatnonzero(hi)[0]),
                t_end=int(np.flatnonzero(hi)[-1]) + 1,
                energy_kwh=energy * 1000.0,
                p_max_kw=float(hi.max()) * 1000.0,
                d_max_kw=float(lo.min()) * 1000.0,
            )
            prev_kw = prev_mw * 1000.0
            p = solve_one(c, prev_kw, session, config)
            lo_kw, hi_kw = session_bounds([session], 8)[0]
            c_kw = c * 1000.0

            def objective(x):
                return float(c_kw @ x / 1000.0 ** 2
                             + 0.5 * np.sum((x - prev_kw) ** 2) / 1000.0 ** 2)

            base_obj = objective(p)
            for a in range(8):
                for b in range(8):
                    if a == b:
                        continue
                    q = p.copy()
                    q[a] -= delta
                    q[b] += delta
                    if (q[a] < lo_kw[a] - 1e-12 or q[b] > hi_kw[b] + 1e-12):
                        continue
                    assert objective(q) >= base_obj - 1e-9

    def test_scale_invariance_with_lambda(self):
        base = np.linspace(40.0, 90.0, 16)
        profiles = np.zeros((1, 16))
        session = make_session(t_start=1, t_end=13, energy_kwh=9.0)
        config = small_config()
        for k in (2.0, 10.0, 0.5):
            sig = total_load_mw(base, profiles) / config.lam
            scaled = total_load_mw(base, profiles) / (config.lam * k)
            rescaled = scaled * k
            a = solve_one(sig, profiles[0], session, config)
            b = solve_one(rescaled, profiles[0], session, config)
            assert np.array_equal(a, b)

    def test_unreachable_session_gets_its_bound_row(self):
        """A kWh target out of reach is taken as given: the station
        answers with its nearer kW bound row, as the per-station reference
        does, and delivers the box's end, 8 slots x 0.25 h x 6.6 kW."""
        config = small_config(max_iterations=1)
        base = np.linspace(40.0, 90.0, config.slots)
        init = np.zeros((1, config.slots))
        signal = total_load_mw(base, init) / config.lam
        for energy_kwh, side, delivered in ((1e6, 1, 13.2), (-1e6, 0, -13.2)):
            session = make_session(energy_kwh=energy_kwh)
            bounds = session_bounds([session], config.slots)
            got = run_fixed_point(config, base, bounds, [energy_kwh], init).profiles_kw[0]
            want = oracles.reference_solve(signal, init[0], *bounds[0], energy_kwh, config)
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == (bounds[0, side] / KW_PER_MW * KW_PER_MW).tobytes()
            assert float(got.sum()) * config.slot_hours == pytest.approx(delivered, abs=1e-9)


DT = 0.25


def _target_kwh(rng, lo, hi, grid):
    """An energy target for the box: inside it, on or within ENERGY_TOL of
    either bound, at a V2G discharge, or, on the integer grid, at a
    breakpoint of the energy curve."""
    lo_kwh, hi_kwh = float(lo.sum()) * DT, float(hi.sum()) * DT
    tol_kwh = ENERGY_TOL * KW_PER_MW
    mode = int(rng.integers(0, 12))
    if mode == 0:
        return lo_kwh
    if mode == 1:
        return hi_kwh
    if mode == 2:
        return lo_kwh + tol_kwh * float(rng.choice([-0.5, 0.5, 1.0, 2.0]))
    if mode == 3:
        return hi_kwh - tol_kwh * float(rng.choice([-0.5, 0.5, 1.0, 2.0]))
    if mode == 4 and lo_kwh < 0.0:
        return float(rng.uniform(lo_kwh, min(0.0, hi_kwh)))
    if mode == 5 and grid:
        # the signal is zero on the grid, so the breakpoints are lo and hi
        nu = float(rng.choice(np.concatenate((lo, hi))))
        return float(np.clip(nu, lo, hi).sum()) * DT
    return float(rng.uniform(lo_kwh, hi_kwh))


@st.composite
def station_stacks(draw):
    """(config, base load MW, (N, 2, T) kW bounds, kWh targets, starting kW
    profiles) for one fixed point.  Windows may be empty and slots pinned
    (lo == hi).  On the integer grid the bounds are whole MW and the signal
    is zero, so the breakpoints are integers and tie; otherwise a random base
    load and starting profiles give a slot-varying signal, from far below to
    far above the stations' rates.  At most one station may have a target
    1 kWh beyond its reachable interval."""
    t = draw(st.sampled_from([1, 2, 7, 96]))
    n = draw(st.integers(1, 6))
    grid = draw(st.booleans())
    unreachable = draw(st.sampled_from([None] * 3 * n + list(range(n))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bounds, targets = np.zeros((n, 2, t)), []
    for k in range(n):
        a = int(rng.integers(0, t + 1))
        b = int(rng.integers(a, t + 1))
        lo, hi = bounds[k]
        if grid:
            lo[a:b] = -KW_PER_MW * rng.integers(0, 3, b - a)
            hi[a:b] = lo[a:b] + KW_PER_MW * rng.integers(0, 4, b - a)
        else:
            lo[a:b] = -rng.uniform(0.0, 7.0, b - a) * (rng.random() < 0.7)
            hi[a:b] = rng.uniform(0.0, 7.0, b - a)
            pinned = np.flatnonzero(rng.random(b - a) < 0.2) + a
            lo[pinned] = hi[pinned] = rng.uniform(lo[pinned], hi[pinned])
        energy = _target_kwh(rng, lo, hi, grid)
        if k == unreachable:
            above = rng.random() < 0.5
            energy = float((hi if above else lo).sum()) * DT + (1.0 if above else -1.0)
        targets.append(energy)
    config = small_config(slots=t, slot_hours=DT, lam=float(rng.choice([0.5, 2.0, 10.0])),
                          max_iterations=40)
    if grid:
        return config, np.zeros(t), bounds, targets, np.zeros((n, t))
    init = rng.uniform(bounds[:, 0], bounds[:, 1])
    scale = float(rng.choice([0.01, 1.0, 100.0]))
    return config, rng.uniform(0.0, scale, t), bounds, targets, init


def reference_respond(bounds, targets, config):
    def respond(signal, profiles_kw):
        return np.array([oracles.reference_solve(signal, profiles_kw[k], lo, hi,
                                                 targets[k], config)
                         for k, (lo, hi) in enumerate(bounds)])
    return respond


def unreachable_rows(bounds, targets):
    """``(row, side)`` for every target more than 0.5 kWh beyond its box,
    side 1 above it and 0 below."""
    lo_kwh, hi_kwh = bounds.sum(axis=2).T * DT
    targets = np.asarray(targets)
    return [(int(k), int(targets[k] > hi_kwh[k]))
            for k in np.flatnonzero((targets > hi_kwh + 0.5) | (targets < lo_kwh - 0.5))]


# a station whose target is its lo total, with -0.0 lower bounds: its profile
# is the lo row, -0.0 included, which clipping to (-0.0, 0.0) would turn
# into 0.0
NEGATIVE_ZERO_SNAP = (small_config(slots=2, slot_hours=DT, max_iterations=40), np.zeros(2),
                      np.array([[[-0.0, -0.0], [0.0, 1000.0]]]), [0.0], np.zeros((1, 2)))


class TestPreparedStations:
    """The prepared per-row search against the per-call form it replaced
    (``oracles.reference_solve``): identical bytes, an unreachable row
    included."""

    @settings(max_examples=300, deadline=None)
    @given(stack=station_stacks())
    @example(stack=NEGATIVE_ZERO_SNAP)
    def test_one_round_matches_reference_solve(self, stack):
        config, base, bounds, targets, init = stack
        one_round = config._replace(max_iterations=1)
        signal = total_load_mw(base, init) / (config.lam * len(init))
        got = run_fixed_point(one_round, base, bounds, targets, init).profiles_kw
        want = reference_respond(bounds, targets, config)(signal, init)
        assert got.tobytes() == want.tobytes()
        for k, side in unreachable_rows(bounds, targets):
            assert got[k].tobytes() == (bounds[k, side] / KW_PER_MW * KW_PER_MW).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(stack=station_stacks())
    @example(stack=NEGATIVE_ZERO_SNAP)
    def test_fixed_point_matches_reference_respond(self, stack):
        config, base, bounds, targets, init = stack
        got = run_fixed_point(config, base, bounds, targets, init)
        want = run_fixed_point(config, base, bounds, targets, init,
                               respond=reference_respond(bounds, targets, config))
        assert got.profiles_kw.tobytes() == want.profiles_kw.tobytes()
        assert_identical(got.trace, want.trace)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_unreachable_rows_get_their_bound_rows(self, reverse):
        """Several unreachable targets, in either row order: each row ends
        the fixed point on its own nearer bound row, and the reachable rows
        still meet their targets."""
        config = small_config()
        base = np.full(16, 50.0)
        sessions = [make_session(ev_id="ok"), make_session(ev_id="high", energy_kwh=1e6),
                    make_session(ev_id="fine", energy_kwh=-3.0),
                    make_session(ev_id="low", energy_kwh=-1e6)]
        if reverse:
            sessions.reverse()
        bounds = session_bounds(sessions, config.slots)
        targets = [s.energy_kwh for s in sessions]
        result = run_fixed_point(config, base, bounds, targets, np.zeros((4, 16)))
        assert result.trace.converged
        sides = dict(unreachable_rows(bounds, targets))
        assert sorted(sides.values()) == [0, 1]
        for k, (row, energy) in enumerate(zip(result.profiles_kw, targets)):
            if k in sides:
                assert row.tobytes() == (bounds[k, sides[k]] / KW_PER_MW
                                         * KW_PER_MW).tobytes()
            else:
                assert float(row.sum()) * config.slot_hours == pytest.approx(energy, abs=1e-9)


class TestRunUntilConverged:
    def test_zero_stations(self):
        config = small_config()
        base = np.full(16, 50.0)
        profiles, trace = run_until_converged(config, base, [])
        assert profiles.shape == (0, 16)
        assert trace.converged
        assert trace.iterations == 0
        assert math.isnan(trace.residuals[0])
        assert trace.objectives == (float(np.sum(base * base)),)

    def test_single_station_fixed_point(self):
        config = small_config()
        base = np.full(16, 50.0)
        session = make_session(t_start=2, t_end=14, energy_kwh=12.0)
        profiles, trace = run_until_converged(config, base, [session])
        assert trace.converged
        # replay the broadcast/respond loop by hand
        manual = np.zeros((1, 16))
        for _ in range(trace.iterations):
            signal = total_load_mw(base, manual) / config.lam
            manual = solve_one(signal, manual[0], session, config)[None, :]
        assert np.array_equal(profiles, manual)

    def test_converged_energy_and_window(self):
        config = small_config()
        rng = np.random.default_rng(3)
        base = rng.uniform(40.0, 80.0, 16)
        sessions = []
        for k in range(5):
            t_start = int(rng.integers(0, 8))
            t_end = int(rng.integers(9, 17))
            cap = 6.6 * 0.25 * (t_end - t_start)
            sessions.append(make_session(
                ev_id=f"e{k}", t_start=t_start, t_end=t_end,
                energy_kwh=float(rng.uniform(-0.9 * cap, 0.9 * cap))))
        profiles, trace = run_until_converged(config, base, sessions)
        assert trace.converged
        for row, s in zip(profiles, sessions):
            assert float(row.sum()) * 0.25 == pytest.approx(s.energy_kwh, abs=1e-9)
            assert not row[:s.t_start].any()
            assert not row[s.t_end:].any()
            assert row.max(initial=0.0) <= s.p_max_kw + 1e-9
            assert row.min(initial=0.0) >= s.d_max_kw - 1e-9

    def test_objective_non_increasing_across_rounds(self):
        # entry 0 is the zero-profile start; delivering the required energy
        # raises the objective once, then successive rounds must not
        config = small_config()
        rng = np.random.default_rng(8)
        base = rng.uniform(40.0, 90.0, 16)
        sessions = [make_session(ev_id=f"e{k}", energy_kwh=6.0 + k) for k in range(4)]
        _, trace = run_until_converged(config, base, sessions)
        assert trace.diagnostics == ()
        for earlier, later in zip(trace.objectives[1:], trace.objectives[2:]):
            assert later <= earlier + 1e-9 * max(1.0, abs(earlier))

    def test_objective_increase_surfaced_as_diagnostic(self):
        # a scripted responder concentrates the same energy on round 2;
        # the increase must be flagged by iteration number, and the round-1
        # jump from the empty start must not be
        config = small_config(slots=4, epsilon=1e-9)
        base = np.full(4, 50.0)
        session = make_session(t_start=0, t_end=4, energy_kwh=3.3)
        scripted = iter([
            np.array([[3.3, 3.3, 3.3, 3.3]]),
            np.array([[6.6, 6.6, 0.0, 0.0]]),
            np.array([[6.6, 6.6, 0.0, 0.0]]),
        ])

        def respond(signal, profiles_kw):
            return next(scripted)

        result = run_fixed_point(config, base, session_bounds([session], 4),
                                 [session.energy_kwh], np.zeros((1, 4)), respond=respond)
        assert result.trace.converged
        assert len(result.trace.diagnostics) == 1
        assert "iteration 2" in result.trace.diagnostics[0]

    def test_final_residual_below_epsilon(self):
        config = small_config()
        base = np.full(16, 60.0)
        _, trace = run_until_converged(config, base, [make_session()])
        assert trace.converged
        assert trace.residuals[-1] <= config.epsilon

    def test_flattens_total_load(self):
        config = small_config(slots=24)
        t = np.arange(24, dtype=float)
        base = 60.0 + 25.0 * np.exp(-((t - 6.0) ** 2) / 18.0)
        sessions = [
            make_session(ev_id=f"e{k}", t_start=0, t_end=24,
                         energy_kwh=30.0, p_max_kw=50.0, d_max_kw=-50.0)
            for k in range(4)
        ]
        profiles, trace = run_until_converged(config, base, sessions)
        total = base + profiles.sum(axis=0) / 1000.0
        assert trace.converged
        assert np.var(total) < np.var(base)

    def test_bit_determinism(self):
        config = small_config()
        base = np.linspace(45.0, 85.0, 16)
        sessions = [make_session(ev_id=f"e{k}", energy_kwh=4.0 + 0.7 * k)
                    for k in range(6)]
        p1, t1 = run_until_converged(config, base, sessions)
        p2, t2 = run_until_converged(config, base, sessions)
        assert np.array_equal(p1, p2)
        assert t1 == t2

    def test_non_convergence_returns_best_iterate(self):
        config = small_config(epsilon=1e-12, max_iterations=2)
        # a light base load keeps the stations trading slots for many rounds
        base = np.linspace(0.0, 0.05, 16)
        sessions = [make_session(ev_id=f"e{k}", energy_kwh=3.0 + k) for k in range(5)]
        profiles, trace = run_until_converged(config, base, sessions)
        assert not trace.converged
        assert trace.iterations == 2
        for row, s in zip(profiles, sessions):
            assert float(row.sum()) * 0.25 == pytest.approx(s.energy_kwh, abs=1e-9)

    def test_warm_start_from_solution(self):
        config = small_config()
        base = np.full(16, 55.0)
        sessions = [make_session(ev_id=f"e{k}", energy_kwh=5.0) for k in range(3)]
        profiles, trace = run_until_converged(config, base, sessions)
        again, trace2 = run_fixed_point(config, base, session_bounds(sessions, config.slots),
                                        [s.energy_kwh for s in sessions], profiles)
        assert trace2.converged
        assert trace2.iterations <= 1
        assert np.array_equal(again, profiles)

    def test_nan_residual_seeds_cold_start_trace(self):
        config = small_config()
        _, trace = run_until_converged(config, np.full(16, 55.0), [make_session()])
        assert math.isnan(trace.residuals[0])
        assert len(trace.residuals) == trace.iterations + 1
        assert len(trace.objectives) == trace.iterations + 1


def three_stations(config):
    """Bounds, targets and random starting kW profiles of three stations."""
    sessions = [make_session(ev_id=f"e{k}", t_start=k, t_end=12 + k, energy_kwh=4.0 + k)
                for k in range(3)]
    init = np.random.default_rng(4).uniform(-6.6, 6.6, (3, config.slots))
    return session_bounds(sessions, config.slots), [s.energy_kwh for s in sessions], init


class TestRoundWorkspace:
    @pytest.mark.parametrize("max_iterations", [1, 5])
    def test_response_leaves_initial_profiles_alone(self, max_iterations):
        """The default response writes over the fixed point's own copy of
        the starting profiles, never over the caller's array."""
        config = small_config(max_iterations=max_iterations, epsilon=1e-12)
        bounds, targets, init = three_stations(config)
        before = init.tobytes()
        result = run_fixed_point(config, np.full(config.slots, 50.0), bounds, targets, init)
        assert result.trace.iterations == max_iterations
        assert init.tobytes() == before
        assert not np.shares_memory(result.profiles_kw, init)

    def test_one_gather_per_round(self, monkeypatch):
        """The total load is formed once for the starting profiles and once
        per round; the signal and the objective both read it."""
        calls = []
        gather = scheduler.total_load_mw

        def counted(*args):
            calls.append(args)
            return gather(*args)

        monkeypatch.setattr(scheduler, "total_load_mw", counted)
        config = small_config()
        bounds, targets, init = three_stations(config)
        result = run_fixed_point(config, np.full(config.slots, 50.0), bounds, targets, init)
        assert result.trace.converged and result.trace.iterations > 1
        assert len(calls) == result.trace.iterations + 1
