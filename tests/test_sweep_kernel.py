"""Property tests: the batched sweep kernel against single-trajectory folds.

``target_sweep`` and ``reorder_sweep`` advance every candidate at once with
the order rule as vectors.  Every property here compares them with an
independent loop over ``step`` or with the unit-level oracle, on drawn demand
streams, shelf lives, costs, grids and calendars; ``learn_policy``, which
sweeps both schedules' reorder levels in one pass, is compared with the
one-schedule sweeps.  The sweep works a block of periods at a time, so the
three are also drawn on horizons next to its block boundaries, and the order
plan and its int64 cap are compared with their per-day statement.
"""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from bloodbank import policy as pol
from bloodbank.inventory import (
    CostParams,
    brute_force_unit_sim,
    step,
    young_stock,
)

shelf_lives = st.integers(2, 40)
# sevenths are inexact in binary, so a sum taken in another order shows in the last bits
coefficients = st.one_of(st.just(0.0), st.integers(1, 3500).map(lambda v: v / 7),
                         st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False))
cost_params = st.builds(CostParams, coefficients, coefficients, coefficients, coefficients)


@st.composite
def streams(draw, max_len=40):
    """Aligned demands and forecasts; forecasts include exact halves and zeros."""
    demands = draw(st.lists(st.integers(0, 40), min_size=1, max_size=max_len))
    noise = draw(st.lists(st.sampled_from([-7.5, -2.0, -0.5, 0.0, 0.5, 1.25, 3.5, 9.0]),
                          min_size=len(demands), max_size=len(demands)))
    return demands, [max(0.0, y + e) for y, e in zip(demands, noise)]


def _profile(initial, demands, shelf_life):
    return young_stock(initial, max(sum(demands) / len(demands), 1.0), shelf_life)


def _fold(profile, demands, costs, decide):
    """Loop over ``step``; returns the average cost, the orders and the outcomes."""
    state, level, total = profile, profile.total, 0.0
    orders, outcomes = [], []
    for i, y in enumerate(demands):
        z = decide(i, level)
        state, outcome = step(state, z, y, costs)
        level = outcome.end_inventory
        total += outcome.cost
        orders.append(z)
        outcomes.append(outcome)
    return total / len(demands), orders, outcomes


def _half_up(value):
    return max(0, int(math.floor(value + 0.5)))


def _reorder_rule(y_hat, horizon, start_weekday, target, floor, kind):
    def decide(i, level):
        block = 1
        if kind == "semiweekly":
            block = {0: 3, 3: 4}.get((start_weekday + i - 1) % 7, 0)
        if not block or level >= floor:
            return 0
        units = _half_up(sum(y_hat[i: min(i + block, horizon)]))
        return min(max(units, floor - level), target - level)
    return decide


def _conserves(profile, orders, outcomes):
    level = profile.total
    for z, o in zip(orders, outcomes):
        if not 0 <= o.urgent <= o.demand:
            return False
        if level + z != (o.demand - o.urgent) + o.expired + o.end_inventory:
            return False
        level = o.end_inventory
    return True


@given(stream=streams(), shelf_life=shelf_lives, costs=cost_params,
       initial=st.integers(0, 200), data=st.data())
def test_target_sweep_equals_step_fold(stream, shelf_life, costs, initial, data):
    demands, y_hat = stream
    # targets below the initial stock order nothing until stock falls under them
    grid = data.draw(st.lists(st.integers(0, 300), min_size=1, max_size=6)) + [initial // 2]
    profile = _profile(initial, demands, shelf_life)
    gold, _, _ = _fold(profile, demands, costs, lambda i, level: demands[i])

    expected = []
    for target in sorted(set(grid)):
        average, _, _ = _fold(profile, demands, costs,
                              lambda i, level: max(0, min(_half_up(y_hat[i]), target - level)))
        expected.append((target, average, abs(gold - average)))
    assert pol.target_sweep(y_hat, demands, initial, costs, grid, shelf_life) == expected


@given(stream=streams(), shelf_life=shelf_lives, costs=cost_params,
       initial=st.integers(0, 200), target=st.integers(0, 300),
       kind=st.sampled_from(["daily", "semiweekly"]), start_weekday=st.integers(0, 6),
       data=st.data())
def test_reorder_sweep_equals_step_fold(stream, shelf_life, costs, initial, target, kind,
                                        start_weekday, data):
    demands, y_hat = stream
    grid = data.draw(st.lists(st.integers(0, target), max_size=5)) + [0, target]
    levels = sorted(set(grid))
    profile = _profile(initial, demands, shelf_life)
    gold, _, _ = _fold(profile, demands, costs, lambda i, level: demands[i])

    expected, runs = [], {}
    for floor in levels:
        rule = _reorder_rule(y_hat, len(demands), start_weekday, target, floor, kind)
        average, orders, outcomes = _fold(profile, demands, costs, rule)
        expected.append((floor, average, abs(gold - average)))
        runs[floor] = orders, outcomes
    schedule = pol.Schedule(kind, start_weekday)
    assert pol.reorder_sweep(y_hat, demands, initial, costs, target, grid, schedule,
                             shelf_life) == expected

    # a sampled candidate's trajectory conserves units and matches the unit oracle
    orders, outcomes = runs[data.draw(st.sampled_from(levels))]
    assert _conserves(profile, orders, outcomes)
    oracle, _ = brute_force_unit_sim(profile.unit_ages(), orders, demands, costs, shelf_life)
    assert oracle == outcomes


@given(stream=streams(), shelf_life=shelf_lives, costs=cost_params,
       initial=st.integers(0, 200), start_weekday=st.integers(0, 6),
       objective=st.sampled_from(["match_gold", "min_cost"]), data=st.data())
def test_learn_policy_equals_the_one_schedule_sweeps(stream, shelf_life, costs, initial,
                                                     start_weekday, objective, data):
    demands, y_hat = stream
    targets = data.draw(st.lists(st.integers(0, 300), min_size=1, max_size=6))
    # a given reorder grid keeps 0, so some candidate lies under every target
    reorder_grid = data.draw(st.none() | st.lists(st.integers(0, 300), max_size=6).map(
        lambda grid: grid + [0]))
    choices, rows = pol.learn_policy(y_hat, demands, initial, costs, targets, reorder_grid,
                                     start_weekday, shelf_life, objective)

    assert rows["target"] == pol.target_sweep(y_hat, demands, initial, costs, targets,
                                              shelf_life)
    target = pol.best_candidate(rows["target"], objective)
    levels = (range(0, target + 1, 10) if reorder_grid is None
              else [s for s in reorder_grid if s <= target])
    for kind in ("daily", "semiweekly"):
        schedule = pol.Schedule(kind, start_weekday)
        assert rows[kind] == pol.reorder_sweep(y_hat, demands, initial, costs, target, levels,
                                               schedule, shelf_life), kind
    assert set(rows) == set(choices) == {"target", "daily", "semiweekly"}
    assert all(choices[name] == pol.best_candidate(rows[name], objective) for name in rows)


# The sweep gathers its inputs and prices its costs a block of ``pol._BLOCK`` periods at a
# time: horizons of 1 period and on each side of the first two block boundaries.
BLOCK = pol._BLOCK
block_horizons = st.sampled_from([1] + [k * BLOCK + d for k in (1, 2) for d in (-1, 0, 1)])
sevenths = st.builds(CostParams, *[st.integers(0, 3500).map(lambda v: v / 7)] * 4)


@st.composite
def block_streams(draw):
    """``streams`` on one of ``block_horizons``."""
    horizon = draw(block_horizons)
    demands = draw(st.lists(st.integers(0, 40), min_size=horizon, max_size=horizon))
    noise = draw(st.lists(st.sampled_from([-7.5, -2.0, -0.5, 0.0, 0.5, 1.25, 3.5, 9.0]),
                          min_size=horizon, max_size=horizon))
    return demands, [max(0.0, y + e) for y, e in zip(demands, noise)]


def _target_rows(profile, demands, y_hat, costs, gold, targets):
    rows = []
    for target in sorted(set(targets)):
        average, _, _ = _fold(profile, demands, costs,
                              lambda i, level: max(0, min(_half_up(y_hat[i]), target - level)))
        rows.append((target, average, abs(gold - average)))
    return rows


def _reorder_rows(profile, demands, y_hat, costs, gold, target, levels, kind, start_weekday):
    rows = []
    for floor in sorted(set(levels)):
        rule = _reorder_rule(y_hat, len(demands), start_weekday, target, floor, kind)
        average, _, _ = _fold(profile, demands, costs, rule)
        rows.append((floor, average, abs(gold - average)))
    return rows


@given(stream=block_streams(), shelf_life=shelf_lives, costs=sevenths,
       initial=st.integers(0, 200), data=st.data())
def test_target_sweep_across_blocks_equals_step_fold(stream, shelf_life, costs, initial, data):
    demands, y_hat = stream
    grid = data.draw(st.lists(st.integers(0, 300), min_size=1, max_size=3)) + [initial // 2]
    profile = _profile(initial, demands, shelf_life)
    gold, _, _ = _fold(profile, demands, costs, lambda i, level: demands[i])
    assert (pol.target_sweep(y_hat, demands, initial, costs, grid, shelf_life)
            == _target_rows(profile, demands, y_hat, costs, gold, grid))


@given(stream=block_streams(), shelf_life=shelf_lives, costs=sevenths,
       initial=st.integers(0, 200), target=st.integers(0, 300),
       kind=st.sampled_from(["daily", "semiweekly"]), start_weekday=st.integers(0, 6),
       data=st.data())
def test_reorder_sweep_across_blocks_equals_step_fold(stream, shelf_life, costs, initial,
                                                      target, kind, start_weekday, data):
    demands, y_hat = stream
    grid = data.draw(st.lists(st.integers(0, target), max_size=2)) + [0, target]
    profile = _profile(initial, demands, shelf_life)
    gold, _, _ = _fold(profile, demands, costs, lambda i, level: demands[i])
    assert (pol.reorder_sweep(y_hat, demands, initial, costs, target, grid,
                              pol.Schedule(kind, start_weekday), shelf_life)
            == _reorder_rows(profile, demands, y_hat, costs, gold, target, grid, kind,
                             start_weekday))


@given(stream=block_streams(), shelf_life=shelf_lives, costs=sevenths,
       initial=st.integers(0, 200), start_weekday=st.integers(0, 6),
       objective=st.sampled_from(["match_gold", "min_cost"]), data=st.data())
def test_learn_policy_across_blocks_equals_step_fold(stream, shelf_life, costs, initial,
                                                     start_weekday, objective, data):
    demands, y_hat = stream
    targets = data.draw(st.lists(st.integers(0, 300), min_size=1, max_size=3))
    reorder_grid = data.draw(st.lists(st.integers(0, 300), max_size=2)) + [0]
    choices, rows = pol.learn_policy(y_hat, demands, initial, costs, targets, reorder_grid,
                                     start_weekday, shelf_life, objective)

    profile = _profile(initial, demands, shelf_life)
    gold, _, _ = _fold(profile, demands, costs, lambda i, level: demands[i])
    assert rows["target"] == _target_rows(profile, demands, y_hat, costs, gold, targets)
    target = pol.best_candidate(rows["target"], objective)
    levels = [s for s in reorder_grid if s <= target]
    for kind in ("daily", "semiweekly"):
        assert rows[kind] == _reorder_rows(profile, demands, y_hat, costs, gold, target,
                                           levels, kind, start_weekday), kind
    assert all(choices[name] == pol.best_candidate(rows[name], objective) for name in rows)


# exact halves, sevenths and forecasts at and beyond the +-1e300 clip
forecasts = (st.sampled_from([-math.inf, -1e308, -1e300, -2.5, -0.5, 0.0, 0.5, 1.5, 2.5,
                              2.0**62, 2.0**63, 1e300, 1e308, math.inf])
             | st.integers(-700, 700).map(lambda v: v / 7)
             | st.floats(-1e300, 1e300))


# caps at the int64 limit on cumulative arrivals, and just above float-exact integers
caps = st.integers(0, 2**63 - 1) | st.sampled_from([2**53 + 1, 2**62 - 1, 2**62 + 1, 2**63 - 1])


@given(y_hat=st.lists(forecasts, max_size=30), cap=caps)
def test_order_plan_equals_the_per_day_sums(y_hat, cap):
    clipped = [min(max(v, -1e300), 1e300) for v in y_hat]
    for start_weekday in range(7):
        for kind in ("daily", "semiweekly"):
            units, order_days = pol._order_plan(y_hat, pol.Schedule(kind, start_weekday))
            assert units.shape == order_days.shape == (len(y_hat),)
            capped = pol._capped(units, cap)  # as the sweep takes them
            assert capped.dtype == np.int64
            for i in range(len(y_hat)):
                block = 1
                if kind == "semiweekly":
                    block = {1: 3, 4: 4}.get((start_weekday + i) % 7, 0)
                assert order_days[i] == (block > 0)
                # the block's sum left to right, as ``sum`` adds floats before Python 3.12,
                # cut at the end of the horizon
                total = 0
                for v in clipped[i: i + block]:
                    total += v
                expected = pol.round_units(total) if block else 0
                assert units[i] == int(units[i]) == expected, (kind, start_weekday, i)
                assert capped[i] == min(expected, cap), (kind, start_weekday, i)


@given(forecast=forecasts, costs=sevenths, initial=st.integers(0, 50),
       demand=st.integers(0, 50), cap=caps)
@example(forecast=1e300, costs=CostParams(1 / 7, 2 / 7, 3 / 7, 4 / 7), initial=10, demand=5,
         cap=2**63 - 1)
def test_sweep_caps_any_forecast_at_its_candidate(forecast, costs, initial, demand, cap):
    # one period admits a target up to the int64 limit on cumulative arrivals
    cap = min(cap, 2**63 - 1 - initial - demand)
    profile = _profile(initial, [demand], 2)
    gold, _, _ = _fold(profile, [demand], costs, lambda i, level: demand)
    assert (pol.target_sweep([forecast], [demand], initial, costs, [cap], 2)
            == _target_rows(profile, [demand], [min(max(forecast, -1e300), 1e300)], costs,
                            gold, [cap]))
