"""Property tests: the batched sweep kernel against single-trajectory folds.

``target_sweep`` and ``reorder_sweep`` advance every candidate at once with
the order rule as vectors.  Every property here compares them with an
independent loop over ``step`` or with the unit-level oracle, on drawn demand
streams, shelf lives, costs, grids and calendars.
"""

import math

from hypothesis import given
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
