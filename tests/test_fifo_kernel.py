"""Property tests: the cumulative-arrival FIFO kernel against the unit oracle.

``simulate`` (the plain-int fold), ``step`` (one period behind an
``AgeProfile``) and the vector sweeps all run on cumulative arrivals and one
issued-or-expired count.  Each property here compares them with
``brute_force_unit_sim``, which tracks every unit's age, over shelf lives
2-40, random initial ages, random order and demand streams and both order
calendars.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bloodbank import policy as pol
from bloodbank.errors import ParameterError
from bloodbank.inventory import (AgeProfile, CostParams, brute_force_unit_sim, simulate, step,
                                 young_stock)

shelf_lives = st.integers(2, 40)
cost_params = st.builds(CostParams, *[st.integers(0, 2100).map(lambda v: v / 7)] * 4)


@st.composite
def profiles(draw):
    shelf_life = draw(shelf_lives)
    counts = draw(st.lists(st.integers(0, 8), min_size=shelf_life - 1,
                           max_size=shelf_life - 1))
    return AgeProfile(np.array(counts), shelf_life)


def streams(length):
    return st.lists(st.integers(0, 40), min_size=length, max_size=length)


def typed(outcomes):
    return [[(type(v), v) for v in dataclasses.astuple(o)] for o in outcomes]


def oracle_rule(profile, demands, costs, decide):
    """Outcomes and mean cost of the unit oracle under orders ``decide(i, level)``."""
    orders, level, run = [], profile.total, ([], 0.0)
    for i in range(len(demands)):
        orders.append(decide(i, level))
        run = brute_force_unit_sim(profile.unit_ages(), orders, demands[: i + 1], costs,
                                   profile.shelf_life)
        level = run[0][-1].end_inventory
    return run


def half_up(value):
    return max(0, int(math.floor(value + 0.5)))


@given(profile=profiles(), costs=cost_params, data=st.data())
def test_simulate_equals_unit_oracle(profile, costs, data):
    horizon = data.draw(st.integers(0, 40))
    orders, demands = data.draw(streams(horizon)), data.draw(streams(horizon))
    expected = brute_force_unit_sim(profile.unit_ages(), orders, demands, costs,
                                     profile.shelf_life)
    outcomes, average = simulate(profile, orders, demands, costs)
    assert typed(outcomes) == typed(expected[0]) and average == expected[1]


@given(profile=profiles(), costs=cost_params, data=st.data())
def test_step_state_continues_like_the_unit_oracle(profile, costs, data):
    horizon = data.draw(st.integers(1, 20))
    orders, demands = data.draw(streams(horizon)), data.draw(streams(horizon))
    expected, _ = brute_force_unit_sim(profile.unit_ages(), orders, demands, costs,
                                       profile.shelf_life)
    state = profile
    for t, (z, y) in enumerate(zip(orders, demands)):
        state, outcome = step(state, z, y, costs)
        assert typed([outcome]) == typed([expected[t]])
        assert state.counts.dtype == np.int64 and state.total == outcome.end_inventory
        # the returned ages drive the rest of the horizon exactly as the unit ages do
        rest, _ = brute_force_unit_sim(state.unit_ages(), orders[t + 1:], demands[t + 1:],
                                       costs, state.shelf_life)
        assert rest == expected[t + 1:]


@given(profile=profiles(), costs=cost_params,
       kind=st.sampled_from(["target", "daily", "semiweekly"]), start_weekday=st.integers(0, 6),
       data=st.data())
def test_sweep_rows_equal_unit_oracle(profile, costs, kind, start_weekday, data):
    horizon = data.draw(st.integers(1, 15))
    demands = data.draw(streams(horizon))
    y_hat = [y + e for y, e in zip(demands, data.draw(st.lists(
        st.sampled_from([-2.5, -0.5, 0.0, 0.5, 3.0]), min_size=horizon, max_size=horizon)))]
    target = data.draw(st.integers(0, 200))
    grid = sorted(set(data.draw(st.lists(st.integers(0, target), min_size=1, max_size=4))))
    _, gold = brute_force_unit_sim(profile.unit_ages(), demands, demands, costs,
                                   profile.shelf_life)

    def rule(candidate):
        def decide(i, level):
            if kind == "target":
                return max(0, min(half_up(y_hat[i]), candidate - level))
            block = 1
            if kind == "semiweekly":
                block = {1: 3, 4: 4}.get((start_weekday + i) % 7, 0)
            if not block or level >= candidate:
                return 0
            units = half_up(sum(y_hat[i: i + block]))
            return min(max(units, candidate - level), target - level)
        return decide

    expected = []
    for candidate in grid:
        _, average = oracle_rule(profile, demands, costs, rule(candidate))
        expected.append((candidate, average, abs(gold - average)))
    if kind == "target":
        rows = pol.target_sweep(y_hat, demands, profile, costs, grid, profile.shelf_life)
    else:
        rows = pol.reorder_sweep(y_hat, demands, profile, costs, target, grid,
                                 pol.Schedule(kind, start_weekday), profile.shelf_life)
    assert rows == expected


def test_sweep_refuses_cumulative_arrivals_beyond_int64():
    # 1,000 daily orders of 1e16 units would wrap the int64 cumulative arrivals
    with pytest.raises(ParameterError, match="overflow int64"):
        pol.target_sweep([1e16] * 1000, [90] * 1000, 780, CostParams(), [10**16], 2)
    # a tenth of that stays exact: the row equals a fold over ``step``
    (row,) = pol.target_sweep([1e15] * 1000, [90] * 1000, 780, CostParams(), [10**15], 2)
    state, total = young_stock(780, 90.0, 2), 0.0
    for _ in range(1000):
        state, outcome = step(state, 10**15 - state.total, 90, CostParams())
        total += outcome.cost
    assert row[1] == total / 1000
