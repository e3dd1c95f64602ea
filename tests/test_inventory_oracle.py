"""The plain-Python trajectory loop against the numpy period it replaced.

``reference_step`` is the array implementation of one FIFO period that
``inventory.step`` used before single trajectories moved to a list of age
counts.  Every property here requires ``step``, ``simulate``, ``run_policy``
and ``evaluate_strategy`` to equal a fold over it exactly, field types
included, on drawn shelf lives, initial ages, order and demand streams,
calendars and costs.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from bloodbank import policy as pol
from bloodbank.inventory import (
    AgeProfile,
    CostParams,
    PeriodOutcome,
    _check_units,
    simulate,
    step,
)


def reference_step(state, order_qty, demand, costs):
    """One period on the ``int64`` age array: arrivals, FIFO issue, urgent top-up, aging."""
    z = _check_units("order_qty", order_qty)
    y = _check_units("demand", demand)
    prior = state.counts
    m = state.shelf_life

    # issue oldest first: demand left over before reaching age bucket j is
    # y minus everything already taken from older buckets
    oldest_first = prior[::-1]
    older_cum = np.cumsum(oldest_first) - oldest_first
    take = np.minimum(oldest_first, np.maximum(y - older_cum, 0))
    survivors = (oldest_first - take)[::-1]  # back in age order

    new_counts = np.zeros(m - 1, dtype=np.int64)
    new_counts[1:] = survivors[:-1]  # each surviving bucket ages one period
    expired = int(survivors[-1])  # age m-1 survivors reach the limit
    remaining = y - int(take.sum())
    take_arrivals = min(remaining, z)  # arrivals are issued last
    new_counts[0] = z - take_arrivals
    urgent = remaining - take_arrivals

    end_inventory = int(new_counts.sum())
    cost = costs.period_cost(z > 0, end_inventory, urgent, expired)
    outcome = PeriodOutcome(
        order_placed=z > 0,
        order_qty=z,
        demand=y,
        urgent=urgent,
        expired=expired,
        end_inventory=end_inventory,
        cost=cost,
    )
    return AgeProfile(new_counts, m), outcome


def reference_fold(profile, demands, costs, decide):
    """Outcomes and mean cost of ``reference_step`` with orders ``decide(i, level)``."""
    state, level, outcomes = profile, profile.total, []
    for i, y in enumerate(demands):
        state, outcome = reference_step(state, decide(i, level), y, costs)
        level = outcome.end_inventory
        outcomes.append(outcome)
    return outcomes, sum(o.cost for o in outcomes) / len(outcomes) if outcomes else 0.0


def typed(outcomes):
    """Each outcome as (type, value) pairs, so ``==`` also compares types."""
    return [[(type(v), v) for v in dataclasses.astuple(o)] for o in outcomes]


shelf_lives = st.integers(2, 40)
# sevenths are inexact in binary, so a sum taken in another order shows in the last bits
coefficients = st.one_of(st.just(0.0), st.integers(1, 3500).map(lambda v: v / 7),
                         st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False))
cost_params = st.builds(CostParams, coefficients, coefficients, coefficients, coefficients)
# zero demand, demand near the stock, and demand far above any stock drawn
units = st.one_of(st.just(0), st.integers(0, 60), st.integers(500, 5000))


@st.composite
def profiles(draw):
    shelf_life = draw(shelf_lives)
    counts = draw(st.lists(st.one_of(st.just(0), st.integers(0, 80)),
                           min_size=shelf_life - 1, max_size=shelf_life - 1))
    return AgeProfile(np.array(counts, dtype=np.int64), shelf_life)


@st.composite
def forecast_streams(draw, max_len=40):
    demands = draw(st.lists(units, min_size=1, max_size=max_len))
    y_hat = draw(st.lists(st.sampled_from([0.0, 0.5, 2.5, 7.25, 40.0, 61.5, 900.0]),
                          min_size=len(demands), max_size=len(demands)))
    return y_hat, demands


def _half_up(value):
    return max(0, int(math.floor(value + 0.5)))


def reference_rule(y_hat, start_weekday, params, kind):
    """The target/reorder rule restated: Monday and Thursday orders cover 3 and 4 days."""
    target, floor, horizon = params.inventory_target, params.reorder_level, len(y_hat)

    def decide(i, level):
        block = 1
        if kind == "semiweekly":
            block = {0: 3, 3: 4}.get((start_weekday + i - 1) % 7, 0)
        if not block or level >= floor:
            return 0
        forecast = _half_up(sum(y_hat[i: min(i + block, horizon)]))
        return min(max(forecast, floor - level), target - level)
    return decide


@given(profile=profiles(), z=units, y=units, costs=cost_params)
def test_step_equals_reference_step(profile, z, y, costs):
    state, outcome = step(profile, z, y, costs)
    expected_state, expected = reference_step(profile, z, y, costs)
    assert state.counts.dtype == np.int64
    assert state.counts.tolist() == expected_state.counts.tolist()
    assert state.shelf_life == expected_state.shelf_life
    assert typed([outcome]) == typed([expected])


@given(profile=profiles(), costs=cost_params, data=st.data())
def test_simulate_equals_reference_fold(profile, costs, data):
    demands = data.draw(st.lists(units, max_size=40))
    orders = data.draw(st.lists(units, min_size=len(demands), max_size=len(demands)))
    outcomes, average = simulate(profile, orders, demands, costs)
    expected, expected_average = reference_fold(profile, demands, costs,
                                                lambda i, level: orders[i])
    assert typed(outcomes) == typed(expected)
    assert type(average) is type(expected_average) and average == expected_average


@given(profile=profiles(), stream=forecast_streams(), costs=cost_params, data=st.data())
def test_run_policy_equals_reference_fold(profile, stream, costs, data):
    y_hat, demands = stream
    target = data.draw(st.integers(0, 400))
    floor = data.draw(st.integers(0, target))
    for kind in ("daily", "semiweekly"):
        for start_weekday in range(7):
            params = pol.PolicyParams(target, floor, pol.Schedule(kind, start_weekday))
            run = pol.run_policy(y_hat, demands, profile, costs, params)
            expected, average = reference_fold(
                profile, demands, costs, reference_rule(y_hat, start_weekday, params, kind))
            assert typed(run.outcomes) == typed(expected)
            assert run.average_cost == average
            assert run.initial_level == profile.total


@given(profile=profiles(), stream=forecast_streams(), costs=cost_params,
       start_weekday=st.integers(0, 6), data=st.data())
def test_evaluate_strategy_equals_reference_fold(profile, stream, costs, start_weekday, data):
    y_hat, demands = stream
    target = data.draw(st.integers(0, 400))
    params = pol.PolicyParams(target, data.draw(st.integers(0, target)))
    baseline_target = data.draw(st.integers(0, 400))
    rules = {
        "gold": lambda i, level: demands[i],
        "baseline": lambda i, level: max(0, baseline_target - level),
        "daily": reference_rule(y_hat, start_weekday, params, "daily"),
        "semiweekly": reference_rule(y_hat, start_weekday, params, "semiweekly"),
    }
    for strategy, decide in rules.items():
        summary = pol.evaluate_strategy(strategy, y_hat, demands, profile, costs, params=params,
                                        baseline_target=baseline_target,
                                        start_weekday=start_weekday,
                                        shelf_life=profile.shelf_life)
        outcomes, _ = reference_fold(profile, demands, costs, decide)
        columns = [[getattr(o, name) for o in outcomes] for name in
                   ("order_qty", "demand", "urgent", "expired", "end_inventory", "cost")]
        expected = pol._summarize(strategy, columns, start_weekday,
                                  urgent_available=strategy != "baseline")
        # repr compares NaN fields (no order placed, zero demand) as equal
        assert repr(summary) == repr(expected)
        assert [type(v) for v in dataclasses.astuple(summary)] == [
            type(v) for v in dataclasses.astuple(expected)]
