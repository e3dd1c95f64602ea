"""The plain-Python trajectory loop against the numpy period it replaced.

``reference_step`` is the array implementation of one FIFO period that
``inventory.step`` used before single trajectories moved to a list of age
counts, priced by the scalar ``CostParams.period_cost``.  The first four
properties require ``step``, ``simulate``, ``run_policy`` and
``evaluate_strategy`` to equal a fold over it exactly, field types included,
on drawn shelf lives, initial ages, order and demand streams, calendars and
costs.  The costs draw float, int and mixed coefficients, which ``CostParams``
stores as floats, and the stocks and streams whole numbers near 2**53, where a
float stops holding every int and pricing float arrays must still round each
count as the scalar form does.  Two more state one step of
``evaluate_strategy`` on its own: ``_summarize`` against numpy's ``mean`` and
``std``, and ``_rule``'s columns against converting each value to a Python
int.
"""

import dataclasses
import math

import numpy as np
from hypothesis import example, given
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


@st.composite
def mixed_cost_params(draw):
    """At least one float and one int coefficient, in drawn places.  An int coefficient
    other than 0 or a power of two, times a count past 2**53, is not exact in float: every
    form prices it as the float that ``CostParams`` stores."""
    ints = st.integers(3, 500)
    values = [draw(coefficients), draw(ints), *(draw(st.one_of(coefficients, ints))
                                                for _ in range(2))]
    return CostParams(*draw(st.permutations(values)))


# every coefficient a float, every one an int, or a mix; each is stored as a float
cost_params = st.one_of(st.builds(CostParams, *[coefficients] * 4),
                        st.builds(CostParams, *[st.integers(0, 500)] * 4), mixed_cost_params())
# whole numbers near 2**53, where a float stops holding every int
near_2_53 = st.integers(2**53 - 64, 2**53 + 64)
# zero demand, demand near the stock, demand far above any stock drawn, and counts near 2**53
units = st.one_of(st.just(0), st.integers(0, 60), st.integers(500, 5000), near_2_53)


@st.composite
def profiles(draw):
    shelf_life = draw(shelf_lives)
    counts = draw(st.lists(st.one_of(st.just(0), st.integers(0, 80)),
                           min_size=shelf_life - 1, max_size=shelf_life - 1))
    if draw(st.booleans()):  # one age holds a stock near 2**53
        counts[draw(st.integers(0, shelf_life - 2))] = draw(near_2_53)
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
# a stock past 2**53 held at an int holding cost beside float ones
@example(profile=AgeProfile([2**53 + 1, 0, 0], 4), z=0, y=0, costs=CostParams(100.0, 3, 0.5, 1.0))
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


# a target and a reorder level at or below it
policy_levels = st.integers(0, 400).flatmap(lambda t: st.tuples(st.just(t), st.integers(0, t)))


@given(profile=profiles(), stream=forecast_streams(), costs=cost_params,
       policy_levels=policy_levels)
# the same stock as step's example, which no order changes
@example(profile=AgeProfile([2**53 + 1, 0, 0], 4), stream=([0.0], [0]),
         costs=CostParams(100.0, 3, 0.5, 1.0), policy_levels=(0, 0))
def test_run_policy_equals_reference_fold(profile, stream, costs, policy_levels):
    y_hat, demands = stream
    target, floor = policy_levels
    for kind in ("daily", "semiweekly"):
        for start_weekday in range(7):
            params = pol.PolicyParams(target, floor, pol.Schedule(kind, start_weekday))
            run = pol.run_policy(y_hat, demands, profile, costs, params)
            expected, average = reference_fold(
                profile, demands, costs, reference_rule(y_hat, start_weekday, params, kind))
            assert typed(run.outcomes) == typed(expected)
            assert type(run.average_cost) is type(average) and run.average_cost == average
            assert run.initial_level == profile.total


@given(profile=profiles(), stream=forecast_streams(), costs=cost_params,
       start_weekday=st.integers(0, 6), policy_levels=policy_levels,
       baseline_target=st.integers(0, 400))
# the same stock as step's example, which no strategy orders to
@example(profile=AgeProfile([2**53 + 1, 0, 0], 4), stream=([0.0], [0]),
         costs=CostParams(100.0, 3, 0.5, 1.0), start_weekday=0, policy_levels=(0, 0),
         baseline_target=0)
def test_evaluate_strategy_equals_reference_fold(profile, stream, costs, start_weekday,
                                                 policy_levels, baseline_target):
    y_hat, demands = stream
    params = pol.PolicyParams(*policy_levels)
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
        expected = pol._summarize(strategy, columns[:5], costs, start_weekday,
                                  urgent_available=strategy != "baseline")
        # and with the scalar costs summarized as numpy's mean and std summarize them
        scalar = reference_summarize(strategy, columns, start_weekday,
                                     urgent_available=strategy != "baseline")
        # repr compares NaN fields (no order placed, zero demand) as equal
        assert repr(summary) == repr(expected) == repr(scalar)
        assert [type(v) for v in dataclasses.astuple(summary)] == [
            type(v) for v in dataclasses.astuple(expected)]


def reference_summarize(strategy, columns, start_weekday, urgent_available=True):
    """``_summarize`` stated with numpy's ``mean`` and ``std``."""
    table = np.array(columns, dtype=float)
    periods = table.shape[1]
    order_days = np.flatnonzero(table[0] > 0)
    qty = table[0, order_days]
    means = sds = [0.0] * len(table)
    if periods:
        means, sds = table.mean(axis=1).tolist(), table.std(axis=1).tolist()
    _, demand_mean, urgent_mean, wastage_mean, inventory_mean, cost_mean = means
    _, _, urgent_sd, wastage_sd, inventory_sd, cost_sd = sds
    urgent = urgent_available and periods
    return pol.StrategySummary(
        strategy, periods, order_days.size, order_days.size / periods if periods else 0.0,
        float(qty.mean()) if qty.size else float("nan"),
        float(qty.std()) if qty.size else float("nan"),
        inventory_mean, inventory_sd, urgent_mean if urgent else None,
        urgent_sd if urgent else None, wastage_mean, wastage_sd, cost_mean, cost_sd,
        float(table[5].sum()), inventory_mean / demand_mean if demand_mean > 0 else float("nan"),
        tuple(sorted(set(((start_weekday + order_days - 1) % 7).tolist()))))


@st.composite
def fold_columns(draw):
    """Orders, demands, urgent and expired units, end inventories and costs of some periods,
    and the ``CostParams`` that priced them a period at a time."""
    periods = draw(st.integers(0, 40))
    column = st.lists(st.one_of(units, near_2_53), min_size=periods, max_size=periods)
    orders, demands, urgent, expired, levels = (draw(column) for _ in range(5))
    if draw(st.booleans()):  # no order placed
        orders = [0] * periods
    if draw(st.booleans()):  # no demand, so no days on hand
        demands = [0] * periods
    costs = draw(cost_params)
    cost = [costs.period_cost(z > 0, level, u, e)
            for z, u, e, level in zip(orders, urgent, expired, levels)]
    return [orders, demands, urgent, expired, levels, cost], costs


@given(drawn=fold_columns(), start_weekday=st.integers(0, 6), urgent_available=st.booleans())
def test_summarize_equals_numpy_mean_and_std(drawn, start_weekday, urgent_available):
    columns, costs = drawn
    summary = pol._summarize("daily", columns[:5], costs, start_weekday, urgent_available)
    expected = reference_summarize("daily", columns, start_weekday, urgent_available)
    # repr compares NaN fields (no order placed, zero demand) as equal
    assert repr(summary) == repr(expected)
    assert [type(v) for v in dataclasses.astuple(summary)] == [
        type(v) for v in dataclasses.astuple(expected)]


# forecasts from none to past any int64 unit, and levels on both sides of 2**63
huge_forecasts = st.one_of(st.sampled_from([0.0, 0.5, 2.5, 7.25, 900.0]),
                           st.floats(-10.0, 1e6, allow_nan=False),
                           st.sampled_from([2.0**62, 2.0**63 - 1024, 2.0**63, 1e19, 1e300,
                                            1.7e308]))
levels = st.one_of(st.integers(0, 400), st.integers(2**63 - 2, 2**63 + 2), st.just(10**30))


@given(y_hat=st.lists(huge_forecasts, max_size=30), kind=st.sampled_from(["daily", "semiweekly"]),
       start_weekday=st.integers(0, 6), data=st.data())
def test_rule_columns_are_the_plain_int_conversions(y_hat, kind, start_weekday, data):
    target = data.draw(levels)
    floor = data.draw(st.one_of(st.integers(0, target), st.just(target)))
    params = pol.PolicyParams(target, floor, pol.Schedule(kind, start_weekday))
    y_hat = np.array(y_hat, dtype=float)
    units, below, lift, cap = pol._rule(y_hat, params)
    plan, order_days = pol._order_plan(y_hat, params.schedule)
    # the exact conversions, a Python int at a time
    assert [(type(u), u) for u in units] == [(int, int(v)) for v in plan.tolist()]
    assert [(type(b), b) for b in below] == [(int, floor if day else 0)
                                             for day in order_days.tolist()]
    assert (lift, cap) == (floor, target)
