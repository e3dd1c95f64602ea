"""Property tests: the cumulative-arrival FIFO kernel against the unit oracle.

``simulate`` (the plain-int fold), ``step`` (one period behind an
``AgeProfile``) and the vector sweeps all run on cumulative arrivals and one
issued-or-expired count.  Each property here compares them with
``brute_force_unit_sim``, which tracks every unit's age, over shelf lives
2-40, random initial ages, random order and demand streams and both order
calendars.  The single-trajectory paths that take their order rule as data
(``simulate``, ``run_policy`` and the four strategies of ``evaluate_strategy``)
are compared with a fold over ``step`` under the rule stated per period, and
each strategy summary with a 1-D recompute of its columns.  The gold standard's
closed form (``inventory._gold``) is compared with the plain-int fold it replaces.
At the int64 limit, streams whose cumulative arrivals or units wanted end just
below, at or just past ``2**63`` are compared with a fold over ``step`` too.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bloodbank import policy as pol
from bloodbank.errors import ParameterError
from bloodbank.inventory import (AgeProfile, CostParams, _fold, _gold, _ring,
                                 brute_force_unit_sim, simulate, step, young_stock)

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


def step_columns(profile, demands, costs, decide):
    """Orders, demands, urgent, expired, end inventories and costs of a fold over ``step``."""
    state, rows = profile, []
    for i, y in enumerate(demands):
        state, outcome = step(state, decide(i, state.total), y, costs)
        rows.append(dataclasses.astuple(outcome)[1:])
    return [list(column) for column in zip(*rows)]


def rule_of(name, y_hat, demands, target, reorder, start_weekday):
    """``decide(i, level)`` of one strategy, stated for one period at a time."""
    if name == "gold":
        return lambda i, level: demands[i]
    if name == "baseline":
        return lambda i, level: max(0, target - level)

    def decide(i, level):
        block = 1 if name == "daily" else {1: 3, 4: 4}.get((start_weekday + i) % 7, 0)
        if not block or level >= reorder:
            return 0
        return min(max(half_up(sum(y_hat[i: i + block])), reorder - level), target - level)
    return decide


def recomputed(name, columns, start_weekday):
    """The summary of ``columns`` from one 1-D ``np.mean``/``np.std`` per column."""
    orders, demand, urgent, wastage, inventory, cost = (np.array(c, dtype=float)
                                                        for c in columns)
    days = [i for i, z in enumerate(columns[0]) if z > 0]
    qty = orders[days]
    urgent_available = name != "baseline"
    return pol.StrategySummary(
        strategy=name, periods=len(orders), days_with_orders=len(days),
        order_day_fraction=len(days) / len(orders),
        order_qty_mean=float(np.mean(qty)) if days else math.nan,
        order_qty_sd=float(np.std(qty)) if days else math.nan,
        inventory_mean=float(np.mean(inventory)), inventory_sd=float(np.std(inventory)),
        urgent_mean=float(np.mean(urgent)) if urgent_available else None,
        urgent_sd=float(np.std(urgent)) if urgent_available else None,
        wastage_mean=float(np.mean(wastage)), wastage_sd=float(np.std(wastage)),
        cost_mean=float(np.mean(cost)), cost_sd=float(np.std(cost)),
        total_cost=float(np.sum(cost)),
        doh=(float(np.mean(inventory) / np.mean(demand)) if np.mean(demand) > 0
             else math.nan),
        placement_weekdays=tuple(sorted({(start_weekday + i - 1) % 7 for i in days})))


def outcome_columns(outcomes):
    return [list(column) for column in zip(*(dataclasses.astuple(o)[1:] for o in outcomes))]


def typed_columns(columns):
    return [[(type(v), v) for v in column] for column in columns]


@given(profile=profiles(), costs=cost_params, start_weekday=st.integers(0, 6), data=st.data())
def test_rules_as_data_equal_a_step_fold(profile, costs, start_weekday, data):
    horizon = data.draw(st.integers(1, 30))
    demands, orders = data.draw(streams(horizon)), data.draw(streams(horizon))
    y_hat = [y + e for y, e in zip(demands, data.draw(st.lists(
        st.sampled_from([-2.5, -0.5, 0.0, 0.5, 3.0, 1e300]), min_size=horizon,
        max_size=horizon)))]
    # a target below and above the starting stock
    target = data.draw(st.integers(max(0, profile.total - 40), profile.total + 40))
    reorder = data.draw(st.integers(0, target))
    expected = step_columns(profile, demands, costs, lambda i, level: orders[i])
    outcomes, average = simulate(profile, orders, demands, costs)
    assert typed_columns(outcome_columns(outcomes)) == typed_columns(expected)
    assert average == sum(expected[5]) / horizon
    for kind in ("daily", "semiweekly"):
        params = pol.PolicyParams(target, reorder, pol.Schedule(kind, start_weekday))
        expected = step_columns(profile, demands, costs,
                                rule_of(kind, y_hat, demands, target, reorder, start_weekday))
        run = pol.run_policy(y_hat, demands, profile, costs, params, profile.shelf_life)
        assert typed_columns(outcome_columns(run.outcomes)) == typed_columns(expected)
        assert run.average_cost == sum(expected[5]) / horizon
    for name in ("gold", "baseline", "daily", "semiweekly"):
        expected = step_columns(profile, demands, costs,
                                rule_of(name, y_hat, demands, target, reorder, start_weekday))
        summary = pol.evaluate_strategy(
            name, y_hat, demands, profile, costs, params=pol.PolicyParams(target, reorder),
            baseline_target=target, start_weekday=start_weekday, shelf_life=profile.shelf_life)
        # repr tells every float bit apart but the NaN payload, and shows each type
        assert repr(summary) == repr(recomputed(name, expected, start_weekday))


bad_values = st.sampled_from([-1, 2.5, math.nan, math.inf, None, "3"])


@given(profile=profiles(), costs=cost_params, data=st.data())
def test_bad_order_or_demand_is_named_by_the_earlier_period(profile, costs, data):
    horizon = data.draw(st.integers(1, 20))
    demands, orders = data.draw(streams(horizon)), data.draw(streams(horizon))
    at_order, at_demand = (data.draw(st.integers(0, horizon - 1)) for _ in range(2))
    bad_order, bad_demand = data.draw(bad_values), data.draw(bad_values)
    orders[at_order], demands[at_demand] = bad_order, bad_demand
    field, value = (("order_qty", bad_order) if at_order <= at_demand
                    else ("demand", bad_demand))  # the order is checked first
    message = f"^{field} must be a non-negative integer, got {re.escape(repr(value))}$"
    with pytest.raises(ParameterError, match=message):
        simulate(profile, orders, demands, costs)
    # the gold standard orders each demand, so its bad demand fails as the order
    with pytest.raises(ParameterError, match=f"^order_qty .* got {re.escape(repr(bad_demand))}$"):
        pol.evaluate_strategy("gold", None, demands, profile, costs)
    for name in ("baseline", "daily", "semiweekly"):
        with pytest.raises(ParameterError,
                           match=f"^demand .* got {re.escape(repr(bad_demand))}$"):
            pol.evaluate_strategy(name, [5.0] * horizon, demands, profile, costs,
                                  params=pol.PolicyParams(60, 30), baseline_target=60,
                                  shelf_life=profile.shelf_life)


def test_rule_levels_beyond_int64_stay_exact():
    # plain ints past int64 order as the rule states them, with no int64 array between
    target, reorder = 2**70, 2**65
    run = pol.run_policy([5.0] * 3, [5] * 3, 40, CostParams(), pol.PolicyParams(target, reorder))
    levels = [40] + [o.end_inventory for o in run.outcomes]
    assert [o.order_qty for o in run.outcomes] == [
        pol.order_quantity(level, 5, pol.PolicyParams(target, reorder)) for level in levels[:3]]
    assert levels == [40] + [reorder - 5] * 3


@st.composite
def gold_profiles(draw):
    """A stock of 2-40 days' shelf life: empty, light or far above any demand."""
    shelf_life = draw(shelf_lives)
    top = draw(st.sampled_from([0, 8, 500]))
    return AgeProfile(np.array(draw(st.lists(st.integers(0, top), min_size=shelf_life - 1,
                                             max_size=shelf_life - 1))), shelf_life)


@given(profile=gold_profiles(), data=st.data())
def test_gold_closed_form_equals_the_fold(profile, data):
    horizon = data.draw(st.integers(0, 60))
    demands = data.draw(streams(horizon))
    # runs of zero demand let the stock age out between orders
    for start, length in data.draw(st.lists(st.tuples(st.integers(0, 60), st.integers(1, 20)),
                                            max_size=3)):
        demands[start:start + length] = [0] * len(demands[start:start + length])
    ring = _ring(profile.counts)
    table = _gold(ring, demands)
    assert table.dtype == np.int64 and table.shape == (5, len(demands))
    assert typed_columns(table.tolist()) == typed_columns(
        _fold(ring.tolist(), demands, demands).tolist())


@pytest.mark.parametrize("past_int64", [False, True], ids=["closed-form", "fold"])
def test_gold_arrivals_at_the_int64_limit_stay_exact(past_int64):
    # cumulative arrivals of 2**63 - 1 fit int64 and take the closed form; one unit more
    # falls back to the fold on plain ints; both equal a fold over ``step``
    profile = young_stock(780, 90.0, 3)
    demands = [0, 0, 2**62, 0, 5, 0, 0]
    demands.append(2**63 - 1 + past_int64 - profile.total - sum(demands))
    columns = _gold(_ring(profile.counts), demands)
    assert (columns.dtype == object) == past_int64
    costs = CostParams()
    expected = step_columns(profile, demands, costs, lambda i, level: demands[i])
    assert typed_columns(np.asarray(columns).tolist()) == typed_columns(expected[:5])
    assert pol.cost_under_actual(demands, profile, costs) == sum(expected[5]) / len(demands)
    summary = pol.evaluate_strategy("gold", None, demands, profile, costs)
    assert repr(summary) == repr(recomputed("gold", expected, 0))


@given(profile=profiles(), costs=cost_params, curve=st.sampled_from(["arrivals", "wanted"]),
       end=st.sampled_from([2**63 - 1, 2**63, 2**63 + 1]), data=st.data())
def test_curves_at_the_int64_limit_stay_exact(profile, costs, curve, end, data):
    # two periods whose arrivals C(1), or units wanted G(0) + y(1), end just below, at or just
    # past 2**63 while every stock stays below it; each path equals a fold over ``step``.
    # Ordering up to ``top``, period 0 orders top - C(-1) and period 1 (daily) orders back what
    # went, so C(1) = G(0) + top; the gold standard orders each demand, so C(1) = C(-1) + Y(1)
    top = 2**62 + data.draw(st.integers(1, 2**40))  # above end / 2: no demand below is short
    small = data.draw(st.integers(0, 40))
    start_weekday = data.draw(st.sampled_from([1, 4]))  # period 0 a semiweekly order day
    if curve == "arrivals":
        streams = {name: [end - top, small] for name in ("baseline", "daily")}
        streams["gold"] = [top, end - profile.total - top]
    else:  # G(0) = C(0) - I(0); the gold standard's C(t) is at least G(t - 1) + y(t)
        _, first = step(profile, top - profile.total, small, costs)
        streams = {name: [small, end - top + first.end_inventory]
                   for name in ("baseline", "daily", "semiweekly")}
    for name, demands in streams.items():
        expected = step_columns(profile, demands, costs,
                                rule_of(name, [0.0, 0.0], demands, top, top, start_weekday))
        orders, levels = expected[0], expected[4]
        gone = profile.total + orders[0] - levels[0]
        assert (profile.total + sum(orders) if curve == "arrivals"
                else gone + demands[1]) == end
        outcomes, average = simulate(profile, orders, demands, costs)
        assert typed_columns(outcome_columns(outcomes)) == typed_columns(expected)
        assert average == sum(expected[5]) / 2
        if name in ("daily", "semiweekly"):
            params = pol.PolicyParams(top, top, pol.Schedule(name, start_weekday))
            run = pol.run_policy([0.0, 0.0], demands, profile, costs, params)
            assert typed_columns(outcome_columns(run.outcomes)) == typed_columns(expected)
            assert run.average_cost == sum(expected[5]) / 2
        summary = pol.evaluate_strategy(name, [0.0, 0.0], demands, profile, costs,
                                        params=pol.PolicyParams(top, top), baseline_target=top,
                                        start_weekday=start_weekday)
        assert repr(summary) == repr(recomputed(name, expected, start_weekday))
