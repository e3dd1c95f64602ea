import datetime as dt
import decimal
import fractions
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bloodbank.errors import ParameterError
from bloodbank.inventory import AgeProfile, CostParams, simulate, young_stock
from bloodbank.policy import (
    PolicyParams,
    Schedule,
    aggregate_semiweekly,
    best_candidate,
    comparison_table,
    cost_under_actual,
    evaluate_strategy,
    learn_policy,
    optimize_reorder,
    optimize_target,
    order_quantity,
    reorder_sweep,
    round_units,
    run_policy,
    target_sweep,
    _aligned,
    write_comparison_csv,
)
from conftest import read_csv

COSTS = CostParams()
MONDAY = 0
THURSDAY = 3


def orders_of(run):
    return [o.order_qty for o in run.outcomes]


def prior_levels(run):
    """Stock level each order decision saw."""
    return [run.initial_level, *(o.end_inventory for o in run.outcomes)][:-1]


class TestOrderQuantity:
    def test_forecast_within_band(self):
        params = PolicyParams(inventory_target=1040, reorder_level=830)
        assert order_quantity(800, 150, params) == 150  # inside [30, 240]

    def test_above_reorder_level_orders_nothing(self):
        params = PolicyParams(inventory_target=1040, reorder_level=830)
        for forecast in (0, 150, 10_000):
            assert order_quantity(900, forecast, params) == 0

    def test_upper_clamp_at_target(self):
        params = PolicyParams(inventory_target=1040, reorder_level=830)
        assert order_quantity(800, 500, params) == 240  # capped at S - I

    def test_lower_lift_to_reorder_level(self):
        params = PolicyParams(inventory_target=1040, reorder_level=830)
        assert order_quantity(800, 10, params) == 30  # lifted to s - I

    def test_reorder_above_target_rejected(self):
        with pytest.raises(ParameterError):
            PolicyParams(inventory_target=100, reorder_level=200)

    def test_negative_inputs_rejected(self):
        params = PolicyParams(inventory_target=10, reorder_level=5)
        with pytest.raises(ParameterError):
            order_quantity(-1, 0, params)

    @pytest.mark.parametrize("target, level, name", [
        (40.5, 10, "inventory_target"),  # once simulated, at cost_mean 86.5
        (float("nan"), 1, "inventory_target"),
        ("40", 10, "inventory_target"),  # once a TypeError
        (True, 0, "inventory_target"),
        (40, 10.0, "reorder_level"),
        (40, float("inf"), "reorder_level"),
    ])
    def test_levels_that_are_not_whole_numbers_rejected(self, target, level, name):
        with pytest.raises(ParameterError, match=f"^{name} must be a whole number, got "):
            PolicyParams(target, level)

    def test_numpy_levels_accepted_as_ints(self):
        params = PolicyParams(np.int64(40), np.int32(10))
        assert params == PolicyParams(40, 10)
        assert type(params.inventory_target) is int and type(params.reorder_level) is int


def test_round_units_half_up():
    assert round_units(2.5) == 3
    assert round_units(2.49) == 2
    assert round_units(-4.0) == 0
    assert round_units(0.5) == 1


class TestCostUnderActual:
    def test_constant_demand_young_stock(self):
        assert cost_under_actual([93] * 365, 780, COSTS) == pytest.approx(880.0)

    def test_zero_demand_empty_system(self):
        assert cost_under_actual([0] * 50, AgeProfile.empty(32), COSTS) == 0.0

    def test_inventory_stationary_for_any_stream(self):
        rng = np.random.default_rng(12)
        demands = rng.integers(50, 150, size=200).tolist()
        profile = young_stock(780, float(np.mean(demands)), 32)
        outcomes, _ = simulate(profile, demands, demands, COSTS)
        assert all(o.end_inventory == 780 for o in outcomes)
        assert all(o.expired == 0 for o in outcomes)

    def test_empty_stream_rejected(self):
        with pytest.raises(ParameterError):
            cost_under_actual([], 780, COSTS)


class TestOptimizeTarget:
    def test_perfect_forecast_non_binding(self):
        rng = np.random.default_rng(7)
        demands = rng.integers(60, 130, size=120).tolist()
        y_hat = [float(v) for v in demands]
        grid = [780, 900, 1000, 2000]
        best = optimize_target(y_hat, demands, 780, COSTS, grid)
        # every candidate >= 780 + max(y) gives an exact cost match; the
        # smallest non-binding one wins, and the curve shows a zero there
        rows = {target: objective for target, _, objective in
                target_sweep(y_hat, demands, 780, COSTS, grid)}
        zero_targets = [t for t, obj in rows.items() if obj == 0.0]
        assert best == min(zero_targets)
        assert best >= 780 + max(demands) - 1

    def test_over_forecast_bias_binds_target(self):
        rng = np.random.default_rng(21)
        demands = rng.integers(80, 110, size=240).tolist()
        y_hat = [v + 10.0 for v in demands]  # persistent over-forecast
        grid = range(780, 1561, 10)
        best = optimize_target(y_hat, demands, 780, COSTS, grid)
        rows = target_sweep(y_hat, demands, 780, COSTS, grid)
        objective = {t: o for t, _, o in rows}
        unconstrained = objective[1560]
        assert objective[best] < unconstrained
        # the chosen cap actually bites: some order is cut short by it
        units = [round_units(v) for v in y_hat]
        run = run_policy(y_hat, demands, 780, COSTS,
                         PolicyParams(best, best))  # order-up-to best
        assert best < 1560

    def test_singleton_grid(self):
        assert optimize_target([90.0], [90], 100, COSTS, [500]) == 500

    def test_sweep_matches_brute_force_recomputation(self):
        rng = np.random.default_rng(4)
        demands = rng.integers(40, 90, size=150).tolist()
        y_hat = (np.asarray(demands) + rng.normal(0, 8, size=150)).tolist()
        grid = range(400, 801, 50)
        rows = target_sweep(y_hat, demands, 400, COSTS, grid)
        gold = cost_under_actual(demands, 400, COSTS)
        profile = young_stock(400, float(np.mean(demands)), 32)
        units = [round_units(v) for v in y_hat]
        for target, average, objective in rows:
            state = profile
            level = state.total
            orders = []
            from bloodbank.inventory import step

            for i in range(len(demands)):
                z = max(0, min(units[i], target - level))
                state, outcome = step(state, z, demands[i], COSTS)
                orders.append(z)
                level = outcome.end_inventory
            check_outcomes, check_avg = simulate(profile, orders, demands, COSTS)
            assert average == check_avg
            assert objective == abs(gold - check_avg)

    def test_empty_grid(self):
        with pytest.raises(ParameterError):
            optimize_target([1.0], [1], 10, COSTS, [])

    @pytest.mark.parametrize("y_hat, demands", [
        ([1.0], [1, 2]),  # forecast/demand length mismatch
        ([1.0, 2.0], [1, -2]),
        ([1.0, 2.0], [1, float("inf")]),
    ])
    def test_sweep_inputs_validated(self, y_hat, demands):
        with pytest.raises(ParameterError):
            target_sweep(y_hat, demands, 10, COSTS, [10, 20])


@pytest.mark.parametrize("sweep", [
    lambda: target_sweep([1.0, 2.0], [1, 2], 10, COSTS, [-50, 100]),
    lambda: learn_policy([1.0, 2.0], [1, 2], 10, COSTS, [-50, 100]),
    lambda: learn_policy([1.0, 2.0], [1, 2], 10, COSTS, [100], [-10, 10]),
], ids=["target_sweep", "learn_policy-target", "learn_policy-reorder"])
def test_negative_candidate_rejected(sweep):
    # target_sweep once returned rows for targets below zero
    with pytest.raises(ParameterError, match="must be non-negative"):
        sweep()


@pytest.mark.parametrize("value", [10.7, 10.0, float("nan"), float("inf"), "40", True,
                                   np.float64(30.5)])
@pytest.mark.parametrize("grid, sweep", [
    ("target", lambda g: target_sweep([1.0, 2.0], [1, 2], 10, COSTS, [g, 30])),
    ("reorder", lambda g: reorder_sweep([1.0, 2.0], [1, 2], 10, COSTS, 50, [g, 10])),
    ("target", lambda g: learn_policy([1.0, 2.0], [1, 2], 10, COSTS, [g, 30])),
    ("reorder", lambda g: learn_policy([1.0, 2.0], [1, 2], 10, COSTS, [30], [g, 0])),
], ids=["target_sweep", "reorder_sweep", "learn_policy-target", "learn_policy-reorder"])
def test_grid_entries_that_are_not_whole_numbers_rejected(grid, sweep, value):
    # int() once truncated 10.7 to 10 and 5.5 to 5, and took "40" as 40 and True as 1
    with pytest.raises(ParameterError, match=f"^{grid} grid entry must be a whole number, got "):
        sweep(value)


def test_numpy_grid_entries_accepted():
    y_hat, demands = [5.0, 7.0, 4.0], [6, 6, 5]
    grid = np.array([30, 10, 20], dtype=np.int32)
    assert (target_sweep(y_hat, demands, 10, COSTS, grid)
            == target_sweep(y_hat, demands, 10, COSTS, [10, 20, 30]))
    choices, rows = learn_policy(y_hat, demands, 10, COSTS, grid, np.arange(0, 31, 5))
    assert choices == learn_policy(y_hat, demands, 10, COSTS, [10, 20, 30],
                                   list(range(0, 31, 5)))[0]
    assert all(type(row[0]) is int for sweep in rows.values() for row in sweep)


def test_reorder_grid_generator_read_once():
    y_hat, demands = [5.0, 7.0, 4.0], [6, 6, 5]
    expected = learn_policy(y_hat, demands, 10, COSTS, [10, 20], [0, 5, 10])
    assert learn_policy(y_hat, demands, 10, COSTS, [10, 20], (s for s in (0, 5, 10))) == expected
    # a generator the target filters to nothing once raised "min() arg is an empty sequence"
    with pytest.raises(ParameterError, match="^reorder grid 500..600 has no candidate <= target"):
        learn_policy(y_hat, demands, 10, COSTS, [10, 20], (s for s in (500, 600)))


@pytest.mark.parametrize("sweep", [
    lambda: target_sweep([1.0], [1], 10, COSTS, [2**64]),  # once a raw OverflowError
    lambda: reorder_sweep([1.0], [1], 10, COSTS, 2**64, [0]),
    lambda: learn_policy([1.0], [1], 10, COSTS, [2**63]),
], ids=["target_sweep", "reorder_sweep", "learn_policy"])
def test_candidates_beyond_int64_fail_closed(sweep):
    with pytest.raises(ParameterError, match="would overflow int64"):
        sweep()


def test_best_candidate_ties_go_to_smallest():
    rows = [(30, 5.0, 1.0), (10, 7.0, 1.0), (20, 5.0, 2.0)]
    assert best_candidate(rows) == 10
    assert best_candidate(rows, "min_cost") == 20
    with pytest.raises(ParameterError):
        best_candidate(rows, "cheapest")


class TestOptimizeReorder:
    def test_under_forecast_bias_needs_floor(self):
        rng = np.random.default_rng(31)
        demands = rng.integers(80, 110, size=240).tolist()
        y_hat = [max(0.0, v - 10.0) for v in demands]  # persistent under-forecast
        target = 1600
        best = optimize_reorder(y_hat, demands, 780, COSTS, target, range(0, 1601, 20))
        assert best > 0
        run = run_policy(y_hat, demands, 780, COSTS, PolicyParams(target, best))
        lifted = [i for i, z in enumerate(orders_of(run))
                  if z > 0 and z > round_units(y_hat[i])]
        assert lifted  # the floor actively lifts some orders

    def test_zero_grid(self):
        assert optimize_reorder([5.0] * 10, [5] * 10, 30, COSTS, 100, [0]) == 0

    def test_daily_and_semiweekly_optimized_separately(self, small_records):
        demands = [int(r.demand) for r in small_records[:365]]
        rng = np.random.default_rng(2)
        y_hat = (np.asarray(demands) + rng.normal(0, 6, size=365)).tolist()
        start_wd = small_records[0].date.weekday()
        target = 1400
        grid = range(0, 1401, 50)
        daily = optimize_reorder(y_hat, demands, 780, COSTS, target, grid,
                                 Schedule("daily", start_wd))
        semi = optimize_reorder(y_hat, demands, 780, COSTS, target, grid,
                                Schedule("semiweekly", start_wd))
        assert isinstance(daily, int) and isinstance(semi, int)
        assert daily != semi  # independent optimizations on different dynamics

    def test_grid_exceeding_target_rejected(self):
        with pytest.raises(ParameterError):
            optimize_reorder([1.0], [1], 10, COSTS, 50, [0, 60])

    @pytest.mark.parametrize("y_hat, demands, target, grid", [
        ([1.0], [1, 2], 50, [0, 10]),  # forecast/demand length mismatch
        ([1.0, 2.0], [1, 2], 50, [-10, 10]),  # negative reorder candidate
        ([1.0, 2.0], [1, 2], 50, []),  # empty grid
        ([1.0, 2.0], [1, 2.5], 50, [0, 10]),  # fractional demand
        ([1.0, 2.0], [1, float("nan")], 50, [0, 10]),
        ([1.0, 2.0], [1, 2], 50.5, [0, 10]),  # fractional target
    ])
    def test_sweep_inputs_validated(self, y_hat, demands, target, grid):
        with pytest.raises(ParameterError):
            reorder_sweep(y_hat, demands, 10, COSTS, target, grid)

    def test_sweep_matches_brute_force(self):
        rng = np.random.default_rng(9)
        demands = rng.integers(40, 90, size=140).tolist()
        y_hat = (np.asarray(demands) + rng.normal(0, 8, size=140)).tolist()
        target = 700
        schedule = Schedule("semiweekly", start_weekday=2)
        rows = reorder_sweep(y_hat, demands, 400, COSTS, target, range(0, 701, 100), schedule)
        gold = cost_under_actual(demands, 400, COSTS)
        profile = young_stock(400, float(np.mean(demands)), 32)
        from bloodbank.inventory import step

        for level_candidate, average, objective in rows:
            state = profile
            level = state.total
            horizon = len(demands)
            costs_sum = 0.0
            for i in range(horizon):
                placement = (2 + i - 1) % 7
                if placement in (0, 3):
                    block = 3 if placement == 0 else 4
                    forecast = round_units(sum(y_hat[i : min(i + block, horizon)]))
                    if level < level_candidate:
                        z = min(max(forecast, level_candidate - level), target - level)
                    else:
                        z = 0
                else:
                    z = 0
                state, outcome = step(state, z, demands[i], COSTS)
                level = outcome.end_inventory
                costs_sum += outcome.cost
            assert average == pytest.approx(costs_sum / horizon, abs=0.0)
            assert objective == pytest.approx(abs(gold - costs_sum / horizon), abs=0.0)


class TestRunPolicy:
    def test_order_band_respected_every_period(self):
        rng = np.random.default_rng(3)
        demands = rng.integers(70, 120, size=300).tolist()
        y_hat = (np.asarray(demands) + rng.normal(0, 10, size=300)).tolist()
        params = PolicyParams(inventory_target=1100, reorder_level=850)
        run = run_policy(y_hat, demands, 780, COSTS, params)
        for level, z in zip(prior_levels(run), orders_of(run)):
            if level >= 850:
                assert z == 0
            else:
                assert 850 - level <= z <= 1100 - level

    def test_post_arrival_cap_never_overshot(self):
        rng = np.random.default_rng(13)
        demands = rng.integers(70, 120, size=300).tolist()
        y_hat = (np.asarray(demands) + 15.0).tolist()  # over-forecast pushes at the cap
        params = PolicyParams(inventory_target=1000, reorder_level=900)
        run = run_policy(y_hat, demands, 780, COSTS, params)
        for level, z in zip(prior_levels(run), orders_of(run)):
            if z > 0:
                assert level + z <= 1000

    def test_semiweekly_orders_only_mon_thu(self):
        rng = np.random.default_rng(23)
        demands = rng.integers(70, 120, size=120).tolist()
        y_hat = [float(v) for v in demands]
        start_weekday = 5  # first period is a Saturday
        params = PolicyParams(1400, 1200, Schedule("semiweekly", start_weekday))
        run = run_policy(y_hat, demands, 780, COSTS, params)
        for i, z in enumerate(orders_of(run)):
            if z > 0:
                assert (start_weekday + i - 1) % 7 in (MONDAY, THURSDAY)

    @pytest.mark.parametrize("start_weekday", range(7))
    def test_semiweekly_orders_cover_the_forecast_blocks(self, start_weekday):
        # one calendar: each semiweekly order covers one aggregate_semiweekly block
        first_day = dt.date(2010, 1, 4) + dt.timedelta(days=start_weekday)
        y_hat = [40.25 + 3 * i for i in range(23)]
        days = [first_day + dt.timedelta(days=i) for i in range(len(y_hat))]
        # demand empties the stock every period, so each order is the forecast itself
        params = PolicyParams(10_000, 1, Schedule("semiweekly", start_weekday))
        run = run_policy(y_hat, [10_000] * len(y_hat), 0, COSTS, params)
        ordered = {day: z for day, z in zip(days, orders_of(run)) if z > 0}
        blocks = dict(aggregate_semiweekly(list(zip(days, y_hat))))
        assert len(blocks) >= 5
        # only the trailing block, cut at the horizon, has no aggregate
        assert {day: z for day, z in ordered.items() if day in blocks} == {
            day: round_units(total) for day, total in blocks.items()}
        assert len(ordered) - len(blocks) <= 1
        assert {day.weekday() for day in ordered} <= {1, 4}  # Tuesday and Friday deliveries

    @given(initial=st.integers(0, 500), data=st.data())
    def test_orders_clamped_to_the_band(self, initial, data):
        # an order is placed only on a delivery day below s, and s - I <= z <= S - I
        y_hat = data.draw(st.lists(st.floats(0.0, 300.0), min_size=1, max_size=30))
        demands = data.draw(st.lists(st.integers(0, 200), min_size=len(y_hat),
                                     max_size=len(y_hat)))
        target = data.draw(st.integers(0, 600))
        floor = data.draw(st.integers(0, target))
        kind = data.draw(st.sampled_from(["daily", "semiweekly"]))
        start_weekday = data.draw(st.integers(0, 6))
        params = PolicyParams(target, floor, Schedule(kind, start_weekday))
        run = run_policy(y_hat, demands, initial, COSTS, params)
        for i, (level, z) in enumerate(zip(prior_levels(run), orders_of(run))):
            delivery_day = kind == "daily" or (start_weekday + i) % 7 in (1, 4)  # Tue, Fri
            if level >= floor or not delivery_day:
                assert z == 0
            else:
                assert floor - level <= z <= target - level

    @pytest.mark.parametrize("bad", [-1, 2.5, float("nan")])
    def test_bad_order_at_a_later_period_names_the_field(self, bad):
        # the rule's own orders are whole and non-negative, so a bad order comes from a
        # stream: simulate's orders, or the demands that the gold standard orders
        stream = [5, 5, 5, bad, 5, 5, 5, 5]
        message = re.escape(f"order_qty must be a non-negative integer, got {bad!r}")
        with pytest.raises(ParameterError, match=message):
            simulate(young_stock(40, 5.0), stream, [5] * 8, COSTS)
        with pytest.raises(ParameterError, match=message):
            evaluate_strategy("gold", None, stream, young_stock(40, 5.0), COSTS)
        # no earlier period fails
        simulate(young_stock(40, 5.0), stream[:3], [5] * 3, COSTS)
        evaluate_strategy("gold", None, stream[:3], young_stock(40, 5.0), COSTS)

    def test_stream_mismatch(self):
        with pytest.raises(ParameterError):
            run_policy([1.0], [1, 2], 10, COSTS, PolicyParams(100, 0))

    def test_average_cost_that_overflows_rejected(self):
        # it once returned an average cost of inf
        with pytest.raises(ParameterError, match="the average cost overflows"):
            run_policy([10.0] * 5, [10] * 5, 100, CostParams(holding=1e308),
                       PolicyParams(50, 20))


class TestEvaluateStrategy:
    def test_gold_matches_cost_under_actual(self):
        demands = [93] * 365
        summary = evaluate_strategy("gold", None, demands, 780, COSTS)
        assert summary.cost_mean == pytest.approx(880.0)
        assert summary.cost_sd == pytest.approx(0.0)
        assert summary.days_with_orders == 365
        assert summary.order_day_fraction == 1.0
        assert summary.inventory_mean == pytest.approx(780.0)
        assert summary.doh == pytest.approx(780.0 / 93.0)

    def test_semiweekly_fraction_bounded_by_schedule(self, small_records):
        demands = [int(r.demand) for r in small_records[:365]]
        y_hat = [float(v) for v in demands]
        start_wd = small_records[0].date.weekday()
        summary = evaluate_strategy(
            "semiweekly", y_hat, demands, 780, COSTS,
            params=PolicyParams(1400, 900), start_weekday=start_wd,
        )
        assert summary.order_day_fraction <= 2.0 / 7.0 + 0.01
        assert set(summary.placement_weekdays) <= {MONDAY, THURSDAY}

    def test_daily_leaner_than_fat_baseline(self, small_records):
        demands = [int(r.demand) for r in small_records[:365]]
        rng = np.random.default_rng(5)
        y_hat = (np.asarray(demands) + rng.normal(0, 5, size=365)).tolist()
        start_wd = small_records[0].date.weekday()
        daily = evaluate_strategy("daily", y_hat, demands, 780, COSTS,
                                  params=PolicyParams(1100, 820), start_weekday=start_wd)
        baseline = evaluate_strategy("baseline", y_hat, demands, 780, COSTS,
                                     baseline_target=round(1.4 * 780),
                                     start_weekday=start_wd)
        assert daily.inventory_mean < baseline.inventory_mean
        assert baseline.urgent_mean is None  # reported as unavailable

    def test_perfect_forecast_recovers_gold_exactly(self):
        import dataclasses

        rng = np.random.default_rng(8)
        demands = rng.integers(60, 120, size=200).tolist()
        y_hat = [float(v) for v in demands]
        gold = evaluate_strategy("gold", None, demands, 780, COSTS)
        # reorder level just above the stationary stock forces an order every
        # day, and the wide target never clips it
        params = PolicyParams(inventory_target=780 + max(demands) + 10, reorder_level=781)
        daily = evaluate_strategy("daily", y_hat, demands, 780, COSTS, params=params)
        assert dataclasses.replace(daily, strategy="gold") == gold

    @pytest.mark.parametrize("initial", [40, young_stock(40, 5.0)], ids=["units", "profile"])
    @pytest.mark.parametrize("strategy", ["gold", "baseline", "daily", "semiweekly"])
    def test_nan_demand_at_a_later_period_raises(self, strategy, initial):
        demands = [5] * 10
        demands[6] = float("nan")
        with pytest.raises(ParameterError):
            evaluate_strategy(strategy, [5.0] * 10, demands, initial, COSTS,
                              params=PolicyParams(100, 50), baseline_target=60)

    def test_unknown_strategy(self):
        with pytest.raises(ParameterError):
            evaluate_strategy("weekly", [1.0], [1], 10, COSTS)

    def test_baseline_needs_target(self):
        with pytest.raises(ParameterError):
            evaluate_strategy("baseline", [1.0], [1], 10, COSTS)

    @pytest.mark.parametrize("start_weekday", [9, -1, 7, 1.5, "3", True])
    @pytest.mark.parametrize("strategy", ["gold", "baseline", "daily", "semiweekly"])
    def test_start_weekday_checked_for_every_strategy(self, strategy, start_weekday):
        # gold and baseline once took 9 and reported placement weekdays mod 7
        with pytest.raises(ParameterError, match="^start_weekday must"):
            evaluate_strategy(strategy, [5.0] * 4, [5] * 4, 10, COSTS,
                              params=PolicyParams(100, 50), baseline_target=60,
                              start_weekday=start_weekday)


class TestNanForecast:
    """A NaN forecast is rejected naming its period; an infinite one still orders the cap."""

    Y_HAT = [5.0, 5.0, float("nan"), 5.0]
    MESSAGE = "^forecast for period 3 is NaN$"

    def test_run_policy(self):
        with pytest.raises(ParameterError, match=self.MESSAGE):
            run_policy(self.Y_HAT, [5] * 4, 10, COSTS, PolicyParams(100, 50))

    @pytest.mark.parametrize("strategy", ["daily", "semiweekly"])
    def test_evaluate_strategy(self, strategy):
        with pytest.raises(ParameterError, match=self.MESSAGE):
            evaluate_strategy(strategy, self.Y_HAT, [5] * 4, 10, COSTS,
                              params=PolicyParams(100, 50))

    def test_target_sweep(self):
        with pytest.raises(ParameterError, match=self.MESSAGE):
            target_sweep(self.Y_HAT, [5] * 4, 10, COSTS, [50, 100])

    def test_reorder_sweep(self):
        with pytest.raises(ParameterError, match=self.MESSAGE):
            reorder_sweep(self.Y_HAT, [5] * 4, 10, COSTS, 100, [0, 50])

    @pytest.mark.parametrize("y_hat, period", [
        ([float("nan"), 5.0, 5.0, 5.0], 1),
        ([5.0, 5.0, 5.0, float("nan")], 4),
        (np.array([5.0, np.nan, 5.0, 5.0], dtype=np.float32), 2),
        (["5", "5", "nan", "5"], 3),
    ])
    def test_first_nan_named_at_either_end(self, y_hat, period):
        with pytest.raises(ParameterError, match=f"^forecast for period {period} is NaN$"):
            run_policy(y_hat, [5] * 4, 10, COSTS, PolicyParams(100, 50))

    def test_infinite_forecast_orders_up_to_the_target(self):
        run = run_policy([5.0, float("inf"), 5.0, 5.0], [5] * 4, 10, COSTS, PolicyParams(100, 50))
        assert orders_of(run) == [40, 55, 0, 0]


class TestForecastConversion:
    """Forecasts convert as ``float`` converts each one, whatever holds them, and what
    ``float`` rejects raises as it does."""

    @pytest.mark.parametrize("y_hat", [
        [5.0, -0.0, 2.5],
        [5, 2**63 + 1, -3],
        [True, False, True],
        ["5", " 2.5 ", "1_000"],
        [b"1.5", "inf", "-infinity"],
        [np.float32(0.1), np.int64(7), np.bool_(True)],
        [np.float16(0.1), np.uint64(2**64 - 1), np.longdouble("0.1")],
        [decimal.Decimal("0.1"), fractions.Fraction(1, 3), np.array(2.0)],
        np.array([0.1, 2.0, 3.0], dtype=np.float32),
        np.array([1, 2, 3], dtype=np.uint8),
        np.array([1, "2.5", decimal.Decimal(3)], dtype=object),
        np.array(["0.1", "2", "3e0"]),
        range(3),
        "123",
        {1.5: 0, 2.5: 0, 3.5: 0},
    ], ids=lambda y_hat: type(y_hat).__name__)
    def test_values_are_floats_of_each(self, y_hat):
        forecasts, demands = _aligned(y_hat, [5, 5, 5])
        assert forecasts.dtype == np.float64 and demands == [5, 5, 5]
        assert forecasts.tobytes() == np.array([float(v) for v in y_hat]).tobytes()

    @pytest.mark.parametrize("y_hat, error", [
        ([5.0, None, 5.0], TypeError),
        ([float("nan"), None, 5.0], TypeError),  # None is no NaN: float rejects it first
        ([None], TypeError),  # before the length check
        (np.array([5.0, None, 5.0], dtype=object), TypeError),
        (["5", "abc", "5"], ValueError),
        ([5.0, 1j, 5.0], TypeError),
        ([[5.0], [5.0], [5.0]], TypeError),
        ([[5.0], [5.0, 5.0], [5.0]], TypeError),
        (np.ones((3, 1)), TypeError),
        (np.array(5.0), TypeError),
        (np.array(["2020-01-01"] * 3, dtype="datetime64[D]"), TypeError),
        ([5.0, 10**400, 5.0], OverflowError),
        (5.0, TypeError),
    ])
    def test_what_float_rejects_raises_as_float_does(self, y_hat, error):
        with pytest.raises(error):
            _aligned(y_hat, [5, 5, 5])


def test_comparison_outputs(tmp_path, small_records):
    demands = [int(r.demand) for r in small_records[:200]]
    rng = np.random.default_rng(3)
    y_hat = (np.asarray(demands) + rng.normal(0, 5, size=200)).tolist()
    summaries = [
        evaluate_strategy("baseline", y_hat, demands, 780, COSTS, baseline_target=1100),
        evaluate_strategy("gold", y_hat, demands, 780, COSTS),
        evaluate_strategy("daily", y_hat, demands, 780, COSTS,
                          params=PolicyParams(1100, 800)),
        evaluate_strategy("semiweekly", y_hat, demands, 780, COSTS,
                          params=PolicyParams(1100, 850)),
    ]
    table = comparison_table(summaries)
    assert "baseline" in table and "semiweekly" in table
    assert table.count("\n") >= 8

    path = tmp_path / "comparison.csv"
    write_comparison_csv(path, summaries)
    header, rows = read_csv(path)
    assert header == ["field", "baseline", "gold", "daily", "semiweekly"]
    loaded = {row[0]: row[1:] for row in rows}
    assert float(loaded["cost_mean"][1]) == pytest.approx(summaries[1].cost_mean)
    assert loaded["urgent_mean"][0] == ""
    assert float(loaded["total_cost"][2]) == pytest.approx(summaries[2].total_cost)


# every entry point that takes a starting stock as a unit count; ``initial`` once went
# through ``int()``, which truncated 5.7 to 5 and parsed the text "5"
_INITIAL_ENTRIES = {
    "evaluate_strategy": lambda initial: evaluate_strategy(
        "daily", [5.0] * 6, [5] * 6, initial, COSTS, params=PolicyParams(40, 10)).total_cost,
    "run_policy": lambda initial: run_policy(
        [5.0] * 6, [5] * 6, initial, COSTS, PolicyParams(40, 10)).average_cost,
    "cost_under_actual": lambda initial: cost_under_actual([5] * 6, initial, COSTS),
    "learn_policy": lambda initial: learn_policy([5.0] * 6, [5] * 6, initial, COSTS,
                                                 range(0, 41, 10)),
}


@pytest.mark.parametrize("value", [5.7, "5", -3, float("nan"), None])
@pytest.mark.parametrize("entry", _INITIAL_ENTRIES)
def test_initial_that_is_not_a_unit_count_rejected(entry, value):
    with pytest.raises(ParameterError,
                       match=f"^initial must be a non-negative integer, got {value!r}$"):
        _INITIAL_ENTRIES[entry](value)


@pytest.mark.parametrize("value", [780.0, np.int64(780)])
@pytest.mark.parametrize("entry", _INITIAL_ENTRIES)
def test_whole_initial_accepted_as_its_int(entry, value):
    assert _INITIAL_ENTRIES[entry](value) == _INITIAL_ENTRIES[entry](780)


def _strategy(name):
    return lambda demands: evaluate_strategy(name, [5.0] * len(demands), demands, 10, COSTS,
                                             params=PolicyParams(40, 10), baseline_target=20)


# every entry point that takes its mean demand for a unit-count starting stock; the gold
# standard and ``cost_under_actual`` order their demands, so a bad one is named as the order
_DEMAND_ENTRIES = {
    "gold": ("order_qty", _strategy("gold")),
    **{name: ("demand", _strategy(name)) for name in ("baseline", "daily", "semiweekly")},
    "cost_under_actual": ("order_qty", lambda demands: cost_under_actual(demands, 10, COSTS)),
    "run_policy": ("demand", lambda demands: run_policy([1.0] * len(demands), demands, 10, COSTS,
                                                       PolicyParams(40, 10))),
}


@pytest.mark.parametrize("value", [None, "3", float("nan"), float("inf"), -1])
@pytest.mark.parametrize("entry", _DEMAND_ENTRIES)
def test_bad_demand_beside_a_unit_count_is_named(entry, value):
    # the mean demand that sizes the young stock once raised TypeError on None and "3",
    # and blamed NaN and inf on a ``mean_demand`` the caller never passed
    field, call = _DEMAND_ENTRIES[entry]
    with pytest.raises(ParameterError,
                       match=f"^{field} must be a non-negative integer, got {value!r}$"):
        call([5, value])


# every entry point that takes a shelf life beside its starting stock
_SHELF_LIFE_ENTRIES = {
    "evaluate_strategy": lambda initial, **life: evaluate_strategy(
        "gold", None, [10] * 40, initial, COSTS, **life),
    "cost_under_actual": lambda initial, **life: cost_under_actual([10] * 40, initial, COSTS,
                                                                   **life),
    "run_policy": lambda initial, **life: run_policy([10.0] * 40, [10] * 40, initial, COSTS,
                                                     PolicyParams(100, 50), **life),
    "target_sweep": lambda initial, **life: target_sweep([10.0] * 40, [10] * 40, initial, COSTS,
                                                         [60, 100], **life),
    "optimize_target": lambda initial, **life: optimize_target(
        [10.0] * 40, [10] * 40, initial, COSTS, [60, 100], **life),
    "reorder_sweep": lambda initial, **life: reorder_sweep(
        [10.0] * 40, [10] * 40, initial, COSTS, 100, [20, 50], **life),
    "optimize_reorder": lambda initial, **life: optimize_reorder(
        [10.0] * 40, [10] * 40, initial, COSTS, 100, [20, 50], **life),
    "learn_policy": lambda initial, **life: learn_policy([10.0] * 40, [10] * 40, initial, COSTS,
                                                         [60, 100], **life),
}


@pytest.mark.parametrize("entry", _SHELF_LIFE_ENTRIES)
def test_shelf_life_that_contradicts_the_starting_stock_rejected(entry):
    # a shelf life of 5 beside a 32-day stock was once ignored: the stock wasted nothing
    call = _SHELF_LIFE_ENTRIES[entry]
    with pytest.raises(ParameterError, match="^shelf_life 5 contradicts the starting stock's "
                                             "shelf life 32$"):
        call(young_stock(100, 10.0, 32), shelf_life=5)
    # by default the stock's own shelf life, or 32 for a unit count
    assert call(young_stock(100, 10.0, 5)) == call(young_stock(100, 10.0, 5), shelf_life=5)
    assert call(100) == call(100, shelf_life=32)


def walked_blocks(daily):
    """The semiweekly blocks by the walk ``aggregate_semiweekly`` once ran over its own
    copy of the calendar: the reference its block-length lookup must reproduce."""
    out = []
    i = 0
    while i < len(daily):
        day, _ = daily[i]
        length = {1: 3, 4: 4}.get(day.weekday())
        if length is None:
            i += 1  # leading partial block
            continue
        if i + length > len(daily):
            break  # trailing partial block
        out.append((day, float(sum(value for _, value in daily[i : i + length]))))
        i += length
    return out


# values whose sums an arithmetic other than ``sum``'s would change: signed zeros, overflow
# to inf, NaN, ints past 2**53 (exact as ints, not as float64) and float32 (summed as float32)
CALENDAR_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1e300, -1e300, 1.7e308,
                     1 / 3, 2**53 + 1, np.float32(0.1)]),
    st.integers(-(2**60), 2**60),
    st.floats(-1e6, 1e6, width=32).map(np.float32),
    st.floats(-500.0, 500.0),
)


@given(first_weekday=st.integers(0, 6), values=st.lists(CALENDAR_VALUES, max_size=30))
# summed as float64, these would give 9007199254740992.0 and 0.30000000447034836
@example(first_weekday=1, values=[2**53 + 1, 1, 1])
@example(first_weekday=1, values=[np.float32(0.1)] * 3)
def test_aggregate_semiweekly_is_the_block_walk(first_weekday, values):
    first_day = dt.date(2010, 1, 4) + dt.timedelta(days=first_weekday)  # a Monday, then on
    daily = [(first_day + dt.timedelta(days=i), value) for i, value in enumerate(values)]
    with np.errstate(all="ignore"):  # float32 sums that overflow or meet inf - inf warn
        assert repr(aggregate_semiweekly(daily)) == repr(walked_blocks(daily))

