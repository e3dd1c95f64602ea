import datetime as dt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bloodbank import policy as policy_module
from bloodbank.errors import ParameterError
from bloodbank.forecast import aggregate_semiweekly
from bloodbank.inventory import AgeProfile, CostParams, simulate, young_stock
from bloodbank.policy import (
    PolicyParams,
    Schedule,
    best_candidate,
    comparison_table,
    cost_under_actual,
    evaluate_strategy,
    optimize_reorder,
    optimize_target,
    order_quantity,
    reorder_sweep,
    round_units,
    run_policy,
    target_sweep,
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
    def test_bad_order_at_a_later_period_names_the_field(self, monkeypatch, bad):
        seen = []

        def order_quantity(inventory, forecast_units, params):
            seen.append(inventory)
            return bad if len(seen) == 4 else 0

        monkeypatch.setattr(policy_module, "order_quantity", order_quantity)
        with pytest.raises(ParameterError, match="order_qty"):
            run_policy([5.0] * 8, [5] * 8, 40, COSTS, PolicyParams(100, 50))
        assert len(seen) == 4

    def test_stream_mismatch(self):
        with pytest.raises(ParameterError):
            run_policy([1.0], [1, 2], 10, COSTS, PolicyParams(100, 0))


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

    def test_infinite_forecast_orders_up_to_the_target(self):
        run = run_policy([5.0, float("inf"), 5.0, 5.0], [5] * 4, 10, COSTS, PolicyParams(100, 50))
        assert orders_of(run) == [40, 55, 0, 0]


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
