import dataclasses

import numpy as np
import pytest

from bloodbank.errors import ParameterError
from bloodbank.inventory import (
    AgeProfile,
    CostParams,
    brute_force_unit_sim,
    simulate,
    step,
    write_trajectory_csv,
    young_stock,
)
from bloodbank.policy import PolicyParams, evaluate_strategy
from conftest import read_csv

COSTS = CostParams()  # delivery 100, holding 1, urgent 300, wastage 50


class TestStep:
    def test_fifo_issue_oldest_first(self):
        # ages 1..3 hold 5, 3, 2 units; demand 6 consumes 2+3+1 oldest-first
        state = AgeProfile(np.array([5, 3, 2]), shelf_life=4)
        after, outcome = step(state, 0, 6, COSTS)
        assert after.counts.tolist() == [0, 4, 0]
        assert outcome.expired == 0
        assert outcome.urgent == 0
        assert outcome.end_inventory == 4

    def test_pure_shortage(self):
        after, outcome = step(AgeProfile.empty(4), 0, 5, COSTS)
        assert outcome.urgent == 5
        assert outcome.cost == 5 * COSTS.urgent
        assert after.total == 0

    def test_pure_expiry(self):
        state = AgeProfile(np.array([0, 0, 2]), shelf_life=4)
        _, outcome = step(state, 0, 0, COSTS)
        assert outcome.expired == 2
        assert outcome.cost == 2 * COSTS.wastage

    def test_arrivals_counted_in_holding_and_delivery(self):
        _, outcome = step(AgeProfile.empty(4), 10, 0, COSTS)
        assert outcome.order_placed
        assert outcome.end_inventory == 10
        assert outcome.cost == COSTS.routine_delivery + 10 * COSTS.holding

    def test_urgent_units_never_enter_inventory(self):
        _, outcome = step(AgeProfile.empty(4), 2, 9, COSTS)
        assert outcome.urgent == 7
        assert outcome.end_inventory == 0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ParameterError):
            step(AgeProfile.empty(4), -1, 0, COSTS)
        with pytest.raises(ParameterError):
            step(AgeProfile.empty(4), 0, -2, COSTS)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 2.5, None, "7"])
    def test_non_integer_inputs_name_the_field(self, bad):
        with pytest.raises(ParameterError, match="order_qty"):
            step(AgeProfile.empty(4), bad, 0, COSTS)
        with pytest.raises(ParameterError, match="demand"):
            step(AgeProfile.empty(4), 0, bad, COSTS)

    def test_cost_recomputation(self):
        rng = np.random.default_rng(3)
        state = AgeProfile(rng.integers(0, 6, size=7), shelf_life=8)
        for _ in range(200):
            z = int(rng.integers(0, 12))
            y = int(rng.integers(0, 12))
            state, o = step(state, z, y, COSTS)
            expected = (
                COSTS.routine_delivery * (1 if o.order_qty > 0 else 0)
                + COSTS.holding * o.end_inventory
                + COSTS.urgent * o.urgent
                + COSTS.wastage * o.expired
            )
            assert o.cost == expected


class TestSimulate:
    def test_gold_standard_stationary_at_880(self):
        profile = young_stock(780, 93.0, shelf_life=32)
        outcomes, average = simulate(profile, [93] * 365, [93] * 365, COSTS)
        assert all(o.end_inventory == 780 for o in outcomes)
        assert all(o.urgent == 0 and o.expired == 0 for o in outcomes)
        assert average == pytest.approx(880.0)
        assert all(o.cost == 880.0 for o in outcomes)

    def test_empty_horizon(self):
        outcomes, average = simulate(AgeProfile.empty(8), [], [], COSTS)
        assert outcomes == []
        assert average == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            simulate(AgeProfile.empty(8), [1, 2], [1], COSTS)

    @pytest.mark.parametrize("bad", [-1, 2.5, float("nan")])
    @pytest.mark.parametrize("period", [1, 7])
    def test_bad_order_at_a_later_period_names_the_field(self, bad, period):
        orders = [4] * 8
        orders[period] = bad
        with pytest.raises(ParameterError, match="order_qty"):
            simulate(young_stock(20, 4.0, shelf_life=8), orders, [4] * 8, COSTS)

    def test_conservation_every_period(self):
        rng = np.random.default_rng(17)
        state = AgeProfile(rng.integers(0, 5, size=7), shelf_life=8)
        prev_total = state.total
        for _ in range(300):
            z = int(rng.integers(0, 10))
            y = int(rng.integers(0, 10))
            state, o = step(state, z, y, COSTS)
            issued_from_stock = o.demand - o.urgent
            assert state.total == prev_total + z - issued_from_stock - o.expired
            prev_total = state.total


# the unit checks on every period's order and demand, through the three ways a value
# reaches them: an order stream, a demand stream and a baseline target (whose first
# order, from empty stock, is the target itself); each value comes second, after a
# period of plain ints
def _through_orders(value):
    return simulate(AgeProfile.empty(8), [1, value], [2, 2], COSTS)[0][1].order_qty


def _through_demands(value):
    return simulate(AgeProfile.empty(8), [1, 1], [2, value], COSTS)[0][1].demand


def _through_baseline(value):
    return evaluate_strategy("baseline", [1.0], [2], AgeProfile.empty(8), COSTS,
                             baseline_target=value).order_qty_mean


@pytest.mark.parametrize("value, units", [(np.int64(3), 3), (3.0, 3), (True, 1)])
@pytest.mark.parametrize("entry", [_through_orders, _through_demands, _through_baseline])
def test_unit_checks_accept_whole_numbers_as_ints(entry, value, units):
    got = entry(value)
    assert got == units
    assert type(got) is (float if entry is _through_baseline else int)


# the exact messages; the baseline target is checked as a unit count of its own
@pytest.mark.parametrize("entry, value, message", [
    (_through_orders, -1, "order_qty must be a non-negative integer, got -1"),
    (_through_orders, 2.5, "order_qty must be a non-negative integer, got 2.5"),
    (_through_orders, float("nan"), "order_qty must be a non-negative integer, got nan"),
    (_through_orders, None, "order_qty must be a non-negative integer, got None"),
    (_through_orders, "3", "order_qty must be a non-negative integer, got '3'"),
    (_through_demands, -1, "demand must be a non-negative integer, got -1"),
    (_through_demands, 2.5, "demand must be a non-negative integer, got 2.5"),
    (_through_demands, float("nan"), "demand must be a non-negative integer, got nan"),
    (_through_demands, None, "demand must be a non-negative integer, got None"),
    (_through_demands, "3", "demand must be a non-negative integer, got '3'"),
    (_through_baseline, -1, "baseline_target must be a non-negative integer, got -1"),
    (_through_baseline, 2.5, "baseline_target must be a non-negative integer, got 2.5"),
    (_through_baseline, float("nan"), "baseline_target must be a non-negative integer, got nan"),
    (_through_baseline, "3", "baseline_target must be a non-negative integer, got '3'"),
    (_through_baseline, None, "baseline strategy needs baseline_target"),
])
def test_unit_checks_reject_with_the_field_and_value(entry, value, message):
    with pytest.raises(ParameterError) as info:
        entry(value)
    assert str(info.value) == message


class TestUnitOracle:
    def test_matches_step_examples(self):
        initial = AgeProfile(np.array([5, 3, 2]), shelf_life=4)
        fast, _ = simulate(initial, [0], [6], COSTS)
        slow, _ = brute_force_unit_sim(initial.unit_ages(), [0], [6], COSTS, shelf_life=4)
        assert fast == slow

    def test_single_unit_expires_once(self):
        outcomes, _ = brute_force_unit_sim([1], [0] * 40, [0] * 40, COSTS, shelf_life=8)
        expiries = [i for i, o in enumerate(outcomes) if o.expired]
        assert expiries == [6]  # age 1 -> reaches 8 after 7 more periods (index 6)
        assert sum(o.expired for o in outcomes) == 1

    def test_equivalence_on_seeded_scenarios(self):
        rng = np.random.default_rng(99)
        for _ in range(150):
            shelf_life = int(rng.integers(3, 11))
            horizon = int(rng.integers(1, 200))
            initial = AgeProfile(rng.integers(0, 10, size=shelf_life - 1), shelf_life)
            orders = rng.integers(0, 25, size=horizon).tolist()
            demands = rng.integers(0, 25, size=horizon).tolist()
            fast, avg_fast = simulate(initial, orders, demands, COSTS)
            slow, avg_slow = brute_force_unit_sim(
                initial.unit_ages(), orders, demands, COSTS, shelf_life
            )
            assert fast == slow
            assert avg_fast == avg_slow

    def test_fifo_wastes_no_more_than_lifo(self):
        def lifo_sim(initial_ages, orders, demands, shelf_life):
            ages = sorted(initial_ages)  # ascending: youngest first
            total_expired = 0
            for z, y in zip(orders, demands):
                ages = [0] * z + ages
                issued = min(y, len(ages))
                ages = ages[issued:]  # youngest first: LIFO issue
                ages = [a + 1 for a in ages]
                total_expired += sum(1 for a in ages if a >= shelf_life)
                ages = [a for a in ages if a < shelf_life]
            return total_expired

        rng = np.random.default_rng(5)
        for _ in range(60):
            shelf_life = int(rng.integers(3, 9))
            horizon = int(rng.integers(10, 120))
            initial = AgeProfile(rng.integers(0, 6, size=shelf_life - 1), shelf_life)
            orders = rng.integers(0, 12, size=horizon).tolist()
            demands = rng.integers(0, 12, size=horizon).tolist()
            fifo, _ = simulate(initial, orders, demands, COSTS)
            fifo_expired = sum(o.expired for o in fifo)
            lifo_expired = lifo_sim(initial.unit_ages().tolist(), orders, demands, shelf_life)
            assert fifo_expired <= lifo_expired


class TestYoungStock:
    def test_spreads_over_expected_ages(self):
        profile = young_stock(780, 93.0, shelf_life=32)
        used = np.nonzero(profile.counts)[0] + 1
        assert used.max() == int(np.ceil(780 / 93.0))
        assert profile.total == 780

    def test_zero_total(self):
        assert young_stock(0, 50.0).total == 0

    def test_caps_at_shelf_life(self):
        profile = young_stock(100, 1.0, shelf_life=5)
        assert profile.total == 100
        assert profile.counts.size == 4

    def test_demand_so_small_that_the_ratio_is_inf_fills_every_age(self):
        # 10**10 / 1e-300 is inf, and math.ceil(inf) once raised OverflowError
        profile = young_stock(10**10, 1e-300, shelf_life=5)
        assert profile.counts.tolist() == [2_500_000_000] * 4
        assert profile.total == 10**10

    def test_largest_int64_stock_keeps_its_total(self):
        profile = young_stock(2**63 - 1, 5.0, shelf_life=32)
        assert profile.total == 2**63 - 1

    @pytest.mark.parametrize("total", [2**63, 2**64, 10**400])
    def test_stock_past_int64_fails_closed(self, total):
        # 2**63 once gave a profile whose total read negative, 10**400 an OverflowError
        with pytest.raises(ParameterError, match=r"^total stock must be below 2\*\*63 units$"):
            young_stock(total, 5.0)

    @pytest.mark.parametrize("total", [0, 780])
    @pytest.mark.parametrize("shelf_life", [1, 0, -3])
    def test_shelf_life_below_two_rejected_first(self, total, shelf_life):
        # checked before the shelf life sizes the age counts or divides the stock
        with pytest.raises(ParameterError, match=f"shelf_life must be >= 2, got {shelf_life}"):
            young_stock(total, 93.0, shelf_life)


def test_age_profile_validation():
    with pytest.raises(ParameterError):
        AgeProfile(np.array([1, 2]), shelf_life=4)  # needs 3 buckets
    with pytest.raises(ParameterError):
        AgeProfile(np.array([1, -2, 0]), shelf_life=4)


@pytest.mark.parametrize("counts, message", [
    ([2**62, 2**62, 0], "age counts must total below 2**63 units"),  # once summed to -2**63
    ([2**63 - 1, 1, 0], "age counts must total below 2**63 units"),
    ([2**63, 0, 0], "age counts must each be below 2**63 units"),
    ([10**400, 0, 0], "age counts must each be below 2**63 units"),
])
def test_age_counts_past_int64_fail_closed(counts, message):
    with pytest.raises(ParameterError) as info:
        AgeProfile(counts, shelf_life=4)
    assert str(info.value) == message
    assert AgeProfile([2**62, 2**62 - 1, 0], shelf_life=4).total == 2**63 - 1


@pytest.mark.parametrize("order", [2**63 - 5, 2**64 + 3])
def test_step_order_past_int64_names_the_order(order):
    # once blamed an age count the caller never passed, or the profile's counts
    stock = young_stock(10, 1.0, 3)
    with pytest.raises(ParameterError) as info:
        step(stock, order, 0, CostParams())
    assert str(info.value) == (f"order_qty must keep the stock below 2**63 units, "
                               f"got {order} on 10 units")
    # arrivals of 2**63 - 1 still step
    _, outcome = step(stock, 2**63 - 11, 0, CostParams())
    assert outcome.end_inventory == 2**63 - 6


@pytest.mark.parametrize("counts, message", [
    ([1.5, 0, 0], "age 1 count must be a whole number, got 1.5"),  # once kept 1 unit
    (["3", 0, 0], "age 1 count must be a whole number, got '3'"),  # once kept 3
    ((0, float("nan"), 0), "age 2 count must be a whole number, got nan"),  # once a ValueError
    ([0, 0, True], "age 3 count must be a whole number, got True"),
    (np.array([3.0, 0.0, 0.0]), "age 1 count must be a whole number, got np.float64(3.0)"),
    (np.array([1, 0, 1], dtype=bool), "age 1 count must be a whole number, got np.True_"),
    (7, "age counts must be a sequence, got 7"),
])
def test_age_counts_must_be_whole_numbers(counts, message):
    with pytest.raises(ParameterError) as info:
        AgeProfile(counts, shelf_life=4)
    assert str(info.value) == message


def test_age_counts_of_whole_numbers_accepted(monkeypatch):
    for counts in ([5, np.int64(3), np.uint8(2)], (5, 3, 2), range(5, 2, -1)):
        profile = AgeProfile(counts, shelf_life=4)
        assert profile.counts.dtype == np.int64 and profile.counts.tolist()[0] == 5
    # an integer array, as young_stock builds, is not checked a value at a time
    checked = []
    monkeypatch.setattr("bloodbank.inventory.whole",
                        lambda name, value: checked.append(name) or int(value))
    for dtype in (np.int64, np.int32, np.uint16):
        assert AgeProfile(np.array([5, 3, 2], dtype=dtype), shelf_life=4).total == 10
    assert checked == ["shelf_life"] * 3


def test_trajectory_csv_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    initial = AgeProfile(rng.integers(0, 5, size=7), shelf_life=8)
    orders = rng.integers(0, 10, size=50).tolist()
    demands = rng.integers(0, 10, size=50).tolist()
    outcomes, _ = simulate(initial, orders, demands, COSTS)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, outcomes)
    header, rows = read_csv(path)
    assert header == ["period", "order", "demand", "urgent", "expired", "end_inventory", "cost"]
    assert [[*map(int, row[:6]), float(row[6])] for row in rows] == [
        [i, o.order_qty, o.demand, o.urgent, o.expired, o.end_inventory, o.cost]
        for i, o in enumerate(outcomes, start=1)]


@pytest.mark.parametrize("make, message", [
    (lambda: CostParams(holding="1"), "holding must be non-negative and finite, got '1'"),
    (lambda: CostParams(urgent=True), "urgent must be non-negative and finite, got True"),
    (lambda: CostParams(wastage=float("nan")), "wastage must be non-negative and finite, got nan"),
    # an int past the float range once passed, and evaluate_strategy raised an OverflowError
    (lambda: CostParams(holding=10**400),
     f"holding must be non-negative and finite, got {10**400}"),
    (lambda: AgeProfile(np.zeros(2), shelf_life=2.5), "shelf_life must be a whole number, got 2.5"),
    (lambda: AgeProfile(np.zeros(1), shelf_life=True), "shelf_life must be a whole number, got True"),
    (lambda: young_stock(5.5, 3.0), "total must be a whole number, got 5.5"),
    (lambda: young_stock(True, 3.0), "total must be a whole number, got True"),
    (lambda: young_stock(5, 3.0, 32.0), "shelf_life must be a whole number, got 32.0"),
])
def test_cost_and_stock_fields_fail_closed(make, message):
    with pytest.raises(ParameterError) as info:
        make()
    assert str(info.value) == message


def test_int_cost_coefficients_are_stored_and_priced_as_floats():
    ints, floats = CostParams(100, 1, 300, 50), CostParams(100.0, 1.0, 300.0, 50.0)
    assert ints == floats and {type(c) for c in dataclasses.astuple(ints)} == {float}
    # a stock past 2**53, which an int holding cost once priced exactly, as an int
    profile = AgeProfile([2**53 + 1, 3, 0], 4)
    orders, demands = [0, 5, 0, 7, 0], [2, 9, 0, 1, 4]
    # repr tells 2 from 2.0, so these compare field types too
    assert repr(step(profile, 5, 9, ints)) == repr(step(profile, 5, 9, floats))
    assert repr(simulate(profile, orders, demands, ints)) == repr(
        simulate(profile, orders, demands, floats))
    for strategy in ("gold", "daily"):
        summaries = [evaluate_strategy(strategy, [3.0] * 5, demands, profile, costs,
                                       params=PolicyParams(10, 5), shelf_life=4)
                     for costs in (ints, floats)]
        assert repr(summaries[0]) == repr(summaries[1])


def test_numpy_integers_accepted_as_ints():
    profile = young_stock(np.int64(40), 5.0, np.int32(8))
    assert profile.counts.tolist() == young_stock(40, 5.0, 8).counts.tolist()
    assert type(profile.shelf_life) is int
