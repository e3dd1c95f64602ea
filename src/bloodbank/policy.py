"""Ordering strategies over the FIFO inventory model.

The proposed rule orders the forecast demand, lifted to at least the reorder
level and capped so inventory never exceeds the target: when stock has fallen
below the reorder level ``s`` the order is ``clamp(forecast, s - I, S - I)``,
otherwise no order is placed.  The target ``S`` and reorder level ``s`` are
learned on training data by matching the average cost of ordering the realized
demand itself (the gold standard), sweeping candidate grids.

A semiweekly variant places orders only on Mondays and Thursdays; the forecast
at an order point covers every period until the next delivery (Tue-Thu after a
Monday order, Fri-Mon after a Thursday order).  One table of block lengths by
delivery weekday, read by ``_block_lengths``, serves ``_order_plan`` (a float64
vector sum an order) and ``aggregate_semiweekly`` (``sum`` over each full block).

``learn_policy`` simulates the gold standard once, sweeps the target grid, then
sweeps the daily and semiweekly reorder grids together under the chosen target.
Every sweep row, one candidate under one schedule, advances through the FIFO
period of ``inventory`` under that one rule: a target row orders when stock is
below its candidate and caps the order there, a reorder row lifts to its
candidate and caps at the target.  The rows advance together a period at a
time into preallocated buffers, and each block of ``_BLOCK`` periods is priced
by one ``CostParams.period_cost`` call on its (periods, rows) columns.  A
running ``cumsum`` down the block adds each row's costs left to right, as a
fold over ``step`` adds them, so the rows are bit-identical to simulating each
candidate alone.  Single trajectories (``run_policy``, ``evaluate_strategy``)
run ``inventory._fold`` on plain ints, with the same rule given to it as data,
and only ``run_policy`` builds ``PeriodOutcome``s; the gold standard
(``cost_under_actual`` too) takes the fold's columns in closed form from
``inventory._gold``.  ``_rule`` converts the rule's units and thresholds to
those ints through one int64 array each when int64 holds every value.  The fold
returns unit columns only, and the trajectory is priced after it by one
``CostParams.period_cost`` call on float arrays.  ``evaluate_strategy``
summarizes the columns from one float array, its cost row priced on the array's
rows, its means and SDs taken by the ufunc steps ``numpy.mean`` and
``numpy.std`` run, to the same bits.  Demands are checked before their mean
sizes a unit-count stock, and ``shelf_life`` defaults to an ``AgeProfile``
stock's own; a given one that differs raises.
"""

from __future__ import annotations

import datetime as dt
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError, whole
from .inventory import (
    AgeProfile,
    CostParams,
    PeriodOutcome,
    _check_units,
    _fold,
    _gold,
    _outcomes,
    _priced,
    _ring,
    _starting_stock,
    _units,
)
from .table import number, write_table

__all__ = [
    "Schedule",
    "PolicyParams",
    "StrategySummary",
    "PolicyRun",
    "round_units",
    "order_quantity",
    "run_policy",
    "cost_under_actual",
    "target_sweep",
    "best_candidate",
    "optimize_target",
    "reorder_sweep",
    "optimize_reorder",
    "learn_policy",
    "aggregate_semiweekly",
    "evaluate_strategy",
    "comparison_table",
    "write_comparison_csv",
    "write_sweep_csv",
]

# the days each semiweekly delivery covers, by its weekday (Monday=0): Tuesday's (ordered
# Monday) covers Tue-Thu, Friday's (ordered Thursday) Fri-Mon; 0 on the other weekdays
_SEMIWEEKLY_LENGTHS = np.array([0, 3, 0, 0, 4, 0, 0])
_LONGEST_BLOCK = int(_SEMIWEEKLY_LENGTHS.max())


def _block_lengths(first_weekday: int, days: int) -> np.ndarray:
    """Each of ``days`` days' semiweekly block length from a first day of ``first_weekday``:
    the days its delivery covers, 0 on a day with no delivery."""
    return _SEMIWEEKLY_LENGTHS[(first_weekday + np.arange(days)) % 7]


@dataclass(frozen=True)
class Schedule:
    """Order timing: every day, or Mondays and Thursdays only.

    ``start_weekday`` is the weekday (Monday=0) of the first simulated
    period; orders are decided at the end of the previous day and arrive the
    next morning, so an order placed on Monday covers Tuesday through
    Thursday.
    """

    kind: str = "daily"
    start_weekday: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("daily", "semiweekly"):
            raise ParameterError(f"unknown schedule kind {self.kind!r}")
        object.__setattr__(self, "start_weekday", whole("start_weekday", self.start_weekday))
        if not 0 <= self.start_weekday <= 6:
            raise ParameterError("start_weekday must lie in 0..6")


@dataclass(frozen=True)
class PolicyParams:
    inventory_target: int
    reorder_level: int
    schedule: Schedule = Schedule()

    def __post_init__(self) -> None:
        for name in ("inventory_target", "reorder_level"):
            object.__setattr__(self, name, whole(name, getattr(self, name)))
        if self.inventory_target < 0 or self.reorder_level < 0:
            raise ParameterError("inventory target and reorder level must be non-negative")
        if self.reorder_level > self.inventory_target:
            raise ParameterError(
                f"reorder level {self.reorder_level} exceeds inventory target "
                f"{self.inventory_target}"
            )


def round_units(value: float) -> int:
    """Half-up rounding to whole units, clamped at zero."""
    return max(0, int(math.floor(value + 0.5)))


def order_quantity(inventory: int, forecast_units: int, params: PolicyParams) -> int:
    """Order size for one decision point under the target/reorder rule, which
    ``inventory._fold`` runs as data over a trajectory and ``_sweep`` on vectors."""
    if inventory < 0 or forecast_units < 0:
        raise ParameterError("inventory and forecast must be non-negative")
    s, target = params.reorder_level, params.inventory_target
    if inventory >= s:
        return 0
    return min(max(forecast_units, s - inventory), target - inventory)


@dataclass(frozen=True)
class PolicyRun:
    outcomes: list[PeriodOutcome]
    average_cost: float
    initial_level: int


def _aligned(y_hat, demands) -> tuple[np.ndarray, list]:
    """The forecasts as one float array and the demands as a list, of one length.

    Each forecast converts as ``float`` converts it, which raises what it rejects,
    so a None is not a NaN.  The first NaN raises ParameterError naming its period.
    """
    forecasts = np.array([float(v) for v in y_hat], dtype=float)
    demands = list(demands)
    if forecasts.size != len(demands):
        raise ParameterError(
            f"stream length mismatch: {forecasts.size} forecasts vs {len(demands)} demands"
        )
    nan = np.isnan(forecasts)
    if nan.any():
        raise ParameterError(f"forecast for period {int(nan.argmax()) + 1} is NaN")
    return forecasts, demands


def _order_plan(y_hat: np.ndarray, schedule: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """Rounded forecast units an order would cover, and whether one may be placed.

    Daily orders cover one period.  Semiweekly orders are placed only on Mondays and
    Thursdays and cover every period up to the next delivery, cut at the end of the
    horizon.  The units are ``round_units`` of each order's forecast sum, as whole floats.
    """
    horizon = len(y_hat)
    # forecasts this large could sum to inf over a block; every order is capped far below
    y_hat = np.clip(y_hat, -1e300, 1e300)
    if schedule.kind == "daily":
        return np.maximum(np.floor(y_hat + 0.5), 0.0), np.ones(horizon, dtype=bool)
    blocks = _block_lengths(schedule.start_weekday, horizon)
    # each block's sum runs left to right, as ``sum`` does; adding 0.0 past its end is exact
    padded = np.concatenate((y_hat, np.zeros(_LONGEST_BLOCK - 1)))
    sums = y_hat
    for k in range(1, _LONGEST_BLOCK):
        sums = sums + np.where(blocks > k, padded[k:k + horizon], 0.0)
    order_days = blocks > 0
    return np.where(order_days, np.maximum(np.floor(sums + 0.5), 0.0), 0.0), order_days


def aggregate_semiweekly(daily: list[tuple[dt.date, float]]) -> list[tuple[dt.date, float]]:
    """Sum daily values into Tue-Thu and Fri-Mon blocks labeled by start date, each by
    ``sum`` left to right: the blocks that ``_order_plan``'s semiweekly orders cover.

    Partial blocks at either end are dropped.
    """
    for (prev, _), (cur, _) in zip(daily, daily[1:]):
        if cur != prev + dt.timedelta(days=1):
            raise ParameterError(f"dates must be contiguous: {prev} is followed by {cur}")
    lengths = _block_lengths(daily[0][0].weekday() if daily else 0, len(daily)).tolist()
    return [(daily[i][0], float(sum(value for _, value in daily[i:i + length])))
            for i, length in enumerate(lengths) if 0 < length <= len(daily) - i]


def _rule(y_hat: np.ndarray, params: PolicyParams) -> tuple[list, list, int, int]:
    """``_fold``'s ``units``, ``below``, ``lift`` and ``cap`` for the target/reorder rule: below
    the reorder level on order days, lifting to it and capping at the target; never elsewhere."""
    units, order_days = _order_plan(y_hat, params.schedule)
    level = params.reorder_level
    if units.max(initial=0.0) < 2.0**63 and level < 2**63:  # int64 holds every value exactly
        units, below = units.astype(np.int64).tolist(), np.where(order_days, level, 0).tolist()
    else:  # plain ints one at a time
        units = list(map(int, units.tolist()))
        below = [level if day else 0 for day in order_days.tolist()]
    return units, below, level, params.inventory_target


def run_policy(y_hat, demands, initial, costs: CostParams, params: PolicyParams,
               shelf_life: int | None = None) -> PolicyRun:
    """Simulate the target/reorder rule over aligned forecast/demand streams."""
    y_hat, demands = _aligned(y_hat, demands)
    demands = _units("demand", demands)
    profile = _starting_stock(initial, demands, shelf_life)
    columns = _fold(_ring(profile.counts).tolist(), demands, *_rule(y_hat, params))
    columns, average = _priced(columns, costs)
    return PolicyRun(_outcomes(columns), average, profile.total)


def cost_under_actual(demands, initial, costs: CostParams,
                      shelf_life: int | None = None) -> float:
    """Average cost when every period orders exactly the realized demand."""
    demands = _units("order_qty", demands)  # its orders, as the fold would name them
    if not demands:
        raise ParameterError("demand stream must be non-empty")
    profile = _starting_stock(initial, demands, shelf_life)
    return _priced(_gold(_ring(profile.counts), demands), costs)[1]


def _streams(y_hat, demands, initial, costs: CostParams, shelf_life: int | None):
    """Checked forecasts and demands, the starting stock and the gold standard's cost."""
    y_hat, demands = _aligned(y_hat, demands)
    demands = _units("demand", demands)
    profile = _starting_stock(initial, demands, shelf_life)
    return y_hat, demands, profile, cost_under_actual(demands, profile, costs)


def _capped(units: np.ndarray, top: int) -> np.ndarray:
    """``min(units, top)`` as int64, exactly, for whole float ``units`` and ``0 <= top < 2**63``."""
    beyond = units >= 2.0**63  # past int64, and so past top
    return np.where(beyond, top, np.minimum(np.where(beyond, 0.0, units).astype(np.int64), top))


# periods per block: their forecast units and order thresholds are gathered once, and
# their costs priced in one ``period_cost`` call
_BLOCK = 32


@np.errstate(over="ignore")  # an overflow is raised at the end instead
def _sweep(y_hat, demands, profile: AgeProfile, gold: float, costs: CostParams,
           schedules: list[Schedule], candidates: list[int], target: int | None = None,
           ) -> list[list[tuple[int, float, float]]]:
    """(candidate, average cost, |gold - cost|) rows of every candidate under each schedule.

    On its schedule's order days, a row whose stock ``I`` is below its candidate orders
    ``clamp(forecast, lift - I, cap - I)``.  ``target=None`` sweeps targets (``cap`` is
    the candidate, ``lift`` 0); otherwise reorder levels (``lift``) under ``cap = target``.
    """
    top = max(candidates) if target is None else target  # the largest cap
    if profile.total + len(demands) * top + max(demands) >= 2**63:
        raise ParameterError(
            "demands or candidates too large: cumulative arrivals would overflow int64")
    grid = np.tile(np.asarray(candidates, dtype=np.int64), len(schedules))  # schedule-major
    # vectors: a Python scalar operand makes each numpy call below about 70 % slower
    lift, cap = ((np.zeros_like(grid), grid) if target is None
                 else (grid, np.full_like(grid, target)))
    plans = [_order_plan(y_hat, schedule) for schedule in schedules]
    # no order exceeds its cap, so larger forecasts order as the cap does, within int64
    units = _capped(np.stack([plan[0] for plan in plans], axis=1), top)  # (periods, schedules)
    order_days = np.stack([plan[1] for plan in plans], axis=1)
    row_schedule = np.repeat(np.arange(len(schedules)), len(candidates))
    ring = np.tile(_ring(profile.counts)[:, None], grid.size)  # (shelf_life - 1, rows)
    slots = itertools.cycle(ring)  # period t reads C(t - L + 1) from slot t % (L - 1)
    # one row per period of a block: cumulative arrivals C(t) (row 0 holds the previous
    # block's last), the units gone if every demand were met from stock, the units taken
    # by issue, the units gone by issue or expiry, and the end levels
    arrived = np.empty((_BLOCK + 1, grid.size), dtype=np.int64)
    wanted, taken, gone, levels = (np.empty((_BLOCK, grid.size), dtype=np.int64)
                                   for _ in range(4))
    arrived[0] = level = np.full(grid.size, profile.total)
    went, total = np.zeros(grid.size, dtype=np.int64), np.zeros(grid.size)  # gone before t
    stock, idle = np.empty(grid.size, dtype=np.int64), np.empty(grid.size, dtype=bool)
    for start in range(0, len(demands), _BLOCK):
        block = slice(start, start + _BLOCK)
        # the rows' forecast units, and the stock they order below: the candidate on
        # order days, 0 (never) elsewhere
        forecast = units[block][:, row_schedule]
        below = np.where(order_days[block][:, row_schedule], grid, 0)
        demand = np.broadcast_to(np.array(demands[block])[:, None], forecast.shape)
        for y, u, b, c, w, k, g, l, slot in zip(demand, forecast, below, arrived[1:],
                                                 wanted, taken, gone, levels, slots):
            # stock after the order: I + clamp(forecast, lift - I, cap - I) if ordering, else I
            np.add(u, level, out=stock)
            np.maximum(stock, lift, out=stock)
            np.minimum(stock, cap, out=stock)
            np.greater_equal(level, b, out=idle)
            np.copyto(stock, level, where=idle)
            np.add(went, stock, out=c)
            np.add(went, y, out=w)
            np.minimum(w, c, out=k)  # oldest first, arrivals last
            np.maximum(slot, k, out=g)  # taken plus the cohort reaching the shelf-life limit
            slot[...] = c
            np.subtract(c, g, out=l)
            level, went = l, g
        n = len(forecast)
        # a period orders when C grows; urgent units are wanted less taken, expired are
        # gone less taken
        cost = costs.period_cost(arrived[1:n + 1] > arrived[:n], levels[:n],
                                 wanted[:n] - taken[:n], gone[:n] - taken[:n])
        cost[0] += total  # then the running sums add each period's cost as ``total += cost``
        total = np.cumsum(cost, axis=0)[-1]
        arrived[0] = arrived[n]
    if not np.isfinite(total).all():  # every cost is non-negative, so an overflow is inf
        raise ParameterError("demands or costs so large that a candidate's average cost "
                             "overflows")
    averages = (total / len(demands)).reshape(len(schedules), -1).tolist()
    return [[(c, avg, abs(gold - avg)) for c, avg in zip(candidates, row)] for row in averages]


def _candidates(grid, name: str, target: int | None = None) -> list[int]:
    values = sorted({whole(f"{name} grid entry", v) for v in grid})
    if not values:
        raise ParameterError(f"{name} grid is empty")
    if target is not None and values[-1] > target:
        raise ParameterError(
            f"reorder candidate {values[-1]} exceeds the inventory target {target}")
    if values[0] < 0:
        raise ParameterError("inventory target and reorder level must be non-negative")
    return values


def target_sweep(y_hat, demands, initial, costs: CostParams, target_grid,
                 shelf_life: int | None = None) -> list[tuple[int, float, float]]:
    """(target, average cost, |gold - cost|) for every candidate target.

    Candidate orders are the rounded daily forecasts capped so stock never
    exceeds the target.
    """
    targets = _candidates(target_grid, "target")
    streams = _streams(y_hat, demands, initial, costs, shelf_life)
    return _sweep(*streams, costs, [Schedule()], targets)[0]


def best_candidate(rows: list[tuple[int, float, float]], objective: str = "match_gold") -> int:
    """Candidate of the sweep row with the best objective.

    ``objective="match_gold"`` minimises |gold - cost| (the third column),
    ``"min_cost"`` the average cost itself.  Ties go to the smallest candidate.
    """
    if objective not in ("match_gold", "min_cost"):
        raise ParameterError(f"unknown objective {objective!r}")
    if not rows:
        raise ParameterError("no sweep rows to choose from")
    key = 2 if objective == "match_gold" else 1
    return min(rows, key=lambda row: (row[key], row[0]))[0]


def optimize_target(y_hat, demands, initial, costs: CostParams, target_grid,
                    shelf_life: int | None = None, objective: str = "match_gold") -> int:
    """Target whose simulated cost best matches the gold standard.

    ``objective="min_cost"`` instead picks the cheapest candidate outright.
    Ties go to the smallest target.
    """
    rows = target_sweep(y_hat, demands, initial, costs, target_grid, shelf_life)
    return best_candidate(rows, objective)


def reorder_sweep(y_hat, demands, initial, costs: CostParams, target: int, reorder_grid,
                  schedule: Schedule = Schedule(), shelf_life: int | None = None,
                  ) -> list[tuple[int, float, float]]:
    """(reorder level, average cost, |gold - cost|) for every candidate level."""
    levels = _candidates(reorder_grid, "reorder", target)
    target = _check_units("inventory target", target)
    streams = _streams(y_hat, demands, initial, costs, shelf_life)
    return _sweep(*streams, costs, [schedule], levels, target)[0]


def optimize_reorder(y_hat, demands, initial, costs: CostParams, target: int, reorder_grid,
                     schedule: Schedule = Schedule(), shelf_life: int | None = None,
                     objective: str = "match_gold") -> int:
    """Reorder level whose simulated cost best matches the gold standard."""
    rows = reorder_sweep(y_hat, demands, initial, costs, target, reorder_grid,
                         schedule, shelf_life)
    return best_candidate(rows, objective)


def learn_policy(y_hat, demands, initial, costs: CostParams, target_grid, reorder_grid=None,
                 start_weekday: int = 0, shelf_life: int | None = None,
                 objective: str = "match_gold",
                 ) -> tuple[dict[str, int], dict[str, list[tuple[int, float, float]]]]:
    """Choices and sweep rows, keyed ``"target"``, ``"daily"`` and ``"semiweekly"``.

    A given reorder grid drops its candidates above the chosen target; the default is
    ``0..target`` in steps of 10.
    """
    targets = _candidates(target_grid, "target")
    given = None if reorder_grid is None else _candidates(reorder_grid, "reorder")
    schedules = [Schedule(kind, start_weekday) for kind in ("daily", "semiweekly")]
    streams = _streams(y_hat, demands, initial, costs, shelf_life)
    rows = {"target": _sweep(*streams, costs, [Schedule()], targets)[0]}
    target = best_candidate(rows["target"], objective)
    levels = (list(range(0, target + 1, 10)) if given is None
              else [s for s in given if s <= target])  # the others are infeasible
    if not levels:
        raise ParameterError(f"reorder grid {given[0]}..{given[-1]} has no candidate <= "
                             f"target {target}")
    rows.update(zip(("daily", "semiweekly"), _sweep(*streams, costs, schedules, levels, target)))
    return {name: best_candidate(rows[name], objective) for name in rows}, rows


@dataclass(frozen=True, slots=True)
class StrategySummary:
    strategy: str
    periods: int
    days_with_orders: int
    order_day_fraction: float
    order_qty_mean: float
    order_qty_sd: float
    inventory_mean: float
    inventory_sd: float
    urgent_mean: float | None
    urgent_sd: float | None
    wastage_mean: float
    wastage_sd: float
    cost_mean: float
    cost_sd: float
    total_cost: float
    doh: float
    placement_weekdays: tuple[int, ...]


# the numeric fields, in order: comparison.csv's rows
_CSV_FIELDS = [f.name for f in fields(StrategySummary)
               if f.name not in ("strategy", "placement_weekdays")]
# every set of weekdays as one tuple, at the index of its bit mask, so that a summary
# shares its placement weekdays instead of keeping a copy
_WEEKDAY_SETS = [tuple(day for day in range(7) if mask >> day & 1) for mask in range(128)]


def _moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means and SDs along the last axis, by the ufunc steps of ``mean`` and ``std``: the
    same bits without their wrappers."""
    n = values.shape[-1]
    means = np.add.reduce(values, axis=-1, keepdims=True) / n
    deviations = values - means
    np.square(deviations, out=deviations)
    return means[..., 0], np.sqrt(np.add.reduce(deviations, axis=-1) / n)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is raised at the end instead
def _summarize(strategy: str, columns: list[list] | np.ndarray, costs: CostParams,
               start_weekday: int, urgent_available: bool = True) -> StrategySummary:
    """Summary of ``_fold``'s or ``_gold``'s orders, demands, urgent, expired and end inventory,
    and of their cost under ``costs``."""
    periods = len(columns[0])
    table = np.empty((6, periods))  # one row per column, then the costs
    table[:5] = columns
    placed = table[0] > 0
    table[5] = costs.period_cost(placed, table[4], table[2], table[3])
    order_days = np.flatnonzero(placed)
    qty_mean = qty_sd = float("nan")
    if order_days.size:
        qty_mean, qty_sd = map(float, _moments(table[0, order_days]))
    means = sds = [0.0] * len(table)
    if periods:
        means, sds = (m.tolist() for m in _moments(table))
    _, demand_mean, urgent_mean, wastage_mean, inventory_mean, cost_mean = means
    _, _, urgent_sd, wastage_sd, inventory_sd, cost_sd = sds
    summary = StrategySummary(
        strategy=strategy,
        periods=periods,
        days_with_orders=order_days.size,
        order_day_fraction=order_days.size / periods if periods else 0.0,
        order_qty_mean=qty_mean,
        order_qty_sd=qty_sd,
        inventory_mean=inventory_mean,
        inventory_sd=inventory_sd,
        urgent_mean=urgent_mean if urgent_available and periods else None,
        urgent_sd=urgent_sd if urgent_available and periods else None,
        wastage_mean=wastage_mean,
        wastage_sd=wastage_sd,
        cost_mean=cost_mean,
        cost_sd=cost_sd,
        total_cost=float(table[5].sum()),
        doh=inventory_mean / demand_mean if demand_mean > 0 else float("nan"),
        placement_weekdays=_WEEKDAY_SETS[
            np.bitwise_or.reduce(1 << (start_weekday + order_days - 1) % 7, initial=0)],
    )
    # every series is non-negative, so an overflow leaves an infinite mean, sd or total
    if math.isinf(demand_mean) or any(math.isinf(getattr(summary, f) or 0.0)
                                      for f in _CSV_FIELDS):
        raise ParameterError(f"{strategy} strategy: demands or costs so large that its "
                             f"summary overflows")
    return summary


def evaluate_strategy(strategy: str, y_hat, demands, initial, costs: CostParams, *,
                      params: PolicyParams | None = None,
                      baseline_target: int | None = None,
                      start_weekday: int = 0,
                      shelf_life: int | None = None) -> StrategySummary:
    """Summary statistics for one named ordering strategy.

    ``gold`` orders the realized demand, ``baseline`` tops stock up to a fixed
    target every day (urgent statistics are reported as unavailable, matching
    how such systems are audited), and ``daily``/``semiweekly`` run the
    target/reorder rule with the given ``params``.
    """
    Schedule(start_weekday=start_weekday)  # checked for every strategy
    if strategy not in ("gold", "baseline", "daily", "semiweekly"):
        raise ParameterError(f"unknown strategy {strategy!r}")
    # gold's orders are its demands, so a bad one is named as its order, as the fold names it
    demands = _units("order_qty" if strategy == "gold" else "demand", demands)
    profile = _starting_stock(initial, demands, shelf_life)
    if strategy == "gold":
        return _summarize(strategy, _gold(_ring(profile.counts), demands), costs, start_weekday)
    if strategy == "baseline":
        if baseline_target is None:
            raise ParameterError("baseline strategy needs baseline_target")
        top = _check_units("baseline_target", baseline_target)
        rule = itertools.repeat(0), itertools.repeat(top), top, top  # 0 lifted to the target
    else:  # daily or semiweekly
        if params is None:
            raise ParameterError(f"{strategy} strategy needs policy params")
        schedule = Schedule(kind=strategy, start_weekday=start_weekday)
        params = PolicyParams(params.inventory_target, params.reorder_level, schedule)
        y_hat, demands = _aligned(y_hat, demands)
        rule = _rule(y_hat, params)
    columns = _fold(_ring(profile.counts).tolist(), demands, *rule)
    return _summarize(strategy, columns, costs, start_weekday,
                      urgent_available=strategy != "baseline")


def _mean_sd(mean: float | None, sd: float | None) -> str:
    if mean is None or sd is None:
        return "n/a"
    if math.isnan(mean):
        return "n/a"
    return f"{mean:.2f} ({sd:.2f})"


_TABLE_ROWS = [
    ("days with orders", lambda s: f"{s.days_with_orders} ({100 * s.order_day_fraction:.2f}%)"),
    ("order qty on order days - mean (sd)", lambda s: _mean_sd(s.order_qty_mean, s.order_qty_sd)),
    ("inventory level - mean (sd)", lambda s: _mean_sd(s.inventory_mean, s.inventory_sd)),
    ("urgent units - mean (sd)", lambda s: _mean_sd(s.urgent_mean, s.urgent_sd)),
    ("wasted units - mean (sd)", lambda s: _mean_sd(s.wastage_mean, s.wastage_sd)),
    ("cost - mean (sd)", lambda s: _mean_sd(s.cost_mean, s.cost_sd)),
    ("total cost", lambda s: f"{s.total_cost:.2f}"),
    ("days of inventory on hand", lambda s: f"{s.doh:.2f}"),
]


def comparison_table(summaries: list[StrategySummary]) -> str:
    """Aligned text table: one row per summary field, one column per strategy."""
    headers = ["summary"] + [s.strategy for s in summaries]
    rows = [[label] + [render(s) for s in summaries] for label, render in _TABLE_ROWS]
    widths = [max(len(str(cell)) for cell in column) for column in zip(headers, *rows)]
    lines = ["  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in [headers] + rows]
    return "\n".join(lines)


def write_comparison_csv(path, summaries: list[StrategySummary]) -> None:
    """One row per summary field, one column per strategy."""
    write_table(path, ["field", *(s.strategy for s in summaries)],
                ([name, *(number(getattr(s, name)) for s in summaries)] for name in _CSV_FIELDS))


def write_sweep_csv(path, label: str, rows: list[tuple[int, float, float]]) -> None:
    """Columns: <label>, average_cost, objective."""
    write_table(path, [label, "average_cost", "objective"],
                ([candidate, number(cost), number(gap)] for candidate, cost, gap in rows))

