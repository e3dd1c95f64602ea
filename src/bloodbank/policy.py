"""Ordering strategies over the FIFO inventory model.

The proposed rule orders the forecast demand, lifted to at least the reorder
level and capped so inventory never exceeds the target: when stock has fallen
below the reorder level ``s`` the order is ``clamp(forecast, s - I, S - I)``,
otherwise no order is placed.  The target ``S`` and reorder level ``s`` are
learned on training data by matching the average cost of ordering the realized
demand itself (the gold standard), sweeping candidate grids.

A semiweekly variant places orders only on Mondays and Thursdays; the forecast
at an order point covers every period until the next delivery (Tue-Thu after a
Monday order, Fri-Mon after a Thursday order).

``target_sweep`` and ``reorder_sweep`` advance every candidate of a grid
together through ``inventory._advance``, one period at a time on the
candidates' cumulative arrivals, with the order rule applied to the vector of
stock levels; each candidate's cost is added period by period, as a fold over
``step`` adds it, so the rows are bit-identical to simulating each candidate
alone.  ``run_policy``, ``evaluate_strategy`` and ``cost_under_actual`` follow
a single trajectory through ``inventory._fold``, the same period on plain
ints, which is several times faster than an array period on one row.  The
fold returns per-period columns: ``run_policy`` builds its ``PeriodOutcome``s
from them, ``evaluate_strategy`` summarizes them and ``cost_under_actual``
keeps only their mean cost, so neither builds a ``PeriodOutcome``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError
from .inventory import (
    AgeProfile,
    CostParams,
    PeriodOutcome,
    _advance,
    _check_units,
    _fold,
    _outcomes,
    _ring,
    _run,
    young_stock,
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
    "evaluate_strategy",
    "comparison_table",
    "write_comparison_csv",
    "write_sweep_csv",
]

# semiweekly deliveries by weekday (Monday=0) and the days each covers: Tuesday
# (ordered Monday) covers Tue-Thu, Friday (ordered Thursday) covers Fri-Mon
_SEMIWEEKLY_BLOCKS = {1: 3, 4: 4}


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
        if not 0 <= self.start_weekday <= 6:
            raise ParameterError("start_weekday must lie in 0..6")


@dataclass(frozen=True)
class PolicyParams:
    inventory_target: int
    reorder_level: int
    schedule: Schedule = Schedule()

    def __post_init__(self) -> None:
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
    """Order size for one decision point under the target/reorder rule."""
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


def _drive(initial: AgeProfile, demands, costs: CostParams,
           order_fn) -> tuple[list[list], float]:
    return _fold(_ring(initial.counts).tolist(), demands, costs, order_fn)


def _as_profile(initial, demands, shelf_life: int) -> AgeProfile:
    if isinstance(initial, AgeProfile):
        return initial
    demands = list(demands)
    mean_demand = sum(demands) / len(demands) if demands else 1.0
    return young_stock(int(initial), max(mean_demand, 1.0), shelf_life)


def _aligned(y_hat, demands) -> tuple[list[float], list]:
    y_hat = [float(v) for v in y_hat]
    demands = list(demands)
    if len(y_hat) != len(demands):
        raise ParameterError(
            f"stream length mismatch: {len(y_hat)} forecasts vs {len(demands)} demands"
        )
    bad = next((i for i, v in enumerate(y_hat) if math.isnan(v)), None)
    if bad is not None:
        raise ParameterError(f"forecast for period {bad + 1} is NaN")
    return y_hat, demands


def _order_plan(y_hat: list[float], schedule: Schedule) -> tuple[list[int], list[bool]]:
    """Rounded forecast units an order would cover, and whether one may be placed.

    Daily orders cover one period.  Semiweekly orders are placed only on
    Mondays and Thursdays and cover every period up to the next delivery,
    cut at the end of the horizon.
    """
    horizon = len(y_hat)
    # forecasts this large could sum to inf over a block; every order is capped far below
    if max(map(abs, y_hat), default=0.0) > 1e300:
        y_hat = [min(max(v, -1e300), 1e300) for v in y_hat]
    units, order_days = [], []
    for i in range(horizon):
        block = 1
        if schedule.kind == "semiweekly":
            block = _SEMIWEEKLY_BLOCKS.get((schedule.start_weekday + i) % 7, 0)
        order_days.append(block > 0)
        units.append(round_units(sum(y_hat[i : min(i + block, horizon)])) if block else 0)
    return units, order_days


def _rule(y_hat: list[float], params: PolicyParams):
    """``_fold``'s order function for the target/reorder rule on ``params.schedule``."""
    units, order_days = _order_plan(y_hat, params.schedule)
    return lambda i, level: order_quantity(level, units[i], params) if order_days[i] else 0


def run_policy(y_hat, demands, initial, costs: CostParams, params: PolicyParams,
               shelf_life: int = 32) -> PolicyRun:
    """Simulate the target/reorder rule over aligned forecast/demand streams."""
    y_hat, demands = _aligned(y_hat, demands)
    profile = _as_profile(initial, demands, shelf_life)
    columns, average = _drive(profile, demands, costs, _rule(y_hat, params))
    return PolicyRun(_outcomes(columns), average, profile.total)


def cost_under_actual(demands, initial, costs: CostParams, shelf_life: int = 32) -> float:
    """Average cost when every period orders exactly the realized demand."""
    demands = list(demands)
    if not demands:
        raise ParameterError("demand stream must be non-empty")
    profile = _as_profile(initial, demands, shelf_life)
    return _run(profile, demands, demands, costs)[1]


@np.errstate(over="ignore")  # an overflow is raised at the end instead
def _sweep(y_hat, demands, initial, costs: CostParams, shelf_life: int, schedule: Schedule,
           candidates: list[int], target: int | None = None) -> list[tuple[int, float, float]]:
    """(candidate, average cost, |gold - cost|) rows, all candidates advanced together.

    ``target=None`` is the target sweep's rule: every period orders the
    forecast capped at each candidate target, with no reorder gate.
    Otherwise the candidates are reorder levels ``s`` under ``target``, and on
    order days a candidate whose stock ``I`` is below ``s`` orders
    ``clamp(forecast, s - I, target - I)``.
    """
    y_hat, demands = _aligned(y_hat, demands)
    demands = [_check_units("demand", y) for y in demands]
    profile = _as_profile(initial, demands, shelf_life)
    gold = cost_under_actual(demands, profile, costs, shelf_life)
    units, order_days = _order_plan(y_hat, schedule)

    grid = np.asarray(candidates, dtype=np.int64)
    caps = grid if target is None else target
    cap = int(np.max(caps))
    if profile.total + len(demands) * cap + max(demands) >= 2**63:
        raise ParameterError(
            "demands or candidates too large: cumulative arrivals would overflow int64")
    # no order exceeds its cap, so larger forecasts order as the cap does, within int64
    units = [min(u, cap) for u in units]
    ring = np.tile(_ring(profile.counts)[:, None], grid.size)  # (shelf_life - 1, K)
    level = arrived = np.full(grid.size, profile.total)
    gone, total = 0, np.zeros(grid.size)
    for t, (y, forecast, may_order) in enumerate(zip(demands, units, order_days)):
        if not may_order:
            orders = 0
        elif target is None:
            orders = np.maximum(np.minimum(forecast, caps - level), 0)
        else:
            lifted = np.minimum(np.maximum(forecast, grid - level), caps - level)
            orders = np.where(level < grid, lifted, 0)
        arrived, gone, urgent, expired = _advance(ring, t, arrived, gone, orders, y)
        level = arrived - gone
        # a running total adds the periods in the order a fold over step does
        total += costs.period_cost(orders > 0, level, urgent, expired)
    if not np.isfinite(total).all():  # every cost is non-negative, so an overflow is inf
        raise ParameterError("demands or costs so large that a candidate's average cost "
                             "overflows")
    averages = (total / len(demands)).tolist()
    return [(c, avg, abs(gold - avg)) for c, avg in zip(candidates, averages)]


def target_sweep(y_hat, demands, initial, costs: CostParams, target_grid,
                 shelf_life: int = 32) -> list[tuple[int, float, float]]:
    """(target, average cost, |gold - cost|) for every candidate target.

    Candidate orders are the rounded daily forecasts capped so stock never
    exceeds the target.
    """
    targets = sorted(set(int(t) for t in target_grid))
    if not targets:
        raise ParameterError("target grid is empty")
    return _sweep(y_hat, demands, initial, costs, shelf_life, Schedule(), targets)


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
                    shelf_life: int = 32, objective: str = "match_gold") -> int:
    """Target whose simulated cost best matches the gold standard.

    ``objective="min_cost"`` instead picks the cheapest candidate outright.
    Ties go to the smallest target.
    """
    rows = target_sweep(y_hat, demands, initial, costs, target_grid, shelf_life)
    return best_candidate(rows, objective)


def reorder_sweep(y_hat, demands, initial, costs: CostParams, target: int, reorder_grid,
                  schedule: Schedule = Schedule(), shelf_life: int = 32,
                  ) -> list[tuple[int, float, float]]:
    """(reorder level, average cost, |gold - cost|) for every candidate level."""
    levels = sorted(set(int(s) for s in reorder_grid))
    if not levels:
        raise ParameterError("reorder grid is empty")
    if levels[-1] > target:
        raise ParameterError(
            f"reorder candidate {levels[-1]} exceeds the inventory target {target}"
        )
    if levels[0] < 0:
        raise ParameterError("inventory target and reorder level must be non-negative")
    target = _check_units("inventory target", target)
    return _sweep(y_hat, demands, initial, costs, shelf_life, schedule, levels, target)


def optimize_reorder(y_hat, demands, initial, costs: CostParams, target: int, reorder_grid,
                     schedule: Schedule = Schedule(), shelf_life: int = 32,
                     objective: str = "match_gold") -> int:
    """Reorder level whose simulated cost best matches the gold standard."""
    rows = reorder_sweep(y_hat, demands, initial, costs, target, reorder_grid,
                         schedule, shelf_life)
    return best_candidate(rows, objective)


@dataclass(frozen=True)
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


@np.errstate(over="ignore", invalid="ignore")  # an overflow is raised at the end instead
def _summarize(strategy: str, columns: list[list], start_weekday: int,
               urgent_available: bool = True) -> StrategySummary:
    """Summary of ``_fold``'s orders, demands, urgent, expired, end inventory and cost."""
    orders = columns[0]
    periods = len(orders)
    order_days = [i for i, z in enumerate(orders) if z > 0]
    qty = np.array([orders[i] for i in order_days], dtype=float)
    demand, urgent, wastage, inventory, cost = (np.array(c, dtype=float) for c in columns[1:])
    placements = sorted({(start_weekday + i - 1) % 7 for i in order_days})
    demand_mean = demand.mean() if periods else 0.0
    summary = StrategySummary(
        strategy=strategy,
        periods=periods,
        days_with_orders=len(order_days),
        order_day_fraction=len(order_days) / periods if periods else 0.0,
        order_qty_mean=float(qty.mean()) if qty.size else float("nan"),
        order_qty_sd=float(qty.std()) if qty.size else float("nan"),
        inventory_mean=float(inventory.mean()) if periods else 0.0,
        inventory_sd=float(inventory.std()) if periods else 0.0,
        urgent_mean=float(urgent.mean()) if urgent_available and periods else None,
        urgent_sd=float(urgent.std()) if urgent_available and periods else None,
        wastage_mean=float(wastage.mean()) if periods else 0.0,
        wastage_sd=float(wastage.std()) if periods else 0.0,
        cost_mean=float(cost.mean()) if periods else 0.0,
        cost_sd=float(cost.std()) if periods else 0.0,
        total_cost=float(cost.sum()),
        doh=float(inventory.mean() / demand_mean) if demand_mean > 0 else float("nan"),
        placement_weekdays=tuple(placements),
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
                      shelf_life: int = 32) -> StrategySummary:
    """Summary statistics for one named ordering strategy.

    ``gold`` orders the realized demand, ``baseline`` tops stock up to a fixed
    target every day (urgent statistics are reported as unavailable, matching
    how such systems are audited), and ``daily``/``semiweekly`` run the
    target/reorder rule with the given ``params``.
    """
    demands = list(demands)
    profile = _as_profile(initial, demands, shelf_life)
    if strategy == "gold":
        rule = lambda i, level: demands[i]
    elif strategy == "baseline":
        if baseline_target is None:
            raise ParameterError("baseline strategy needs baseline_target")
        rule = lambda i, level: max(0, baseline_target - level)
    elif strategy in ("daily", "semiweekly"):
        if params is None:
            raise ParameterError(f"{strategy} strategy needs policy params")
        schedule = Schedule(kind=strategy, start_weekday=start_weekday)
        params = PolicyParams(params.inventory_target, params.reorder_level, schedule)
        y_hat, demands = _aligned(y_hat, demands)
        rule = _rule(y_hat, params)
    else:
        raise ParameterError(f"unknown strategy {strategy!r}")
    columns, _ = _drive(profile, demands, costs, rule)
    return _summarize(strategy, columns, start_weekday, urgent_available=strategy != "baseline")


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

