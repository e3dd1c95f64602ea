"""FIFO inventory state machine for perishable units.

Each period runs the same event sequence: ordered units arrive as the
freshest stock, demand is issued oldest-first, unmet demand is covered by a
same-period urgent delivery that never enters inventory, and surviving units
then age by one period.  Units reaching the shelf-life limit are discarded
and charged as wastage.  The period cost is

    delivery * (order placed) + holding * end inventory
    + urgent * shortage units + wastage * expired units.

With oldest-first issue and a fixed shelf life ``L`` no age buckets are
needed: the cumulative arrivals ``C(t)`` and the units ``gone`` by issue or
expiry describe the stock exactly, the cumulative-curve view of a FIFO queue
(Nahmias, Operations Research 30(4), 1982).  A period is five integer
operations on them (``_advance``), with ``C(t - L + 1)`` read from a ring of
the last ``L - 1`` values of ``C``.  ``_fold`` runs it on plain ints for one
trajectory, each order chosen from the stock level it sees, and returns
per-period columns (orders, demands, urgent and expired units, end
inventories, costs) with the mean cost.  Only the public functions that
return ``PeriodOutcome``s build them from those columns: ``simulate`` (a
whole fold), ``step`` (one period behind an ``AgeProfile``, converted at the
boundary) and ``policy.run_policy``.  ``policy.evaluate_strategy`` and
``policy.cost_under_actual`` read the columns.  The sweeps run ``_advance``
on ``(K,)`` vectors.  No pipeline command calls ``step``: it stays on the
library surface as the independent single-period loop that the benchmark's
cost and replay checks and the exhaustive-search acceptance test fold by
hand.

``brute_force_unit_sim`` re-runs the same dynamics tracking every physical
unit individually and exists purely as a verification oracle for
``simulate`` and ``step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SchemaError
from .table import number, read_rows, write_table

__all__ = [
    "AgeProfile",
    "CostParams",
    "PeriodOutcome",
    "step",
    "simulate",
    "brute_force_unit_sim",
    "young_stock",
    "write_trajectory_csv",
    "read_stream_csv",
]


@dataclass(frozen=True)
class CostParams:
    """Per-order delivery, per-unit holding/urgent/wastage cost coefficients."""

    routine_delivery: float = 100.0
    holding: float = 1.0
    urgent: float = 300.0
    wastage: float = 50.0

    def __post_init__(self) -> None:
        for name in ("routine_delivery", "holding", "urgent", "wastage"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # also NaN
                raise ParameterError(f"{name} must be non-negative and finite, got {value}")

    def period_cost(self, placed, end_inventory, urgent, expired):
        """Cost of one period; takes scalars or equally shaped arrays.

        The terms are added in this fixed order so that scalar and array
        callers get bit-identical totals.
        """
        return (
            self.routine_delivery * placed
            + self.holding * end_inventory
            + self.urgent * urgent
            + self.wastage * expired
        )


@dataclass(frozen=True)
class AgeProfile:
    """Unit counts by age; ``counts[j]`` holds units of age ``j + 1`` periods.

    Ages run from 1 to ``shelf_life - 1``: units reaching ``shelf_life``
    expire and leave the profile.
    """

    counts: np.ndarray
    shelf_life: int = 32

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if self.shelf_life < 2:
            raise ParameterError(f"shelf_life must be >= 2, got {self.shelf_life}")
        if counts.ndim != 1 or counts.size != self.shelf_life - 1:
            raise ParameterError(
                f"age profile needs exactly {self.shelf_life - 1} buckets, got {counts.size}"
            )
        if (counts < 0).any():
            raise ParameterError("age counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def empty(cls, shelf_life: int = 32) -> "AgeProfile":
        return cls(np.zeros(shelf_life - 1, dtype=np.int64), shelf_life)

    def unit_ages(self) -> np.ndarray:
        """Expand to one age entry per physical unit (ascending)."""
        return np.repeat(np.arange(1, self.shelf_life), self.counts)


def young_stock(total: int, mean_demand: float, shelf_life: int = 32) -> AgeProfile:
    """Spread ``total`` units uniformly over ages 1..ceil(total / mean_demand).

    Mirrors a bank that has been ordering its mean demand every period, so
    ordering exactly the realized demand keeps the level constant with no
    expiry.
    """
    if shelf_life < 2:  # before it sizes the counts or divides
        raise ParameterError(f"shelf_life must be >= 2, got {shelf_life}")
    if total < 0:
        raise ParameterError("total stock must be non-negative")
    counts = np.zeros(shelf_life - 1, dtype=np.int64)
    if total == 0:
        return AgeProfile(counts, shelf_life)
    if not 0 < mean_demand < math.inf:  # also NaN
        raise ParameterError(f"mean_demand must be positive and finite, got {mean_demand!r}")
    n_ages = min(int(math.ceil(total / mean_demand)), shelf_life - 1)
    base, extra = divmod(total, n_ages)
    counts[:n_ages] = base
    counts[:extra] += 1
    return AgeProfile(counts, shelf_life)


@dataclass(frozen=True)
class PeriodOutcome:
    order_placed: bool
    order_qty: int
    demand: int
    urgent: int
    expired: int
    end_inventory: int
    cost: float


def _check_units(name: str, value: int) -> int:
    try:
        units = int(value)
    except (TypeError, ValueError, OverflowError):  # NaN, inf, None, text
        units = None
    if units is None or units != value or units < 0:
        raise ParameterError(f"{name} must be a non-negative integer, got {value!r}")
    return units


def _ring(counts: np.ndarray) -> np.ndarray:
    """Cumulative arrivals of ``AgeProfile.counts``, as a ring read from period 0.

    Units of age ``j + 1`` arrived at period ``-1 - j``; slot ``t % (L - 1)`` holds
    ``C(t - L + 1)``.
    """
    return np.cumsum(counts[::-1])


def _counts(ring: np.ndarray, gone) -> np.ndarray:
    """``AgeProfile.counts`` of a ``_ring`` one period on, with ``gone`` units out."""
    left = np.maximum(np.concatenate((ring[:1], ring[:0:-1])) - gone, 0)  # newest first
    left[:-1] -= left[1:]
    return left


def _advance(ring: np.ndarray, t: int, arrived, gone, orders, demand):
    """Period ``t`` of K trajectories; ``arrived`` is ``C(t - 1)``, ``gone`` the units out.

    Swaps ``C(t - L + 1)`` in the ring for ``C(t)``.  Returns the new ``arrived`` and
    ``gone`` (the end inventory is their difference) and the urgent and expired units.
    """
    arrived = arrived + orders
    taken = np.minimum(gone + demand, arrived)  # oldest first, arrivals last
    slot = t % len(ring)
    expired = np.maximum(ring[slot] - taken, 0)  # cohorts reaching the shelf-life limit
    ring[slot] = arrived
    return arrived, taken + expired, demand - (taken - gone), expired


def step(
    state: AgeProfile, order_qty: int, demand: int, costs: CostParams
) -> tuple[AgeProfile, PeriodOutcome]:
    """Advance one period: arrivals, FIFO issue, urgent top-up, aging, expiry."""
    ring = _ring(state.counts).tolist()
    (outcome,) = _outcomes(_fold(ring, [demand], costs, lambda i, level: order_qty)[0])
    counts = _counts(np.array(ring), ring[0] - outcome.end_inventory)
    return AgeProfile(counts, state.shelf_life), outcome


def _fold(ring: list, demands: list, costs: CostParams, order_fn) -> tuple[list[list], float]:
    """Per-period columns and mean cost of ``_advance``'s period on a ``_ring`` of plain ints.

    The columns are the orders, demands, urgent and expired units, end inventories and costs,
    in ``PeriodOutcome``'s field order.  Period ``i`` orders ``order_fn(i, level)``: the
    initial total, then the last end inventory.  The ring is updated in place.
    """
    arrived = level = ring[-1]
    gone, size = 0, len(ring)
    delivery, holding = costs.routine_delivery, costs.holding
    rush, waste = costs.urgent, costs.wastage
    n = len(demands)
    columns = orders, units, urgents, expireds, levels, period_costs = [[0] * n for _ in range(6)]
    for i, y in enumerate(demands):
        z = order_fn(i, level)
        if type(z) is not int or z < 0:  # anything but a plain non-negative int is checked
            z = _check_units("order_qty", z)
        if type(y) is not int or y < 0:
            y = _check_units("demand", y)
        arrived += z
        taken = min(gone + y, arrived)
        urgent = y - (taken - gone)
        slot = i % size
        expired = max(ring[slot] - taken, 0)
        ring[slot] = arrived
        gone = taken + expired
        level = arrived - gone
        orders[i], units[i], urgents[i], expireds[i], levels[i] = z, y, urgent, expired, level
        # CostParams.period_cost's terms, in its order
        period_costs[i] = delivery * (z > 0) + holding * level + rush * urgent + waste * expired
    average = sum(period_costs) / n if n else 0.0
    return columns, average


def _outcomes(columns: list[list]) -> list[PeriodOutcome]:
    """``PeriodOutcome``s of ``_fold``'s columns."""
    return [PeriodOutcome(row[0] > 0, *row) for row in zip(*columns)]


def _run(initial: AgeProfile, orders: list, demands: list,
         costs: CostParams) -> tuple[list[list], float]:
    """``_fold`` of aligned order/demand streams from ``initial``, failing on an overflow."""
    if len(orders) != len(demands):
        raise ParameterError(
            f"stream length mismatch: {len(orders)} orders vs {len(demands)} demands")
    columns, average = _fold(_ring(initial.counts).tolist(), demands, costs,
                             lambda i, level: orders[i])
    if not math.isfinite(average):  # every cost is non-negative, so an overflow is inf
        raise ParameterError("orders, demands or costs so large that the average cost overflows")
    return columns, average


def simulate(
    initial: AgeProfile, orders, demands, costs: CostParams
) -> tuple[list[PeriodOutcome], float]:
    """Fold one period over aligned order/demand streams; also return mean cost."""
    columns, average = _run(initial, list(orders), list(demands), costs)
    return _outcomes(columns), average


def brute_force_unit_sim(
    initial_ages, orders, demands, costs: CostParams, shelf_life: int = 32
) -> tuple[list[PeriodOutcome], float]:
    """Unit-level re-implementation of ``simulate`` (verification oracle).

    Every physical unit carries its own age; issue is strictly oldest-first
    and units are discarded the period they reach ``shelf_life``.
    """
    orders, demands = list(orders), list(demands)
    if len(orders) != len(demands):
        raise ParameterError(
            f"stream length mismatch: {len(orders)} orders vs {len(demands)} demands")
    ages = np.sort(np.asarray(list(initial_ages), dtype=np.int64))
    if ages.size and (ages.min() < 1 or ages.max() > shelf_life - 1):
        raise ParameterError("initial unit ages must lie in 1..shelf_life-1")

    outcomes: list[PeriodOutcome] = []
    for z, y in zip(orders, demands):
        z = _check_units("order_qty", z)
        y = _check_units("demand", y)
        ages = np.concatenate([np.zeros(z, dtype=np.int64), ages])  # freshest first
        issued = min(y, ages.size)
        urgent = y - issued
        if issued:
            ages = ages[: ages.size - issued]  # oldest live at the array tail
        ages = ages + 1
        expired = int((ages >= shelf_life).sum())
        ages = ages[ages < shelf_life]
        end_inventory = int(ages.size)
        cost = (costs.routine_delivery * (1 if z > 0 else 0) + costs.holding * end_inventory
                + costs.urgent * urgent + costs.wastage * expired)
        outcomes.append(PeriodOutcome(z > 0, z, y, urgent, expired, end_inventory, cost))
    average = sum(o.cost for o in outcomes) / len(outcomes) if outcomes else 0.0
    return outcomes, average


def write_trajectory_csv(path, outcomes) -> None:
    """Columns: period, order, demand, urgent, expired, end_inventory, cost."""
    write_table(path, ["period", "order", "demand", "urgent", "expired", "end_inventory", "cost"],
                ([i, o.order_qty, o.demand, o.urgent, o.expired, o.end_inventory, number(o.cost)]
                 for i, o in enumerate(outcomes, start=1)))


def read_stream_csv(path) -> list[int]:
    rows = read_rows(path)
    if (header := next(rows)) != ["period", "units"]:
        raise SchemaError(f"{path}: stream header must be period,units: {header}")
    values = []
    for row_number, row in rows:
        try:
            values.append(_check_units("units", int(row[1])))
        except (ValueError, ParameterError):
            raise SchemaError(f"{path}: row {row_number}: units must be a non-negative "
                              f"integer, got {row[1]!r}") from None
    return values

