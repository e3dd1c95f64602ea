"""FIFO inventory state machine for perishable units.

Each period runs the same event sequence: ordered units arrive as the
freshest stock, demand is issued oldest-first, unmet demand is covered by a
same-period urgent delivery that never enters inventory, and surviving units
then age by one period.  Units reaching the shelf-life limit are discarded
and charged as wastage.  The period cost is

    delivery * (order placed) + holding * end inventory
    + urgent * shortage units + wastage * expired units.

With oldest-first issue and a fixed shelf life ``L`` no age buckets are
needed: the cumulative arrivals ``C(t)`` and the units ``G(t)`` gone by issue or
expiry describe the stock exactly, the cumulative-curve view of a FIFO queue
(Nahmias, Operations Research 30(4), 1982).  A period updates the two: the
order adds to ``C``, and ``G(t) = max(C(t - L + 1), min(G(t - 1) + y(t), C(t)))``
with ``C(t - L + 1)`` read from a ring of the last ``L - 1`` values of ``C``,
its slot taken from a cycle of the slot numbers.  A stock is a count that
int64 holds: ``AgeProfile`` and ``young_stock`` refuse a total of ``2**63``
units or more.  ``_fold`` runs the period on plain ints for one trajectory
under one order rule given as data (``policy.order_quantity`` is its scalar
form) and stores ``C`` and ``G`` alone; one vectorised pass then derives its
``(5, periods)`` unit table (orders, demands, urgent and expired units, end
inventories), int64 where int64 holds every value and exact Python ints
otherwise.  Its callers check its units: ``simulate`` and ``step`` each
period's order before its demand.  ``CostParams`` stores its coefficients as
floats, so one ``CostParams.period_cost`` call on the table's rows as float
arrays prices the trajectory after the fold, and the scalar form that prices
``step``'s one period gives the same floats.  Only the public functions that
return ``PeriodOutcome``s build them from the priced table: ``simulate`` (a
whole fold), ``step`` (one period behind an ``AgeProfile``, converted at the
boundary) and ``policy.run_policy``.  ``policy.evaluate_strategy`` and
``policy.cost_under_actual`` read the table.  For the gold standard, which
orders each period's demand, ``_gold`` gives the same table in closed form:
a cumulative sum and a running maximum in one int64 pass.  ``policy``'s
sweeps run the same period on ``(K,)`` vectors, one row per candidate, and
price each block of periods with one ``CostParams.period_cost`` call on
``(periods, K)`` arrays.  No pipeline command calls ``step``: it stays on the
library surface as the independent single-period loop that the benchmark's
cost and replay checks and the exhaustive-search acceptance test fold by hand.

``brute_force_unit_sim`` re-runs the same dynamics tracking every physical
unit individually and exists purely as a verification oracle for
``simulate`` and ``step``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SchemaError, nonnegative_finite, whole
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
    """Per-order delivery, per-unit holding/urgent/wastage cost coefficients, each stored
    as a ``float``, so that float arrays of unit counts are priced as the scalar form
    prices each period."""

    routine_delivery: float = 100.0
    holding: float = 1.0
    urgent: float = 300.0
    wastage: float = 50.0

    def __post_init__(self) -> None:
        for name in ("routine_delivery", "holding", "urgent", "wastage"):
            nonnegative_finite(self, (name,))
            object.__setattr__(self, name, float(getattr(self, name)))

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
        object.__setattr__(self, "shelf_life", whole("shelf_life", self.shelf_life))
        if self.shelf_life < 2:
            raise ParameterError(f"shelf_life must be >= 2, got {self.shelf_life}")
        counts = self.counts
        # an integer array (young_stock's) holds whole numbers; others are checked a count at a time
        if not (isinstance(counts, np.ndarray) and counts.dtype.kind in "iu"):
            if not np.iterable(counts):
                raise ParameterError(f"age counts must be a sequence, got {counts!r}")
            counts = [whole(f"age {j + 1} count", c) for j, c in enumerate(counts)]
        try:
            counts = np.asarray(counts, dtype=np.int64)
        except OverflowError:
            raise ParameterError("age counts must each be below 2**63 units") from None
        if counts.ndim != 1 or counts.size != self.shelf_life - 1:
            raise ParameterError(
                f"age profile needs exactly {self.shelf_life - 1} buckets, got {counts.size}"
            )
        if (counts < 0).any():
            raise ParameterError("age counts must be non-negative")
        if sum(counts.tolist()) >= 2**63:  # the int64 total would wrap negative
            raise ParameterError("age counts must total below 2**63 units")
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
    shelf_life, total = whole("shelf_life", shelf_life), whole("total", total)
    if shelf_life < 2:  # before it sizes the counts or divides
        raise ParameterError(f"shelf_life must be >= 2, got {shelf_life}")
    if total < 0:
        raise ParameterError("total stock must be non-negative")
    if total >= 2**63:
        raise ParameterError("total stock must be below 2**63 units")
    counts = np.zeros(shelf_life - 1, dtype=np.int64)
    if total == 0:
        return AgeProfile(counts, shelf_life)
    if not 0 < mean_demand < math.inf:  # also NaN
        raise ParameterError(f"mean_demand must be positive and finite, got {mean_demand!r}")
    n_ages = math.ceil(min(total / mean_demand, shelf_life - 1))  # the ratio may be inf
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


def _units(name: str, values) -> list[int]:
    """``values`` as plain ints, each checked as ``_check_units`` checks it."""
    return [v if type(v) is int and v >= 0 else _check_units(name, v) for v in values]


def _starting_stock(initial, demands: list[int], shelf_life: int | None) -> AgeProfile:
    """``initial`` if an ``AgeProfile``, else that many young units at the mean of the checked
    ``demands`` (>= 1).  ``shelf_life`` defaults to the stock's own, or 32 for a unit count;
    one that contradicts the stock's raises."""
    if shelf_life is not None:
        shelf_life = whole("shelf_life", shelf_life)
    if isinstance(initial, AgeProfile):
        if shelf_life not in (None, initial.shelf_life):
            raise ParameterError(f"shelf_life {shelf_life} contradicts the starting stock's "
                                 f"shelf life {initial.shelf_life}")
        return initial
    total = _check_units("initial", initial)
    mean_demand = sum(demands) / len(demands) if demands else 1.0
    return young_stock(total, max(mean_demand, 1.0), 32 if shelf_life is None else shelf_life)


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


def step(
    state: AgeProfile, order_qty: int, demand: int, costs: CostParams
) -> tuple[AgeProfile, PeriodOutcome]:
    """Advance one period: arrivals, FIFO issue, urgent top-up, aging, expiry.

    The order is checked before the demand.  An order that takes the stock to ``2**63`` units
    or more raises, as ``young_stock`` refuses such a total."""
    ring = _ring(state.counts).tolist()
    order_qty = _check_units("order_qty", order_qty)
    if ring[-1] + order_qty >= 2**63:  # the stock with the order must fit its int64 counts
        raise ParameterError(f"order_qty must keep the stock below 2**63 units, got "
                             f"{order_qty} on {ring[-1]} units")
    demand = _check_units("demand", demand)
    z, _, urgent, expired, level = row = _fold(ring, [demand], [order_qty])[:, 0].tolist()
    outcome = PeriodOutcome(z > 0, *row, costs.period_cost(z > 0, level, urgent, expired))
    counts = _counts(np.array(ring), ring[0] - level)
    return AgeProfile(counts, state.shelf_life), outcome


def _fold(ring: list, demands: list, units, below=None, lift=0, cap=math.inf) -> np.ndarray:
    """The ``(5, periods)`` unit table of the FIFO period on a ``_ring`` of plain ints, its rows
    in ``PeriodOutcome``'s field order; the callers check every unit and demand.

    The order rule is data, ``policy.order_quantity`` a period at a time: seeing stock ``I``
    (the initial total, then the last end inventory), period ``i`` orders
    ``clamp(units[i], lift - I, cap - I)`` if ``I < below[i]``, else nothing; by default
    ``units[i]`` unclamped.  The loop keeps the curves ``C`` and ``G`` alone.  A period then
    orders ``C(t) - C(t - 1)``, issues ``min(y(t), C(t) - G(t - 1))`` from stock, tops the rest
    up urgently, and its other units gone expired, leaving ``C(t) - G(t)``.  Every value lies
    between 0 and ``C`` or a demand, so the table is int64 where int64 holds those and exact
    Python ints otherwise.  The ring is updated in place.
    """
    below = itertools.repeat(math.inf) if below is None else below
    arrived = level = ring[-1]
    gone = 0
    n = len(demands)
    arrivals, gones = [arrived] * (n + 1), [gone] * (n + 1)  # C(t) and G(t) from t = -1
    slots = itertools.cycle(range(len(ring)))  # period t reads C(t - L + 1) from slot t % (L - 1)
    for i, y, u, b, slot in zip(range(1, n + 1), demands, units, below, slots):
        if level < b:  # the stock after the order, clamped to lift..cap
            stock = level + u if level + u > lift else lift
            arrived = gone + (stock if stock < cap else cap)
        taken = gone + y  # oldest first, arrivals last
        if taken > arrived:
            taken = arrived
        oldest = ring[slot]  # C(t - L + 1): every unit that arrived by then is gone
        ring[slot] = arrived
        gone = oldest if oldest > taken else taken
        level = arrived - gone
        arrivals[i] = arrived
        gones[i] = gone
    try:
        curves, y = np.array((arrivals, gones), dtype=np.int64), np.array(demands, dtype=np.int64)
    except OverflowError:
        curves, y = np.array((arrivals, gones), dtype=object), np.array(demands, dtype=object)
    table = np.empty((5, n), dtype=y.dtype)
    # orders C(t) - C(t - 1) and, in the expired row, the units gone G(t) - G(t - 1)
    np.subtract(curves[:, 1:], curves[:, :-1], out=table[::3])
    table[1] = y
    c, g = curves[:, 1:]
    issued = np.minimum(y, c - curves[1, :-1], out=table[2])  # from the stock C(t) - G(t - 1)
    table[3] -= issued
    np.subtract(y, issued, out=table[2])
    np.subtract(c, g, out=table[4])
    return table


def _gold(ring: np.ndarray, demands: list[int]) -> np.ndarray:
    """``_fold(ring.tolist(), demands, demands)`` of checked ``demands``, as one int64 table.

    Ordering each demand, no unit is short, the arrivals are ``C(t) = C(-1) + Y(t)`` with ``Y``
    the cumulative demand, and the units gone are ``G(t) = Y(t) + max(0, running max of
    C(t - L + 1) - Y(t))``.  Where int64 cannot hold the arrivals, the fold's table instead."""
    total = int(ring[-1])  # C(-1)
    if total + sum(demands) >= 2**63:
        return _fold(ring.tolist(), demands, demands)
    table = np.zeros((5, len(demands)), dtype=np.int64)  # _fold's rows: urgent stays 0
    table[:2] = demands
    demanded = np.cumsum(table[1])  # Y(t)
    oldest = np.concatenate((ring, demanded + total))[:len(demands)]  # C(t - L + 1)
    beyond = np.maximum.accumulate(np.maximum(oldest - demanded, 0))  # G(t) - Y(t)
    table[3] = beyond  # expired: G(t) - G(t - 1) - y(t)
    table[3, 1:] -= beyond[:-1]
    table[4] = total - beyond  # left: C(t) - G(t)
    return table


def _outcomes(table: np.ndarray, cost: list) -> list[PeriodOutcome]:
    """``PeriodOutcome``s of a unit table and its periods' costs."""
    return [PeriodOutcome(row[0] > 0, *row) for row in zip(*table.tolist(), cost)]


@np.errstate(over="ignore")  # an overflow is an infinite cost, as in the scalar form
def _priced(table: np.ndarray, costs: CostParams) -> tuple[list, float]:
    """Each period's cost of ``_fold``'s or ``_gold``'s unit table, priced by one
    ``costs.period_cost`` call on its rows as float arrays, and their mean, failing on an
    overflow."""
    urgent, expired, levels = table[2:].astype(float)
    cost = costs.period_cost(table[0] > 0, levels, urgent, expired).tolist()
    average = sum(cost) / len(cost) if cost else 0.0
    if not math.isfinite(average):  # every cost is non-negative, so an overflow is inf
        raise ParameterError("orders, demands or costs so large that the average cost overflows")
    return cost, average


def simulate(
    initial: AgeProfile, orders, demands, costs: CostParams
) -> tuple[list[PeriodOutcome], float]:
    """Fold one period over aligned order/demand streams, checked period by period with the
    order before the demand; also return mean cost."""
    orders, demands = list(orders), list(demands)
    if len(orders) != len(demands):
        raise ParameterError(
            f"stream length mismatch: {len(orders)} orders vs {len(demands)} demands")
    units = [v if type(v) is int and v >= 0 else _check_units(name, v) for name, v in
             zip(itertools.cycle(("order_qty", "demand")), itertools.chain(*zip(orders, demands)))]
    table = _fold(_ring(initial.counts).tolist(), units[1::2], units[::2])
    cost, average = _priced(table, costs)
    return _outcomes(table, cost), average


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
    for row_number, (period, units) in rows:
        if period != str(row_number - 1):  # as write_trajectory_csv numbers its rows
            raise SchemaError(f"{path}: row {row_number}, column period: expected "
                              f"{row_number - 1}, got {period!r}")
        try:  # ASCII digits: int() alone also takes "1_0", " 5", "+7" and other scripts' digits
            if not (units.isascii() and units.isdigit()):
                raise ValueError(units)
            values.append(int(units))
        except ValueError:  # or more digits than int() converts
            raise SchemaError(f"{path}: row {row_number}: units must be a non-negative "
                              f"integer, got {units!r}") from None
    return values

