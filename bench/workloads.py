"""The three benchmark workloads and the checks on their outputs.

Each workload has the same shape:

- ``setup(seed, workdir)`` makes the inputs from the seed and warms up.  It is
  what ``setup_s`` times, in a fresh process.
- ``run(rep_dir, perf)`` is one repeat of the timed unit, timed with the
  clock ``perf``.  It returns a ``Repeat`` holding what the checks need.
- ``check(repeats, scratch)`` runs outside the timed section.  It returns the
  number of operations attempted and failed, the two quality metrics and a
  few informational values.

Why each workload exists, and which layer should move it, is in README.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bloodbank import cli, datagen, forecast, gbrt, inventory, policy
from bloodbank.timeseries import StlConfig

import spans


@dataclass
class Repeat:
    """One timed repeat: its wall time, operations, and outputs for the checks."""

    start: float = 0.0
    wall: float = 0.0
    ops: int = 0
    failed_ops: set = field(default_factory=set)  # indices of operations that failed
    output: object = None


@dataclass
class CheckResult:
    attempted: int
    failed: int
    forecast_rmse: float
    policy_gap_per_day: float
    info: dict


def _round_units(value: float) -> int:
    return max(0, int(math.floor(value + 0.5)))


def _average_cost(profile, orders, demands, costs) -> float:
    """Fold ``inventory.step`` over explicit order and demand streams."""
    state, total = profile, 0.0
    for z, y in zip(orders, demands):
        state, outcome = inventory.step(state, z, y, costs)
        total += outcome.cost
    return total / len(demands)


def _rule_orders(y_hat, demands, profile, costs, target, reorder, kind, start_weekday):
    """Independent re-statement of the target/reorder rule (ACCEPT-07 style).

    ``reorder=None`` is the target sweep's rule: order the rounded forecast,
    capped at the target.
    """
    state, level, horizon = profile, profile.total, len(demands)
    orders, outcomes, total = [], [], 0.0
    for i, y in enumerate(demands):
        if reorder is None:
            z = max(0, min(_round_units(y_hat[i]), target - level))
        else:
            block = 1
            if kind == "semiweekly":
                placement = (start_weekday + i - 1) % 7
                block = {0: 3, 3: 4}.get(placement, 0)
            z = 0
            if block and level < reorder:
                units = _round_units(sum(y_hat[i: min(i + block, horizon)]))
                z = min(max(units, reorder - level), target - level)
        state, outcome = inventory.step(state, z, y, costs)
        level = outcome.end_inventory
        total += outcome.cost
        orders.append(z)
        outcomes.append(outcome)
    return total / horizon, orders, outcomes


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rmse(pred, actual) -> float:
    diff = np.asarray(pred, dtype=float) - np.asarray(actual, dtype=float)
    return float(np.sqrt(np.mean(diff * diff)))


# ---------------------------------------------------------------------------
# paper_pipeline: the six CLI commands with the README's defaults
# ---------------------------------------------------------------------------

PIPELINE_DAYS = 4015
PIPELINE_TRAIN_DAYS = 3650
PIPELINE_HORIZON = 365
PIPELINE_INITIAL = 780
STAGES = ("generate", "decompose", "train", "forecast", "optimize", "compare")


def _pipeline_commands(root: Path, days, train_days, horizon, initial, seed, extra_train=()):
    d = {stage: root / stage for stage in STAGES}
    data = d["generate"] / "dataset.csv"
    return d, [
        ["generate", "--days", days, "--seed", seed, "--out-dir", d["generate"]],
        ["decompose", "--data", data, "--out-dir", d["decompose"]],
        ["train", "--data", data, "--train-days", train_days, *extra_train,
         "--out-dir", d["train"]],
        ["forecast", "--model", d["train"] / "model.json", "--data", data,
         "--horizon", horizon, "--out-dir", d["forecast"]],
        ["optimize", "--report", d["train"] / "train_report.csv", "--initial", initial,
         "--out-dir", d["optimize"]],
        ["compare", "--report", d["train"] / "holdout_report.csv",
         "--policy", d["optimize"] / "policy.json", "--initial", initial,
         "--out-dir", d["compare"]],
    ]


def _run_cli(command) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main([str(part) for part in command])
        except Exception:  # a crash is a failed operation, not a dead benchmark
            return -1


class PaperPipeline:
    name = "paper_pipeline"

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        # warm-up: the same six commands on a small dataset and narrow grids
        _, commands = _pipeline_commands(workdir / "warmup", 120, 90, 30, 100, seed,
                                         extra_train=("--rounds", "5"))
        for command in commands:
            if _run_cli(command) != 0:
                raise RuntimeError(f"warm-up command failed: {command[0]}")

    def run(self, rep_dir: Path, perf) -> Repeat:
        dirs, commands = _pipeline_commands(rep_dir, PIPELINE_DAYS, PIPELINE_TRAIN_DAYS,
                                            PIPELINE_HORIZON, PIPELINE_INITIAL, self.seed)
        rep = Repeat(output=dirs, start=perf())
        for index, command in enumerate(commands):
            rep.ops += 1
            if _run_cli(command) != 0:
                rep.failed_ops.add(index)
        rep.wall = perf() - rep.start
        return rep

    def check(self, repeats: list[Repeat], scratch: Path) -> CheckResult:
        first = repeats[0]
        dirs = first.output
        bad = set(first.failed_ops)
        info = {}

        # every manifest output exists and parses
        outputs = {}
        for index, stage in enumerate(STAGES):
            try:
                manifest = json.loads((dirs[stage] / "manifest.json").read_text())
                for name in manifest["outputs"]:
                    path = dirs[stage] / name
                    if name.endswith(".json"):
                        json.loads(path.read_text())
                    elif name.endswith(".csv"):
                        with open(path, newline="") as handle:
                            rows = list(csv.reader(handle))
                        if len(rows) < 2 or len({len(r) for r in rows}) != 1:
                            raise ValueError(f"{name}: ragged or empty")
                    elif not path.read_text().strip():
                        raise ValueError(f"{name}: empty")
                    outputs[(stage, name)] = path
            except (OSError, ValueError, KeyError):
                bad.add(index)

        # artifacts are byte-identical across repeats; a single repeat is
        # compared with a rerun of every command except optimize, whose rerun
        # would double the run
        digests = {key: _sha256(path) for key, path in outputs.items()}
        others = [r.output for r in repeats[1:]]
        if not others:
            rerun, commands = _pipeline_commands(scratch / "rerun", PIPELINE_DAYS,
                                                 PIPELINE_TRAIN_DAYS, PIPELINE_HORIZON,
                                                 PIPELINE_INITIAL, self.seed)
            commands[5][commands[5].index("--policy") + 1] = dirs["optimize"] / "policy.json"
            rerun["optimize"] = dirs["optimize"]
            for index, command in enumerate(commands):
                if index != 4 and _run_cli(command) != 0:
                    bad.add(index)
            others.append(rerun)
        for other in others:
            for (stage, name), digest in digests.items():
                path = other[stage] / name
                if not path.exists() or _sha256(path) != digest:
                    bad.add(STAGES.index(stage))
        info["optimize_rerun_compared"] = len(repeats) > 1

        # sweep rows agree with an independent loop over inventory.step
        if 4 not in bad and 2 not in bad:
            try:
                if not self._check_policy(dirs, info):
                    bad.add(4)
            except (KeyError, ValueError, IndexError):
                bad.add(4)

        rmse = gap = float("nan")
        if not bad:
            train = forecast.read_forecast_csv(dirs["train"] / "train_report.csv")
            rmse = _rmse(train.predicted, train.actual)
            gap = float(np.mean([row[2] for row in
                                 self._sweep(dirs["optimize"] / "reorder_sweep_daily.csv")]))
            with open(dirs["train"] / "metrics.csv", newline="") as handle:
                holdout = dict(csv.reader(handle))
            info["holdout_rmse"] = float(holdout["rmse"])
            info["holdout_mape_percent"] = float(holdout["mape_percent"])
        return CheckResult(
            attempted=sum(r.ops for r in repeats),
            failed=sum(len(r.failed_ops) for r in repeats[1:]) + len(bad),
            forecast_rmse=rmse, policy_gap_per_day=gap, info=info,
        )

    @staticmethod
    def _sweep(path):
        with open(path, newline="") as handle:
            return [(int(r[0]), float(r[1]), float(r[2])) for r in list(csv.reader(handle))[1:]]

    def _check_policy(self, dirs, info) -> bool:
        report = forecast.read_forecast_csv(dirs["train"] / "train_report.csv")
        demands = [int(round(v)) for v in report.actual]
        y_hat = [float(v) for v in report.predicted]
        start_weekday = report.dates[0].weekday()
        costs = inventory.CostParams()
        profile = inventory.young_stock(PIPELINE_INITIAL, max(sum(demands) / len(demands), 1.0),
                                        32)
        gold = _average_cost(profile, demands, demands, costs)
        doc = json.loads((dirs["optimize"] / "policy.json").read_text())
        rng = np.random.default_rng(self.seed)
        ok = True
        chosen = {"target_sweep": doc["inventory_target"], "reorder_sweep_daily":
                  doc["reorder_daily"], "reorder_sweep_semiweekly": doc["reorder_semiweekly"]}
        for sweep, pick in chosen.items():
            rows = self._sweep(dirs["optimize"] / f"{sweep}.csv")
            # the choice is the sweep's best objective, ties to the smallest candidate
            if pick != min(rows, key=lambda row: (row[2], row[0]))[0]:
                ok = False
            picked = [i for i, row in enumerate(rows) if row[0] == pick]
            sample = sorted({0, len(rows) - 1, int(rng.integers(len(rows))), *picked})
            kind = sweep.rsplit("_", 1)[-1]
            for i in sample:
                candidate = rows[i][0]
                if sweep == "target_sweep":
                    avg, _, _ = _rule_orders(y_hat, demands, profile, costs, candidate, None,
                                             "daily", start_weekday)
                else:
                    avg, _, _ = _rule_orders(y_hat, demands, profile, costs,
                                             doc["inventory_target"], candidate, kind,
                                             start_weekday)
                if (candidate, avg, abs(gold - avg)) != rows[i]:
                    ok = False
            if sweep == "reorder_sweep_daily" and picked:
                info["chosen_daily_gap_per_day"] = rows[picked[0]][2]
        info["policy"] = [doc["inventory_target"], doc["reorder_daily"],
                          doc["reorder_semiweekly"]]
        return ok


# ---------------------------------------------------------------------------
# model_selection: grid search with forward-chained CV, then feature selection
# ---------------------------------------------------------------------------

SELECTION_DAYS = 2191  # six years
SELECTION_FOLDS = 3
SELECTION_ROUNDS = 25
SELECTION_T_WINDOWS = (365, 729)
SELECTION_DEPTHS = (2, 3)


def selection_records(seed: int):
    """Two planted covariates (lag 7 and lag 1) and ten noise covariates: 20 features."""
    noise = tuple(datagen.CovariateSpec(name=f"noise_{i}", effect_size=0.0,
                                        lag=1 if i % 2 else 7) for i in range(10))
    covariates = (datagen.CovariateSpec(name="planted_lag7", effect_size=12.0, lag=7),
                  datagen.CovariateSpec(name="planted_lag1", effect_size=9.0, lag=1)) + noise
    return datagen.generate(datagen.GenConfig(n_days=SELECTION_DAYS, seed=seed,
                                              covariates=covariates))


def selection_lattice():
    # every StlConfig is shared by several GbrtConfigs; long, locally constant
    # trend windows keep the drift extrapolation, and so the CV score, steady
    # across seeds, and a single non-robust pass keeps their cost near that of
    # the boosting
    return [(StlConfig(t_window=t, n_inner=1, n_outer=0, loess_degree=0),
             gbrt.GbrtConfig(n_rounds=SELECTION_ROUNDS, max_depth=depth, seed=1))
            for t in SELECTION_T_WINDOWS for depth in SELECTION_DEPTHS]


class ModelSelection:
    name = "model_selection"

    def setup(self, seed: int, workdir: Path) -> None:
        self.records = selection_records(seed)
        self.lattice = selection_lattice()
        self.fits = 0
        spans.replace_everywhere(forecast.fit_hybrid, self._counted(forecast.fit_hybrid))
        # warm-up: a small lattice on a short window
        small = self.records[:240]
        warm = [(StlConfig(t_window=91), gbrt.GbrtConfig(n_rounds=3, max_depth=2, seed=1))]
        best = forecast.grid_search_cv(small, warm, k=2)
        forecast.iterative_feature_selection(small, *best)

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.fits += 1
            return fn(*args, **kwargs)
        return counted

    def run(self, rep_dir: Path, perf) -> Repeat:
        before = self.fits
        rep = Repeat(start=perf())
        try:
            best = forecast.grid_search_cv(self.records, self.lattice, k=SELECTION_FOLDS)
            selected = forecast.iterative_feature_selection(self.records, *best)
            rep.output = (self.lattice.index(best), selected)
        except Exception:
            rep.output = None
        rep.wall = perf() - rep.start
        rep.ops = max(1, self.fits - before)
        if rep.output is None:
            rep.failed_ops = set(range(rep.ops))
        return rep

    def check(self, repeats: list[Repeat], scratch: Path) -> CheckResult:
        first = repeats[0]
        records, k = self.records, SELECTION_FOLDS
        info = {}
        ok = first.output is not None
        reported = float("nan")
        if ok:
            winner, selected = first.output
            stl_config, gbrt_config = self.lattice[winner]
            # the winner's score from an independent forward-chained CV loop
            n = len(records)
            bounds = [round(j * n / (k + 1)) for j in range(k + 2)]
            fold = []
            for j in range(1, k + 1):
                train, valid = records[:bounds[j]], records[bounds[j]:bounds[j + 1]]
                model = forecast.fit_hybrid(train, stl_config, gbrt_config)
                fold.append(_rmse(forecast.predict_daily(model, valid),
                                  [r.demand for r in valid]))
            reported = forecast.cv_rmse(records, stl_config, gbrt_config, k=k)
            info["winner"] = {"t_window": stl_config.t_window, "max_depth": gbrt_config.max_depth}
            info["selected"] = selected
            ok = (math.isclose(reported, float(np.mean(fold)), rel_tol=1e-12)
                  and "planted_lag7" in selected)
        failed = 0 if ok else first.ops
        failed += sum(r.ops for r in repeats[1:]
                      if r.output is None or r.output != first.output)
        gap = self._policy_gap(*first.output) if ok else float("nan")
        return CheckResult(attempted=sum(r.ops for r in repeats), failed=failed,
                           forecast_rmse=reported, policy_gap_per_day=gap, info=info)

    def _policy_gap(self, winner, selected) -> float:
        """|gold - cost| per day of a daily policy fed by the selected model.

        The model is fitted on the feature-selection training part and
        forecasts its held-out tail; the policy levels are fixed multiples of
        the mean training demand.
        """
        n = len(self.records)
        cut = n - max(1, round(0.2 * n))
        train, holdout = self.records[:cut], self.records[cut:]
        model = forecast.fit_hybrid(train, *self.lattice[winner], feature_names=selected)
        y_hat = forecast.predict_daily(model, holdout)
        demands = [int(r.demand) for r in holdout]
        mean = float(np.mean([r.demand for r in train]))
        initial = round(4 * mean)
        params = policy.PolicyParams(round(4 * mean), round(2 * mean))
        weekday = holdout[0].date.weekday()
        gold = policy.evaluate_strategy("gold", y_hat, demands, initial, inventory.CostParams(),
                                        start_weekday=weekday)
        daily = policy.evaluate_strategy("daily", y_hat, demands, initial,
                                         inventory.CostParams(), params=params,
                                         start_weekday=weekday)
        return abs(gold.cost_mean - daily.cost_mean)


# ---------------------------------------------------------------------------
# scenario_replay: many independent single-policy evaluations
# ---------------------------------------------------------------------------

REPLAY_DAYS = 365
SHELF_LIVES = (5, 8, 12, 16, 24, 32)
DEMAND_SCALES = (10, 40, 120, 400)
COST_RATIOS = {  # each of urgent, wastage and holding in turn made dear
    "urgent": inventory.CostParams(routine_delivery=100.0, holding=1.0, urgent=1500.0,
                                   wastage=50.0),
    "wastage": inventory.CostParams(routine_delivery=100.0, holding=1.0, urgent=300.0,
                                    wastage=500.0),
    "holding": inventory.CostParams(routine_delivery=100.0, holding=10.0, urgent=300.0,
                                    wastage=50.0),
}
# (target, reorder level) in days of mean demand: a bank keeps deep stock when
# rush deliveries are dear and lean stock when wastage or holding is dear
POLICY_DAYS = {"urgent": (10, 5), "wastage": (4, 1.5), "holding": (3, 1)}
STRATEGIES = ("baseline", "gold", "daily", "semiweekly")
ORACLE_SAMPLE = 8  # evaluations re-run through brute_force_unit_sim


@dataclass(frozen=True)
class Scenario:
    shelf_life: int
    cost_name: str
    scale: int
    demands: tuple
    y_hat: tuple
    initial: int
    params: policy.PolicyParams
    baseline_target: int
    start_weekday: int


def replay_scenarios(seed: int) -> list[Scenario]:
    """One generated demand stream per (shelf life, cost ratio, demand scale)."""
    scenarios = []
    for shelf_life in SHELF_LIVES:
        for cost_name in COST_RATIOS:
            for scale in DEMAND_SCALES:
                factor = scale / 92.0
                config = datagen.GenConfig(
                    n_days=REPLAY_DAYS, base_level=float(scale), trend_slope=0.0,
                    weekday_effects=tuple(factor * v for v in
                                          (-6.0, -2.0, 3.0, 8.0, 13.0, -7.0, -9.0)),
                    covariates=(datagen.CovariateSpec(name="lab", effect_size=12.0 * factor,
                                                      lag=7),),
                    noise_sd=0.2 * scale, seed=seed * 1000 + len(scenarios),
                )
                records, truth = datagen.generate_full(config)
                demands = tuple(int(r.demand) for r in records)
                mean = sum(demands) / len(demands)
                initial = round(6 * mean)
                scenarios.append(Scenario(
                    shelf_life=shelf_life, cost_name=cost_name, scale=scale, demands=demands,
                    # the forecast is the generator's own mean: its error is the noise
                    y_hat=tuple(float(v) for v in
                                truth.trend + truth.weekday + truth.covariate_effect),
                    initial=initial,
                    params=policy.PolicyParams(*(round(d * mean)
                                                 for d in POLICY_DAYS[cost_name])),
                    baseline_target=round(1.7 * initial),
                    start_weekday=config.start_date.weekday(),
                ))
    return scenarios


def _evaluate(s: Scenario, strategy: str):
    return policy.evaluate_strategy(
        strategy, s.y_hat, s.demands, s.initial, COST_RATIOS[s.cost_name],
        params=s.params, baseline_target=s.baseline_target,
        start_weekday=s.start_weekday, shelf_life=s.shelf_life)


class ScenarioReplay:
    name = "scenario_replay"

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.scenarios = replay_scenarios(seed)
        for strategy in STRATEGIES:  # warm-up
            _evaluate(self.scenarios[0], strategy)

    def run(self, rep_dir: Path, perf) -> Repeat:
        rep = Repeat(output=[], start=perf())
        for s in self.scenarios:
            for strategy in STRATEGIES:
                try:
                    summary = _evaluate(s, strategy)
                except Exception:
                    summary = None
                    rep.failed_ops.add(rep.ops)
                rep.output.append(summary)
                rep.ops += 1
        rep.wall = perf() - rep.start
        return rep

    def check(self, repeats: list[Repeat], scratch: Path) -> CheckResult:
        first = repeats[0]
        bad = set(first.failed_ops)
        wasted = urgent = 0
        checked, eventful = [], []  # indices only: each trajectory is dropped once checked
        for index, summary in enumerate(first.output):
            if summary is None:
                continue
            s, strategy = self._scenario(index)
            orders, outcomes, profile = self._replay(s, strategy)
            if not self._conserves(profile, orders, outcomes) or not self._matches(
                    summary, outcomes, strategy):
                bad.add(index)
            wasted += any(o.expired for o in outcomes)
            urgent += any(o.urgent for o in outcomes)
            checked.append(index)
            if any(o.expired or o.urgent for o in outcomes):
                eventful.append(index)
        # a sample, taken where units were wasted or rushed when possible, must
        # match the unit-by-unit oracle
        rng = np.random.default_rng(self.seed)
        pool = eventful if len(eventful) >= ORACLE_SAMPLE else checked
        for pick in rng.choice(len(pool), size=min(ORACLE_SAMPLE, len(pool)), replace=False):
            index = pool[int(pick)]
            s, strategy = self._scenario(index)
            orders, outcomes, profile = self._replay(s, strategy)
            oracle, _ = inventory.brute_force_unit_sim(
                profile.unit_ages(), orders, s.demands, COST_RATIOS[s.cost_name], s.shelf_life)
            if oracle != outcomes:
                bad.add(index)
        reference = [repr(x) for x in first.output]
        failed = len(bad) + sum(
            sum(1 for a, b in zip(reference, r.output) if repr(b) != a) for r in repeats[1:])
        gaps, supply_sq = [], []
        for i, s in enumerate(self.scenarios):
            gold, daily, semiweekly = first.output[4 * i + 1: 4 * i + 4]
            if gold is not None and daily is not None:
                gaps.append(abs(gold.cost_mean - daily.cost_mean))
            # the forecast-driven strategies' units ordered per day against mean demand
            mean = sum(s.demands) / len(s.demands)
            for summary in (daily, semiweekly):
                if summary is not None:
                    supply_sq.append((self._ordered_per_day(summary) - mean) ** 2)
        return CheckResult(
            attempted=sum(r.ops for r in repeats), failed=failed,
            forecast_rmse=math.sqrt(float(np.mean(supply_sq))) if supply_sq else float("nan"),
            policy_gap_per_day=float(np.mean(gaps)) if gaps else float("nan"),
            info={"evaluations_with_waste": wasted, "evaluations_with_urgent": urgent,
                  "evaluations": len(first.output)},
        )

    def _scenario(self, index: int) -> tuple[Scenario, str]:
        return self.scenarios[index // len(STRATEGIES)], STRATEGIES[index % len(STRATEGIES)]

    @staticmethod
    def _ordered_per_day(summary) -> float:
        if not summary.days_with_orders:
            return 0.0
        return summary.days_with_orders * summary.order_qty_mean / summary.periods

    @staticmethod
    def _replay(s: Scenario, strategy: str):
        costs = COST_RATIOS[s.cost_name]
        profile = inventory.young_stock(s.initial, max(sum(s.demands) / len(s.demands), 1.0),
                                        s.shelf_life)
        if strategy in ("daily", "semiweekly"):
            _, orders, outcomes = _rule_orders(
                s.y_hat, s.demands, profile, costs, s.params.inventory_target,
                s.params.reorder_level, strategy, s.start_weekday)
            return orders, outcomes, profile
        state, level, orders, outcomes = profile, profile.total, [], []
        for y in s.demands:
            z = y if strategy == "gold" else max(0, s.baseline_target - level)
            state, outcome = inventory.step(state, z, y, costs)
            level = outcome.end_inventory
            orders.append(z)
            outcomes.append(outcome)
        return orders, outcomes, profile

    @staticmethod
    def _conserves(profile, orders, outcomes) -> bool:
        """initial + orders = issued + expired + end, period by period."""
        level = profile.total
        for z, o in zip(orders, outcomes):
            issued = o.demand - o.urgent
            if level + z != issued + o.expired + o.end_inventory or not 0 <= o.urgent <= o.demand:
                return False
            level = o.end_inventory
        return True

    @staticmethod
    def _matches(summary, outcomes, strategy) -> bool:
        cost = np.array([o.cost for o in outcomes], dtype=float)
        expected = {
            "periods": len(outcomes),
            "days_with_orders": sum(1 for o in outcomes if o.order_qty > 0),
            "total_cost": float(cost.sum()),
            "wastage_mean": float(np.mean([o.expired for o in outcomes])),
            "inventory_mean": float(np.mean([o.end_inventory for o in outcomes])),
        }
        ordered = [o.order_qty for o in outcomes if o.order_qty > 0]
        if ordered:
            expected["order_qty_mean"] = float(np.mean(ordered))
        ok = all(math.isclose(getattr(summary, key), value, rel_tol=1e-12, abs_tol=1e-9)
                 for key, value in expected.items())
        if strategy == "baseline":
            return ok and summary.urgent_mean is None
        return ok and math.isclose(summary.urgent_mean,
                                   float(np.mean([o.urgent for o in outcomes])),
                                   rel_tol=1e-12, abs_tol=1e-9)


WORKLOADS = {w.name: w for w in (PaperPipeline, ModelSelection, ScenarioReplay)}
