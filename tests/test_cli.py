import csv
import dataclasses
import datetime as dt
import json
import math

import numpy as np
import pytest

from bloodbank import policy
from bloodbank.cli import main
from bloodbank.errors import SchemaError
from bloodbank.forecast import (
    ForecastReport,
    hybrid_from_dict,
    read_dataset_csv,
    read_forecast_csv,
    write_forecast_csv,
)
from bloodbank.gbrt import ensemble_from_dict
from bloodbank.inventory import CostParams, read_stream_csv, step, young_stock
from bloodbank.policy import evaluate_strategy
from conftest import read_csv, v1_document, write_stream


def run(args):
    return main([str(a) for a in args])


def sweep_rows(path):
    """(candidate, average cost, objective) rows of a sweep CSV."""
    return [(int(c), float(cost), float(gap)) for c, cost, gap in read_csv(path)[1]]


def comparison(path):
    """strategy -> field -> value of a comparison CSV; None where the cell is empty."""
    header, rows = read_csv(path)
    return {name: {row[0]: float(row[j]) if row[j] else None for row in rows}
            for j, name in enumerate(header[1:], start=1)}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    assert run(["generate", "--days", 420, "--seed", 5, "--out-dir", out]) == 0
    return out / "dataset.csv"


class TestGenerate:
    def test_writes_dataset_and_manifest(self, dataset):
        run_dir = dataset.parent
        records = read_dataset_csv(dataset)
        assert len(records) == 420
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["config"]["seed"] == 5
        assert "dataset_truth.csv" in manifest["outputs"]
        assert (run_dir / "dataset_truth.csv").exists()

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["generate", "--days", 120, "--seed", 9, "--out-dir", out]) == 0
        assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
        assert (a / "dataset_truth.csv").read_bytes() == (b / "dataset_truth.csv").read_bytes()

    def test_bad_start_date_fails_cleanly(self, tmp_path, capsys):
        code = run(["generate", "--days", 30, "--start-date", "2008-13-01",
                    "--out-dir", tmp_path / "gen"])
        assert_clean_failure(capsys, code, "--start-date", "'2008-13-01'")
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize("start", ["0001-01-02", "9999-12-25"])
    def test_start_date_off_the_calendar_fails_cleanly(self, tmp_path, capsys, start):
        # 0001-01-02 leaves no room for the seven lead-in days; ten days from 9999-12-25
        # run past 9999-12-31
        code = run(["generate", "--days", 10, "--start-date", start,
                    "--out-dir", tmp_path / "gen"])
        assert_clean_failure(capsys, code, "start_date", start, "0001-01-01..9999-12-31")
        assert not (tmp_path / "gen").exists()


class TestDecompose:
    def test_writes_decomposition(self, dataset, tmp_path):
        out = tmp_path / "dec"
        assert run(["decompose", "--data", dataset, "--out-dir", out]) == 0
        header, rows = read_csv(out / "decomposition.csv")
        assert header == ["date", "observed", "trend", "seasonal", "residual"]
        assert len(rows) == 420
        observed, trend, seasonal, residual = np.array([row[1:] for row in rows], dtype=float).T
        recon = trend + seasonal + residual
        assert max(abs(recon - observed)) <= 1e-9 * max(abs(observed))

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert run(["decompose", "--data", tmp_path / "nope.csv"]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    code = run([
        "train", "--data", dataset, "--train-days", 350,
        "--rounds", 40, "--seed", 3, "--out-dir", out,
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def v1_model(trained, dataset):
    """The version 1 document of ``trained``'s fit, as version 1 wrote it."""
    doc = json.loads((trained / "model.json").read_text())
    return json.dumps(v1_document(doc, read_dataset_csv(dataset)), indent=2) + "\n"


class TestTrainForecast:
    def test_model_and_reports_written(self, trained):
        assert (trained / "model.json").exists()
        report = read_forecast_csv(trained / "train_report.csv")
        assert len(report.dates) == 350
        holdout = read_forecast_csv(trained / "holdout_report.csv")
        assert len(holdout.dates) == 70
        metrics = (trained / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "metric,value"
        assert metrics[1].startswith("rmse,")

    def test_forecast_horizon(self, trained, dataset, tmp_path):
        out = tmp_path / "fc"
        code = run(["forecast", "--model", trained / "model.json", "--data", dataset,
                    "--horizon", 30, "--out-dir", out])
        assert code == 0
        report = read_forecast_csv(out / "forecast.csv")
        assert len(report.dates) == 30

    def test_zero_horizon_empty_report(self, trained, dataset, tmp_path):
        out = tmp_path / "fc0"
        code = run(["forecast", "--model", trained / "model.json", "--data", dataset,
                    "--horizon", 0, "--out-dir", out])
        assert code == 0
        report = read_forecast_csv(out / "forecast.csv")
        assert report.dates == []

    def test_horizon_beyond_data_fails(self, trained, dataset, tmp_path, capsys):
        code = run(["forecast", "--model", trained / "model.json", "--data", dataset,
                    "--horizon", 400, "--out-dir", tmp_path / "fcx"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_model_json_is_compact(self, trained):
        text = (trained / "model.json").read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, separators=(",", ":")) + "\n"
        assert doc["version"] == 2 and "decomposition" not in doc

    def test_v1_model_forecasts_the_v2_bytes(self, trained, v1_model, dataset, tmp_path):
        (tmp_path / "model.json").write_text(v1_model)
        for model, out in ((trained / "model.json", "v2"), (tmp_path / "model.json", "v1")):
            assert run(["forecast", "--model", model, "--data", dataset, "--horizon", 70,
                        "--out-dir", tmp_path / out]) == 0
        assert ((tmp_path / "v1" / "forecast.csv").read_bytes()
                == (tmp_path / "v2" / "forecast.csv").read_bytes()
                == (trained / "holdout_report.csv").read_bytes())

    def test_forecast_reads_feature_columns_by_name(self, trained, dataset, tmp_path):
        # reversed feature columns and an extra one forecast the same bytes
        header, rows = read_csv(dataset)
        order = [0, 1, *range(len(header) - 1, 1, -1)]
        moved = tmp_path / "dataset.csv"
        with open(moved, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([header[j] for j in order] + ["extra"])
            writer.writerows([row[j] for j in order] + [str(i % 5)] for i, row in enumerate(rows))
        for data, out in ((dataset, "given"), (moved, "moved")):
            assert run(["forecast", "--model", trained / "model.json", "--data", data,
                        "--horizon", 70, "--out-dir", tmp_path / out]) == 0
        assert ((tmp_path / "given" / "forecast.csv").read_bytes()
                == (tmp_path / "moved" / "forecast.csv").read_bytes())

    def test_train_days_validated(self, dataset, tmp_path, capsys):
        code = run(["train", "--data", dataset, "--train-days", 9999,
                    "--out-dir", tmp_path / "bad"])
        assert code == 2
        assert "train_days" in capsys.readouterr().err


class TestSimulate:
    def test_trajectory_written(self, tmp_path):
        orders = tmp_path / "orders.csv"
        demands = tmp_path / "demands.csv"
        write_stream(orders, [93] * 60)
        write_stream(demands, [93] * 60)
        out = tmp_path / "sim"
        code = run(["simulate", "--orders", orders, "--demands", demands,
                    "--initial", 780, "--out-dir", out])
        assert code == 0
        header, rows = read_csv(out / "trajectory.csv")
        periods = [dict(zip(header, row)) for row in rows]
        assert len(periods) == 60
        assert all(int(p["end_inventory"]) == 780 for p in periods)
        assert all(float(p["cost"]) == 880.0 for p in periods)

    def test_mismatched_streams_name_both_lengths(self, tmp_path, capsys):
        orders = tmp_path / "orders.csv"
        demands = tmp_path / "demands.csv"
        write_stream(orders, [5] * 5)
        write_stream(demands, [5] * 7)
        code = run(["simulate", "--orders", orders, "--demands", demands,
                    "--out-dir", tmp_path / "sim"])
        assert code == 2
        err = capsys.readouterr().err
        assert "5" in err and "7" in err

    def test_unequal_streams_fail_before_writing(self, tmp_path, capsys):
        orders = tmp_path / "orders.csv"
        demands = tmp_path / "demands.csv"
        write_stream(orders, [5] * 3)
        write_stream(demands, [5] * 4)
        code = run(["simulate", "--orders", orders, "--demands", demands,
                    "--out-dir", tmp_path / "sim"])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err, err
        assert "stream length mismatch: 3 orders vs 4 demands" in err, err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("cell", ["2.5", "abc", "", "-3"])
    def test_bad_units_cell_fails_cleanly(self, tmp_path, capsys, cell):
        orders = tmp_path / "orders.csv"
        demands = tmp_path / "demands.csv"
        write_stream(orders, [5] * 3)
        demands.write_text(f"period,units\n1,5\n2,{cell}\n3,5\n")
        with pytest.raises(SchemaError, match="row 3"):
            read_stream_csv(demands)
        code = run(["simulate", "--orders", orders, "--demands", demands,
                    "--out-dir", tmp_path / "sim"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(demands) in err and "row 3" in err and "units" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("stream, message", [
        ("orders", "orders, demands or costs so large that the cost overflows"),
        ("demands", "demands so large that their mean overflows"),  # sizing --initial's ages
    ], ids=["orders", "demands"])
    def test_units_past_the_float_range_fail_cleanly(self, tmp_path, capsys, stream, message):
        # a 401-digit cell reads as an int, and once raised a raw OverflowError
        paths = {name: tmp_path / f"{name}.csv" for name in ("orders", "demands")}
        for name, path in paths.items():
            write_stream(path, [10**400 if name == stream else 0, 5])
        out = tmp_path / "sim"
        code = run(["simulate", "--orders", paths["orders"], "--demands", paths["demands"],
                    "--initial", 780, "--out-dir", out])
        assert_clean_failure(capsys, code, message)
        assert not out.exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    gen = root / "gen"
    assert run(["generate", "--days", 500, "--seed", 11, "--out-dir", gen]) == 0
    train_dir = root / "train"
    assert run(["train", "--data", gen / "dataset.csv", "--train-days", 365,
                "--rounds", 40, "--out-dir", train_dir]) == 0
    return root, gen, train_dir


class TestOptimizeCompare:
    def test_optimize_then_compare(self, pipeline):
        root, gen, train_dir = pipeline
        opt = root / "opt"
        code = run(["optimize", "--report", train_dir / "train_report.csv",
                    "--initial", 780, "--target-grid", "780:1560:60",
                    "--reorder-grid", "0:1560:60", "--out-dir", opt])
        assert code == 0
        doc = json.loads((opt / "policy.json").read_text())
        assert doc["format"] == "bloodbank.policy"
        assert 0 <= doc["reorder_daily"] <= doc["inventory_target"]
        sweep = sweep_rows(opt / "target_sweep.csv")
        assert any(target == doc["inventory_target"] for target, _, _ in sweep)
        assert sweep_rows(opt / "reorder_sweep_semiweekly.csv")

        cmp_dir = root / "cmp"
        code = run(["compare", "--report", train_dir / "holdout_report.csv",
                    "--policy", opt / "policy.json", "--initial", 780,
                    "--out-dir", cmp_dir])
        assert code == 0
        table = comparison(cmp_dir / "comparison.csv")
        assert set(table) == {"baseline", "gold", "daily", "semiweekly"}
        text = (cmp_dir / "comparison.txt").read_text()
        assert "semiweekly" in text and "days with orders" in text

    def test_compare_flags_without_policy_file(self, pipeline, tmp_path):
        root, gen, train_dir = pipeline
        out = tmp_path / "cmp2"
        code = run(["compare", "--report", train_dir / "holdout_report.csv",
                    "--target", 1200, "--reorder-daily", 800,
                    "--reorder-semiweekly", 900, "--initial", 780, "--out-dir", out])
        assert code == 0

    def test_compare_requires_policy_or_flags(self, pipeline, tmp_path, capsys):
        root, gen, train_dir = pipeline
        code = run(["compare", "--report", train_dir / "holdout_report.csv",
                    "--out-dir", tmp_path / "cmp3"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


COSTS = CostParams()


def _half_up(value):
    return max(0, int(math.floor(value + 0.5)))


@pytest.fixture(scope="module")
def half_unit_report(tmp_path_factory):
    """A 120-day report whose actuals include x.5 values, starting on a Wednesday."""
    rng = np.random.default_rng(8)
    actual = rng.integers(20, 40, size=120) + np.where(rng.random(120) < 0.4, 0.5, 0.0)
    actual[:4] = [0.5, 2.5, 20.5, 31.5]  # banker's rounding would give 0, 2, 20, 32
    predicted = actual + rng.normal(0.0, 4.0, size=120)
    start = dt.date(2010, 1, 6)
    path = tmp_path_factory.mktemp("report") / "report.csv"
    write_forecast_csv(path, ForecastReport(start=start, actual=actual, predicted=predicted))
    return path


class TestSingleSweepOptimize:
    @pytest.mark.parametrize("objective", ["match_gold", "min_cost"])
    def test_choices_and_rows_match_independent_folds(self, half_unit_report, tmp_path,
                                                      objective):
        out = tmp_path / "opt"
        assert run(["optimize", "--report", half_unit_report, "--initial", 150,
                    "--target-grid", "60:300:30", "--reorder-grid", "0:300:25",
                    "--objective", objective, "--out-dir", out]) == 0
        doc = json.loads((out / "policy.json").read_text())
        report = read_forecast_csv(half_unit_report)
        demands = [_half_up(v) for v in report.actual]
        y_hat = list(report.predicted)
        horizon = len(demands)
        start_weekday = doc["start_weekday"]
        assert start_weekday == 2
        profile = young_stock(150, sum(demands) / horizon, 32)

        def fold(decide):
            state, level, total = profile, profile.total, 0.0
            for i, y in enumerate(demands):
                state, outcome = step(state, decide(i, level), y, COSTS)
                level = outcome.end_inventory
                total += outcome.cost
            return total / horizon

        def reorder_rule(target, floor, kind):
            def decide(i, level):
                block = 1 if kind == "daily" else {0: 3, 3: 4}.get(
                    (start_weekday + i - 1) % 7, 0)
                if not block or level >= floor:
                    return 0
                units = _half_up(sum(y_hat[i: min(i + block, horizon)]))
                return min(max(units, floor - level), target - level)
            return decide

        gold = fold(lambda i, level: demands[i])
        key = 2 if objective == "match_gold" else 1
        target = doc["inventory_target"]
        sweeps = {
            "target_sweep": (target, lambda t: fold(
                lambda i, level: max(0, min(_half_up(y_hat[i]), t - level)))),
            "reorder_sweep_daily": (doc["reorder_daily"],
                                    lambda s: fold(reorder_rule(target, s, "daily"))),
            "reorder_sweep_semiweekly": (doc["reorder_semiweekly"],
                                         lambda s: fold(reorder_rule(target, s, "semiweekly"))),
        }
        for name, (choice, average_of) in sweeps.items():
            rows = sweep_rows(out / f"{name}.csv")
            assert choice == min(rows, key=lambda row: (row[key], row[0]))[0], name
            for candidate, average, gap in rows:
                expected = average_of(candidate)
                assert (average, gap) == (expected, abs(gold - expected)), (name, candidate)

    def test_one_gold_run_per_optimize(self, half_unit_report, tmp_path, monkeypatch):
        # each of the target and reorder sweeps once simulated the gold standard anew
        calls, original = [], policy.cost_under_actual

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(policy, "cost_under_actual", counted)
        assert run(["optimize", "--report", half_unit_report, "--initial", 150,
                    "--out-dir", tmp_path / "opt"]) == 0
        assert len(calls) == 1

    def test_compare_rounds_actuals_half_up(self, half_unit_report, tmp_path):
        out = tmp_path / "cmp"
        assert run(["compare", "--report", half_unit_report, "--target", 300,
                    "--reorder-daily", 100, "--reorder-semiweekly", 150, "--initial", 150,
                    "--out-dir", out]) == 0
        report = read_forecast_csv(half_unit_report)
        gold = evaluate_strategy("gold", None, [_half_up(v) for v in report.actual], 150,
                                 COSTS, start_weekday=2)
        table = comparison(out / "comparison.csv")
        assert table["gold"]["days_with_orders"] == gold.days_with_orders == 120
        assert table["gold"]["total_cost"] == gold.total_cost

    def test_comparison_rows_are_the_summary_fields(self, half_unit_report, tmp_path):
        # StrategySummary alone states comparison.csv's schema: every field after strategy
        out = tmp_path / "cmp"
        assert run(["compare", "--report", half_unit_report, "--target", 300,
                    "--reorder-daily", 100, "--reorder-semiweekly", 150, "--initial", 150,
                    "--out-dir", out]) == 0
        _, rows = read_csv(out / "comparison.csv")
        assert [row[0] for row in rows] == [
            f.name for f in dataclasses.fields(policy.StrategySummary)][1:]

    @pytest.mark.parametrize("bad", ["-3.0", "nan", "inf"])
    def test_bad_actual_fails_cleanly(self, half_unit_report, tmp_path, capsys, bad):
        lines = half_unit_report.read_text().splitlines()
        date, _, predicted = lines[5].split(",")
        lines[5] = f"{date},{bad},{predicted}"
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        for command in (["optimize"], ["compare", "--target", 300, "--reorder-daily", 100,
                                       "--reorder-semiweekly", 150]):
            code = run([*command, "--report", path, "--initial", 150,
                        "--out-dir", tmp_path / command[0]])
            assert code == 2
            err = capsys.readouterr().err
            assert "row 6" in err and "Traceback" not in err


def replace_cell(source, target, row_number, column, text):
    """Copy a CSV file with one cell replaced; row 1 is the header."""
    lines = source.read_text().splitlines()
    cells = lines[row_number - 1].split(",")
    cells[lines[0].split(",").index(column)] = text
    lines[row_number - 1] = ",".join(cells)
    target.write_text("\n".join(lines) + "\n")
    return target


def first_leaf(node):
    while "weight" not in node:
        node = node["left"]
    return node


def assert_clean_failure(capsys, code, *fragments):
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for fragment in fragments:
        assert str(fragment) in err, (fragment, err)


class TestMalformedInputs:
    @pytest.mark.parametrize("cell", ["abc", "inf", "1.5.2"])
    def test_train_rejects_bad_feature_cell(self, dataset, tmp_path, capsys, cell):
        bad = replace_cell(dataset, tmp_path / "bad.csv", 9, "prev_week_demand", cell)
        with pytest.raises(SchemaError, match="row 9, column prev_week_demand"):
            read_dataset_csv(bad)
        code = run(["train", "--data", bad, "--train-days", 350, "--rounds", 2,
                    "--out-dir", tmp_path / "train"])
        assert_clean_failure(capsys, code, bad, "row 9", "prev_week_demand")

    def test_repeated_dataset_column_fails_closed(self, dataset, tmp_path, capsys):
        # the reader once kept only the second column of a repeated name
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(line + "," + line.rsplit(",", 1)[1] + "\n"
                               for line in dataset.read_text().splitlines()))
        with pytest.raises(SchemaError, match=f"{bad}: dataset column 'prev_week_demand' "
                                              "is repeated"):
            read_dataset_csv(bad)
        code = run(["train", "--data", bad, "--train-days", 350, "--rounds", 2,
                    "--out-dir", tmp_path / "train"])
        assert_clean_failure(capsys, code, bad, "'prev_week_demand' is repeated")
        assert not (tmp_path / "train").exists()

    @pytest.mark.parametrize("column, cell", [
        ("date", "2010-13-45"), ("date", "tuesday"), ("actual", "many"),
        ("predicted", "nan"), ("actual", "inf"), ("predicted", "-inf"),
    ])
    def test_optimize_and_compare_reject_bad_report_cell(self, half_unit_report, tmp_path,
                                                          capsys, column, cell):
        bad = replace_cell(half_unit_report, tmp_path / "bad.csv", 7, column, cell)
        with pytest.raises(SchemaError, match="row 7"):
            read_forecast_csv(bad)
        for command in (["optimize"], ["compare", "--target", 300, "--reorder-daily", 100,
                                       "--reorder-semiweekly", 150]):
            code = run([*command, "--report", bad, "--initial", 150,
                        "--out-dir", tmp_path / command[0]])
            assert_clean_failure(capsys, code, bad, "row 7")

    @pytest.mark.parametrize("damage, message", [
        (lambda doc: doc.pop("decomposition"), "missing key 'decomposition'"),
        (lambda doc: doc.pop("train_end"), "missing key 'train_end'"),
        (lambda doc: doc["residual_model"].pop("trees"), "missing key 'trees'"),
        (lambda doc: doc["residual_model"]["trees"][0].pop("left"), "missing key 'left'"),
        (lambda doc: doc["decomposition"].update(
            {k: v[:-1] for k, v in doc["decomposition"].items()}), "has 349 days"),
        (lambda doc: doc["decomposition"]["trend"].pop(), "equally long"),
        (lambda doc: doc.update(train_start="2010-02-30"), "malformed"),
        # a reversed training window is named first, not blamed on the period
        (lambda doc: doc.update(train_start=doc["train_end"], train_end=doc["train_start"]),
         "ends before it starts"),
        (lambda doc: doc["stl_config"].update(s_windw=7), "malformed"),
        # numbers and flags are taken as written, never coerced, and a field's rule
        # names it without a "malformed hybrid model document: " prefix
        (lambda doc: doc.update(period=7.9),
         "model.json: period must be a whole number, got 7.9"),
        (lambda doc: doc["residual_model"]["config"].update(n_rounds=1.5),
         "model.json: n_rounds must be a whole number, got 1.5"),
        (lambda doc: doc.update(period=True), "period must be a whole number, got True"),
        (lambda doc: doc["residual_model"]["trees"][0].update(feature=2.7),
         "split feature must be a whole number, got 2.7"),
        (lambda doc: doc["residual_model"]["trees"][0].update(default_left="false"),
         "split default_left must be true or false, got 'false'"),
        (lambda doc: doc["residual_model"]["trees"][0].update(default_left=0),
         "split default_left must be true or false, got 0"),
        (lambda doc: doc["residual_model"]["trees"][0].update(cover=12.5),
         "split cover must be a whole number, got 12.5"),
        (lambda doc: doc["residual_model"]["trees"][0].update(feature=-1),
         "split feature -1 is not a column"),
        # float fields take finite JSON numbers only
        (lambda doc: doc["residual_model"]["trees"][0].update(threshold="0.5"),
         "split threshold must be a finite number, got '0.5'"),
        (lambda doc: doc["residual_model"]["trees"][0].update(gain=float("nan")),
         "split gain must be a finite number, got nan"),
        (lambda doc: first_leaf(doc["residual_model"]["trees"][0]).update(weight=False),
         "leaf weight must be a finite number, got False"),
        (lambda doc: doc["residual_model"].update(learning_rate=True),
         "learning_rate must be a finite number, got True"),
        (lambda doc: doc["residual_model"].update(base_score=float("inf")),
         "base_score must be a finite number, got inf"),
        (lambda doc: doc["decomposition"]["trend"].__setitem__(0, "12"),
         "decomposition trend value must be a finite number, got '12'"),
        (lambda doc: doc["decomposition"]["residual"].__setitem__(5, None),
         "decomposition residual value must be a finite number, got None"),
        # an int past the float range once raised OverflowError, a traceback
        (lambda doc: doc["decomposition"]["seasonal"].__setitem__(2, 10**400),
         "decomposition seasonal value must be a finite number, got 1000"),
        (lambda doc: doc["residual_model"].update(base_score=-10**400),
         "base_score must be a finite number, got -1000"),
    ])
    def test_forecast_rejects_damaged_model(self, v1_model, dataset, tmp_path, capsys,
                                            damage, message):
        # a version 1 document: its decomposition keeps every check it had
        doc = json.loads(v1_model)
        damage(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code = run(["forecast", "--model", path, "--data", dataset, "--horizon", 5,
                    "--out-dir", tmp_path / "fc"])
        assert_clean_failure(capsys, code, path, message)

    @pytest.mark.parametrize("damage, message", [
        (lambda doc: doc.pop("projection"), "missing key 'projection'"),
        *[(lambda doc, key=key: doc["projection"].pop(key), f"missing key {key!r}")
          for key in ("level", "slope", "anchor", "seasonal")],
        (lambda doc: doc["projection"]["seasonal"].pop(),
         "projection seasonal has 6 values, not one a day of the period 7"),
        (lambda doc: doc["projection"]["seasonal"].append(0.5), "seasonal has 8 values"),
        (lambda doc: doc["projection"].update(seasonal=[]), "seasonal has 0 values"),
        (lambda doc: doc["projection"].update(level=math.nan),
         "projection level must be a finite number, got nan"),
        (lambda doc: doc["projection"].update(anchor=-math.inf),
         "projection anchor must be a finite number, got -inf"),
        (lambda doc: doc["projection"]["seasonal"].__setitem__(3, math.inf),
         "projection seasonal value must be a finite number, got inf"),
        (lambda doc: doc["projection"].update(level=10**400),
         "projection level must be a finite number, got 1000"),
        (lambda doc: doc["projection"].update(slope=True),
         "projection slope must be a finite number, got True"),
        (lambda doc: doc["projection"]["seasonal"].__setitem__(0, False),
         "projection seasonal value must be a finite number, got False"),
        (lambda doc: doc["projection"].update(level="89.5"),
         "projection level must be a finite number, got '89.5'"),
        (lambda doc: doc["projection"]["seasonal"].__setitem__(6, "1"),
         "projection seasonal value must be a finite number, got '1'"),
        (lambda doc: doc["projection"].update(seasonal="1234567"),
         "projection seasonal value must be a finite number, got '1'"),
        (lambda doc: doc.update(projection=[1.0, 0.5]), "malformed"),
        # flat ignores a slope, so a slope it would ignore is not taken
        (lambda doc: doc.update(trend_mode="flat"),
         "projection slope must be 0 under trend_mode 'flat'"),
        # a reversed training window is named first, not blamed on the period
        (lambda doc: doc.update(train_start=doc["train_end"], train_end=doc["train_start"]),
         "ends before it starts"),
        (lambda doc: doc.update(version=3), "unsupported hybrid model version 3"),
        (lambda doc: doc.update(version=True), "unsupported hybrid model version True"),
        (lambda doc: doc.update(version=2.0), "unsupported hybrid model version 2.0"),
    ])
    def test_forecast_rejects_damaged_projection(self, trained, dataset, tmp_path, capsys,
                                                 damage, message):
        doc = json.loads((trained / "model.json").read_text())
        assert doc["version"] == 2
        damage(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code = run(["forecast", "--model", path, "--data", dataset, "--horizon", 5,
                    "--out-dir", tmp_path / "fc"])
        assert_clean_failure(capsys, code, path, message)
        assert not (tmp_path / "fc").exists()

    def test_a_field_message_is_not_wrapped_again(self, trained, dataset, tmp_path, capsys):
        # it once read "malformed hybrid model document: base_score must be ..."
        doc = json.loads((trained / "model.json").read_text())
        doc["residual_model"]["base_score"] = "x"
        with pytest.raises(SchemaError) as failure:
            hybrid_from_dict(doc)
        assert str(failure.value) == "base_score must be a finite number, got 'x'"
        with pytest.raises(SchemaError) as failure:
            ensemble_from_dict(doc["residual_model"])
        assert str(failure.value) == "base_score must be a finite number, got 'x'"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code = run(["forecast", "--model", path, "--data", dataset, "--horizon", 5,
                    "--out-dir", tmp_path / "fc"])
        err = capsys.readouterr().err
        assert code == 2 and err == f"error: {path}: base_score must be a finite number, got 'x'\n"

    def test_forecast_checks_horizon_before_reading_a_file(self, tmp_path, capsys):
        # it once read the model and the whole dataset first, and named a missing file
        code = run(["forecast", "--model", tmp_path / "nope.json", "--data",
                    tmp_path / "none.csv", "--horizon", -1, "--out-dir", tmp_path / "fc"])
        err = capsys.readouterr().err
        assert code == 2 and err == "error: --horizon must be non-negative, got -1\n"
        assert not (tmp_path / "fc").exists()

    def test_forecast_rejects_truncated_json(self, trained, dataset, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text((trained / "model.json").read_text()[:500])
        code = run(["forecast", "--model", path, "--data", dataset, "--horizon", 5,
                    "--out-dir", tmp_path / "fc"])
        assert_clean_failure(capsys, code, path, "not valid JSON")

    @pytest.mark.parametrize("last_column", ["dropped", "other"])
    def test_forecast_rejects_a_dataset_without_a_model_feature(self, trained, dataset,
                                                                tmp_path, capsys, last_column):
        # the model reads prev_week_demand, the dataset's last column; read as
        # missing on every day, it once gave a forecast and exit 0
        header, *rows = dataset.read_text().splitlines()
        if last_column == "dropped":
            header, rows = header.rsplit(",", 1)[0], [row.rsplit(",", 1)[0] for row in rows]
        else:
            header = header.rsplit(",", 1)[0] + ",other"
        bad = tmp_path / "dataset.csv"
        bad.write_text("\n".join([header, *rows]) + "\n")
        code = run(["forecast", "--model", trained / "model.json", "--data", bad,
                    "--horizon", 5, "--out-dir", tmp_path / "fc"])
        assert_clean_failure(capsys, code, f"{bad}: no feature 'prev_week_demand' on")
        assert not (tmp_path / "fc").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"format": "bloodbank.policy", "version": 1, "inventory_target": 300,
          "reorder_daily": 100}, "missing key 'reorder_semiweekly'"),
        ({"format": "bloodbank.policy", "version": 1, "inventory_target": "lots",
          "reorder_daily": 100, "reorder_semiweekly": 150},
         "inventory_target must be a whole number"),
        ({"format": "bloodbank.policy", "version": 1, "inventory_target": 300,
          "reorder_daily": 100.7, "reorder_semiweekly": 150},
         "reorder_daily must be a whole number, got 100.7"),
        ([1, 2], "not a policy document"),
    ])
    def test_compare_rejects_damaged_policy(self, half_unit_report, tmp_path, capsys,
                                            doc, message):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(doc))
        code = run(["compare", "--report", half_unit_report, "--policy", path,
                    "--initial", 150, "--out-dir", tmp_path / "cmp"])
        assert_clean_failure(capsys, code, path, message)

    @pytest.mark.parametrize("command", ["simulate", "optimize", "compare"])
    def test_negative_initial_stock_names_the_flag(self, half_unit_report, tmp_path, capsys,
                                                   command):
        write_stream(tmp_path / "units.csv", [5] * 10)
        inputs = {
            "simulate": ["--orders", tmp_path / "units.csv", "--demands", tmp_path / "units.csv"],
            "optimize": ["--report", half_unit_report],
            "compare": ["--report", half_unit_report, "--target", 300, "--reorder-daily", 100,
                        "--reorder-semiweekly", 150],
        }
        out = tmp_path / "out"
        code = run([command, *inputs[command], "--initial", -1, "--out-dir", out])
        assert_clean_failure(capsys, code, "--initial must be non-negative, got -1")
        assert not out.exists()

    @pytest.mark.parametrize("grid, flag", [
        ("--target-grid=-100:300:50", "--target-grid"),  # once swept the negative targets
        ("--target-grid=-100:0:50", "--target-grid"),  # once blamed the report
        ("--reorder-grid=-50:300:50", "--reorder-grid"),  # once blamed the report
    ])
    def test_negative_grid_names_the_flag(self, half_unit_report, tmp_path, capsys, grid, flag):
        out = tmp_path / "out"
        code = run(["optimize", "--report", half_unit_report, "--initial", 150, grid,
                    "--out-dir", out])
        assert_clean_failure(capsys, code, f"{flag} must be LO:HI:STEP with 0 <= LO <= HI")
        assert not out.exists()

    def test_reorder_grid_above_the_target_is_named(self, half_unit_report, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["optimize", "--report", half_unit_report, "--initial", 150,
                    "--target-grid", "100:200:50", "--reorder-grid", "500:600:50",
                    "--out-dir", out])
        assert_clean_failure(capsys, code, "reorder grid 500..600 has no candidate <= target")
        assert not out.exists()

    def test_negative_baseline_target_names_the_flag(self, half_unit_report, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["compare", "--report", half_unit_report, "--target", 300,
                    "--reorder-daily", 100, "--reorder-semiweekly", 150,
                    "--baseline-target", -1, "--initial", 150, "--out-dir", out])
        assert_clean_failure(capsys, code, "--baseline-target must be non-negative, got -1")
        assert not out.exists()


class TestConfigFile:
    def test_file_fills_defaults_flags_win(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"days": 60, "seed": 123}))
        out = tmp_path / "gen"
        assert run(["generate", "--config", config, "--seed", 7, "--out-dir", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["days"] == 60  # from the file
        assert manifest["config"]["seed"] == 7  # flag beats file

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dayz": 60}))
        assert run(["generate", "--config", config, "--out-dir", tmp_path / "x"]) == 2
        assert "dayz" in capsys.readouterr().err

    @pytest.mark.parametrize("file_value", ["30", 30], ids=["text", "number"])
    def test_abbreviated_flag_beats_file(self, dataset, tmp_path, file_value):
        # argparse accepts --train for --train-days; the flag must still win
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train_days": file_value, "rounds": 2}))
        out = tmp_path / "train"
        assert run(["train", "--data", dataset, "--train", 40, "--config", config,
                    "--out-dir", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train_days"] == 40
        assert manifest["config"]["rounds"] == 2  # from the file

    def test_file_values_go_through_flag_types(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"days": "60", "noise_sd": 3}))
        out = tmp_path / "gen"
        assert run(["generate", "--config", config, "--out-dir", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["days"] == 60
        assert manifest["config"]["noise_sd"] == 3.0
        assert type(manifest["config"]["noise_sd"]) is float

    def test_manifest_config_replays(self, dataset, tmp_path):
        # a manifest records unset options as null; they replay as unset
        first, second = tmp_path / "one", tmp_path / "two"
        assert run(["decompose", "--data", dataset, "--s-window", 13, "--out-dir", first]) == 0
        recorded = json.loads((first / "manifest.json").read_text())["config"]
        assert recorded["t_window"] is None
        config = tmp_path / "config.json"
        config.write_text(json.dumps(recorded))
        assert run(["decompose", "--data", dataset, "--config", config, "--out-dir", second]) == 0
        assert json.loads((second / "manifest.json").read_text())["config"] == recorded
        assert ((first / "decomposition.csv").read_bytes()
                == (second / "decomposition.csv").read_bytes())

    @pytest.mark.parametrize("command, key, value", [
        (["train", "--train-days", 40], "rounds", 2.5),
        (["train", "--train-days", 40], "rounds", True),
        (["train", "--train-days", 40], "learning_rate", "fast"),
        (["generate"], "start_date", 20080107),
    ])
    def test_rejected_file_value_names_file_and_key(self, dataset, tmp_path, capsys,
                                                    command, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        extra = ["--data", dataset] if command[0] == "train" else []
        code = run([*command, *extra, "--config", config, "--out-dir", tmp_path / "x"])
        assert_clean_failure(capsys, code, config, key, repr(value))

    def test_file_cannot_supply_required_flags(self, dataset, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": str(dataset), "train_days": 50}))
        with pytest.raises(SystemExit) as exit_info:
            run(["train", "--config", config, "--out-dir", tmp_path / "train"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "required" in err and "--data" in err and "--train-days" in err
        assert not (tmp_path / "train").exists()

    def test_rejected_choice(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"objective": "cheapest"}))
        code = run(["optimize", "--report", tmp_path / "none.csv", "--config", config])
        assert_clean_failure(capsys, code, config, "objective", "'cheapest'")


def test_stream_csv_round_trip(tmp_path):
    path = tmp_path / "stream.csv"
    write_stream(path, [5, 0, 93, 12])
    assert read_stream_csv(path) == [5, 0, 93, 12]


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("BLOODBANK_RUNS", str(tmp_path / "root"))
    assert run(["generate", "--days", 30, "--seed", 1]) == 0
    runs = list((tmp_path / "root").iterdir())
    assert len(runs) == 1 and runs[0].name.startswith("generate-")
    assert (runs[0] / "dataset.csv").exists()


def test_manifest_hashes_inputs(tmp_path):
    gen = tmp_path / "gen"
    assert run(["generate", "--days", 120, "--seed", 2, "--out-dir", gen]) == 0
    dec = tmp_path / "dec"
    assert run(["decompose", "--data", gen / "dataset.csv", "--out-dir", dec]) == 0
    manifest = json.loads((dec / "manifest.json").read_text())
    (entry,) = manifest["inputs"].values()
    assert len(entry["sha256"]) == 64
    assert entry["bytes"] == (gen / "dataset.csv").stat().st_size
