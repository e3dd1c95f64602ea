"""Every file the CLI reads fails closed; every file it writes reads back equal.

A malformed input of any of the seven commands (a bad ``--config`` file, CSV
cell or JSON document) must exit 2 with a message that names the file and no
traceback.  The property tests write each CSV and JSON format the pipeline
produces from drawn values and read it back through ``conftest.read_csv`` or
the package's own reader.
"""

import argparse
import datetime as dt
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bloodbank import forecast, gbrt, inventory, policy
from bloodbank.cli import _write_compact_json, build_parser, main
from bloodbank.datagen import GenConfig, GroundTruth, generate, generate_full, write_truth_csv
from bloodbank.errors import ParameterError
from bloodbank.timeseries import Decomposition, Series, StlConfig, write_decomposition_csv
from conftest import read_csv, v1_document, write_stream

MONDAY = dt.date(2010, 1, 4)
POLICY = {"format": "bloodbank.policy", "version": 1, "inventory_target": 300,
          "reorder_daily": 100, "reorder_semiweekly": 150, "start_weekday": 2}


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One valid input file of each kind; flag -> path."""
    root = tmp_path_factory.mktemp("inputs")
    assert run(["generate", "--days", 160, "--seed", 6, "--out-dir", root / "gen"]) == 0
    data = root / "gen" / "dataset.csv"
    assert run(["train", "--data", data, "--train-days", 120, "--rounds", 3,
                "--out-dir", root / "train"]) == 0
    write_stream(root / "orders.csv", [30] * 20)
    write_stream(root / "demands.csv", [28] * 20)
    (root / "policy.json").write_text(json.dumps(POLICY))
    return {"--data": data, "--model": root / "train" / "model.json",
            "--orders": root / "orders.csv", "--demands": root / "demands.csv",
            "--report": root / "train" / "holdout_report.csv", "--policy": root / "policy.json"}


def command_line(command, files):
    """A valid command line of ``command`` over ``files``, without ``--out-dir``."""
    return [command, *{
        "generate": ["--days", 30],
        "decompose": ["--data", files["--data"]],
        "train": ["--data", files["--data"], "--train-days", 120, "--rounds", 2],
        "forecast": ["--model", files["--model"], "--data", files["--data"], "--horizon", 5],
        "simulate": ["--orders", files["--orders"], "--demands", files["--demands"]],
        "optimize": ["--report", files["--report"], "--initial", 150],
        "compare": ["--report", files["--report"], "--policy", files["--policy"],
                    "--initial", 150],
    }[command]]


COMMANDS = ("generate", "decompose", "train", "forecast", "simulate", "optimize", "compare")


def text(content):
    return lambda source, target: target.write_text(content)


def cell(row_number, column, value):
    """Replace one cell; row 1 is the header."""
    def damage(source, target):
        header, rows = read_csv(source)
        rows[row_number - 2][header.index(column)] = value
        target.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    return damage


def drop_row(row_number):
    def damage(source, target):
        lines = source.read_text().splitlines(keepends=True)
        target.write_text("".join(lines[: row_number - 1] + lines[row_number:]))
    return damage


def repeat_date(row_number):
    """Give a row the date of the row above it; row 1 is the header."""
    def damage(source, target):
        header, rows = read_csv(source)
        rows[row_number - 2][0] = rows[row_number - 3][0]
        target.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    return damage


def extra_cell(row_number):
    """Append one cell to a row; row 1 is the header."""
    def damage(source, target):
        lines = source.read_text().splitlines()
        lines[row_number - 1] += ",1"
        target.write_text("\n".join(lines) + "\n")
    return damage


def edit_json(change):
    def damage(source, target):
        doc = json.loads(source.read_text())
        change(doc)
        target.write_text(json.dumps(doc))
    return damage


def no_features(doc):
    """A model over no feature column whose trees are single leaves."""
    doc["feature_names"] = doc["residual_model"]["feature_names"] = []
    doc["residual_model"]["trees"] = [{"weight": 0.5}]


BAD_CONFIGS = [(command, "--config", text(content), message)
               for command in COMMANDS
               for content, message in (('{"days": ', "not valid JSON"),
                                        ("[1, 2]", "must hold a JSON object"),
                                        ('{"no_such_flag": 1}', "'no_such_flag'"))]

BAD_FILES = [
    # CSV cells
    ("decompose", "--data", cell(9, "demand", "abc"), "row 9, column demand"),
    ("train", "--data", cell(9, "prev_week_demand", "inf"), "row 9, column prev_week_demand"),
    ("forecast", "--data", cell(140, "date", "2008-02-30"), "row 140, column date"),
    ("simulate", "--demands", cell(4, "units", "2.5"), "row 4"),
    ("simulate", "--orders", cell(3, "units", "-1"), "row 3"),
    # what int() alone would take: an underscore, a space, a sign and a non-ASCII digit
    *[("simulate", "--demands", cell(4, "units", value),
       f"row 4: units must be a non-negative integer, got {value!r}")
      for value in ("1_0", " 5", "+7", "\u0663")],
    # a stream numbers its periods 1, 2, ... as simulate's trajectory does
    ("simulate", "--demands", cell(5, "period", "x"), "row 5, column period: expected 4, got 'x'"),
    ("simulate", "--orders", cell(3, "period", ""), "row 3, column period: expected 2, got ''"),
    ("optimize", "--report", cell(7, "predicted", "nan"), "row 7, column predicted"),
    ("compare", "--report", cell(7, "actual", "many"), "row 7, column actual"),
    # a row longer than the header
    ("decompose", "--data", extra_cell(9), "row 9: expected 12 columns, got 13"),
    ("optimize", "--report", extra_cell(5), "row 5: expected 3 columns, got 4"),
    ("simulate", "--orders", extra_cell(3), "row 3: expected 2 columns, got 3"),
    # a missing day would shift every later row onto the wrong date
    ("decompose", "--data", drop_row(11), "row 11, column date"),
    ("train", "--data", drop_row(11), "dates must be contiguous"),
    ("forecast", "--data", drop_row(130), "dates must be contiguous"),
    # and a report's, every later order onto the wrong weekday
    ("optimize", "--report", drop_row(11), "row 11, column date"),
    ("compare", "--report", drop_row(30), "dates must be contiguous"),
    ("optimize", "--report", repeat_date(6), "row 6, column date"),
    ("compare", "--report", repeat_date(41), "does not follow"),
    # model documents
    ("forecast", "--model", text('{"format": '), "not valid JSON"),
    ("forecast", "--model", edit_json(lambda doc: doc.update(residual_model=3)),
     "not an ensemble document"),
    # an ensemble's version is the int 1 itself, as a model's and a policy's are
    *[("forecast", "--model", edit_json(lambda doc, value=value: doc["residual_model"].update(
        version=value)), f"unsupported ensemble version {value!r}") for value in (True, 1.0, "1")],
    ("forecast", "--model", edit_json(lambda doc: doc.update(period=0)), "period must lie"),
    ("forecast", "--model", edit_json(lambda doc: doc.update(period=-7)), "period must lie"),
    ("forecast", "--model", edit_json(lambda doc: doc.update(period=61)), "period must lie"),
    ("forecast", "--model", edit_json(lambda doc: doc.update(train_end="2007-01-01")),
     "training window 2008-01-07..2007-01-01 ends before it starts"),
    *[("forecast", "--model", edit_json(lambda doc, key=key, value=value:
                                         doc["stl_config"].update({key: value})),
       f"stl_config {key} must be a whole number, got {value!r}")
      for key, value in (("s_window", 7.5), ("s_window", True), ("t_window", 13.0),
                         ("n_inner", "2"), ("n_outer", 1.0), ("loess_degree", 1.5))],
    ("forecast", "--model", edit_json(lambda doc: doc.update(trend_mode="linear")),
     "trend_mode must be one of"),
    ("forecast", "--model", edit_json(lambda doc: doc["feature_names"].reverse()), "differ"),
    ("forecast", "--model", edit_json(lambda doc: doc["residual_model"].update(
        feature_names="abc")), "feature_names must be a list"),
    ("forecast", "--model", edit_json(lambda doc: doc["residual_model"]["config"].update(
        reg_lambda=math.nan)), "reg_lambda"),
    # a split without its gain or cover once weighed 0 in variable_importance
    *[("forecast", "--model", edit_json(lambda doc, key=key: doc["residual_model"]["trees"][0]
                                         .pop(key)),
       f"hybrid model document is missing key {key!r}") for key in ("gain", "cover")],
    # leaf-only trees over no feature once failed on the first prediction
    # without naming the model file
    ("forecast", "--model", edit_json(no_features),
     "feature_names must name at least one feature"),
    # policy documents
    ("compare", "--policy", text("{"), "not valid JSON"),
    ("compare", "--policy", edit_json(lambda doc: doc.update(version=99, start_weekday="x")),
     "unsupported policy version 99"),
    ("compare", "--policy", edit_json(lambda doc: doc.update(reorder_daily=-5)),
     "reorder_daily must be non-negative"),
    ("compare", "--policy", edit_json(lambda doc: doc.update(inventory_target=-1)),
     "inventory_target must be non-negative"),
    ("compare", "--policy", edit_json(lambda doc: doc.update(reorder_semiweekly=301)),
     "reorder_semiweekly 301 exceeds inventory_target 300"),
    # a model document's configs, where present, set every field: none takes its default
    *[("forecast", "--model", edit_json(lambda doc, key=key: doc["stl_config"].pop(key)),
       f"stl_config is missing key {key!r}") for key in ("n_outer", "t_window")],
    *[("forecast", "--model", edit_json(lambda doc, key=key: doc["residual_model"]["config"]
                                         .pop(key)),
       f"ensemble config is missing key {key!r}") for key in ("n_rounds", "max_depth")],
]


@pytest.mark.parametrize("command, flag, damage, message", BAD_CONFIGS + BAD_FILES)
def test_bad_input_fails_closed_naming_the_file(inputs, tmp_path, capsys, command, flag,
                                                damage, message):
    argv = command_line(command, inputs)
    source = inputs.get(flag)  # None for --config
    bad = tmp_path / f"bad{source.suffix if source else '.json'}"
    damage(source, bad)
    if flag in argv:
        argv[argv.index(flag) + 1] = bad
    else:
        argv += [flag, bad]
    code = run([*argv, "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert str(bad) in err and message in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flag, value, make, field", [
    ("generate", "--noise-sd", "nan", GenConfig, "noise_sd"),
    ("generate", "--noise-sd", "inf", GenConfig, "noise_sd"),
    ("generate", "--base-level", "nan", GenConfig, "base_level"),
    ("generate", "--trend-slope", "inf", GenConfig, "trend_slope"),
    ("generate", "--trend-slope", "-inf", GenConfig, "trend_slope"),
    ("optimize", "--cost-holding", "nan", inventory.CostParams, "holding"),
    ("optimize", "--cost-urgent", "inf", inventory.CostParams, "urgent"),
    ("compare", "--cost-wastage", "nan", inventory.CostParams, "wastage"),
    ("train", "--reg-lambda", "nan", gbrt.GbrtConfig, "reg_lambda"),
    ("train", "--gamma", "nan", gbrt.GbrtConfig, "gamma"),
    ("train", "--min-child-weight", "nan", gbrt.GbrtConfig, "min_child_weight"),
    ("train", "--min-child-weight", "inf", gbrt.GbrtConfig, "min_child_weight"),
])
def test_non_finite_number_fails_closed(inputs, tmp_path, capsys, command, flag, value, make,
                                        field):
    with pytest.raises(ParameterError, match=field):
        make(**{field: float(value)})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({flag[2:]: value}))
    for given_as in ([f"{flag}={value}"], ["--config", config]):
        code = run([*command_line(command, inputs), *given_as, "--out-dir", tmp_path / "out"])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err and field in err, err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [
    ("--base-level", "1e300"),
    ("--base-level", "-1e17"),
    ("--trend-slope", "1e308"),
    ("--noise-sd", "1e200"),
])
def test_generated_demand_out_of_exact_range_fails_closed(tmp_path, capsys, flag, value):
    # a finite but huge demand once cast to a wrapped int64 and exited 0
    code = run(["generate", "--days", 5, f"{flag}={value}", "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err and "Warning" not in err, err
    assert "base_level, trend_slope or noise_sd" in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ParameterError, match="2\\*\\*53"):
        generate_full(GenConfig(n_days=5, base_level=2.0**54))


@pytest.mark.parametrize("command", ["decompose", "train"])
def test_demand_that_overflows_stl_fails_closed(inputs, tmp_path, capsys, command):
    # a demand at the float limit once decomposed into NaN: decompose exited 0
    # and train failed on "targets" without naming the file or the column
    bad = tmp_path / "bad.csv"
    cell(2, "demand", "1.7976931348623157e+308")(inputs["--data"], bad)
    code = run([*command_line(command, {**inputs, "--data": bad}), "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err, err
    assert f"{bad}: demand: values as large as 1.79769e+308 overflow STL" in err, err
    assert not (tmp_path / "out").exists()


def test_demand_that_overflows_boosting_fails_closed(inputs, tmp_path, capsys):
    # STL decomposes this demand, but its residuals once crashed train with an
    # OverflowError traceback from the split search
    bad = tmp_path / "bad.csv"
    cell(10, "demand", "4.49423283715579e+307")(inputs["--data"], bad)
    assert run(["decompose", "--data", bad, "--out-dir", tmp_path / "decompose"]) == 0
    code = run([*command_line("train", {**inputs, "--data": bad}), "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err, err
    assert f"{bad}: demand: residuals as large as" in err, err
    assert "make the squared-error sums overflow" in err, err
    assert not (tmp_path / "out").exists()


def test_holdout_demand_that_overflows_rmse_fails_before_writing(inputs, tmp_path, capsys):
    # row 141 is in the holdout; train once exited 0 with a RuntimeWarning and
    # wrote "rmse,inf" to metrics.csv
    bad = tmp_path / "bad.csv"
    cell(141, "demand", "1e200")(inputs["--data"], bad)
    code = run([*command_line("train", {**inputs, "--data": bad}), "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err and "Warning" not in err, err
    assert f"{bad}: demand: errors as large as" in err and "overflow the rmse" in err, err
    assert not (tmp_path / "out").exists()


def test_zero_demand_in_holdout_leaves_mape_undefined(inputs, tmp_path, capsys):
    # zero demand is valid input; train once failed on the MAPE after writing
    # the model and both reports
    data = tmp_path / "zero.csv"
    cell(141, "demand", "0.0")(inputs["--data"], data)
    out = tmp_path / "out"
    assert run([*command_line("train", {**inputs, "--data": data}), "--out-dir", out]) == 0
    header, rows = read_csv(out / "metrics.csv")
    metrics = {name: float(value) for name, value in rows}
    assert header == ["metric", "value"] and list(metrics) == ["rmse", "mape_percent"]
    assert math.isfinite(metrics["rmse"]) and math.isnan(metrics["mape_percent"])
    day = read_csv(data)[1][139][0]
    assert f"mape undefined: zero demand on {day}" in capsys.readouterr().out
    assert json.loads((out / "manifest.json").read_text())["status"] == "ok"
    with pytest.raises(ParameterError, match="index 19 is zero"):
        forecast.read_forecast_csv(out / "holdout_report.csv").mape


@pytest.mark.parametrize("command, flags, message", [
    ("train", ["--train-days", 500], "train_days must lie in 1..160, got 500"),
    ("forecast", ["--horizon", 50], "data supplies only 40 days after"),
])
def test_too_short_data_is_named(inputs, tmp_path, capsys, command, flags, message):
    argv = command_line(command, inputs)
    argv[argv.index(flags[0]) + 1] = flags[1]
    code = run([*argv, "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err, err
    assert f"{inputs['--data']}: {message}" in err, err
    assert not (tmp_path / "out").exists()


def every_cell(column, value):
    def damage(source, target):
        header, rows = read_csv(source)
        for row in rows:
            row[header.index(column)] = value
        target.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    return damage


@pytest.mark.parametrize("damage, huge", [
    (lambda value: cell(7, "predicted", value), "9.3e18"),
    (lambda value: every_cell("predicted", value), "1.7976931348623157e+308"),
], ids=["one-cell", "every-cell"])
def test_forecast_beyond_every_cap_orders_as_the_cap_does(inputs, tmp_path, capsys, damage,
                                                         huge):
    # a predicted cell of 9.3e18 once crashed optimize with an OverflowError
    # traceback, and semiweekly blocks near the float limit sum to inf; every
    # order is capped at the target, so both must order as a forecast of 1e6
    written = {}
    for name, value in (("capped", "1e6"), ("huge", huge)):
        report = tmp_path / f"{name}.csv"
        damage(value)(inputs["--report"], report)
        out = tmp_path / name
        assert run(["optimize", "--report", report, "--initial", 150,
                    "--out-dir", out / "opt"]) == 0
        assert run(["compare", "--report", report, "--policy", out / "opt" / "policy.json",
                    "--initial", 150, "--out-dir", out / "cmp"]) == 0
        written[name] = {path.relative_to(out): path.read_bytes()
                         for path in out.glob("*/*") if path.name != "manifest.json"}
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err, err
    assert len(written["huge"]) == 6 and written["huge"] == written["capped"]


def test_optimize_names_the_report_when_demands_overflow_int64(inputs, tmp_path, capsys):
    # this once exited 2 with a message that named no file
    bad = tmp_path / "bad.csv"
    cell(7, "actual", "9.3e18")(inputs["--report"], bad)
    code = run(["optimize", "--report", bad, "--initial", 150, "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err, err
    assert f"{bad}: demands or candidates too large" in err and "overflow int64" in err, err
    assert not (tmp_path / "out").exists()


def copy(source, target):
    target.write_bytes(source.read_bytes())


@pytest.mark.parametrize("damage, flags", [(cell(7, "actual", "1e308"), []),
                                           (copy, ["--cost-holding", 1e308])],
                         ids=["actual", "cost-holding"])
def test_compare_fails_closed_when_a_summary_overflows(inputs, tmp_path, capsys, damage, flags):
    # compare once exited 0 with numpy RuntimeWarnings and wrote inf and nan
    # into comparison.csv
    report = tmp_path / "report.csv"
    damage(inputs["--report"], report)
    code = run([*command_line("compare", {**inputs, "--report": report}), *flags,
                "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err and "Warning" not in err, err
    assert f"{report}: baseline strategy: demands or costs so large" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("shelf_life", [1, 0, -3])
@pytest.mark.parametrize("command", ["simulate", "optimize", "compare"])
def test_shelf_life_below_two_fails_closed(inputs, tmp_path, capsys, command, shelf_life):
    code = run([*command_line(command, inputs), "--shelf-life", shelf_life,
                "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err, err
    assert f"shelf_life must be >= 2, got {shelf_life}" in err


@pytest.mark.parametrize("initial", [2**63, 10**400])
@pytest.mark.parametrize("command", ["simulate", "optimize", "compare"])
def test_initial_stock_past_int64_fails_closed(inputs, tmp_path, capsys, command, initial):
    # at 2**63, simulate and compare once exited 0 with negative end inventories and days on
    # hand, and optimize died of a MemoryError sizing its default target grid; 10**400 once
    # raised OverflowError
    out = tmp_path / "out"
    code = run([*command_line(command, inputs), "--initial", initial, "--out-dir", out])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err, err
    assert f"--initial must be below 2**63 units, got {initial}" in err, err
    assert not out.exists()  # it fails before the first write, so no run directory is made


@pytest.mark.parametrize("command, flags, message, make", [
    ("decompose", ["--s-window", 4], "s_window must be odd and >= 7, got 4", None),
    ("train", ["--learning-rate", 2], "learning_rate must lie in (0, 1], got 2.0", None),
    ("train", ["--t-window", 4], "t_window must be odd and >= 3, got 4", None),
    ("train", ["--period", 0], "period must be >= 2, got 0", None),
    ("generate", ["--seed", -1], "seed must be non-negative, got -1", GenConfig),
    ("train", ["--seed", -1], "seed must be non-negative, got -1", gbrt.GbrtConfig),
    ("train", ["--t-window", 3], "t_window 3 is too short for loess_degree 1", None),
    ("decompose", ["--period", 2, "--loess-degree", 2],
     "t_window 5 (the default for period 2) is too short for loess_degree 2", None),
])
def test_bad_flag_value_is_not_blamed_on_the_dataset(inputs, tmp_path, capsys, command, flags,
                                                     message, make):
    # these once failed as "<data>: demand: ...", and a negative seed exited 1
    # with a ValueError traceback from PCG64
    if make is not None:
        with pytest.raises(ParameterError, match="seed must be non-negative"):
            make(seed=-1)
    code = run([*command_line(command, inputs), *flags, "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err, err
    assert message in err and ": demand:" not in err and str(inputs["--data"]) not in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["optimize", "compare"])
def test_report_without_rows_fails_closed(inputs, tmp_path, capsys, command):
    # compare once exited 0 and wrote zero costs and a nan doh for every strategy
    empty = tmp_path / "empty.csv"
    empty.write_text("date,actual,predicted\r\n")
    code = run([*command_line(command, {**inputs, "--report": empty}),
                "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err, err
    assert f"{empty}: report has no rows" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flags", [
    ("optimize", ["--cost-holding", 1e308]),  # the gold standard's average overflows
    ("optimize", ["--cost-urgent", 1e305]),  # the target sweep does not, the reorder sweeps do
    ("simulate", ["--cost-holding", 1e308]),
])
def test_cost_that_overflows_fails_closed(inputs, tmp_path, capsys, command, flags):
    # optimize once exited 0 with a RuntimeWarning and wrote inf and nan into
    # every sweep CSV and a policy chosen from them; simulate wrote inf costs
    code = run([*command_line(command, inputs), *flags, "--out-dir", tmp_path / "out"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err and "Warning" not in err, err
    assert "cost overflows" in err, err
    if command == "optimize":
        assert f"{inputs['--report']}: " in err, err
    assert not (tmp_path / "out").exists()


def test_sweep_and_simulate_reject_an_average_cost_that_overflows(inputs):
    report = forecast.read_forecast_csv(inputs["--report"])
    demands = [policy.round_units(v) for v in report.actual]
    costs = inventory.CostParams(urgent=1e305)
    rows = policy.target_sweep(report.predicted, demands, 150, costs, [150, 300])
    assert all(math.isfinite(cost) for _, cost, _ in rows)
    with pytest.raises(ParameterError, match="a candidate's average cost overflows"):
        policy.reorder_sweep(report.predicted, demands, 150, costs, 300, [0, 100])
    with pytest.raises(ParameterError, match="the average cost overflows"):
        inventory.simulate(inventory.young_stock(150, 30.0), [0] * len(demands), demands, costs)


# every optional flag of every command, set by a --config file to each of these
HOSTILE = ["nan", "inf", -1, 0, 2.5, 1e308, True, None, "x", []]
# the required flags, and the config values every hostile one is added to: a
# small run, and compare's levels given as flags, so that they are exercised
REQUIRED = {
    "generate": [], "decompose": ["--data"], "train": ["--data", "--train-days", 120],
    "forecast": ["--model", "--data", "--horizon", 5], "simulate": ["--orders", "--demands"],
    "optimize": ["--report"], "compare": ["--report"],
}
SMALL = {"generate": {"days": 30}, "train": {"rounds": 2}, "optimize": {"initial": 150},
         "compare": {"initial": 150, "target": 300, "reorder_daily": 100,
                     "reorder_semiweekly": 150}}


def optional_flags(command):
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return [a.dest for a in commands.choices[command]._actions
            if a.option_strings and not a.required and a.dest != "help"]


def non_finite_numbers(path):
    """The nan or infinite numbers in a written file, except undefined statistics.

    Those are a holdout's MAPE when a day has zero demand, and the order size
    of a strategy that placed no order.
    """
    if path.suffix == ".json":
        found = []
        json.loads(path.read_text(), parse_constant=found.append)
        return found
    if path.suffix != ".csv":
        return []
    header, rows = read_csv(path)
    undefined = {("mape_percent", 1)} if path.name == "metrics.csv" else set()
    if path.name == "comparison.csv":
        (orders,) = [row for row in rows if row[0] == "days_with_orders"]
        undefined = {(field, j) for j, count in enumerate(orders) if count == "0.0"
                     for field in ("order_qty_mean", "order_qty_sd")}
    return [(row[0], header[j], text) for row in rows for j, text in enumerate(row)
            if text in ("nan", "inf", "-inf") and (row[0], j) not in undefined]


@pytest.mark.parametrize("command, key", [(command, key) for command in COMMANDS
                                          for key in optional_flags(command)])
def test_hostile_config_value_fails_closed(inputs, tmp_path, capsys, command, key):
    argv = [command]
    for item in REQUIRED[command]:
        argv += [item, inputs[item]] if item in inputs else [item]
    for i, value in enumerate(HOSTILE):
        config, out = tmp_path / f"config{i}.json", tmp_path / f"out{i}"
        config.write_text(json.dumps({**SMALL.get(command, {}), key: value}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([*argv, "--config", config, "--out-dir", out])
        err = capsys.readouterr().err
        case = (key, value, err)
        assert code in (0, 2) and "Traceback" not in err and "Warning" not in err, case
        if code == 2:  # the inputs are valid, so the dataset is not to blame
            assert ": demand:" not in err, case
            manifest = out / "manifest.json"
            assert not out.exists() or json.loads(manifest.read_text())["status"] == "failed", case
        else:
            assert json.loads((out / "manifest.json").read_text())["status"] == "ok", case
            for path in out.iterdir():
                assert not non_finite_numbers(path), (path.name, *case)


# the properties: what a writer puts in a file reads back equal

finite = st.floats(allow_nan=False, allow_infinity=False)
days = st.integers(0, 3000).map(lambda i: MONDAY + dt.timedelta(days=i))


@pytest.fixture(scope="module")
def out_file(tmp_path_factory):
    return tmp_path_factory.mktemp("formats") / "file"


@given(st.lists(st.tuples(finite, st.one_of(st.none(), finite)), min_size=1, max_size=30), days)
def test_dataset_csv_reads_back_equal(out_file, rows, start):
    records = [forecast.DailyRecord(start + dt.timedelta(days=i), demand,
                                    {"f": math.nan if f is None else f})
               for i, (demand, f) in enumerate(rows)]
    forecast.write_dataset_csv(out_file, records)
    loaded = forecast.read_dataset_csv(out_file)
    assert [(r.date, r.demand) for r in loaded] == [(r.date, r.demand) for r in records]
    assert np.array_equal([r.features["f"] for r in loaded],
                          [r.features["f"] for r in records], equal_nan=True)


@given(st.lists(st.tuples(finite, finite), max_size=30), days)
def test_forecast_csv_reads_back_equal(out_file, rows, start):
    actual = np.array([a for a, _ in rows], dtype=float)
    predicted = np.array([p for _, p in rows], dtype=float)
    dates = [start + dt.timedelta(days=i) for i in range(len(rows))]
    forecast.write_forecast_csv(out_file, forecast.ForecastReport(start, actual, predicted))
    loaded = forecast.read_forecast_csv(out_file)
    assert loaded.dates == dates
    assert np.array_equal(loaded.actual, actual) and np.array_equal(loaded.predicted, predicted)


@given(st.integers(1, 40), st.integers(0, 2**32), st.floats(-1e6, 1e6))
def test_truth_csv_reads_back_equal(out_file, n_days, seed, base_level):
    config = GenConfig(n_days=n_days, seed=seed, base_level=base_level)
    _, truth = generate_full(config)
    write_truth_csv(out_file, config, truth)
    header, rows = read_csv(out_file)
    names = sorted(truth.covariate_series)
    assert header == ["date", "trend", "weekday_effect", "covariate_effect", "noise", *names]
    assert [row[0] for row in rows] == [
        (config.start_date + dt.timedelta(days=i)).isoformat() for i in range(n_days)]
    columns = np.array([row[1:] for row in rows], dtype=float).T
    expected = [truth.trend, truth.weekday, truth.covariate_effect, truth.noise,
                *(truth.covariate_series[name] for name in names)]
    assert all(np.array_equal(a, b) for a, b in zip(columns, expected))


@given(st.lists(st.tuples(finite, finite, finite, finite), min_size=1, max_size=30), days)
def test_decomposition_csv_reads_back_equal(out_file, rows, start):
    observed, trend, seasonal, residual = np.array(rows, dtype=float).T
    write_decomposition_csv(out_file, Series(start, observed, 2),
                            Decomposition(trend, seasonal, residual))
    header, lines = read_csv(out_file)
    assert header == ["date", "observed", "trend", "seasonal", "residual"]
    assert [line[0] for line in lines] == [
        (start + dt.timedelta(days=i)).isoformat() for i in range(len(rows))]
    assert np.array_equal(np.array([line[1:] for line in lines], dtype=float), np.array(rows))


units = st.integers(0, 10**6)


@given(st.lists(st.tuples(units, units, units, units, units, finite), max_size=30))
def test_trajectory_csv_reads_back_equal(out_file, rows):
    outcomes = [inventory.PeriodOutcome(z > 0, z, y, urgent, expired, level, cost)
                for z, y, urgent, expired, level, cost in rows]
    inventory.write_trajectory_csv(out_file, outcomes)
    header, lines = read_csv(out_file)
    assert header == ["period", "order", "demand", "urgent", "expired", "end_inventory", "cost"]
    assert [[*map(int, line[:6]), float(line[6])] for line in lines] == [
        [i, *row] for i, row in enumerate(rows, start=1)]


@given(st.lists(st.tuples(units, finite, finite), max_size=30))
def test_sweep_csv_reads_back_equal(out_file, rows):
    policy.write_sweep_csv(out_file, "target", rows)
    header, lines = read_csv(out_file)
    assert header == ["target", "average_cost", "objective"]
    assert [(int(c), float(a), float(o)) for c, a, o in lines] == rows


@given(st.lists(st.integers(0, 60), min_size=1, max_size=40), st.integers(0, 6))
def test_comparison_csv_reads_back_equal(out_file, demands, start_weekday):
    costs = inventory.CostParams()
    summaries = [
        policy.evaluate_strategy("gold", None, demands, 50, costs, start_weekday=start_weekday),
        policy.evaluate_strategy("baseline", None, demands, 50, costs, baseline_target=90,
                                 start_weekday=start_weekday),
    ]
    policy.write_comparison_csv(out_file, summaries)
    header, lines = read_csv(out_file)
    assert header == ["field", "gold", "baseline"]
    for line in lines:
        for summary, written in zip(summaries, line[1:]):
            value = getattr(summary, line[0])
            assert (written == "") if value is None else np.array_equal(
                float(written), value, equal_nan=True), line


@pytest.fixture(scope="module")
def train_records():
    return generate(GenConfig(n_days=60, seed=9))


@given(st.integers(0, 4), st.integers(1, 3), st.integers(0, 2**16),
       st.sampled_from(["drift", "flat"]))
def test_model_json_reads_back_equal(out_file, train_records, n_rounds, max_depth, seed,
                                     trend_mode):
    config = gbrt.GbrtConfig(n_rounds=n_rounds, max_depth=max_depth, seed=seed,
                             subsample_rows=0.8)
    model = forecast.fit_hybrid(train_records[:49], StlConfig(), config, trend_mode=trend_mode)
    _write_compact_json(out_file, forecast.hybrid_to_dict(model))
    assert out_file.read_text() == json.dumps(forecast.hybrid_to_dict(model),
                                              separators=(",", ":")) + "\n"
    loaded = forecast.hybrid_from_dict(json.loads(out_file.read_text()))
    assert forecast.hybrid_to_dict(loaded) == forecast.hybrid_to_dict(model)
    future = train_records[49:]
    assert np.array_equal(forecast.predict_daily(loaded, future),
                          forecast.predict_daily(model, future))


@pytest.fixture(scope="module")
def version_data():
    """A short dataset for drawn fits, and the golden fixture's 455 days (seed 31)."""
    return {"short": generate(GenConfig(n_days=160, seed=9)),
            "golden": generate(GenConfig(n_days=455, seed=31))}


@given(st.sampled_from(["drift", "flat"]), st.integers(2, 12), st.integers(30, 110),
       st.integers(1, 50), st.integers(0, 6), st.sampled_from([1.0, 0.7]),
       st.sampled_from([1.0, 0.6]), st.integers(0, 2**16))
# the golden fixture's train command: 365 days, 40 rounds, seed 4, its 90-day holdout
@example("drift", 7, 365, 90, 40, 1.0, 1.0, 4).via("the golden fixture")
def test_v1_and_v2_model_json_forecast_the_same_bytes(version_data, trend_mode, period,
                                                      train_days, horizon, n_rounds, rows,
                                                      cols, seed):
    data = version_data["golden" if train_days == 365 else "short"]
    config = gbrt.GbrtConfig(n_rounds=n_rounds, seed=seed, subsample_rows=rows,
                             subsample_cols=cols)
    model = forecast.fit_hybrid(data[:train_days], StlConfig(), config, period=period,
                                trend_mode=trend_mode)
    v2 = json.loads(json.dumps(forecast.hybrid_to_dict(model)))
    v1 = json.loads(json.dumps(v1_document(v2, data)))  # the same fit, as version 1 wrote it
    assert v1["decomposition"] == {name: getattr(model.decomposition, name).tolist()
                                   for name in ("trend", "seasonal", "residual")}
    future = data[train_days:train_days + horizon]
    expected = forecast.predict_daily(model, future).tobytes()
    for doc in (v1, v2):
        loaded = forecast.hybrid_from_dict(doc)
        assert forecast.predict_daily(loaded, future).tobytes() == expected
        assert forecast.hybrid_to_dict(loaded) == v2


def test_policy_and_manifests_are_indented_json(inputs, tmp_path):
    # json.dump(indent=2) bytes, a manifest's keys sorted, and a line end
    assert run([*command_line("optimize", inputs), "--out-dir", tmp_path]) == 0
    for path, sort_keys in ((tmp_path / "policy.json", False),
                            (tmp_path / "manifest.json", True),
                            (inputs["--model"].with_name("manifest.json"), True)):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=sort_keys) + "\n"
    assert list(json.loads((tmp_path / "policy.json").read_text())) == [
        "format", "version", "inventory_target", "reorder_daily", "reorder_semiweekly",
        "start_weekday"]


# the bytes: every CSV writer on fixed values, compared with the literal text

NAMED = 'lab "x", day 7'  # a feature name that must be quoted


def summary(strategy, urgent, doh):
    return policy.StrategySummary(strategy, 3, 2, 2 / 3, 10.5, 0.5, 20.0, 1.25, urgent, urgent,
                                  0.0, 0.0, 101.5, 3.0, 304.5, doh, (0, 3))


WRITES = {
    "dataset": (
        lambda path: forecast.write_dataset_csv(path, [
            forecast.DailyRecord(MONDAY, 12.0, {NAMED: np.float64(0.1), "c": math.nan}),
            forecast.DailyRecord(MONDAY + dt.timedelta(days=1), 3.5, {NAMED: 1e-300, "c": 2})]),
        'date,demand,"lab ""x"", day 7",c\r\n'
        "2010-01-04,12.0,0.1,\r\n"
        "2010-01-05,3.5,1e-300,2.0\r\n"),
    "truth": (
        lambda path: write_truth_csv(path, GenConfig(start_date=MONDAY), GroundTruth(
            np.array([90.0, 90.5]), np.array([-6.0, -2.0]), np.array([0.25, 1e17]),
            np.array([-1.5, 3.0]), {"b": np.array([4, 5]), "a": np.array([0.1, 0.2])})),
        "date,trend,weekday_effect,covariate_effect,noise,a,b\r\n"
        "2010-01-04,90.0,-6.0,0.25,-1.5,0.1,4.0\r\n"
        "2010-01-05,90.5,-2.0,1e+17,3.0,0.2,5.0\r\n"),
    "decomposition": (
        lambda path: write_decomposition_csv(
            path, Series(MONDAY, [100.0, 90.0], 2),
            Decomposition([95.0, 95.5], [5.0, -5.0], [0.0, -0.5])),
        "date,observed,trend,seasonal,residual\r\n"
        "2010-01-04,100.0,95.0,5.0,0.0\r\n"
        "2010-01-05,90.0,95.5,-5.0,-0.5\r\n"),
    "forecast": (
        lambda path: forecast.write_forecast_csv(path, forecast.ForecastReport(
            MONDAY, np.array([7.0]), np.array([6.999999999999999]))),
        "date,actual,predicted\r\n"
        "2010-01-04,7.0,6.999999999999999\r\n"),
    "trajectory": (
        lambda path: inventory.write_trajectory_csv(path, [
            inventory.PeriodOutcome(True, 30, 28, 0, 1, 150, 301.0),
            inventory.PeriodOutcome(False, 0, 40, 5, 0, 110, 1610.25)]),
        "period,order,demand,urgent,expired,end_inventory,cost\r\n"
        "1,30,28,0,1,150,301.0\r\n"
        "2,0,40,5,0,110,1610.25\r\n"),
    "sweep": (
        lambda path: policy.write_sweep_csv(path, "reorder_level",
                                            [(0, 250.5, 0.125), (10, 249.0, 1.0)]),
        "reorder_level,average_cost,objective\r\n"
        "0,250.5,0.125\r\n"
        "10,249.0,1.0\r\n"),
    "comparison": (
        lambda path: policy.write_comparison_csv(
            path, [summary("baseline", None, 2.5), summary("gold", 0.0, math.nan)]),
        "field,baseline,gold\r\n"
        "periods,3.0,3.0\r\n"
        "days_with_orders,2.0,2.0\r\n"
        "order_day_fraction,0.6666666666666666,0.6666666666666666\r\n"
        "order_qty_mean,10.5,10.5\r\n"
        "order_qty_sd,0.5,0.5\r\n"
        "inventory_mean,20.0,20.0\r\n"
        "inventory_sd,1.25,1.25\r\n"
        "urgent_mean,,0.0\r\n"
        "urgent_sd,,0.0\r\n"
        "wastage_mean,0.0,0.0\r\n"
        "wastage_sd,0.0,0.0\r\n"
        "cost_mean,101.5,101.5\r\n"
        "cost_sd,3.0,3.0\r\n"
        "total_cost,304.5,304.5\r\n"
        "doh,2.5,nan\r\n"),
}


@pytest.mark.parametrize("artifact", WRITES)
def test_writer_bytes_are_pinned(tmp_path, artifact):
    # RFC 4180 with \r\n line ends; a float cell is its shortest repr, an
    # integer count is written as is, and an empty cell is a missing value
    # (a NaN feature, a None urgent summary), while a NaN summary reads "nan"
    write, expected = WRITES[artifact]
    write(tmp_path / "file.csv")
    assert (tmp_path / "file.csv").read_bytes() == expected.encode()


def test_quoted_feature_name_reads_back(tmp_path):
    WRITES["dataset"][0](tmp_path / "dataset.csv")
    first, second = forecast.read_dataset_csv(tmp_path / "dataset.csv")
    assert list(first.features) == [NAMED, "c"]
    assert first.features[NAMED] == 0.1 and math.isnan(first.features["c"])
    assert (second.date, second.demand, second.features) == (
        MONDAY + dt.timedelta(days=1), 3.5, {NAMED: 1e-300, "c": 2.0})
