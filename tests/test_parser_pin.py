"""Every subcommand's flags, pinned: option strings, dest, type, default, required, choices.

A flag's dest is a key of the manifest's ``config`` and of a ``--config``
file, so renaming one, or changing its type or default, changes a format.
"""

import argparse

import pytest

from bloodbank.cli import build_parser

HELP = [(("-h", "--help"), "help", None, argparse.SUPPRESS, False, None)]
COMMON = [
    (("--out-dir",), "out_dir", None, None, False, None),
    (("--config",), "config", None, None, False, None),
]
STL = [
    (("--period",), "period", int, 7, False, None),
    (("--s-window",), "s_window", int, 11, False, None),
    (("--t-window",), "t_window", int, None, False, None),
    (("--n-inner",), "n_inner", int, 2, False, None),
    (("--n-outer",), "n_outer", int, 1, False, None),
    (("--loess-degree",), "loess_degree", int, 1, False, None),
]
STOCK = [
    (("--initial",), "initial", int, 780, False, None),
    (("--shelf-life",), "shelf_life", int, 32, False, None),
]
COSTS = [
    (("--cost-order",), "cost_order", float, 100.0, False, None),
    (("--cost-holding",), "cost_holding", float, 1.0, False, None),
    (("--cost-urgent",), "cost_urgent", float, 300.0, False, None),
    (("--cost-wastage",), "cost_wastage", float, 50.0, False, None),
]
REPORT = [(("--report",), "report", None, None, True, None)]

FLAGS = {
    "generate": HELP + [
        (("--days",), "days", int, 3650, False, None),
        (("--seed",), "seed", int, 42, False, None),
        (("--base-level",), "base_level", float, 92.0, False, None),
        (("--trend-slope",), "trend_slope", float, 0.001, False, None),
        (("--noise-sd",), "noise_sd", float, 20.0, False, None),
        (("--start-date",), "start_date", None, "2008-01-07", False, None),
    ] + COMMON,
    "decompose": HELP + [(("--data",), "data", None, None, True, None)] + STL + COMMON,
    "train": HELP + [
        (("--data",), "data", None, None, True, None),
        (("--train-days",), "train_days", int, None, True, None),
    ] + STL + [
        (("--rounds",), "rounds", int, 150, False, None),
        (("--learning-rate",), "learning_rate", float, 0.1, False, None),
        (("--max-depth",), "max_depth", int, 3, False, None),
        (("--min-child-weight",), "min_child_weight", float, 1.0, False, None),
        (("--subsample-rows",), "subsample_rows", float, 1.0, False, None),
        (("--subsample-cols",), "subsample_cols", float, 1.0, False, None),
        (("--reg-lambda",), "reg_lambda", float, 1.0, False, None),
        (("--gamma",), "gamma", float, 0.0, False, None),
        (("--seed",), "seed", int, 0, False, None),
    ] + COMMON,
    "forecast": HELP + [
        (("--model",), "model", None, None, True, None),
        (("--data",), "data", None, None, True, None),
        (("--horizon",), "horizon", int, None, True, None),
    ] + COMMON,
    "simulate": HELP + [
        (("--orders",), "orders", None, None, True, None),
        (("--demands",), "demands", None, None, True, None),
    ] + STOCK + COSTS + COMMON,
    "optimize": HELP + REPORT + STOCK + [
        (("--target-grid",), "target_grid", None, None, False, None),
        (("--reorder-grid",), "reorder_grid", None, None, False, None),
        (("--objective",), "objective", None, "match_gold", False, ["match_gold", "min_cost"]),
    ] + COSTS + COMMON,
    "compare": HELP + REPORT + [
        (("--policy",), "policy", None, None, False, None),
        (("--target",), "target", int, None, False, None),
        (("--reorder-daily",), "reorder_daily", int, None, False, None),
        (("--reorder-semiweekly",), "reorder_semiweekly", int, None, False, None),
        (("--baseline-target",), "baseline_target", int, None, False, None),
    ] + STOCK + COSTS + COMMON,
}


def subparsers():
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def test_the_subcommands_are_pinned():
    assert list(subparsers()) == list(FLAGS)


@pytest.mark.parametrize("command", FLAGS)
def test_every_flag_is_pinned(command):
    actual = [(tuple(a.option_strings), a.dest, a.type, a.default, a.required, a.choices)
              for a in subparsers()[command]._actions]
    assert actual == FLAGS[command]
    # a float default of 1.0 equals the int 1; the pin holds the type too
    assert [type(row[3]) for row in actual] == [type(row[3]) for row in FLAGS[command]]
