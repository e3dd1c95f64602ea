"""Command-line pipeline: generate, decompose, train, forecast, simulate,
optimize, compare.

Every run gets its own output directory, made on its first write.  Each
artifact is written under a temporary name and renamed into place, and the
``manifest.json`` (the resolved configuration, SHA-256 of every input file,
the package version, the outputs and whether the run finished) is written
last, so every output it lists exists and is complete.  Values may come from
a JSON config file via ``--config``; explicit flags win over file values.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime as dt
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, datagen, forecast, gbrt, inventory, policy, timeseries
from .errors import ParameterError, SchemaError, document_version, whole
from .table import read_text

OUTPUT_ROOT_ENV = "BLOODBANK_RUNS"
# the flags that name input files, and the parsed values that are not config
_INPUT_FLAGS = ("data", "model", "orders", "demands", "report", "policy")
_NOT_CONFIG = ("command", "func", "out_dir", "config")
# StlConfig, GbrtConfig and CostParams fields are flags named after them, except these
_FLAG_DESTS = {"routine_delivery": "cost_order", "holding": "cost_holding",
               "urgent": "cost_urgent", "wastage": "cost_wastage", "n_rounds": "rounds"}
_CLI_DEFAULTS = {"rounds": 150}  # the library boosts 100 rounds


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _run_dir(args) -> Path:
    if args.out_dir:
        path = Path(args.out_dir)
    else:
        root = Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))
        stamp = dt.datetime.now(dt.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
        path = root / f"{args.command}-{stamp}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path, doc, sort_keys: bool = False) -> None:
    """``doc`` as ``json.dump(doc, indent=2, sort_keys=sort_keys)`` writes it, and a line end."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=sort_keys)
        handle.write("\n")


def _write_compact_json(path, doc) -> None:
    """``doc`` as ``json.dumps(doc, separators=(",", ":"))`` (json's C encoder) and a line
    end, in one write: ``json.dump`` would hand the file its text chunk by chunk."""
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def _replace(path: Path, writer, *values) -> None:
    """``writer(temporary, *values)``, then rename the temporary file to ``path``."""
    temporary = path.with_name(f".{path.name}.tmp")
    try:
        writer(temporary, *values)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def _remove_earlier_outputs(run_dir: Path, inputs) -> None:
    """Delete the outputs an earlier manifest in ``run_dir`` lists, except ``inputs``."""
    path = run_dir / "manifest.json"
    doc = _load_json(path) if path.exists() else {"outputs": []}
    names = doc.get("outputs") if isinstance(doc, dict) else None
    if not isinstance(names, list) or not all(
            isinstance(n, str) and n not in ("", "..") and Path(n).name == n for n in names):
        raise SchemaError(f"{path}: outputs must be a list of file names")
    keep = {Path(p).resolve() for p in inputs}
    for output in (run_dir / name for name in names):
        if output.resolve() not in keep:
            output.unlink(missing_ok=True)


class _Run:
    """One command's run directory; ``main`` enters it around the command.

    The directory is made on the first write, so a command that fails before
    writing leaves nothing behind.  Inputs are hashed then, before any output
    could replace one, and an earlier run's outputs there are removed.  On
    exit the manifest records ``status`` ``ok``, or ``failed`` with the
    exception class.
    """

    def __init__(self, args):
        self.args = args
        self.dir = None
        self.inputs = {}
        self.outputs = []

    def write(self, name: str, writer, *values) -> Path:
        """Commit ``writer(path, *values)`` as output ``name``; return its path."""
        if self.dir is None:
            self.dir = _run_dir(self.args)
            paths = [getattr(self.args, flag, None) for flag in _INPUT_FLAGS]
            self.inputs = {str(p): {"sha256": _sha256(Path(p)), "bytes": Path(p).stat().st_size}
                           for p in paths if p}
            _remove_earlier_outputs(self.dir, self.inputs)
        path = self.dir / name
        _replace(path, writer, *values)
        self.outputs.append(name)
        return path

    def __enter__(self) -> _Run:
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        if self.dir is not None:
            status = ({"status": "ok"} if kind is None
                      else {"status": "failed", "error": kind.__name__})
            _write_manifest(self, status)


def _write_manifest(run: _Run, status: dict) -> None:
    manifest = {
        "command": run.args.command,
        "package": {"name": "bloodbank", "version": __version__},
        "config": {k: v for k, v in vars(run.args).items() if k not in _NOT_CONFIG},
        "inputs": run.inputs,
        "outputs": run.outputs,
        **status,
    }
    _replace(run.dir / "manifest.json", _write_json, manifest, True)  # keys sorted


def _load_json(path):
    """Parsed content of a JSON file; SchemaError naming the file if it is not UTF-8 JSON."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


def _parse_grid(flag: str, text: str) -> list[int]:
    try:
        lo, hi, step = (int(part) for part in text.split(":"))
    except ValueError as exc:
        raise ParameterError(f"{flag} must be LO:HI:STEP, got {text!r}") from exc
    if step <= 0 or hi < lo or lo < 0:
        raise ParameterError(
            f"{flag} must be LO:HI:STEP with 0 <= LO <= HI and STEP > 0, got {text!r}")
    return list(range(lo, hi + 1, step))


def _add_fields(parser: argparse.ArgumentParser, kind) -> None:
    """One flag per field of the dataclass ``kind``; a float default gives a float flag."""
    for field in dataclasses.fields(kind):
        dest = _FLAG_DESTS.get(field.name, field.name)
        parser.add_argument("--" + dest.replace("_", "-"),
                            type=float if isinstance(field.default, float) else int,
                            default=_CLI_DEFAULTS.get(dest, field.default))


def _value(args, kind):
    """``kind`` built from the flags ``_add_fields`` added."""
    return kind(**{field.name: getattr(args, _FLAG_DESTS.get(field.name, field.name))
                   for field in dataclasses.fields(kind)})


def _initial(args) -> int:
    """``--initial``, a unit count that int64 holds."""
    if args.initial < 0:
        raise ParameterError(f"--initial must be non-negative, got {args.initial}")
    if args.initial >= 2**63:
        raise ParameterError(f"--initial must be below 2**63 units, got {args.initial}")
    return args.initial


def _young_stock(args, demands) -> inventory.AgeProfile:
    """The starting stock of every simulation in a run: ``--initial`` young units."""
    return inventory._starting_stock(_initial(args), demands, args.shelf_life)


@contextlib.contextmanager
def _blaming(prefix):
    """Re-raise a ``ParameterError`` or ``SchemaError`` as one of its class led by ``prefix: ``."""
    try:
        yield
    except (ParameterError, SchemaError) as exc:
        raise type(exc)(f"{prefix}: {exc}") from None


def _say(text: str) -> None:
    try:
        print(text, flush=True)
    except OSError:  # a closed stdout (``| head -0``) loses the progress line, not the run
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _report(data: forecast.Dataset, predicted) -> forecast.ForecastReport:
    return forecast.ForecastReport(data.start, data.demand, predicted)


def cmd_generate(args, run: _Run) -> None:
    try:
        start_date = dt.date.fromisoformat(args.start_date)
    except ValueError:
        raise ParameterError(
            f"--start-date must be a date as YYYY-MM-DD, got {args.start_date!r}") from None
    config = datagen.GenConfig(
        n_days=args.days,
        base_level=args.base_level,
        trend_slope=args.trend_slope,
        noise_sd=args.noise_sd,
        seed=args.seed,
        start_date=start_date,
    )
    data, truth = datagen.generate_full(config)
    path = run.write("dataset.csv", forecast.write_dataset_csv, data)
    run.write("dataset_truth.csv", datagen.write_truth_csv, config, truth)
    _say(f"wrote {len(data)} days to {path}")


def cmd_decompose(args, run: _Run) -> None:
    config = _value(args, timeseries.StlConfig)
    series = forecast.demand_series(forecast.read_dataset_csv(args.data), args.period)
    config.resolved_t_window(series.period)  # a flag's fault, not the dataset's
    with _blaming(f"{args.data}: demand"):
        dec = timeseries.stl_decompose(series, config)
    path = run.write("decomposition.csv", timeseries.write_decomposition_csv, series, dec)
    _say(f"wrote decomposition of {len(series)} days to {path}")


def cmd_train(args, run: _Run) -> None:
    stl_config, gbrt_config = _value(args, timeseries.StlConfig), _value(args, gbrt.GbrtConfig)
    if args.period < 2:  # a flag's fault, not the dataset's
        raise ParameterError(f"period must be >= 2, got {args.period}")
    stl_config.resolved_t_window(args.period)  # so is a trend window too short to smooth
    data = forecast.read_dataset_csv(args.data)
    if not 0 < args.train_days <= len(data):
        raise ParameterError(
            f"{args.data}: train_days must lie in 1..{len(data)}, got {args.train_days}"
        )
    train_part, holdout = data[: args.train_days], data[args.train_days :]
    with _blaming(f"{args.data}: demand"):
        model = forecast.fit_hybrid(train_part, stl_config, gbrt_config, period=args.period)
        report = _report(holdout, forecast.predict_daily(model, holdout))
        rmse = report.rmse if holdout else math.nan  # scored before any write
    zeros = np.flatnonzero(holdout.demand == 0.0)  # MAPE divides by demand
    zero_day = report.dates[zeros[0]] if zeros.size else None
    mape = 100.0 * report.mape if holdout and zero_day is None else math.nan
    path = run.write("model.json", _write_compact_json, forecast.hybrid_to_dict(model))
    run.write("train_report.csv", forecast.write_forecast_csv,
              _report(train_part, forecast.predict_in_sample(model, train_part)))
    if holdout:
        run.write("holdout_report.csv", forecast.write_forecast_csv, report)
        run.write("metrics.csv", Path.write_text,
                  f"metric,value\nrmse,{rmse!r}\nmape_percent,{mape!r}\n")
        _say(f"holdout rmse {rmse:.3f}, " + (f"mape {mape:.2f}%" if zero_day is None else
                                             f"mape undefined: zero demand on {zero_day}"))
    _say(f"wrote model to {path}")


def cmd_forecast(args, run: _Run) -> None:
    if args.horizon < 0:  # a flag's fault, found before any file is read
        raise ParameterError(f"--horizon must be non-negative, got {args.horizon}")
    doc = _load_json(args.model)
    with _blaming(args.model):
        model = forecast.hybrid_from_dict(doc)
    data = forecast.read_dataset_csv(args.data)
    after = max(0, (model.train_end - data.start).days + 1)  # the first day after training
    future = data[after : after + args.horizon]
    if len(future) < args.horizon:
        raise ParameterError(
            f"{args.data}: data supplies only {len(future)} days after {model.train_end}, "
            f"horizon needs {args.horizon}"
        )
    with _blaming(args.data):
        predicted = forecast.predict_daily(model, future)
    path = run.write("forecast.csv", forecast.write_forecast_csv, _report(future, predicted))
    _say(f"wrote {len(future)} forecast days to {path}")


def cmd_simulate(args, run: _Run) -> None:
    costs = _value(args, inventory.CostParams)
    orders = inventory.read_stream_csv(args.orders)
    demands = inventory.read_stream_csv(args.demands)
    outcomes, average = inventory.simulate(_young_stock(args, demands), orders, demands, costs)
    run.write("trajectory.csv", inventory.write_trajectory_csv, outcomes)
    _say(f"simulated {len(outcomes)} periods, average cost {average:.2f}")


def _read_report(path) -> tuple[list[float], list[int], int]:
    """Forecasts, realized demands and first weekday of a forecast report, which runs
    one row a day, so each order's weekday follows from the first.

    Demands are rounded half-up as the policy rounds.  The reader has already
    rejected non-finite cells.
    """
    report = forecast.read_forecast_csv(path)
    if not report.actual.size:
        raise ParameterError(f"{path}: report has no rows")
    for row_number, value in enumerate(report.actual, start=2):
        if value < 0:
            raise ParameterError(
                f"{path}: row {row_number}: actual demand must be non-negative, got {value}"
            )
    return (list(report.predicted), [policy.round_units(v) for v in report.actual],
            report.start.weekday())


def cmd_optimize(args, run: _Run) -> None:
    costs = _value(args, inventory.CostParams)
    initial = _initial(args)  # before the default grid is sized from it
    target_grid = (_parse_grid("--target-grid", args.target_grid) if args.target_grid
                   else list(range(initial, 2 * initial + 1, 10)))
    reorder_grid = (_parse_grid("--reorder-grid", args.reorder_grid) if args.reorder_grid
                    else None)
    y_hat, demands, start_weekday = _read_report(args.report)
    stock = _young_stock(args, demands)
    with _blaming(args.report):  # every sweep is checked before the first write
        choices, sweeps = policy.learn_policy(y_hat, demands, stock, costs, target_grid,
                                              reorder_grid, start_weekday, args.shelf_life,
                                              args.objective)

    run.write("policy.json", _write_json, {
        "format": "bloodbank.policy",
        "version": 1,
        "inventory_target": choices["target"],
        "reorder_daily": choices["daily"],
        "reorder_semiweekly": choices["semiweekly"],
        "start_weekday": start_weekday,
    })
    run.write("target_sweep.csv", policy.write_sweep_csv, "target", sweeps["target"])
    for kind in ("daily", "semiweekly"):
        run.write(f"reorder_sweep_{kind}.csv", policy.write_sweep_csv, "reorder_level",
                  sweeps[kind])
    _say(f"inventory target {choices['target']}, reorder daily {choices['daily']}, "
         f"semiweekly {choices['semiweekly']}")


def cmd_compare(args, run: _Run) -> None:
    costs = _value(args, inventory.CostParams)
    y_hat, demands, start_weekday = _read_report(args.report)
    stock = _young_stock(args, demands)  # before the default baseline target is scaled from it

    if args.policy:
        doc = _load_json(args.policy)
        with _blaming(args.policy):
            document_version(doc, "bloodbank.policy", (1,), "policy")
            levels = []
            for key in ("inventory_target", "reorder_daily", "reorder_semiweekly"):
                if key not in doc:
                    raise SchemaError(f"policy document is missing key {key!r}")
                level = whole(key, doc[key])
                if level < 0:
                    raise SchemaError(f"{key} must be non-negative, got {level}")
                if levels and level > levels[0]:
                    raise SchemaError(f"{key} {level} exceeds inventory_target {levels[0]}")
                levels.append(level)
        target, reorder_daily, reorder_semiweekly = levels
    else:
        if args.target is None or args.reorder_daily is None or args.reorder_semiweekly is None:
            raise ParameterError(
                "compare needs either --policy or all of --target, --reorder-daily, "
                "--reorder-semiweekly"
            )
        target, reorder_daily, reorder_semiweekly = (
            args.target, args.reorder_daily, args.reorder_semiweekly)

    if args.baseline_target is not None and args.baseline_target < 0:
        raise ParameterError(f"--baseline-target must be non-negative, got {args.baseline_target}")
    baseline_target = (args.baseline_target if args.baseline_target is not None
                       else round(1.7 * args.initial))
    strategies = {"baseline": {"baseline_target": baseline_target}, "gold": {},
                  "daily": {"params": policy.PolicyParams(target, reorder_daily)},
                  "semiweekly": {"params": policy.PolicyParams(target, reorder_semiweekly)}}
    with _blaming(args.report):  # checked before any write
        summaries = [policy.evaluate_strategy(name, y_hat, demands, stock, costs,
                                              start_weekday=start_weekday,
                                              shelf_life=args.shelf_life, **extra)
                     for name, extra in strategies.items()]
    table = policy.comparison_table(summaries)
    run.write("comparison.csv", policy.write_comparison_csv, summaries)
    run.write("comparison.txt", Path.write_text, table + "\n")
    _say(table)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", default=None,
                        help=f"output directory (default: ${OUTPUT_ROOT_ENV} or ./runs)")
    parser.add_argument("--config", default=None,
                        help="JSON file with default values for optional flags; "
                             "required flags must be given on the command line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bloodbank",
                                     description="demand forecasting and ordering pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic daily dataset")
    p.add_argument("--days", type=int, default=3650)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--base-level", type=float, default=92.0)
    p.add_argument("--trend-slope", type=float, default=0.001)
    p.add_argument("--noise-sd", type=float, default=20.0)
    p.add_argument("--start-date", default="2008-01-07")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("decompose", help="split a demand series into components")
    p.add_argument("--data", required=True)
    p.add_argument("--period", type=int, default=7)
    _add_fields(p, timeseries.StlConfig)
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("train", help="fit the hybrid model")
    p.add_argument("--data", required=True)
    p.add_argument("--train-days", type=int, required=True)
    p.add_argument("--period", type=int, default=7)
    _add_fields(p, timeseries.StlConfig)
    _add_fields(p, gbrt.GbrtConfig)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", help="predict days following the training window")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--horizon", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("simulate", help="run order/demand streams through the inventory")
    p.add_argument("--orders", required=True)
    p.add_argument("--demands", required=True)
    p.add_argument("--initial", type=int, default=780)
    p.add_argument("--shelf-life", type=int, default=32)
    _add_fields(p, inventory.CostParams)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="learn the inventory target and reorder levels")
    p.add_argument("--report", required=True, help="forecast csv (date,actual,predicted)")
    p.add_argument("--initial", type=int, default=780)
    p.add_argument("--shelf-life", type=int, default=32)
    p.add_argument("--target-grid", default=None, help="LO:HI:STEP (default initial..2*initial)")
    p.add_argument("--reorder-grid", default=None, help="LO:HI:STEP (default 0..target)")
    p.add_argument("--objective", choices=["match_gold", "min_cost"], default="match_gold")
    _add_fields(p, inventory.CostParams)
    _add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("compare", help="summarize the four ordering strategies")
    p.add_argument("--report", required=True, help="forecast csv (date,actual,predicted)")
    p.add_argument("--policy", default=None, help="policy.json from optimize")
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--reorder-daily", type=int, default=None)
    p.add_argument("--reorder-semiweekly", type=int, default=None)
    p.add_argument("--baseline-target", type=int, default=None)
    p.add_argument("--initial", type=int, default=780)
    p.add_argument("--shelf-life", type=int, default=32)
    _add_fields(p, inventory.CostParams)
    _add_common(p)
    p.set_defaults(func=cmd_compare)
    return parser


def _config_value(path, key: str, value, action: argparse.Action):
    """A config-file value converted as its flag's command-line text would be."""
    if value is None and action.default is None:
        return None
    try:
        if action.type is None and not isinstance(value, str):
            raise ValueError(value)
        converted = action.type(str(value)) if action.type else value
        if action.choices is not None and converted not in action.choices:
            raise ValueError(value)
    except ValueError:
        raise SchemaError(f"{path}: {key}: {value!r} is not a valid value for "
                          f"{action.option_strings[-1]}") from None
    return converted


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``; the values of a ``--config`` file replace flag defaults.

    The file's values become the subcommand's defaults and argv is parsed
    again, so every flag given on the command line wins, abbreviated or not.
    """
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    overrides = _load_json(args.config)
    if not isinstance(overrides, dict):
        raise SchemaError(f"{args.config}: config file must hold a JSON object")
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    command_parser = commands.choices[args.command]
    flags = {a.dest: a for a in command_parser._actions if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, value in overrides.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ParameterError(f"{args.config}: config file sets unknown option {key!r}")
        defaults[action.dest] = _config_value(args.config, key, value, action)
    command_parser.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _apply_config_file(parser, argv)
        with _Run(args) as run:
            args.func(args, run)
    except (ParameterError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        name = exc.filename2 or exc.filename  # None for a pipe
        print(f"error: {'' if name is None else f'{name}: '}{exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
