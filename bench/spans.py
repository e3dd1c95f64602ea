"""In-memory span tracer wrapped around the public functions of ``bloodbank``.

The benchmark never edits the package: ``instrument`` swaps each traced
function for a wrapper in every ``bloodbank`` module that holds a reference
to it (``policy`` imports ``step`` by name, ``cli`` builds its parser from
module globals, and so on) and ``restore`` puts the originals back.

A span records its name, start, end and parent.  A layer's self time is its
span's duration minus the time covered by its direct children.  Functions
called very often (``inventory.step``, ``gbrt.build_tree``) are aggregated:
each call adds its count and duration to the open parent span instead of
opening a span of its own.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name); aggregated names are in AGGREGATED
TRACED = [
    ("datagen", "generate_full", "datagen.generate_full"),
    ("timeseries", "stl_decompose", "timeseries.stl_decompose"),
    ("timeseries", "stl_extend", "timeseries.stl_extend"),
    ("gbrt", "train", "gbrt.train"),
    ("gbrt", "build_tree", "gbrt.build_tree"),
    ("gbrt", "predict", "gbrt.predict"),
    ("gbrt", "variable_importance", "gbrt.variable_importance"),
    ("forecast", "fit_hybrid", "forecast.fit_hybrid"),
    ("forecast", "predict_daily", "forecast.predict"),
    ("forecast", "predict_in_sample", "forecast.predict"),
    ("forecast", "records_to_matrix", "forecast.records_to_matrix"),
    ("forecast", "cv_rmse", "forecast.cv_rmse"),
    ("forecast", "grid_search_cv", "forecast.grid_search_cv"),
    ("forecast", "iterative_feature_selection", "forecast.feature_selection"),
    ("inventory", "step", "inventory.step"),
    ("inventory", "simulate", "inventory.simulate"),
    ("policy", "run_policy", "policy.run_policy"),
    ("policy", "cost_under_actual", "policy.cost_under_actual"),
    ("policy", "target_sweep", "policy.target_sweep"),
    ("policy", "optimize_target", "policy.optimize_target"),
    ("policy", "reorder_sweep", "policy.reorder_sweep"),
    ("policy", "optimize_reorder", "policy.optimize_reorder"),
    ("policy", "evaluate_strategy", "policy.evaluate_strategy"),
    ("cli", "cmd_generate", "cli.generate"),
    ("cli", "cmd_decompose", "cli.decompose"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_forecast", "cli.forecast"),
    ("cli", "cmd_optimize", "cli.optimize"),
    ("cli", "cmd_compare", "cli.compare"),
    # artifact reads and writes, all reported together as cli.io
    ("cli", "_write_manifest", "cli.io"),
    ("forecast", "read_dataset_csv", "cli.io"),
    ("forecast", "write_dataset_csv", "cli.io"),
    ("forecast", "read_forecast_csv", "cli.io"),
    ("forecast", "write_forecast_csv", "cli.io"),
    ("datagen", "write_truth_csv", "cli.io"),
    ("timeseries", "write_decomposition_csv", "cli.io"),
    ("policy", "write_sweep_csv", "cli.io"),
    ("policy", "write_comparison_csv", "cli.io"),
]

AGGREGATED = {"inventory.step", "gbrt.build_tree"}

LAYERS = ("datagen", "timeseries", "gbrt", "forecast", "inventory", "policy", "cli")

CLI_COMMANDS = ("generate", "decompose", "train", "forecast", "optimize", "compare")


class _Span:
    __slots__ = ("name", "start", "end", "parent", "child_time")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child_time = 0.0


class Tracer:
    """Spans, aggregated calls and counters of one traced section."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []
        self.agg_calls = Counter()
        self.agg_time = defaultdict(float)
        self.counters = Counter()
        self.sweep_keys: set = set()
        self.stl_keys: set = set()

    # -- span bookkeeping -------------------------------------------------
    def open(self, name):
        span = _Span(name, time.perf_counter(), self.stack[-1] if self.stack else None)
        self.stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.end - span.start

    def add_call(self, name, elapsed):
        parent = self.stack[-1] if self.stack else None
        key = (name, parent.name if parent else None)
        self.agg_calls[key] += 1
        self.agg_time[key] += elapsed
        if parent is not None:
            parent.child_time += elapsed

    # -- counters taken from call arguments --------------------------------
    def note(self, name, args, kwargs):
        c = self.counters
        if name == "gbrt.train":
            X, config = args[0], args[2]
            c["gbrt.train.cell_rounds"] += X.n_rows * X.n_cols * config.n_rounds
        elif name == "gbrt.predict":
            c["gbrt.predict.rows"] += args[1].n_rows
        elif name == "timeseries.stl_decompose":
            series = args[0]
            config = args[1] if len(args) > 1 else kwargs.get("config")
            c["timeseries.stl_decompose.days"] += len(series)
            self.stl_keys.add((repr(config), series.period, _digest(series.values)))
        elif name == "datagen.generate_full":
            c["datagen.days"] += args[0].n_days
        elif name == "forecast.fit_hybrid":
            if any(s.name == "forecast.feature_selection" for s in self.stack):
                c["forecast.feature_selection.rounds"] += 1
        elif name in ("policy.target_sweep", "policy.reorder_sweep"):
            grid = args[4] if name == "policy.target_sweep" else args[5]
            c[name + ".candidates"] += len(set(int(v) for v in grid))
            key = pickle.dumps((name, args, sorted(kwargs.items())))
            self.sweep_keys.add(hashlib.sha256(key).hexdigest())

    # -- results -----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        out = defaultdict(float)
        for span in self.spans:
            out[span.name] += (span.end - span.start) - span.child_time
        for (name, _), elapsed in self.agg_time.items():
            out[name] += elapsed
        return out

    def inclusive_times(self) -> dict[str, float]:
        out = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.end - span.start
        return out

    def calls(self) -> Counter:
        out = Counter(span.name for span in self.spans)
        for (name, _), count in self.agg_calls.items():
            out[name] += count
        return out

    def dump(self, path, extra: dict) -> None:
        """Write every span (start, end, parent index) plus the summary to JSON."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        doc = {
            **extra,
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end,
                 "parent": index.get(id(s.parent)) if s.parent else None}
                for s in self.spans
            ],
            "aggregated": [{"name": name, "parent": parent, "calls": self.agg_calls[key],
                            "s": self.agg_time[key]}
                           for key in self.agg_calls for name, parent in [key]],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)
            handle.write("\n")


def _digest(values) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


def _wrap(tracer: Tracer, name: str, fn):
    perf = time.perf_counter
    if name in AGGREGATED:
        def aggregated(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add_call(name, perf() - start)
        return aggregated

    def spanned(*args, **kwargs):
        tracer.note(name, args, kwargs)
        span = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)
    return spanned


def _package_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "bloodbank" or key.startswith("bloodbank."))]


def replace_everywhere(original, wrapper) -> list:
    """Point every ``bloodbank`` module reference to ``original`` at ``wrapper``."""
    patches = []
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                patches.append((module, key, original))
    return patches


def instrument(tracer: Tracer, layers=LAYERS) -> list:
    """Wrap the traced functions of ``layers``; return the patches for ``restore``.

    A function the package no longer has is skipped, and its metrics read 0.
    """
    patches = []
    for module_name, attr, span_name in TRACED:
        original = getattr(sys.modules[f"bloodbank.{module_name}"], attr, None)
        if module_name in layers and original is not None:
            patches += replace_everywhere(original, _wrap(tracer, span_name, original))
    return patches


def restore(patches) -> None:
    for module, key, original in reversed(patches):
        setattr(module, key, original)


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced repeat whose wall time was ``wall``."""
    own = tracer.self_times()
    incl = tracer.inclusive_times()
    calls = tracer.calls()
    c = tracer.counters
    m = {}
    for name in ("inventory.step", "inventory.simulate", "policy.target_sweep",
                 "policy.reorder_sweep", "gbrt.train", "gbrt.build_tree",
                 "timeseries.stl_decompose", "forecast.fit_hybrid"):
        m[name + ".calls"] = calls[name]
        m[name + ".s"] = own[name]
    for name in ("policy.cost_under_actual", "policy.run_policy", "forecast.cv_rmse"):
        m[name + ".calls"] = calls[name]
    for name in ("policy.evaluate_strategy", "gbrt.predict", "forecast.records_to_matrix",
                 "forecast.predict", "datagen.generate_full", "cli.io"):
        m[name + ".s"] = own[name]
    for name in ("policy.target_sweep.candidates", "policy.reorder_sweep.candidates",
                 "gbrt.train.cell_rounds", "gbrt.predict.rows", "timeseries.stl_decompose.days",
                 "forecast.feature_selection.rounds", "datagen.days"):
        m[name] = c[name]
    # simulated days per second of time spent inside the outermost policy calls
    policy_time = sum(s.end - s.start for s in tracer.spans
                      if s.name.startswith("policy.")
                      and not (s.parent and s.parent.name.startswith("policy.")))
    m["policy.sim_days_per_s"] = calls["inventory.step"] / policy_time if policy_time else 0.0
    sweeps = calls["policy.target_sweep"] + calls["policy.reorder_sweep"]
    m["policy.sweep.useful_ratio"] = len(tracer.sweep_keys) / sweeps if sweeps else 0.0
    stl_calls = calls["timeseries.stl_decompose"]
    m["timeseries.stl_decompose.distinct_ratio"] = (len(tracer.stl_keys) / stl_calls
                                                    if stl_calls else 0.0)
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = incl[f"cli.{command}"]  # whole stage, as a user times it
    for layer in LAYERS:
        m[f"layer.{layer}.s"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
    m["trace.wall_s"] = wall
    return m
