"""Demand models: seasonal-trend decomposition plus a model of its residual.

The decomposition captures the trend and day-of-week cycle of the demand
series; a residual model predicts the decomposition residual from lagged
operational features.  A forecast is the extended trend+seasonal value plus
the predicted residual.  ``HybridModel`` is the one model type; its residual
model is the boosted ensemble of the hybrid (``fit_hybrid``), least squares on
the same features (``fit_stl_linear``) or none (``fit_stl_only``).  They, CV and
feature selection share one fit and one forecast; only the hybrid is serialized.
CV scores each (fold, decomposition) group through one closure over its inputs,
which forked workers inherit, so no task is pickled: only the results coming back.
A dataset or report file is read by ``table.read_days``, which alone knows its
rows and cells; this module states only each file's header.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import math
import os
import pickle
import signal
import threading
from dataclasses import asdict, dataclass

import numpy as np

from . import gbrt
from .errors import ParameterError, SchemaError, document_version, every_field, finite_real, whole
from .policy import _SEMIWEEKLY_BLOCKS
from .table import read_days, write_days
from .timeseries import (TREND_MODES, Decomposition, Projection, Series, StlConfig,
                         stl_decompose, stl_projection)

__all__ = [
    "DailyRecord",
    "Dataset",
    "HybridModel",
    "ForecastReport",
    "fit_hybrid",
    "predict_daily",
    "predict_in_sample",
    "fit_stl_only",
    "predict_stl_only",
    "fit_stl_linear",
    "predict_stl_linear",
    "aggregate_semiweekly",
    "grid_search_cv",
    "cv_rmse",
    "iterative_feature_selection",
    "rmse",
    "mape",
    "read_dataset_csv",
    "write_dataset_csv",
    "write_forecast_csv",
    "read_forecast_csv",
    "hybrid_to_dict",
    "hybrid_from_dict",
]

_TREND_MODE = "drift"  # the default of every fit, CV and feature selection included


@dataclass(frozen=True)
class DailyRecord:
    """One calendar day of a ``Dataset``: demand plus feature values known before it."""

    date: dt.date
    demand: float
    features: dict[str, float]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Daily demand and features from ``start`` on, one row a day with no gap.

    ``demand`` is a float array of n days and ``features`` an (n, k) float
    array, NaN where a value is missing, whose columns are ``feature_names``;
    k may be 0.  It is also a read-only sequence of days: ``len``, slices of
    step 1 (a ``Dataset`` of views, its start shifted), and an index or
    iteration, which build each ``DailyRecord`` row on demand.
    """

    start: dt.date
    demand: np.ndarray
    features: np.ndarray | None = None
    feature_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        demand, names = np.asarray(self.demand, dtype=float), tuple(self.feature_names)
        features = np.asarray(np.empty((demand.size, 0)) if self.features is None
                              else self.features, dtype=float)
        if (demand.ndim != 1 or features.shape != (demand.size, len(names))
                or len(set(names)) < len(names)):
            raise ParameterError(f"a dataset needs n demands, (n, {len(names)}) features and "
                                 f"unique feature names, got {demand.shape}, {features.shape} "
                                 f"and {list(names)}")
        for name, value in (("demand", np.ascontiguousarray(demand)),
                            ("features", np.ascontiguousarray(features)), ("feature_names", names)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_records(cls, records) -> Dataset:
        """The dataset of ``DailyRecord`` rows, one a day in order, all with the first's names."""
        records = list(records)
        if not records:
            raise ParameterError("a dataset needs at least one day")
        names = records[0].features.keys()
        for prev, cur in zip(records, records[1:]):
            if cur.date != prev.date + dt.timedelta(days=1) or cur.features.keys() != names:
                raise ParameterError(f"dates must be contiguous, each with the same feature "
                                     f"names: {prev.date} is followed by {cur.date}")
        return cls(records[0].date, [r.demand for r in records],
                   [[r.features[name] for name in names] for r in records], tuple(names))

    @property
    def end(self) -> dt.date:
        return self.start + dt.timedelta(days=len(self) - 1)

    def dates(self) -> list[dt.date]:
        first = self.start.toordinal()
        return list(map(dt.date.fromordinal, range(first, first + len(self))))

    def __len__(self) -> int:
        return self.demand.size

    def __getitem__(self, key):
        days = range(len(self))[key]  # one day, or the days of a slice
        if isinstance(days, int):
            return DailyRecord(self.start + dt.timedelta(days=days), float(self.demand[days]),
                               dict(zip(self.feature_names, self.features[days].tolist())))
        if days.step != 1:
            raise ParameterError(f"a dataset slice must have step 1, got {days.step}")
        # an empty slice after a last day of 9999-12-31 starts on that day
        start = min(self.start.toordinal() + days.start, dt.date.max.toordinal())
        return Dataset(dt.date.fromordinal(start), self.demand[days.start:days.stop],
                       self.features[days.start:days.stop], self.feature_names)

    def __iter__(self):
        for day, demand, values in zip(self.dates(), self.demand.tolist(), self.features.tolist()):
            yield DailyRecord(day, demand, dict(zip(self.feature_names, values)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.start == other.start and self.feature_names == other.feature_names
                and np.array_equal(self.demand, other.demand)
                and np.array_equal(self.features, other.features, equal_nan=True))


def _matrix(data: Dataset, names: list[str] | None = None) -> gbrt.FeatureMatrix:
    """The columns ``names`` (all by default) of ``data``; ParameterError naming the
    first it lacks."""
    names = list(data.feature_names if names is None else names)
    if not names:
        raise ParameterError("at least one feature is required")
    absent = [name for name in names if name not in data.feature_names]
    if absent:
        raise ParameterError(f"no feature {absent[0]!r} on {data.start.isoformat()}")
    return gbrt.FeatureMatrix(data.features[:, list(map(data.feature_names.index, names))], names)


def demand_series(data: Dataset, period: int = 7) -> Series:
    return Series(start_date=data.start, values=data.demand, period=period)


@dataclass
class HybridModel:
    """A decomposition of the training window plus a model of its residual.

    ``projection`` is what a forecast extends; by default the decomposition's
    under ``trend_mode``.  Only a fitted model holds its ``decomposition``: a
    loaded one holds None, so ``predict_in_sample`` needs the fitted model.
    ``residual_model`` is a boosted ``gbrt.Ensemble``, the least-squares
    coefficients of the linear reference (intercept first), or ``None`` for
    decomposition alone.
    """

    period: int
    stl_config: StlConfig
    decomposition: Decomposition | None
    train_start: dt.date
    train_end: dt.date
    residual_model: gbrt.Ensemble | np.ndarray | None
    feature_names: list[str]
    trend_mode: str = _TREND_MODE
    projection: Projection | None = None

    def __post_init__(self) -> None:
        if self.projection is None:
            self.projection = stl_projection(self.decomposition, self.period, self.trend_mode)


@dataclass(frozen=True)
class ForecastReport:
    """Actual and predicted demand, one row a day from ``start``.

    A report with no rows holds no day: ``start`` is then the day a first row
    would have, or None where a file with a header alone was read.
    """

    start: dt.date | None
    actual: np.ndarray
    predicted: np.ndarray

    @property
    def dates(self) -> list[dt.date]:
        return [self.start + dt.timedelta(days=i) for i in range(len(self.actual))]

    @property
    def rmse(self) -> float:
        return rmse(self.predicted, self.actual)

    @property
    def mape(self) -> float:
        return mape(self.predicted, self.actual)


def _fit(train: Dataset, stl_config: StlConfig, feature_names: list[str] | None,
         period: int, trend_mode: str, fit_residual, dec: Decomposition | None = None,
         X: gbrt.FeatureMatrix | None = None) -> HybridModel:
    """Fit ``fit_residual(X, dec.residual)``, or no residual model if it is None.

    The decomposition ``dec`` of ``train`` and its feature rows ``X`` are made
    here unless given: CV and selection share them.
    """
    if dec is None:
        if len(train) < 2 * period:
            raise ParameterError(
                f"{len(train)} training days is fewer than two cycles of {period}")
        X = None if fit_residual is None else _matrix(train, feature_names)
        dec = stl_decompose(demand_series(train, period), stl_config)
    return HybridModel(period, stl_config, dec, train.start, train.end,
                       None if X is None else fit_residual(X, dec.residual),
                       [] if X is None else X.feature_names, trend_mode)


def _boosted(gbrt_config: gbrt.GbrtConfig):
    """The hybrid's residual fit: boosting under ``gbrt_config``."""
    return lambda X, residual: gbrt.train(X, residual, gbrt_config)


def fit_hybrid(train: Dataset, stl_config: StlConfig, gbrt_config: gbrt.GbrtConfig,
               feature_names: list[str] | None = None, period: int = 7,
               trend_mode: str = _TREND_MODE) -> HybridModel:
    """Decompose the demand series, then boost the residuals on the features."""
    return _fit(train, stl_config, feature_names, period, trend_mode, _boosted(gbrt_config))


def fit_stl_only(train: Dataset, stl_config: StlConfig, period: int = 7,
                 trend_mode: str = _TREND_MODE) -> HybridModel:
    """Decomposition alone: the residual forecast is zero."""
    return _fit(train, stl_config, None, period, trend_mode, None)


# a column whose squared norm, once the earlier columns are projected out, is
# below this share of its own lies in their span: far above rounding noise,
# far below what any covariate that varies leaves
_SPANNED = 1e-9


def _least_squares(X: gbrt.FeatureMatrix, residual: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of an intercept and each feature column.

    The normal equations are summed exactly (``math.fsum``) and solved by
    Gauss-Jordan elimination in column order.  A column that the earlier ones
    span, such as the last of a full set of weekday dummies beside the
    intercept, gets coefficient 0.
    """
    if np.isnan(X.values).any():
        raise ParameterError("linear baseline does not accept missing feature values")
    columns = [np.ones(residual.size), *X.values.T]
    rows = [[math.fsum((a * b).tolist()) for b in (*columns, residual)] for a in columns]
    norms = [row[k] for k, row in enumerate(rows)]  # each column's own squared norm
    pivoted = []
    for k, norm in enumerate(norms):
        pivot = rows[k][k]
        if pivot > _SPANNED * norm:
            unit = [value / pivot for value in rows[k]]
            rows = [unit if i == k else [value - row[k] * u for value, u in zip(row, unit)]
                    for i, row in enumerate(rows)]
            pivoted.append(k)
    coefficients = np.zeros(len(columns))
    coefficients[pivoted] = [rows[k][-1] for k in pivoted]
    return coefficients


def fit_stl_linear(train: Dataset, stl_config: StlConfig, feature_names: list[str] | None = None,
                   period: int = 7, trend_mode: str = _TREND_MODE) -> HybridModel:
    """Same decomposition, residuals fit with ordinary least squares."""
    return _fit(train, stl_config, feature_names, period, trend_mode, _least_squares)


def _features(model: HybridModel, days: Dataset) -> gbrt.FeatureMatrix | None:
    """The feature rows of ``days`` that the residual model reads; None without one."""
    if model.residual_model is None:
        return None
    return _matrix(days, model.feature_names)


def _predicted_residual(model: HybridModel, X: gbrt.FeatureMatrix | None):
    """The residual model's prediction for feature rows ``X``; 0.0 without rows."""
    if X is None:
        return 0.0
    if isinstance(model.residual_model, gbrt.Ensemble):
        return gbrt.predict(model.residual_model, X)
    intercept, *slopes = model.residual_model
    # the columns summed in order, so no BLAS kernel sets the rounding
    return sum((slope * column for slope, column in zip(slopes, X.values.T)),
               np.full(X.values.shape[0], intercept))


def _forecast(model: HybridModel, horizon: int, X: gbrt.FeatureMatrix | None) -> np.ndarray:
    """The ``horizon`` days after training: trend + seasonal extended, plus residual from ``X``."""
    base = model.projection.extend(horizon)
    return base + _predicted_residual(model, X)


def predict_daily(model: HybridModel, future: Dataset) -> np.ndarray:
    """Raw daily forecasts (may be negative; callers clamp at the order step)."""
    if not future:
        return np.empty(0)
    start = model.train_end + dt.timedelta(days=1)
    if future.start != start:
        raise ParameterError(f"forecast must start at {start}, got {future.start}")
    return _forecast(model, len(future), _features(model, future))


predict_stl_linear = predict_daily


def predict_in_sample(model: HybridModel, train: Dataset) -> np.ndarray:
    """Fitted values over the training window: trend + seasonal + predicted residual."""
    if model.decomposition is None:
        raise ParameterError("a loaded model holds no training decomposition: "
                             "in-sample predictions need the fitted model")
    if not train:
        return np.empty(0)
    if train.start != model.train_start or train.end != model.train_end:
        raise ParameterError(
            f"records span {train.start}..{train.end} but the model was "
            f"trained on {model.train_start}..{model.train_end}"
        )
    dec = model.decomposition
    X = _features(model, train)
    kept = (gbrt.in_sample(model.residual_model, X)
            if isinstance(model.residual_model, gbrt.Ensemble) else None)
    return dec.trend + dec.seasonal + (_predicted_residual(model, X) if kept is None else kept)


def predict_stl_only(model: HybridModel, horizon: int) -> np.ndarray:
    """The extended trend + seasonal values: the decomposition-only forecast."""
    if horizon == 0:
        return np.empty(0)
    return _forecast(model, horizon, None)


def _checked(pred, actual, metric: str) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape:
        raise ParameterError(f"length mismatch: {pred.size} vs {actual.size}")
    if pred.size == 0:
        raise ParameterError(f"{metric} needs at least one point")
    return pred, actual


def rmse(pred, actual) -> float:
    pred, actual = _checked(pred, actual, "rmse")
    with np.errstate(over="ignore"):
        error = pred - actual
        mean_square = np.mean(error**2)
    if not np.isfinite(mean_square):
        raise ParameterError(f"errors as large as {np.abs(error).max():.6g} overflow the rmse")
    return float(np.sqrt(mean_square))


def mape(pred, actual) -> float:
    """Mean absolute percentage error, returned as a fraction."""
    pred, actual = _checked(pred, actual, "mape")
    zeros = np.nonzero(actual == 0.0)[0]
    if zeros.size:
        raise ParameterError(f"mape undefined: actual value at index {zeros[0]} is zero")
    return float(np.mean(np.abs(pred - actual) / np.abs(actual)))


def aggregate_semiweekly(daily: list[tuple[dt.date, float]]) -> list[tuple[dt.date, float]]:
    """Sum daily values into Tue-Thu and Fri-Mon blocks labeled by start date.

    Partial blocks at either end are dropped.
    """
    for (prev, _), (cur, _) in zip(daily, daily[1:]):
        if cur != prev + dt.timedelta(days=1):
            raise ParameterError(f"dates must be contiguous: {prev} is followed by {cur}")
    out: list[tuple[dt.date, float]] = []
    i = 0
    while i < len(daily):
        day, _ = daily[i]
        length = _SEMIWEEKLY_BLOCKS.get(day.weekday())
        if length is None:
            i += 1  # leading partial block
            continue
        if i + length > len(daily):
            break  # trailing partial block
        total = float(sum(value for _, value in daily[i : i + length]))
        out.append((day, total))
        i += length
    return out


def _cv_workers(groups: int) -> int:
    """Worker processes for ``groups`` CV groups, one per usable CPU; below 2, none is forked."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):  # a process with other threads is not safe to fork
        return 1
    return min(len(os.sched_getaffinity(0)), groups)


def _worker(score, groups: range, out) -> None:
    """In a forked child: pickle each group's result to ``out`` until one fails, then exit."""
    try:
        with out:
            try:
                for group in groups:
                    pickle.dump((group, True, score(group)), out)
            except Exception as exc:  # the parent raises it
                pickle.dump((group, False, exc), out)
    finally:  # so that no caller code and no atexit handler runs in the child
        os._exit(0)


def _scored_groups(score, groups: int) -> list[tuple[int, int, float]]:
    """``score(0) + score(1) + ...``, on forked workers when more than one is usable.

    Worker ``w`` sends groups ``w, w + workers, ...`` down its own pipe.  Read in group
    order, the first group that failed raises its own error, as in this process, and one
    whose worker died before sending it raises ParameterError."""
    workers = _cv_workers(groups)
    if workers < 2:
        return [t for group in range(groups) for t in score(group)]
    # np.median (robust STL) imports numpy.ma on its first call: import it once
    # here, so the workers inherit it instead of each importing it again
    import numpy.ma
    pipes, scores = [], []
    with contextlib.ExitStack() as stack:  # leaving it, every worker is killed and reaped
        for w in range(workers):
            read, write = os.pipe()
            pipes.append(stack.enter_context(os.fdopen(read, "rb")))
            with os.fdopen(write, "wb") as out:  # the child's end: closed here once forked
                pid = os.fork()
                if pid == 0:
                    _worker(score, range(w, groups, workers), out)
            stack.callback(os.waitpid, pid, 0)
            stack.callback(os.kill, pid, signal.SIGKILL)  # first: its groups are read or unwanted
        for group in range(groups):
            try:
                _, ok, value = pickle.load(pipes[group % workers])
            except (EOFError, pickle.UnpicklingError):  # no record, or a truncated one
                raise ParameterError(f"the cross-validation worker for group {group} died")
            if not ok:
                raise value
            scores += value
    return scores


def _cv_scores(data: Dataset, grid: list[tuple[StlConfig, gbrt.GbrtConfig]], k: int,
               feature_names: list[str] | None, period: int) -> list[float]:
    """Mean forward-chained validation RMSE of every grid point.

    The feature matrix is built once for all folds.  Each fold window is
    decomposed once per distinct StlConfig, and the points sharing that
    decomposition form one group; groups run largest window first.  The
    fold scores are merged in a fixed order, so they do not depend on where
    or in which order the groups ran.
    """
    n = len(data)
    bounds = [round(j * n / (k + 1)) for j in range(k + 2)]
    if min(b - a for a, b in zip(bounds, bounds[1:])) < 2 * period:
        raise ParameterError(
            f"{n} records split {k + 1} ways leaves a fold shorter than two cycles"
        )
    X = _matrix(data, feature_names)
    names, X = X.feature_names, X.values
    points: dict[tuple[int, StlConfig], list[int]] = {}
    for j in range(k, 0, -1):
        for i, (stl_config, _) in enumerate(grid):
            points.setdefault((j, stl_config), []).append(i)
    groups = list(points.items())

    def score(group: int) -> list[tuple[int, int, float]]:
        """(grid index, fold, validation RMSE) of every grid point of one group.

        The group's training window is decomposed once for all its points.
        """
        (j, stl_config), indices = groups[group]
        lo, hi = bounds[j], bounds[j + 1]
        train = data[:lo]
        dec = stl_decompose(demand_series(train, period), stl_config)
        X_train = gbrt.FeatureMatrix(X[:lo], names)
        X_valid = gbrt.FeatureMatrix(X[lo:hi], names)
        actual = data.demand[lo:hi]
        scores = []
        for i in indices:
            model = _fit(train, stl_config, names, period, _TREND_MODE, _boosted(grid[i][1]),
                         dec, X_train)
            scores.append((i, j, rmse(_forecast(model, hi - lo, X_valid), actual)))
        return scores

    fold_scores = [[0.0] * k for _ in grid]
    for i, j, fold_rmse in _scored_groups(score, len(groups)):
        fold_scores[i][j - 1] = fold_rmse
    return [float(np.mean(scores)) for scores in fold_scores]


def cv_rmse(data: Dataset, stl_config: StlConfig, gbrt_config: gbrt.GbrtConfig, k: int = 5,
            feature_names: list[str] | None = None, period: int = 7) -> float:
    """Mean validation RMSE over k forward-chained contiguous blocks.

    The days are cut into k+1 time-ordered blocks; fold j trains on blocks
    1..j and scores block j+1, so validation data always follows its training
    window.
    """
    return _cv_scores(data, [(stl_config, gbrt_config)], k, feature_names, period)[0]


def grid_search_cv(data: Dataset, grid: list[tuple[StlConfig, gbrt.GbrtConfig]], k: int = 5,
                   feature_names: list[str] | None = None,
                   period: int = 7) -> tuple[StlConfig, gbrt.GbrtConfig]:
    """Best lattice point by cross-validated RMSE; ties keep the earlier entry."""
    if not grid:
        raise ParameterError("the configuration grid is empty")
    scores = _cv_scores(data, grid, k, feature_names, period)
    return grid[min(range(len(grid)), key=scores.__getitem__)]


def iterative_feature_selection(data: Dataset, stl_config: StlConfig,
                                gbrt_config: gbrt.GbrtConfig, importance_threshold: float = 0.005,
                                holdout_fraction: float = 0.2, period: int = 7) -> list[str]:
    """Prune features below an importance threshold until held-out RMSE stalls.

    Each round fits on the leading portion of the days, scores the held-out
    tail, and keeps only features whose normalized importance clears the
    threshold.  Returns the feature set of the best-scoring round.  The
    training window is decomposed once; only the boosting repeats.
    """
    if not 0.0 < importance_threshold < 1.0:
        raise ParameterError(
            f"importance_threshold must lie in (0, 1), got {importance_threshold}"
        )
    n = len(data)
    cut = n - max(1, round(holdout_fraction * n))
    train, holdout = data[:cut], data[cut:]
    if len(train) < 2 * period or not holdout:
        raise ParameterError("not enough records to split off a holdout")
    actual = holdout.demand

    X = _matrix(data)
    all_names, X = X.feature_names, X.values
    dec = stl_decompose(demand_series(train, period), stl_config)
    current = all_names
    best_rmse = np.inf
    best_set = current
    while True:
        cols = [all_names.index(name) for name in current]
        model = _fit(train, stl_config, current, period, _TREND_MODE, _boosted(gbrt_config),
                     dec, gbrt.FeatureMatrix(X[:cut, cols], current))
        score = rmse(_forecast(model, len(holdout), gbrt.FeatureMatrix(X[cut:, cols], current)),
                     actual)
        if score < best_rmse:
            best_rmse = score
            best_set = current
        else:
            break
        importance = gbrt.variable_importance(model.residual_model)
        survivors = [f for f in current if importance.get(f, 0.0) >= importance_threshold]
        if not survivors or survivors == current:
            break
        current = survivors
    return best_set


def _dataset_names(path, header: list[str] | None) -> list[str]:
    """The feature names of a dataset header; SchemaError unless it starts date,demand
    and names each feature once."""
    if header is None or header[:2] != ["date", "demand"]:
        raise SchemaError(f"{path}: dataset header must start with date,demand: {header}")
    names = header[2:]
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise SchemaError(f"{path}: dataset column {repeated[0]!r} is repeated")
    return names


def read_dataset_csv(path) -> Dataset:
    """Columns: date (every day, no gap), demand, then one per feature; empty = missing."""
    names, start, values = read_days(path, _dataset_names, filled=1)
    if start is None:
        raise SchemaError(f"{path}: dataset has no rows")
    return Dataset(start, values[:, 0], values[:, 1:], names)


def write_dataset_csv(path, data: Dataset) -> None:
    """``data``, or its ``DailyRecord`` rows, as ``read_dataset_csv`` reads it back."""
    data = data if isinstance(data, Dataset) else Dataset.from_records(data)
    write_days(path, ["date", "demand", *data.feature_names], data.start,
               [data.demand, *data.features.T], missing="")


_REPORT_HEADER = ["date", "actual", "predicted"]


def _report_header(path, header: list[str] | None) -> None:
    if header != _REPORT_HEADER:
        raise SchemaError(f"{path}: unexpected forecast header: {header}")


def write_forecast_csv(path, report: ForecastReport) -> None:
    """Columns: date, actual, predicted; a row a day from the report's start."""
    write_days(path, _REPORT_HEADER, report.start, [report.actual, report.predicted])


def read_forecast_csv(path) -> ForecastReport:
    """A report as ``write_forecast_csv`` writes it: one row a day, no empty cell."""
    _, start, values = read_days(path, _report_header, filled=2)
    actual, predicted = np.ascontiguousarray(values.T)
    return ForecastReport(start, actual, predicted)


_COMPONENTS = ("trend", "seasonal", "residual")


def hybrid_to_dict(model: HybridModel) -> dict:
    """The ``bloodbank.hybrid`` v2 document of a boosted model."""
    if not isinstance(model.residual_model, gbrt.Ensemble):
        raise ParameterError("only a model with a boosted residual can be serialized")
    projection = model.projection
    return {
        "format": "bloodbank.hybrid",
        "version": 2,
        "period": model.period,
        "trend_mode": model.trend_mode,
        "train_start": model.train_start.isoformat(),
        "train_end": model.train_end.isoformat(),
        "stl_config": asdict(model.stl_config),
        "projection": {"level": projection.level, "slope": projection.slope,
                       "anchor": projection.anchor, "seasonal": projection.seasonal.tolist()},
        "feature_names": list(model.feature_names),
        "residual_model": gbrt.ensemble_to_dict(model.residual_model),
    }


def _finite_values(values: list, label: str) -> np.ndarray:
    """``values`` as floats, each an int or a finite float (not a bool)."""
    return np.array([float(finite_real(label, value)) for value in values])


def hybrid_from_dict(doc: dict) -> HybridModel:
    """The model of a v2 document, or of a v1 one, whose decomposition gives the projection."""
    version = document_version(doc, "bloodbank.hybrid", (1, 2), "hybrid model")
    try:
        period, trend_mode = whole("period", doc["period"]), doc.get("trend_mode", "drift")
        stl = doc["stl_config"]
        for key, value in stl.items() if isinstance(stl, dict) else ():
            if not (key == "t_window" and value is None):
                whole(f"stl_config {key}", value)
        stl_config = StlConfig(**every_field(StlConfig, stl, "stl_config"))
        train_start = dt.date.fromisoformat(doc["train_start"])
        train_end = dt.date.fromisoformat(doc["train_end"])
        if train_end < train_start:
            raise SchemaError(f"training window {train_start}..{train_end} ends before it starts")
        days = (train_end - train_start).days + 1
        if version == 1:
            components = doc["decomposition"]
            dec = Decomposition(*(_finite_values(components[name], f"decomposition {name} value")
                                  for name in _COMPONENTS))
        else:
            block = doc["projection"]
            projection = Projection(days, *(float(finite_real(f"projection {key}", block[key]))
                                            for key in ("level", "slope", "anchor")),
                                    _finite_values(block["seasonal"], "projection seasonal value"))
        residual_model = gbrt.ensemble_from_dict(doc["residual_model"])
        feature_names = doc["feature_names"]
    except KeyError as exc:
        raise SchemaError(f"hybrid model document is missing key {exc.args[0]!r}") from exc
    except (ParameterError, SchemaError) as exc:  # a field's rule, which names the field
        raise SchemaError(str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed hybrid model document: {exc}") from exc
    if version == 1 and len(dec) != days:
        raise SchemaError(f"decomposition has {len(dec)} days but the training window "
                          f"{train_start}..{train_end} has {days}")
    if not 2 <= period <= days // 2:
        raise SchemaError(f"period must lie in 2..{days // 2} so that {days} training days "
                          f"hold two cycles, got {period}")
    if trend_mode not in TREND_MODES:
        raise SchemaError(f"trend_mode must be one of {TREND_MODES}, got {trend_mode!r}")
    if not feature_names:
        raise SchemaError("feature_names must name at least one feature")
    if feature_names != residual_model.feature_names:
        raise SchemaError(f"feature_names {feature_names} differ from the residual "
                          f"model's {residual_model.feature_names}")
    if version == 1:
        projection = stl_projection(dec, period, trend_mode)
    elif projection.seasonal.size != period:
        raise SchemaError(f"projection seasonal has {projection.seasonal.size} values, "
                          f"not one a day of the period {period}")
    elif trend_mode == "flat" and projection.slope != 0.0:
        raise SchemaError(f"projection slope must be 0 under trend_mode 'flat', "
                          f"got {projection.slope!r}")
    return HybridModel(period, stl_config, None, train_start, train_end, residual_model,
                       feature_names, trend_mode, projection)
