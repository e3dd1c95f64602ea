"""Demand models: seasonal-trend decomposition plus a model of its residual.

The decomposition captures the trend and day-of-week cycle of the demand
series; a residual model predicts the decomposition residual from lagged
operational features.  A forecast is the extended trend+seasonal value plus
the predicted residual.  ``HybridModel`` is the one model type; its residual
model is the boosted ensemble of the hybrid (``fit_hybrid``), least squares on
the same features (``fit_stl_linear``) or none (``fit_stl_only``).  They, CV and
feature selection share one fit and one forecast; only the hybrid is serialized.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import gbrt
from .errors import ParameterError, SchemaError
from .policy import _SEMIWEEKLY_BLOCKS
from .table import number, read_rows, write_table
from .timeseries import (TREND_MODES, Decomposition, Series, StlConfig, stl_decompose,
                         stl_extend)

__all__ = [
    "DailyRecord",
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
    """One calendar day: demand target plus feature values known before that day."""

    date: dt.date
    demand: float
    features: dict[str, float]


def feature_names_of(records: list[DailyRecord]) -> list[str]:
    names = list(records[0].features)
    expected = set(names)
    for record in records[1:]:
        if set(record.features) != expected:
            raise ParameterError(
                f"inconsistent feature names on {record.date.isoformat()}"
            )
    return names


def _resolved_names(records: list[DailyRecord], feature_names: list[str] | None) -> list[str]:
    names = list(feature_names) if feature_names is not None else feature_names_of(records)
    if not names:
        raise ParameterError("at least one feature is required")
    return names


def _check_contiguous(dates: list[dt.date]) -> None:
    for prev, cur in zip(dates, dates[1:]):
        if cur != prev + dt.timedelta(days=1):
            raise ParameterError(f"dates must be contiguous: {prev} is followed by {cur}")


def records_to_matrix(records: list[DailyRecord], names: list[str]) -> gbrt.FeatureMatrix:
    values = np.empty((len(records), len(names)))
    for i, record in enumerate(records):
        for j, name in enumerate(names):
            value = record.features.get(name)
            values[i, j] = np.nan if value is None else value
    return gbrt.FeatureMatrix(values, names)


def demand_series(records: list[DailyRecord], period: int = 7) -> Series:
    return Series(
        start_date=records[0].date,
        values=np.array([r.demand for r in records], dtype=float),
        period=period,
    )


@dataclass
class HybridModel:
    """A decomposition of the training window plus a model of its residual.

    ``residual_model`` is a boosted ``gbrt.Ensemble``, the least-squares
    coefficients of the linear reference (intercept first), or ``None`` for
    decomposition alone.
    """

    period: int
    stl_config: StlConfig
    decomposition: Decomposition
    train_start: dt.date
    train_end: dt.date
    residual_model: gbrt.Ensemble | np.ndarray | None
    feature_names: list[str]
    trend_mode: str = _TREND_MODE


@dataclass(frozen=True)
class ForecastReport:
    dates: list[dt.date]
    actual: np.ndarray
    predicted: np.ndarray

    @property
    def rmse(self) -> float:
        return rmse(self.predicted, self.actual)

    @property
    def mape(self) -> float:
        return mape(self.predicted, self.actual)


def _fit(train: list[DailyRecord], stl_config: StlConfig, feature_names: list[str] | None,
         period: int, trend_mode: str, fit_residual, dec: Decomposition | None = None,
         X: gbrt.FeatureMatrix | None = None) -> HybridModel:
    """Fit ``fit_residual(X, dec.residual)``, or no residual model if it is None.

    The decomposition ``dec`` of ``train`` and its feature rows ``X`` are made
    here unless given: CV and selection share them and check their records once.
    """
    if dec is None:
        if len(train) < 2 * period:
            raise ParameterError(
                f"{len(train)} training days is fewer than two cycles of {period}")
        _check_contiguous([r.date for r in train])
        names = [] if fit_residual is None else _resolved_names(train, feature_names)
        dec = stl_decompose(demand_series(train, period), stl_config)
        X = records_to_matrix(train, names) if names else None
    return HybridModel(
        period=period,
        stl_config=stl_config,
        decomposition=dec,
        train_start=train[0].date,
        train_end=train[-1].date,
        residual_model=None if X is None else fit_residual(X, dec.residual),
        feature_names=[] if X is None else X.feature_names,
        trend_mode=trend_mode,
    )


def _boosted(gbrt_config: gbrt.GbrtConfig):
    """The hybrid's residual fit: boosting under ``gbrt_config``."""
    return lambda X, residual: gbrt.train(X, residual, gbrt_config)


def fit_hybrid(
    train: list[DailyRecord],
    stl_config: StlConfig,
    gbrt_config: gbrt.GbrtConfig,
    feature_names: list[str] | None = None,
    period: int = 7,
    trend_mode: str = _TREND_MODE,
) -> HybridModel:
    """Decompose the demand series, then boost the residuals on the features."""
    return _fit(train, stl_config, feature_names, period, trend_mode, _boosted(gbrt_config))


def fit_stl_only(
    train: list[DailyRecord],
    stl_config: StlConfig,
    period: int = 7,
    trend_mode: str = _TREND_MODE,
) -> HybridModel:
    """Decomposition alone: the residual forecast is zero."""
    return _fit(train, stl_config, None, period, trend_mode, None)


def _design(values: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(values.shape[0]), values])


def _least_squares(X: gbrt.FeatureMatrix, residual: np.ndarray) -> np.ndarray:
    if np.isnan(X.values).any():
        raise ParameterError("linear baseline does not accept missing feature values")
    coefficients, *_ = np.linalg.lstsq(_design(X.values), residual, rcond=None)
    return coefficients


def fit_stl_linear(
    train: list[DailyRecord],
    stl_config: StlConfig,
    feature_names: list[str] | None = None,
    period: int = 7,
    trend_mode: str = _TREND_MODE,
) -> HybridModel:
    """Same decomposition, residuals fit with ordinary least squares."""
    return _fit(train, stl_config, feature_names, period, trend_mode, _least_squares)


def _features(model: HybridModel, days: list[DailyRecord]) -> gbrt.FeatureMatrix | None:
    """The feature rows of ``days`` that the residual model reads; None without one."""
    return None if model.residual_model is None else records_to_matrix(days, model.feature_names)


def _predicted_residual(model: HybridModel, X: gbrt.FeatureMatrix | None):
    """The residual model's prediction for feature rows ``X``; 0.0 without rows."""
    if X is None:
        return 0.0
    if isinstance(model.residual_model, gbrt.Ensemble):
        return gbrt.predict(model.residual_model, X)
    return _design(X.values) @ model.residual_model


def _forecast(model: HybridModel, horizon: int, X: gbrt.FeatureMatrix | None) -> np.ndarray:
    """The ``horizon`` days after training: trend + seasonal extended, plus residual from ``X``."""
    base = stl_extend(model.decomposition, horizon, model.period, model.trend_mode)
    return base + _predicted_residual(model, X)


def predict_daily(model: HybridModel, future: list[DailyRecord]) -> np.ndarray:
    """Raw daily forecasts (may be negative; callers clamp at the order step)."""
    if not future:
        return np.empty(0)
    start = model.train_end + dt.timedelta(days=1)
    if future[0].date != start:
        raise ParameterError(f"forecast must start at {start}, got {future[0].date}")
    _check_contiguous([r.date for r in future])
    return _forecast(model, len(future), _features(model, future))


predict_stl_linear = predict_daily


def predict_in_sample(model: HybridModel, train: list[DailyRecord]) -> np.ndarray:
    """Fitted values over the training window: trend + seasonal + predicted residual."""
    if not train:
        return np.empty(0)
    if train[0].date != model.train_start or train[-1].date != model.train_end:
        raise ParameterError(
            f"records span {train[0].date}..{train[-1].date} but the model was "
            f"trained on {model.train_start}..{model.train_end}"
        )
    _check_contiguous([r.date for r in train])
    dec = model.decomposition
    return dec.trend + dec.seasonal + _predicted_residual(model, _features(model, train))


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
    _check_contiguous([day for day, _ in daily])
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


def _cv_scores(
    records: list[DailyRecord],
    grid: list[tuple[StlConfig, gbrt.GbrtConfig]],
    k: int,
    feature_names: list[str] | None,
    period: int,
) -> list[float]:
    """Mean forward-chained validation RMSE of every grid point.

    Each fold window is decomposed once per distinct StlConfig, and the
    feature matrix is built once for all folds.
    """
    n = len(records)
    bounds = [round(j * n / (k + 1)) for j in range(k + 2)]
    if min(b - a for a, b in zip(bounds, bounds[1:])) < 2 * period:
        raise ParameterError(
            f"{n} records split {k + 1} ways leaves a fold shorter than two cycles"
        )
    _check_contiguous([r.date for r in records])
    # fit_hybrid reads the names from its training window; every window starts
    # at records[0] and the last one holds all the others
    names = _resolved_names(records[: bounds[k]], feature_names)
    X = records_to_matrix(records, names).values
    fold_scores: list[list[float]] = [[] for _ in grid]
    for j in range(1, k + 1):
        lo, hi = bounds[j], bounds[j + 1]
        train = records[:lo]
        series = demand_series(train, period)
        X_train, X_valid = gbrt.FeatureMatrix(X[:lo], names), gbrt.FeatureMatrix(X[lo:hi], names)
        actual = [r.demand for r in records[lo:hi]]
        decompositions: dict[StlConfig, Decomposition] = {}
        for scores, (stl_config, gbrt_config) in zip(fold_scores, grid):
            if stl_config not in decompositions:
                decompositions[stl_config] = stl_decompose(series, stl_config)
            model = _fit(train, stl_config, names, period, _TREND_MODE, _boosted(gbrt_config),
                         decompositions[stl_config], X_train)
            scores.append(rmse(_forecast(model, hi - lo, X_valid), actual))
    return [float(np.mean(scores)) for scores in fold_scores]


def cv_rmse(
    records: list[DailyRecord],
    stl_config: StlConfig,
    gbrt_config: gbrt.GbrtConfig,
    k: int = 5,
    feature_names: list[str] | None = None,
    period: int = 7,
) -> float:
    """Mean validation RMSE over k forward-chained contiguous blocks.

    The records are cut into k+1 time-ordered blocks; fold j trains on blocks
    1..j and scores block j+1, so validation data always follows its training
    window.
    """
    return _cv_scores(records, [(stl_config, gbrt_config)], k, feature_names, period)[0]


def grid_search_cv(
    records: list[DailyRecord],
    grid: list[tuple[StlConfig, gbrt.GbrtConfig]],
    k: int = 5,
    feature_names: list[str] | None = None,
    period: int = 7,
) -> tuple[StlConfig, gbrt.GbrtConfig]:
    """Best lattice point by cross-validated RMSE; ties keep the earlier entry."""
    if not grid:
        raise ParameterError("the configuration grid is empty")
    best_score = np.inf
    best = grid[0]
    for (stl_config, gbrt_config), score in zip(
        grid, _cv_scores(records, grid, k, feature_names, period)
    ):
        if score < best_score:
            best_score = score
            best = (stl_config, gbrt_config)
    return best


def iterative_feature_selection(
    records: list[DailyRecord],
    stl_config: StlConfig,
    gbrt_config: gbrt.GbrtConfig,
    importance_threshold: float = 0.005,
    holdout_fraction: float = 0.2,
    period: int = 7,
) -> list[str]:
    """Prune features below an importance threshold until held-out RMSE stalls.

    Each round fits on the leading portion of the records, scores the held-out
    tail, and keeps only features whose normalized importance clears the
    threshold.  Returns the feature set of the best-scoring round.  The
    training window is decomposed once; only the boosting repeats.
    """
    if not 0.0 < importance_threshold < 1.0:
        raise ParameterError(
            f"importance_threshold must lie in (0, 1), got {importance_threshold}"
        )
    n = len(records)
    cut = n - max(1, round(holdout_fraction * n))
    train, holdout = records[:cut], records[cut:]
    if len(train) < 2 * period or not holdout:
        raise ParameterError("not enough records to split off a holdout")
    _check_contiguous([r.date for r in records])
    actual = [r.demand for r in holdout]

    all_names = _resolved_names(records, None)
    X = records_to_matrix(records, all_names).values
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


def _date_cell(path, row_number: int, column: str, text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError as exc:
        raise SchemaError(f"{path}: row {row_number}, column {column}: {exc}") from exc


def _number_cell(path, row_number: int, column: str, text: str) -> float:
    """The finite number in one CSV cell; SchemaError naming the cell otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(
            f"{path}: row {row_number}, column {column}: not a number: {text!r}"
        ) from None
    if not math.isfinite(value):
        raise SchemaError(f"{path}: row {row_number}, column {column}: not finite: {text!r}")
    return value


def read_dataset_csv(path) -> list[DailyRecord]:
    """Columns: date (every day, no gap), demand, then one per feature; empty = missing."""
    rows = read_rows(path)
    header = next(rows)
    if header is None or header[:2] != ["date", "demand"]:
        raise SchemaError(f"{path}: dataset header must start with date,demand: {header}")
    names = header[2:]
    records = []
    for row_number, row in rows:
        day = _date_cell(path, row_number, "date", row[0])
        if records and day != records[-1].date + dt.timedelta(days=1):
            raise SchemaError(f"{path}: row {row_number}, column date: {day} does not "
                              f"follow {records[-1].date}; dates must be contiguous")
        demand = _number_cell(path, row_number, "demand", row[1])
        features = {name: _number_cell(path, row_number, name, cell) if cell else math.nan
                    for name, cell in zip(names, row[2:])}
        records.append(DailyRecord(date=day, demand=demand, features=features))
    if not records:
        raise SchemaError(f"{path}: dataset has no rows")
    return records


def write_dataset_csv(path, records: list[DailyRecord]) -> None:
    names = feature_names_of(records)
    write_table(path, ["date", "demand", *names], (
        [r.date.isoformat(), number(r.demand),
         *(number(v) if v == v else "" for v in (r.features[name] for name in names))]
        for r in records))


def write_forecast_csv(path, report: ForecastReport) -> None:
    """Columns: date, actual, predicted."""
    write_table(path, ["date", "actual", "predicted"], (
        [day.isoformat(), number(actual), number(predicted)]
        for day, actual, predicted in zip(report.dates, report.actual, report.predicted)))


def read_forecast_csv(path) -> ForecastReport:
    rows = read_rows(path)
    if (header := next(rows)) != ["date", "actual", "predicted"]:
        raise SchemaError(f"{path}: unexpected forecast header: {header}")
    dates, actual, predicted = [], [], []
    for row_number, row in rows:
        dates.append(_date_cell(path, row_number, "date", row[0]))
        actual.append(_number_cell(path, row_number, "actual", row[1]))
        predicted.append(_number_cell(path, row_number, "predicted", row[2]))
    return ForecastReport(dates=dates, actual=np.asarray(actual), predicted=np.asarray(predicted))


_COMPONENTS = ("trend", "seasonal", "residual")


def hybrid_to_dict(model: HybridModel) -> dict:
    """The ``bloodbank.hybrid`` v1 document of a boosted model."""
    if not isinstance(model.residual_model, gbrt.Ensemble):
        raise ParameterError("only a model with a boosted residual can be serialized")
    return {
        "format": "bloodbank.hybrid",
        "version": 1,
        "period": model.period,
        "trend_mode": model.trend_mode,
        "train_start": model.train_start.isoformat(),
        "train_end": model.train_end.isoformat(),
        "stl_config": asdict(model.stl_config),
        "decomposition": {name: getattr(model.decomposition, name).tolist()
                          for name in _COMPONENTS},
        "feature_names": list(model.feature_names),
        "residual_model": gbrt.ensemble_to_dict(model.residual_model),
    }


def _finite_values(values: list, label: str) -> np.ndarray:
    return np.array([gbrt._finite(value, label) for value in values])


def hybrid_from_dict(doc: dict) -> HybridModel:
    if not isinstance(doc, dict) or doc.get("format") != "bloodbank.hybrid":
        found = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
        raise SchemaError(f"not a hybrid model document: format={found!r}")
    if doc.get("version") != 1:
        raise SchemaError(f"unsupported hybrid model version {doc.get('version')!r}")
    try:
        if type(doc["period"]) is not int:
            raise SchemaError(f"period must be a whole number, got {doc['period']!r}")
        stl = doc["stl_config"]
        for key, value in stl.items() if isinstance(stl, dict) else ():
            if type(value) is not int and not (key == "t_window" and value is None):
                raise SchemaError(f"stl_config {key} must be a whole number, got {value!r}")
        components = doc["decomposition"]
        model = HybridModel(
            period=doc["period"],
            stl_config=StlConfig(**stl),
            decomposition=Decomposition(*(
                _finite_values(components[name], f"decomposition {name} value")
                for name in _COMPONENTS)),
            train_start=dt.date.fromisoformat(doc["train_start"]),
            train_end=dt.date.fromisoformat(doc["train_end"]),
            residual_model=gbrt.ensemble_from_dict(doc["residual_model"]),
            feature_names=doc["feature_names"],
            trend_mode=doc.get("trend_mode", "drift"),
        )
    except KeyError as exc:
        raise SchemaError(f"hybrid model document is missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed hybrid model document: {exc}") from exc
    days = (model.train_end - model.train_start).days + 1
    if len(model.decomposition) != days:
        raise SchemaError(
            f"decomposition has {len(model.decomposition)} days but the training window "
            f"{model.train_start}..{model.train_end} has {days}"
        )
    if not 2 <= model.period <= days // 2:
        raise SchemaError(f"period must lie in 2..{days // 2} so that {days} training days "
                          f"hold two cycles, got {model.period}")
    if model.trend_mode not in TREND_MODES:
        raise SchemaError(f"trend_mode must be one of {TREND_MODES}, got {model.trend_mode!r}")
    if not model.feature_names:
        raise SchemaError("feature_names must name at least one feature")
    if model.feature_names != model.residual_model.feature_names:
        raise SchemaError(f"feature_names {model.feature_names} differ from the residual "
                          f"model's {model.residual_model.feature_names}")
    return model
