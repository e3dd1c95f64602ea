import dataclasses
import datetime as dt
import hashlib
import math
import multiprocessing
import os
import signal
import threading
import warnings

import numpy as np
import pytest

from bloodbank import forecast
from bloodbank.datagen import CovariateSpec, GenConfig, generate, generate_full
from bloodbank.errors import ParameterError, SchemaError
from bloodbank.forecast import (
    Dataset,
    ForecastReport,
    HybridModel,
    cv_rmse,
    fit_hybrid,
    fit_stl_linear,
    fit_stl_only,
    grid_search_cv,
    hybrid_from_dict,
    hybrid_to_dict,
    iterative_feature_selection,
    mape,
    predict_daily,
    predict_in_sample,
    predict_stl_linear,
    predict_stl_only,
    read_dataset_csv,
    read_forecast_csv,
    rmse,
    write_dataset_csv,
    write_forecast_csv,
)
from bloodbank.gbrt import Ensemble, FeatureMatrix, GbrtConfig, variable_importance
from bloodbank.policy import aggregate_semiweekly
from bloodbank.timeseries import Decomposition, StlConfig

MONDAY = dt.date(2010, 1, 4)


def make_dataset(demands, start=MONDAY, features=None):
    """Days from ``start`` with ``demands``; each feature's leading values fill its column."""
    features = features or {}
    columns = [np.asarray(values, dtype=float)[: len(demands)] for values in features.values()]
    return Dataset(start, demands, np.column_stack(columns) if columns else None, list(features))


class TestMetrics:
    def test_perfect_predictions(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_single_point(self):
        assert rmse([3.0], [1.0]) == pytest.approx(2.0)
        assert mape([3.0], [1.0]) == pytest.approx(2.0)

    def test_hand_arithmetic(self):
        assert rmse([90.0, 110.0], [100.0, 100.0]) == pytest.approx(10.0)
        assert mape([90.0, 110.0], [100.0, 100.0]) == pytest.approx(0.10)

    def test_zero_actual_names_index(self):
        with pytest.raises(ParameterError, match="index 1"):
            mape([1.0, 1.0], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            rmse([1.0], [1.0, 2.0])

    def test_rmse_whose_mean_square_overflows_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="errors as large as 1e\\+200"):
                rmse([1e200, 0.0], [0.0, 0.0])
            assert rmse([1e150, 1e150], [0.0, 0.0]) == math.sqrt(1e300)

    def test_empty_input_rejected_by_both_metrics(self):
        for metric, name in ((rmse, "rmse"), (mape, "mape")):
            with pytest.raises(ParameterError, match=f"{name} needs at least one point"):
                metric([], [])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        pred = rng.normal(100.0, 10.0, size=50)
        actual = rng.normal(100.0, 10.0, size=50)
        perm = rng.permutation(50)
        assert rmse(pred, actual) == pytest.approx(rmse(pred[perm], actual[perm]))
        assert mape(pred, actual) == pytest.approx(mape(pred[perm], actual[perm]))


class TestSemiweeklyAggregation:
    def test_tue_thu_block(self):
        tuesday = dt.date(2010, 1, 5)
        daily = [(tuesday + dt.timedelta(days=i), v) for i, v in enumerate([90.0, 95.0, 100.0])]
        assert aggregate_semiweekly(daily) == [(tuesday, 285.0)]

    def test_fri_mon_block(self):
        friday = dt.date(2010, 1, 8)
        daily = [(friday + dt.timedelta(days=i), v)
                 for i, v in enumerate([80.0, 70.0, 60.0, 90.0])]
        assert aggregate_semiweekly(daily) == [(friday, 300.0)]

    def test_wednesday_start_dropped(self):
        wednesday = dt.date(2010, 1, 6)
        values = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
        daily = [(wednesday + dt.timedelta(days=i), v) for i, v in enumerate(values)]
        blocks = aggregate_semiweekly(daily)
        friday = dt.date(2010, 1, 8)
        assert blocks[0] == (friday, 4.0 + 8.0 + 16.0 + 32.0)
        # the trailing partial Tue..Thu block (only Tue+Wed present) is dropped
        assert len(blocks) == 1

    def test_non_contiguous_rejected(self):
        daily = [(MONDAY, 1.0), (MONDAY + dt.timedelta(days=2), 2.0)]
        with pytest.raises(ParameterError):
            aggregate_semiweekly(daily)

    def test_two_way_scoring_identical(self):
        rng = np.random.default_rng(4)
        days = [MONDAY + dt.timedelta(days=i) for i in range(56)]
        actual = rng.uniform(80, 120, size=56)
        pred = actual + rng.normal(0, 5, size=56)
        agg_actual = aggregate_semiweekly(list(zip(days, actual)))
        agg_pred = aggregate_semiweekly(list(zip(days, pred)))
        direct = rmse([v for _, v in agg_pred], [v for _, v in agg_actual])
        pairs = [(p[1], a[1]) for p, a in zip(agg_pred, agg_actual)]
        again = rmse([p for p, _ in pairs], [a for _, a in pairs])
        assert direct == again


def seasonal_demand(n, base=100.0):
    pattern = np.array([0.0, 2.0, 4.0, 6.0, 4.0, 2.0, 0.0])
    wd = np.array([(MONDAY + dt.timedelta(days=i)).weekday() for i in range(n)])
    return base + pattern[wd]


class TestHybrid:
    def test_zero_residual_signal_leaves_booster_flat(self):
        n = 364
        demands = seasonal_demand(n)
        rng = np.random.default_rng(0)
        records = make_dataset(demands, features={"noise": rng.normal(size=n + 60)})
        model = fit_hybrid(records[:n], StlConfig(), GbrtConfig(n_rounds=30, seed=1))
        future = make_dataset(
            seasonal_demand(n + 60)[n:],
            start=MONDAY + dt.timedelta(days=n),
            features={"noise": rng.normal(size=60)},
        )
        from bloodbank.timeseries import stl_extend

        predictions = predict_daily(model, future)
        base = stl_extend(model.decomposition, 60, 7)
        assert np.max(np.abs(predictions - base)) <= 0.1

    def test_planted_covariate_beats_decomposition_alone(self):
        # iid covariate: all of the planted signal lives in the residual,
        # none leaks into the trend through autocorrelation
        config = GenConfig(
            n_days=790,
            seed=3,
            noise_sd=0.5,
            trend_slope=0.002,
            covariates=(CovariateSpec(name="feature_a", effect_size=5.0, lag=7, ar=0.0),),
        )
        records = generate(config)
        train_part, test_part = records[:730], records[730:]
        actual = [r.demand for r in test_part]
        stl_config = StlConfig(s_window=35, t_window=101)
        hybrid = fit_hybrid(train_part, stl_config,
                            GbrtConfig(n_rounds=150, learning_rate=0.1, max_depth=3, seed=2),
                            trend_mode="flat")
        alone = fit_stl_only(train_part, stl_config, trend_mode="flat")
        hybrid_rmse = rmse(predict_daily(hybrid, test_part), actual)
        alone_rmse = rmse(predict_stl_only(alone, len(test_part)), actual)
        assert hybrid_rmse < 0.6 * alone_rmse

    def test_refit_is_bit_identical(self, small_records):
        train_part = small_records[:400]
        test_part = small_records[400:430]
        config = GbrtConfig(n_rounds=40, subsample_rows=0.8, subsample_cols=0.8, seed=5)
        a = predict_daily(fit_hybrid(train_part, StlConfig(), config), test_part)
        b = predict_daily(fit_hybrid(train_part, StlConfig(), config), test_part)
        assert np.array_equal(a, b)

    def test_too_short_training(self):
        records = make_dataset([100.0] * 10, features={"f": np.zeros(10)})
        with pytest.raises(ParameterError):
            fit_hybrid(records, StlConfig(), GbrtConfig())

    def test_forecast_gap_rejected(self, small_records):
        model = fit_hybrid(small_records[:200], StlConfig(), GbrtConfig(n_rounds=5))
        with pytest.raises(ParameterError):
            predict_daily(model, small_records[250:260])

    def test_empty_booster_returns_extension(self):
        dec = Decomposition(trend=np.full(14, 95.0), seasonal=np.zeros(14),
                            residual=np.zeros(14))
        model_zero = Ensemble(trees=[], learning_rate=0.1, base_score=0.0,
                              feature_names=["f"])
        from bloodbank.forecast import HybridModel

        hybrid = HybridModel(
            period=7, stl_config=StlConfig(), decomposition=dec,
            train_start=MONDAY, train_end=MONDAY + dt.timedelta(days=13),
            residual_model=model_zero, feature_names=["f"],
        )
        future = make_dataset([0.0] * 7, start=MONDAY + dt.timedelta(days=14),
                              features={"f": np.zeros(7)})
        assert np.allclose(predict_daily(hybrid, future), 95.0)

    def test_one_step_composition(self):
        dec = Decomposition(trend=np.full(14, 95.0), seasonal=np.zeros(14),
                            residual=np.zeros(14))
        booster = Ensemble(trees=[], learning_rate=1.0, base_score=-3.0,
                           feature_names=["f"])
        from bloodbank.forecast import HybridModel

        hybrid = HybridModel(
            period=7, stl_config=StlConfig(), decomposition=dec,
            train_start=MONDAY, train_end=MONDAY + dt.timedelta(days=13),
            residual_model=booster, feature_names=["f"],
        )
        future = make_dataset([0.0], start=MONDAY + dt.timedelta(days=14),
                              features={"f": [0.0]})
        assert predict_daily(hybrid, future)[0] == pytest.approx(92.0)

    def test_in_sample_predictions_fit_training_data(self, small_records):
        train_part = small_records[:500]
        model = fit_hybrid(train_part, StlConfig(),
                           GbrtConfig(n_rounds=100, learning_rate=0.1, max_depth=3))
        fitted = predict_in_sample(model, train_part)
        actual = [r.demand for r in train_part]
        assert rmse(fitted, actual) < np.std(actual)
        with pytest.raises(ParameterError):
            predict_in_sample(model, small_records[1:501])

    @pytest.mark.parametrize("config", [
        GbrtConfig(n_rounds=20, max_depth=3),
        GbrtConfig(n_rounds=12, max_depth=None, subsample_rows=0.7, subsample_cols=0.5, seed=4),
        GbrtConfig(n_rounds=0),
    ])
    def test_in_sample_fit_kept_by_training_is_the_walked_one(self, small_records, config):
        train_part = small_records[:400]
        model = fit_hybrid(train_part, StlConfig(), config)
        # the fitted model with the loaded ensemble, which keeps no fit: walks its trees
        loaded = dataclasses.replace(
            model, residual_model=hybrid_from_dict(hybrid_to_dict(model)).residual_model)
        assert model.residual_model.fitted is not None and loaded.residual_model.fitted is None
        fitted = predict_in_sample(model, train_part)
        assert fitted.tobytes() == predict_in_sample(loaded, train_part).tobytes()
        # other feature values over the same window are walked, not given the kept fit
        features = train_part.features[::-1].copy()
        other = Dataset(train_part.start, train_part.demand, features, train_part.feature_names)
        assert (predict_in_sample(model, other).tobytes()
                == predict_in_sample(loaded, other).tobytes())

    def test_loaded_model_needs_the_fitted_one_in_sample(self, small_records):
        train_part = small_records[:300]
        model = fit_hybrid(train_part, StlConfig(), GbrtConfig(n_rounds=3))
        loaded = hybrid_from_dict(hybrid_to_dict(model))
        assert loaded.decomposition is None
        with pytest.raises(ParameterError, match="needs? the fitted model"):
            predict_in_sample(loaded, train_part)

    def test_hybrid_serialization_round_trip(self, small_records):
        train_part = small_records[:300]
        model = fit_hybrid(train_part, StlConfig(), GbrtConfig(n_rounds=10, seed=3))
        clone = hybrid_from_dict(hybrid_to_dict(model))
        future = small_records[300:330]
        assert np.array_equal(predict_daily(model, future), predict_daily(clone, future))

    def test_linear_baseline_uses_same_residual_targets(self, small_records):
        train_part = small_records[:400]
        model = fit_stl_linear(train_part, StlConfig())
        test_part = small_records[400:460]
        predictions = predict_stl_linear(model, test_part)
        assert predictions.shape == (60,)
        actual = [r.demand for r in test_part]
        alone = fit_stl_only(train_part, StlConfig())
        assert rmse(predictions, actual) < rmse(predict_stl_only(alone, 60), actual)


def prediction_digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


# sha256 of the float64 prediction bytes, recorded when STL's loess and the
# linear reference first summed in a fixed order with no BLAS or LAPACK call,
# so they hold on any x86 SIMD level and OpenBLAS kernel; the hybrid's were
# re-recorded when boosting moved to per-bin histogram sums
PINNED_PREDICTIONS = {
    "drift": {
        "hybrid_daily": "56b1e83fd55d7c3b71cfcaa28bdffd6556fd86be7b2c1d9e56f53cd583937f55",
        "hybrid_in_sample": "9a68dc92b725109dc5a865f68191c6bdc70f855265588255d43d2452f80e4384",
        "linear_daily": "e2274a2e22e3444c53f3376060a5558a44450db39faf3963173aa4d3c14d6756",
        "linear_in_sample": "68db671378a567434e130337cd31de2ab1ca1ff530e204dd4818b44b098695d2",
        "stl_only": "2416fa984eac3d14c2fb78c2de61638ba66c9f022568dbcb34d3331ad54b533f",
    },
    "flat": {
        "hybrid_daily": "a34664b8cbccef3f97b584d0cdfcf8bd2fe0df0bc80cdd7d72fe3032479da5f2",
        "hybrid_in_sample": "9a68dc92b725109dc5a865f68191c6bdc70f855265588255d43d2452f80e4384",
        "linear_daily": "a471eec718ace723289d9dc926671a74b27f29c03327880fb5aca49a46ff17e3",
        "linear_in_sample": "68db671378a567434e130337cd31de2ab1ca1ff530e204dd4818b44b098695d2",
        "stl_only": "35905920baf10c12b0b4f63da7c2f0671b69c7b0cc8a7c707d613ab667861f06",
    },
}


def test_linear_reference_is_least_squares_with_spanned_columns_at_zero():
    # beside the intercept, the last of seven weekday dummies is the intercept
    # minus the other six, and the last column is 0.1 * covariate + 0.7: both
    # get coefficient 0, and the fitted values are lstsq's
    rng = np.random.default_rng(5)
    weekday = np.arange(200) % 7
    covariate = rng.normal(50.0, 10.0, 200)
    values = np.column_stack([(weekday[:, None] == np.arange(7)).astype(float),
                              covariate, 0.1 * covariate + 0.7])
    residual = 3.0 * covariate + 4.0 * values[:, 2] + rng.normal(0.0, 1.0, 200)
    X = FeatureMatrix(values, [f"f{j}" for j in range(9)])
    coefficients = forecast._least_squares(X, residual)
    assert coefficients[7] == coefficients[9] == 0.0
    assert np.all(coefficients[[0, 1, 2, 3, 4, 5, 6, 8]] != 0.0)
    design = np.column_stack([np.ones(200), values])
    expected, *_ = np.linalg.lstsq(design, residual, rcond=None)
    assert np.allclose(design @ coefficients, design @ expected, rtol=0.0, atol=1e-9)


class TestOneModelType:
    """The hybrid and both reference models are one HybridModel."""

    STL = StlConfig(s_window=15, t_window=91)
    GBRT = GbrtConfig(n_rounds=25, max_depth=3, subsample_rows=0.8, subsample_cols=0.9, seed=11)

    @pytest.mark.parametrize("trend_mode", ["drift", "flat"])
    def test_predictions_keep_pinned_bytes(self, small_records, trend_mode):
        train_part, future = small_records[:364], small_records[364:392]
        hybrid = fit_hybrid(train_part, self.STL, self.GBRT, trend_mode=trend_mode)
        linear = fit_stl_linear(train_part, self.STL, trend_mode=trend_mode)
        alone = fit_stl_only(train_part, self.STL, trend_mode=trend_mode)
        digests = {
            "hybrid_daily": prediction_digest(predict_daily(hybrid, future)),
            "hybrid_in_sample": prediction_digest(predict_in_sample(hybrid, train_part)),
            "linear_daily": prediction_digest(predict_stl_linear(linear, future)),
            "linear_in_sample": prediction_digest(predict_in_sample(linear, train_part)),
            "stl_only": prediction_digest(predict_stl_only(alone, len(future))),
        }
        assert digests == PINNED_PREDICTIONS[trend_mode]

    def test_kinds_share_the_decomposition(self, small_records):
        train_part, future = small_records[:364], small_records[364:392]
        hybrid = fit_hybrid(train_part, self.STL, self.GBRT)
        linear = fit_stl_linear(train_part, self.STL)
        alone = fit_stl_only(train_part, self.STL)
        assert all(type(m) is HybridModel for m in (hybrid, linear, alone))
        for model in (linear, alone):
            for name in ("trend", "seasonal", "residual"):
                assert np.array_equal(getattr(model.decomposition, name),
                                      getattr(hybrid.decomposition, name))
        assert isinstance(hybrid.residual_model, Ensemble)
        assert linear.residual_model.shape == (len(linear.feature_names) + 1,)
        assert alone.residual_model is None and alone.feature_names == []
        # decomposition alone predicts the extension through the shared path too
        assert np.array_equal(predict_daily(alone, future), predict_stl_only(alone, len(future)))

    def test_reference_models_share_the_fit_checks(self, small_records):
        for fit in (fit_stl_only, fit_stl_linear):
            with pytest.raises(ParameterError, match="two cycles"):
                fit(small_records[:13], self.STL)
        # a dataset holds no gap, so a gap cannot reach a fit
        with pytest.raises(ParameterError, match="contiguous"):
            Dataset.from_records([*small_records[:100], *small_records[101:200]])

    def test_only_the_boosted_model_serializes(self, small_records):
        train_part = small_records[:364]
        for model in (fit_stl_linear(train_part, self.STL), fit_stl_only(train_part, self.STL)):
            with pytest.raises(ParameterError, match="boosted"):
                hybrid_to_dict(model)


class TestGridSearch:
    def test_singleton_grid(self, small_records):
        grid = [(StlConfig(), GbrtConfig(n_rounds=5))]
        assert grid_search_cv(small_records[:420], grid, k=3) == grid[0]

    def test_planted_signal_prefers_boosting(self, small_records):
        records = small_records[:840]
        grid = [
            (StlConfig(), GbrtConfig(n_rounds=0)),
            (StlConfig(), GbrtConfig(n_rounds=80, learning_rate=0.1, max_depth=3)),
        ]
        best = grid_search_cv(records, grid, k=3)
        assert best[1].n_rounds == 80

    def test_duplicate_entries_keep_first(self, small_records):
        config = (StlConfig(), GbrtConfig(n_rounds=5))
        best = grid_search_cv(small_records[:420], [config, config], k=3)
        assert best is not None and best == config

    def test_misspelled_feature_name_rejected_in_fit_and_cv(self, small_records):
        records = small_records[:420]
        message = f"no feature 'typo' on {records[0].date}"
        with pytest.raises(ParameterError, match=message):
            fit_hybrid(records, StlConfig(), GbrtConfig(n_rounds=2), feature_names=["typo"])
        with pytest.raises(ParameterError, match=message):
            cv_rmse(records, StlConfig(), GbrtConfig(n_rounds=2), k=3,
                    feature_names=["lab_lag1", "typo"])

    def test_empty_grid(self, small_records):
        with pytest.raises(ParameterError):
            grid_search_cv(small_records[:420], [], k=3)

    def test_fold_too_short(self):
        records = make_dataset([100.0] * 40, features={"f": np.zeros(40)})
        with pytest.raises(ParameterError):
            cv_rmse(records, StlConfig(), GbrtConfig(n_rounds=1), k=5)

    def test_no_leakage_under_feature_shift(self, small_records):
        records = small_records[:700]
        # each day holds the previous day's features
        shifted = Dataset(records.start + dt.timedelta(days=1), records.demand[1:],
                          records.features[:-1], records.feature_names)
        config = GbrtConfig(n_rounds=60, learning_rate=0.1, max_depth=3)
        aligned = cv_rmse(records[1:], StlConfig(), config, k=3)
        lagged = cv_rmse(shifted, StlConfig(), config, k=3)
        assert lagged >= aligned


def reference_cv_rmse(records, stl_config, gbrt_config, k, feature_names=None, period=7):
    """Forward-chained CV with one full fit_hybrid and predict_daily per fold."""
    n = len(records)
    bounds = [round(j * n / (k + 1)) for j in range(k + 2)]
    scores = []
    for j in range(1, k + 1):
        train, valid = records[: bounds[j]], records[bounds[j] : bounds[j + 1]]
        model = fit_hybrid(train, stl_config, gbrt_config, feature_names, period)
        scores.append(rmse(predict_daily(model, valid), [r.demand for r in valid]))
    return float(np.mean(scores))


def reference_feature_selection(records, stl_config, gbrt_config, threshold):
    """Feature selection that refits the whole hybrid model every round.

    Returns the selected set and the held-out RMSE of every round.
    """
    cut = len(records) - max(1, round(0.2 * len(records)))
    train, holdout = records[:cut], records[cut:]
    current = list(records[0].features)
    best_rmse, best_set, scores = np.inf, current, []
    while True:
        model = fit_hybrid(train, stl_config, gbrt_config, current)
        score = rmse(predict_daily(model, holdout), [r.demand for r in holdout])
        scores.append(score)
        if score >= best_rmse:
            break
        best_rmse, best_set = score, current
        importance = variable_importance(model.residual_model)
        survivors = [f for f in current if importance.get(f, 0.0) >= threshold]
        if not survivors or survivors == current:
            break
        current = survivors
    return best_set, scores


@pytest.fixture(scope="module")
def gappy_records(small_records):
    """Two years with a few missing cells in one feature."""
    rng = np.random.default_rng(4)
    data = small_records[:560]
    features = data.features.copy()
    missing = [rng.random() < 0.05 for _ in range(len(data))]
    features[missing, data.feature_names.index("lab_lag1")] = float("nan")
    return Dataset(data.start, data.demand, features, data.feature_names)


CV_GRID = [
    (stl, gbrt_config)
    for stl in (StlConfig(), StlConfig(t_window=91, n_outer=0))
    for gbrt_config in (
        GbrtConfig(n_rounds=8, max_depth=2, seed=1),
        GbrtConfig(n_rounds=5, max_depth=None, subsample_rows=0.7, subsample_cols=0.5,
                   min_child_weight=5.0, gamma=0.5, seed=3),
    )
]


class TestSharedCvLoop:
    @pytest.mark.parametrize("feature_names", [None, ["lab_lag1", "lab_lag7", "dow_mon"]])
    def test_grid_scores_equal_per_point_loop(self, gappy_records, feature_names):
        expected = [reference_cv_rmse(gappy_records, stl, g, 3, feature_names)
                    for stl, g in CV_GRID]
        assert forecast._cv_scores(gappy_records, CV_GRID, 3, feature_names, 7) == expected
        for (stl, g), score in zip(CV_GRID, expected):
            assert cv_rmse(gappy_records, stl, g, k=3, feature_names=feature_names) == score
        winner = CV_GRID[int(np.argmin(expected))]
        assert grid_search_cv(gappy_records, CV_GRID, k=3, feature_names=feature_names) == winner

    # (grid point, threshold): pruned to one feature in two rounds, to three
    # features in three rounds with subsampling, and no pruning at all
    @pytest.mark.parametrize("point, threshold", [(0, 0.1), (3, 0.005), (2, 0.05)])
    def test_feature_selection_equals_refit_loop(self, gappy_records, monkeypatch, point,
                                                 threshold):
        stl, gbrt_config = CV_GRID[point]
        expected = reference_feature_selection(gappy_records, stl, gbrt_config, threshold)
        scores = []

        def recorded(pred, actual):
            scores.append(rmse(pred, actual))
            return scores[-1]

        monkeypatch.setattr(forecast, "rmse", recorded)
        selected = iterative_feature_selection(gappy_records, stl, gbrt_config, threshold)
        assert (selected, scores) == expected

    def test_each_window_decomposed_once(self, gappy_records, monkeypatch, tmp_path):
        # each call is appended to a file, which forked CV workers write to as well
        log = tmp_path / "calls"
        original = forecast.stl_decompose

        def counted(series, config):
            with open(log, "a") as handle:
                handle.write(f"{series.start_date} {len(series)} {config!r}\n")
            return original(series, config)

        def logged():
            calls = log.read_text().splitlines() if log.exists() else []
            log.unlink(missing_ok=True)
            return calls

        monkeypatch.setattr(forecast, "stl_decompose", counted)
        grid_search_cv(gappy_records, CV_GRID, k=3)
        calls = logged()
        assert len(calls) == len(set(calls)) == 3 * 2  # folds x distinct StlConfigs
        iterative_feature_selection(gappy_records, *CV_GRID[0], importance_threshold=0.05)
        calls = logged()
        assert len(calls) == 1

    def test_non_contiguous_records_rejected(self, gappy_records):
        # no dataset holds a gap, so none reaches CV or feature selection
        with pytest.raises(ParameterError, match="contiguous"):
            Dataset.from_records([*gappy_records[:200], *gappy_records[201:]])
        with pytest.raises(ParameterError, match="step 1"):
            gappy_records[::2]


def usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


def assert_no_child_process():
    """Every child process of this one has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def overflowing(records):
    """``records`` with a last demand whose squared error overflows fold 3's RMSE."""
    demand = records.demand.copy()
    demand[-1] = 1e300
    return Dataset(records.start, demand, records.features, records.feature_names)


class TestParallelCv:
    @pytest.mark.parametrize("feature_names", [None, ["lab_lag1", "lab_lag7", "dow_mon"]])
    def test_scores_equal_in_process_scores(self, gappy_records, monkeypatch, feature_names):
        usable_cpus(monkeypatch, {0, 1})
        forked = forecast._cv_scores(gappy_records, CV_GRID, 3, feature_names, 7)
        usable_cpus(monkeypatch, {0})
        in_process = forecast._cv_scores(gappy_records, CV_GRID, 3, feature_names, 7)
        assert [s.hex() for s in forked] == [s.hex() for s in in_process]

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}])
    def test_groups_run_on_at_most_one_worker_per_usable_cpu(self, gappy_records, monkeypatch,
                                                             tmp_path, cpus):
        log = tmp_path / "pids"
        original = forecast.stl_decompose

        def logged(series, config):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return original(series, config)

        monkeypatch.setattr(forecast, "stl_decompose", logged)
        usable_cpus(monkeypatch, cpus)
        grid_search_cv(gappy_records, CV_GRID, k=3)
        pids = {int(pid) for pid in log.read_text().split()}
        if len(cpus) == 1:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids and 1 <= len(pids) <= len(cpus)

    def test_no_worker_outlives_a_call(self, gappy_records, monkeypatch):
        usable_cpus(monkeypatch, {0, 1})
        grid_search_cv(gappy_records, CV_GRID, k=3)
        assert_no_child_process()
        with pytest.raises(ParameterError):
            grid_search_cv(overflowing(gappy_records), CV_GRID, k=3)
        assert_no_child_process()

    def test_worker_error_reaches_the_caller_as_in_process(self, gappy_records, monkeypatch):
        messages = []
        for cpus in ({0, 1}, {0}):
            usable_cpus(monkeypatch, cpus)
            with pytest.raises(ParameterError, match="overflow the rmse") as raised:
                grid_search_cv(overflowing(gappy_records), CV_GRID, k=3)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    def test_no_child_process_outlives_a_call(self, gappy_records, monkeypatch):
        usable_cpus(monkeypatch, {0, 1})
        cv_rmse(gappy_records, *CV_GRID[3], k=3)
        assert_no_child_process()
        with pytest.raises(ParameterError):
            cv_rmse(overflowing(gappy_records), *CV_GRID[3], k=3)
        assert_no_child_process()

    def test_a_dead_worker_raises_naming_its_group(self, gappy_records, monkeypatch):
        usable_cpus(monkeypatch, {0, 1})
        original, caller = forecast.stl_decompose, os.getpid()

        def dying(series, config):
            if os.getpid() != caller:  # only ever a forked worker, never this process
                os._exit(1)
            return original(series, config)

        def hung(signum, frame):
            raise TimeoutError("grid_search_cv still waits for a dead worker after 60 s")

        monkeypatch.setattr(forecast, "stl_decompose", dying)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(ParameterError, match="worker for group 0 died"):
                grid_search_cv(gappy_records, CV_GRID, k=3)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child_process()

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}])
    def test_a_tie_goes_to_the_first_entry(self, gappy_records, monkeypatch, cpus):
        stl_config, gbrt_config = CV_GRID[0]
        grid = [(stl_config, gbrt_config), (stl_config, dataclasses.replace(gbrt_config))]
        usable_cpus(monkeypatch, cpus)
        assert grid_search_cv(gappy_records, grid, k=3)[1] is gbrt_config

    def test_a_daemonic_caller_gets_the_same_winner(self, gappy_records, monkeypatch):
        usable_cpus(monkeypatch, {0, 1})
        expected = grid_search_cv(gappy_records, CV_GRID, k=3)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            winner = pool.apply_async(grid_search_cv, (gappy_records, CV_GRID), {"k": 3})
            assert winner.get(timeout=120) == expected

    def test_in_process_where_a_fork_is_unsafe_or_unavailable(self, monkeypatch):
        usable_cpus(monkeypatch, {0, 1, 2})
        assert (forecast._cv_workers(6), forecast._cv_workers(2)) == (3, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert forecast._cv_workers(6) == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        monkeypatch.delattr(os, "fork")
        assert forecast._cv_workers(6) == 1


class TestFeatureSelection:
    def test_planted_feature_survives(self, small_records):
        selected = iterative_feature_selection(
            small_records[:700], StlConfig(),
            GbrtConfig(n_rounds=60, learning_rate=0.1, max_depth=3),
            importance_threshold=0.01,
        )
        assert "lab_lag7" in selected
        assert len(selected) <= len(small_records[0].features)

    def test_low_threshold_terminates_on_stability(self, small_records):
        selected = iterative_feature_selection(
            small_records[:350], StlConfig(),
            GbrtConfig(n_rounds=20, learning_rate=0.1, max_depth=2),
            importance_threshold=1e-9,
        )
        assert selected  # loop ended via the stability rule

    def test_single_feature_returned(self):
        config = GenConfig(
            n_days=240, seed=9, noise_sd=1.0,
            covariates=(CovariateSpec(name="only", effect_size=6.0, lag=1),),
        )
        records = generate(config)
        only = records.feature_names.index("only")
        thinned = Dataset(records.start, records.demand, records.features[:, [only]], ["only"])
        selected = iterative_feature_selection(
            thinned, StlConfig(), GbrtConfig(n_rounds=20), importance_threshold=0.005
        )
        assert selected == ["only"]

    def test_threshold_validation(self, small_records):
        with pytest.raises(ParameterError):
            iterative_feature_selection(small_records[:350], StlConfig(), GbrtConfig(),
                                        importance_threshold=1.5)


class TestCsv:
    def test_dataset_round_trip(self, tmp_path, small_records):
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, small_records[:50])
        loaded = read_dataset_csv(path)
        assert loaded == small_records[:50]

    def test_dataset_missing_cells(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text("date,demand,f\n2010-01-04,90.0,\n2010-01-05,91.0,2.5\n")
        records = read_dataset_csv(path)
        assert np.isnan(records[0].features["f"])
        assert records[1].features["f"] == 2.5

    def test_dataset_schema_errors_name_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,demand,f\n2010-01-04,90.0,1.0\nnot-a-date,80.0,1.0\n")
        with pytest.raises(SchemaError, match="row 3"):
            read_dataset_csv(path)

    def test_forecast_report_round_trip(self, tmp_path):
        report = ForecastReport(
            start=MONDAY,
            actual=np.array([90.0, 95.0]),
            predicted=np.array([88.5, 97.25]),
        )
        path = tmp_path / "report.csv"
        write_forecast_csv(path, report)
        loaded = read_forecast_csv(path)
        assert loaded.dates == report.dates
        assert np.array_equal(loaded.actual, report.actual)
        assert np.array_equal(loaded.predicted, report.predicted)


def test_every_dataset_operation_of_the_benchmark_workloads():
    """What the benchmark's workloads do with a generated dataset, on a small one."""
    config = GenConfig(n_days=240, seed=3,
                       covariates=(CovariateSpec(name="lab", effect_size=12.0, lag=7),))
    data, truth = generate_full(config)
    assert data == generate(config) and len(data) == len(truth.trend) == 240
    assert tuple(int(r.demand) for r in data) == tuple(int(v) for v in data.demand)
    train, holdout = data[:192], data[192:]
    assert holdout[0].date.weekday() == (config.start_date + dt.timedelta(days=192)).weekday()
    assert float(np.mean([r.demand for r in train])) == float(np.mean(train.demand))

    stl_config = StlConfig(t_window=91, n_inner=1, n_outer=0, loess_degree=0)
    gbrt_config = GbrtConfig(n_rounds=3, max_depth=2, seed=1)
    best = grid_search_cv(data, [(stl_config, gbrt_config)], k=2)
    selected = iterative_feature_selection(data, *best)
    assert selected and set(selected) <= set(data.feature_names)
    model = fit_hybrid(train, *best, feature_names=selected)
    assert predict_daily(model, holdout).shape == (48,)
    # cv_rmse against the independent forward-chained loop of the selection check
    bounds = [round(j * len(data) / 3) for j in range(4)]
    fold = []
    for j in (1, 2):
        fit_part, valid = data[:bounds[j]], data[bounds[j]:bounds[j + 1]]
        fold_model = fit_hybrid(fit_part, stl_config, gbrt_config)
        fold.append(rmse(predict_daily(fold_model, valid), [r.demand for r in valid]))
    assert cv_rmse(data, stl_config, gbrt_config, k=2) == float(np.mean(fold))
