"""
Hybrid demand forecasting
=========================

The hybrid model decomposes the demand series, then boosts the residual using
lagged covariates.  Here it is compared against decomposition-only and
decomposition-plus-linear references on data with a planted nonlinear lag-7
signal, mirroring how abnormal lab counts a week earlier foreshadow demand.
"""

from bloodbank.datagen import CovariateSpec, GenConfig, generate
from bloodbank.forecast import (
    fit_hybrid,
    fit_stl_linear,
    fit_stl_only,
    mape,
    predict_daily,
    predict_stl_linear,
    predict_stl_only,
    rmse,
)
from bloodbank.gbrt import GbrtConfig, variable_importance
from bloodbank.policy import aggregate_semiweekly
from bloodbank.timeseries import StlConfig

config = GenConfig(
    n_days=1825,
    seed=5,
    noise_sd=8.0,
    covariates=(
        CovariateSpec(name="abnormal_lab_lag7", effect_size=20.0, lag=7,
                      nonlinearity="threshold"),
        CovariateSpec(name="abnormal_lab_lag1", effect_size=10.0, lag=1),
    ),
)
records = generate(config)
train_part, test_part = records[:1460], records[1460:]
actual = [r.demand for r in test_part]

stl_config = StlConfig(s_window=35, t_window=151)
gbrt_config = GbrtConfig(n_rounds=250, learning_rate=0.05, max_depth=3, seed=1)

hybrid = fit_hybrid(train_part, stl_config, gbrt_config, trend_mode="flat")
alone = fit_stl_only(train_part, stl_config, trend_mode="flat")
linear = fit_stl_linear(train_part, stl_config, trend_mode="flat")

pred_hybrid = predict_daily(hybrid, test_part)
pred_alone = predict_stl_only(alone, len(test_part))
pred_linear = predict_stl_linear(linear, test_part)

print("one-year test accuracy")
for name, pred in [("decomposition alone", pred_alone),
                   ("decomposition + linear", pred_linear),
                   ("hybrid (boosted residuals)", pred_hybrid)]:
    print(f"  {name:28s} rmse {rmse(pred, actual):6.2f}   "
          f"mape {100 * mape(pred, actual):5.2f}%")

print("\ntop residual-model features")
importance = variable_importance(hybrid.residual_model)
for name, score in sorted(importance.items(), key=lambda kv: -kv[1])[:5]:
    print(f"  {name:20s} {score:.3f}")

# twice-a-week totals derived from the daily forecasts
days = [r.date for r in test_part]
semi_pred = aggregate_semiweekly(list(zip(days, pred_hybrid)))
semi_actual = aggregate_semiweekly(list(zip(days, map(float, actual))))
semi_rmse = rmse([v for _, v in semi_pred], [v for _, v in semi_actual])
semi_mape = mape([v for _, v in semi_pred], [v for _, v in semi_actual])
print(f"\nsemiweekly blocks: rmse {semi_rmse:.2f}, mape {100 * semi_mape:.2f}% "
      f"over {len(semi_pred)} blocks")
