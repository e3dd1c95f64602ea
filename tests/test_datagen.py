import datetime as dt

import numpy as np
import pytest

from bloodbank.datagen import CovariateSpec, GenConfig, generate, generate_full
from bloodbank.errors import ParameterError


def test_constant_when_everything_is_off():
    config = GenConfig(
        n_days=140,
        base_level=90.0,
        trend_slope=0.0,
        weekday_effects=(5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        covariates=(),
        noise_sd=0.0,
        seed=1,
    )
    records = generate(config)
    for record in records:
        expected = 95 if record.date.weekday() == 0 else 90
        assert record.demand == expected


def test_default_calibration_matches_targets():
    records = generate(GenConfig(n_days=3650, seed=42))
    demand = np.array([r.demand for r in records], dtype=float)
    assert abs(demand.mean() - 92.43) <= 3.0
    assert abs(demand.std() - 28.27) <= 5.0


def test_same_seed_is_bit_identical():
    a = generate(GenConfig(n_days=200, seed=42))
    b = generate(GenConfig(n_days=200, seed=42))
    assert a == b


def test_different_seeds_differ():
    a = generate(GenConfig(n_days=200, seed=1))
    b = generate(GenConfig(n_days=200, seed=2))
    assert any(x.demand != y.demand for x, y in zip(a, b))


def test_demands_non_negative_even_under_huge_noise():
    records = generate(GenConfig(n_days=400, noise_sd=200.0, seed=3))
    assert all(r.demand >= 0 for r in records)


def test_planted_lag_correlations_recoverable():
    records, truth = generate_full(GenConfig(n_days=3650, seed=42))
    demand = np.array([r.demand for r in records], dtype=float)
    for spec in GenConfig().covariates:
        series = truth.covariate_series[spec.name]
        # demand today against the covariate ``lag`` days earlier
        assert np.corrcoef(demand[spec.lag :], series[: -spec.lag])[0, 1] > 0.3


def test_feature_columns_are_lag_shifted_covariates():
    records, truth = generate_full(GenConfig(n_days=300, seed=8))
    for spec in GenConfig().covariates:
        series = truth.covariate_series[spec.name]
        column = np.array([r.features[spec.name] for r in records])
        # feature at day i equals the raw series lag days earlier
        assert np.array_equal(column[spec.lag :], series[: -spec.lag])


def test_prev_week_feature_sums_prior_demands():
    records = generate(GenConfig(n_days=100, seed=5))
    for i in range(7, 100):
        window = sum(records[j].demand for j in range(i - 7, i))
        assert records[i].features["prev_week_demand"] == window


def test_weekday_one_hots():
    records = generate(GenConfig(n_days=30, seed=6))
    keys = ["dow_mon", "dow_tue", "dow_wed", "dow_thu", "dow_fri", "dow_sat", "dow_sun"]
    for record in records:
        hot = [record.features[k] for k in keys]
        assert sum(hot) == 1.0
        assert hot[record.date.weekday()] == 1.0


def test_truth_components_reconstruct_demand():
    records, truth = generate_full(GenConfig(n_days=500, seed=11))
    raw = truth.trend + truth.weekday + truth.covariate_effect + truth.noise
    expected = np.maximum(0, np.floor(raw + 0.5)).astype(int)
    assert np.array_equal(expected, [r.demand for r in records])


def test_invalid_configs_rejected():
    with pytest.raises(ParameterError):
        CovariateSpec(name="x", lag=3)
    with pytest.raises(ParameterError):
        CovariateSpec(name="x", nonlinearity="cubic")
    with pytest.raises(ParameterError):
        GenConfig(weekday_effects=(1.0, 2.0))
    with pytest.raises(ParameterError):
        GenConfig(covariates=(CovariateSpec(name="a"), CovariateSpec(name="a")))


@pytest.mark.parametrize("field, value", [
    ("n_days", 10.5), ("n_days", 10.0), ("seed", 1.5), ("start_date", "2008-01-07"),
])
def test_config_of_the_wrong_type_rejected(field, value):
    with pytest.raises(ParameterError, match=f"{field} must be"):
        GenConfig(**{field: value})


def test_numpy_integers_accepted():
    records = generate(GenConfig(n_days=np.int64(20), seed=np.int32(4)))
    assert records == generate(GenConfig(n_days=20, seed=4))


def test_start_date_controls_calendar():
    config = GenConfig(n_days=10, seed=4, start_date=dt.date(2015, 6, 1))
    records = generate(config)
    assert records[0].date == dt.date(2015, 6, 1)
    assert records[-1].date == dt.date(2015, 6, 10)


@pytest.mark.parametrize("field, value", [("n_days", True), ("seed", False)])
def test_bools_are_not_whole_numbers(field, value):
    # GenConfig(n_days=True) once generated a one-day dataset
    with pytest.raises(ParameterError, match=f"^{field} must be a whole number, got {value}$"):
        GenConfig(**{field: value})


@pytest.mark.parametrize("make, message", [
    # NaN once passed, and the generator emitted the covariate as missing values
    (lambda: CovariateSpec("x", sd=float("nan")), "sd must be non-negative and finite, got nan"),
    (lambda: CovariateSpec("x", sd=-1.0), "sd must be non-negative and finite, got -1.0"),
    (lambda: CovariateSpec("x", sd="20"), "sd must be non-negative and finite, got '20'"),
    (lambda: CovariateSpec("x", sd=True), "sd must be non-negative and finite, got True"),
    (lambda: CovariateSpec("x", lag=7.0), "lag must be a whole number, got 7.0"),
    (lambda: CovariateSpec("x", lag=True), "lag must be a whole number, got True"),
    (lambda: GenConfig(noise_sd="20"), "noise_sd must be non-negative and finite, got '20'"),
    (lambda: GenConfig(noise_sd=True), "noise_sd must be non-negative and finite, got True"),
    # an int past the float range once passed, and generate raised a raw OverflowError
    (lambda: GenConfig(noise_sd=10**400),
     f"noise_sd must be non-negative and finite, got {10**400}"),
    (lambda: CovariateSpec("x", sd=10**400), f"sd must be non-negative and finite, got {10**400}"),
])
def test_config_fields_fail_closed(make, message):
    with pytest.raises(ParameterError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("field, value, name", [
    # "92" once raised a raw TypeError, True passed as 1 and "1" became 1.0
    ("base_level", "92", "base_level"), ("base_level", float("nan"), "base_level"),
    ("trend_slope", True, "trend_slope"), ("trend_slope", float("-inf"), "trend_slope"),
    ("weekday_effects", ("1",) * 7, "weekday_effects[0]"),
    ("weekday_effects", (0.0, 0.0, True, 0.0, 0.0, 0.0, 0.0), "weekday_effects[2]"),
    ("weekday_effects", (0.0,) * 6 + (float("nan"),), "weekday_effects[6]"),
    # an int past the float range once passed, and raised a raw OverflowError later
    ("base_level", 10**400, "base_level"), ("trend_slope", 10**400, "trend_slope"),
    ("weekday_effects", (10**400,) + (0.0,) * 6, "weekday_effects[0]"),
])
def test_gen_config_reals_must_be_finite_numbers(field, value, name):
    with pytest.raises(ParameterError) as info:
        GenConfig(**{field: value})
    bad = value[int(name[-2])] if field == "weekday_effects" else value
    assert str(info.value) == f"{name} must be a finite number, got {bad!r}"


@pytest.mark.parametrize("field, value", [
    # text, bools and NaN once passed, or raised a raw TypeError
    ("effect_size", "1"), ("effect_size", True), ("mean", float("nan")), ("mean", "100"),
    ("ar", "0.5"), ("ar", True), ("effect_size", 10**400), ("mean", 10**400),
])
def test_covariate_reals_must_be_finite_numbers(field, value):
    with pytest.raises(ParameterError) as info:
        CovariateSpec("x", **{field: value})
    assert str(info.value) == f"{field} must be a finite number, got {value!r}"
    assert getattr(CovariateSpec("x", **{field: 0}), field) == 0


def test_numpy_lag_accepted_as_int():
    spec = CovariateSpec("x", lag=np.int64(1))
    assert spec == CovariateSpec("x", lag=1) and type(spec.lag) is int
