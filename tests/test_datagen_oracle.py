"""The column-wise generator against the per-day loop that defines it.

``reference_generate_full`` is ``datagen.generate_full`` as it was written
before the records were built column by column: one AR(1) step per numpy
element, one ``timedelta`` per day and one seven-day slice sum per record.
The property requires ``generate_full`` to reproduce it exactly on drawn
configurations: the dataset of the same records (start date, feature names in
order, demand and feature arrays equal byte for byte), ground-truth arrays
equal byte for byte, and the same ``ParameterError`` where demand leaves the
exact integer range.
"""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bloodbank.datagen import (
    CovariateSpec,
    GenConfig,
    GroundTruth,
    WEEKDAY_KEYS,
    _LEAD,
    generate_full,
)
from bloodbank.errors import ParameterError
from bloodbank.forecast import DailyRecord, Dataset

# every test here runs again at 1,000 examples in the deep property run (-m deep)
pytestmark = pytest.mark.deep


def reference_ar1_counts(rng, spec, length):
    innovation_sd = spec.sd * math.sqrt(1.0 - spec.ar**2)
    values = np.empty(length)
    values[0] = rng.normal(spec.mean, spec.sd)
    shocks = rng.normal(0.0, innovation_sd, size=length - 1) if length > 1 else []
    for t in range(1, length):
        values[t] = spec.mean + spec.ar * (values[t - 1] - spec.mean) + shocks[t - 1]
    return np.maximum(0, np.round(values)).astype(float)


def reference_generate_full(config):
    n = config.n_days
    rng = np.random.Generator(np.random.PCG64(config.seed))
    cov_series = {
        spec.name: reference_ar1_counts(rng, spec, n + _LEAD) for spec in config.covariates
    }
    noise = rng.normal(0.0, config.noise_sd, size=n + 7)

    days = np.arange(-7, n)
    weekday_index = np.array(
        [(config.start_date + dt.timedelta(days=int(t))).weekday() for t in days]
    )
    with np.errstate(over="ignore"):
        trend = config.base_level + config.trend_slope * days
    weekday = np.asarray(config.weekday_effects)[weekday_index]
    covariate_effect = np.zeros(n + 7)
    for spec in config.covariates:
        series = cov_series[spec.name]
        lagged = series[_LEAD + days - spec.lag]
        covariate_effect += spec.response(lagged)

    raw = trend + weekday + covariate_effect + noise
    if not -2.0**53 < raw.min() <= raw.max() < 2.0**53:
        raise ParameterError("generated demand leaves the exact int range |demand| < 2**53; "
                             "reduce base_level, trend_slope or noise_sd")
    demand = np.maximum(0, np.floor(raw + 0.5)).astype(np.int64)

    records = []
    for t in range(n):
        row = 7 + t
        features = {}
        for key_index, key in enumerate(WEEKDAY_KEYS):
            features[f"dow_{key}"] = 1.0 if weekday_index[row] == key_index else 0.0
        for spec in config.covariates:
            features[spec.name] = float(cov_series[spec.name][_LEAD + t - spec.lag])
        features["prev_week_demand"] = float(demand[row - 7 : row].sum())
        records.append(
            DailyRecord(
                date=config.start_date + dt.timedelta(days=t),
                demand=int(demand[row]),
                features=features,
            )
        )

    truth = GroundTruth(
        trend=trend[7:],
        weekday=weekday[7:],
        covariate_effect=covariate_effect[7:],
        noise=noise[7:],
        covariate_series={
            name: series[_LEAD : _LEAD + n] for name, series in cov_series.items()
        },
    )
    return records, truth


def assert_same_dataset(data, records):
    """``data`` is the dataset of ``records``, bit for bit; -0.0 differs from 0.0."""
    want = Dataset.from_records(records)
    assert (data.start, data.feature_names) == (want.start, want.feature_names)
    for name in ("demand", "features"):
        got, expected = getattr(data, name), getattr(want, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name


def _floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


# names that collide with the generator's own columns are allowed and overwrite them
_covariate = st.builds(
    CovariateSpec,
    name=st.sampled_from(["a", "b", "c", "d", "dow_mon", "prev_week_demand"]),
    effect_size=_floats(-50.0, 50.0),
    lag=st.sampled_from([1, 7]),
    nonlinearity=st.sampled_from(["none", "threshold"]),
    mean=_floats(-100.0, 1000.0),
    sd=st.one_of(st.just(0.0), _floats(0.0, 200.0)),
    ar=st.floats(0.0, 1.0, exclude_max=True),
)


@st.composite
def configs(draw):
    n_days = draw(st.integers(1, 400))
    # any date whose lead-in week and last day fit the calendar, often near either end
    low, high = dt.date.min.toordinal() + 7, dt.date.max.toordinal() - (n_days - 1)
    start = dt.date.fromordinal(draw(st.one_of(
        st.integers(low, low + 400), st.integers(high - 400, high), st.integers(low, high))))
    return GenConfig(
        n_days=n_days,
        base_level=draw(st.one_of(_floats(-200.0, 500.0), _floats(-2.0**54, 2.0**54))),
        trend_slope=draw(st.one_of(_floats(-1.0, 1.0), _floats(-1e14, 1e14))),
        weekday_effects=tuple(draw(st.lists(_floats(-50.0, 50.0), min_size=7, max_size=7))),
        covariates=tuple(draw(st.lists(_covariate, max_size=4, unique_by=lambda c: c.name))),
        noise_sd=draw(st.one_of(st.just(0.0), _floats(0.0, 100.0), _floats(0.0, 1e16))),
        seed=draw(st.integers(0, 2**64 - 1)),
        start_date=start,
    )


# a subnormal sd overflows the standardized covariate; times 0 it is NaN
@example(GenConfig(n_days=3, covariates=(CovariateSpec("a", 1.0, mean=100.3, sd=5e-324),)))
@example(GenConfig(n_days=3, covariates=(CovariateSpec("a", 0.0, mean=100.3, sd=5e-324),)))
@given(configs())
def test_generate_full_equals_per_day_reference(config):
    try:
        # the reference warns where an overflow reaches the range check; the generator
        # must not, and must fail there the same way
        with np.errstate(over="ignore", invalid="ignore"):
            expected, expected_truth = reference_generate_full(config)
    except ParameterError as exc:
        with pytest.raises(ParameterError) as raised:
            generate_full(config)
        assert str(raised.value) == str(exc)
        return
    data, truth = generate_full(config)
    assert_same_dataset(data, expected)
    for name in ("trend", "weekday", "covariate_effect", "noise"):
        got, want = getattr(truth, name), getattr(expected_truth, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert list(truth.covariate_series) == list(expected_truth.covariate_series)
    for name, want in expected_truth.covariate_series.items():
        got = truth.covariate_series[name]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def test_prev_week_demand_exact_where_the_running_total_wraps():
    # 2,000 days near 2**53 units each: the int64 running total passes 2**63
    config = GenConfig(n_days=2000, base_level=2.0**53 - 1024, trend_slope=0.0,
                       weekday_effects=(0.0,) * 7, covariates=(), noise_sd=0.0)
    assert 2007 * (2**53 - 1024) > 2**63
    assert_same_dataset(generate_full(config)[0], reference_generate_full(config)[0])
