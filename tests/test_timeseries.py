import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bloodbank.errors import ParameterError
from bloodbank.timeseries import (
    Decomposition,
    Series,
    StlConfig,
    _window_starts,
    loess_smooth,
    stl_decompose,
    stl_extend,
    write_decomposition_csv,
)
from conftest import read_csv

MONDAY = dt.date(2010, 1, 4)


def tricube_wls_oracle(xs, ys, span, degree):
    """Per-point weighted least squares with tricube weights, written from
    scratch so it shares no code with the smoother under test."""
    n = len(xs)
    q = min(n, int(math.ceil(span * n - 1e-9)))
    fitted = []
    for i in range(n):
        dist = np.abs(xs - xs[i])
        bandwidth = np.sort(dist)[q - 1]
        u = dist / bandwidth
        w = np.where(u < 1.0, (1.0 - u**3) ** 3, 0.0)
        design = np.vander(xs, degree + 1, increasing=True)
        lhs = design.T @ (w[:, None] * design)
        rhs = design.T @ (w * ys)
        beta = np.linalg.solve(lhs, rhs)
        fitted.append(np.polyval(beta[::-1], xs[i]))
    return np.asarray(fitted)


class TestLoess:
    def test_constant_data_is_fixed_point(self):
        xs = np.arange(10.0)
        out = loess_smooth(xs, np.full(10, 5.0), span=0.5, degree=1)
        assert np.allclose(out, 5.0, atol=1e-9)

    def test_affine_data_reproduced_exactly(self):
        xs = np.arange(10.0)
        ys = 2.0 * xs + 1.0
        out = loess_smooth(xs, ys, span=1.0, degree=1)
        assert np.allclose(out, ys, atol=1e-9)

    def test_matches_per_point_wls_oracle(self):
        rng = np.random.default_rng(7)
        xs = np.arange(21.0)
        ys = np.sin(xs / 3.0) + rng.normal(0.0, 0.3, size=21)
        out = loess_smooth(xs, ys, span=0.4, degree=1)
        assert np.allclose(out, tricube_wls_oracle(xs, ys, 0.4, 1), atol=1e-9)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_oracle_agreement_other_degrees(self, degree):
        rng = np.random.default_rng(degree + 100)
        xs = np.sort(rng.uniform(0, 30, size=40))
        ys = np.cos(xs / 4.0) + rng.normal(0.0, 0.2, size=40)
        out = loess_smooth(xs, ys, span=0.5, degree=degree)
        assert np.allclose(out, tricube_wls_oracle(xs, ys, 0.5, degree), atol=1e-9)

    def test_full_span_equals_global_least_squares(self):
        rng = np.random.default_rng(3)
        xs = np.arange(15.0)
        ys = rng.normal(size=15)
        coef = np.polyfit(xs, ys, 1)
        out = loess_smooth(xs, ys, span=1.0, degree=1)
        assert np.allclose(out, np.polyval(coef, xs), atol=1e-9)

    def test_robustness_weights_multiply_tricube(self):
        xs = np.arange(12.0)
        ys = xs.copy()
        ys[5] = 100.0
        rw = np.ones(12)
        rw[5] = 0.0
        out = loess_smooth(xs, ys, span=0.6, degree=1, robustness_weights=rw)
        # with the outlier zeroed out the fit recovers the line
        keep = np.arange(12) != 5
        assert np.allclose(out[keep], xs[keep], atol=1e-8)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            loess_smooth([0.0, 1.0], [1.0], span=0.5)

    def test_span_too_small_for_degree(self):
        with pytest.raises(ParameterError):
            loess_smooth(np.arange(10.0), np.arange(10.0), span=0.1, degree=2)

    def test_non_increasing_xs_rejected(self):
        with pytest.raises(ParameterError):
            loess_smooth([0.0, 0.0, 1.0], [1.0, 2.0, 3.0], span=1.0)


def sweep_window_starts(xs, q):
    """First index of each point's q-nearest-neighbour block, by the forward sweep
    (a tie keeps the earlier start)."""
    n, s, starts = len(xs), 0, []
    for i in range(n):
        while s + q < n and xs[i] - xs[s] > xs[s + q] - xs[i]:
            s += 1
        starts.append(s)
    return starts


def test_integer_abscissae_window_starts_equal_the_sweep():
    # every STL smoother passes xs = arange(n) and takes the closed form
    for n in range(2, 200):
        xs = np.arange(n, dtype=float)
        for q in range(1, n):
            assert _window_starts(xs, q).tolist() == sweep_window_starts(range(n), q), (n, q)


@given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=40, unique=True),
       st.data())
def test_window_starts_on_arbitrary_abscissae(values, data):
    xs = np.array(sorted(values))
    q = data.draw(st.integers(1, xs.size - 1))
    assert _window_starts(xs, q).tolist() == sweep_window_starts(xs, q)


def weekday_array(start, n):
    return np.array([(start + dt.timedelta(days=i)).weekday() for i in range(n)])


class TestStlDecompose:
    def test_constant_series(self):
        dec = stl_decompose(Series(MONDAY, np.full(56, 50.0), 7), StlConfig())
        assert np.allclose(dec.trend, 50.0, atol=1e-6)
        assert np.allclose(dec.seasonal, 0.0, atol=1e-6)
        assert np.allclose(dec.residual, 0.0, atol=1e-6)

    def test_recovers_planted_weekday_bump(self):
        n = 364  # 52 weeks
        wd = weekday_array(MONDAY, n)
        y = np.full(n, 10.0)
        y[wd == 0] += 3.0
        dec = stl_decompose(Series(MONDAY, y, 7), StlConfig())
        bump = dec.seasonal[wd == 0].mean() - dec.seasonal[wd != 0].mean()
        assert abs(bump - 3.0) <= 0.05
        assert np.max(np.abs(dec.trend - dec.trend.mean())) <= 0.05
        assert np.max(np.abs(dec.residual)) <= 0.1

    def test_trend_recovery_on_seeded_synthetic(self):
        rng = np.random.default_rng(11)
        n = 730
        i = np.arange(n)
        true_trend = 0.01 * i
        y = true_trend + 2.0 * np.sin(2.0 * np.pi * i / 7.0) + rng.normal(0.0, 1.0, n)
        dec = stl_decompose(Series(MONDAY, y, 7), StlConfig(s_window=35, t_window=51))
        assert np.corrcoef(dec.trend, true_trend)[0, 1] >= 0.99

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(4)
        y = 80.0 + rng.normal(size=200) * 5.0
        dec = stl_decompose(Series(MONDAY, y, 7), StlConfig(n_outer=2))
        scale = np.maximum(np.abs(y), 1.0)
        assert np.max(np.abs(dec.reconstruct() - y) / scale) <= 1e-9

    @given(st.integers(2, 7), st.integers(0, 2), st.data())
    def test_reconstruction_identity_on_any_finite_series(self, period, n_outer, data):
        # magnitudes near the float limit overflow the loess sums, so stay below 1e100
        y = np.array(data.draw(st.lists(st.floats(-1e100, 1e100), min_size=2 * period,
                                        max_size=6 * period)))
        dec = stl_decompose(Series(MONDAY, y, period), StlConfig(n_outer=n_outer))
        # trend + seasonal + residual rounds at most a few times per element
        bound = 8 * np.finfo(float).eps * (np.abs(y) + np.abs(dec.trend) + np.abs(dec.seasonal))
        assert np.all(np.abs(dec.trend + dec.seasonal + dec.residual - y) <= bound)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(12)
        y = 50.0 + np.tile([0, 1, 2, 3, 2, 1, 0], 30) + rng.normal(size=210)
        config = StlConfig()
        base = stl_decompose(Series(MONDAY, y, 7), config)
        shifted = stl_decompose(Series(MONDAY, y + 17.0, 7), config)
        assert np.max(np.abs(shifted.trend - base.trend - 17.0)) <= 1e-6
        assert np.max(np.abs(shifted.seasonal - base.seasonal)) <= 1e-6
        assert np.max(np.abs(shifted.residual - base.residual)) <= 1e-6

    def test_robustness_to_spike(self):
        rng = np.random.default_rng(11)
        n = 730
        y = 0.01 * np.arange(n) + 2.0 * np.sin(2.0 * np.pi * np.arange(n) / 7.0)
        y += rng.normal(0.0, 1.0, n)
        config = StlConfig(s_window=35, t_window=51, n_outer=1)
        clean = stl_decompose(Series(MONDAY, y, 7), config)
        spike = 10.0 * y.std()
        y_spiked = y.copy()
        y_spiked[300] += spike
        dirty = stl_decompose(Series(MONDAY, y_spiked, 7), config)
        delta = np.abs(dirty.trend - clean.trend)
        delta[300] = 0.0
        assert delta.max() <= 0.1 * spike

    def test_series_too_short(self):
        with pytest.raises(ParameterError):
            stl_decompose(Series(MONDAY, np.ones(13), 7), StlConfig())

    def test_missing_values_rejected(self):
        y = np.ones(56)
        y[10] = np.nan
        with pytest.raises(ParameterError):
            stl_decompose(Series(MONDAY, y, 7), StlConfig())

    # the loess products overflow on the way, and numpy warns before the check raises
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_components_that_overflow_are_rejected(self):
        # this series once decomposed into all-NaN components without an error
        y = np.array([0.0, 0.0, 0.0, 4.49423283715579e+307])
        with pytest.raises(ParameterError, match="overflow STL"):
            stl_decompose(Series(MONDAY, y, 2))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            StlConfig(s_window=8)
        with pytest.raises(ParameterError):
            StlConfig(s_window=5)
        with pytest.raises(ParameterError):
            StlConfig(t_window=10)

    def test_auto_t_window_formula(self):
        config = StlConfig(s_window=11)
        raw = 1.5 * 7 / (1.0 - 1.5 / 11)
        expected = int(math.ceil(raw))
        if expected % 2 == 0:
            expected += 1
        assert config.resolved_t_window(7) == expected


class TestStlExtend:
    def test_cycle_repeat_zero_drift(self):
        cycle = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, 1.0, -1.0])
        dec = Decomposition(
            trend=np.full(14, 80.0), seasonal=np.tile(cycle, 2), residual=np.zeros(14)
        )
        out = stl_extend(dec, 7, 7)
        assert np.allclose(out, [78, 79, 80, 81, 82, 81, 79], atol=1e-9)

    def test_exact_linear_drift(self):
        dec = Decomposition(
            trend=np.arange(87.0, 101.0), seasonal=np.zeros(14), residual=np.zeros(14)
        )
        assert np.allclose(stl_extend(dec, 3, 7), [101.0, 102.0, 103.0], atol=1e-9)

    def test_matches_hand_computed_drift_plus_repeat(self):
        rng = np.random.default_rng(11)
        n = 730
        y = 0.01 * np.arange(n) + 2.0 * np.sin(2.0 * np.pi * np.arange(n) / 7.0)
        y += rng.normal(0.0, 1.0, n)
        dec = stl_decompose(Series(MONDAY, y, 7), StlConfig(s_window=35, t_window=51))
        horizon = 14
        out = stl_extend(dec, horizon, 7)

        # independent arithmetic: polyfit drift on the trend tail + cycle repeat
        tail_x = np.arange(n - 7, n, dtype=float)
        slope, intercept = np.polyfit(tail_x, dec.trend[-7:], 1)
        future = np.arange(n, n + horizon, dtype=float)
        expected = slope * future + intercept + dec.seasonal[-7:][np.arange(horizon) % 7]
        assert np.allclose(out, expected, atol=1e-9)

    def test_flat_mode(self):
        dec = Decomposition(
            trend=np.arange(87.0, 101.0), seasonal=np.zeros(14), residual=np.zeros(14)
        )
        assert np.allclose(stl_extend(dec, 3, 7, trend_mode="flat"), [100.0] * 3)

    def test_too_short_for_cycle(self):
        dec = Decomposition(trend=np.ones(5), seasonal=np.zeros(5), residual=np.zeros(5))
        with pytest.raises(ParameterError):
            stl_extend(dec, 3, 7)

    def test_bad_horizon(self):
        dec = Decomposition(trend=np.ones(14), seasonal=np.zeros(14), residual=np.zeros(14))
        with pytest.raises(ParameterError):
            stl_extend(dec, 0, 7)


def test_decomposition_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    y = 90.0 + rng.normal(size=70)
    series = Series(MONDAY, y, 7)
    dec = stl_decompose(series, StlConfig())
    path = tmp_path / "dec.csv"
    write_decomposition_csv(path, series, dec)
    header, rows = read_csv(path)
    assert header == ["date", "observed", "trend", "seasonal", "residual"]
    assert [row[0] for row in rows] == [day.isoformat() for day in series.dates()]
    observed, trend, seasonal, residual = np.array([row[1:] for row in rows], dtype=float).T
    assert np.array_equal(observed, y)
    assert np.array_equal(trend, dec.trend)
    assert np.array_equal(seasonal, dec.seasonal)
    assert np.array_equal(residual, dec.residual)
