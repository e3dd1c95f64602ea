import datetime as dt
import math
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bloodbank import timeseries
from bloodbank.errors import ParameterError
from bloodbank.timeseries import (
    Decomposition,
    Series,
    StlConfig,
    _loess,
    _smooth_subseries,
    _window_moments,
    _window_starts,
    stl_decompose,
    stl_extend,
    write_decomposition_csv,
)
from conftest import make_series, read_csv

MONDAY = dt.date(2010, 1, 4)


def tricube_wls_oracle(xs, ys, q, degree):
    """Per-point weighted least squares with tricube weights over the q nearest
    points, written from scratch so it shares no code with the smoother under test."""
    n = len(xs)
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
    # the kernel fits points at positions 0 .. n - 1 over windows of q points
    def test_constant_data_is_fixed_point(self):
        out = _loess(np.full(10, 5.0), np.ones(10), 5, 1)
        assert np.allclose(out, 5.0, atol=1e-9)

    def test_affine_data_reproduced_exactly(self):
        ys = 2.0 * np.arange(10.0) + 1.0
        out = _loess(ys, np.ones(10), 10, 1)
        assert np.allclose(out, ys, atol=1e-9)

    def test_matches_per_point_wls_oracle(self):
        rng = np.random.default_rng(7)
        xs = np.arange(21.0)
        ys = np.sin(xs / 3.0) + rng.normal(0.0, 0.3, size=21)
        out = _loess(ys, np.ones(21), 9, 1)
        assert np.allclose(out, tricube_wls_oracle(xs, ys, 9, 1), atol=1e-9)

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_oracle_agreement_other_degrees(self, degree):
        rng = np.random.default_rng(degree + 100)
        xs = np.arange(40.0)
        ys = np.cos(xs / 4.0) + rng.normal(0.0, 0.2, size=40)
        out = _loess(ys, np.ones(40), 20, degree)
        assert np.allclose(out, tricube_wls_oracle(xs, ys, 20, degree), atol=1e-9)

    def test_full_span_equals_global_least_squares(self):
        rng = np.random.default_rng(3)
        xs = np.arange(15.0)
        ys = rng.normal(size=15)
        coef = np.polyfit(xs, ys, 1)
        out = _loess(ys, np.ones(15), 15, 1)
        assert np.allclose(out, np.polyval(coef, xs), atol=1e-9)

    def test_robustness_weights_multiply_tricube(self):
        xs = np.arange(12.0)
        ys = xs.copy()
        ys[5] = 100.0
        rw = np.ones(12)
        rw[5] = 0.0
        out = _loess(ys, rw, 8, 1)
        # with the outlier zeroed out the fit recovers the line
        keep = np.arange(12) != 5
        assert np.allclose(out[keep], xs[keep], atol=1e-8)


def weighted_fit_oracle(xs, ys, q, degree, rw):
    """Loess written from scratch, one point at a time: the q nearest points
    weighted by tricube times ``rw`` (the tricube alone where that product is all
    zero), or every point weighted by ``rw`` (equal weights where it is all zero)
    when q covers the series; then a least-squares polynomial of ``degree``, or of
    the highest lower degree that the points of positive weight determine."""
    n = len(xs)
    fitted = []
    for i in range(n):
        dist = np.abs(xs - xs[i])
        if q < n:
            nearest = np.zeros(n, dtype=bool)
            nearest[np.argsort(dist, kind="stable")[:q]] = True
            u = dist / dist[nearest].max()
            tricube = np.where(nearest, (1.0 - np.minimum(u, 1.0) ** 3) ** 3, 0.0)
            w = tricube * rw if np.any(tricube * rw > 0) else tricube
        else:
            w = rw if np.any(rw > 0) else np.ones(n)
        used = w > 0
        fit_degree = min(degree, used.sum() - 1)
        design = np.vander(xs[used] - xs[i], fit_degree + 1, increasing=True)
        root = np.sqrt(w[used])
        beta, *_ = np.linalg.lstsq(design * root[:, None], ys[used] * root, rcond=None)
        fitted.append(beta[0])
    return np.array(fitted)


# Robustness weights 0 or at least 0.05 keep every fit well posed.  Offsets
# between positions are whole numbers, exact in float, so a window's edge point
# gets tricube weight exactly 0 and every point inside it at least 1e-5.
weights = st.one_of(st.just(0.0), st.floats(0.05, 1.0))


@given(st.integers(0, 2), st.data())
def test_loess_matches_weighted_fit_oracle(degree, data):
    n = data.draw(st.integers(max(degree + 1, 2), 30))
    xs = np.arange(n, dtype=float)
    ys = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    rw = np.array(data.draw(st.lists(weights, min_size=n, max_size=n)))
    q = data.draw(st.integers(max(degree + 1, 2), n))
    out = _loess(ys, rw, q, degree)
    assert np.allclose(out, weighted_fit_oracle(xs, ys, q, degree, rw), rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("q, fits", [(5, slice(2, 5)), (8, slice(None))])
def test_window_with_one_weighted_point_takes_its_value(degree, q, fits):
    # one point of positive weight determines no line or parabola: each fit
    # whose window holds it inside its edge (here all of ``fits``) falls back,
    # degree by degree, to the weighted mean, which is that point's value.  With
    # a weight of 0.3 the global fit's slope pivots round to positive values near
    # 1e-17, so the fallback must come from counting the weighted points
    ys = np.array([3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, -6.0])
    rw = np.zeros(8)
    rw[3] = 0.3
    out = _loess(ys, rw, q, degree)
    assert np.all(out[fits] == ys[3])


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
    # the kernel's closed form is the sweep over positions 0 .. n - 1
    for n in range(2, 200):
        for q in range(1, n):
            assert _window_starts(n, q).tolist() == sweep_window_starts(range(n), q), (n, q)


def end_point_oracle(ys, x0, q, degree, rw):
    """A weighted polynomial fit of one cycle-subseries, evaluated at ``x0`` and
    written from scratch: tricube weights over the q points nearest ``x0`` times
    ``rw`` when q < m, else every point weighted by ``rw``; all-zero products fall
    back to the tricube or to equal weights."""
    m = ys.size
    xs = np.arange(m, dtype=float)
    dist = np.abs(xs - x0)
    if q < m:
        nearest = np.zeros(m, dtype=bool)
        nearest[np.argsort(dist, kind="stable")[:q]] = True
        u = dist / dist[nearest].max()
        tricube = np.where(nearest & (u < 1.0), (1.0 - u**3) ** 3, 0.0)
        w = tricube * rw if (tricube * rw).sum() > 0 else tricube
    else:
        w = rw if rw.sum() > 0 else np.ones(m)
    design = np.vander(xs - x0, degree + 1, increasing=True)
    beta, *_ = np.linalg.lstsq(design * np.sqrt(w)[:, None], ys * np.sqrt(w), rcond=None)
    return beta[0]


def smooth_each_subseries(detrended, period, s_window, degree, rw):
    """``_smooth_subseries`` as one kernel call per cycle-subseries, each with its
    end points -1 and m fitted to its first and its last q points."""
    extended = np.empty(detrended.size + 2 * period)
    for k in range(period):
        sub = detrended[k::period]
        m = sub.size
        q = min(s_window, m)
        starts = np.concatenate(([0], _window_starts(m, q), [m - q]))
        extended[k::period] = _loess(sub, rw[k::period], q, degree, np.arange(-1.0, m + 1), starts)
    return extended


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("n, period, s_window, zero_rw", [
    (20, 4, 7, False),    # 5 points a subseries: q >= m, a global fit
    (24, 3, 9, True),     # q = m = 8 with every robustness weight zero
    (101, 7, 7, False),   # 14 or 15 points: the 7 nearest
    (90, 2, 11, True),    # 45 points, all-zero robustness: tricube alone
    (23, 2, 11, False),   # 12 points fitted by window, 11 by one global fit
    (1000, 7, 7, False),  # 142 or 143 points: long runs of alike windows
    (1000, 7, 7, True),
])
def test_subseries_end_points_match_weighted_fit_oracle(degree, n, period, s_window, zero_rw):
    rng = np.random.default_rng(degree * 100 + n)
    detrended = np.sin(np.arange(n) / 5.0) * 30.0 + rng.normal(0.0, 4.0, size=n)
    rw = np.zeros(n) if zero_rw else rng.uniform(0.05, 1.0, size=n)
    extended = _smooth_subseries(detrended, period, s_window, degree, rw)
    # the subseries laid end to end in one call give each point its own fit's bytes
    assert extended.tobytes() == smooth_each_subseries(detrended, period, s_window, degree,
                                                       rw).tobytes()
    for k in range(period):
        sub, sub_rw = detrended[k::period], rw[k::period]
        m, q = sub.size, min(s_window, sub.size)
        assert extended[k] == pytest.approx(
            end_point_oracle(sub, -1.0, q, degree, sub_rw), abs=1e-9)
        assert extended[(m + 1) * period + k] == pytest.approx(
            end_point_oracle(sub, float(m), q, degree, sub_rw), abs=1e-9)


@pytest.mark.parametrize("period, s_window", [(7, 11), (3, 7), (5, 35)])
@pytest.mark.parametrize("weights", ["ones", "mixed", "some zero"])
def test_subseries_in_one_call_equal_one_call_each(period, s_window, weights):
    # n not a multiple of the period, so the subseries have two lengths
    rng = np.random.default_rng(period * 10 + s_window)
    # 178 days at period 5: s_window 35 covers the 35-point subseries, not the 36-point ones
    n = 30 * period + 2 if s_window < 35 else 36 * period - 2
    detrended = rng.normal(0.0, 10.0, size=n)
    rw = {"ones": np.ones(n), "mixed": rng.uniform(0.0, 1.0, size=n),
          "some zero": np.where(rng.uniform(size=n) < 0.3, 0.0, 1.0)}[weights]
    for degree in (0, 1, 2):
        assert (_smooth_subseries(detrended, period, s_window, degree, rw).tobytes()
                == smooth_each_subseries(detrended, period, s_window, degree, rw).tobytes())


def reference_window_moments(ys, rw, x0, starts, q, degree):
    """The kernel's moments summed offset by offset, one elementwise operation per
    moment and offset over every point: the sums and the order they must keep."""
    h = np.maximum(np.abs(starts - x0), np.abs(starts + (q - 1) - x0))
    s = np.zeros((2 * degree + 1, x0.size))
    r = np.zeros((degree + 1, x0.size))
    count = np.zeros(x0.size, dtype=np.intp)
    for j in range(q):
        at = starts + j
        t = (at - x0) / h
        u = np.abs(t)
        c = 1.0 - u * u * u
        w = c * c * c * rw[at]
        y = ys[at]
        count += w > 0.0
        for k, wt in enumerate(accumulate([w] + [t] * (2 * degree), np.multiply)):
            s[k] += wt
            if k <= degree:
                r[k] += wt * y
    return s, r, count


def end_point_layout(m, q, base=0):
    """Positions -1 .. m of a series of m points at ``base``, with their windows."""
    starts = np.concatenate(([0], _window_starts(m, q), [m - q]))
    return np.arange(base - 1.0, base + m + 1), base + starts


@st.composite
def moment_inputs(draw):
    """The draws behind one input of ``_window_moments``, as plain values that an
    ``@example`` can give as well: q up to 200 and series up to 150 points past it,
    so the interior runs of alike windows fall on both sides of the length at which
    they share one weight row."""
    q = draw(st.integers(2, 200))
    drawn = dict(q=q, layout=draw(st.sampled_from(["default", "end points", "subset",
                                                   "end to end"])))
    if drawn["layout"] == "end to end":
        drawn["sizes"] = draw(st.lists(st.integers(q + 1, q + 100), min_size=2, max_size=4))
        n = sum(drawn["sizes"])
    else:
        n = drawn["n"] = draw(st.one_of(st.just(q + 1), st.integers(q + 1, q + 150)))
    if drawn["layout"] == "subset":  # as the refit of dead windows passes them
        drawn["keep"] = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)),
                                      min_size=1, max_size=4))
    drawn["seed"] = draw(st.integers(0, 2**32 - 1))
    drawn["weights"] = draw(st.sampled_from(["ones", "zeros", "mixed", "ones with a patch"]))
    if drawn["weights"] == "ones with a patch":  # zeros wide enough to empty whole windows
        drawn["patch"] = (draw(st.integers(0, n - 1)), draw(st.integers(1, 2 * q)),
                          draw(st.sampled_from([0.0, 0.25])))
    drawn["cells"] = draw(st.sampled_from([1 << 14, 1000, 50]))
    return drawn


def moment_input(q, layout, seed, weights, cells, n=None, sizes=(), keep=(), patch=None):
    """``ys, rw, x0, starts`` of ``moment_inputs``'s draws."""
    if layout == "end to end":
        bases = np.cumsum([0] + sizes[:-1]).tolist()
        x0, starts = map(np.concatenate, zip(*(end_point_layout(m, q, base)
                                                for m, base in zip(sizes, bases))))
        n = sum(sizes)
    else:
        x0, starts = np.arange(n, dtype=float), _window_starts(n, q)
        if layout == "end points":
            x0, starts = end_point_layout(n, q)
        elif layout == "subset":
            chosen = np.zeros(n, dtype=bool)
            for a, b in keep:
                chosen[min(a, b):max(a, b) + 1] = True
            x0, starts = x0[chosen], starts[chosen]
    rng = np.random.default_rng(seed)
    ys = rng.normal(0.0, 50.0, size=n)
    rw = {"ones": np.ones(n), "zeros": np.zeros(n),
          "mixed": rng.choice([0.0, 1.0, 0.5, rng.uniform()], size=n)}.get(weights)
    if weights == "ones with a patch":
        a, width, value = patch
        rw = np.ones(n)
        rw[a : a + width] = value
    return ys, rw, x0, starts


@given(st.integers(0, 2), moment_inputs())
# at q 129 the 64 edge points at each end share their window's first point
@example(1, dict(q=129, layout="default", n=400, seed=1, weights="ones", cells=1 << 14))
@example(2, dict(q=257, layout="default", n=400, seed=2, weights="mixed", cells=1 << 14))
# a patch in the second series only: the first one's interior run reads weights of 1 alone
@example(1, dict(q=21, layout="end to end", sizes=[150, 150], seed=3,
                 weights="ones with a patch", patch=(200, 10, 0.0), cells=1 << 14))
def test_window_moments_equal_the_offset_loop(degree, drawn):
    # the points outside the runs are gathered, whatever their windows share
    ys, rw, x0, starts = moment_input(**drawn)
    q = drawn["q"]
    # no block size changes a byte
    with mock.patch.object(timeseries, "_CELLS", drawn["cells"]):
        got = _window_moments(ys, rw, x0, starts, q, degree)
    want = reference_window_moments(ys, rw, x0, starts, q, degree)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    if degree:  # only the degree 1 and 2 solves read the count
        assert np.array_equal(got[2], want[2])


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


@given(st.integers(2, 7), st.sampled_from([7, 11, 35]),
       st.one_of(st.none(), st.integers(1, 7).map(lambda k: 2 * k + 1)), st.integers(0, 2),
       st.data())
def test_trend_window_is_rejected_exactly_where_its_fit_interpolates(period, s_window, t_window,
                                                                    degree, data):
    # a centred window weighs all but its two edge points, so under degree + 4
    # points the fit of degree ``degree`` passes through every point it weighs; on
    # 364 days of seed-1 demand such a trend left a median |residual| of 4e-15 to
    # 1e-14, and the robust pass then weighed rounding noise
    config = StlConfig(s_window=s_window, t_window=t_window, loess_degree=degree)
    smallest = math.ceil(1.5 * period / (1.0 - 1.5 / s_window))
    window = t_window if t_window is not None else smallest // 2 * 2 + 1
    n = data.draw(st.integers(max(2 * period, window + 1), 60))
    y = make_series(n, period, seed=data.draw(st.integers(0, 1000)))
    inside = slice(window // 2, n - window // 2)
    gap = np.abs(_loess(y, np.ones(n), window, degree) - y)[inside]
    if window < degree + 4:
        assert np.all(gap <= 1e-9)
        with pytest.raises(ParameterError, match=f"t_window {window}.*loess_degree {degree}"):
            stl_decompose(Series(MONDAY, y, period), config)
    else:
        assert np.median(gap) > 1e-3
        assert config.resolved_t_window(period) == window


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


@pytest.mark.parametrize("make, message", [
    # 11.0 and 7.5 once ended in an IndexError or TypeError, and True was taken as 1
    (lambda: StlConfig(s_window=11.0), "s_window must be a whole number, got 11.0"),
    (lambda: StlConfig(t_window=13.0), "t_window must be a whole number, got 13.0"),
    (lambda: StlConfig(n_inner=1.5), "n_inner must be a whole number, got 1.5"),
    (lambda: StlConfig(n_outer="1"), "n_outer must be a whole number, got '1'"),
    (lambda: StlConfig(loess_degree=True), "loess_degree must be a whole number, got True"),
    (lambda: Series(MONDAY, [1.0] * 20, period=7.5), "period must be a whole number, got 7.5"),
    (lambda: Series(MONDAY, [1.0] * 20, period=True), "period must be a whole number, got True"),
])
def test_int_fields_must_be_whole_numbers(make, message):
    with pytest.raises(ParameterError) as info:
        make()
    assert str(info.value) == message


def test_numpy_int_fields_accepted_as_ints():
    config = StlConfig(s_window=np.int64(11), t_window=np.int32(13))
    assert config == StlConfig(s_window=11, t_window=13) and type(config.s_window) is int
    assert StlConfig(t_window=None).t_window is None
    assert type(Series(MONDAY, [1.0] * 20, period=np.int64(7)).period) is int
