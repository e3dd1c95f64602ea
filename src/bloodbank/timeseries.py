"""Loess smoothing and additive seasonal-trend decomposition of daily series.

The decomposition splits an evenly spaced series into trend, seasonal, and
residual components such that ``trend + seasonal + residual`` reproduces the
input exactly (the residual is computed as the difference, so the identity
holds to float round-off).  Seasonal evolution is controlled by ``s_window``,
trend smoothness by ``t_window``, and outlier resistance by the number of
robustness iterations ``n_outer``.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .table import number, write_table

__all__ = [
    "Series",
    "Decomposition",
    "StlConfig",
    "loess_smooth",
    "stl_decompose",
    "stl_extend",
    "write_decomposition_csv",
]


@dataclass(frozen=True)
class Series:
    """Evenly spaced daily observations with a fixed seasonal cycle length."""

    start_date: dt.date
    values: np.ndarray
    period: int = 7

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ParameterError("series values must be a non-empty 1-d sequence")
        if self.period < 2:
            raise ParameterError(f"period must be >= 2, got {self.period}")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    def dates(self) -> list[dt.date]:
        return [self.start_date + dt.timedelta(days=i) for i in range(len(self))]


@dataclass(frozen=True)
class Decomposition:
    """Trend, seasonal, and residual components, all the length of the input."""

    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray

    def __post_init__(self) -> None:
        for name in ("trend", "seasonal", "residual"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.trend.ndim != 1 or not (self.trend.shape == self.seasonal.shape
                                        == self.residual.shape):
            raise ParameterError("decomposition components must be 1-d and equally long")

    def __len__(self) -> int:
        return self.trend.size

    def reconstruct(self) -> np.ndarray:
        return self.trend + self.seasonal + self.residual


@dataclass(frozen=True)
class StlConfig:
    """Smoothing parameters for the decomposition.

    ``s_window`` is the loess span, in cycle counts, used when smoothing each
    cycle-subseries; it must be odd and at least 7.  ``t_window`` is the span
    for trend extraction; when omitted it defaults to the smallest odd integer
    >= 1.5 * period / (1 - 1.5 / s_window).  ``n_outer`` > 0 adds robustness
    passes that downweight outliers with bisquare weights.
    """

    s_window: int = 11
    t_window: int | None = None
    n_inner: int = 2
    n_outer: int = 1
    loess_degree: int = 1

    def __post_init__(self) -> None:
        if self.s_window < 7 or self.s_window % 2 == 0:
            raise ParameterError(f"s_window must be odd and >= 7, got {self.s_window}")
        if self.t_window is not None and (self.t_window < 3 or self.t_window % 2 == 0):
            raise ParameterError(f"t_window must be odd and >= 3, got {self.t_window}")
        if self.n_inner < 1:
            raise ParameterError("n_inner must be positive")
        if self.n_outer < 0:
            raise ParameterError("n_outer must be non-negative")
        if self.loess_degree not in (0, 1, 2):
            raise ParameterError(f"loess_degree must be 0, 1 or 2, got {self.loess_degree}")

    def resolved_t_window(self, period: int) -> int:
        if self.t_window is not None:
            return self.t_window
        raw = 1.5 * period / (1.0 - 1.5 / self.s_window)
        window = int(math.ceil(raw))
        return window if window % 2 == 1 else window + 1


def _neighbor_count(n: int, span: float, degree: int) -> int:
    # ceil with a guard against float noise in span * n
    q = int(math.ceil(span * n - 1e-9))
    if q < degree + 1:
        raise ParameterError(
            f"span {span} keeps {q} neighbors but degree {degree} needs at least {degree + 1}"
        )
    return min(q, n)


def _window_starts(xs: np.ndarray, q: int) -> np.ndarray:
    # xs sorted ascending: the q nearest neighbors of each point form a
    # contiguous block, found with a single forward sweep
    n = xs.size
    if np.array_equal(xs, np.arange(n)):  # every STL smoother: the sweep's closed form
        return np.clip(np.arange(n) - q // 2, 0, max(n - q, 0))
    starts = np.empty(n, dtype=np.intp)
    s = 0
    for i in range(n):
        while s + q < n and xs[i] - xs[s] > xs[s + q] - xs[i]:
            s += 1
        starts[i] = s
    return starts


def _tricube(u: np.ndarray) -> np.ndarray:
    w = np.clip(1.0 - np.clip(u, 0.0, 1.0) ** 3, 0.0, None) ** 3
    return w


def _solve_wls(t: np.ndarray, y: np.ndarray, w: np.ndarray, degree: int) -> np.ndarray:
    """Batched weighted polynomial fit evaluated at t = 0.

    ``t`` holds window offsets scaled into [-1, 1]; fitting in that coordinate
    keeps the normal equations well conditioned and leaves the value at the
    window centre unchanged.
    """
    if degree == 0:
        return (w * y).sum(axis=1) / w.sum(axis=1)
    powers = np.arange(degree + 1)
    design = t[..., None] ** powers
    weighted = design * w[..., None]
    gram = np.einsum("nqi,nqj->nij", weighted, design)
    rhs = np.einsum("nqi,nq->ni", weighted, y)
    try:
        beta = np.linalg.solve(gram, rhs[..., None])
        return beta[:, 0, 0]
    except np.linalg.LinAlgError:
        out = np.empty(t.shape[0])
        sqrt_w = np.sqrt(w)
        for i in range(t.shape[0]):
            a = design[i] * sqrt_w[i][:, None]
            b = y[i] * sqrt_w[i]
            coef, *_ = np.linalg.lstsq(a, b, rcond=None)
            out[i] = coef[0]
        return out


def _global_polyfit(xs: np.ndarray, ys: np.ndarray, degree: int, weights: np.ndarray) -> np.ndarray:
    if weights.sum() <= 0.0:
        weights = np.ones_like(weights)
    center = xs.mean()
    scale = max(np.abs(xs - center).max(), 1.0)
    t = (xs - center) / scale
    powers = np.arange(degree + 1)
    design = t[:, None] ** powers
    weighted = design * weights[:, None]
    gram = weighted.T @ design
    rhs = weighted.T @ ys
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        sqrt_w = np.sqrt(weights)
        beta, *_ = np.linalg.lstsq(design * sqrt_w[:, None], ys * sqrt_w, rcond=None)
    return design @ beta


def loess_smooth(
    xs,
    ys,
    span: float,
    degree: int = 1,
    robustness_weights=None,
) -> np.ndarray:
    """Locally weighted polynomial smoothing with tricube neighborhood weights.

    The bandwidth at each point is the distance to its ``ceil(span * n)``-th
    nearest neighbor.  A span of 1.0 covers every observation with uniform
    weight, so the result degenerates to a single global least-squares fit.
    Robustness weights, when given, multiply the tricube weights.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ParameterError("xs must be a non-empty 1-d sequence")
    if ys.shape != xs.shape:
        raise ParameterError(f"length mismatch: xs has {xs.size} points, ys has {ys.size}")
    if np.any(np.diff(xs) <= 0):
        raise ParameterError("xs must be strictly increasing")
    if not 0.0 < span <= 1.0:
        raise ParameterError(f"span must lie in (0, 1], got {span}")
    if degree not in (0, 1, 2):
        raise ParameterError(f"degree must be 0, 1 or 2, got {degree}")
    if robustness_weights is None:
        rw = np.ones_like(xs)
    else:
        rw = np.asarray(robustness_weights, dtype=float)
        if rw.shape != xs.shape:
            raise ParameterError("robustness_weights must match xs in length")
    q = _neighbor_count(xs.size, span, degree)
    return _loess_fit_all(xs, ys, q, degree, rw)


def _loess_fit_all(xs: np.ndarray, ys: np.ndarray, q: int, degree: int, rw: np.ndarray) -> np.ndarray:
    n = xs.size
    if q >= n:
        return _global_polyfit(xs, ys, degree, rw)
    if q == 1:
        return ys.copy()
    starts = _window_starts(xs, q)
    win = starts[:, None] + np.arange(q)
    offsets = xs[win] - xs[:, None]
    dist = np.abs(offsets)
    bandwidth = np.maximum(dist[:, 0], dist[:, -1])
    tw = _tricube(dist / bandwidth[:, None])
    w = tw * rw[win]
    dead = w.sum(axis=1) <= 0.0  # robustness zeroed a whole window
    if np.any(dead):
        w[dead] = tw[dead]
    return _solve_wls(offsets / bandwidth[:, None], ys[win], w, degree)


def _loess_at(xs: np.ndarray, ys: np.ndarray, x0: float, q: int, degree: int, rw: np.ndarray) -> float:
    """Loess estimate at ``x0 = -1`` or ``x0 = m``, which extends a cycle-subseries.

    ``xs`` is ``0..m-1``, so the ``q <= m`` points nearest ``x0`` are the first
    or the last ``q``.
    """
    n = xs.size
    window = slice(0, q) if x0 < 0 else slice(n - q, n)
    t, y, w = xs[window] - x0, ys[window], rw[window]
    if q >= n:
        if w.sum() <= 0.0:
            w = np.ones_like(w)
        scale = max(np.abs(t).max(), 1.0)
    else:
        scale = np.abs(t).max()  # at least 1: x0 lies outside xs
        tw = _tricube(np.abs(t) / scale)
        w = tw * w
        if w.sum() <= 0.0:
            w = tw
    fitted = _solve_wls((t / scale)[None, :], y[None, :], w[None, :], degree)
    return float(fitted[0])


def _moving_average(values: np.ndarray, window: int) -> np.ndarray:
    kernel = np.full(window, 1.0 / window)
    return np.convolve(values, kernel, mode="valid")


def _bisquare_weights(residual: np.ndarray) -> np.ndarray:
    scale = 6.0 * np.median(np.abs(residual))
    if scale <= 0.0:
        return np.ones_like(residual)
    u = np.clip(np.abs(residual) / scale, 0.0, 1.0)
    return (1.0 - u**2) ** 2


def _smooth_subseries(
    detrended: np.ndarray, period: int, s_window: int, degree: int, rw: np.ndarray
) -> np.ndarray:
    """Smooth each cycle-subseries and extend it one cycle on either side."""
    n = detrended.size
    extended = np.empty(n + 2 * period)
    for k in range(period):
        sub = detrended[k::period]
        sub_rw = rw[k::period]
        m = sub.size
        xs = np.arange(m, dtype=float)
        q = min(s_window, m)
        fitted = _loess_fit_all(xs, sub, q, degree, sub_rw)
        slots = np.arange(-1, m + 1) * period + k + period
        extended[slots[1:-1]] = fitted
        extended[slots[0]] = _loess_at(xs, sub, -1.0, q, degree, sub_rw)
        extended[slots[-1]] = _loess_at(xs, sub, float(m), q, degree, sub_rw)
    return extended


def _low_pass(values: np.ndarray, period: int) -> np.ndarray:
    window = period if period % 2 == 1 else period + 1
    filtered = _moving_average(values, period)
    filtered = _moving_average(filtered, period)
    filtered = _moving_average(filtered, 3)
    xs = np.arange(filtered.size, dtype=float)
    q = min(window, filtered.size)
    return _loess_fit_all(xs, filtered, q, 1, np.ones_like(filtered))


def stl_decompose(series: Series, config: StlConfig | None = None) -> Decomposition:
    """Additive decomposition into trend, seasonal, and residual components.

    Runs the inner smoothing loop ``n_inner`` times per pass: the detrended
    series is smoothed cycle-subseries by cycle-subseries, a low-pass filter
    removes drift left in the seasonal, and the deseasonalized series is
    loess-smoothed into the trend.  Each of the ``n_outer`` robustness passes
    then recomputes bisquare weights from the residual and repeats the loop,
    which suppresses the influence of outliers.
    """
    config = config or StlConfig()
    y = series.values
    period = series.period
    n = y.size
    if n < 2 * period:
        raise ParameterError(f"series of length {n} is shorter than two cycles of {period}")
    if not np.all(np.isfinite(y)):
        raise ParameterError("series contains missing or non-finite values")

    t_window = config.resolved_t_window(period)
    t_xs = np.arange(n, dtype=float)
    rw = np.ones(n)
    trend = np.zeros(n)
    seasonal = np.zeros(n)

    for outer in range(config.n_outer + 1):
        for _ in range(config.n_inner):
            detrended = y - trend
            cycle = _smooth_subseries(detrended, period, config.s_window, config.loess_degree, rw)
            seasonal = cycle[period : period + n] - _low_pass(cycle, period)
            deseasonalized = y - seasonal
            trend = _loess_fit_all(t_xs, deseasonalized, min(t_window, n), config.loess_degree, rw)
        if outer < config.n_outer:
            rw = _bisquare_weights(y - trend - seasonal)

    residual = y - trend - seasonal
    if not np.all(np.isfinite(residual)):  # finite only if trend and seasonal are
        raise ParameterError(f"values as large as {np.abs(y).max():g} overflow STL's fits")
    return Decomposition(trend=trend, seasonal=seasonal, residual=residual)


# the trend projections ``stl_extend`` knows
TREND_MODES = ("drift", "flat")


def stl_extend(
    dec: Decomposition, horizon: int, period: int, trend_mode: str = "drift"
) -> np.ndarray:
    """Project trend + seasonal over a forecast horizon.

    The seasonal component repeats its final full cycle.  The trend continues
    with the linear drift fitted to its last ``period`` values
    (``trend_mode="drift"``) or stays flat at its final value
    (``trend_mode="flat"``).
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    if trend_mode not in TREND_MODES:
        raise ParameterError(f"unknown trend_mode {trend_mode!r}")
    n = len(dec)
    if n < period:
        raise ParameterError(f"decomposition of length {n} is shorter than one cycle of {period}")

    last_cycle = dec.seasonal[-period:]
    seasonal = last_cycle[np.arange(horizon) % period]

    if trend_mode == "flat":
        trend = np.full(horizon, dec.trend[-1])
    else:
        tail = dec.trend[-period:]
        x = np.arange(n - period, n, dtype=float)
        x_mean = x.mean()
        tail_mean = tail.mean()
        denom = ((x - x_mean) ** 2).sum()
        slope = ((x - x_mean) * (tail - tail_mean)).sum() / denom if denom > 0 else 0.0
        future = np.arange(n, n + horizon, dtype=float)
        trend = tail_mean + slope * (future - x_mean)
    return trend + seasonal


def write_decomposition_csv(path, series: Series, dec: Decomposition) -> None:
    """Columns: date, observed, trend, seasonal, residual."""
    if len(dec) != len(series):
        raise ParameterError("decomposition length does not match the series")
    columns = (series.values, dec.trend, dec.seasonal, dec.residual)
    write_table(path, ["date", "observed", "trend", "seasonal", "residual"],
                ([day.isoformat(), *map(number, values)]
                 for day, *values in zip(series.dates(), *columns)))

