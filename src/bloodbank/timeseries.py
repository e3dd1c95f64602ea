"""Additive seasonal-trend decomposition of daily series by loess.

The decomposition splits an evenly spaced series into trend, seasonal, and
residual components such that ``trend + seasonal + residual`` reproduces the
input exactly (the residual is computed as the difference, so the identity
holds to float round-off).  Seasonal evolution is controlled by ``s_window``,
trend smoothness by ``t_window``, and outlier resistance by the number of
robustness iterations ``n_outer``.

Every loess fit goes through one kernel, ``_loess``, which fits evenly spaced
points (point ``i`` at position ``i``, so every offset is exact in float) in a
fixed order: a window's moments are summed offset by offset from 0.0, a global
fit's exactly (``math.fsum``), and both are solved in closed form.  A run of
points whose windows lie alike about them shares one row of offsets and tricube
weights and reads its values as a sliding view; where every robustness weight is 1
its ``s`` moments are one Python float sum of that row, term by term.  Every other
term is formed in blocks of (offsets x points), the other points' values gathered,
and each offset's terms are added with one elementwise add.  Elementwise IEEE
operations round alike at every SIMD width and no sum uses a SIMD reduction or a
BLAS or LAPACK kernel, so the bytes of the decomposition do not depend on the CPU.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add

import numpy as np

from .errors import ParameterError, whole
from .table import write_days

__all__ = [
    "Series",
    "Decomposition",
    "StlConfig",
    "stl_decompose",
    "Projection",
    "stl_projection",
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
        object.__setattr__(self, "period", whole("period", self.period))
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
        for name in ("s_window", "n_inner", "n_outer", "loess_degree") + (
                ("t_window",) if self.t_window is not None else ()):
            object.__setattr__(self, name, whole(name, getattr(self, name)))
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
        """The trend window for ``period``.  Tricube weighs all but the two edge
        points of a centred window, so one under ``loess_degree + 4`` points fits
        its weighted points exactly: the residual is then rounding noise, and the
        robustness weights follow it."""
        window = self.t_window
        if window is None:
            window = int(math.ceil(1.5 * period / (1.0 - 1.5 / self.s_window))) | 1  # odd
        if window < self.loess_degree + 4:
            default = "" if self.t_window is not None else f" (the default for period {period})"
            raise ParameterError(
                f"t_window {window}{default} is too short for loess_degree {self.loess_degree}: "
                f"the trend fit needs a window of at least {self.loess_degree + 4} points")
        return window


# the most (offset, point) cells a block of terms holds at a time
_CELLS = 1 << 14
# a run of alike windows that has fewer points than this is gathered into blocks:
# the calls it would make on its own cost more than the gathers it saves
_SLIDE = 64


def _window_starts(n: int, q: int) -> np.ndarray:
    # the first of the q points nearest each of 0 .. n - 1 (a tie keeps the earlier start)
    return np.clip(np.arange(n) - q // 2, 0, max(n - q, 0))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # stl_decompose checks the result
def _loess(ys, rw, q: int, degree: int, x0=None, starts=None) -> np.ndarray:
    """The fit of ``degree`` at each ``x0[i]`` (default: each position ``0 .. n - 1``)
    to the points ``starts[i] .. starts[i] + q - 1``, point ``j`` at position ``j``,
    weighted by tricube times ``rw``, or to all ``n`` points weighted by ``rw`` when
    ``q >= n``; where robustness zeroed every weight, to the neighborhood weights alone."""
    if x0 is None:
        x0, starts = np.arange(ys.size, dtype=float), _window_starts(ys.size, q)
    if q >= ys.size:
        s, r, count = _global_moments(ys, rw, x0, degree)
    else:
        s, r, count = _window_moments(ys, rw, x0, starts, q, degree)
    fitted = _solve(s, r, count, degree)
    dead = s[0] <= 0.0
    if np.any(dead):
        fitted[dead] = _loess(ys, np.ones_like(rw), q, degree, x0[dead], starts[dead])
    return fitted


def _window_moments(ys, rw, x0, starts, q, degree):
    """``s[k] = sum(w t^k)``, ``r[k] = sum(w t^k y)`` of each window, ``t`` the offset
    from ``x0`` scaled into [-1, 1]; and, for degree 1 and 2, the count of points of
    positive weight.  Each sum runs offset by offset from 0.0."""
    ys, rw = (np.ascontiguousarray(v, dtype=float) for v in (ys, rw))
    moments = np.zeros((3 * degree + 2, x0.size))
    count = np.zeros(x0.size, dtype=np.intp)
    lead = starts - x0  # each window's first offset
    h = np.maximum(np.abs(lead), np.abs(lead + (q - 1)))
    unit = bool(np.all(rw == 1.0))  # then each weight is the tricube alone
    # every block's terms, offsets and weights: a block allocated afresh would
    # fault its pages in again
    scratch = np.empty((moments.shape[0] + 2) * min(_CELLS, q * x0.size))
    rest = np.ones(x0.size, dtype=bool)
    cuts = ((np.diff(x0) != 1.0) | (np.diff(lead) != 0.0)).nonzero()[0].tolist()
    for a, b in zip([0] + [c + 1 for c in cuts], [c + 1 for c in cuts] + [x0.size]):
        if b - a >= _SLIDE:  # a run of windows that lie alike about their points
            rest[a:b] = False
            for p in range(a, b, _CELLS):
                run = slice(p, min(p + _CELLS, b))
                _slide(moments[:, run], count[run], ys, rw, starts[p], lead[a], h[a], q, degree,
                       unit, scratch)
    # the rest in gathered blocks
    rest = rest.nonzero()[0]
    for p in range(0, rest.size, _CELLS):
        at = rest[p : p + _CELLS]
        part = np.zeros((moments.shape[0], at.size)), np.zeros(at.size, dtype=np.intp)
        _block(*part, ys, None if unit else rw, starts[at], lead[at], h[at], q, degree, scratch)
        moments[:, at], count[at] = part
    return moments[: 2 * degree + 1], moments[2 * degree + 1 :], count


def _slide(moments, count, ys, rw, first, lead, h, q, degree, unit, scratch):
    """The moments of a run of points whose windows start at ``first``, ``first + 1``,
    ... with the same offsets: one row of offsets and tricube weights serves them
    all, and row ``j`` of a (offsets x points) view of ``ys`` holds the values at
    offset ``j``.  Where every robustness weight is 1 the ``s`` moments are shared."""
    t = (lead + np.arange(q)) / h
    u = np.abs(t)
    c = 1.0 - u * u * u
    c = c * c * c
    width = moments.shape[1]
    # (offsets x points) views of float64s: row j starts one value after row j - 1
    y, w = (np.ndarray((q, width), float, v, first * 8, (8, 8)) for v in (ys, rw))
    step = max(1, _CELLS // width)
    if unit:
        wt = np.array(list(accumulate([c * w[:, 0]] + [t] * (2 * degree), np.multiply)))
        moments[: 2 * degree + 1] = [[reduce(add, row, 0.0)] for row in wt.tolist()]
        count[:] = np.count_nonzero(wt[0] > 0.0) if degree else 0
        for j in range(0, q, step):
            terms = _block_of(scratch, degree + 1, min(step, q - j), width)
            np.multiply(wt[: degree + 1, j : j + step, None], y[j : j + step], out=terms)
            _add_offsets(moments[2 * degree + 1 :], terms)
        return
    for j in range(0, q, step):
        terms = _block_of(scratch, moments.shape[0], min(step, q - j), width)
        np.multiply(c[j : j + step, None], w[j : j + step], out=terms[0])
        _add_terms(moments, count, terms, t[j : j + step, None], y[j : j + step], degree)


def _block(moments, count, ys, rw, starts, lead, h, q, degree, scratch):
    """The moments of any points, through blocks of (offsets x points) terms that gather
    their values; ``rw`` None means every robustness weight is 1."""
    step = max(1, _CELLS // starts.size)
    for j in range(0, q, step):
        offsets = np.arange(j, min(j + step, q))[:, None]
        at = starts + offsets
        block = _block_of(scratch, moments.shape[0] + 2, offsets.size, starts.size)
        terms, t, c = block[:-2], block[-2], block[-1]
        np.add(lead, offsets, out=t)
        t /= h
        np.abs(t, out=c)
        w = np.multiply(c, c, out=terms[0])
        w *= c
        np.subtract(1.0, w, out=c)
        np.multiply(c, c, out=w)
        w *= c
        if rw is not None:
            w *= rw[at]
        _add_terms(moments, count, terms, t, ys[at], degree)


def _block_of(scratch, moments, offsets, points):
    """A (moments x offsets x points) block at the head of ``scratch``."""
    return scratch[: moments * offsets * points].reshape(moments, offsets, points)


def _add_terms(moments, count, terms, t, ys, degree):
    """Fill a block of (moments x offsets x points) terms from its weights
    ``terms[0]`` and add them to ``moments``; for degree 1 and 2, count the
    positive weights."""
    if degree:
        count += np.count_nonzero(terms[0] > 0.0, axis=0)
    for k in range(1, 2 * degree + 1):
        np.multiply(terms[k - 1], t, out=terms[k])
    for k in range(degree + 1):
        np.multiply(terms[k], ys, out=terms[2 * degree + 1 + k])
    _add_offsets(moments, terms)


def _add_offsets(moments, terms):
    """Add ``terms[:, j]`` to ``moments`` offset by offset, in order: one row add each."""
    for j in range(terms.shape[1]):
        np.add(moments, terms[:, j], out=moments)


def _global_moments(ys, rw, x0, degree):
    """The moments of one fit over every point, about each ``x0``: summed
    exactly once about the centre, then shifted by the binomial expansion."""
    centre, h = (ys.size - 1) / 2.0, max((ys.size - 1) / 2.0, 1.0)
    wt = list(accumulate([rw] + [(np.arange(ys.size) - centre) / h] * (2 * degree), np.multiply))
    try:
        about = ([math.fsum(m.tolist()) for m in wt],
                 [math.fsum((m * ys).tolist()) for m in wt[: degree + 1]])
    except (OverflowError, ValueError):  # a moment beyond the float range
        about = ([math.nan] * len(wt), [math.nan] * (degree + 1))
    shift = (centre - x0) / h  # a point's offset from x0 is t + shift
    powers = list(accumulate([np.ones_like(shift)] + [shift] * (2 * degree), np.multiply))
    s, r = (np.array([sum(math.comb(k, i) * m[i] * powers[k - i] for i in range(k + 1))
                      for k in range(len(m))]) for m in about)
    return s, r, np.count_nonzero(rw > 0.0)


def _solve(s, r, count, degree):
    """The value at ``t = 0`` of the fit whose normal equations have moments ``s, r``.

    Elimination runs in degree order.  A pivot that is not positive, because fewer
    than ``degree + 1`` points carry weight or by rounding, makes that degree
    singular: its coefficient and those above are 0, the next lower degree's fit."""
    if degree == 0:
        return r[0] / s[0]
    l1 = s[1] / s[0]
    p1 = s[2] - l1 * s[1]
    b1 = r[1] - l1 * r[0]
    ok1 = (count > 1) & (p1 > 0.0)
    c2 = 0.0
    if degree == 2:
        l2 = s[2] / s[0]
        a12 = s[3] - l1 * s[2]
        m = a12 / p1
        p2 = s[4] - l2 * s[2] - m * a12
        c2 = np.where(ok1 & (count > 2) & (p2 > 0.0), (r[2] - l2 * r[0] - m * b1) / p2, 0.0)
        b1 = b1 - a12 * c2
    c1 = np.where(ok1, b1 / p1, 0.0)
    return (r[0] - s[1] * c1 - s[2] * c2) / s[0]


def _moving_average(values: np.ndarray, window: int) -> np.ndarray:
    return sum(values[j : values.size - window + 1 + j] for j in range(window)) / window


def _bisquare_weights(residual: np.ndarray) -> np.ndarray:
    scale = 6.0 * np.median(np.abs(residual))
    if scale <= 0.0:
        return np.ones_like(residual)
    u = np.clip(np.abs(residual) / scale, 0.0, 1.0)
    return (1.0 - u * u) * (1.0 - u * u)


def _smooth_subseries(
    detrended: np.ndarray, period: int, s_window: int, degree: int, rw: np.ndarray
) -> np.ndarray:
    """Smooth each cycle-subseries and extend it one cycle on either side.

    The subseries longer than ``s_window`` are fitted in one call, laid end to end:
    no window crosses the end of its subseries, so each point gets the sums it
    would get alone.  A subseries that its window covers is one global fit."""
    extended = np.empty(detrended.size + 2 * period)
    batch, x0, starts, base = [], [], [], 0
    for k in range(period):
        m = detrended[k::period].size
        if m <= s_window:
            extended[k::period] = _loess(detrended[k::period], rw[k::period], m, degree,
                                         np.arange(-1.0, m + 1), np.zeros(m + 2, dtype=np.intp))
            continue
        batch.append(k)
        x0.append(np.arange(base - 1.0, base + m + 1))
        # the end points -1 and m take the first and the last s_window points
        starts.append(base + np.concatenate(([0], _window_starts(m, s_window), [m - s_window])))
        base += m
    if batch:
        fitted = _loess(np.concatenate([detrended[k::period] for k in batch]),
                        np.concatenate([rw[k::period] for k in batch]), s_window, degree,
                        np.concatenate(x0), np.concatenate(starts))
        ends = list(accumulate(x.size for x in x0))
        for k, part in zip(batch, np.split(fitted, ends[:-1])):
            extended[k::period] = part
    return extended


def _low_pass(values: np.ndarray, period: int) -> np.ndarray:
    window = period if period % 2 == 1 else period + 1
    filtered = _moving_average(values, period)
    filtered = _moving_average(filtered, period)
    filtered = _moving_average(filtered, 3)
    return _loess(filtered, np.ones_like(filtered), min(window, filtered.size), 1)


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
    rw = np.ones(n)
    trend = np.zeros(n)
    seasonal = np.zeros(n)

    for outer in range(config.n_outer + 1):
        for _ in range(config.n_inner):
            detrended = y - trend
            cycle = _smooth_subseries(detrended, period, config.s_window, config.loess_degree, rw)
            seasonal = cycle[period : period + n] - _low_pass(cycle, period)
            deseasonalized = y - seasonal
            trend = _loess(deseasonalized, rw, min(t_window, n), config.loess_degree)
        if outer < config.n_outer:
            rw = _bisquare_weights(y - trend - seasonal)

    residual = y - trend - seasonal
    if not np.all(np.isfinite(residual)):  # finite only if trend and seasonal are
        raise ParameterError(f"values as large as {np.abs(y).max():g} overflow STL's fits")
    return Decomposition(trend=trend, seasonal=seasonal, residual=residual)


# the trend projections ``stl_extend`` knows
TREND_MODES = ("drift", "flat")


@dataclass(frozen=True)
class Projection:
    """Trend + seasonal past a window of ``days`` days: the trend reads ``level`` at day
    ``anchor`` (the first is 0) and moves ``slope`` a day, and the ``seasonal`` cycle repeats."""

    days: int
    level: float
    slope: float
    anchor: float
    seasonal: np.ndarray

    def extend(self, horizon: int) -> np.ndarray:
        """Trend + seasonal over the ``horizon`` days after the window."""
        if horizon < 1:
            raise ParameterError(f"horizon must be >= 1, got {horizon}")
        seasonal = self.seasonal[np.arange(horizon) % self.seasonal.size]
        future = np.arange(self.days, self.days + horizon, dtype=float)
        return self.level + self.slope * (future - self.anchor) + seasonal


def stl_projection(dec: Decomposition, period: int, trend_mode: str = "drift") -> Projection:
    """The projection of ``dec``: its last cycle, and under ``drift`` the line fitted to
    the trend's last ``period`` values (their mean at their mean position), under
    ``flat`` the trend's final value with slope 0."""
    if trend_mode not in TREND_MODES:
        raise ParameterError(f"unknown trend_mode {trend_mode!r}")
    n = len(dec)
    if n < period:
        raise ParameterError(f"decomposition of length {n} is shorter than one cycle of {period}")
    seasonal = dec.seasonal[-period:].copy()
    if trend_mode == "flat":
        return Projection(n, float(dec.trend[-1]), 0.0, n - 1.0, seasonal)
    tail = dec.trend[-period:]
    x = np.arange(n - period, n, dtype=float)
    x_mean = x.mean()
    tail_mean = tail.mean()
    denom = ((x - x_mean) ** 2).sum()
    slope = ((x - x_mean) * (tail - tail_mean)).sum() / denom if denom > 0 else 0.0
    return Projection(n, float(tail_mean), float(slope), float(x_mean), seasonal)


def stl_extend(dec: Decomposition, horizon: int, period: int,
               trend_mode: str = "drift") -> np.ndarray:
    """Trend + seasonal over the ``horizon`` days after ``dec``: its projection, extended."""
    return stl_projection(dec, period, trend_mode).extend(horizon)


def write_decomposition_csv(path, series: Series, dec: Decomposition) -> None:
    """Columns: date, observed, trend, seasonal, residual."""
    if len(dec) != len(series):
        raise ParameterError("decomposition length does not match the series")
    write_days(path, ["date", "observed", "trend", "seasonal", "residual"], series.start_date,
               [series.values, dec.trend, dec.seasonal, dec.residual])

