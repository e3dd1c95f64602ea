"""Seeded synthetic daily-demand generator.

Demand is built additively from a linear trend, day-of-week effects, lagged
covariate contributions, and Gaussian noise, then rounded half-up and clamped
at zero.  Covariates follow stationary AR(1) count processes and are emitted
as feature columns with their lags already applied, so every feature value
for day i is known strictly before day i.  The generator is a pure function
of its config; randomness comes from numpy's PCG64 so fixtures are stable
across platforms.

Every step works on whole columns except two, which must stay sequential to
keep each seed's output: the random draws (per covariate in config order, its
first value then its innovations, and the noise last) and each covariate's
AR(1) recursion, which runs in float64 one day after another, never as a
filter whose rounding would differ.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, finite_real, nonnegative_finite, whole
from .forecast import Dataset
from .table import write_days

__all__ = ["CovariateSpec", "GenConfig", "GroundTruth", "generate", "generate_full",
           "write_truth_csv"]

WEEKDAY_KEYS = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
_LEAD = 14  # covariate lead-in so lagged values exist for the demand lead-in


@dataclass(frozen=True)
class CovariateSpec:
    """One AR(1) covariate process and its effect on demand."""

    name: str
    effect_size: float = 0.0
    lag: int = 7
    nonlinearity: str = "none"  # "none" | "threshold"
    mean: float = 100.0
    sd: float = 20.0
    ar: float = 0.7

    def __post_init__(self) -> None:
        object.__setattr__(self, "lag", whole("lag", self.lag))
        if self.lag not in (1, 7):
            raise ParameterError(f"covariate lag must be 1 or 7, got {self.lag}")
        if self.nonlinearity not in ("none", "threshold"):
            raise ParameterError(f"unknown nonlinearity {self.nonlinearity!r}")
        for name in ("effect_size", "mean", "ar"):
            finite_real(name, getattr(self, name))
        if not 0.0 <= self.ar < 1.0:
            raise ParameterError(f"ar must lie in [0, 1), got {self.ar}")
        nonnegative_finite(self, ("sd",))

    def response(self, values: np.ndarray) -> np.ndarray:
        """Demand contribution per standardized covariate value."""
        z = (values - self.mean) / self.sd if self.sd > 0 else np.zeros_like(values)
        if self.nonlinearity == "threshold":
            z = np.maximum(0.0, z - 0.5)
        return self.effect_size * z


def _default_covariates() -> tuple[CovariateSpec, ...]:
    return (
        CovariateSpec(name="abnormal_lab_a", effect_size=12.0, lag=7),
        CovariateSpec(name="abnormal_lab_b", effect_size=9.0, lag=1),
    )


@dataclass(frozen=True)
class GenConfig:
    n_days: int = 3650
    base_level: float = 92.0
    trend_slope: float = 0.001
    weekday_effects: tuple = (-6.0, -2.0, 3.0, 8.0, 13.0, -7.0, -9.0)  # Mon..Sun
    covariates: tuple = field(default_factory=_default_covariates)
    noise_sd: float = 20.0
    seed: int = 42
    start_date: dt.date = dt.date(2008, 1, 7)  # a Monday

    def __post_init__(self) -> None:
        for name in ("n_days", "seed"):
            object.__setattr__(self, name, whole(name, getattr(self, name)))
        if not isinstance(self.start_date, dt.date):
            raise ParameterError(f"start_date must be a datetime.date, got {self.start_date!r}")
        if self.n_days < 1:
            raise ParameterError("n_days must be positive")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if len(self.weekday_effects) != 7:
            raise ParameterError("weekday_effects must list 7 values, Monday first")
        first = self.start_date.toordinal()
        if not dt.date.min.toordinal() + 7 <= first <= dt.date.max.toordinal() + 1 - self.n_days:
            raise ParameterError(f"start_date {self.start_date} with n_days {self.n_days}: the 7 "
                                 f"lead-in days and the last day must lie in "
                                 f"{dt.date.min}..{dt.date.max}")
        nonnegative_finite(self, ("noise_sd",))
        for name in ("base_level", "trend_slope"):
            finite_real(name, getattr(self, name))
        names = [c.name for c in self.covariates]
        if len(set(names)) != len(names):
            raise ParameterError("covariate names must be unique")
        effects = tuple(float(finite_real(f"weekday_effects[{i}]", v))
                        for i, v in enumerate(self.weekday_effects))
        object.__setattr__(self, "weekday_effects", effects)
        object.__setattr__(self, "covariates", tuple(self.covariates))


@dataclass(frozen=True)
class GroundTruth:
    """Generative components for the emitted days, for oracle-style tests."""

    trend: np.ndarray
    weekday: np.ndarray
    covariate_effect: np.ndarray
    noise: np.ndarray
    covariate_series: dict[str, np.ndarray]  # raw series aligned with the output days


def _ar1_counts(rng: np.random.Generator, spec: CovariateSpec, length: int) -> np.ndarray:
    innovation_sd = spec.sd * math.sqrt(1.0 - spec.ar**2)
    value = rng.normal(spec.mean, spec.sd)
    values = [value]
    for shock in rng.normal(0.0, innovation_sd, size=length - 1).tolist():
        value = spec.mean + spec.ar * (value - spec.mean) + shock
        values.append(value)
    return np.maximum(0, np.round(values)).astype(float)


def generate_full(config: GenConfig) -> tuple[Dataset, GroundTruth]:
    """Generate the daily dataset plus the ground-truth components behind it."""
    n = config.n_days
    rng = np.random.Generator(np.random.PCG64(config.seed))

    # day index t runs from -7 (demand lead-in for prior-week features) to n-1;
    # covariates start another week earlier so their lags always resolve
    cov_series = {
        spec.name: _ar1_counts(rng, spec, n + _LEAD) for spec in config.covariates
    }
    noise = rng.normal(0.0, config.noise_sd, size=n + 7)

    days = np.arange(-7, n)
    weekday_index = (config.start_date.weekday() + days) % 7
    weekday = np.asarray(config.weekday_effects)[weekday_index]
    covariate_effect = np.zeros(n + 7)
    # an overflow (a huge trend, a subnormal covariate sd) fails the range check below
    with np.errstate(over="ignore", invalid="ignore"):
        trend = config.base_level + config.trend_slope * days
        for spec in config.covariates:
            covariate_effect += spec.response(cov_series[spec.name][_LEAD + days - spec.lag])
        raw = trend + weekday + covariate_effect + noise
    if not -2.0**53 < raw.min() <= raw.max() < 2.0**53:  # also NaN; past it casts are inexact
        raise ParameterError("generated demand leaves the exact int range |demand| < 2**53; "
                             "reduce base_level, trend_slope or noise_sd")
    demand = np.maximum(0, np.floor(raw + 0.5)).astype(np.int64)

    # the week before each output day, as differences of running totals: exact
    # even where the int64 running total wraps, since each week's sum fits
    running = np.concatenate(([0], np.cumsum(demand)))
    prev_week = running[7:-1] - running[:-8]
    names = [f"dow_{key}" for key in WEEKDAY_KEYS]
    columns = [(weekday_index[7:] == key_index).astype(float)
               for key_index in range(len(WEEKDAY_KEYS))]
    lagged = [(spec.name, cov_series[spec.name][_LEAD - spec.lag : _LEAD - spec.lag + n])
              for spec in config.covariates]
    for name, column in [*lagged, ("prev_week_demand", prev_week.astype(float))]:
        if name in names:  # a colliding name keeps its place and takes the later column
            columns[names.index(name)] = column
        else:
            names.append(name)
            columns.append(column)
    data = Dataset(config.start_date, demand[7:].astype(float), np.column_stack(columns), names)

    truth = GroundTruth(
        trend=trend[7:],
        weekday=weekday[7:],
        covariate_effect=covariate_effect[7:],
        noise=noise[7:],
        covariate_series={
            name: series[_LEAD : _LEAD + n] for name, series in cov_series.items()
        },
    )
    return data, truth


def generate(config: GenConfig) -> Dataset:
    """Generate the synthetic daily dataset (see ``generate_full`` for truth)."""
    return generate_full(config)[0]


def write_truth_csv(path, config: GenConfig, truth: GroundTruth) -> None:
    """Columns: date, trend, weekday_effect, covariate_effect, noise, <covariate...>."""
    names = sorted(truth.covariate_series)
    write_days(path, ["date", "trend", "weekday_effect", "covariate_effect", "noise", *names],
               config.start_date, [truth.trend, truth.weekday, truth.covariate_effect, truth.noise,
                                   *(truth.covariate_series[name] for name in names)])
