"""Seeded synthetic daily-demand generator.

Demand is built additively from a linear trend, day-of-week effects, lagged
covariate contributions, and Gaussian noise, then rounded half-up and clamped
at zero.  Covariates follow stationary AR(1) count processes and are emitted
as feature columns with their lags already applied, so every feature value
for day i is known strictly before day i.  The generator is a pure function
of its config; randomness comes from numpy's PCG64 so fixtures are stable
across platforms.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .forecast import DailyRecord
from .table import number, write_table

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
        if self.lag not in (1, 7):
            raise ParameterError(f"covariate lag must be 1 or 7, got {self.lag}")
        if self.nonlinearity not in ("none", "threshold"):
            raise ParameterError(f"unknown nonlinearity {self.nonlinearity!r}")
        if not 0.0 <= self.ar < 1.0:
            raise ParameterError(f"ar must lie in [0, 1), got {self.ar}")
        if self.sd < 0.0:
            raise ParameterError("sd must be non-negative")

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
        if self.n_days < 1:
            raise ParameterError("n_days must be positive")
        if len(self.weekday_effects) != 7:
            raise ParameterError("weekday_effects must list 7 values, Monday first")
        if not 0.0 <= self.noise_sd < math.inf:  # also NaN
            raise ParameterError(f"noise_sd must be non-negative and finite, got {self.noise_sd}")
        for name in ("base_level", "trend_slope"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        names = [c.name for c in self.covariates]
        if len(set(names)) != len(names):
            raise ParameterError("covariate names must be unique")
        object.__setattr__(self, "weekday_effects", tuple(float(v) for v in self.weekday_effects))
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
    values = np.empty(length)
    values[0] = rng.normal(spec.mean, spec.sd)
    shocks = rng.normal(0.0, innovation_sd, size=length - 1) if length > 1 else []
    for t in range(1, length):
        values[t] = spec.mean + spec.ar * (values[t - 1] - spec.mean) + shocks[t - 1]
    return np.maximum(0, np.round(values)).astype(float)


def generate_full(config: GenConfig) -> tuple[list[DailyRecord], GroundTruth]:
    """Generate daily records plus the ground-truth components behind them."""
    n = config.n_days
    rng = np.random.Generator(np.random.PCG64(config.seed))

    # day index t runs from -7 (demand lead-in for prior-week features) to n-1;
    # covariates start another week earlier so their lags always resolve
    cov_series = {
        spec.name: _ar1_counts(rng, spec, n + _LEAD) for spec in config.covariates
    }
    noise = rng.normal(0.0, config.noise_sd, size=n + 7)

    days = np.arange(-7, n)
    weekday_index = np.array(
        [(config.start_date + dt.timedelta(days=int(t))).weekday() for t in days]
    )
    with np.errstate(over="ignore"):  # an infinite trend fails the range check below
        trend = config.base_level + config.trend_slope * days
    weekday = np.asarray(config.weekday_effects)[weekday_index]
    covariate_effect = np.zeros(n + 7)
    for spec in config.covariates:
        series = cov_series[spec.name]
        lagged = series[_LEAD + days - spec.lag]
        covariate_effect += spec.response(lagged)

    raw = trend + weekday + covariate_effect + noise
    if not -2.0**53 < raw.min() <= raw.max() < 2.0**53:  # also NaN; past it casts are inexact
        raise ParameterError("generated demand leaves the exact int range |demand| < 2**53; "
                             "reduce base_level, trend_slope or noise_sd")
    demand = np.maximum(0, np.floor(raw + 0.5)).astype(np.int64)

    records: list[DailyRecord] = []
    for t in range(n):
        row = 7 + t  # position of day t in the lead-in-padded arrays
        features: dict[str, float] = {}
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


def generate(config: GenConfig) -> list[DailyRecord]:
    """Generate the synthetic daily records (see ``generate_full`` for truth)."""
    return generate_full(config)[0]


def write_truth_csv(path, config: GenConfig, truth: GroundTruth) -> None:
    """Columns: date, trend, weekday_effect, covariate_effect, noise, <covariate...>."""
    names = sorted(truth.covariate_series)
    columns = (truth.trend, truth.weekday, truth.covariate_effect, truth.noise,
               *(truth.covariate_series[name] for name in names))
    write_table(path, ["date", "trend", "weekday_effect", "covariate_effect", "noise", *names],
                ([(config.start_date + dt.timedelta(days=t)).isoformat(), *map(number, values)]
                 for t, values in enumerate(zip(*columns))))
