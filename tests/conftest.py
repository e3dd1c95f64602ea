import csv
import datetime as dt

import numpy as np
import pytest
from hypothesis import settings

from bloodbank.datagen import CovariateSpec, GenConfig, generate_full
from bloodbank.forecast import demand_series
from bloodbank.timeseries import StlConfig, stl_decompose

# property tests draw the same examples on every run and keep the suite fast
settings.register_profile("bloodbank", derandomize=True, deadline=None, max_examples=100,
                          database=None)
settings.load_profile("bloodbank")
# a deeper, still reproducible run, chosen with --hypothesis-profile=bloodbank-deep
settings.register_profile("bloodbank-deep", parent=settings.get_profile("bloodbank"),
                          max_examples=1000)

MONDAY = dt.date(2010, 1, 4)


@pytest.fixture(scope="session")
def small_synthetic():
    """Five years of planted-signal data shared by the module-level suites."""
    config = GenConfig(
        n_days=1825,
        seed=77,
        noise_sd=8.0,
        covariates=(
            CovariateSpec(name="lab_lag7", effect_size=14.0, lag=7),
            CovariateSpec(name="lab_lag1", effect_size=9.0, lag=1),
        ),
    )
    return generate_full(config)


@pytest.fixture(scope="session")
def small_records(small_synthetic):
    return small_synthetic[0]


def make_series(n, period=7, seed=0, level=90.0, noise=1.0):
    rng = np.random.default_rng(seed)
    return level + noise * rng.normal(size=n)


def read_csv(path):
    """Header and data rows of a CSV file, every cell as written."""
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    return header, rows


def write_stream(path, values):
    """An order or demand stream file as ``simulate`` reads it."""
    path.write_text("period,units\n" + "".join(f"{i},{v}\n" for i, v in enumerate(values, 1)))


def v1_document(doc, data):
    """The version 1 document of the fit behind the version 2 ``doc``, as v1 wrote it.

    The training window of the dataset ``data`` is decomposed again under the
    document's own settings, and the decomposition takes the projection's place.
    """
    first, last = ((dt.date.fromisoformat(doc[key]) - data.start).days
                   for key in ("train_start", "train_end"))
    dec = stl_decompose(demand_series(data[first:last + 1], doc["period"]),
                        StlConfig(**doc["stl_config"]))
    v1 = {}
    for key, value in doc.items():  # in order, the decomposition in the projection's place
        if key == "projection":
            v1["decomposition"] = {name: getattr(dec, name).tolist()
                                   for name in ("trend", "seasonal", "residual")}
        else:
            v1[key] = 1 if key == "version" else value
    return v1
