"""``table.write_days`` joins its rows itself: its bytes are those of ``csv.writer``."""

import csv
import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bloodbank import forecast, table

MONDAY = dt.date(2010, 1, 4)


def reference_days(path, header, dates, columns, missing):
    """The daily table as ``csv.writer`` writes it: ISO dates, float ``repr``s, ``missing``
    for NaN, one row per date while every column has a value."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for day, *values in zip(dates, *columns):
            writer.writerow([day.isoformat(),
                             *(missing if math.isnan(v) else repr(float(v)) for v in values)])


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300,
           -1e300, 1e16, 3.0, -42.0]
# header names, some of which csv must quote
NAMES = ["demand", "a,b", 'say "hi"', "two\nlines", "cr\r", " padded ", "", "\u00e9"]


@st.composite
def daily_tables(draw):
    """A header, a start day near either end of the calendar or an ordinary one, and up to
    three columns of cells: special values, whole floats and any float64 bit pattern
    (NaN payloads, subnormals and infinities among them)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, width = draw(st.integers(0, 8)), draw(st.integers(1, 3))
    low = draw(st.sampled_from([dt.date.min, MONDAY, dt.date.max - dt.timedelta(days=40)]))
    start = low + dt.timedelta(days=int(rng.integers(0, 41 - n)))
    kind = rng.integers(0, 3, size=(width, n))
    columns = np.where(kind == 0, rng.choice(SPECIAL, size=(width, n)),
                       np.where(kind == 1, rng.integers(-10**6, 10**6, size=(width, n)),
                                rng.integers(0, 2**64, size=(width, n), dtype=np.uint64)
                                .view(np.float64)))
    return ["date", *rng.choice(NAMES, size=width).tolist()], start, list(columns)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("days")


@given(daily_tables(), st.sampled_from(["nan", ""]), st.sampled_from([1, 3, table.BLOCK]),
       st.booleans())
def test_write_days_is_csv_writer_byte_for_byte(out, drawn, missing, block, listed):
    """From a start day or from each row's date, in blocks of any size."""
    header, start, columns = drawn
    dates = [start + dt.timedelta(days=i) for i in range(len(columns[0]))]
    table.write_days(out / "joined.csv", header, dates if listed else start, columns,
                     missing=missing, block=block)
    reference_days(out / "reference.csv", header, dates, columns, missing)
    assert (out / "joined.csv").read_bytes() == (out / "reference.csv").read_bytes()


def test_forecast_csv_keeps_the_report_dates(tmp_path):
    # dates out of order, repeated and years apart are written as given
    dates = [dt.date(2020, 3, 1), dt.date(2019, 1, 1), dt.date(2019, 1, 1), dt.date(1, 1, 1),
             dt.date(9999, 12, 31)]
    actual = np.array([1.0, math.nan, -0.0, 2.5, 1e300])
    predicted = np.array([0.1, 2.0, math.inf, -3.0, 5e-324])
    forecast.write_forecast_csv(tmp_path / "report.csv",
                                forecast.ForecastReport(dates, actual, predicted))
    reference_days(tmp_path / "reference.csv", ["date", "actual", "predicted"], dates,
                   [actual, predicted], "nan")
    assert (tmp_path / "report.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert (tmp_path / "report.csv").read_bytes().splitlines()[1:3] == [
        b"2020-03-01,1.0,0.1", b"2019-01-01,nan,2.0"]


def test_empty_forecast_report_writes_only_the_header(tmp_path):
    forecast.write_forecast_csv(tmp_path / "report.csv",
                                forecast.ForecastReport([], np.empty(0), np.empty(0)))
    assert (tmp_path / "report.csv").read_bytes() == b"date,actual,predicted\r\n"
