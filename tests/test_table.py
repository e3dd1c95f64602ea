"""``table.write_days`` joins its rows itself: its bytes are those of ``csv.writer``.
And ``table.read_days`` reads a report one row a day, naming its first fault
whether it parses the file whole or row by row."""

import csv
import datetime as dt
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bloodbank import forecast, table
from bloodbank.errors import SchemaError

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


@pytest.mark.deep
@given(daily_tables(), st.sampled_from(["nan", ""]), st.sampled_from([1, 3, table.BLOCK]))
def test_write_days_is_csv_writer_byte_for_byte(out, drawn, missing, block):
    """From a start day, in blocks of any size."""
    header, start, columns = drawn
    dates = [start + dt.timedelta(days=i) for i in range(len(columns[0]))]
    with mock.patch.object(table, "BLOCK", block):
        table.write_days(out / "joined.csv", header, start, columns, missing=missing)
    reference_days(out / "reference.csv", header, dates, columns, missing)
    assert (out / "joined.csv").read_bytes() == (out / "reference.csv").read_bytes()


def report_file(path, days, cells):
    """A report of ``days`` (offsets from Monday), row ``i``'s actual and predicted
    ``cells[i]`` where given."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "actual", "predicted"])
        for i, day in enumerate(days):
            writer.writerow([(MONDAY + dt.timedelta(days=day)).isoformat(),
                             *cells.get(i, ("1.0", "2.5"))])


@pytest.fixture(params=["whole", "row by row"])
def reader(request):
    """``read_forecast_csv`` as it runs, or with the whole-file parse taking nothing."""
    if request.param == "whole":
        yield forecast.read_forecast_csv
    else:
        with mock.patch.object(table, "_whole", lambda path, filled: None):
            yield forecast.read_forecast_csv


GAP = "dates must be contiguous"


@pytest.mark.parametrize("days, cells, message", [
    # a day skipped, repeated or gone back
    ([0, 1, 3, 4], {}, f"row 4, column date: 2010-01-07 does not follow 2010-01-05; {GAP}"),
    ([0, 1, 1, 2], {}, f"row 4, column date: 2010-01-05 does not follow 2010-01-05; {GAP}"),
    ([5, 4], {}, f"row 3, column date: 2010-01-08 does not follow 2010-01-09; {GAP}"),
    # a gap above a bad cell, and bad cells above a gap
    ([0, 1, 3, 4], {3: ("many", "2.5")},
     f"row 4, column date: 2010-01-07 does not follow 2010-01-05; {GAP}"),
    ([0, 1, 2, 4], {1: ("1.0", "inf")}, "row 3, column predicted: not finite: 'inf'"),
    ([0, 1, 2, 4], {1: ("", "2.5")}, "row 3, column actual: not a number: ''"),
])
def test_report_names_its_first_fault_in_file_order(tmp_path, reader, days, cells, message):
    path = tmp_path / "report.csv"
    report_file(path, days, cells)
    with pytest.raises(SchemaError) as failure:
        reader(path)
    assert str(failure.value) == f"{path}: {message}"


@pytest.mark.parametrize("text", [
    "date,actual\r\n2010-01-04,1.0,2.5\r\n",  # a header that lost a cell
    "date,demand,prev_week_demand\r\n2010-01-04,1.0,\r\n",  # a dataset given as a report
    "",
])
def test_report_header_is_checked_before_its_rows(tmp_path, reader, text):
    path = tmp_path / "report.csv"
    path.write_text(text, newline="")
    with pytest.raises(SchemaError, match=f"^{path}: unexpected forecast header"):
        reader(path)


def test_empty_forecast_report_writes_only_the_header(tmp_path):
    forecast.write_forecast_csv(tmp_path / "report.csv",
                                forecast.ForecastReport(MONDAY, np.empty(0), np.empty(0)))
    assert (tmp_path / "report.csv").read_bytes() == b"date,actual,predicted\r\n"
    report = forecast.read_forecast_csv(tmp_path / "report.csv")
    assert report.start is None and report.dates == []
    assert report.actual.shape == report.predicted.shape == (0,)


def test_read_rows_streams_and_names_a_late_byte_that_is_not_utf8(tmp_path):
    # the file is streamed: rows ahead of the bad byte are yielded before the decoder
    # reaches it, and the error gives the byte's offset in the file, not in a chunk
    head = b"period,units\r\n" + b"".join(b"%d,1\r\n" % p for p in range(1, 100_001))
    path = tmp_path / "orders.csv"
    path.write_bytes(head + b"\xff\r\n")
    rows = table.read_rows(path)
    assert next(rows) == ["period", "units"] and next(rows) == (2, ["1", "1"])
    with pytest.raises(SchemaError, match=f"^{path}: byte {len(head)} is not UTF-8 text"):
        list(rows)
