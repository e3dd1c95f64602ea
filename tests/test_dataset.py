"""``forecast.Dataset``: the CSV round trip, the sequence of days, and the whole-file
loader against the row-by-row reader.

The round-trip property draws datasets with 0 to 5 features (two names that
must be quoted), missing cells, ``-0.0``, ``1e-300`` and values near the largest
float, and writes them in blocks of 1, 3 and the module's own size, so that a
block boundary falls anywhere.  The loader property edits one written dataset
or report and reads it with ``table.read_days``'s whole-file parse and without it.
"""

import datetime as dt
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bloodbank import forecast, table
from bloodbank.errors import ParameterError
from bloodbank.forecast import DailyRecord, Dataset, read_dataset_csv, write_dataset_csv

# every test here runs again at 1,000 examples in the deep property run (-m deep)
pytestmark = pytest.mark.deep

NAMED = 'lab "x", day 7'  # a feature name that must be quoted
QUOTED = 'say "hi"'  # quoted too, with no comma for a plain split to stop at
NAMES = ["a", "prev_week_demand", NAMED, QUOTED, "dow_mon", "date", "é"]
LARGEST = 1.7976931348623157e308
SPECIAL = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1e308, -1e308, LARGEST, -LARGEST]

values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
cells = st.one_of(st.just(math.nan), values)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 12))
    names = draw(st.lists(st.sampled_from(NAMES), max_size=5, unique=True))
    low, high = 1, dt.date.max.toordinal() - n + 1
    start = draw(st.one_of(st.integers(low, low + 30), st.integers(high - 30, high),
                           st.integers(low, high)))
    demand = draw(st.lists(values, min_size=n, max_size=n))
    features = draw(st.lists(st.lists(cells, min_size=len(names), max_size=len(names)),
                             min_size=n, max_size=n))
    return Dataset(dt.date.fromordinal(start), demand,
                   np.array(features, dtype=float).reshape(n, len(names)), names)


def bits(values: np.ndarray) -> bytes:
    """The bytes of ``values`` with every NaN as 0.0, and where the NaNs are."""
    missing = np.isnan(values)
    return np.where(missing, 0.0, values).tobytes() + missing.tobytes()


@pytest.fixture(scope="module")
def out_file(tmp_path_factory):
    return tmp_path_factory.mktemp("dataset") / "dataset.csv"


@given(datasets(), st.sampled_from([1, 3, table.BLOCK]))
def test_csv_reads_back_equal_and_writes_the_same_bytes(out_file, data, block):
    with mock.patch.object(table, "BLOCK", block):
        write_dataset_csv(out_file, data)
        written = out_file.read_bytes()
        loaded = read_dataset_csv(out_file)
        write_dataset_csv(out_file, loaded)
    assert out_file.read_bytes() == written
    assert (loaded.start, loaded.feature_names) == (data.start, data.feature_names)
    assert loaded.demand.tobytes() == data.demand.tobytes()  # -0.0 stays -0.0
    assert loaded.features.shape == data.features.shape
    assert bits(loaded.features) == bits(data.features)


@given(datasets(), st.integers(-14, 14), st.integers(-14, 14))
def test_slices_and_rows_agree_with_a_row_by_row_rebuild(data, lo, hi):
    first = data.start.toordinal()
    rebuilt = [DailyRecord(dt.date.fromordinal(first + i), float(data.demand[i]),
                           {name: float(data.features[i, j])
                            for j, name in enumerate(data.feature_names)})
               for i in range(len(data))]
    # repr tells -0.0 from 0.0 and shows each row's feature order
    assert [repr(row) for row in data] == [repr(row) for row in rebuilt]
    assert [repr(data[i]) for i in range(-len(data), len(data))] == [repr(r) for r in
                                                                      rebuilt + rebuilt]
    part = data[lo:hi]
    assert [repr(row) for row in part] == [repr(row) for row in rebuilt[lo:hi]]
    assert len(part) == len(rebuilt[lo:hi])
    if part:
        assert part.start == rebuilt[lo:hi][0].date
        assert np.shares_memory(part.demand, data.demand)
    assert Dataset.from_records(rebuilt) == data
    assert data.dates() == [row.date for row in rebuilt]


def test_only_contiguous_slices_and_real_indices():
    data = Dataset(dt.date(2010, 1, 4), [1.0, 2.0, 3.0])
    assert data.features.shape == (3, 0) and data[1].features == {}
    with pytest.raises(ParameterError, match="step 1, got 2"):
        data[::2]
    with pytest.raises(IndexError):
        data[3]
    with pytest.raises(ParameterError, match=r"unique feature names, got \(1,\), \(1, 2\) "
                                             r"and \['a', 'a'\]"):
        Dataset(dt.date(2010, 1, 4), [1.0], [[1.0, 2.0]], ["a", "a"])
    with pytest.raises(ParameterError, match=r"\(n, 1\) features"):
        Dataset(dt.date(2010, 1, 4), [1.0], [[1.0, 2.0]], ["a"])


# one hostile edit of a written table: a number cell's text, or a change to a line
CELL_EDITS = ["nan", "inf", "-inf", "1e400", "-1e999", "1_0", "\u0661", "\uff11", '"1.5"', "",
              " 1.5"]
LINE_EDITS = ["blank line", "\n line end", "\r line end", "\r\r\n line end", "extra cell",
              "missing cell", "shifted date"]


@st.composite
def reports(draw):
    """A report as the writer takes it: one row a day from any first day."""
    n = draw(st.integers(1, 12))
    first = draw(st.integers(1, dt.date.max.toordinal() - n + 1))
    actual, predicted = (np.array(draw(st.lists(values, min_size=n, max_size=n)))
                         for _ in range(2))
    return forecast.ForecastReport(dt.date.fromordinal(first), actual, predicted)


def edited(raw: bytes, edit, where: int, lf: bool) -> bytes:
    """``raw`` with ``edit`` made at data row and number cell ``where`` (modulo their
    counts), or at line ``where`` for a blank line or a line end, the header's among
    them; and every other line end ``\\n`` where ``lf``."""
    lines = raw.decode().split("\r\n")[:-1]
    row = 1 + where % (len(lines) - 1)
    cells = lines[row].split(",")
    if edit in CELL_EDITS:
        cells[1 + where % (len(cells) - 1)] = edit
    elif edit == "extra cell":
        cells.append("1.0")
    elif edit == "missing cell":
        cells.pop()
    elif edit == "shifted date":
        day = dt.date.fromisoformat(cells[0])
        cells[0] = (day + dt.timedelta(days=1 if day < dt.date.max else -1)).isoformat()
    lines[row] = ",".join(cells)
    ends = ["\n" if lf else "\r\n"] * len(lines)
    if edit == "blank line":
        lines.insert(where % len(lines), "")
        ends.append(ends[0])
    elif edit is not None and edit.endswith("line end"):
        ends[where % len(lines)] = edit.removesuffix(" line end")
    return "".join(line + end for line, end in zip(lines, ends)).encode()


def outcome(read, path):
    """What ``read(path)`` returns, as bytes where it holds floats, or the class and
    message of what it raises."""
    try:
        got = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(got, Dataset):
        return (got.start, got.feature_names, got.demand.tobytes(), got.features.shape,
                got.features.tobytes())
    return got.dates, got.actual.tobytes(), got.predicted.tobytes()


EXAMPLES = [*(Dataset(dt.date(2010, 1, 4), [12.0, -0.0, 3.5],
                      [[0.1, math.nan], [1e-300, 2.0], [math.nan, -5e-324]], ["a", name])
              for name in ("é", QUOTED)),
            forecast.ForecastReport(dt.date(2010, 1, 4), np.array([7.0, -0.0, 1e300]),
                                    np.array([0.1, 5e-324, -2.5]))]


def with_each_edit(test):
    for edit in [None, *CELL_EDITS, *LINE_EDITS]:
        for drawn in EXAMPLES:
            test = example(drawn=drawn, edit=edit, where=4, lf=False)(test)
    return test


@with_each_edit
@given(st.one_of(datasets(), reports()), st.sampled_from([None, *CELL_EDITS, *LINE_EDITS]),
       st.integers(0, 10**6), st.booleans())
def test_loader_takes_only_what_the_row_reader_takes(out_file, drawn, edit, where, lf):
    """Equal bytes, or the same error, with the whole-file parse and with the row-by-row
    check alone; and the whole-file parse takes each table ``write_days`` writes, with
    ``\\r\\n`` or ``\\n`` line ends, unless its header is quoted."""
    if isinstance(drawn, Dataset):
        write_dataset_csv(out_file, drawn)
        read, filled = read_dataset_csv, 1
    else:
        forecast.write_forecast_csv(out_file, drawn)
        read, filled = forecast.read_forecast_csv, 2
    out_file.write_bytes(edited(out_file.read_bytes(), edit, where, lf))
    with mock.patch.object(table, "_whole", lambda path, filled: None):
        expected = outcome(read, out_file)
    assert outcome(read, out_file) == expected
    if edit is None:
        quoted = b'"' in out_file.read_bytes().splitlines()[0]
        assert (table._whole(out_file, filled) is None) == quoted
