"""``forecast.Dataset``: the CSV round trip and the sequence of days.

The property draws datasets with 0 to 5 features (one name that must be
quoted), missing cells, ``-0.0``, ``1e-300`` and values near the largest
float, and reads and writes them in blocks of 1, 3 and the module's own size,
so that a block boundary falls anywhere.
"""

import datetime as dt
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bloodbank import forecast
from bloodbank.errors import ParameterError
from bloodbank.forecast import DailyRecord, Dataset, read_dataset_csv, write_dataset_csv

NAMED = 'lab "x", day 7'  # a feature name that must be quoted
NAMES = ["a", "prev_week_demand", NAMED, "dow_mon", "date", "é"]
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


@given(datasets(), st.sampled_from([1, 3, forecast._BLOCK]))
def test_csv_reads_back_equal_and_writes_the_same_bytes(out_file, data, block):
    with mock.patch.object(forecast, "_BLOCK", block):
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
