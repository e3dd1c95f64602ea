"""The one CSV writer and row reader of every table artifact: RFC 4180 with
``\\r\\n`` line ends, floats as their shortest ``repr``, an empty cell for missing.

Headers and the rows of ``write_table`` go through ``csv``, which quotes a cell
that holds a comma, a quote or a line break.  ``write_days`` joins its rows
itself, cells with ``","`` and lines ended with ``"\\r\\n"``: each of its cells
is an ISO date, a float ``repr`` (digits, sign, ``.``, ``e``, ``inf`` or
``nan``) or the missing marker, and none of these ever holds a character that
needs quoting, so the bytes are those ``csv`` would write.
"""

import csv
import datetime as dt

import numpy as np

from .errors import SchemaError

__all__ = ["number", "iso_days", "write_days", "write_table", "read_rows"]

BLOCK = 1024  # rows of a daily table formatted or parsed at a time: bounds the strings held
_EPOCH = dt.date(1970, 1, 1).toordinal()  # day 0 of numpy's datetime64


def number(value) -> str:
    """A float cell: the shortest ``repr`` of ``value``, empty for ``None``."""
    return "" if value is None else repr(float(value))


def iso_days(first: int, stop: int) -> list[str]:
    """ISO dates of the day ordinals ``first`` up to ``stop``, as ``datetime64[D]`` strings."""
    return np.arange(first - _EPOCH, stop - _EPOCH).astype("datetime64[D]").astype(str).tolist()


def write_days(path, header: list[str], days, columns, missing: str = "nan",
               block: int = BLOCK) -> None:
    """One row a day: its date, then each column's value as ``number`` writes it
    (``missing``, which needs no quoting, for NaN), formatted a column and ``block``
    rows at a time.

    ``days`` is the first day of consecutive rows, or each row's date.  There are
    as many rows as the shortest of the dates and the columns.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    if isinstance(days, dt.date):
        first = days.toordinal() - _EPOCH
        days = np.arange(first, first + len(columns[0]))
    else:
        days = np.fromiter(map(dt.date.toordinal, days), dtype=np.int64) - _EPOCH
    rows = min([len(days), *map(len, columns)])
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(header)
        for lo in range(0, rows, block):
            hi = min(lo + block, rows)
            cells = zip(days[lo:hi].astype("datetime64[D]").astype(str).tolist(), *(
                [missing if cell == "nan" else cell for cell in map(repr, column[lo:hi].tolist())]
                for column in columns))
            handle.write("\r\n".join(map(",".join, cells)) + "\r\n")


def write_table(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def read_rows(path):
    """Yield the header (``None`` for an empty file), then ``(row_number, cells)`` row
    by row; a row whose length differs from the header's raises ``SchemaError``."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        yield header
        for row_number, cells in enumerate(reader, start=2):
            if len(cells) != len(header):
                raise SchemaError(f"{path}: row {row_number}: expected {len(header)} columns, "
                                  f"got {len(cells)}")
            yield row_number, cells
