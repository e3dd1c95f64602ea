"""The one CSV writer and row reader of every table artifact: RFC 4180 with
``\\r\\n`` line ends, floats as their shortest ``repr``, an empty cell for missing."""

import csv

from .errors import SchemaError

__all__ = ["number", "write_table", "read_rows"]


def number(value) -> str:
    """A float cell: the shortest ``repr`` of ``value``, empty for ``None``."""
    return "" if value is None else repr(float(value))


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
