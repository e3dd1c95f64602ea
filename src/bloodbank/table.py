"""The one CSV writer and reader of every table artifact: RFC 4180 with
``\\r\\n`` line ends, floats as their shortest ``repr``, an empty cell for missing.

Headers and the rows of ``write_table`` go through ``csv``, which quotes a cell
that holds a comma, a quote or a line break.  ``write_days`` joins its rows
itself, cells with ``","`` and lines ended with ``"\\r\\n"``: each of its cells
is an ISO date, a float ``repr`` (digits, sign, ``.``, ``e``, ``inf`` or
``nan``) or the missing marker, and none of these ever holds a character that
needs quoting, so the bytes are those ``csv`` would write.

``read_days`` is the one reader of a daily table, which runs one row a day:
``_whole`` parses a file it takes as is with a single ``np.loadtxt`` call, and
any other file is checked row by row, which names the first bad cell in file
order.  Both paths read a number cell only of the bytes of ``_NUMBER_BYTES``.
Every file is written and read as UTF-8; ``read_text`` names a byte that is not.
"""

import csv
import datetime as dt
import math

import numpy as np

from .errors import SchemaError

__all__ = ["number", "iso_days", "write_days", "write_table", "read_text", "read_rows",
           "read_days"]

BLOCK = 1024  # rows of a daily table formatted at a time: bounds the strings held
_EPOCH = dt.date(1970, 1, 1).toordinal()  # day 0 of numpy's datetime64
_NUMBER_BYTES = b"0123456789.eE+-"  # every byte of a number cell either path reads
_NUMBER_ROWS = _NUMBER_BYTES + b",\r\n"  # every byte of rows _whole parses


def number(value) -> str:
    """A float cell: the shortest ``repr`` of ``value``, empty for ``None``."""
    return "" if value is None else repr(float(value))


def iso_days(days: np.ndarray) -> str:
    """ISO dates of numpy's day numbers ``days``, joined by commas, from ``S10`` bytes."""
    return b",".join(days.astype("datetime64[D]").astype("S10").tolist()).decode()


def write_days(path, header: list[str], start: dt.date, columns, missing: str = "nan") -> None:
    """One row a day from ``start``: its date, then each column's value as ``number``
    writes it (``missing``, which needs no quoting, for NaN), formatted a column and
    ``BLOCK`` rows at a time.  There are as many rows as the shortest column has values.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    first = start.toordinal() - _EPOCH
    days = np.arange(first, first + min(map(len, columns)))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(header)
        for lo in range(0, len(days), BLOCK):
            hi = min(lo + BLOCK, len(days))
            cells = zip(iso_days(days[lo:hi]).split(","), *(
                [missing if cell == "nan" else cell for cell in map(repr, column[lo:hi].tolist())]
                for column in columns))
            handle.write("\r\n".join(map(",".join, cells)) + "\r\n")


def write_table(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def read_text(path) -> str:
    """The file's text, decoded as UTF-8; SchemaError naming the file and its first byte
    that is not UTF-8 otherwise."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: byte {exc.start} is not UTF-8 text: {exc.reason}") from None


def read_rows(path):
    """Yield the header (``None`` for an empty file), then ``(row_number, cells)`` row
    by row, streamed; a row whose length differs from the header's, or a file that is
    not UTF-8, raises ``SchemaError``."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            yield header
            for row_number, cells in enumerate(reader, start=2):
                if len(cells) != len(header):
                    raise SchemaError(f"{path}: row {row_number}: expected {len(header)} "
                                      f"columns, got {len(cells)}")
                yield row_number, cells
        except UnicodeDecodeError:
            read_text(path)  # names the bad byte's offset in the file, not in a chunk
            raise


def _whole(path, filled: int):
    """``(header, first day, values)`` of a daily table whose cells need no quoting,
    parsed whole, or None.

    Each row ends with ``\\r\\n`` or ``\\n``, has the header's cell count and starts
    with the ISO string of the day after the one above.  ``values`` holds the other
    (rows, columns - 1) cells, parsed by one ``np.loadtxt`` call.  Their bytes are
    digits, signs, ``.`` and exponents only, so ``nan``, ``inf``, ``1_0`` or a
    non-ASCII digit is never read, and an overflow to infinity is refused.  An empty
    cell reads as NaN, except in the first ``filled`` columns.  Anything else, a
    blank row or no row at all among it, returns None; a file that is not UTF-8
    raises as ``read_text`` does.
    """
    text = read_text(path)
    newline = "\r\n" if "\r" in text else "\n"
    head, _, body = text.partition(newline)
    header = head.split(",")
    if ('"' in head or not head.isprintable() or len(header) < 2
            or body.encode().translate(None, _NUMBER_ROWS)):  # a byte outside those of numbers
        return None
    if ",," in body or f",{newline}" in body or body.endswith(","):  # an empty cell
        body = body.replace(",,", ",nan,").replace(",,", ",nan,")  # every other, then the rest
        body = body.replace(f",{newline}", f",nan{newline}") + ("nan" if body.endswith(",") else "")
    rows = body.split(newline)
    if newline == "\r\n" and not body.count("\r") == body.count("\n") == len(rows) - 1:
        return None  # a lone \r or \n among \r\n line ends
    if rows[-1] == "":
        rows.pop()  # the last line end
    if not rows or body.count(",") != len(rows) * (len(header) - 1):
        return None
    date_cells = [row.partition(",")[0] for row in rows]  # a blank row's is empty
    try:
        start = dt.date.fromisoformat(date_cells[0])
        first = start.toordinal()
        last = min(first + len(rows), dt.date.max.toordinal() + 1)
        if ",".join(date_cells) != iso_days(np.arange(first, last) - _EPOCH):
            return None
        values = np.loadtxt(rows, delimiter=",", comments=None, usecols=range(1, len(header)),
                            ndmin=2)
    except ValueError:
        return None
    if np.isinf(values).any() or np.isnan(values[:, :filled]).any():
        return None
    return header, start, values


def _number(cell: str, text: str, filled: bool) -> float:
    """The finite number ``text``, of the bytes ``_whole`` reads, NaN if it is empty unless
    ``filled``; SchemaError led by ``cell``, which names the file, row and column, otherwise."""
    if not (text or filled):
        return math.nan
    try:
        value = float(text)
        if math.isfinite(value) and text.encode().translate(None, _NUMBER_BYTES):
            raise ValueError(text)  # float() also takes `1_0`, ` 5` and other scripts' digits
    except ValueError:
        raise SchemaError(f"{cell}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise SchemaError(f"{cell}: not finite: {text!r}")
    return value


def read_days(path, heading, filled: int):
    """``(heading(path, header), first day, values)`` of a daily table: a date, then
    number cells, one row a day with no gap.

    ``heading`` checks the header (None for an empty file) before any row, as it
    is the first line, and returns what the caller keeps of it.  ``values`` holds
    the (rows, columns - 1) number cells, each finite; an empty one reads as NaN,
    except in the first ``filled`` columns.  A header with no rows gives None as
    the first day.  A file that is not UTF-8 text raises before its header is
    checked.  ``_whole`` parses the file where it takes it; otherwise each row is
    checked in turn, and ``SchemaError`` names the first bad cell in file order: a
    date that is not the day after the one above among them, or a number cell that
    holds a byte ``_whole`` would not read.
    """
    whole = _whole(path, filled)
    if whole is not None:
        header, start, values = whole
        return heading(path, header), start, values
    rows = read_rows(path)
    header = next(rows)
    kept = heading(path, header)
    start = prev = None
    values = []
    for row_number, row in rows:
        at = f"{path}: row {row_number}, column"
        try:
            day = dt.date.fromisoformat(row[0])
        except ValueError as exc:
            raise SchemaError(f"{at} {header[0]}: {exc}") from exc
        if prev is not None and (day - prev).days != 1:
            raise SchemaError(f"{at} {header[0]}: {day} does not follow {prev}; "
                              f"dates must be contiguous")
        values.append([_number(f"{at} {name}", text, j < filled)
                       for j, (name, text) in enumerate(zip(header[1:], row[1:]))])
        start, prev = start or day, day
    return kept, start, np.array(values, dtype=float).reshape(len(values), len(header) - 1)
