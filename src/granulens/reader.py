"""Columnar CSV reading shared by the table and model-run loaders.

Both loaders read the UTF-8 bytes ``encoded`` makes of their input. ``scan``
finds every field of such bytes in the plain grammar, where the csv module
reads each field as the raw bytes between two separators. ``read_columns``,
the csv path, decodes them, slices each column out of one flat list of cells
and composes every error; both loaders fall back to it for any other text.
"""

from __future__ import annotations

import csv
import io
from typing import Callable, Sequence

import numpy as np

from .errors import DataError


def encoded(data: bytes | str) -> bytes:
    """CSV input as UTF-8 bytes: a ``str`` as it is, bytes checked and without a BOM."""
    if isinstance(data, str):
        return data.encode("utf-8", "surrogatepass")
    try:  # ASCII bytes cannot hold a BOM, so they are not copied
        return data if data.isascii() else data.decode("utf-8-sig").encode()
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not valid UTF-8: {exc}") from None


def scan(body: bytes) -> tuple[
        list[str], np.ndarray, Callable[[int], tuple[np.ndarray, np.ndarray]]] | None:
    """The header, the bytes and the records after the header of ``body``, or None
    unless it is in the plain grammar: as many fields per record as the header, at
    least 2 (with one, a blank line would read as an empty field); at least one
    record after the header; each record ended by LF, CRLF or (the last) the end of
    the text; no ``"``; no byte below 0x20 but a line end; no field, the header's
    included, with more bytes than the csv module's limit.

    Returns the header's fields, ``body`` as uint8, ended by an LF and with each CR
    read as an LF, so all fields of a column end on one byte, and ``bounds``: the
    start and end offsets of field ``c`` of every record after the header are
    ``bounds(c)``, computed on each call."""
    width = body[:body.find(b"\n")].count(b",") + 1
    if width < 2 or b'"' in body:
        return None
    body = body if body.endswith(b"\n") else body + b"\n"  # a new object: += extends a bytearray
    data = np.frombuffer(body, dtype=np.uint8)
    seps = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    if len(seps) % width or len(seps) < 2 * width:
        return None
    seps = seps.reshape(-1, width)
    crs = np.flatnonzero(data == ord("\r"))
    # every line end an LF, and every other byte below 0x20 a CR before an LF: so
    # the LFs are the line ends and every other separator is a comma
    if ((data[seps[:, -1]] != ord("\n")).any() or (data[crs + 1] != ord("\n")).any()
            or np.count_nonzero(data < 0x20) != len(seps) + len(crs)):
        return None
    last = seps[:, -1] - (data[seps[:, -1] - 1] == ord("\r"))  # a CRLF's CR ends the field
    names = body[:last[0]].split(b",")  # commas are ASCII: no UTF-8 sequence spans one
    if len(crs):
        data = data.copy()
        data[crs] = ord("\n")

    def bounds(c: int) -> tuple[np.ndarray, np.ndarray]:
        start = (seps[1:, c - 1] if c else seps[:-1, -1]) + 1
        return start, seps[1:, c] if c < width - 1 else last[1:]

    limit = csv.field_size_limit()
    if max(map(len, names)) > limit or any(
            int((end - start).max()) > limit for start, end in map(bounds, range(width))):
        return None
    return [name.decode("utf-8", "surrogatepass") for name in names], data, bounds


def read_columns(body: bytes, skipped: int = 0) -> tuple[
        list[str] | None, list[list[str]], list[int], tuple[int, int] | None]:
    """Read CSV bytes (see ``encoded``) into its header and one list of cells per column.

    ``\\r``, ``\\n`` and ``\\r\\n`` end records. Lines count records (a quoted
    cell may span several), the header being line 1 + ``skipped``. Blank
    records are skipped, and reading stops at the first record whose cell
    count differs from the header's. Returns the header (None for text
    without records), the columns, the blank records' lines, and (line, cell
    count) of that ragged record or None. A DataError names the line of a
    record the csv module rejects (a field over its size limit, say).
    """
    records = csv.reader(io.StringIO(body.decode("utf-8", "surrogatepass"), newline=""))
    line = skipped  # the line of the last record read; a csv.Error stops on the next
    cells: list[str] = []  # every record's cells, one record after another
    blanks, ragged = [], None
    try:
        header, line = next(records, None), line + 1
        width = len(header or ())
        for row in records:  # each row list is freed when the next is read
            line += 1
            if len(row) == width:
                cells += row
            elif not row:
                blanks.append(line)
            else:
                ragged = (line, len(row))
                break
    except csv.Error as exc:
        raise DataError(f"unreadable CSV record at line {line + 1}: {exc}") from None
    del records  # and the decoded text, 4 bytes a character in the StringIO
    return header, [cells[c::width] for c in range(width)], blanks, ragged


def line_of(row: int, blanks: list[int], skipped: int = 0) -> int:
    """Line of data row ``row`` (0-based) given the lines of the blank records."""
    line = row + 2 + skipped
    for blank in blanks:
        if blank > line:
            break
        line += 1
    return line


def convert_cells(convert: Callable, cells: Sequence, missing: tuple = (),
                  fill=None) -> tuple[list, int | None]:
    """Apply ``convert`` (``float``, ``int``) once to each cell.

    A cell that ``convert`` rejects and that is in ``missing`` becomes
    ``fill``. Returns the converted values and the index of the first
    rejected cell not in ``missing``, or None; the values stop there.
    """
    out: list = []
    rest = iter(cells)
    while True:
        try:
            out.extend(map(convert, rest))  # keeps the values before a raise
            return out, None
        except (TypeError, ValueError):
            if cells[len(out)] not in missing:
                return out, len(out)
            out.append(fill)
