"""Columnar CSV reading shared by the table and model-run loaders.

Records are transposed into one list of raw cells per column, and each
column is then converted with one call per cell, in C. Neither step loops
over rows or cells in Python.
"""

from __future__ import annotations

import csv
import io
import warnings
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from .errors import DataError

#: Records transposed per step of read_columns. A chunk's row lists stay
#: below CPython's generation-0 threshold of 700 allocations and are freed
#: before the next chunk is read, so a collection rarely finds them alive.
#: Row lists that survive collections are promoted, and enough promoted
#: objects set off full-heap (generation-2) collections: loading eight
#: 50k-row runs took 7 of them and 1.8x the time with 4096-record chunks,
#: and 9 and 2.2x with every record kept alive.
_CHUNK = 256


def decode_text(data: bytes | str) -> str:
    """Decode CSV bytes as UTF-8, dropping a leading byte-order mark."""
    try:
        return data.decode("utf-8-sig") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not valid UTF-8: {exc}") from None


def read_columns(text: str, skipped: int = 0) -> tuple[
        list[str] | None, list[list[str]], list[int], tuple[int, int] | None]:
    """Read CSV text into its header and one list of cells per column.

    ``\\r``, ``\\n`` and ``\\r\\n`` end records. Lines count records (a quoted
    cell may span several), the header being line 1 + ``skipped``. Blank
    records are skipped, and reading stops at the first record whose cell
    count differs from the header's. Returns the header (None for text
    without records), the columns, the blank records' lines, and (line, cell
    count) of that ragged record or None. A DataError names the line of a
    record the csv module rejects (a field over its size limit, say).
    """
    records = csv.reader(io.StringIO(text, newline=""))
    line, chunk = 1 + skipped, []  # chunk[0]'s line; extend keeps what it read before a raise
    try:
        header = next(records, None)
        width = len(header or ())
        columns: list[list[str]] = [[] for _ in range(width)]
        blanks: list[int] = []
        line += 1
        while chunk.extend(islice(records, _CHUNK)) or chunk:
            start, line = line, line + len(chunk)
            ragged = None
            if set(map(len, chunk)) != {width}:
                rows = []
                for lineno, row in enumerate(chunk, start=start):
                    if not row:
                        blanks.append(lineno)
                    elif len(row) != width:
                        ragged = (lineno, len(row))
                        break
                    else:
                        rows.append(row)
                chunk = rows
            for column, cells in zip(columns, zip(*chunk)):
                column.extend(cells)
            if ragged is not None:
                return header, columns, blanks, ragged
            chunk = []
    except csv.Error as exc:
        raise DataError(f"unreadable CSV record at line {line + len(chunk)}: {exc}") from None
    return header, columns, blanks, None


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


def _blank_filled(text: str, blank: str | None) -> str | None:
    """``text`` with ``blank`` in every empty field if given, or None if a field
    may exceed the csv module's limit: a field lies between two commas (or an end)."""
    raw = text.encode("utf-8", "surrogatepass")
    data = np.frombuffer(raw, dtype=np.uint8)
    commas = np.flatnonzero(data == ord(","))
    gaps = np.diff(commas, prepend=-1, append=len(data))
    if gaps.max() > csv.field_size_limit() + 1:
        return None
    if blank is None:
        return text
    # an empty field follows a comma and ends at a comma, line end or the end, or starts a line
    before, after = data.take(commas - 1, mode="clip"), data.take(commas + 1, mode="clip")
    at = np.sort(np.concatenate([
        commas[(gaps[1:] == 1) | (after == ord("\n")) | (after == ord("\r"))] + 1,
        commas[(before == ord("\n")) | (before == ord("\r"))]])).tolist()
    if not at:
        return text
    edges = zip([0] + at, at + [len(raw)])
    return blank.encode().join(raw[i:j] for i, j in edges).decode("utf-8", "surrogatepass")


def read_typed(text: str, header: list[str], kinds: list[str],
               blank: str | None = None) -> list[np.ndarray] | None:
    """Columns of CSV ``text``, one per dtype in ``kinds``, read by numpy's C parser.

    ``header`` is the text's first line split at commas. Returns None where
    the parser might not read the text as read_columns and int()/float() do,
    which then also name the line of an error: a ``"`` anywhere (quoted
    fields are the csv module's), an empty first line, NUL or U+001C-U+001F
    anywhere, a cell the parser rejects, no data record, or a field that may
    exceed the csv module's limit. Given ``blank``, the text is read with it
    in every empty field, and a text that already holds it returns None.
    """
    line = ",".join(header)
    # Python 3.10's csv rejects NUL; numpy skips U+001C-U+001F as spaces, int() does
    # not. Searching blank[0] first is a memchr, and blank's first character is rare
    if (not line or '"' in text or not text.startswith(line)
            or text[len(line):len(line) + 1] not in ("\r", "\n")
            or any(c in text for c in "\x00\x1c\x1d\x1e\x1f")
            or blank is not None and blank[0] in text and blank in text):
        return None
    text = _blank_filled(text, blank)
    if text is None:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data", deprecations
            rows = np.loadtxt(io.StringIO(text, newline=""), dtype=",".join(kinds) + ",",
                              delimiter=",", comments=None, skiprows=1, ndmin=1)
    except (ValueError, TypeError, Warning):
        return None
    return [rows[name] for name in rows.dtype.names]
