"""Columnar CSV reading shared by the table and model-run loaders.

Records are transposed into one list of raw cells per column, and each
column is then converted with one call per cell, in C. Neither step loops
over rows or cells in Python.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterator, Sequence

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


def read_columns(records: Iterator[list[str]], width: int
                 ) -> tuple[list[list[str]], list[int], tuple[int, int] | None]:
    """Transpose CSV records (after the header) into one list of cells per column.

    Lines count records, the header being line 1. Blank records are
    skipped. Reading stops at the first record without ``width`` cells.
    Returns the columns, the lines of the skipped blank records, and
    (line, cell count) of that ragged record, or None.
    """
    columns: list[list[str]] = [[] for _ in range(width)]
    blanks: list[int] = []
    line = 2
    while chunk := list(islice(records, _CHUNK)):
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
            return columns, blanks, ragged
    return columns, blanks, None


def line_of(row: int, blanks: list[int]) -> int:
    """Line of data row ``row`` (0-based) given the lines of the blank records."""
    line = row + 2
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
