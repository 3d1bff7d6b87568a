"""Fixed reference task that the benchmark times next to every command.

Usage: python3 bench/reference.py THREADS CSV_FILE [CSV_FILE...]

It does the same kinds of work as a granulens command, with the
benchmark's own code: start an interpreter and import numpy, parse the
first rows of each CSV file into floats with the ``csv`` module, then fold
the bin codes of the first file's columns into row blocks and count
(block, class) cells at a dozen bit levels on a pool of THREADS threads,
the number the command computes on. It never imports
granulens, so a change to the program cannot move its time, while a change
in the host's speed moves it as it moves the command's.
"""

from __future__ import annotations

import csv
import io
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

import numpy as np

ROWS = 12000  # rows parsed per file
COLUMNS = 6  # columns of the first file folded into blocks
BLOCK_ROWS = 50000  # its parsed rows, repeated to this many, are folded
LEVELS = range(12)


def parse(path: str) -> tuple[list[np.ndarray], np.ndarray]:
    """(columns as floats, class codes of the last column) of the first ROWS rows.

    Empty cells become NaN; a column that is not numeric is replaced by the
    codes of its distinct values.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(io.StringIO(fh.read()))
        next(reader)
        rows = list(islice(reader, ROWS))
    cols = list(zip(*rows))
    numeric = []
    for col in cols[:-1]:
        try:
            numeric.append(np.array([float(v) if v else np.nan for v in col]))
        except ValueError:
            numeric.append(np.unique(col, return_inverse=True)[1].astype(np.float64))
    labels = np.unique(cols[-1], return_inverse=True)[1]
    return numeric, labels


def level(numeric: list[np.ndarray], labels: np.ndarray, bits: int) -> int:
    """Number of non-empty (block, class) cells at one bit level."""
    block = np.zeros(len(labels), dtype=np.int64)
    for col in numeric:
        ok = ~np.isnan(col)
        lo, hi = col[ok].min(), col[ok].max()
        scaled = np.where(ok, (col - lo) / max(hi - lo, 1e-300), 1.0 + 2.0 ** -bits)
        codes = np.floor(scaled * (1 << bits)).astype(np.int64)
        block = np.unique(block * ((1 << bits) + 2) + codes, return_inverse=True)[1].ravel()
    return int(np.count_nonzero(np.bincount(block * (labels.max() + 1) + labels)))


def main(argv: list[str]) -> int:
    threads, paths = int(argv[0]), argv[1:]
    numeric, labels = [parse(path) for path in paths][0]
    reps = -(-BLOCK_ROWS // len(labels))
    numeric = [np.tile(col, reps)[:BLOCK_ROWS] for col in numeric[:COLUMNS]]
    labels = np.tile(labels, reps)[:BLOCK_ROWS]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        print(sum(pool.map(lambda b: level(numeric, labels, b), LEVELS)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
