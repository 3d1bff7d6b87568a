"""Evaluation of externally trained model runs against an information table.

Runs arrive as CSV files (``object_index,predicted[,granule]``); the model
is never trained in-process. The model-induced partition comes from the
granule column when present, otherwise from grouping equal predictions.

A run in the plain shape that CSV writers emit for such files (see
``_read_run``) is read from the positions of its separator bytes, its tokens
coded by ``table.refine`` on their bytes; any other run goes to
``reader.read_columns``, the csv path, which also composes every error.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DataError, UniverseMismatchError
from .reader import convert_cells, decode_text, line_of, read_columns
from .table import _DENSE, InformationTable, Partition, _coded, _first_rows, factorize, refine
from .entropy import granular_entropy

_DIRECTIVE = re.compile(r"#\s*run_id=(\S+)(?:\s+meta=(.*))?\s*$")
#: the header line _read_run takes; group 1 is the granule column
_HEADER = re.compile(r"object_index,predicted(,granule)?\r?\n")
#: each byte's digit value, 10 for a non-digit, 0 for the LF before a record
_DIGITS = np.full(256, 10, dtype=np.uint8)
_DIGITS[ord("0"):ord("9") + 1] = np.arange(10)
_DIGITS[ord("\n")] = 0
_DIGITS.flags.writeable = False


@dataclass(frozen=True)
class ModelRun:
    """Per object, a model's prediction and optionally its granule. The lists are coded
    once (by ``load_run`` or on first evaluation), so later in-place changes to them are
    not seen: use ``dataclasses.replace``. Accuracy is ``str`` equality with the label."""

    run_id: str
    predicted: list
    granule: list | None = None
    meta: str = ""

    @cached_property
    def _codes(self) -> tuple[list, np.ndarray, np.ndarray]:
        """(distinct ``str`` of the predictions, each object's index in them, its block)."""
        texts, codes = _coded(list(map(str, self.predicted)))
        return texts, codes, factorize(self.predicted if self.granule is None else self.granule)


@dataclass(frozen=True)
class EvalReport:
    run_id: str
    accuracy: float
    model_conditional_bits: float
    model_boundary_fraction: float
    model_gamma: float
    block_count: int
    used_fallback_partition: bool


@dataclass(frozen=True)
class RankedRun:
    run_id: str
    accuracy: float
    boundary_fraction: float
    conditional_bits: float
    block_count: int
    candidate: bool


@dataclass(frozen=True)
class ComparisonVerdict:
    ranked: list[RankedRun]
    selected: str
    tolerance_used: float


def _read_run(body: bytes, width: int) -> tuple[np.ndarray, list[tuple[list, np.ndarray]]] | None:
    """object_index values, and the distinct tokens and their codes per token column,
    of a run's records in file order; ``body`` is the UTF-8 after the header line.

    Returns None unless the records are in the plain shape, where csv and int()
    read the fields as raw bytes between separators: ``width`` fields per record,
    each record ended by LF or CRLF; no ``"``; no byte below 0x20 but a line end;
    object_index of 1-18 ASCII digits; no field longer than the csv module's
    limit; and a widest token no wider than the rows, and times the rows at
    most ``_DENSE`` times the bytes. Tokens are coded byte position by
    position, so the last two bound the number and the work of those passes.
    """
    if not body.endswith(b"\n") or b'"' in body:
        return None
    data = np.frombuffer(body, dtype=np.uint8)
    seps = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    if len(seps) % width:
        return None
    seps = seps.reshape(-1, width)
    rows = len(seps)
    crs = np.flatnonzero(data == ord("\r"))
    # every line end an LF, and every other byte below 0x20 a CR before an LF: so
    # the LFs are the line ends and every other separator is a comma
    if ((data[seps[:, -1]] != ord("\n")).any() or (data[crs + 1] != ord("\n")).any()
            or np.count_nonzero(data < 0x20) != rows + len(crs)):
        return None
    index = _digits(data, np.concatenate(([-1], seps[:-1, -1])), seps[:, 0])
    last = seps[:, -1] - (data[seps[:, -1] - 1] == ord("\r"))  # a CRLF's CR ends the field
    # token column c runs from after seps[:, c] to ends[c]
    ends = [seps[:, c] for c in range(1, width - 1)] + [last]
    widest = max(int((end - seps[:, c]).max()) - 1 for c, end in enumerate(ends))
    # coding makes widest passes of rows tokens each
    if (index is None or widest > csv.field_size_limit()
            or widest * rows > _DENSE * len(body) or widest > rows):
        return None
    clean = data.copy()  # separators and line ends read as 0, which no token holds
    clean[seps] = 0
    clean[crs] = 0

    def byte_columns(start, end):
        for j in range(widest):
            yield clean[np.minimum(start + j, end)]

    coded = []
    for c, end in enumerate(ends):
        start = seps[:, c] + 1
        codes = refine(Partition.single_block(rows), byte_columns(start, end)).block_of
        first = _first_rows(codes)
        coded.append(([body[i:k].decode("utf-8", "surrogatepass") for i, k in
                       zip(start[first].tolist(), end[first].tolist())], codes))
    return index, coded


def _digits(data: np.ndarray, lfs: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """Values of the fields that run from after ``lfs`` (the LF before each; -1,
    the LF that ends ``data``, for the first) to ``ends``, or None unless each is
    1-18 ASCII digits within the csv module's limit."""
    lengths = ends - lfs - 1
    top = int(lengths.max())
    if lengths.min() < 1 or top > min(18, csv.field_size_limit()):
        return None
    index = np.zeros(len(ends), dtype=np.int64)
    for j in range(top, 0, -1):  # right-aligned; the LF before a field reads as a leading 0
        digit = _DIGITS.take(data.take(np.maximum(ends - j, lfs)))
        if digit.max() > 9:
            return None
        index *= 10
        index += digit
    return index


def load_run(csv_data: bytes | str, table: InformationTable,
             run_id: str = "run") -> ModelRun:
    """Parse a model-run CSV and validate it covers the table's universe.

    An optional first line ``# run_id=<text> meta=<text>`` overrides the
    run id. The header is ``object_index,predicted[,granule]``.
    object_index values must be exactly 0..n-1 in any order. An error
    names the first faulty row in file order.
    """
    meta, skipped = "", 0  # skipped: lines before the header
    text = decode_text(csv_data)
    first = re.match(r"[^\r\n]*(?:\r\n?|\n)?", text).group()  # splitlines breaks at U+2028
    if first.lstrip().startswith("#"):
        m = _DIRECTIVE.match(first.strip())
        if m:
            run_id = m.group(1)
            meta = (m.group(2) or "").strip()
        text, skipped = text[len(first):], 1
    line = _HEADER.match(text)
    read = _read_run(text[line.end():].encode("utf-8", "surrogatepass"),
                     3 if line[1] else 2) if line else None
    if read is not None:
        values, coded = read
        bad = ragged = None
    else:
        header, cells, blanks, ragged = read_columns(text, skipped)
        if header is None:
            raise DataError("empty run file")
        header = [h.strip() for h in header]
        if header[:2] != ["object_index", "predicted"]:
            raise DataError("run header must start with object_index,predicted")
        extra = header[3:] if header[2:3] == ["granule"] else header[2:]
        if extra:
            raise DataError(f"unexpected run column {extra[0]!r}: "
                            "the header is object_index,predicted[,granule]")
        values, bad = convert_cells(int, cells[0])
        coded = map(_coded, cells[1:])  # once the rows are valid

    n = table.n
    try:
        index = np.array(values, dtype=np.int64)
    except OverflowError:  # beyond int64, so out of range
        index = np.array([v if 0 <= v < n else -1 for v in values], dtype=np.int64)
    outside = np.flatnonzero((index < 0) | (index >= n))
    valid = int(outside[0]) if len(outside) else len(index)
    if np.bincount(index[:valid], minlength=n).max() > 1:
        _, first = np.unique(index[:valid], return_index=True)
        repeat = np.ones(valid, dtype=bool)
        repeat[first] = False
        raise DataError(f"duplicate object_index {index[repeat.argmax()]}")
    if valid < len(index):
        raise DataError(f"object_index {values[valid]} out of range 0..{n - 1}")
    if bad is not None:
        raise DataError(f"non-integer object_index {cells[0][bad]!r} "
                        f"at line {line_of(bad, blanks, skipped)}")
    if ragged is not None:
        raise DataError(f"ragged run row at line {ragged[0]}")
    if len(index) != n:
        raise DataError(f"run row count {len(index)} != universe size {n}")
    row_of = np.empty(n, dtype=np.int64)
    row_of[index] = np.arange(n)
    coded = [(distinct, codes[row_of]) for distinct, codes in coded]  # file order
    run = ModelRun(run_id, *[np.asarray(d, dtype=object)[c].tolist() for d, c in coded], meta=meta)
    run.__dict__["_codes"] = (*coded[0], coded[-1][1])  # the tokens are their own str
    return run


def evaluate_run(table: InformationTable, run: ModelRun) -> EvalReport:
    """Accuracy plus entropy/rough-set metrics on the model-induced partition."""
    n = table.n
    if len(run.predicted) != n or (run.granule is not None and len(run.granule) != n):
        raise UniverseMismatchError("run does not cover the table's universe")
    texts, predicted, blocks = run._codes
    truth, text_id = table._decision_texts
    hit = np.array([text_id.get(text, -1) for text in texts], dtype=np.int64)
    correct = np.count_nonzero(hit[predicted] == truth)

    part = Partition.from_labels(blocks)
    report = granular_entropy(part, table.decision_codes)
    bf = report.boundary_fraction
    return EvalReport(run.run_id, correct / n, report.conditional_bits,
                      float(bf), float(1 - bf), part.block_count, run.granule is None)


def compare_runs(reports: Sequence[EvalReport], tolerance: float = 0.005,
                 rank_by: str = "boundary-first") -> ComparisonVerdict:
    """Deterministic hyperparameter verdict over evaluated runs.

    Runs within ``tolerance`` of the best accuracy form the candidate band;
    candidates rank by (boundary_fraction, conditional_bits, block_count,
    run_id) ascending, or entropy before boundary with
    rank_by="entropy-first". Non-candidates follow, best accuracy first.
    """
    if not reports:
        raise DataError("no reports to compare")
    if rank_by not in ("boundary-first", "entropy-first"):
        raise DataError(f"unknown rank_by {rank_by!r}")
    if not math.isfinite(tolerance) or tolerance < 0:
        raise DataError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    best_acc = max(r.accuracy for r in reports)

    def cand_key(r: EvalReport):
        metrics = ((r.model_boundary_fraction, r.model_conditional_bits)
                   if rank_by == "boundary-first"
                   else (r.model_conditional_bits, r.model_boundary_fraction))
        return (*metrics, r.block_count, r.run_id)

    candidates = sorted((r for r in reports if r.accuracy >= best_acc - tolerance),
                        key=cand_key)
    others = sorted((r for r in reports if r.accuracy < best_acc - tolerance),
                    key=lambda r: (-r.accuracy, r.run_id))
    ranked = [RankedRun(r.run_id, r.accuracy, r.model_boundary_fraction,
                        r.model_conditional_bits, r.block_count, in_band)
              for group, in_band in ((candidates, True), (others, False))
              for r in group]
    return ComparisonVerdict(ranked, candidates[0].run_id, tolerance)
