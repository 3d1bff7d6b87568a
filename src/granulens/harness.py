"""Evaluation of externally trained model runs against an information table.

Runs arrive as CSV files (``object_index,predicted[,granule]``); the model
is never trained in-process. The model-induced partition comes from the
granule column when present, otherwise from grouping equal predictions.

A run in ``reader.scan``'s grammar, each object_index 1-18 ASCII digits, is
read from its fields' bytes, its tokens coded by ``table.code_fields``; any
other run goes to ``reader.read_columns``, the csv path. Both then share one
copy of the header checks and of the object_index checks.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DataError, UniverseMismatchError
from .reader import convert_cells, encoded, line_of, read_columns, scan
from .table import InformationTable, Partition, _coded, _listed, code_fields, factorize
from .entropy import granular_entropy

_DIRECTIVE = re.compile(r"#\s*run_id=(\S+)(?:\s+meta=(.*))?\s*$")


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


def _digits(data: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """Values of the fields ``data[start:end]``, each the first of its record, or
    None unless each is 1-18 ASCII digits."""
    lengths = end - start
    top = int(lengths.max())
    if lengths.min() < 1 or top > 18:
        return None
    index = np.zeros(len(end), dtype=np.int64)
    for j in range(top, 0, -1):  # right-aligned; a position before a field reads as a 0
        at = end - j
        digit = np.where(at < start, 0, data.take(np.maximum(at, 0)) - np.uint8(ord("0")))
        if digit.max() > 9:  # a byte below "0" wraps around above 9
            return None
        index *= 10
        index += digit
    return index


def load_run(csv_data: bytes | str, table: InformationTable,
             run_id: str = "run") -> ModelRun:
    """Parse a model-run CSV and validate it covers the table's universe.

    An optional first line ``# run_id=<text> meta=<text>``, the one line
    decoded unless the csv path reads the run, overrides the run id. The
    header is ``object_index,predicted[,granule]``. object_index values must
    be exactly 0..n-1 in any order. An error names the first faulty row in
    file order.
    """
    meta, skipped = "", 0  # skipped: lines before the header
    body = encoded(csv_data)
    first = re.match(rb"[^\r\n]*(?:\r\n?|\n)?", body).group()  # no other byte ends a line
    directive = first.decode("utf-8", "surrogatepass")
    if directive.lstrip().startswith("#"):
        m = _DIRECTIVE.match(directive.strip())
        if m:
            run_id = m.group(1)
            meta = (m.group(2) or "").strip()
        body, skipped = body[len(first):], 1
    scanned = scan(body)
    values = None
    if scanned is not None:
        header, data, bounds = scanned
        values = _digits(data, *bounds(0))
    if values is not None:  # else the csv path reads the run: code no field for it
        coded = [code_fields(data, *bounds(c)) for c in range(1, len(header))]
        bad = ragged = None
    if values is None or None in coded:
        header, cells, blanks, ragged = read_columns(body, skipped)
        if header is None:
            raise DataError("empty run file")
        values, bad = convert_cells(int, cells[0] if cells else [])  # no cells: a blank first line
        coded = map(_coded, cells[1:])  # once the rows are valid
    header = [h.strip() for h in header]
    if header[:2] != ["object_index", "predicted"]:
        raise DataError("run header must start with object_index,predicted")
    extra = header[3:] if header[2:3] == ["granule"] else header[2:]
    if extra:
        raise DataError(f"unexpected run column {extra[0]!r}: "
                        "the header is object_index,predicted[,granule]")

    n = table.n
    try:
        index = np.asarray(values, dtype=np.int64)
    except OverflowError:  # beyond int64, so out of range
        index = np.array([v if 0 <= v < n else -1 for v in values], dtype=np.int64)
    outside = np.flatnonzero((index < 0) | (index >= n))
    valid = int(outside[0]) if len(outside) else len(index)
    if np.bincount(index[:valid], minlength=n).max() > 1:
        _, first = np.unique(index[:valid], return_index=True)
        raise DataError(f"duplicate object_index {index[np.setdiff1d(np.arange(valid), first)[0]]}")
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
    run = ModelRun(run_id, *[_listed(*pair) for pair in coded], meta=meta)
    run.__dict__["_codes"] = (*coded[0], coded[-1][1])  # the tokens are their own str
    return run


def evaluate_run(table: InformationTable, run: ModelRun) -> EvalReport:
    """Accuracy plus entropy/rough-set metrics on the model-induced partition."""
    n = table.n
    if len(run.predicted) != n or (run.granule is not None and len(run.granule) != n):
        raise UniverseMismatchError("run does not cover the table's universe")
    texts, predicted, blocks = run._codes
    own = table.decision in table._cells  # equal cells may differ in str: score each row's own
    labels, truth = (table.decision_labels, slice(None)) if own else table._columns[table.decision]
    text_id = dict(zip(texts, range(len(texts))))
    hit = np.array([text_id.get(str(label), -1) for label in labels], dtype=np.int64)
    correct = np.count_nonzero(hit[truth] == predicted)  # the str of its label is predicted

    part = Partition(blocks)  # dense codes: the metrics do not depend on the block order
    report = granular_entropy(part, table.decision_codes)
    bf = report.boundary_fraction
    return EvalReport(run.run_id, correct / n, report.conditional_bits,
                      float(bf), float(1 - bf), part.block_count, run.granule is None)


def compare_runs(reports: Sequence[EvalReport], tolerance: float = 0.005,
                 rank_by: str = "boundary-first") -> ComparisonVerdict:
    """Deterministic hyperparameter verdict over evaluated runs.

    Runs within ``tolerance`` of the best accuracy form the candidate band;
    candidates rank by (boundary_fraction, conditional_bits, block_count,
    run_id, -accuracy) ascending, or entropy before boundary with
    rank_by="entropy-first". Non-candidates follow by (-accuracy, run_id,
    the same metrics, block_count). Each key holds every ranked field, so
    runs that tie on it print alike and argument order cannot show.
    """
    if not reports:
        raise DataError("no reports to compare")
    if rank_by not in ("boundary-first", "entropy-first"):
        raise DataError(f"unknown rank_by {rank_by!r}")
    if not math.isfinite(tolerance) or tolerance < 0:
        raise DataError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    band = max(r.accuracy for r in reports) - tolerance

    def key(r: EvalReport):  # False sorts first, so the band's runs lead
        metrics = ((r.model_boundary_fraction, r.model_conditional_bits)
                   if rank_by == "boundary-first"
                   else (r.model_conditional_bits, r.model_boundary_fraction))
        if r.accuracy < band:
            return (True, -r.accuracy, r.run_id, *metrics, r.block_count)
        return (False, *metrics, r.block_count, r.run_id, -r.accuracy)

    ranked = [RankedRun(r.run_id, r.accuracy, r.model_boundary_fraction,
                        r.model_conditional_bits, r.block_count, bool(r.accuracy >= band))
              for r in sorted(reports, key=key)]
    return ComparisonVerdict(ranked, ranked[0].run_id, tolerance)
