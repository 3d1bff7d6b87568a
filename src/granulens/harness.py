"""Evaluation of externally trained model runs against an information table.

Runs arrive as CSV files (``object_index,predicted[,granule]``); the model
is never trained in-process. The model-induced partition comes from the
granule column when present, otherwise from grouping equal predictions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, UniverseMismatchError
from .reader import convert_cells, decode_text, line_of, read_columns, read_typed
from .table import InformationTable, Partition
from .entropy import granular_entropy

_DIRECTIVE = re.compile(r"#\s*run_id=(\S+)(?:\s+meta=(.*))?\s*$")


@dataclass(frozen=True)
class ModelRun:
    run_id: str
    predicted: list
    granule: list | None = None
    meta: str = ""


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
    header = ["object_index", "predicted", "granule"]
    header = header[:3 if text.startswith(",".join(header)) else 2]
    typed = read_typed(text, header, ["i8", "O", "O"][:len(header)])
    header, cells, blanks, ragged = ((header, typed, [], None) if typed is not None
                                     else read_columns(text, skipped))
    if header is None:
        raise DataError("empty run file")
    header = [h.strip() for h in header]
    if header[:2] != ["object_index", "predicted"]:
        raise DataError("run header must start with object_index,predicted")
    extra = header[3:] if header[2:3] == ["granule"] else header[2:]
    if extra:
        raise DataError(f"unexpected run column {extra[0]!r}: "
                        "the header is object_index,predicted[,granule]")

    n = table.n
    values, bad = (cells[0], None) if typed is not None else convert_cells(int, cells[0])
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
    predicted, *granule = [np.asarray(col, dtype=object)[row_of].tolist() for col in cells[1:]]
    return ModelRun(run_id, predicted, *granule, meta=meta)


def evaluate_run(table: InformationTable, run: ModelRun) -> EvalReport:
    """Accuracy plus entropy/rough-set metrics on the model-induced partition."""
    n = table.n
    if len(run.predicted) != n or (run.granule is not None and len(run.granule) != n):
        raise UniverseMismatchError("run does not cover the table's universe")
    truth = table.decision_labels
    correct = sum(1 for p, t in zip(run.predicted, truth) if str(p) == str(t))

    if run.granule is not None:
        part = Partition.from_labels(run.granule)
        fallback = False
    else:
        part = Partition.from_labels(run.predicted)
        fallback = True
    report = granular_entropy(part, table.decision_codes)
    bf = report.boundary_fraction
    return EvalReport(run.run_id, correct / n, report.conditional_bits,
                      float(bf), float(1 - bf), part.block_count, fallback)


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
