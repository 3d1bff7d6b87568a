"""Granularity sweeps: entropy and boundary trajectories over bit levels.

Each level b applies 2**b equal-width bins to every numeric attribute in
the swept subset; refinement guarantees both channels are non-increasing
as b grows. Once every object sits in its own block further levels repeat,
so the sweep stops early and flags the curve as saturated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .table import (InformationTable, GranulationScheme, Partition, discretize,
                    partition_by, refine)
from .entropy import granular_entropy

MAX_BITS = 24
_RISE = 1e-9  # a rise this small between levels is rounding, not a monotonicity violation


@dataclass(frozen=True)
class SweepPoint:
    bits_level: int
    block_count: int
    conditional_bits: float
    normalized_conditional: float
    boundary_fraction: float
    gamma: float


@dataclass(frozen=True)
class SweepCurve:
    points: list[SweepPoint]
    attrs: tuple[str, ...]
    table_id: str = ""
    saturated: bool = False

    def level_where_boundary_below(self, threshold: float) -> int | None:
        """First bits level whose boundary fraction is <= threshold, if any."""
        return next((p.bits_level for p in self.points if p.boundary_fraction <= threshold), None)


@dataclass(frozen=True)
class ConvergenceSummary:
    monotonicity_violations: int
    terminal_entropy: float
    terminal_boundary: float


def _point_at(partition: Partition, decision_codes: np.ndarray, bits: int) -> SweepPoint:
    report = granular_entropy(partition, decision_codes)
    boundary = report.boundary_fraction
    return SweepPoint(bits, partition.block_count, report.conditional_bits,
                      report.normalized_conditional, float(boundary), float(1 - boundary))


def sweep(table: InformationTable, attrs: Sequence[str],
          bits_from: int, bits_to: int, threads: int = 1) -> SweepCurve:
    """Evaluate one SweepPoint per bits level in [bits_from, bits_to].

    The table is discretized once, at ``bits_to``; bins are nested, so a
    numeric code at level b is the top code shifted right by
    ``bits_to - b`` (the missing bin 2**bits_to lands on 2**b). Each level
    refines the partition of the level before by the bit it adds. The
    sweep stops at the first level whose blocks are all single objects,
    computes no later level, and marks the curve saturated. ``threads`` is
    accepted for compatibility and has no effect.
    """
    if not (0 <= bits_from <= bits_to <= MAX_BITS):
        raise DataError(f"invalid bits range {bits_from}..{bits_to} "
                        f"(need 0 <= from <= to <= {MAX_BITS})")
    if table.decision in attrs:
        raise DataError("cannot sweep over the decision attribute")
    numeric = GranulationScheme.uniform(table, bits_to, attrs)  # checks every name
    top = discretize(table, numeric)
    top_codes = [top.codes_for(a.name) for a in table.attributes if a.name in numeric.bits]

    # The first level takes whole codes (at most 2**bits_from, the missing
    # bin); every later level adds one bit.
    part, mask = partition_by(top, [a for a in attrs if a not in numeric.bits]), -1
    points: list[SweepPoint] = []
    for b in range(bits_from, bits_to + 1):
        part = refine(part, [(c >> (bits_to - b)) & mask for c in top_codes])
        mask = 1
        points.append(_point_at(part, table.decision_codes, b))
        if part.block_count == table.n:
            break
    return SweepCurve(points, tuple(attrs), table_id=table.table_id,
                      saturated=part.block_count == table.n)


def convergence_summary(curve: SweepCurve) -> ConvergenceSummary:
    """Count monotonicity violations and report terminal values of a curve."""
    if not curve.points:
        raise DataError("empty curve")
    violations = 0
    for prev, cur in zip(curve.points, curve.points[1:]):
        if (cur.conditional_bits > prev.conditional_bits + _RISE
                or cur.boundary_fraction > prev.boundary_fraction + _RISE):
            violations += 1
    last = curve.points[-1]
    return ConvergenceSummary(violations, last.conditional_bits, last.boundary_fraction)
