"""Every (block x class) count, and the approximations, regions and dependency read off it.

All set cardinalities, gamma, and boundary fractions use exact integer or
rational arithmetic; floats appear only in entropy values elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import UniverseMismatchError, DataError
from .table import _DENSE, Partition, _coded, factorize, refine


@dataclass(frozen=True)
class ConceptSet:
    """A target concept X as a subset of the universe 0..n-1."""

    members: frozenset[int]
    universe_size: int

    def __post_init__(self):
        if self.members and not all(0 <= i < self.universe_size for i in self.members):
            raise DataError("concept members outside the universe")


@dataclass(frozen=True)
class RoughApproximation:
    lower: frozenset[int]
    upper: frozenset[int]
    boundary: frozenset[int]
    accuracy_alpha: Fraction


@dataclass(frozen=True)
class RegionReport:
    per_class: dict
    positive: frozenset[int]
    boundary_overall: frozenset[int]
    negative_by_class: dict
    gamma: Fraction
    boundary_fraction: Fraction


def approximate(partition: Partition, concept: ConceptSet) -> RoughApproximation:
    """Lower and upper approximation of a concept under a partition.

    lower = union of blocks fully inside the concept, upper = union of
    blocks intersecting it, boundary = upper minus lower. alpha is
    |lower|/|upper|, defined as 1 when the upper approximation is empty.
    """
    if partition.n != concept.universe_size:
        raise UniverseMismatchError(
            f"partition universe {partition.n} != concept universe {concept.universe_size}")
    member = np.zeros(partition.n, dtype=np.int64)
    member[list(concept.members)] = 1
    counts = _class_counts(partition.block_of, partition.block_count, member, 2)
    return _approximation(partition.block_of, counts[:, 1], counts.sum(axis=1))


def _approximation(block_of: np.ndarray, hits: np.ndarray,
                   sizes: np.ndarray) -> RoughApproximation:
    """Approximation of the concept that ``hits[b]`` objects of each block b belong to.

    A block is in the lower approximation when all its objects are hits
    (never for an empty concept: every object's block has size > 0) and in
    the upper one when any is.
    """
    lower, upper = _objects(hits == sizes, block_of), _objects(hits > 0, block_of)
    alpha = Fraction(len(lower), len(upper)) if upper else Fraction(1)
    return RoughApproximation(lower, upper, upper - lower, alpha)


def _objects(in_block: np.ndarray, block_of: np.ndarray) -> frozenset:
    """The objects whose block is marked in ``in_block``: every region set is read this way."""
    return frozenset(np.flatnonzero(in_block[block_of]).tolist())


def _checked(partition: Partition, labels: Sequence) -> Sequence:
    """``labels``, once their length is known to be the partition's nonempty universe."""
    if len(labels) != partition.n:
        raise UniverseMismatchError(f"{len(labels)} labels for a universe of {partition.n}")
    if partition.n == 0:
        raise DataError("empty label set")
    return labels


def _label_matrix(partition: Partition, labels: Sequence) -> np.ndarray:
    """Per-(block, class) count matrix; classes are columns in first-occurrence order."""
    codes = factorize(_checked(partition, labels))
    return _class_counts(partition.block_of, partition.block_count, codes, int(codes.max()) + 1)


def _class_counts(keys: np.ndarray, key_count: int, codes: np.ndarray, k: int) -> np.ndarray:
    """(key x class) count matrix; a key below ``key_count`` no object has is a zero row."""
    return np.bincount(keys * k + codes, minlength=key_count * k).reshape(key_count, k)


def _counts_by(part: Partition, col: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(block x class) counts of ``part`` split by ``col``, one row per key ``block * w + code``;
    where those rows would pass ``_DENSE * n``, the blocks of ``part`` refined by ``col``."""
    w = int(col.max()) + 1
    if part.block_count * w * k > _DENSE * part.n:  # so count rows stay O(n)
        part, col, w = refine(part, [col]), 0, 1
    return _class_counts(part.block_of * w + col, part.block_count * w, labels, k)


def _mixed(counts: np.ndarray) -> np.ndarray:
    """Mask of the blocks whose (block x class) count row holds two or more classes."""
    by_class = counts.T.copy()  # max and sum over classes run ~10x faster in this layout
    return by_class.max(axis=0) < by_class.sum(axis=0)


def region_fractions(counts: np.ndarray) -> tuple[Fraction, Fraction]:
    """(gamma, boundary_fraction) of a (block x class) count matrix, without the region sets."""
    n, mixed = int(counts.sum()), int(counts[_mixed(counts)].sum())
    return Fraction(n - mixed, n), Fraction(mixed, n)


def regions(partition: Partition, decision_labels: Sequence) -> RegionReport:
    """Three-region decomposition of U for a total decision.

    Every set is the objects of the blocks marked in the one (block x class)
    count: the positive region holds the single-class blocks, the overall
    boundary the mixed ones, and a class's negative region the blocks with
    none of it. gamma + boundary_fraction = 1 in exact arithmetic.
    """
    classes, codes = _coded(_checked(partition, decision_labels))  # JSON keys follow this order
    counts = _class_counts(partition.block_of, partition.block_count, codes, len(classes))
    sizes, mixed, block_of = counts.sum(axis=1), _mixed(counts), partition.block_of
    per_class = {cls: _approximation(block_of, counts[:, j], sizes)
                 for j, cls in enumerate(classes)}
    negative_by_class = {cls: _objects(counts[:, j] == 0, block_of)
                         for j, cls in enumerate(classes)}
    return RegionReport(per_class, _objects(~mixed, block_of), _objects(mixed, block_of),
                        negative_by_class, *region_fractions(counts))


def dependency(partition: Partition, decision_labels: Sequence) -> Fraction:
    """Dependency degree gamma = |POS| / |U|."""
    return region_fractions(_label_matrix(partition, decision_labels))[0]
