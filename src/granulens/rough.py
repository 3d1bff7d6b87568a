"""Lower/upper approximations, boundary regions, and dependency degrees.

All set cardinalities, gamma, and boundary fractions use exact integer or
rational arithmetic; floats appear only in entropy values elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import UniverseMismatchError, DataError
from .table import Partition, factorize


@dataclass(frozen=True)
class ConceptSet:
    """A target concept X as a subset of the universe 0..n-1."""

    members: frozenset[int]
    universe_size: int
    label: object = None

    def __post_init__(self):
        if self.members and not all(0 <= i < self.universe_size for i in self.members):
            raise DataError("concept members outside the universe")


@dataclass(frozen=True)
class RoughApproximation:
    lower: frozenset[int]
    upper: frozenset[int]
    boundary: frozenset[int]
    accuracy_alpha: Fraction
    label: object = None


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
    mask = np.zeros(partition.n, dtype=bool)
    if concept.members:
        mask[list(concept.members)] = True
    hits = np.bincount(partition.block_of, weights=mask, minlength=partition.block_count)
    return _approximation(partition.block_of, hits.astype(np.int64),
                          partition.block_sizes(), concept.label)


def _approximation(block_of: np.ndarray, hits: np.ndarray, sizes: np.ndarray,
                   label) -> RoughApproximation:
    """Approximation of the concept that ``hits[b]`` objects of each block b belong to.

    A block is in the lower approximation when all its objects are hits
    (never for an empty concept: every object's block has size > 0) and in
    the upper one when any is.
    """
    lower = frozenset(np.flatnonzero((hits == sizes)[block_of]).tolist())
    upper = frozenset(np.flatnonzero((hits > 0)[block_of]).tolist())
    alpha = Fraction(len(lower), len(upper)) if upper else Fraction(1)
    return RoughApproximation(lower, upper, upper - lower, alpha, label=label)


def _label_matrix(partition: Partition, labels: Sequence) -> np.ndarray:
    """Per-(block, class) count matrix; classes are columns in first-occurrence order."""
    if len(labels) != partition.n:
        raise UniverseMismatchError(
            f"{len(labels)} labels for a universe of {partition.n}")
    if partition.n == 0:
        raise DataError("empty label set")
    codes = factorize(labels)
    return _class_counts(partition.block_of, partition.block_count, codes, int(codes.max()) + 1)


def _class_counts(keys: np.ndarray, key_count: int, codes: np.ndarray, k: int) -> np.ndarray:
    """(key x class) count matrix; a key below ``key_count`` no object has is a zero row."""
    return np.bincount(keys * k + codes, minlength=key_count * k).reshape(key_count, k)


def _mixed(counts: np.ndarray) -> np.ndarray:
    """Mask of the blocks whose (block x class) count row holds two or more classes."""
    by_class = counts.T.copy()  # max and sum over classes run ~10x faster in this layout
    return by_class.max(axis=0) < by_class.sum(axis=0)


def _positive_count(counts: np.ndarray) -> int:
    """|POS|: the objects in blocks whose count row holds a single class."""
    return int(counts.sum() - counts[_mixed(counts)].sum())


def region_fractions(partition: Partition, labels: Sequence) -> tuple[Fraction, Fraction]:
    """(gamma, boundary_fraction) without materializing the region sets."""
    pos = _positive_count(_label_matrix(partition, labels))
    n = partition.n
    return Fraction(pos, n), Fraction(n - pos, n)


def regions(partition: Partition, decision_labels: Sequence) -> RegionReport:
    """Three-region decomposition of U for a total decision.

    The positive region unions all per-class lower approximations; the
    overall boundary is exactly the set of objects in blocks holding two or
    more distinct classes. gamma + boundary_fraction = 1 in exact arithmetic.
    """
    counts = _label_matrix(partition, decision_labels)
    classes = list(dict.fromkeys(decision_labels))
    sizes = counts.sum(axis=1)
    universe = frozenset(range(partition.n))

    per_class: dict = {}
    negative_by_class: dict = {}
    for j, cls in enumerate(classes):
        per_class[cls] = _approximation(partition.block_of, counts[:, j], sizes, cls)
        negative_by_class[cls] = universe - per_class[cls].upper

    positive = frozenset().union(*(a.lower for a in per_class.values()))
    boundary_overall = frozenset().union(*(a.boundary for a in per_class.values()))
    n = partition.n
    return RegionReport(per_class, positive, boundary_overall, negative_by_class,
                        gamma=Fraction(len(positive), n),
                        boundary_fraction=Fraction(len(boundary_overall), n))


def dependency(partition: Partition, decision_labels: Sequence) -> Fraction:
    """Dependency degree gamma = |POS| / |U|."""
    gamma, _ = region_fractions(partition, decision_labels)
    return gamma
