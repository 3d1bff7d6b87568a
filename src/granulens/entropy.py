"""Shannon, joint, and conditional entropy; granule-wise entropy reports.

Entropy is measured in bits (log base 2) with the 0*log(0) = 0 convention.
H(D|P) is the correctly rounded sum (math.fsum) of its per-block terms,
so it does not depend on block numbering, summation order or threads.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, UniverseMismatchError
from .table import Partition
from .rough import _label_matrix, _mixed, region_fractions


@dataclass(frozen=True)
class Distribution:
    """Category counts defining a discrete probability distribution."""

    counts: dict

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @classmethod
    def from_tokens(cls, tokens: Iterable) -> "Distribution":
        return cls(dict(Counter(tokens)))


def shannon(dist: Distribution) -> float:
    """H = -sum p_i log2 p_i over the distribution's support."""
    total = dist.total
    if total <= 0:
        raise DataError("cannot take entropy of an empty distribution")
    if any(c < 0 for c in dist.counts.values()):
        raise DataError("negative count in distribution")
    counts = [c for c in dist.counts.values() if c > 0]
    _, h = _block_entropies(np.asarray([counts], dtype=np.int64))
    return max(0.0, float(h[0]))  # one class: +0.0, not the -0.0 of -1 * log2(1)


def joint(labels_x: Sequence, labels_y: Sequence) -> float:
    """Joint entropy H(X, Y) of two token vectors over the same universe."""
    if len(labels_x) != len(labels_y):
        raise UniverseMismatchError(
            f"length mismatch: {len(labels_x)} vs {len(labels_y)}")
    return shannon(Distribution.from_tokens(zip(labels_x, labels_y)))


def _block_entropies(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(block sizes, per-block decision entropy) of a (block x class) count matrix."""
    sizes = counts.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / sizes[:, None]
        terms = np.where(counts > 0, -p * np.log2(p), 0.0)
    return sizes, terms.sum(axis=1)


def _conditional_bits(counts: np.ndarray, n: int) -> float:
    """H(D | P): math.fsum of (|B|/|U|) * H(D in B) over the mixed blocks (pure ones add 0)."""
    sizes, block_h = _block_entropies(counts[_mixed(counts)])
    return math.fsum((sizes / n * block_h).tolist())


def conditional(labels: Sequence, given: Partition) -> float:
    """H(labels | partition) = sum over blocks of (|B|/|U|) * H(labels in B)."""
    return _conditional_bits(_label_matrix(given, labels), given.n)


@dataclass(frozen=True)
class GranularEntropyReport:
    conditional_bits: float
    boundary_fraction: Fraction
    class_count: int
    normalized_conditional: float
    counts: np.ndarray = field(repr=False, compare=False)  # (block x class) counts

    @cached_property
    def per_block(self) -> list:
        """(block id, weight |B|/|U|, block entropy in bits) per block, built on first read."""
        sizes, block_h = _block_entropies(self.counts)
        return list(zip(range(len(sizes)), (sizes / sizes.sum()).tolist(), block_h.tolist()))

    def __eq__(self, other):  # per_block takes part: block numbering matters
        key = lambda r: (r.per_block, r.conditional_bits, r.boundary_fraction,
                         r.class_count, r.normalized_conditional)
        return isinstance(other, GranularEntropyReport) and key(self) == key(other)


def granular_entropy(partition: Partition, decision_labels: Sequence) -> GranularEntropyReport:
    """Per-granule decision entropy with its boundary-region counterpart.

    conditional_bits is bounded by boundary_fraction * log2(k): pure blocks
    contribute nothing and each mixed block at most log2(k). Both vanish
    together, which ties the entropy channel to the boundary region.
    """
    counts = _label_matrix(partition, decision_labels)
    counts.flags.writeable = False  # per_block is built from it on first read
    k = counts.shape[1]
    conditional_bits = _conditional_bits(counts, partition.n)
    _, boundary_fraction = region_fractions(partition, decision_labels)
    normalized = conditional_bits / math.log2(k) if k >= 2 else 0.0
    return GranularEntropyReport(conditional_bits, boundary_fraction, k, normalized, counts)
