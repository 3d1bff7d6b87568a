"""Shannon, joint, and conditional entropy; granule-wise entropy reports.

Entropy is measured in bits (log base 2) with the 0*log(0) = 0 convention.
Per-block terms are accumulated in block-id order so results are
deterministic regardless of any parallel evaluation upstream.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, UniverseMismatchError
from .table import Partition
from .rough import _label_matrix, region_fractions


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


def _entropy_of_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return float(max(h, 0.0))


def shannon(dist: Distribution) -> float:
    """H = -sum p_i log2 p_i over the distribution's support."""
    total = dist.total
    if total <= 0:
        raise DataError("cannot take entropy of an empty distribution")
    if any(c < 0 for c in dist.counts.values()):
        raise DataError("negative count in distribution")
    return _entropy_of_counts(np.asarray(
        [c for c in dist.counts.values() if c > 0], dtype=np.int64))


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
    """H(D | P) = sum over blocks of (|B|/|U|) * H(D in B), from the count matrix."""
    sizes, block_h = _block_entropies(counts)
    return float(np.dot(sizes / n, block_h))


def conditional(labels: Sequence, given: Partition) -> float:
    """H(labels | partition) = sum over blocks of (|B|/|U|) * H(labels in B)."""
    return _conditional_bits(_label_matrix(given, labels), given.n)


@dataclass(frozen=True)
class GranularEntropyReport:
    per_block: list  # (block id, weight |B|/|U|, block entropy in bits)
    conditional_bits: float
    boundary_fraction: Fraction
    class_count: int
    normalized_conditional: float


def granular_entropy(partition: Partition, decision_labels: Sequence) -> GranularEntropyReport:
    """Per-granule decision entropy with its boundary-region counterpart.

    conditional_bits is bounded by boundary_fraction * log2(k): pure blocks
    contribute nothing and each mixed block at most log2(k). Both vanish
    together, which ties the entropy channel to the boundary region.
    """
    counts = _label_matrix(partition, decision_labels)
    sizes, block_h = _block_entropies(counts)
    k = counts.shape[1]
    weights = sizes / partition.n
    per_block = list(zip(range(partition.block_count), weights.tolist(), block_h.tolist()))
    conditional_bits = float(np.dot(weights, block_h))
    _, boundary_fraction = region_fractions(partition, decision_labels)
    normalized = conditional_bits / math.log2(k) if k >= 2 else 0.0
    return GranularEntropyReport(per_block, conditional_bits, boundary_fraction,
                                 k, normalized)
