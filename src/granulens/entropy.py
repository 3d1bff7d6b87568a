"""Shannon, joint, and conditional entropy; granule-wise entropy reports.

Entropy is measured in bits (log base 2) with the 0*log(0) = 0 convention.
H(D|P) is the correctly rounded sum (math.fsum) of its per-block terms, each summing its class
terms in ascending order, so block or class numbering, row order and threads cannot move it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, UniverseMismatchError
from .table import Partition
from .rough import _label_matrix, _mixed, region_fractions


def shannon(counts: Mapping) -> float:
    """H = -sum p_i log2 p_i over a mapping of category to count (a dict or a Counter).
    A count is an int or a numpy integer: 0.5, NaN and inf are refused, not truncated."""
    if not all(isinstance(c, (int, np.integer)) for c in counts.values()):
        raise DataError("non-integer count in distribution")
    if sum(counts.values()) <= 0:
        raise DataError("cannot take entropy of an empty distribution")
    if any(c < 0 for c in counts.values()):
        raise DataError("negative count in distribution")
    positive = [c for c in counts.values() if c > 0]
    _, h = _block_entropies(np.asarray([positive], dtype=np.int64))
    return max(0.0, float(h[0]))  # one class: +0.0, not the -0.0 of -1 * log2(1)


def joint(labels_x: Sequence, labels_y: Sequence) -> float:
    """Joint entropy H(X, Y) of two token vectors over the same universe."""
    if len(labels_x) != len(labels_y):
        raise UniverseMismatchError(
            f"length mismatch: {len(labels_x)} vs {len(labels_y)}")
    return shannon(Counter(zip(labels_x, labels_y)))


def _block_entropies(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(block sizes, per-block decision entropy) of a (block x class) count matrix."""
    sizes = counts.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / sizes[:, None]
        terms = np.where(counts > 0, -p * np.log2(p), 0.0)
    return sizes, np.sort(terms, axis=1).sum(axis=1)  # ascending: class order cannot leak


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


def granular_entropy(partition: Partition, decision_labels: Sequence) -> GranularEntropyReport:
    """Per-granule decision entropy and the boundary fraction, from one (block x class) count.

    conditional_bits is bounded by boundary_fraction * log2(k): pure blocks
    contribute nothing and each mixed block at most log2(k). Both vanish
    together, which ties the entropy channel to the boundary region.
    """
    counts = _label_matrix(partition, decision_labels)
    k = counts.shape[1]
    conditional_bits = _conditional_bits(counts, partition.n)
    _, boundary_fraction = region_fractions(counts)
    normalized = conditional_bits / math.log2(k) if k >= 2 else 0.0
    return GranularEntropyReport(conditional_bits, boundary_fraction, k, normalized)


def per_block(partition: Partition, decision_labels: Sequence) -> list:
    """(block id, weight |B|/|U|, block entropy in bits) per block of the partition."""
    sizes, block_h = _block_entropies(_label_matrix(partition, decision_labels))
    return list(zip(range(len(sizes)), (sizes / sizes.sum()).tolist(), block_h.tolist()))
