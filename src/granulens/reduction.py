"""Attribute reduction: greedy reduct search, exhaustive oracle, entropy ranking."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import DataError
from .table import _DENSE, DiscreteView, Partition, factorize, partition_by, refine
from .rough import _class_counts, _label_matrix, _positive_count, dependency
from .entropy import _conditional_bits, conditional


@dataclass(frozen=True)
class ReductStep:
    attribute: str
    gamma_after: Fraction
    conditional_bits_after: float


@dataclass(frozen=True)
class ReductResult:
    selected: list[str]
    gamma_selected: Fraction
    gamma_full: Fraction
    trace: list[ReductStep]


def _gamma_of(view: DiscreteView, labels, attrs: Sequence[str]) -> Fraction:
    return dependency(partition_by(view, list(attrs)), labels)


def greedy_reduct(view: DiscreteView, decision_labels) -> ReductResult:
    """Forward-select attributes by dependency gain, then prune redundant picks.

    At each step the attribute with the largest gamma gain is added; ties
    break on the larger drop in conditional decision entropy, then on
    declaration order. On an inconsistent table (gamma over all attributes
    below 1) every attribute is returned unchanged. A candidate's gamma and
    H(D|P) come from one count by its key ``block * w + code``; only picks are refined.
    """
    names = view.condition_names
    if not names:
        raise DataError("no condition attributes to reduce over")
    labels = factorize(decision_labels)
    gamma_full = _gamma_of(view, labels, names)

    if gamma_full < 1:
        return ReductResult(list(names), gamma_full, gamma_full, [])

    n, k = len(labels), int(labels.max()) + 1
    selected, trace = [], []  # picked names, one ReductStep each
    chosen = partition_by(view, selected)
    gamma_cur = dependency(chosen, labels)
    while gamma_cur < gamma_full:
        best = None
        for name in names:
            if name in selected:
                continue
            col = view.codes_for(name)
            w = int(col.max()) + 1
            if chosen.block_count * w * k <= _DENSE * n:  # count rows stay O(n)
                counts = _class_counts(chosen.block_of * w + col, chosen.block_count * w,
                                       labels, k)
            else:
                counts = _label_matrix(refine(chosen, [col]), labels)
            key = (-Fraction(_positive_count(counts), n), _conditional_bits(counts, n))
            if best is None or key < best[0]:
                best = (key, name)
        (neg_gamma, cond_bits), name = best
        chosen = refine(chosen, [view.codes_for(name)])
        selected.append(name)
        gamma_cur = -neg_gamma
        trace.append(ReductStep(name, gamma_cur, cond_bits))

    # Backward prune: later picks can make earlier ones redundant; gamma stays gamma_full.
    for name in reversed(list(selected)):
        remaining = [a for a in selected if a != name]
        if _gamma_of(view, labels, remaining) == gamma_full:
            selected = remaining
    return ReductResult(selected, gamma_full, gamma_full, trace)


def exhaustive_reducts(view: DiscreteView, decision_labels,
                       max_attrs: int = 12) -> list[tuple[str, ...]]:
    """All inclusion-minimal attribute subsets preserving full dependency.

    Enumerated in size-then-lexicographic order (lexicographic by attribute
    declaration order). Oracle for validating the greedy search; refuses
    attribute counts beyond max_attrs.
    """
    names = view.condition_names
    if len(names) > max_attrs:
        raise DataError(f"{len(names)} attributes exceeds max_attrs={max_attrs}")
    labels = factorize(decision_labels)
    gamma_full = _gamma_of(view, labels, names)
    found: list[tuple[str, ...]] = []
    for size in range(len(names) + 1):
        for combo in combinations(names, size):
            if any(set(r) <= set(combo) for r in found):
                continue
            if _gamma_of(view, labels, combo) == gamma_full:
                found.append(combo)
    return found


def entropy_rank(view: DiscreteView, decision_labels) -> list[tuple[str, float]]:
    """Attributes with their information gain H(D) - H(D | attribute), descending.

    Ties keep declaration order.
    """
    names = view.condition_names
    if not names:
        raise DataError("no condition attributes to rank")
    labels = factorize(decision_labels)
    h_d = conditional(labels, Partition.single_block(len(labels)))
    gains = [(name, h_d - conditional(labels, partition_by(view, [name])))
             for name in names]
    gains.sort(key=lambda item: -item[1])  # stable: ties stay in declaration order
    return gains
