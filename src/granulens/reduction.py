"""Attribute reduction: greedy reduct search, exhaustive oracle, entropy ranking."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import DataError
from .table import DiscreteView, factorize, partition_by, refine
from .rough import _label_matrix, _positive_count, dependency
from .entropy import _conditional_bits, conditional, shannon, Distribution


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
    below 1) every attribute is returned unchanged.
    """
    names = view.condition_names
    if not names:
        raise DataError("no condition attributes to reduce over")
    labels = factorize(decision_labels)
    gamma_full = _gamma_of(view, labels, names)

    if gamma_full < 1:
        return ReductResult(list(names), gamma_full, gamma_full, [])

    selected: list[str] = []
    trace: list[ReductStep] = []
    chosen = partition_by(view, selected)
    gamma_cur = dependency(chosen, labels)
    while gamma_cur < gamma_full:
        best = None
        for name in names:
            if name in selected:
                continue
            part = refine(chosen, [view.codes_for(name)])
            counts = _label_matrix(part, labels)  # gamma and H(D|P) share one count
            key = (-Fraction(_positive_count(counts), part.n),
                   _conditional_bits(counts, part.n))
            if best is None or key < best[0]:
                best = (key, name, part)
        (neg_gamma, cond_bits), name, chosen = best
        selected.append(name)
        gamma_cur = -neg_gamma
        trace.append(ReductStep(name, gamma_cur, cond_bits))

    # Backward prune: later picks can make earlier ones redundant.
    for name in reversed(list(selected)):
        remaining = [a for a in selected if a != name]
        if _gamma_of(view, labels, remaining) == gamma_full:
            selected = remaining
    return ReductResult(selected, _gamma_of(view, labels, selected), gamma_full, trace)


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
    h_d = shannon(Distribution.from_tokens(decision_labels))
    labels = factorize(decision_labels)
    gains = [(name, h_d - conditional(labels, partition_by(view, [name])))
             for name in names]
    gains.sort(key=lambda item: -item[1])  # stable: ties stay in declaration order
    return gains
