"""Attribute reduction: greedy reduct search and entropy ranking, on counts built in ``rough``."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DataError
from .table import DiscreteView, Partition, factorize, partition_by, refine
from .rough import _counts_by, dependency, region_fractions
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
    gamma_full = dependency(partition_by(view, names), labels)

    if gamma_full < 1:
        return ReductResult(list(names), gamma_full, gamma_full, [])

    n, k = len(labels), int(labels.max()) + 1
    selected, trace = [], []  # picked names, one ReductStep each
    chosen = partition_by(view, selected)
    gamma_cur = dependency(chosen, labels)
    while gamma_cur < gamma_full:
        scores = {}  # by name, in declaration order: min keeps the first of equal keys
        for name in names:
            if name not in selected:
                counts = _counts_by(chosen, view.codes_for(name), labels, k)
                scores[name] = (-region_fractions(counts)[0], _conditional_bits(counts, n))
        name = min(scores, key=scores.get)
        neg_gamma, cond_bits = scores[name]
        chosen = refine(chosen, [view.codes_for(name)])
        selected.append(name)
        gamma_cur = -neg_gamma
        trace.append(ReductStep(name, gamma_cur, cond_bits))

    # Backward prune: later picks can make earlier ones redundant; gamma stays gamma_full.
    for name in reversed(list(selected)):
        remaining = [a for a in selected if a != name]
        if dependency(partition_by(view, remaining), labels) == gamma_full:
            selected = remaining
    return ReductResult(selected, gamma_full, gamma_full, trace)


def entropy_rank(view: DiscreteView, decision_labels) -> list[tuple[str, float]]:
    """Attributes with their information gain H(D) - H(D | attribute), descending.

    Ties keep declaration order. H(D | attribute) is counted by the greedy's
    key on the single block, so no partition is built only to be counted.
    """
    names = view.condition_names
    if not names:
        raise DataError("no condition attributes to rank")
    labels, whole = factorize(decision_labels), Partition.single_block(view.source.n)
    h_d = conditional(labels, whole)  # also checks the labels cover the view's universe
    k, n = int(labels.max()) + 1, whole.n
    gains = [(name, h_d - _conditional_bits(_counts_by(whole, view.codes_for(name), labels, k), n))
             for name in names]
    gains.sort(key=lambda item: -item[1])  # stable: ties stay in declaration order
    return gains
