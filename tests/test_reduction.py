import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import granulens.entropy
import granulens.reduction
import granulens.rough

from granulens import (
    DataError,
    GranulationScheme,
    discretize,
    entropy_rank,
    exhaustive_reducts,
    greedy_reduct,
    load_table,
    partition_by,
    dependency,
)

from helpers import greedy_reduct_two_partitions, random_table, random_view


def toy8_view(toy8):
    return discretize(toy8, GranulationScheme({"a2": 3}))


class TestGreedyReduct:
    def test_toy8_selects_a2(self, toy8):
        result = greedy_reduct(toy8_view(toy8), toy8.decision_labels)
        assert result.selected == ["a2"]
        assert result.gamma_selected == 1
        assert result.gamma_full == 1

    def test_constant_decision_selects_nothing(self, toy8):
        result = greedy_reduct(toy8_view(toy8), ["c"] * 8)
        assert result.selected == []
        assert result.gamma_selected == 1

    def test_inconsistent_fallback_selects_all(self):
        table = load_table("a,b,d\n1,x,0\n1,x,1\n2,y,0\n", "d")
        view = discretize(table, GranulationScheme({"a": 3}))
        result = greedy_reduct(view, table.decision_labels)
        assert result.selected == ["a", "b"]
        assert result.gamma_selected == result.gamma_full < 1

    def test_trace_monotone(self):
        rng = random.Random(11)
        for _ in range(20):
            table = _consistent_table(rng)
            view = discretize(table, GranulationScheme())
            result = greedy_reduct(view, table.decision_labels)
            gammas = [s.gamma_after for s in result.trace]
            entropies = [s.conditional_bits_after for s in result.trace]
            assert gammas == sorted(gammas)
            assert entropies == sorted(entropies, reverse=True)

    def test_no_condition_attributes(self):
        table = load_table("d\n0\n1\n", "d")
        view = discretize(table, GranulationScheme())
        with pytest.raises(DataError):
            greedy_reduct(view, table.decision_labels)


class TestExhaustiveReducts:
    def test_toy8(self, toy8):
        assert exhaustive_reducts(toy8_view(toy8), toy8.decision_labels) == [("a2",)]

    def test_single_determining_attribute(self):
        table = load_table("a,d\nx,0\ny,1\nx,0\n", "d")
        view = discretize(table, GranulationScheme())
        assert exhaustive_reducts(view, table.decision_labels) == [("a",)]

    def test_constant_decision_gives_empty_set(self, toy8):
        assert exhaustive_reducts(toy8_view(toy8), ["c"] * 8) == [()]

    def test_max_attrs_guard(self, toy8):
        with pytest.raises(DataError):
            exhaustive_reducts(toy8_view(toy8), toy8.decision_labels, max_attrs=1)


class TestEntropyRank:
    def test_toy8_order_and_gains(self, toy8):
        ranking = entropy_rank(toy8_view(toy8), toy8.decision_labels)
        assert [name for name, _ in ranking] == ["a2", "a1"]
        gains = dict(ranking)
        assert gains["a2"] == pytest.approx(0.954434, abs=1e-6)
        assert gains["a1"] == pytest.approx(0.704434, abs=1e-6)

    def test_constant_attribute_zero_gain(self):
        table = load_table("a,d\nx,0\nx,1\n", "d")
        view = discretize(table, GranulationScheme())
        assert entropy_rank(view, table.decision_labels)[0][1] == pytest.approx(0.0, abs=1e-9)

    def test_attribute_equal_to_decision(self, toy8):
        table = load_table("a,d\n0,0\n0,0\n1,1\n", "d",
                           schema_hints={"a": "categorical"})
        view = discretize(table, GranulationScheme())
        ranking = dict(entropy_rank(view, table.decision_labels))
        from granulens import Distribution, shannon
        assert ranking["a"] == pytest.approx(shannon(Distribution({"0": 2, "1": 1})), abs=1e-9)

    def test_gains_nonnegative(self):
        rng = random.Random(5)
        for _ in range(20):
            table = random_table(rng, max_n=20)
            view = discretize(table, GranulationScheme())
            for _, gain in entropy_rank(view, table.decision_labels):
                assert gain >= -1e-9


def _consistent_table(rng, max_n=24, max_attrs=6):
    """Categorical table whose decision is a function of some attributes."""
    n = rng.randint(2, max_n)
    m = rng.randint(1, max_attrs)
    cols = [[rng.choice("uvw") for _ in range(n)] for _ in range(m)]
    deps = rng.sample(range(m), rng.randint(1, m))
    mapping = {}
    labels = []
    for i in range(n):
        key = tuple(cols[j][i] for j in deps)
        if key not in mapping:
            mapping[key] = f"k{rng.randrange(3)}"
        labels.append(mapping[key])
    lines = [",".join(f"c{j}" for j in range(m)) + ",d"]
    for i in range(n):
        lines.append(",".join(cols[j][i] for j in range(m)) + f",{labels[i]}")
    return load_table("\n".join(lines) + "\n", "d",
                      schema_hints={f"c{j}": "categorical" for j in range(m)})


def test_greedy_soundness_and_oracle_containment():
    rng = random.Random(99)
    for _ in range(40):
        table = _consistent_table(rng)
        view = discretize(table, GranulationScheme())
        labels = table.decision_labels
        result = greedy_reduct(view, labels)
        assert result.gamma_selected == result.gamma_full == 1
        # pruned result: removing any one attribute strictly drops gamma
        for name in result.selected:
            remaining = [a for a in result.selected if a != name]
            part = partition_by(view, remaining)
            assert dependency(part, labels) < 1
        reducts = exhaustive_reducts(view, labels, max_attrs=8)
        assert any(set(r) <= set(result.selected) for r in reducts)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_greedy_matches_two_partition_oracle(seed):
    """Consistent categorical tables run the search; random mixed ones often fall back."""
    rng = random.Random(seed)
    if rng.random() < 0.6:
        table = _consistent_table(rng, max_attrs=7)
        view = discretize(table, GranulationScheme())
    else:
        table = random_table(rng, max_n=24)
        view = random_view(rng, table, max_bits=6)
    assert (greedy_reduct(view, table.decision_labels)
            == greedy_reduct_two_partitions(view, table.decision_labels))


def test_one_partition_per_greedy_candidate(monkeypatch):
    """Each candidate refines the partition of the picks so far by one column."""
    rng = random.Random(3)
    orig_partition = granulens.reduction.partition_by
    orig_refine = granulens.reduction.refine
    calls, refined = [], []
    monkeypatch.setattr(granulens.reduction, "partition_by",
                        lambda view, attrs: calls.append(list(attrs)) or orig_partition(view, attrs))
    monkeypatch.setattr(granulens.reduction, "refine",
                        lambda part, cols: refined.append(len(cols)) or orig_refine(part, cols))
    searched = 0
    for _ in range(20):
        table = _consistent_table(rng)
        view = discretize(table, GranulationScheme())
        calls.clear()
        refined.clear()
        result = greedy_reduct(view, table.decision_labels)
        m, steps = len(view.condition_names), len(result.trace)
        candidates = sum(m - i for i in range(steps))
        searched += steps > 0
        # gamma over all attributes and over none, one prune check per
        # pick, and the final gamma; one single-column refine per candidate
        assert len(calls) == 2 + steps + 1
        assert refined == [1] * candidates
    assert searched >= 10


def test_one_count_pass_per_greedy_partition(monkeypatch):
    """Each candidate's gamma and H(D|P) come from a single (block x class) count."""
    rng = random.Random(5)
    orig_partition = granulens.reduction.partition_by
    orig_refine = granulens.reduction.refine
    orig_count = granulens.rough._label_matrix
    partitions, counts = [], []
    monkeypatch.setattr(granulens.reduction, "partition_by",
                        lambda view, attrs: partitions.append(1) or orig_partition(view, attrs))
    monkeypatch.setattr(granulens.reduction, "refine",
                        lambda part, cols: partitions.append(1) or orig_refine(part, cols))
    for module in (granulens.rough, granulens.entropy, granulens.reduction):
        monkeypatch.setattr(module, "_label_matrix",
                            lambda part, labels: counts.append(1) or orig_count(part, labels))
    for _ in range(10):
        table = _consistent_table(rng)
        view = discretize(table, GranulationScheme())
        partitions.clear()
        counts.clear()
        result = greedy_reduct(view, table.decision_labels)
        m, steps = len(view.condition_names), len(result.trace)
        assert len(counts) == len(partitions) == 3 + steps + sum(m - i for i in range(steps))
