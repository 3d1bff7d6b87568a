import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import granulens.entropy
import granulens.reduction
import granulens.rough

from granulens import (
    DataError,
    GranulationScheme,
    InformationTable,
    Partition,
    conditional,
    discretize,
    entropy_rank,
    greedy_reduct,
    load_table,
    partition_by,
    dependency,
    shannon,
)
from granulens.table import factorize

from helpers import (entropy_rank_by_partition, exhaustive_reducts, greedy_reduct_by_refine,
                     greedy_reduct_two_partitions, random_table, random_view)


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
        with pytest.raises(DataError, match="no condition attributes to rank"):
            entropy_rank(view, table.decision_labels)


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
        from granulens import shannon
        assert ranking["a"] == pytest.approx(shannon({"0": 2, "1": 1}), abs=1e-9)

    def test_gains_nonnegative(self):
        rng = random.Random(5)
        for _ in range(20):
            table = random_table(rng, max_n=20)
            view = discretize(table, GranulationScheme())
            for _, gain in entropy_rank(view, table.decision_labels):
                assert gain >= -1e-9

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.sampled_from([1, 2, 8, 13, 40]), as_text=st.booleans())
    def test_h_d_matches_shannon_bit_for_bit(self, data, k, as_text):
        """H(D) as the single block's conditional entropy equals shannon over
        token counts, bit for bit, on integer codes and on strings."""
        extra = data.draw(st.lists(st.integers(0, k - 1), max_size=200))
        classes = data.draw(st.permutations(list(range(k)) + extra))
        tokens = [f"c{c}" for c in classes] if as_text else np.array(classes)
        h_d = shannon(Counter(tokens))
        single = Partition.single_block(len(tokens))
        assert conditional(factorize(tokens), single).hex() == h_d.hex()
        attr = data.draw(st.lists(st.sampled_from("xyz"), min_size=len(classes),
                                  max_size=len(classes)))
        table = InformationTable.from_columns({"a": attr, "d": tokens}, "d")
        view = discretize(table, GranulationScheme())
        expected = h_d - conditional(factorize(tokens), partition_by(view, ["a"]))
        assert entropy_rank(view, table.decision_codes)[0][1].hex() == expected.hex()


def _consistent_table(rng, max_n=24, max_attrs=6, values="uvw"):
    """Categorical table whose decision is a function of some attributes."""
    n = rng.randint(2, max_n)
    m = rng.randint(1, max_attrs)
    cols = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
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
    """Candidates are scored from packed keys and only each step's winner is
    refined, unless the count rows pass _DENSE * n and each candidate is."""
    rng = random.Random(3)
    orig_partition = granulens.reduction.partition_by
    orig_refine = granulens.reduction.refine
    calls, refined = [], []
    monkeypatch.setattr(granulens.reduction, "partition_by",
                        lambda view, attrs: calls.append(list(attrs)) or orig_partition(view, attrs))
    for module in (granulens.rough, granulens.reduction):  # candidates, then picks
        monkeypatch.setattr(module, "refine",
                            lambda part, cols: refined.append(len(cols)) or orig_refine(part, cols))
    for dense, refined_per_candidate in ((10**9, 0), (0, 1)):
        monkeypatch.setattr(granulens.rough, "_DENSE", dense)
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
            # gamma over all attributes and over none, and one prune check
            # per pick; single-column refines
            assert len(calls) == 2 + steps
            assert refined == [1] * (steps + refined_per_candidate * candidates)
            assert result == greedy_reduct_by_refine(view, table.decision_labels)
        assert searched >= 10


def test_entropy_rank_counts_without_partitions(monkeypatch):
    """Each attribute is counted by its codes: no partition is built and only H(D)
    takes a conditional entropy, unless the count rows pass _DENSE * n and each
    column is refined."""
    calls = Counter()
    for module, name in ((granulens.reduction, "partition_by"), (granulens.rough, "refine"),
                         (granulens.reduction, "conditional")):
        monkeypatch.setattr(module, name,
                            lambda *args, fn=getattr(module, name), name=name:
                            calls.update([name]) or fn(*args))
    rng = random.Random(11)
    for dense, refined in ((granulens.rough._DENSE, 0), (0, 1)):
        monkeypatch.setattr(granulens.rough, "_DENSE", dense)
        for _ in range(10):
            table = _consistent_table(rng)  # 3 values, 3 classes, 2 rows or more: dense at 8
            view = discretize(table, GranulationScheme())
            calls.clear()
            ranking = entropy_rank(view, table.decision_labels)
            assert calls == Counter(conditional=1, refine=refined * len(ranking))
            assert ranking == entropy_rank_by_partition(view, table.decision_labels)


def test_one_count_pass_per_greedy_partition(monkeypatch):
    """Each candidate's gamma and H(D|P) come from a single (key x class) count,
    on either scoring path."""
    rng = random.Random(5)
    orig_count = granulens.rough._class_counts
    counts = []
    monkeypatch.setattr(granulens.rough, "_class_counts",
                        lambda *args: counts.append(1) or orig_count(*args))
    for dense in (10**9, 0):  # every candidate by packed key, then every one refined
        monkeypatch.setattr(granulens.rough, "_DENSE", dense)
        for _ in range(10):
            table = _consistent_table(rng)
            view = discretize(table, GranulationScheme())
            counts.clear()
            result = greedy_reduct(view, table.decision_labels)
            m, steps = len(view.condition_names), len(result.trace)
            # gamma over all attributes, over none and per prune check
            assert len(counts) == 2 + steps + sum(m - i for i in range(steps))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_greedy_matches_refine_oracle(seed):
    """Bit-identical to refining every candidate. Up to 16 values per column,
    up to 3 classes and down to 2 rows put K*w*k on both sides of _DENSE*n."""
    rng = random.Random(seed)
    if rng.random() < 0.7:
        table = _consistent_table(rng, max_attrs=7, values="uvwxyzabcdefghij"[:rng.randint(2, 16)])
        view = discretize(table, GranulationScheme())
    else:
        table = random_table(rng, max_n=24)
        view = random_view(rng, table, max_bits=6)
    assert (greedy_reduct(view, table.decision_labels)
            == greedy_reduct_by_refine(view, table.decision_labels))


def test_refine_oracle_tables_take_both_scoring_paths(monkeypatch):
    """The oracle test's consistent tables reach both sides of the fallback bound: in
    ``rough`` only the fallback refines, so a search that scores more candidates than it
    refines there counted some by packed key."""
    seen, refined = set(), []
    orig = granulens.rough.refine
    monkeypatch.setattr(granulens.rough, "refine",
                        lambda *args: refined.append(1) or orig(*args))
    rng = random.Random(13)
    for _ in range(30):
        table = _consistent_table(rng, max_attrs=7, values="uvwxyzabcdefghij"[:rng.randint(2, 16)])
        view = discretize(table, GranulationScheme())
        refined.clear()
        result = greedy_reduct(view, table.decision_labels)
        m, steps = len(view.condition_names), len(result.trace)
        if len(refined) < sum(m - i for i in range(steps)):
            seen.add("packed")
        if refined:
            seen.add("refined")
    assert seen == {"packed", "refined"}


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**9), dense=st.sampled_from([0, 10**9]))
def test_entropy_rank_matches_partition_oracle(seed, dense):
    """Same names in the same order with bit-identical gains as one partition per
    attribute, with every column counted by key and with every column refined first."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        table = _consistent_table(rng, max_attrs=7, values="uvwxyzabcdefghij"[:rng.randint(2, 16)])
        view = discretize(table, GranulationScheme())
    else:
        table = random_table(rng, max_n=24)
        view = random_view(rng, table, max_bits=6)
    labels = rng.choice([table.decision_labels, table.decision_codes])
    with mock.patch.object(granulens.rough, "_DENSE", dense):
        ranking = entropy_rank(view, labels)
    assert ([(name, gain.hex()) for name, gain in ranking]
            == [(name, gain.hex()) for name, gain in entropy_rank_by_partition(view, labels)])
