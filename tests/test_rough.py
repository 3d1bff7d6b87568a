import ast
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import granulens
from granulens import (
    ConceptSet,
    DataError,
    GranulationScheme,
    Partition,
    UniverseMismatchError,
    approximate,
    dependency,
    discretize,
    load_table,
    partition_by,
    regions,
)
from granulens.rough import _label_matrix, _mixed, region_fractions

from helpers import (
    brute_lower,
    brute_upper,
    code_tuples,
    random_attr_subset,
    random_table,
    random_view,
)


def toy8_partition(toy8):
    return partition_by(discretize(toy8, GranulationScheme()), ["a1"])


class TestApproximate:
    def test_toy8_class1(self, toy8):
        part = toy8_partition(toy8)
        concept = ConceptSet(frozenset({3, 4, 5, 6, 7}), 8)
        approx = approximate(part, concept)
        assert approx.lower == frozenset({4, 5, 6, 7})
        assert approx.upper == frozenset({2, 3, 4, 5, 6, 7})
        assert approx.boundary == frozenset({2, 3})
        assert approx.accuracy_alpha == Fraction(4, 6)

    def test_full_universe(self, toy8):
        part = toy8_partition(toy8)
        approx = approximate(part, ConceptSet(frozenset(range(8)), 8))
        assert approx.lower == approx.upper == frozenset(range(8))
        assert approx.boundary == frozenset()
        assert approx.accuracy_alpha == 1

    def test_empty_concept(self, toy8):
        part = toy8_partition(toy8)
        approx = approximate(part, ConceptSet(frozenset(), 8))
        assert approx.lower == approx.upper == approx.boundary == frozenset()
        assert approx.accuracy_alpha == 1  # vacuously exact by convention

    def test_universe_mismatch(self, toy8):
        part = toy8_partition(toy8)
        with pytest.raises(UniverseMismatchError):
            approximate(part, ConceptSet(frozenset({0}), 5))
        for members in ({8}, {-1, 0}):
            with pytest.raises(DataError, match="concept members outside the universe"):
                ConceptSet(frozenset(members), 8)


class TestRegions:
    def test_toy8(self, toy8):
        rep = regions(toy8_partition(toy8), toy8.decision_labels)
        assert rep.positive == frozenset({0, 1, 4, 5, 6, 7})
        assert rep.boundary_overall == frozenset({2, 3})
        assert rep.gamma == Fraction(3, 4)
        assert rep.boundary_fraction == Fraction(1, 4)
        assert rep.negative_by_class["1"] == frozenset({0, 1})

    def test_singleton_partition_is_pure(self, toy8):
        view = discretize(toy8, GranulationScheme({"a2": 3}))
        part = partition_by(view, ["a1", "a2"])
        rep = regions(part, toy8.decision_labels)
        assert rep.gamma == 1
        assert rep.boundary_fraction == 0

    def test_single_mixed_block(self, toy8):
        part = partition_by(discretize(toy8, GranulationScheme()), [])
        rep = regions(part, toy8.decision_labels)
        assert rep.gamma == 0
        assert rep.boundary_fraction == 1

    def test_empty_labels_rejected(self, toy8):
        with pytest.raises((DataError, UniverseMismatchError)):
            regions(toy8_partition(toy8), [])

    def test_labels_are_read_in_one_pass(self, toy8):
        """The class order and the codes come from one pass over the labels."""
        class Passes(list):
            count = 0

            def __iter__(self):
                Passes.count += 1
                return super().__iter__()

        labels = Passes(toy8.decision_labels)
        rep = regions(toy8_partition(toy8), labels)
        assert Passes.count == 1
        assert rep == regions(toy8_partition(toy8), toy8.decision_labels)
        assert list(rep.per_class) == list(rep.negative_by_class) == ["0", "1"]

    def test_length_is_checked_before_any_label_is_hashed(self, toy8):
        with pytest.raises(UniverseMismatchError, match="^9 labels for a universe of 8$"):
            regions(toy8_partition(toy8), [[0]] * 9)
        with pytest.raises(DataError, match="^empty label set$"):
            regions(Partition(np.zeros(0, dtype=np.int64)), [])


class TestDependency:
    def test_toy8(self, toy8):
        assert dependency(toy8_partition(toy8), toy8.decision_labels) == Fraction(3, 4)

    def test_constant_decision(self, toy8):
        assert dependency(toy8_partition(toy8), ["c"] * 8) == 1

    def test_inconsistent_table(self):
        table = load_table("a,d\n1,0\n1,1\n", "d")
        part = partition_by(discretize(table, GranulationScheme({"a": 3})), ["a"])
        assert dependency(part, table.decision_labels) < 1

    def test_empty_universe_rejected(self):
        with pytest.raises(DataError, match="empty label set"):
            dependency(Partition(np.array([], dtype=np.int64)), [])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_brute_force_oracle_equivalence(seed):
    rng = random.Random(seed)
    table = random_table(rng)
    view = random_view(rng, table)
    attrs = random_attr_subset(rng, table, nonempty=False)
    part = partition_by(view, attrs)
    tuples = code_tuples(view, attrs)
    concept = {i for i in range(table.n) if rng.random() < 0.5}
    approx = approximate(part, ConceptSet(frozenset(concept), table.n))
    assert approx.lower == brute_lower(tuples, concept)
    assert approx.upper == brute_upper(tuples, concept)
    assert approx.boundary == brute_upper(tuples, concept) - brute_lower(tuples, concept)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_monotonicity_under_refinement(seed):
    rng = random.Random(seed)
    table = random_table(rng)
    view = random_view(rng, table)
    small = random_attr_subset(rng, table, nonempty=False)
    extra = [a.name for a in table.condition_attributes if a.name not in small]
    big = small + extra
    concept = frozenset(i for i in range(table.n) if rng.random() < 0.4)
    coarse = approximate(partition_by(view, small), ConceptSet(concept, table.n))
    fine = approximate(partition_by(view, big), ConceptSet(concept, table.n))
    assert fine.lower >= coarse.lower
    assert fine.upper <= coarse.upper
    assert fine.boundary <= coarse.boundary


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_binary_duality_and_region_partition(seed):
    rng = random.Random(seed)
    table = random_table(rng)
    view = random_view(rng, table)
    attrs = random_attr_subset(rng, table, nonempty=False)
    part = partition_by(view, attrs)
    concept = frozenset(i for i in range(table.n) if rng.random() < 0.5)
    complement = frozenset(range(table.n)) - concept
    a = approximate(part, ConceptSet(concept, table.n))
    b = approximate(part, ConceptSet(complement, table.n))
    assert a.boundary == b.boundary

    rep = regions(part, table.decision_labels)
    assert rep.positive | rep.boundary_overall == frozenset(range(table.n))
    assert not rep.positive & rep.boundary_overall
    assert rep.gamma + rep.boundary_fraction == 1
    assert rep.gamma == Fraction(len(rep.positive), table.n)  # the count agrees with the sets
    counts = _label_matrix(part, table.decision_labels)
    assert region_fractions(counts) == (rep.gamma, rep.boundary_fraction)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_mixed_blocks_are_those_without_a_class_holding_the_whole_block(seed):
    rng = np.random.default_rng(seed)
    shape = (rng.integers(1, 40), rng.integers(1, 5))
    counts = rng.integers(0, 4, shape) * (rng.random(shape) < 0.4)  # pure and empty rows too
    sizes = counts.sum(axis=1)
    pure = (counts == sizes[:, None]).any(axis=1)
    assert (_mixed(counts) == ~pure).all()
    if sizes.sum() > 0:
        assert region_fractions(counts)[0] == Fraction(sizes[pure].sum(), sizes.sum())


def test_only_rough_builds_class_counts():
    """Every (block x class) count is built in rough.py: no other module names
    ``_class_counts``, by import, attribute or call."""
    found = set()
    for path in pathlib.Path(granulens.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if "_class_counts" in (getattr(node, "id", None), getattr(node, "attr", None),
                                   getattr(node, "name", None)):
                found.add(path.name)
    assert found == {"rough.py"}
