import math
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import granulens
from granulens import (
    DataError,
    Distribution,
    GranulationScheme,
    ModelRun,
    Partition,
    UniverseMismatchError,
    conditional,
    discretize,
    entropy_rank,
    evaluate_run,
    granular_entropy,
    greedy_reduct,
    joint,
    partition_by,
    regions,
    shannon,
    sweep,
)
from granulens.cli import run_cli

from helpers import (granular_entropy_by_dot, random_attr_subset, random_table,
                     random_view, shannon_by_loop)

TOL = 1e-9


class TestShannon:
    def test_fair_binary(self):
        assert shannon(Distribution({"A": 4, "B": 4})) == pytest.approx(1.0, abs=TOL)

    def test_degenerate(self):
        h = shannon(Distribution({"A": 8, "B": 0}))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_dyadic(self):
        assert shannon(Distribution({"A": 4, "B": 2, "C": 2})) == pytest.approx(1.5, abs=TOL)

    def test_five_three(self):
        # direct evaluation: -(5/8)log2(5/8) - (3/8)log2(3/8)
        assert shannon(Distribution({"A": 5, "B": 3})) == pytest.approx(0.954434, abs=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40).filter(any))
    def test_matches_loop_oracle(self, counts):
        """Vectorized, H may differ from the loop in its last bits (numpy's log2
        and summation order), never by more."""
        h = shannon(Distribution(dict(enumerate(counts))))
        assert h == pytest.approx(shannon_by_loop(counts), rel=1e-13, abs=1e-300)
        assert math.copysign(1.0, h) == 1.0

    def test_empty_total_rejected(self):
        with pytest.raises(DataError):
            shannon(Distribution({}))
        with pytest.raises(DataError):
            shannon(Distribution({"A": 0}))
        with pytest.raises(DataError, match="negative count in distribution"):
            shannon(Distribution({"A": 3, "B": -1}))


class TestJoint:
    def test_toy8_a1_d(self, toy8):
        a1 = list(toy8.column("a1"))
        assert joint(a1, toy8.decision_labels) == pytest.approx(1.75, abs=TOL)

    def test_self_pairing(self):
        x = ["a", "b", "b", "c"]
        assert joint(x, x) == pytest.approx(shannon(Distribution.from_tokens(x)), abs=TOL)

    def test_constant_second(self):
        x = ["a", "b", "b", "c"]
        assert joint(x, ["z"] * 4) == pytest.approx(shannon(Distribution.from_tokens(x)), abs=TOL)

    def test_length_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            joint(["a"], ["a", "b"])


class TestConditional:
    def test_toy8_given_a1(self, toy8):
        part = partition_by(discretize(toy8, GranulationScheme()), ["a1"])
        assert conditional(toy8.decision_labels, part) == pytest.approx(0.25, abs=TOL)

    def test_constant_labels(self, toy8):
        part = partition_by(discretize(toy8, GranulationScheme()), ["a1"])
        assert conditional(["k"] * 8, part) == 0.0

    def test_singleton_partition(self, toy8):
        part = Partition.from_labels(range(8))
        assert conditional(toy8.decision_labels, part) == 0.0

    def test_universe_mismatch(self, toy8):
        with pytest.raises(UniverseMismatchError):
            conditional(["a", "b"], Partition.single_block(8))


class TestGranularEntropy:
    def test_toy8_by_a1(self, toy8):
        part = partition_by(discretize(toy8, GranulationScheme()), ["a1"])
        rep = granular_entropy(part, toy8.decision_labels)
        assert [h for _, _, h in rep.per_block] == pytest.approx([0.0, 1.0, 0.0], abs=TOL)
        assert rep.conditional_bits == pytest.approx(0.25, abs=TOL)
        assert rep.boundary_fraction == 0.25
        assert rep.class_count == 2
        assert rep.normalized_conditional == pytest.approx(0.25, abs=TOL)

    def test_pure_partition(self, toy8):
        part = Partition.from_labels(toy8.decision_labels)
        rep = granular_entropy(part, toy8.decision_labels)
        assert rep.conditional_bits == 0.0
        assert rep.boundary_fraction == 0

    def test_single_block(self, toy8):
        rep = granular_entropy(Partition.single_block(8), toy8.decision_labels)
        assert rep.conditional_bits == pytest.approx(0.954434, abs=1e-6)
        assert rep.boundary_fraction == 1


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_chain_rule_and_bound(seed):
    rng = random.Random(seed)
    table = random_table(rng)
    view = random_view(rng, table)
    attrs = random_attr_subset(rng, table, nonempty=False)
    part = partition_by(view, attrs)
    labels = table.decision_labels

    block_ids = part.block_of.tolist()
    direct = conditional(labels, part)
    via_chain = joint(labels, block_ids) - shannon(Distribution.from_tokens(block_ids))
    assert direct == pytest.approx(via_chain, abs=TOL)

    rep = granular_entropy(part, labels)
    k = rep.class_count
    if k >= 2:
        assert rep.conditional_bits <= float(rep.boundary_fraction) * math.log2(k) + TOL
    assert (rep.conditional_bits < 1e-12) == (rep.boundary_fraction == 0)
    assert (rep.boundary_fraction == 0) == (regions(part, labels).gamma == 1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_refinement_monotonicity_and_range(seed):
    rng = random.Random(seed)
    table = random_table(rng)
    view = random_view(rng, table)
    small = random_attr_subset(rng, table, nonempty=False)
    big = small + [a.name for a in table.condition_attributes if a.name not in small]
    labels = table.decision_labels
    assert conditional(labels, partition_by(view, big)) <= \
        conditional(labels, partition_by(view, small)) + TOL

    dist = Distribution.from_tokens(labels)
    support = len([c for c in dist.counts.values() if c > 0])
    h = shannon(dist)
    assert -TOL <= h <= math.log2(support) + TOL if support > 1 else h == 0.0


def partition_with_labels(seed):
    """A partition of up to 400 objects and k-class labels; some blocks are pure."""
    rng = random.Random(seed)
    n = rng.randint(1, 400)
    blocks = rng.randint(1, n)
    block_of = [rng.randrange(blocks) for _ in range(n)]
    k = rng.randint(1, 4)
    pure = rng.random()
    block_class = [rng.randrange(k) for _ in range(blocks)]
    labels = [block_class[b] if rng.random() < pure else rng.randrange(k) for b in block_of]
    return Partition.from_labels(block_of), [f"k{c}" for c in labels]


class TestConditionalBitsSum:
    """H(D|P) is math.fsum over the mixed blocks; np.dot is the old oracle."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_matches_eager_oracle(self, seed):
        part, labels = partition_with_labels(seed)
        rep = granular_entropy(part, labels)
        per_block, by_dot = granular_entropy_by_dot(part, labels)
        assert rep.per_block == per_block
        assert rep.conditional_bits == math.fsum(w * h for _, w, h in per_block)
        assert abs(rep.conditional_bits - by_dot) <= 1e-12
        assert conditional(labels, part) == rep.conditional_bits

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_block_numbering_does_not_matter(self, seed):
        part, labels = partition_with_labels(seed)
        perm = list(range(part.block_count))
        random.Random(seed).shuffle(perm)
        renumbered = Partition(np.asarray(perm)[part.block_of])
        h = granular_entropy(part, labels).conditional_bits
        assert granular_entropy(renumbered, labels).conditional_bits == h
        assert conditional(labels, renumbered) == h

    @pytest.mark.parametrize("labels", [list("aabbbcdd"), ["k"] * 8])
    def test_pure_partition_is_positive_zero(self, labels):
        for part in (Partition.from_labels(labels), Partition.from_labels(range(8))):
            h = granular_entropy(part, labels).conditional_bits
            assert h == 0.0 and math.copysign(1.0, h) == 1.0
            assert math.copysign(1.0, conditional(labels, part)) == 1.0

    def test_report_repr_and_equality(self, toy8):
        part = partition_by(discretize(toy8, GranulationScheme()), ["a1"])
        rep = granular_entropy(part, toy8.decision_labels)
        assert "counts" not in repr(rep) and "per_block" not in repr(rep)
        assert rep == granular_entropy(part, toy8.decision_labels)
        # same scalars, blocks numbered in another order: unequal, as per_block differs
        renumbered = Partition(np.array([2, 1, 0])[part.block_of])
        other = granular_entropy(renumbered, toy8.decision_labels)
        assert other.conditional_bits == rep.conditional_bits
        assert other != rep

    def test_report_counts_are_read_only(self, toy8):
        part = partition_by(discretize(toy8, GranulationScheme()), ["a1"])
        rep = granular_entropy(part, toy8.decision_labels)
        with pytest.raises(ValueError, match="read-only"):
            rep.counts[0, 0] += 1
        assert rep.per_block == granular_entropy_by_dot(part, toy8.decision_labels)[0]


def test_no_blas_call_on_any_entropy_path(monkeypatch, titanic, titanic_path, capsys):
    def raiser(*args, **kwargs):
        raise AssertionError("BLAS call")
    for name in ("dot", "vdot", "inner"):
        monkeypatch.setattr(np, name, raiser)
    numeric = [a.name for a in titanic.condition_attributes]
    curve = sweep(titanic, numeric, 0, 10)
    assert curve.points[-1].conditional_bits <= curve.points[0].conditional_bits
    view = discretize(titanic, GranulationScheme.uniform(titanic, 3))
    assert greedy_reduct(view, titanic.decision_labels).selected
    assert len(entropy_rank(view, titanic.decision_labels)) == len(numeric)
    run = ModelRun("r", list(titanic.decision_labels),
                   granule=[str(i % 7) for i in range(titanic.n)])
    assert evaluate_run(titanic, run).model_conditional_bits > 0
    assert run_cli(["entropy", str(titanic_path), "--decision", "Survived",
                    "--attrs", "Pclass,Sex,Age", "--bits", "4"]) == 0
    assert "conditional_bits=" in capsys.readouterr().out


def test_one_count_per_granular_entropy_run_and_sweep_level(monkeypatch, titanic):
    """H(D|P) and the boundary fraction of a partition come from a single
    (block x class) count: one per granular_entropy call, run and sweep level."""
    orig_count = granulens.rough._class_counts
    counts = []
    monkeypatch.setattr(granulens.rough, "_class_counts",
                        lambda *args: counts.append(1) or orig_count(*args))
    view = discretize(titanic, GranulationScheme.uniform(titanic, 2))
    for attrs in ([], ["Sex"], [a.name for a in titanic.condition_attributes]):
        counts.clear()
        granular_entropy(partition_by(view, attrs), titanic.decision_labels)
        assert len(counts) == 1
    for granule in (None, [str(i % 7) for i in range(titanic.n)]):
        counts.clear()
        evaluate_run(titanic, ModelRun("r", list(titanic.decision_labels), granule=granule))
        assert len(counts) == 1
    counts.clear()
    curve = sweep(titanic, [a.name for a in titanic.condition_attributes], 0, 12)
    assert len(curve.points) > 1 and len(counts) == len(curve.points)


_BIG_PARTITION_H = """
import numpy as np
from granulens import Partition, granular_entropy
rng = np.random.default_rng(0)
blocks = 60_000
block_of = np.concatenate([np.arange(blocks), rng.integers(0, blocks, 3 * blocks)])
labels = rng.integers(0, 2, len(block_of))
print(granular_entropy(Partition(block_of), labels).conditional_bits.hex())
"""


def test_conditional_bits_do_not_depend_on_blas_threads():
    """A 60k-block, 2-class H(D|P) is bit-identical with 1 and 2 BLAS threads."""
    src = str(pathlib.Path(granulens.__file__).resolve().parents[1])
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _BIG_PARTITION_H], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.add(done.stdout)
    assert len(outputs) == 1, outputs
