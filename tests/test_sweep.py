import math
import random
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from granulens import (
    DataError,
    Partition,
    SweepCurve,
    SweepPoint,
    convergence_summary,
    load_table,
    sweep,
)
from granulens.table import refine

from helpers import random_sweep_table, random_table, refine_packed, sweep_from_scratch

TOL = 1e-9

TOY8_EXPECTED = [
    # (bits, blocks, conditional_bits, boundary_fraction)
    (0, 1, 0.954434, 1.0),
    (1, 2, 0.405639, 0.5),
    (2, 4, 0.25, 0.25),
    (3, 8, 0.0, 0.0),
]


class TestSweep:
    def test_toy8_curve(self, toy8):
        curve = sweep(toy8, ["a2"], 0, 3)
        assert len(curve.points) == 4
        for point, (b, blocks, h, bf) in zip(curve.points, TOY8_EXPECTED):
            assert point.bits_level == b
            assert point.block_count == blocks
            assert point.conditional_bits == pytest.approx(h, abs=1e-6)
            assert point.boundary_fraction == pytest.approx(bf, abs=1e-6)
            assert point.gamma + point.boundary_fraction == pytest.approx(1.0, abs=TOL)
        assert curve.saturated
        assert curve.table_id == "toy8"

    def test_constant_decision(self):
        table = load_table("v,d\n1,0\n2,0\n3,0\n", "d")
        curve = sweep(table, ["v"], 0, 3)
        assert all(p.conditional_bits == 0.0 for p in curve.points)
        assert all(p.boundary_fraction == 0.0 for p in curve.points)

    def test_single_level(self, toy8):
        curve = sweep(toy8, ["a2"], 0, 0)
        assert len(curve.points) == 1
        point = curve.points[0]
        assert point.conditional_bits == pytest.approx(0.954434, abs=1e-6)
        assert point.boundary_fraction == 1.0

    def test_invalid_range(self, toy8):
        with pytest.raises(DataError):
            sweep(toy8, ["a2"], 3, 1)
        with pytest.raises(DataError):
            sweep(toy8, ["a2"], 0, 30)
        with pytest.raises(DataError):
            sweep(toy8, ["nope"], 0, 2)
        with pytest.raises(DataError, match="cannot sweep over the decision attribute"):
            sweep(toy8, ["a2", "d"], 0, 2)
        with pytest.raises(DataError, match="cannot sweep over the decision attribute"):
            sweep(toy8, ["nope", "d"], 0, 2)  # checked before the names

    def test_empty_attrs_single_block_baseline(self, toy8):
        curve = sweep(toy8, [], 0, 2)
        assert all(p.block_count == 1 for p in curve.points)

    def test_saturation_stops_early(self, toy8):
        curve = sweep(toy8, ["a2"], 0, 10)
        assert curve.points[-1].bits_level == 3
        assert curve.saturated

    def test_no_level_past_saturation_is_computed(self, toy8, monkeypatch):
        module = import_module("granulens.sweep")
        real = module.granular_entropy
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, "granular_entropy", counting)
        curve = sweep(toy8, ["a2"], 0, 24, threads=4)
        assert curve.saturated and len(curve.points) == 4
        assert len(calls) == 4

    def test_parallel_identical(self, titanic):
        attrs = [a.name for a in titanic.condition_attributes]
        serial = sweep(titanic, attrs, 0, 6, threads=1)
        parallel = sweep(titanic, attrs, 0, 6, threads=4)
        assert serial == parallel


class TestConvergenceSummary:
    def test_toy8(self, toy8):
        curve = sweep(toy8, ["a2"], 0, 3)
        summary = convergence_summary(curve)
        assert summary.monotonicity_violations == 0
        assert summary.terminal_entropy == 0.0
        assert summary.terminal_boundary == 0.0
        assert curve.level_where_boundary_below(0.3) == 2

    def test_single_point(self, toy8):
        summary = convergence_summary(sweep(toy8, ["a2"], 1, 1))
        assert summary.monotonicity_violations == 0

    def test_shuffled_curve_counts_violations(self):
        points = [
            SweepPoint(0, 1, 0.2, 0.2, 0.3, 0.7),
            SweepPoint(1, 2, 0.9, 0.9, 0.8, 0.2),
            SweepPoint(2, 4, 0.1, 0.1, 0.1, 0.9),
        ]
        summary = convergence_summary(SweepCurve(points, ("v",)))
        assert summary.monotonicity_violations > 0

    def test_rounding_rise_is_not_a_violation(self):
        """A rise of at most 1e-9 between levels is rounding; the summary takes no option."""
        def curve(rise):
            return SweepCurve([SweepPoint(0, 1, 0.5, 0.5, 0.5, 0.5),
                               SweepPoint(1, 2, 0.5 + rise, 0.5, 0.5 + rise, 0.5)], ("v",))

        assert convergence_summary(curve(1e-12)).monotonicity_violations == 0
        assert convergence_summary(curve(1e-6)).monotonicity_violations == 1
        with pytest.raises(TypeError):
            convergence_summary(curve(0.0), tolerance=1e-3)

    def test_empty_curve_rejected(self):
        with pytest.raises(DataError):
            convergence_summary(SweepCurve([], ()))

    def test_never_below_threshold(self, toy8):
        curve = sweep(toy8, ["a2"], 0, 0)
        assert curve.level_where_boundary_below(0.5) is None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_curve_monotone_and_bounded(seed):
    rng = random.Random(seed)
    table = random_table(rng, max_n=24)
    attrs = [a.name for a in table.condition_attributes]
    curve = sweep(table, attrs, 0, rng.randint(1, 6))
    k = len(set(table.decision_labels))
    for prev, cur in zip(curve.points, curve.points[1:]):
        assert cur.conditional_bits <= prev.conditional_bits + TOL
        assert cur.boundary_fraction <= prev.boundary_fraction + TOL
    for p in curve.points:
        if k >= 2:
            assert p.conditional_bits <= p.boundary_fraction * math.log2(k) + TOL
    assert sweep(table, attrs, 0, curve.points[-1].bits_level) == \
        sweep(table, attrs, 0, curve.points[-1].bits_level)


def _sweep_attrs(rng: random.Random, table):
    """Empty, categorical-only, or a random subset that may repeat names."""
    names = [a.name for a in table.condition_attributes]
    categorical = [a.name for a in table.condition_attributes if a.kind == "categorical"]
    shape = rng.choice(["empty", "categorical", "subset", "repeats"])
    if shape == "empty":
        return []
    if shape == "categorical":
        return rng.sample(categorical, rng.randint(0, len(categorical)))
    if shape == "repeats":
        return [rng.choice(names) for _ in range(rng.randint(1, 2 * len(names)))]
    return rng.sample(names, rng.randint(1, len(names)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_sweep_matches_from_scratch_oracle(seed):
    rng = random.Random(seed)
    table = random_sweep_table(rng)
    attrs = _sweep_attrs(rng, table)
    lo, hi = sorted(rng.randint(0, 24) for _ in range(2))
    points, saturated = sweep_from_scratch(table, attrs, lo, hi)
    curve = sweep(table, attrs, lo, hi)
    assert curve.points == points
    assert curve.saturated == saturated


@pytest.mark.parametrize("bits_from", [0, 1, 20])
def test_sweep_matches_oracle_on_72_numeric_columns(bits_from):
    # More numeric columns than bits in an int64 key: row 2j+1 differs from
    # the all-zero rows only in column j, and row 144+j only by a missing
    # cell in column j, so a column dropped from the key merges a block.
    rng = random.Random(72)
    m = 72
    rows = [["0"] * m for _ in range(2 * m)]
    for j in range(m):
        rows[2 * j + 1][j] = "1"
        missing = ["0"] * m
        missing[j] = ""
        rows.append(missing)
    rows.append([repr(rng.random()) for _ in range(m)])
    text = ",".join(f"c{j}" for j in range(m)) + ",d\n" + "".join(
        ",".join(row) + f",k{rng.randrange(3)}\n" for row in rows)
    table = load_table(text, "d")
    attrs = [f"c{j}" for j in range(m)]
    points, saturated = sweep_from_scratch(table, attrs, bits_from, 24)
    curve = sweep(table, attrs, bits_from, 24)
    assert not saturated and len(points) == 25 - bits_from
    assert curve.points == points
    assert curve.saturated == saturated


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(1, 40), width=st.integers(1, 25),
       count=st.integers(0, 80))
def test_masked_refine_matches_packed_key_oracle(seed, n, width, count):
    """The sweep's refine(part, [code & mask]) against its former packed-key routine."""
    rng = np.random.default_rng(seed)
    start = Partition.from_labels(rng.integers(0, rng.integers(1, n + 1), size=n))
    columns = list(rng.integers(0, 2**25 + 1, size=(count, n)))
    mask = (1 << width) - 1
    got = refine(start, [c & mask for c in columns])
    assert got.block_of.tolist() == refine_packed(start, columns, width).block_of.tolist()
