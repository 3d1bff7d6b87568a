import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from granulens import (
    DataError,
    GranulationScheme,
    InformationTable,
    MISSING,
    Partition,
    discretize,
    granular_entropy,
    load_table,
    partition_by,
    regions,
)
from granulens.table import refine

from conftest import DATA_DIR
from helpers import (blocks_of, partition_by_fold, random_attr_subset, random_table,
                     random_view, refine_by_fold, refines_by_loop)


class TestLoadTable:
    def test_toy8_shape(self, toy8_csv):
        table = load_table(toy8_csv, "d")
        assert table.n == 8
        assert table.attribute("a1").kind == "categorical"
        a2 = table.attribute("a2")
        assert a2.kind == "numeric"
        assert a2.observed_range == (0.5, 7.5)
        assert table.decision == "d"

    def test_missing_decision_column(self, toy8_csv):
        with pytest.raises(DataError, match="missing decision column"):
            load_table("a1,a2\nP,0.5\n", "d")

    def test_single_row(self):
        table = load_table("x,d\n1,0\n", "d")
        assert table.n == 1
        assert table.attribute("x").kind == "numeric"

    def test_ragged_row(self):
        with pytest.raises(DataError, match="ragged row"):
            load_table("a,d\n1,0,extra\n", "d")

    def test_decision_missing_cell(self):
        with pytest.raises(DataError, match="MISSING"):
            load_table("a,d\n1,\n", "d")

    def test_numeric_hint_with_unparsable_cell(self):
        with pytest.raises(DataError, match="unparsable"):
            load_table("a,d\nfoo,0\n", "d", schema_hints={"a": "numeric"})

    def test_empty_file(self):
        with pytest.raises(DataError, match="empty"):
            load_table("", "d")
        with pytest.raises(DataError, match="empty"):
            load_table("a,d\n", "d")

    def test_columns_cannot_be_changed_through_column(self):
        table = load_table((DATA_DIR / "toy8.csv").read_bytes(), "d")
        with pytest.raises(ValueError, match="read-only"):
            table.column("a2")[:] = 0.0
        labels = table.decision_labels
        labels[0] = "zzz"
        assert table.decision_labels[0] == "0" and table.decision_labels is not labels
        part = partition_by(discretize(table, GranulationScheme({"a2": 2})), ["a2"])
        assert part.block_count == 4 and table.attribute("a2").observed_range == (0.5, 7.5)
        assert regions(part, table.decision_labels).gamma == Fraction(3, 4)
        assert granular_entropy(part, table.decision_codes).boundary_fraction == Fraction(1, 4)

        built = InformationTable.from_columns(
            {"x": np.arange(3), "c": [1, True, "a"], "d": ["p", "q", "p"]}, "d")
        with pytest.raises(ValueError, match="read-only"):
            built.column("x")[0] = 5.0
        built.column("c")[0] = "zzz"
        assert built.column("c") == [1, True, "a"]

    def test_question_mark_is_missing(self):
        table = load_table("a,d\n?,0\n3,1\n", "d")
        assert table.column("a")[1] == 3.0
        assert np.isnan(table.column("a")[0])

    def test_kind_inference_mixed_column_is_categorical(self):
        table = load_table("a,d\n1,0\nfoo,1\n", "d")
        assert table.attribute("a").kind == "categorical"

    def test_categorical_hint_overrides_numeric_inference(self):
        table = load_table("a,d\n1,0\n2,1\n", "d", schema_hints={"a": "categorical"})
        assert table.attribute("a").kind == "categorical"

    def test_utf8_bom_is_dropped(self):
        table = load_table(b"\xef\xbb\xbfd,a\n0,1\n1,2\n", "d")
        assert table.decision == "d"
        assert table.decision_labels == ["0", "1"]

    def test_undecodable_bytes_are_data_error(self):
        with pytest.raises(DataError, match="UTF-8"):
            load_table(b"a,d\n\xff,0\n", "d")


class TestDiscretize:
    def test_equal_width_arithmetic(self):
        table = load_table("v,d\n0,0\n2.5,0\n8,1\n", "d")
        # force range [0, 8] then 8 bins of width 1
        view = discretize(table, GranulationScheme({"v": 3}))
        codes = view.codes_for("v")
        assert codes[1] == 2

    def test_top_edge_clamp(self, toy8):
        view = discretize(toy8, GranulationScheme({"a2": 1}))
        assert view.codes_for("a2")[7] == 1  # v = hi clamps to 2**b - 1

    def test_zero_bits_and_missing(self):
        table = load_table("v,d\n1,0\n5,0\n?,1\n", "d")
        v0 = discretize(table, GranulationScheme({"v": 0}))
        assert list(v0.codes_for("v")) == [0, 0, 1]  # missing bin = 2**0
        v3 = discretize(table, GranulationScheme({"v": 3}))
        assert v3.codes_for("v")[2] == 8

    def test_constant_column_all_code_zero(self):
        table = load_table("v,d\n3,0\n3,1\n", "d")
        view = discretize(table, GranulationScheme({"v": 4}))
        assert list(view.codes_for("v")) == [0, 0]

    def test_bits_beyond_int64_missing_bin_rejected(self, toy8):
        with pytest.raises(DataError, match="exceeds 62"):
            discretize(toy8, GranulationScheme({"a2": 63}))
        codes = discretize(toy8, GranulationScheme({"a2": 62})).codes_for("a2")
        assert codes[0] == 0 and codes[-1] == 2**62 - 1

    def test_range_wider_than_dbl_max(self):
        # hi - lo overflows to inf; the bins come from the halved range
        table = load_table("a,d\n-1e308,x\n0,y\n1e308,z\n", "d")
        codes = [discretize(table, GranulationScheme({"a": b})).codes_for("a").tolist()
                 for b in range(4)]
        assert codes == [[0, 0, 0], [0, 1, 1], [0, 2, 3], [0, 4, 7]]

    def test_scheme_rejects_categorical_and_unknown(self, toy8):
        with pytest.raises(DataError):
            discretize(toy8, GranulationScheme({"a1": 2}))
        with pytest.raises(DataError):
            discretize(toy8, GranulationScheme({"nope": 2}))

    def test_identical_raw_values_identical_codes(self):
        rng = random.Random(7)
        for _ in range(20):
            table = random_table(rng, max_n=16)
            view = random_view(rng, table)
            for spec in table.condition_attributes:
                col = table.column(spec.name)
                codes = view.codes_for(spec.name)
                seen = {}
                for i in range(table.n):
                    key = (str(col[i]) if spec.kind == "categorical"
                           else repr(float(col[i])))
                    assert seen.setdefault(key, codes[i]) == codes[i]
            for spec in table.attributes:  # one contiguous array each, decision included
                codes = view.codes_for(spec.name)
                assert codes.ndim == 1 and codes.dtype == np.int64 and len(codes) == table.n
                assert codes.flags.c_contiguous


class TestPartitionBy:
    def test_toy8_by_a1(self, toy8):
        view = discretize(toy8, GranulationScheme())
        part = partition_by(view, ["a1"])
        assert blocks_of(part) == [[0, 1], [2, 3], [4, 5, 6, 7]]

    def test_empty_attrs_single_block(self, toy8):
        view = discretize(toy8, GranulationScheme())
        part = partition_by(view, [])
        assert part.block_count == 1
        assert blocks_of(part) == [list(range(8))]

    def test_toy8_full_attrs_singletons(self, toy8):
        view = discretize(toy8, GranulationScheme({"a2": 3}))
        part = partition_by(view, ["a1", "a2"])
        assert part.block_count == 8
        assert all(len(b) == 1 for b in blocks_of(part))

    def test_rejects_decision_and_unknown(self, toy8):
        view = discretize(toy8, GranulationScheme())
        with pytest.raises(DataError):
            partition_by(view, ["d"])
        with pytest.raises(DataError):
            partition_by(view, ["zz"])
        with pytest.raises(DataError, match="unknown attribute 'zz'"):
            view.codes_for("zz")

    def test_key_overflow_keeps_blocks_apart(self):
        # at 62 bits, block id 4 times 2**62 wraps to 0 in int64, so rows 0
        # and 4 (same b code, different a) would share a key
        tiny = 2.0 ** -60
        table = load_table(f"a,b,d\nc0,{tiny!r},x\nc1,1,y\nc2,1,y\nc3,1,y\nc4,{tiny!r},y\n",
                           "d")
        view = discretize(table, GranulationScheme({"b": 62}))
        assert partition_by(view, ["a", "b"]).block_count == 5

    def test_determinism(self, toy8):
        view = discretize(toy8, GranulationScheme({"a2": 2}))
        p1 = partition_by(view, ["a1", "a2"])
        p2 = partition_by(view, ["a2", "a1"])
        assert (p1.block_of == p2.block_of).all()

    def test_row_permutation_preserves_block_composition(self, toy8_csv):
        rng = random.Random(3)
        lines = toy8_csv.strip().splitlines()
        header, rows = lines[0], lines[1:]
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        shuffled = load_table("\n".join([header] + [rows[i] for i in perm]) + "\n", "d")
        base = load_table(toy8_csv, "d")
        pb = partition_by(discretize(base, GranulationScheme({"a2": 1})), ["a2"])
        ps = partition_by(discretize(shuffled, GranulationScheme({"a2": 1})), ["a2"])
        base_sets = {frozenset(b) for b in blocks_of(pb)}
        # shuffled row i came from original row perm[i]
        shuf_sets = {frozenset(perm[i] for i in b) for b in blocks_of(ps)}
        assert base_sets == shuf_sets


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_attr_subset_refinement_property(seed):
    rng = random.Random(seed)
    table = random_table(rng, max_n=24)
    view = random_view(rng, table)
    big = random_attr_subset(rng, table, nonempty=False)
    small = rng.sample(big, rng.randint(0, len(big)))
    p_big = partition_by(view, big)
    p_small = partition_by(view, small)
    assert p_big.refines(p_small)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), bits=st.integers(0, 5))
def test_bit_refinement_property(seed, bits):
    rng = random.Random(seed)
    table = random_table(rng, max_n=24)
    numeric = [a.name for a in table.condition_attributes if a.kind == "numeric"]
    attrs = [a.name for a in table.condition_attributes]
    coarse = partition_by(discretize(table, GranulationScheme({a: bits for a in numeric})), attrs)
    fine = partition_by(discretize(table, GranulationScheme({a: bits + 1 for a in numeric})), attrs)
    assert fine.refines(coarse)


@settings(max_examples=200, deadline=None)
@given(fine=st.lists(st.integers(0, 5), min_size=1, max_size=30),
       merge=st.lists(st.integers(0, 3), min_size=6, max_size=6),
       split=st.booleans())
def test_refines_matches_loop_oracle(fine, merge, split):
    """Coarsen by merging fine blocks; optionally split one object off to break refinement."""
    coarse = [merge[b] for b in fine]
    if split:
        coarse[len(coarse) // 2] = 4
    p_fine = Partition.from_labels(fine)
    p_coarse = Partition.from_labels(coarse)
    for a, b in ((p_fine, p_coarse), (p_coarse, p_fine)):
        assert a.refines(b) == refines_by_loop(a, b)
    assert p_fine.refines(Partition.single_block(p_fine.n + 1)) is False


# Small codes and codes up to 2**62 (the missing bin at 62 bits), so keys
# pack, fill up, and need a column factorized before it fits.
CODE = st.one_of(st.integers(0, 9), st.sampled_from([2**61, 2**62 - 1, 2**62]),
                 st.integers(0, 2**62))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 30))
def test_refine_matches_per_column_fold(data, n):
    blocks = data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    start = Partition.from_labels(blocks)
    columns = [np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                        dtype=np.int64)
               for pool in data.draw(st.lists(st.lists(CODE, min_size=1, max_size=4),
                                              max_size=5))]
    got = refine(start, columns)
    assert got.block_of.tolist() == refine_by_fold(start, columns).block_of.tolist()
    assert got.refines(start)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_partition_by_matches_fold_oracle(seed):
    rng = random.Random(seed)
    table = random_table(rng, max_n=24)
    view = random_view(rng, table, max_bits=62)
    attrs = random_attr_subset(rng, table, nonempty=False)
    got = partition_by(view, attrs)
    assert got.block_of.tolist() == partition_by_fold(view, attrs).block_of.tolist()


FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308,
                                    5e-324, -5e-324, 2.2250738585072014e-308, 0.0]))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(FINITE, min_size=1, max_size=12),
       bits=st.sampled_from([0, 1, 2, 7, 23, 52, 61]))
def test_bins_in_range_monotone_and_nested_over_finite_floats(values, bits):
    table = InformationTable.from_columns({"v": values, "d": ["x"] * len(values)}, "d")
    coarse, fine = (discretize(table, GranulationScheme({"v": b})).codes_for("v")
                    for b in (bits, bits + 1))
    assert ((0 <= coarse) & (coarse < 2**bits)).all()
    by_value = coarse[np.argsort(values, kind="stable")]
    assert (by_value[1:] >= by_value[:-1]).all()
    assert (fine >> 1 == coarse).all()
