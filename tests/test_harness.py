import dataclasses
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from granulens import (
    DataError,
    EvalReport,
    GranulationScheme,
    InformationTable,
    ModelRun,
    UniverseMismatchError,
    compare_runs,
    discretize,
    evaluate_run,
    load_run,
    load_table,
)

import granulens.harness

from helpers import (_exactly, evaluate_run_on_tokens, load_run_by_rows,
                     random_table, run_csv)


def perfect_rows(toy8, granule=None):
    labels = toy8.decision_labels
    if granule is None:
        return [[i, labels[i]] for i in range(8)]
    return [[i, labels[i], granule[i]] for i in range(8)]


A1_GRANULES = ["g0", "g0", "g1", "g1", "g2", "g2", "g2", "g2"]


class TestLoadRun:
    def test_perfect_run(self, toy8):
        run = load_run(run_csv(perfect_rows(toy8)), toy8, run_id="perfect")
        assert run.run_id == "perfect"
        assert run.granule is None
        assert evaluate_run(toy8, run).accuracy == 1.0

    def test_row_count_mismatch(self, toy8):
        rows = perfect_rows(toy8)[:7]
        with pytest.raises(DataError, match="row count"):
            load_run(run_csv(rows), toy8)
        with pytest.raises(UniverseMismatchError, match="does not cover the table's universe"):
            evaluate_run(toy8, ModelRun("short", ["0"] * 7))

    def test_granule_column(self, toy8):
        rows = perfect_rows(toy8, A1_GRANULES)
        run = load_run(run_csv(rows, header=("object_index", "predicted", "granule")), toy8)
        report = evaluate_run(toy8, run)
        assert report.block_count == 3

    def test_run_id_directive(self, toy8):
        text = run_csv(perfect_rows(toy8), run_id="dt-depth3", meta="max_depth=3")
        run = load_run(text, toy8, run_id="ignored")
        assert run.run_id == "dt-depth3"
        assert run.meta == "max_depth=3"

    def test_shuffled_indices_ok(self, toy8):
        rows = perfect_rows(toy8)
        random.Random(0).shuffle(rows)
        run = load_run(run_csv(rows), toy8)
        assert evaluate_run(toy8, run).accuracy == 1.0

    def test_utf8_bom_is_dropped(self, toy8):
        text = run_csv(perfect_rows(toy8), run_id="bom")
        run = load_run(b"\xef\xbb\xbf" + text.encode(), toy8)
        assert run.run_id == "bom"
        plain = run_csv(perfect_rows(toy8))
        assert load_run(b"\xef\xbb\xbf" + plain.encode(), toy8).predicted == toy8.decision_labels

    def test_undecodable_bytes_are_data_error(self, toy8):
        data = run_csv(perfect_rows(toy8)).encode().replace(b"0,0", b"0,\xff", 1)
        with pytest.raises(DataError, match="UTF-8"):
            load_run(data, toy8)

    def test_duplicate_and_out_of_range(self, toy8):
        rows = perfect_rows(toy8)
        rows[1][0] = 0
        with pytest.raises(DataError, match="duplicate"):
            load_run(run_csv(rows), toy8)
        rows = perfect_rows(toy8)
        rows[1][0] = 99
        with pytest.raises(DataError, match="out of range"):
            load_run(run_csv(rows), toy8)


class TestEvaluateRun:
    def test_perfect_with_a1_granules(self, toy8):
        rows = perfect_rows(toy8, A1_GRANULES)
        run = load_run(run_csv(rows, header=("object_index", "predicted", "granule")), toy8)
        report = evaluate_run(toy8, run)
        assert report.accuracy == 1.0
        assert report.model_conditional_bits == pytest.approx(0.25, abs=1e-9)
        assert report.model_boundary_fraction == 0.25
        assert report.block_count == 3
        assert not report.used_fallback_partition

    def test_majority_predictor_fallback(self, toy8):
        run = ModelRun("maj", ["1"] * 8)
        report = evaluate_run(toy8, run)
        assert report.accuracy == 0.625
        assert report.used_fallback_partition
        assert report.block_count == 1
        assert report.model_boundary_fraction == 1.0

    def test_memorization_signature(self, toy8):
        run = ModelRun("memo", list(toy8.decision_labels),
                       granule=[f"s{i}" for i in range(8)])
        report = evaluate_run(toy8, run)
        assert report.accuracy == 1.0
        assert report.model_conditional_bits == 0.0
        assert report.model_boundary_fraction == 0.0
        assert report.block_count == 8

    def test_fallback_equivalence(self, toy8):
        predicted = list(toy8.decision_labels)
        with_granule = evaluate_run(toy8, ModelRun("r", predicted, granule=list(predicted)))
        without = evaluate_run(toy8, ModelRun("r", predicted))
        assert with_granule.accuracy == without.accuracy
        assert with_granule.model_conditional_bits == without.model_conditional_bits
        assert with_granule.model_boundary_fraction == without.model_boundary_fraction
        assert with_granule.block_count == without.block_count


def _report(run_id, acc, bf, h=0.0, blocks=1):
    return EvalReport(run_id, acc, h, bf, 1.0 - bf, blocks, False)


class TestCompareRuns:
    def test_band_prefers_lower_boundary(self):
        verdict = compare_runs([_report("A", 0.80, 0.10), _report("B", 0.80, 0.30)])
        assert verdict.selected == "A"

    def test_outside_tolerance_band_loses(self):
        verdict = compare_runs([_report("A", 0.90, 0.40), _report("B", 0.80, 0.0)],
                               tolerance=0.005)
        assert verdict.selected == "A"
        assert [r.run_id for r in verdict.ranked] == ["A", "B"]
        assert not verdict.ranked[1].candidate

    def test_run_id_tie_break(self):
        verdict = compare_runs([_report("b", 0.8, 0.2), _report("a", 0.8, 0.2)])
        assert verdict.selected == "a"

    def test_entropy_first_flag(self):
        a = _report("A", 0.8, 0.10, h=0.9)
        b = _report("B", 0.8, 0.30, h=0.1)
        assert compare_runs([a, b]).selected == "A"
        assert compare_runs([a, b], rank_by="entropy-first").selected == "B"

    def test_order_invariance_and_band_soundness(self):
        """Run ids repeat and metrics tie: no argument order shows in the verdict."""
        rng = random.Random(17)
        for _ in range(200):
            value = rng.choice([rng.random, lambda: rng.choice([0.25, 0.5])])
            reports = [_report(f"r{rng.randrange(3)}", round(value(), 3),
                               round(value(), 3), h=round(value(), 3),
                               blocks=rng.randint(1, 3))
                       for _ in range(rng.randint(1, 8))]
            tolerance = rng.choice([0.0, 0.005, 0.5])
            rank_by = rng.choice(["boundary-first", "entropy-first"])
            verdict = compare_runs(reports, tolerance, rank_by)
            best = max(r.accuracy for r in reports)
            chosen = verdict.ranked[0]
            assert chosen.run_id == verdict.selected
            assert chosen.accuracy >= best - verdict.tolerance_used
            shuffled = reports[:]
            rng.shuffle(shuffled)
            assert compare_runs(shuffled, tolerance, rank_by) == verdict

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            compare_runs([])
        with pytest.raises(DataError, match="unknown rank_by 'accuracy-first'"):
            compare_runs([_report("A", 0.8, 0.1)], rank_by="accuracy-first")

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0, -1e-12])
    def test_tolerance_must_be_finite_and_nonnegative(self, tolerance):
        with pytest.raises(DataError, match="tolerance"):
            compare_runs([_report("A", 0.8, 0.1)], tolerance=tolerance)
        assert compare_runs([_report("A", 0.8, 0.1)], tolerance=0.0).selected == "A"


#: equal as dict keys in two groups, but with three distinct str texts
MIXED = [1, 1.0, True, "1", np.int64(1), np.str_("1")]


def _random_run(rng, table, extra=()):
    labels = table.decision_labels
    tokens = sorted(set(labels), key=repr) + ["other", *extra]
    predicted = [t if rng.random() < 0.7 else rng.choice(tokens) for t in labels]
    granule = None
    if rng.random() < 0.5:
        granule = [f"g{rng.randrange(rng.randint(1, table.n))}" for _ in range(table.n)]
        if extra and rng.random() < 0.5:
            granule = [rng.choice(extra) for _ in range(table.n)]
    return ModelRun("r", predicted, granule)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9), mixed=st.booleans())
def test_evaluate_run_matches_token_oracle(seed, mixed):
    rng = random.Random(seed)
    table = random_table(rng, max_n=40, max_classes=5)
    labels = None
    if mixed:
        labels = [rng.choice(MIXED + ["0"]) for _ in range(table.n)]
        table = InformationTable.from_columns(
            {"c": [rng.choice("uv") for _ in labels], "d": labels}, "d")
    for _ in range(3):
        run = _random_run(rng, table, MIXED if mixed else ())
        assert evaluate_run(table, run) == evaluate_run_on_tokens(table, run, labels)


RUN_TOKENS = ["a b", " x y ", "\u00e9t\u00e9", "\u65e5\u672c \u03a9"]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**9), granule=st.booleans(), quoted=st.booleans())
def test_evaluate_loaded_run_matches_token_oracle(seed, granule, quoted):
    """A shuffled run file, read typed, or by the csv reader when a cell is quoted."""
    rng = random.Random(seed)
    table = random_table(rng, max_n=40, max_classes=5)
    labels = table.decision_labels
    pool = sorted(set(labels)) + RUN_TOKENS
    rows = [[str(i), t if rng.random() < 0.6 else rng.choice(pool)] for i, t in enumerate(labels)]
    if granule:
        for row in rows:
            row.append(rng.choice(RUN_TOKENS + [f"g{rng.randrange(table.n)}"]))
    rng.shuffle(rows)
    if quoted:  # any quote sends the text to the csv reader
        picked = rng.choice(rows)
        picked[1] = f'"{picked[1]}"'
    header = ["object_index", "predicted", "granule"][:2 + granule]
    text = "\n".join(",".join(row) for row in [header] + rows) + "\n"
    run = load_run(text, table)
    by_rows = load_run_by_rows(text, table)
    assert run == by_rows
    assert evaluate_run(table, run) == evaluate_run_on_tokens(table, by_rows)
    assert len(set(map(id, run.predicted))) == len(set(run.predicted))  # one object per token


def test_loaded_run_is_scored_on_its_codes(monkeypatch, toy8_csv):
    """evaluate_run passes over no token list of a loaded run, nor over the
    decision labels when they are str: their ids are the decision codes."""
    table = load_table(toy8_csv, "d")
    rows = perfect_rows(table, A1_GRANULES)
    run = load_run(run_csv(rows, header=("object_index", "predicted", "granule")), table)
    table.decision_codes  # coded for the partition count, as before
    seen = []
    for mod in [m for name, m in sys.modules.items()
                if name.startswith("granulens.") and hasattr(m, "factorize")]:
        orig = mod.factorize

        def counting(tokens, orig=orig):
            if not (isinstance(tokens, np.ndarray) and tokens.dtype.kind in "iu"):
                seen.append(list(tokens))
            return orig(tokens)
        monkeypatch.setattr(mod, "factorize", counting)
    reports = [evaluate_run(table, run) for _ in range(3)]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].accuracy == 1.0 and reports[0].block_count == 3
    assert seen == []


@pytest.mark.parametrize("index", ["+7", " 7", "0" * 18 + "7"])
def test_run_for_the_csv_path_codes_no_field_by_bytes(monkeypatch, toy8, index):
    """An object_index outside 1-18 ASCII digits sends the run to the csv path
    before any of its text columns is coded from bytes."""
    rows = perfect_rows(toy8, A1_GRANULES)
    rows[-1][0] = index
    text = run_csv(rows, header=("object_index", "predicted", "granule"))
    exact = _exactly(load_run, text, toy8)
    calls = []
    orig = granulens.harness.code_fields
    monkeypatch.setattr(granulens.harness, "code_fields",
                        lambda *args: calls.append(args) or orig(*args))
    run = load_run(text, toy8)
    assert calls == []
    assert run == exact
    (texts, codes, blocks), (want_texts, want_codes, want_blocks) = run._codes, exact._codes
    assert texts == want_texts
    assert codes.tolist() == want_codes.tolist() and blocks.tolist() == want_blocks.tolist()


def test_replaced_run_is_coded_again(toy8):
    """A run made by dataclasses.replace does not keep the codes of the one it copies."""
    run = load_run(run_csv(perfect_rows(toy8, A1_GRANULES),
                           header=("object_index", "predicted", "granule")), toy8)
    assert evaluate_run(toy8, run).block_count == 3
    for changed in (dataclasses.replace(run, granule=None),  # 2 blocks
                    dataclasses.replace(run, predicted=["1"] * 8)):  # accuracy 0.625
        assert evaluate_run(toy8, changed) == evaluate_run_on_tokens(toy8, changed)


def test_decision_factorized_once_per_table(monkeypatch, toy8_csv):
    """The table codes its categorical columns as it loads: after that, discretize
    factorizes nothing, and evaluating a run never factorizes the decision labels."""
    table = load_table(toy8_csv, "d")
    seen = []
    for mod in [m for name, m in sys.modules.items()
                if name.startswith("granulens.") and hasattr(m, "factorize")]:
        orig = mod.factorize

        def counting(tokens, orig=orig):
            seen.append(tokens)
            return orig(tokens)
        monkeypatch.setattr(mod, "factorize", counting)
    view = discretize(table, GranulationScheme.uniform(table, 2))
    assert seen == [] and view.codes_for("d") is table.decision_codes
    run = ModelRun("r", list(table.decision_labels), granule=[str(i % 3) for i in range(8)])
    reports = [evaluate_run(table, run) for _ in range(3)]
    assert reports[0] == reports[1] == reports[2]
    # the codes are returned as they are; the labels are never coded again
    assert not any(t is table.decision_labels for t in seen)


#: decision labels whose str differ although some are equal: 1 == 1.0 == True
LABELS = ["a", np.str_("a"), "b", np.str_("b"), "1", 1, 1.0, True, False, 0, 2.5, "2.5", "True"]
LABEL = st.sampled_from(LABELS)


@settings(max_examples=300, deadline=None)
@given(st.lists(LABEL, min_size=1, max_size=12), st.randoms(use_true_random=False))
def test_decision_texts_match_str_oracle(labels, rnd):
    """Accuracy compares the str of each label with the prediction: labels that are
    equal but print differently, or differ but print alike, are scored by their str."""
    table = InformationTable.from_columns({"d": labels}, "d")
    pool = [str(label) for label in LABELS] + ["x"]
    run = ModelRun("r", [rnd.choice(pool) for _ in labels])
    assert evaluate_run(table, run) == evaluate_run_on_tokens(table, run, labels)
    assert [(type(a), a) for a in table.decision_labels] == [(type(a), a) for a in labels]


def test_equal_labels_keep_their_own_str():
    """1 == 1.0 == True are one decision class, but each row's label keeps its type,
    and a prediction is scored against the str of its own row's label."""
    table = InformationTable.from_columns({"c": [1.0, True, "u"], "d": [1, True, 1.0]},
                                          "d", kinds={"c": "categorical"})
    assert [type(a) for a in table.decision_labels] == [int, bool, float]
    assert [type(a) for a in table.column("c")] == [float, bool, str]
    assert table.decision_codes.tolist() == [0, 0, 0]
    assert evaluate_run(table, ModelRun("r", ["1", "1", "1.0"])).accuracy == 2 / 3


def test_str_subclass_label_is_scored_by_its_own_str():
    """A decision cell equal to another but printing differently is scored by its own
    str, even where every token the table keeps is a plain str."""
    class S(str):
        def __str__(self):
            return "x"

    table = InformationTable.from_columns({"a": ["p", "q"], "d": ["a", S("a")]}, "d")
    assert evaluate_run(table, ModelRun("r", ["a", "x"])).accuracy == 1.0
    assert evaluate_run(table, ModelRun("r", ["a", "a"])).accuracy == 0.5
