import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from granulens import (
    DataError,
    EvalReport,
    ModelRun,
    compare_runs,
    evaluate_run,
    load_run,
    load_table,
)

from helpers import evaluate_run_on_tokens, random_table, run_csv


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
        rng = random.Random(17)
        for _ in range(50):
            reports = [_report(f"r{i}", round(rng.random(), 3),
                               round(rng.random(), 3), h=round(rng.random(), 3),
                               blocks=rng.randint(1, 50))
                       for i in range(rng.randint(1, 8))]
            verdict = compare_runs(reports)
            best = max(r.accuracy for r in reports)
            chosen = next(r for r in reports if r.run_id == verdict.selected)
            assert chosen.accuracy >= best - verdict.tolerance_used
            shuffled = reports[:]
            rng.shuffle(shuffled)
            assert compare_runs(shuffled) == verdict

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            compare_runs([])

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0, -1e-12])
    def test_tolerance_must_be_finite_and_nonnegative(self, tolerance):
        with pytest.raises(DataError, match="tolerance"):
            compare_runs([_report("A", 0.8, 0.1)], tolerance=tolerance)
        assert compare_runs([_report("A", 0.8, 0.1)], tolerance=0.0).selected == "A"


def _random_run(rng, table):
    labels = table.decision_labels
    tokens = sorted(set(labels)) + ["other"]
    predicted = [t if rng.random() < 0.7 else rng.choice(tokens) for t in labels]
    granule = None
    if rng.random() < 0.5:
        granule = [f"g{rng.randrange(rng.randint(1, table.n))}" for _ in range(table.n)]
    return ModelRun("r", predicted, granule)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_evaluate_run_matches_token_oracle(seed):
    rng = random.Random(seed)
    table = random_table(rng, max_n=40, max_classes=5)
    for _ in range(3):
        run = _random_run(rng, table)
        assert evaluate_run(table, run) == evaluate_run_on_tokens(table, run)


def test_decision_factorized_once_per_table(monkeypatch, toy8_csv):
    table = load_table(toy8_csv, "d")
    seen = []
    for mod in [m for name, m in sys.modules.items()
                if name.startswith("granulens.") and hasattr(m, "factorize")]:
        orig = mod.factorize

        def counting(tokens, orig=orig):
            seen.append(tokens is table.decision_labels)
            return orig(tokens)
        monkeypatch.setattr(mod, "factorize", counting)
    run = ModelRun("r", list(table.decision_labels), granule=[str(i % 3) for i in range(8)])
    reports = [evaluate_run(table, run) for _ in range(3)]
    assert reports[0] == reports[1] == reports[2]
    assert seen.count(True) == 1
