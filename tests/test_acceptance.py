"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import random
import time

import numpy as np
import pytest

from granulens import (
    ConceptSet,
    Distribution,
    GranulationScheme,
    InformationTable,
    approximate,
    compare_runs,
    conditional,
    convergence_summary,
    curve_to_csv,
    dependency,
    discretize,
    granular_entropy,
    greedy_reduct,
    joint,
    partition_by,
    regions,
    shannon,
    sweep,
)
from granulens.harness import EvalReport

from helpers import (
    brute_regions,
    brute_lower,
    brute_upper,
    code_tuples,
    exhaustive_reducts,
    random_attr_subset,
    random_table,
    random_view,
)
from test_reduction import _consistent_table

TOL = 1e-9


def _passed(num, detail):
    print(f"ACCEPTANCE {num}: PASS - {detail}")


def test_criterion_1_oracle_equivalence():
    rng = random.Random(1001)
    start = time.perf_counter()
    for _ in range(500):
        table = random_table(rng, max_n=32, max_attrs=5, max_classes=4)
        view = random_view(rng, table)
        attrs = random_attr_subset(rng, table, nonempty=False)
        part = partition_by(view, attrs)
        tuples = code_tuples(view, attrs)

        concept = {i for i in range(table.n) if rng.random() < 0.5}
        approx = approximate(part, ConceptSet(frozenset(concept), table.n))
        assert approx.lower == brute_lower(tuples, concept)
        assert approx.upper == brute_upper(tuples, concept)
        assert approx.boundary == brute_upper(tuples, concept) - brute_lower(tuples, concept)

        rep = regions(part, table.decision_labels)
        per_class, positive, boundary, universe = brute_regions(tuples, table.decision_labels)
        assert list(rep.per_class) == list(per_class)  # first-occurrence class order
        assert list(rep.negative_by_class) == list(per_class)
        for cls, (lo, up, bn) in per_class.items():
            assert rep.per_class[cls].lower == lo
            assert rep.per_class[cls].upper == up
            assert rep.per_class[cls].boundary == bn
            assert rep.negative_by_class[cls] == universe - up
        assert rep.positive == positive
        assert rep.boundary_overall == boundary
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(1, f"500 random tables match the set-builder oracle exactly ({elapsed:.2f}s)")


def test_criterion_2_entropy_boundary_bound_and_zero_equivalence():
    rng = random.Random(1002)
    start = time.perf_counter()
    for _ in range(1000):
        table = random_table(rng, max_n=32, max_attrs=5, max_classes=4)
        view = random_view(rng, table)
        attrs = random_attr_subset(rng, table, nonempty=False)
        part = partition_by(view, attrs)
        rep = granular_entropy(part, table.decision_labels)
        gamma = dependency(part, table.decision_labels)
        if rep.class_count >= 2:
            assert rep.conditional_bits <= float(rep.boundary_fraction) * math.log2(rep.class_count) + TOL
        zero_h = rep.conditional_bits < 1e-12
        zero_bf = rep.boundary_fraction == 0
        assert zero_h == zero_bf == (gamma == 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(2, f"bound and zero-equivalence on 1000 pairs ({elapsed:.2f}s)")


def test_criterion_3_refinement_monotonicity():
    rng = random.Random(1003)
    start = time.perf_counter()
    for _ in range(500):
        table = random_table(rng, max_n=32, max_attrs=5, max_classes=4)
        numeric = [a.name for a in table.condition_attributes if a.kind == "numeric"]
        attrs = [a.name for a in table.condition_attributes]
        b = rng.randint(0, 4)
        bp = rng.randint(b + 1, b + 3)
        coarse = partition_by(
            discretize(table, GranulationScheme({a: b for a in numeric})), attrs)
        fine = partition_by(
            discretize(table, GranulationScheme({a: bp for a in numeric})), attrs)
        assert fine.refines(coarse)
        labels = table.decision_labels
        assert conditional(labels, fine) <= conditional(labels, coarse) + TOL
        bf_fine = regions(fine, labels).boundary_fraction
        bf_coarse = regions(coarse, labels).boundary_fraction
        assert bf_fine <= bf_coarse
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(3, f"refinement monotonicity on 500 cases ({elapsed:.2f}s)")


def test_criterion_4_toy8_golden_values(toy8):
    curve = sweep(toy8, ["a2"], 0, 3)
    expected = [(0.954434, 1.0), (0.405639, 0.5), (0.25, 0.25), (0.0, 0.0)]
    assert len(curve.points) == 4
    for point, (h, bf) in zip(curve.points, expected):
        assert point.conditional_bits == pytest.approx(h, abs=1e-6)
        assert point.boundary_fraction == pytest.approx(bf, abs=1e-6)
    _passed(4, "TOY-8 sweep matches the hand-derived golden values within 1e-6")


def test_criterion_5_titanic_shaped_convergence(titanic):
    attrs = [a.name for a in titanic.condition_attributes]
    start = time.perf_counter()
    curve = sweep(titanic, attrs, 0, 8)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    for prev, cur in zip(curve.points, curve.points[1:]):
        assert cur.conditional_bits <= prev.conditional_bits + TOL
        assert cur.boundary_fraction <= prev.boundary_fraction + TOL
    summary = convergence_summary(curve)
    assert summary.monotonicity_violations == 0
    assert summary.terminal_boundary <= 0.05
    _passed(5, f"200-row Titanic-shaped sweep converges, terminal BF "
               f"{summary.terminal_boundary:.3f} ({elapsed:.2f}s)")


def test_criterion_6_reduct_correctness():
    rng = random.Random(1006)
    start = time.perf_counter()
    for _ in range(200):
        table = _consistent_table(rng, max_n=24, max_attrs=8)
        view = discretize(table, GranulationScheme())
        labels = table.decision_labels
        result = greedy_reduct(view, labels)
        assert result.gamma_selected == result.gamma_full == 1
        for name in result.selected:
            remaining = [a for a in result.selected if a != name]
            assert dependency(partition_by(view, remaining), labels) < 1
        reducts = exhaustive_reducts(view, labels, max_attrs=8)
        assert any(set(r) <= set(result.selected) for r in reducts)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(6, f"greedy reduct sound and oracle-contained on 200 tables ({elapsed:.2f}s)")


def test_criterion_7_chain_rule():
    rng = random.Random(1007)
    for _ in range(1000):
        table = random_table(rng, max_n=24)
        view = random_view(rng, table)
        attrs = random_attr_subset(rng, table, nonempty=False)
        part = partition_by(view, attrs)
        labels = table.decision_labels
        block_ids = part.block_of.tolist()
        direct = conditional(labels, part)
        chain = joint(labels, block_ids) - shannon(Distribution.from_tokens(block_ids))
        assert abs(direct - chain) <= TOL
    _passed(7, "H(D|P) = H(D,P) - H(P) within 1e-9 on 1000 random inputs")


def test_criterion_8_verdict_determinism_and_soundness():
    def _report(run_id, acc, bf, h=0.0, blocks=1):
        return EvalReport(run_id, acc, h, bf, 1.0 - bf, blocks, False)

    # worked examples
    assert compare_runs([_report("A", 0.80, 0.10), _report("B", 0.80, 0.30)]).selected == "A"
    assert compare_runs([_report("A", 0.90, 0.40), _report("B", 0.80, 0.0)],
                        tolerance=0.005).selected == "A"
    assert compare_runs([_report("b", 0.8, 0.2), _report("a", 0.8, 0.2)]).selected == "a"

    rng = random.Random(1008)
    for _ in range(300):
        reports = [_report(f"r{i}", round(rng.random(), 3), round(rng.random(), 3),
                           h=round(rng.random(), 3), blocks=rng.randint(1, 40))
                   for i in range(rng.randint(1, 10))]
        verdict = compare_runs(reports)
        best = max(r.accuracy for r in reports)
        chosen = next(r for r in reports if r.run_id == verdict.selected)
        assert chosen.accuracy >= best - verdict.tolerance_used
        shuffled = reports[:]
        rng.shuffle(shuffled)
        assert compare_runs(shuffled) == verdict
    _passed(8, "verdicts deterministic, order-invariant, inside the tolerance band")


def test_criterion_9_performance_and_parallel_determinism():
    rng = np.random.default_rng(1009)
    n_unique, copies, m = 5000, 10, 20
    base = rng.uniform(0, 100, size=(n_unique, m))
    values = np.repeat(base, copies, axis=0)  # duplicates keep the sweep unsaturated
    perm = rng.permutation(n_unique * copies)
    values = values[perm]
    columns = {f"v{j}": values[:, j] for j in range(m)}
    columns["d"] = [str(rng.integers(0, 2)) for _ in range(n_unique * copies)]
    table = InformationTable.from_columns(columns, "d", table_id="perf50k")
    attrs = [f"v{j}" for j in range(m)]

    start = time.perf_counter()
    serial = sweep(table, attrs, 0, 10, threads=1)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert len(serial.points) == 11
    assert not serial.saturated

    parallel = sweep(table, attrs, 0, 10, threads=4)
    assert curve_to_csv(parallel).encode() == curve_to_csv(serial).encode()
    _passed(9, f"50k x 20 sweep bits 0..10 in {elapsed:.2f}s; parallel output byte-identical")
