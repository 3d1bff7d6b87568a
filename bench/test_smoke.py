"""Smoke test of the benchmark itself on tiny inputs.

Run from the checkout root with: python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = 0.01

# counts that must be non-zero where the layer runs
LAYER_RUNS = {
    "sweep-saturating": ["table.cells_parsed", "table.discretize_calls",
                         "table.partition_by_calls", "table.blocks_built",
                         "table.factorize_calls", "sweep.levels_computed",
                         "sweep.levels_returned", "rough.region_fractions_calls",
                         "entropy.granular_entropy_calls"],
    "reduce": ["reduction.partitions_built", "entropy.conditional_calls",
               "table.factorize_calls"],
    "compare": ["harness.run_rows_parsed", "entropy.granular_entropy_calls"],
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = bench.run(workload, seed=3, seconds=0.1, trace=bool(trace), scale=TINY)
    result, record = out["result"], out["record"]
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert len(record["digests"]) == 1  # traced and untraced outputs are identical
    assert record["env"]["threads"] == 2 and record["env"]["inputs"]
    if trace:
        for name in LAYER_RUNS[workload]:
            assert result["metrics"][name]["value"] > 0, name


# Runs the real CLI, then corrupts its --out file the way a wrong program would.
TAMPER = r"""
import json, sys
from granulens.cli import run_cli
kind, argv = sys.argv[1], sys.argv[2:]
rc = run_cli(argv)
path = argv[argv.index("--out") + 1]
with open(path) as fh:
    text = fh.read()
if kind == "curve":  # nudge H at the middle level, which the oracle recomputes
    rows = text.splitlines()
    mid = 1 + (len(rows) - 1) // 2
    cells = rows[mid].split(",")
    cells[2] = f"{float(cells[2]) - 1e-6:.9f}"
    rows[mid] = ",".join(cells)
    text = "\n".join(rows) + "\n"
else:
    doc = json.loads(text)
    if kind == "reduct":
        doc["selected"].pop()
    elif kind == "selected":
        doc["selected"] = doc["ranked"][1]["run_id"]
    elif kind == "accuracy":
        doc["ranked"][-1]["accuracy"] += 1e-6
    text = json.dumps(doc)
with open(path, "w") as fh:
    fh.write(text)
sys.exit(rc)
"""


@pytest.mark.parametrize("workload, kind", [
    ("sweep-saturating", "curve"), ("reduce", "reduct"),
    ("compare", "selected"), ("compare", "accuracy")])
def test_tampered_output_fails_the_check(workload, kind):
    launcher = [sys.executable, "-c", TAMPER, kind]
    out = bench.run(workload, seed=5, seconds=0.1, trace=False, scale=TINY,
                    launcher=launcher)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_rate"]["value"] == 0


def test_fails_without_the_program():
    bare = bench.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "reduce", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
