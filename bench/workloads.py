"""Benchmark workloads: seeded input generators and numpy output oracles.

Each workload writes its CSV inputs into a work directory, names the
granulens CLI arguments that run on them, and checks the files the command
writes. The checks recompute the expected results with numpy from the
generated values; they never call the library.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

THREADS = 2  # passed as --threads to every sweep; at most nproc on a 2-core host
TOL = 1e-9  # outputs are printed with 9 decimals

CURVE_HEADER = ["bits_level", "block_count", "conditional_bits",
                "normalized_conditional", "boundary_fraction", "gamma"]


@dataclass
class Prepared:
    """One generated workload instance, ready to run as a CLI command."""

    argv: list[str]  # granulens arguments, without the program name
    outputs: dict[str, Path]  # files the command writes, by label
    check: Callable[[dict[str, bytes]], list[str]]  # output bytes -> problems
    inputs: list[dict]  # bytes/rows/columns per input file
    threads: int = 1  # threads the command computes on


def _write_csv(path: Path, header: list[str], columns: list[list[str]]) -> dict:
    """Write string columns as CSV; return the input record for the environment."""
    body = "\n".join(",".join(row) for row in zip(*columns))
    data = (",".join(header) + "\n" + body + "\n").encode()
    path.write_bytes(data)
    return {"file": path.name, "bytes": len(data), "rows": len(columns[0]),
            "columns": len(header)}


def _floats(values: np.ndarray, missing: np.ndarray | None = None) -> list[str]:
    """Shortest round-trip text per value, so the oracle sees the parsed floats."""
    out = [repr(v) for v in values.tolist()]
    if missing is not None:
        for i in np.flatnonzero(missing).tolist():
            out[i] = ""
    return out


# --- oracle -----------------------------------------------------------------

def bin_codes(values: np.ndarray, bits: int) -> np.ndarray:
    """Equal-width bin codes over the observed range; NaN (missing) -> 2**bits."""
    nbins = 1 << bits
    out = np.full(len(values), nbins, dtype=np.int64)
    ok = ~np.isnan(values)
    lo, hi = values[ok].min(), values[ok].max()
    if lo == hi:
        out[ok] = 0
    else:
        t = (values[ok] - lo) / (hi - lo)
        out[ok] = np.clip(np.floor(t * nbins).astype(np.int64), 0, nbins - 1)
    return out


def partition_stats(codes: np.ndarray, labels: np.ndarray) -> tuple[int, float, float]:
    """(block count, H(D|P) in bits, boundary fraction) of the rows of ``codes``."""
    n = len(labels)
    if codes.shape[1] == 0:
        block = np.zeros(n, dtype=np.int64)
    else:
        _, block = np.unique(codes, axis=0, return_inverse=True)
        block = block.ravel()
    k = int(labels.max()) + 1
    counts = np.bincount(block * k + labels, minlength=(block.max() + 1) * k).reshape(-1, k)
    sizes = counts.sum(axis=1)
    nz = counts > 0
    ratio = np.where(nz, counts, 1) / np.maximum(sizes, 1)[:, None]
    h = float(-(counts * np.log2(ratio)).sum() / n)
    pure = nz.sum(axis=1) == 1
    mixed = int(sizes[~pure].sum())
    return int((sizes > 0).sum()), h, mixed / n


def _parse_curve(data: bytes) -> tuple[list[list[float]], list[str]]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or rows[0] != CURVE_HEADER:
        return [], ["curve header mismatch"]
    try:
        pts = [[int(r[0]), int(r[1])] + [float(x) for x in r[2:]] for r in rows[1:] if r]
    except (ValueError, IndexError):
        return [], ["unparsable curve row"]
    if not pts or any(len(p) != len(CURVE_HEADER) for p in pts):
        return [], ["empty or ragged curve"]
    return pts, []


def check_curve(data: bytes, svg: bytes, level_codes: Callable[[int], np.ndarray],
                labels: np.ndarray, bits_from: int, bits_to: int) -> list[str]:
    """Invariants of a sweep curve that saturates, plus oracle recomputation.

    ``level_codes(b)`` gives the (n, attrs) bin-code matrix at level b. The
    curve must end on the first level whose blocks are all single rows.
    """
    pts, problems = _parse_curve(data)
    if problems:
        return problems
    n = len(labels)
    k = int(labels.max()) + 1
    log2k = math.log2(k) if k >= 2 else 0.0
    levels = [p[0] for p in pts]
    if levels != list(range(bits_from, bits_from + len(pts))) or levels[-1] > bits_to:
        problems.append(f"levels {levels} not a prefix of {bits_from}..{bits_to}")
    for (_, blocks, h, hn, bf, gamma) in pts:
        if h > bf * log2k + TOL:
            problems.append(f"entropy {h} above BF*log2k {bf * log2k}")
        if abs(gamma + bf - 1) > 2 * TOL:
            problems.append(f"gamma {gamma} + BF {bf} != 1")
        if log2k and abs(hn - h / log2k) > 2 * TOL:
            problems.append(f"normalized {hn} != H/log2k")
    for prev, cur in zip(pts, pts[1:]):
        if cur[1] < prev[1] or cur[2] > prev[2] + TOL or cur[4] > prev[4] + TOL:
            problems.append(f"curve not monotone at b={cur[0]}")
    full = [p[0] for p in pts if p[1] == n]
    if full != [levels[-1]]:
        problems.append(f"curve should end on its first saturated level, got {full}")

    oracle_levels = sorted({levels[0], levels[len(levels) // 2], levels[-1]})
    for b in oracle_levels:
        blocks, h, bf = partition_stats(level_codes(b), labels)
        pt = pts[levels.index(b)]
        if pt[1] != blocks or abs(pt[2] - h) > TOL or abs(pt[4] - bf) > TOL:
            problems.append(f"b={b}: got blocks={pt[1]} H={pt[2]} BF={pt[4]}, "
                            f"oracle blocks={blocks} H={h:.9f} BF={bf:.9f}")
    if len(levels) > 1:
        blocks, _, _ = partition_stats(level_codes(levels[-2]), labels)
        if blocks == n:
            problems.append(f"oracle saturates before b={levels[-1]}")
    try:
        root = ET.fromstring(svg)
        if not root.tag.endswith("svg"):
            problems.append("svg root element is not <svg>")
    except ET.ParseError as exc:
        problems.append(f"svg does not parse: {exc}")
    return problems


# --- workloads --------------------------------------------------------------

def sweep_saturating(rng: np.random.Generator, work: Path, scale: float) -> Prepared:
    """Distinct rows, 4 normal attributes (5% missing) + 2 categorical, logistic decision."""
    n = max(64, int(50000 * scale))
    x = np.round(rng.normal(size=(n, 4)), 6)
    missing = rng.random((n, 4)) < 0.05
    missing[missing.sum(axis=1) > 2] = False  # keep rows distinct: at most 2 gaps
    c0 = rng.integers(0, 6, size=n)
    c1 = rng.integers(0, 4, size=n)
    filled = np.where(missing, 0.0, x)
    logit = 1.2 * filled[:, 0] - 0.8 * filled[:, 1] + 0.5 * filled[:, 2] + 0.3 * (c0 - 2.5)
    labels = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(np.int64)
    xs = np.where(missing, np.nan, x)
    names = ["x0", "x1", "x2", "x3", "c0", "c1"]
    table = work / "saturating.csv"
    rec = _write_csv(table, names + ["y"],
                     [_floats(x[:, j], missing[:, j]) for j in range(4)]
                     + [[f"c{v}" for v in c0.tolist()], [f"g{v}" for v in c1.tolist()],
                        [("no", "yes")[v] for v in labels.tolist()]])
    out, svg = work / "curve.csv", work / "chart.svg"

    def codes(b):
        return np.column_stack([bin_codes(xs[:, j], b) for j in range(4)] + [c0, c1])

    def check(got):
        return check_curve(got["curve"], got["svg"], codes, labels, 0, 24)

    argv = ["sweep", str(table), "--decision", "y", "--attrs", ",".join(names),
            "--bits", "0..24", "--out", str(out), "--svg", str(svg),
            "--threads", str(THREADS)]
    return Prepared(argv, {"curve": out, "svg": svg}, check, [rec], THREADS)


def reduce(rng: np.random.Generator, work: Path, scale: float) -> Prepared:
    """Consistent 20-attribute table whose decision is planted on 3 attributes at b=4."""
    n, m, bits = max(64, int(20000 * scale)), 20, 4
    values = np.round(rng.uniform(size=(n, m)), 6)
    values[0], values[1] = 0.0, 1.0  # pin the observed range to [0, 1]
    codes = np.column_stack([bin_codes(values[:, j], bits) for j in range(m)])
    planted = rng.choice(m, size=3, replace=False)
    labels = (codes[:, planted].sum(axis=1) > 22).astype(np.int64)
    names = [f"a{j}" for j in range(m)]
    table = work / "reduce.csv"
    rec = _write_csv(table, names + ["d"],
                     [_floats(values[:, j]) for j in range(m)]
                     + [[str(v) for v in labels.tolist()]])
    out = work / "reduct.json"

    def gamma(cols):
        _, _, bf = partition_stats(codes[:, cols], labels)
        return 1 - bf

    def check(got):
        try:
            rep = json.loads(got["reduct"])
            sel = [names.index(a) for a in rep["selected"]]
            g_sel, g_full = rep["gamma_selected"], rep["gamma_full"]
            ranked = sorted(name for name, _ in rep["entropy_rank"])
        except (ValueError, KeyError, TypeError):
            return ["reduct JSON malformed"]
        problems = []
        if (g_sel, g_full) != (1.0, 1.0):
            problems.append(f"reported gamma {g_sel} / full {g_full}, expected 1 / 1")
        if not sel or gamma(sel) != 1:
            problems.append(f"oracle gamma of {rep['selected']} is below 1")
        for a in sel:
            if gamma([s for s in sel if s != a]) >= 1:
                problems.append(f"{names[a]} is redundant in {rep['selected']}")
        if ranked != sorted(names):
            problems.append("entropy ranking does not list every attribute once")
        return problems

    argv = ["reduce", str(table), "--decision", "d", "--bits", str(bits),
            "--out", str(out)]
    return Prepared(argv, {"reduct": out}, check, [rec])


def compare(rng: np.random.Generator, work: Path, scale: float) -> Prepared:
    """Narrow mixed table plus 8 shuffled run files, accuracies 2% apart."""
    n, runs = max(64, int(50000 * scale)), 8
    classes = np.array(["A", "B", "C"])
    labels = rng.integers(0, 3, size=n)
    x0 = np.round(rng.normal(10, 3, size=n), 4)
    x1 = np.round(rng.uniform(0, 1, size=n), 5)
    gaps = rng.random((n, 2)) < 0.05
    c0 = rng.integers(0, 5, size=n)
    c1 = rng.integers(0, 3, size=n)
    table = work / "compare.csv"
    recs = [_write_csv(table, ["x0", "x1", "c0", "c1", "d"],
                       [_floats(x0, gaps[:, 0]), _floats(x1, gaps[:, 1]),
                        [f"k{v}" for v in c0.tolist()],
                        [("lo", "mid", "hi")[v] for v in c1.tolist()],
                        classes[labels].tolist()])]
    order = rng.permutation(runs)  # order[0] is the planted best run
    correct_counts = {}
    paths = []
    for rank, r in enumerate(order.tolist()):
        run_id = f"run{r}"
        k = int(round((0.92 - 0.02 * rank) * n))
        correct_counts[run_id] = k
        wrong = np.ones(n, dtype=bool)
        wrong[rng.choice(n, size=k, replace=False)] = False
        pred = np.where(wrong, (labels + rng.integers(1, 3, size=n)) % 3, labels)
        rows = rng.permutation(n)
        cols = [[str(i) for i in rows.tolist()], classes[pred[rows]].tolist()]
        header = ["object_index", "predicted"]
        if r % 2 == 0:  # half the runs name their own granules
            header.append("granule")
            cols.append([f"g{v}" for v in ((pred * 97 + labels * 31 + c0)[rows] % 128).tolist()])
        path = work / f"{run_id}.csv"
        recs.append(_write_csv(path, header, cols))
        paths.append(path)
    best = f"run{order[0]}"
    out = work / "verdict.json"

    def check(got):
        try:
            rep = json.loads(got["verdict"])
            selected = rep["selected"]
            acc = {r["run_id"]: r["accuracy"] for r in rep["ranked"]}
        except (ValueError, KeyError, TypeError):
            return ["verdict JSON malformed"]
        problems = []
        if selected != best:
            problems.append(f"selected {selected}, planted best {best}")
        if sorted(acc) != sorted(correct_counts):
            problems.append(f"ranked runs {sorted(acc)} != {sorted(correct_counts)}")
        for run_id, k in correct_counts.items():
            if run_id in acc and abs(acc[run_id] - k / n) > TOL:
                problems.append(f"{run_id} accuracy {acc[run_id]} != {k}/{n}")
        return problems

    argv = ["compare", str(table), *map(str, paths), "--decision", "d",
            "--out", str(out)]
    return Prepared(argv, {"verdict": out}, check, recs)


WORKLOADS: dict[str, Callable[[np.random.Generator, Path, float], Prepared]] = {
    "sweep-saturating": sweep_saturating,
    "reduce": reduce,
    "compare": compare,
}
