"""Shared generators and literal set-builder oracles for rough approximations.

The oracles here deliberately stay brute-force double loops over the
universe so they remain independent of the library's vectorized paths.
The partition oracles are the per-attribute ``np.unique`` fold and the
sweep's packed-key refinement that ``table.refine`` replaced. The sweep
oracle rebuilds every level from scratch with the fold instead of refining.
The reduct and run-evaluation oracles count on the decision's token labels
and build a separate partition for each metric, or one refined partition
per greedy candidate. The ranking oracle builds one partition per attribute
and takes its conditional entropy. ``exhaustive_reducts`` tries every
attribute subset: the oracle for reduct soundness. The relabel oracle ranks
integer keys with ``np.unique`` and orders the ranks by an argsort of their
first rows. The granular-entropy oracle builds the per-block list eagerly and sums H(D|P) with np.dot. The
CSV loader oracles walk the input row by row and cell by cell, and
``_exactly`` runs a loader with only its csv path, and ``_exact_reads`` counts
the times a loader reads by it. ``read_columns_chunked`` is the csv path's
reader as it was before its one pass: it transposed 256 records at a time.
``payload_by_hand`` builds each report's ``--out`` JSON payload the way the
CLI did before one converter built them all: field by field, rounding each
float and Fraction with ``_r9``.
"""

import csv
import io
import math
import random
import re
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations, islice
from unittest import mock

import numpy as np

from granulens import (MISSING, AttributeSpec, DataError, EvalReport,
                       GranularEntropyReport, GranulationScheme, InformationTable,
                       ModelRun, Partition, ReductResult, RegionReport,
                       RoughApproximation, SweepPoint, conditional, dependency,
                       discretize, granular_entropy, load_table)
from granulens.reader import encoded, read_columns
from granulens.entropy import _conditional_bits
from granulens.reduction import ReductStep
from granulens.rough import _label_matrix, region_fractions
from granulens.table import factorize, partition_by, refine


def random_table(rng: random.Random, max_n=32, max_attrs=5, max_classes=4,
                 missing_prob=0.1):
    """Random small table via the CSV loader; mixes numeric and categorical."""
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_attrs)
    k = rng.randint(1, max_classes)
    names = [f"c{i}" for i in range(m)]
    kinds = [rng.choice(["numeric", "categorical"]) for _ in range(m)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names + ["d"])
    for _ in range(n):
        row = []
        for kind in kinds:
            if rng.random() < missing_prob:
                row.append("")
            elif kind == "numeric":
                row.append(f"{rng.uniform(-5, 5):.3f}")
            else:
                row.append(rng.choice("uvwxyz"[:rng.randint(2, 4)]))
        row.append(f"k{rng.randrange(k)}")
        writer.writerow(row)
    # force categorical where every generated cell happened to parse numeric
    hints = {name: kind for name, kind in zip(names, kinds)}
    return load_table(buf.getvalue(), "d", schema_hints=hints)


def random_view(rng: random.Random, table, max_bits=4):
    numeric = [a.name for a in table.condition_attributes if a.kind == "numeric"]
    scheme = GranulationScheme({name: rng.randint(0, max_bits) for name in numeric})
    return discretize(table, scheme)


def random_attr_subset(rng: random.Random, table, nonempty=True):
    names = [a.name for a in table.condition_attributes]
    lo = 1 if (nonempty and names) else 0
    size = rng.randint(lo, len(names))
    return rng.sample(names, size)


def code_tuples(view, attrs):
    return [tuple(int(view.codes_for(a)[i]) for a in attrs)
            for i in range(view.source.n)]


def brute_equivalence_class(tuples, x):
    return {y for y in range(len(tuples)) if tuples[y] == tuples[x]}


def brute_lower(tuples, concept):
    """{x in U | [x] subseteq X}, literally."""
    return {x for x in range(len(tuples))
            if brute_equivalence_class(tuples, x) <= concept}


def brute_upper(tuples, concept):
    """{x in U | [x] intersects X}, literally."""
    return {x for x in range(len(tuples))
            if brute_equivalence_class(tuples, x) & concept}


def brute_regions(tuples, labels):
    """Per-class lower/upper, positive region, and overall boundary by brute force."""
    universe = set(range(len(tuples)))
    classes = []
    for t in labels:
        if t not in classes:
            classes.append(t)
    per_class = {}
    for cls in classes:
        concept = {i for i, t in enumerate(labels) if t == cls}
        lo, up = brute_lower(tuples, concept), brute_upper(tuples, concept)
        per_class[cls] = (lo, up, up - lo)
    positive = set().union(*(lo for lo, _, _ in per_class.values()))
    boundary = set().union(*(bn for _, _, bn in per_class.values()))
    return per_class, positive, boundary, universe


def random_sweep_table(rng: random.Random, max_n=40, max_attrs=6, max_classes=3):
    """Random table for sweep checks.

    Numeric columns come at mixed scales, with ties, missing cells, or as
    constant and all-missing columns. Rows are sometimes drawn with
    replacement from a small pool so that deep levels stay unsaturated.
    """
    m = rng.randint(1, max_attrs)
    names = [f"c{i}" for i in range(m)]
    kinds = [rng.choice(["numeric", "numeric", "ties", "constant", "missing",
                         "categorical"]) for _ in range(m)]
    scale = 10.0 ** rng.randint(-3, 3)

    def cell(kind):
        if kind == "missing" or rng.random() < 0.1:
            return ""
        if kind == "numeric":
            return repr(rng.uniform(-1, 1) * scale)
        if kind == "ties":
            return str(rng.choice([0, 1, 3, 4, 7]))
        if kind == "constant":
            return "2.5"
        return rng.choice("uvwx")

    pool = [[cell(kind) for kind in kinds] for _ in range(rng.randint(1, max_n))]
    n = rng.randint(1, max_n)
    rows = [rng.choice(pool) for _ in range(n)] if rng.random() < 0.5 else pool
    k = rng.randint(1, max_classes)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names + ["d"])
    for row in rows:
        writer.writerow(row + [f"k{rng.randrange(k)}"])
    hints = {name: "categorical" if kind == "categorical" else "numeric"
             for name, kind in zip(names, kinds)}
    return load_table(buf.getvalue(), "d", schema_hints=hints)


def blocks_of(partition):
    """The objects of each block of ``partition``, blocks in id order, objects ascending."""
    out = [[] for _ in range(partition.block_count)]
    for i, b in enumerate(partition.block_of.tolist()):
        out[b].append(i)
    return out


def refine_by_fold(partition, columns):
    """Split the blocks of ``partition`` by one ``np.unique`` over each column in turn."""
    ids = partition.block_of
    for col in columns:
        if (int(ids.max()) + 1) * (int(col.max()) + 1) > 2**63:  # key would wrap
            _, col = np.unique(col, return_inverse=True)
        keys = ids * (int(col.max()) + 1) + col
        _, ids = np.unique(keys, return_inverse=True)
    return Partition(factorize(ids.tolist()))  # first occurrence by the dict path


def partition_by_fold(view, attrs):
    """partition_by as a fold over its attributes in declaration order."""
    decl = [a.name for a in view.source.attributes]
    return refine_by_fold(Partition.single_block(view.source.n),
                          [view.codes_for(name) for name in sorted(set(attrs), key=decl.index)])


def refine_packed(partition, columns, width):
    """Split every block of ``partition`` by the low ``width`` bits of each column.

    Columns are packed into the key ``ids << width | bits`` as many at a
    time as int64 holds; with width <= 25 and fewer than 2**38 blocks, at
    least one fits.
    """
    mask = (1 << width) - 1
    pending = list(columns)
    while pending:
        fits = (63 - (partition.block_count - 1).bit_length()) // width
        chunk, pending = pending[:fits], pending[fits:]
        keys = partition.block_of
        for col in chunk:
            keys = (keys << width) | (col & mask)
        partition = Partition(factorize(keys))
    return partition


def point_from_scratch(table, attrs, bits) -> SweepPoint:
    """One sweep level: discretize, partition, then entropy and regions."""
    scheme = GranulationScheme.uniform(table, bits, attrs=list(attrs) or None)
    part = partition_by_fold(discretize(table, scheme), attrs)
    report = granular_entropy(part, table.decision_labels)
    gamma, bf = region_fractions(_label_matrix(part, table.decision_labels))
    return SweepPoint(bits, part.block_count, report.conditional_bits,
                      report.normalized_conditional, float(bf), float(gamma))


def sweep_from_scratch(table, attrs, bits_from, bits_to):
    """(points, saturated): each level rebuilt independently, stopping at saturation."""
    points = []
    for b in range(bits_from, bits_to + 1):
        points.append(point_from_scratch(table, attrs, b))
        if points[-1].block_count == table.n:
            return points, True
    return points, False


def run_csv(rows, run_id=None, meta=None, header=("object_index", "predicted")):
    buf = io.StringIO()
    if run_id is not None:
        directive = f"# run_id={run_id}"
        if meta is not None:
            directive += f" meta={meta}"
        buf.write(directive + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def refines_by_loop(fine, coarse):
    """Partition.refines object by object: each block of ``fine`` keeps one owner."""
    if fine.n != coarse.n:
        return False
    owner = np.full(fine.block_count, -1, dtype=np.int64)
    for i in range(fine.n):
        b = fine.block_of[i]
        if owner[b] == -1:
            owner[b] = coarse.block_of[i]
        elif owner[b] != coarse.block_of[i]:
            return False
    return True


def greedy_reduct_two_partitions(view, decision_labels):
    """greedy_reduct with one partition for gamma and another for H(D|P)."""
    def gamma_of(attrs):
        return dependency(partition_by_fold(view, attrs), decision_labels)

    def cond_of(attrs):
        return conditional(decision_labels, partition_by_fold(view, attrs))

    names = view.condition_names
    if not names:
        raise DataError("no condition attributes to reduce over")
    gamma_full = gamma_of(names)
    if gamma_full < 1:
        return ReductResult(list(names), gamma_full, gamma_full, [])
    selected, trace = [], []
    gamma_cur = gamma_of(selected)
    while gamma_cur < gamma_full:
        best = None
        for name in names:
            if name in selected:
                continue
            cand = selected + [name]
            key = (-gamma_of(cand), cond_of(cand))
            if best is None or key < best[0]:
                best = (key, name)
        (neg_gamma, cond_bits), name = best
        selected.append(name)
        gamma_cur = -neg_gamma
        trace.append(ReductStep(name, gamma_cur, cond_bits))
    for name in reversed(list(selected)):
        remaining = [a for a in selected if a != name]
        if gamma_of(remaining) == gamma_full:
            selected = remaining
    return ReductResult(selected, gamma_of(selected), gamma_full, trace)


def greedy_reduct_by_refine(view, decision_labels):
    """greedy_reduct with a refined partition and one count for every candidate."""
    names = view.condition_names
    if not names:
        raise DataError("no condition attributes to reduce over")
    labels = factorize(decision_labels)
    gamma_full = dependency(partition_by(view, names), labels)
    if gamma_full < 1:
        return ReductResult(list(names), gamma_full, gamma_full, [])
    selected, trace = [], []
    chosen = partition_by(view, selected)
    gamma_cur = dependency(chosen, labels)
    while gamma_cur < gamma_full:
        best = None
        for name in names:
            if name in selected:
                continue
            part = refine(chosen, [view.codes_for(name)])
            counts = _label_matrix(part, labels)
            key = (-region_fractions(counts)[0], _conditional_bits(counts, part.n))
            if best is None or key < best[0]:
                best = (key, name, part)
        (neg_gamma, cond_bits), name, chosen = best
        selected.append(name)
        gamma_cur = -neg_gamma
        trace.append(ReductStep(name, gamma_cur, cond_bits))
    for name in reversed(list(selected)):
        remaining = [a for a in selected if a != name]
        if dependency(partition_by(view, remaining), labels) == gamma_full:
            selected = remaining
    return ReductResult(selected, dependency(partition_by(view, selected), labels),
                        gamma_full, trace)


def entropy_rank_by_partition(view, decision_labels):
    """entropy_rank with one partition and one conditional entropy per attribute."""
    names = view.condition_names
    if not names:
        raise DataError("no condition attributes to rank")
    labels = factorize(decision_labels)
    h_d = conditional(labels, Partition.single_block(len(labels)))
    gains = [(name, h_d - conditional(labels, partition_by(view, [name]))) for name in names]
    gains.sort(key=lambda item: -item[1])
    return gains


def exhaustive_reducts(view, decision_labels, max_attrs=12):
    """All inclusion-minimal attribute subsets preserving full dependency.

    Enumerated in size-then-lexicographic order (lexicographic by attribute
    declaration order). Oracle for validating the greedy search; refuses
    attribute counts beyond max_attrs.
    """
    names = view.condition_names
    if len(names) > max_attrs:
        raise DataError(f"{len(names)} attributes exceeds max_attrs={max_attrs}")
    labels = factorize(decision_labels)
    gamma_full = dependency(partition_by(view, list(names)), labels)
    found = []
    for size in range(len(names) + 1):
        for combo in combinations(names, size):
            if any(set(r) <= set(combo) for r in found):
                continue
            if dependency(partition_by(view, list(combo)), labels) == gamma_full:
                found.append(combo)
    return found


def factorize_by_unique(keys):
    """First-occurrence ids of an integer array: np.unique ranks, ordered by
    an argsort of each rank's first row."""
    _, ranks = np.unique(keys, return_inverse=True)
    ranks = ranks.reshape(-1)
    n, k = len(ranks), int(ranks.max()) + 1 if len(ranks) else 0
    first = np.full(k, n, dtype=np.int64)
    np.minimum.at(first, ranks, np.arange(n))
    order = np.argsort(first, kind="stable")
    ids = np.empty(k, dtype=np.int64)
    ids[order] = np.arange(k)
    return ids[ranks]


def evaluate_run_on_tokens(table, run, labels=None):
    """evaluate_run metrics from granular_entropy plus region_fractions on tokens:
    ``labels``, the decision cells as a table was built from them, or the table's own."""
    truth = table.decision_labels if labels is None else labels
    correct = sum(1 for p, t in zip(run.predicted, truth) if str(p) == str(t))
    fallback = run.granule is None
    part = Partition.from_labels(run.predicted if fallback else run.granule)
    report = granular_entropy(part, truth)
    gamma, bf = region_fractions(_label_matrix(part, truth))
    return EvalReport(run.run_id, correct / table.n, report.conditional_bits,
                      float(bf), float(gamma), part.block_count, fallback)


def granular_entropy_by_dot(partition, labels):
    """(per_block, H(D|P)) as granular_entropy built them eagerly, H by np.dot over all blocks."""
    counts = _label_matrix(partition, labels)
    sizes = counts.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / sizes[:, None]
        terms = np.where(counts > 0, -p * np.log2(p), 0.0)
    block_h = np.sort(terms, axis=1).sum(axis=1)  # ascending, so class order cannot leak
    weights = sizes / partition.n
    per_block = list(zip(range(partition.block_count), weights.tolist(), block_h.tolist()))
    return per_block, float(np.dot(weights, block_h))


def shannon_by_loop(counts):
    """H in bits by a Python loop over the positive counts, as shannon once computed it."""
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c > 0:
            h -= c / total * math.log2(c / total)
    return max(h, 0.0)


def _infer_kind(col):
    saw_value = False
    for v in col:
        if v is MISSING:
            continue
        saw_value = True
        if isinstance(v, str):
            try:
                float(v)
            except ValueError:
                return "categorical"
        elif not isinstance(v, (int, float, np.floating, np.integer)):
            return "categorical"
    return "numeric" if saw_value else "categorical"


def _observed_range(col):
    vals = [float(v) for v in col if v is not MISSING and v == v]  # NaN is missing
    if not vals:
        return None
    return (min(vals), max(vals))


def _decoded(csv_data):
    """The text the loaders' csv path reads."""
    return encoded(csv_data).decode("utf-8", "surrogatepass")


def load_table_by_rows(csv_data, decision_name, schema_hints=None, table_id=""):
    """load_table row by row: infer, parse and range each column cell by cell.

    A NaN cell stays in the column but not in the range; an infinite cell
    in a numeric column is an error naming its line.
    """
    reader = csv.reader(io.StringIO(_decoded(csv_data)))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty file") from None
    if len(set(header)) != len(header):
        raise DataError("duplicate column names in header")
    if decision_name not in header:
        raise DataError(f"missing decision column {decision_name!r}")

    rows, lines = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"ragged row at line {lineno}: "
                            f"expected {len(header)} cells, got {len(row)}")
        rows.append(row)
        lines.append(lineno)
    if not rows:
        raise DataError("empty file: no data rows")

    hints = dict(schema_hints or {})
    for name in hints:
        if name not in header:
            raise DataError(f"schema hint for unknown column {name!r}")

    columns = {name: [] for name in header}
    for row in rows:
        for name, cell in zip(header, row):
            cell = cell.strip()
            columns[name].append(MISSING if cell in ("", "?") else cell)

    specs = []
    for name in header:
        col = columns[name]
        if name == decision_name:
            kind = "categorical"
        elif name in hints:
            kind = hints[name]
            if kind not in ("categorical", "numeric"):
                raise DataError(f"invalid kind {kind!r} for column {name!r}")
        else:
            kind = _infer_kind(col)
        if kind == "numeric":
            parsed = []
            for i, v in enumerate(col):
                if v is MISSING:
                    parsed.append(MISSING)
                    continue
                try:
                    parsed.append(float(v))
                except (TypeError, ValueError):
                    raise DataError(
                        f"column {name!r} declared numeric but line {lines[i]} "
                        f"has unparsable cell {v!r}") from None
                if parsed[-1] in (float("inf"), float("-inf")):
                    raise DataError(f"column {name!r} has non-finite value "
                                    f"{parsed[-1]} at line {lines[i]}")
            columns[name] = np.asarray(
                [np.nan if v is MISSING else v for v in parsed], dtype=np.float64)
            specs.append(AttributeSpec(name, "numeric", _observed_range(parsed)))
        else:
            specs.append(AttributeSpec(name, "categorical"))
            columns[name] = coded_by_dict(col)
    return InformationTable(specs, columns, decision_name, table_id=table_id)


_DIRECTIVE = re.compile(r"#\s*run_id=(\S+)(?:\s+meta=(.*))?\s*$")


def load_run_by_rows(csv_data, table, run_id="run"):
    """load_run row by row: parse, range-check and place each row in turn."""
    meta, first_line = "", 1
    text = _decoded(csv_data)
    first = re.match(r"[^\r\n]*(?:\r\n?|\n)?", text).group()
    if first.lstrip().startswith("#"):
        m = _DIRECTIVE.match(first.strip())
        if m:
            run_id = m.group(1)
            meta = (m.group(2) or "").strip()
        text, first_line = text[len(first):], 2
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty run file") from None
    header = [h.strip() for h in header]
    if header[:2] != ["object_index", "predicted"]:
        raise DataError("run header must start with object_index,predicted")
    has_granule = len(header) > 2 and header[2] == "granule"
    if len(header) > 2 + has_granule:
        raise DataError(f"unexpected run column {header[2 + has_granule]!r}: "
                        "the header is object_index,predicted[,granule]")

    n = table.n
    predicted = [None] * n
    granule = [None] * n
    seen = set()
    count = 0
    for lineno, row in enumerate(reader, start=first_line + 1):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"ragged run row at line {lineno}")
        try:
            idx = int(row[0])
        except ValueError:
            raise DataError(f"non-integer object_index {row[0]!r} at line {lineno}") from None
        if not 0 <= idx < n:
            raise DataError(f"object_index {idx} out of range 0..{n - 1}")
        if idx in seen:
            raise DataError(f"duplicate object_index {idx}")
        seen.add(idx)
        predicted[idx] = row[1]
        if has_granule:
            granule[idx] = row[2]
        count += 1
    if count != n:
        raise DataError(f"run row count {count} != universe size {n}")
    return ModelRun(run_id, predicted, granule if has_granule else None, meta)


def rare(rnd, p):
    """True at rate p for uniform draws. hypothesis' own randoms draw 0.0
    most often and shrink toward it, so 0.0 must mean no fault."""
    return rnd.random() >= 1 - p


def outcome(load, *args, **kwargs):
    try:
        return load(*args, **kwargs)
    except DataError as exc:
        return f"DataError: {exc}"


def _exactly(load, *args, **kwargs):
    """Outcome of ``load`` with the byte scanner declining every text, so both
    loaders read by the csv path."""
    with mock.patch("granulens.table.scan", return_value=None), \
            mock.patch("granulens.harness.scan", return_value=None):
        return outcome(load, *args, **kwargs)


def _exact_reads(load, *args, **kwargs):
    """Times ``load`` fell back to read_columns, the csv path."""
    calls = []

    def counting(*a, **k):
        calls.append(a)
        return read_columns(*a, **k)

    with mock.patch("granulens.table.read_columns", counting), \
            mock.patch("granulens.harness.read_columns", counting):
        outcome(load, *args, **kwargs)
    return len(calls)


#: Records transposed per step of read_columns_chunked, as the library read them
_CHUNK = 256


def read_columns_chunked(body: bytes, skipped: int = 0) -> tuple[
        list[str] | None, list[list[str]], list[int], tuple[int, int] | None]:
    """Read CSV bytes (see ``encoded``) into its header and one list of cells per column.

    ``\\r``, ``\\n`` and ``\\r\\n`` end records. Lines count records (a quoted
    cell may span several), the header being line 1 + ``skipped``. Blank
    records are skipped, and reading stops at the first record whose cell
    count differs from the header's. Returns the header (None for text
    without records), the columns, the blank records' lines, and (line, cell
    count) of that ragged record or None. A DataError names the line of a
    record the csv module rejects (a field over its size limit, say).
    """
    records = csv.reader(io.StringIO(body.decode("utf-8", "surrogatepass"), newline=""))
    line, chunk = 1 + skipped, []  # chunk[0]'s line; extend keeps what it read before a raise
    try:
        header = next(records, None)
        width = len(header or ())
        columns: list[list[str]] = [[] for _ in range(width)]
        blanks: list[int] = []
        line += 1
        while chunk.extend(islice(records, _CHUNK)) or chunk:
            start, line = line, line + len(chunk)
            ragged = None
            if set(map(len, chunk)) != {width}:
                rows = []
                for lineno, row in enumerate(chunk, start=start):
                    if not row:
                        blanks.append(lineno)
                    elif len(row) != width:
                        ragged = (lineno, len(row))
                        break
                    else:
                        rows.append(row)
                chunk = rows
            for column, cells in zip(columns, zip(*chunk)):
                column.extend(cells)
            if ragged is not None:
                return header, columns, blanks, ragged
            chunk = []
    except csv.Error as exc:
        raise DataError(f"unreadable CSV record at line {line + len(chunk)}: {exc}") from None
    return header, columns, blanks, None


def coded_by_dict(cells):
    """(distinct cells, read-only first-occurrence codes) by one dict pass."""
    ids = {}
    codes = np.array([ids.setdefault(cell, len(ids)) for cell in cells], dtype=np.int64)
    codes.flags.writeable = False
    return list(ids), codes


def _r9(x) -> float:
    return float(f"{float(x):.9f}")


def _rounded(record) -> dict:
    """A dataclass record as a JSON object, its float and Fraction fields through _r9."""
    return {key: _r9(value) if isinstance(value, (float, Fraction)) else value
            for key, value in asdict(record).items()}


def _approx_payload(a):
    return {"lower": sorted(a.lower), "upper": sorted(a.upper),
            "boundary": sorted(a.boundary), "accuracy_alpha": _r9(a.accuracy_alpha)}


def payload_by_hand(record, listed=None):
    """The JSON payload of a report record, its fields listed by hand: rough
    regions, one class's approximation (without its "class" key), granular
    entropy with its ``per_block`` list, a reduct with its entropy ranking, or a
    list of records (sweep points, a compare ranking); any other record as
    ``_rounded``. ``listed`` is the per_block list or the ranking."""
    if isinstance(record, RoughApproximation):
        return _approx_payload(record)
    if isinstance(record, RegionReport):
        return {
            "per_class": {str(c): _approx_payload(a) for c, a in record.per_class.items()},
            "positive": sorted(record.positive),
            "boundary_overall": sorted(record.boundary_overall),
            "negative_by_class": {str(c): sorted(s)
                                  for c, s in record.negative_by_class.items()},
            "gamma": _r9(record.gamma),
            "boundary_fraction": _r9(record.boundary_fraction)}
    if isinstance(record, GranularEntropyReport):
        return {"per_block": [[b, _r9(w), _r9(h)] for b, w, h in listed],
                "conditional_bits": _r9(record.conditional_bits),
                "boundary_fraction": _r9(record.boundary_fraction),
                "class_count": record.class_count,
                "normalized_conditional": _r9(record.normalized_conditional)}
    if isinstance(record, ReductResult):
        return {**_rounded(record), "trace": [_rounded(step) for step in record.trace],
                "entropy_rank": [[name, _r9(gain)] for name, gain in listed]}
    if isinstance(record, list):
        return [_rounded(r) for r in record]
    return _rounded(record)
