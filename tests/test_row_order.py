"""Row order is not an input: the library and every subcommand on a table and its shuffled copy.

Each copy lives in its own directory under the same file names, beside runs
whose ``object_index`` points at the same objects in that copy's order. The
sweep's CSV, JSON and SVG and the ``reduce``, ``evaluate`` and ``compare``
outputs must be byte-equal. ``rough`` and ``entropy`` print and key classes
and blocks in first-occurrence order, so they are compared after mapping
object indices back to the first copy and sorting lines and ``per_block``.
``inspect`` is left out: the sign of a zero in its observed range follows
row order.

The decision has 1 to 4 classes. A shuffle can change the classes'
first-occurrence order, so a block's entropy must not depend on it: at the
library level the floats are compared bit for bit.
"""

import dataclasses
import json
import re

from hypothesis import example, given, settings, strategies as st

from granulens import (GranulationScheme, ModelRun, discretize, entropy_rank, evaluate_run,
                       granular_entropy, greedy_reduct, load_table, partition_by, regions,
                       sweep)
from test_cli_readers import COMMANDS, _observe

# The gains of x0 and x1 print equal at 9 decimals; swapping rows 1 and 5, which
# moves class r behind p in first occurrence, once flipped reduce's ranking of them.
FLIPPED_RANKING = (
    [["-3.55", "0", "q"], ["-3.55", "0.25", "r"], ["-2.22", "-2", "q"], ["-3.55", "0", "p"],
     ["1.94", "0", "q"], ["1.94", "0", "q"], ["3.26", "-2", "q"], ["-2.22", "0.25", "q"],
     ["3.26", "-2", "r"], ["1.94", "0.25", "r"], ["-2.77", "-2", "q"], ["3.26", "1.5", "q"],
     ["-3.55", "0", "p"], ["3.26", "-2", "r"], ["1.94", "1.5", "q"], ["-2.22", "0.25", "p"],
     ["-2.77", "1.5", "q"], ["3.26", "-2", "p"], ["-3.55", "1.5", "p"]],
    [[(i, "q") for i in range(19)]],
    [0, 5, 2, 3, 4, 1] + list(range(6, 19)),
)


@st.composite
def shuffled_inputs(draw):
    """(table rows, runs, a row permutation): mixed columns with blanks and ties."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 30))
    kinds = draw(st.lists(st.sampled_from(["numeric", "ties", "categorical"]),
                          min_size=1, max_size=4))
    pools = {"numeric": None, "ties": ["0", "1.5", "-2", "0.25"], "categorical": list("uvwx")}

    def cell(kind):
        if rnd.random() < 0.1:
            return ""
        pool = pools[kind]
        return rnd.choice(pool) if pool else f"{rnd.uniform(-5, 5):.2f}"

    classes = "pqrs"[:draw(st.integers(1, 4))]
    rows = [[cell(kind) for kind in kinds] + [rnd.choice(classes)] for _ in range(n)]
    runs = []
    for _ in range(draw(st.integers(1, 3))):
        granule = rnd.random() < 0.5
        blocks = rnd.randint(1, n)
        runs.append([(i, rows[i][-1] if rnd.random() < 0.7 else rnd.choice("pqs"))
                     + ((f"g{rnd.randrange(blocks)}",) if granule else ())
                     for i in rnd.sample(range(n), n)])
    return rows, runs, draw(st.permutations(range(n)))


def _write(work, names, rows, runs):
    work.mkdir()
    (work / "t.csv").write_text("\n".join(",".join(r) for r in [names] + rows) + "\n",
                                encoding="utf-8")
    for r, run in enumerate(runs):
        header = ["object_index", "predicted", "granule"][:len(run[0])]
        lines = [",".join(header)] + [",".join(map(str, row)) for row in run]
        (work / f"run{r}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _objects(value, back):
    """``value`` with every list of object indices mapped through ``back`` and sorted."""
    if isinstance(value, dict):
        return {key: _objects(item, back) for key, item in value.items()}
    if isinstance(value, list) and all(type(x) is int for x in value):
        return sorted(back[x] for x in value)
    return value


def _lines(stdout, back):
    """Sorted stdout lines, each printed list of object indices mapped through ``back``."""
    def mapped(match):
        return str(sorted(back[int(x)] for x in re.findall(r"\d+", match[1])))
    return sorted(re.sub(r"=(\[[\d, ]*\])", lambda m: "=" + mapped(m), line)
                  for line in stdout.splitlines())


def _comparable(args, seen, back):
    code, out, err, written = seen
    if args[0] == "rough":
        return code, _lines(out, back), err, {name: _objects(json.loads(data), back)
                                              for name, data in written.items()}
    if args[0] == "entropy":
        report = json.loads(written["entropy.json"])
        report["per_block"] = sorted(row[1:] for row in report["per_block"])
        return code, out, err, report
    return seen


@settings(max_examples=60, deadline=None)
@given(shuffled_inputs())
@example(FLIPPED_RANKING)
def test_every_command_ignores_row_order(tmp_path_factory, inputs):
    rows, runs, perm = inputs
    names = [f"x{i}" for i in range(len(rows[0]) - 1)] + ["d"]
    at = {old: new for new, old in enumerate(perm)}  # where each object sits in the copy
    base = tmp_path_factory.mktemp("rows")
    _write(base / "a", names, rows, runs)
    _write(base / "b", names, [rows[i] for i in perm],
           [[(at[row[0]],) + row[1:] for row in run] for run in runs])
    attrs, cls = ",".join(names[:-1]), rows[0][-1]
    first, shuffled = _observe(base / "a", attrs, cls), _observe(base / "b", attrs, cls)
    assert [seen[0] for seen in first] == [0] * len(COMMANDS)
    identity = range(len(rows))
    for args, a, b in zip(COMMANDS, first, shuffled):
        if args[0] != "inspect":
            assert _comparable(args, a, identity) == _comparable(args, b, perm), args


def _exact(value):
    """``value`` with records as tuples and every float as its hex string, for bitwise ``==``."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    return value.hex() if isinstance(value, float) else value


def _results(rows, runs, names, bits):
    """Row-order-free results, and the region report, of the library on one copy."""
    table = load_table("\n".join(",".join(r) for r in [names] + rows) + "\n", "d")
    attrs = names[:-1]
    view = discretize(table, GranulationScheme(
        {a.name: bits for a in table.condition_attributes if a.kind == "numeric"}))
    part, labels = partition_by(view, attrs), table.decision_labels
    report = granular_entropy(part, labels)
    models = [ModelRun(f"run{r}", *[list(col) for col in zip(*sorted(run))][1:])
              for r, run in enumerate(runs)]
    return _exact([
        [report.conditional_bits, report.boundary_fraction, report.class_count,
         report.normalized_conditional],
        sweep(table, attrs, 0, 4).points,
        greedy_reduct(view, labels),
        entropy_rank(view, labels),
        [evaluate_run(table, model) for model in models],
    ]), regions(part, labels)


def _mapped(report, back):
    """The region report's sets as original object indices, keyed by class."""
    def objects(members):
        return frozenset(back[i] for i in members)
    return ({cls: (objects(a.lower), objects(a.upper), objects(a.boundary), a.accuracy_alpha)
             for cls, a in report.per_class.items()},
            objects(report.positive), objects(report.boundary_overall),
            {cls: objects(members) for cls, members in report.negative_by_class.items()},
            report.gamma, report.boundary_fraction)


@settings(max_examples=200, deadline=None)
@given(shuffled_inputs(), st.integers(0, 3))
@example(FLIPPED_RANKING, 2)
def test_library_ignores_row_order(inputs, bits):
    rows, runs, perm = inputs
    at = {old: new for new, old in enumerate(perm)}
    names = [f"x{i}" for i in range(len(rows[0]) - 1)] + ["d"]
    first, a = _results(rows, runs, names, bits)
    shuffled, b = _results([rows[i] for i in perm],
                           [[(at[row[0]],) + row[1:] for row in run] for run in runs], names, bits)
    assert first == shuffled
    assert _mapped(a, range(len(rows))) == _mapped(b, perm)
