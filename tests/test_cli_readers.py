"""Every subcommand, with the fast readers on and with them declining every text.

The loader differentials in ``test_ingest.py`` stop at the loaded table or
run. Here whole commands run in process through ``run_cli`` on generated
tables and runs, once as they are and once under ``helpers._exactly``, and
must agree on exit code, stdout, stderr and every file they write.
"""

import contextlib
import io
import pathlib
import tempfile
from collections import Counter
from unittest import mock

from hypothesis import given, settings, strategies as st

import granulens.cli
import granulens.harness
import granulens.table
from granulens.cli import run_cli

from helpers import _exactly, rare

NUMBERS = ["0", "1", "-3", "2.5", ".5", "5.", "1e3", "-2.5E-3", "7E+2", "-0.0", "0.0",
           "0.125", "-1.75", "nan"]
WORDS = ["a", "b", "c", "x y", "Ω"]
LABELS = ["p", "q", "r"]


def _cell(rnd, pool):
    cell = rnd.choice(pool)
    if rare(rnd, 0.1):
        cell = ""  # a blank
    elif rare(rnd, 0.04):
        cell = "?"
    if rare(rnd, 0.05):
        cell = rnd.choice([" ", "\t", "\xa0"]) + cell + " "  # a padded token
    return cell


def _text(rnd, lines):
    """Lines joined by one line end, with rare blank lines and no final line end."""
    eol = rnd.choice(["\n", "\n", "\r\n", "\r"] if rare(rnd, 0.5) else ["\n"])
    if rare(rnd, 0.05):
        eol = "\r"  # bare CR
    out = []
    for line in lines:
        if rare(rnd, 0.04):
            out.append("")  # a blank line
        out.append(line)
    return eol.join(out) + ("" if rare(rnd, 0.05) else eol)


@st.composite
def cli_inputs(draw):
    """A table ``t.csv`` and 1-3 runs, as {file name: text}, with the table's attributes."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(2, 10))
    kinds = draw(st.lists(st.sampled_from(["numeric", "numeric", "categorical"]),
                          min_size=1, max_size=3))
    columns = []
    for kind in kinds:
        col = [_cell(rnd, NUMBERS if kind == "numeric" else WORDS) for _ in range(n)]
        if kind == "numeric" and rare(rnd, 0.08):
            col[rnd.randrange(1, n)] = "w"  # a word late in a numeric column
        if kind == "numeric" and rare(rnd, 0.03):
            col[rnd.randrange(n)] = rnd.choice(["inf", "-1e999"])
        columns.append(col)
    labels = [rnd.choice(LABELS) for _ in range(n)]
    columns.append([rnd.choice(["", "?"]) if rare(rnd, 0.01) else f" {v}" if rare(rnd, 0.03)
                    else v for v in labels])
    names = [f"x{i}" for i in range(len(kinds))] + ["d"]
    if draw(st.booleans()):  # the decision need not be last
        names.insert(0, names.pop())
        columns.insert(0, columns.pop())
    rows = [list(row) for row in zip(*columns)]
    if rare(rnd, 0.08):
        row = rnd.choice(rows)
        at = rnd.randrange(len(row))
        row[at] = f'"{row[at]}"'  # a quoted cell
    files = {"t.csv": _text(rnd, [",".join(names)] + [",".join(row) for row in rows])}

    for r in range(draw(st.integers(1, 3))):
        granule = draw(st.booleans())
        blocks = rnd.randint(1, n)
        lines = []
        for i in rnd.sample(range(n), n):
            pred = labels[i] if rnd.random() < 0.7 else rnd.choice(LABELS + ["s"])
            cells = [str(i), pred] + ([f"g{i % blocks}"] if granule else [])
            if rare(rnd, 0.03):
                cells[0] = rnd.choice(["x", "-1", str(n), "+1", " 1"])
            if rare(rnd, 0.03):
                cells[1] = f'"{cells[1]}"'
            lines.append(",".join(cells))
        header = "object_index,predicted" + ",granule" * granule
        directive = [f"# run_id=r{r} meta=m{r}"] if rare(rnd, 0.3) else []
        files[f"run{r}.csv"] = _text(rnd, directive + [header] + lines)
    return files, ",".join(name for name in names if name != "d"), labels[0]


COMMANDS = [
    ["inspect", "--out", "@inspect.json"],
    ["rough", "--attrs", "{attrs}", "--bits", "1", "--out", "@rough.json"],
    ["rough", "--attrs", "{attrs}", "--bits", "1", "--class", "{cls}"],
    ["entropy", "--attrs", "{attrs}", "--bits", "2", "--out", "@entropy.json"],
    ["sweep", "--attrs", "{attrs}", "--bits", "0..4", "--out", "@curve.csv",
     "--svg", "@curve.svg"],
    ["sweep", "--attrs", "{attrs}", "--bits", "0..3", "--format", "json",
     "--out", "@curve.json"],
    ["reduce", "--bits", "2", "--out", "@reduce.json"],
    ["evaluate", "@run0.csv", "--out", "@evaluate.json"],
    ["compare", "@runs", "--out", "@compare.json"],
]


def _observe(work, attrs, cls):
    """(exit code, stdout, stderr, written bytes) of every command, run in ``work``."""
    runs = sorted(str(p) for p in work.glob("run*.csv"))
    seen = []
    for args in COMMANDS:
        argv = [args[0], str(work / "t.csv"), "--decision", "d"]
        for arg in args[1:]:
            arg = arg.format(attrs=attrs, cls=cls)
            argv += runs if arg == "@runs" else [str(work / arg[1:]) if arg[0] == "@" else arg]
        outputs = [pathlib.Path(a) for a in argv if a.endswith((".json", ".svg", "curve.csv"))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
        written = {p.name: p.read_bytes() if p.exists() else None for p in outputs}
        for p in outputs:
            p.unlink(missing_ok=True)
        seen.append((code, out.getvalue(), err.getvalue(), written))
    return seen


def test_every_command_reads_alike_with_fast_readers_off(tmp_path):
    counts = Counter()

    def counting(key, fn):
        return lambda *a, **k: counts.update([key]) or fn(*a, **k)

    @settings(max_examples=150, deadline=None)
    @given(cli_inputs())
    def check(inputs):
        files, attrs, cls = inputs
        work = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
        for name, text in files.items():
            (work / name).write_bytes(text.encode())
        with mock.patch.object(granulens.cli, "load_table",
                               counting("tables", granulens.cli.load_table)), \
                mock.patch.object(granulens.cli, "load_run",
                                  counting("runs", granulens.cli.load_run)), \
                mock.patch.object(granulens.table, "read_columns",
                                  counting("tables exact", granulens.table.read_columns)), \
                mock.patch.object(granulens.harness, "read_columns",
                                  counting("runs exact", granulens.harness.read_columns)):
            before = counts.copy()
            fast = _observe(work, attrs, cls)
            on = counts - before
            exact = _exactly(_observe, work, attrs, cls)
            off = counts - before - on
        assert fast == exact
        assert (off["tables"], off["runs"]) == (off["tables exact"], off["runs exact"])
        hits.update({"tables fast": on["tables"] - on["tables exact"],
                     "tables exact": on["tables exact"],
                     "runs fast": on["runs"] - on["runs exact"], "runs exact": on["runs exact"]})

    hits = Counter()
    check()
    # with the fast readers on, both paths read tables and runs
    assert min(hits[key] for key in ["tables fast", "tables exact", "runs fast",
                                     "runs exact"]) > 0, hits
