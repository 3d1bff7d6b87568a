"""CSV ingestion: the columnar loaders against the row-by-row oracles, input
hygiene for non-finite numbers and run headers, and garbage-collector load."""

import csv
import gc
import io
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from granulens import (MISSING, AttributeSpec, DataError, InformationTable, load_run,
                       load_table, read_curve)
from granulens.cli import run_cli
from granulens.table import _BLANK, _DENSE, factorize

from conftest import DATA_DIR
from granulens.reader import read_columns
from helpers import (_exact_reads, _exactly, factorize_by_unique, load_run_by_rows,
                     load_table_by_rows, outcome, rare, read_columns_chunked, run_csv)

PAD = st.sampled_from(["", "", " ", "\t", " ", "\xa0", "\x1c", " 　"])
NUMBER = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.sampled_from(["-0.0", "0.0", "0", "-0", "+4", ".5", "5.", "1e3",
                     "-2.5E-3", "7E+2", "1e-300", "1_0", "1_000.5"]))
MISSING_CELL = st.sampled_from(["", "?", " ? ", "\t"])
BLANK = _BLANK.decode()
WORD = st.sampled_from(["a", "b", "x y", "a,b", 'q"t', "Ω", "1x", "--", "0x1"])


@st.composite
def cell(draw, kind):
    core = draw({"numeric": st.one_of(NUMBER, NUMBER, NUMBER, MISSING_CELL),
                 "categorical": st.one_of(WORD, NUMBER, MISSING_CELL),
                 "decision": WORD, "missing": MISSING_CELL}[kind])
    return draw(PAD) + core + draw(PAD)


def write_rows(draw, rnd, header, rows):
    """CSV text of ``rows`` with random quoting, line ends, blank lines and raggedness."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(header)
    for row in rows:
        if rare(rnd, 0.05):
            buf.write("\n")  # a blank line
        if rare(rnd, 0.02):
            row = row[:-1] if rnd.random() < 0.5 else row + ["extra"]
        writer.writerow(row)
    return buf.getvalue()


@st.composite
def table_inputs(draw):
    rnd = draw(st.randoms(use_true_random=False))  # faults at set rates, see rare
    kinds = draw(st.lists(st.sampled_from(["numeric", "numeric", "categorical"]),
                          min_size=1, max_size=4))
    names = [f"c{i}" for i in range(len(kinds))]
    header = names + ["d"]
    if rare(rnd, 0.03):
        header[0] = "d"  # duplicate name
    rows = [[draw(cell(kind)) for kind in kinds]
            + [draw(cell("missing" if rare(rnd, 0.01) else "decision"))]
            for _ in range(draw(st.integers(0, 12)))]
    hints = {name: draw(st.sampled_from(["numeric", "categorical"]))
             for name in names + ["d"] if rare(rnd, 0.3)}
    if rare(rnd, 0.05):
        hints[rnd.choice(names)] = "bogus"
    if rare(rnd, 0.05):
        hints["zz"] = "numeric"  # unknown column
    decision = "nope" if rare(rnd, 0.03) else "d"
    return write_rows(draw, rnd, header, rows), decision, hints


@st.composite
def run_inputs(draw, n, word=WORD):
    rnd = draw(st.randoms(use_true_random=False))
    rows = [[str(i), draw(word), draw(word)] for i in range(n)]
    rows = draw(st.permutations(rows))
    while rare(rnd, 0.4):
        rows[rnd.randrange(n)][0] = draw(st.sampled_from(
            ["x", "1.5", "", str(n), "-1", str(10**30), "-" + str(10**30), " 3 ",
             "+2", "0_1", rows[rnd.randrange(n)][0]]))
    if rare(rnd, 0.1):
        rows = rows[:-1]
    granule = draw(st.booleans())
    header = ["object_index", "predicted"] + (["granule"] if granule else [])
    body = write_rows(draw, rnd, header, [r if granule else r[:2] for r in rows])
    if draw(st.booleans()):
        body = "# run_id=r1 meta=k=3\n" + body
    return body


@settings(max_examples=400, deadline=None)
@given(table_inputs())
def test_load_table_matches_row_by_row_oracle(inputs):
    text, decision, hints = inputs
    got = outcome(load_table, text, decision, schema_hints=hints)
    want = outcome(load_table_by_rows, text, decision, schema_hints=hints)
    if isinstance(want, str):
        assert got == want
        return
    assert [repr(a) for a in got.attributes] == [repr(a) for a in want.attributes]
    for spec in want.attributes:
        if spec.kind == "numeric":
            assert got.column(spec.name).tobytes() == want.column(spec.name).tobytes()
        else:
            assert got.column(spec.name) == want.column(spec.name)
    assert got.decision_labels == want.decision_labels
    assert got.n == want.n


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), run_inputs(n))))
def test_load_run_matches_row_by_row_oracle(inputs):
    n, text = inputs
    table = InformationTable.from_columns({"d": [f"k{i % 2}" for i in range(n)]}, "d")
    assert outcome(load_run, text, table) == outcome(load_run_by_rows, text, table)


@pytest.mark.parametrize("text", ["x,d\n-0.0,p\n0.0,q\n", "x,d\n0.0,p\n-0.0,q\n",
                                  "x,d\n1,p\n-0,q\n0,p\n-0.0,p\n"])
def test_signed_zero_range_keeps_first_sign(text):
    got = load_table(text, "d").attribute("x")
    assert repr(got) == repr(load_table_by_rows(text, "d").attribute("x"))


class TestNonFiniteAndNan:
    @pytest.mark.parametrize("value", ["inf", "-inf", "1e999", " -Infinity "])
    def test_infinity_is_data_error_naming_column_and_line(self, value):
        text = f"a,x,d\n1,2,p\n\n3,{value},q\n"
        with pytest.raises(DataError, match=r"column 'x' has non-finite value -?inf at line 4"):
            load_table(text, "d")

    def test_infinity_in_categorical_column_is_a_token(self):
        table = load_table("x,d\ninf,p\nfoo,q\n", "d")
        assert table.attribute("x").kind == "categorical"
        assert table.column("x") == ["inf", "foo"]

    def test_first_faulty_row_wins_over_later_unparsable_cell(self):
        with pytest.raises(DataError, match="non-finite value inf at line 2"):
            load_table("x,d\ninf,p\nfoo,q\n", "d", schema_hints={"x": "numeric"})
        with pytest.raises(DataError, match="line 2 has unparsable cell 'foo'"):
            load_table("x,d\nfoo,p\ninf,q\n", "d", schema_hints={"x": "numeric"})

    @pytest.mark.parametrize("nan", ["nan", "NaN", "-nan"])
    def test_nan_cell_is_missing_wherever_it_sits(self, nan):
        first = load_table(f"x,d\n{nan},p\n3,q\n1,p\n", "d")
        last = load_table(f"x,d\n3,q\n1,p\n{nan},p\n", "d")
        blank = load_table("x,d\n,p\n3,q\n1,p\n", "d")
        for table in (first, last, blank):
            assert table.attribute("x").observed_range == (1.0, 3.0)
        assert np.isnan(first.column("x")[0]) and np.isnan(last.column("x")[2])

    def test_nan_only_column_stays_numeric_without_range(self):
        table = load_table("x,d\nnan,p\n,q\n", "d")
        assert table.attribute("x").kind == "numeric"
        assert table.attribute("x").observed_range is None
        assert load_table("x,d\n,p\n?,q\n", "d").attribute("x").kind == "categorical"

    def test_from_columns_nan_is_missing_and_infinity_is_error(self):
        values = np.array([np.nan, 2.0, -1.0, np.nan])
        table = InformationTable.from_columns({"x": values, "d": list("pqpq")}, "d")
        assert table.attribute("x").observed_range == (-1.0, 2.0)
        assert table.column("x").tobytes() == values.tobytes()
        assert table.column("x") is not values  # copied
        cells, labels = ["a", MISSING, "b", "a"], list("pqpq")
        owned = InformationTable.from_columns({"c": cells, "d": labels}, "d")
        cells[0], labels[0] = "z", "z"
        assert owned.column("c") == ["a", MISSING, "b", "a"]
        assert owned.decision_labels == list("pqpq")
        listed = InformationTable.from_columns(
            {"x": [MISSING, 2, -1.0, float("nan")], "d": list("pqpq")}, "d")
        assert listed.column("x").tobytes() == values.tobytes()
        with pytest.raises(DataError, match="column 'x' has non-finite value -inf at row 2"):
            InformationTable.from_columns({"x": np.array([1.0, 2.0, -np.inf]),
                                           "d": list("pqp")}, "d")

    def test_constructor_takes_typed_columns_only(self):
        specs = [AttributeSpec("x", "numeric"), AttributeSpec("d", "categorical")]

        def codes(values, writeable=False):
            out = np.array(values, dtype=np.int64)
            out.flags.writeable = writeable
            return out

        x = np.array([1.0, 2.0])
        with pytest.raises(DataError, match="numeric column 'x' is not a float64 array"):
            InformationTable(specs, {"x": ["1", "2"], "d": (["p", "q"], codes([0, 1]))}, "d")
        for column in [["p", "q"], ("p", "q"),
                       (["p", "q"], codes([0, 1], writeable=True)),
                       (["p", "q"], codes([1, 0])),  # not numbered by first occurrence
                       (["p", "q"], codes([0, -1])),
                       (["p", "p"], codes([0, 1])),  # duplicate tokens
                       (["p", "q", "r"], codes([0, 1])),  # a token no object has
                       (["p"], codes([0, 1])),
                       ([["p"], ["q"]], codes([0, 1])),  # unhashable tokens
                       (("p", "q"), codes([0, 1])), (["p", "q"], [0, 1])]:
            with pytest.raises(DataError, match="categorical column 'd' is not a pair"):
                InformationTable(specs, {"x": x, "d": column}, "d")
        with pytest.raises(DataError, match="columns have unequal lengths"):
            InformationTable(specs, {"x": x, "d": (["p"], codes([0, 0, 0]))}, "d")
        d = (["q", "p"], codes([0, 1]))
        for attributes, columns, decision, message in [
                (specs + specs[:1], {"x": x, "d": d}, "d", "duplicate attribute names"),
                (specs, {"x": x, "d": d}, "e", "missing decision column 'e'"),
                (specs, {"x": x[:0], "d": ([], codes([]))}, "d", "empty table"),
                (specs, {"x": x, "d": d}, "x", "decision attribute must be categorical")]:
            with pytest.raises(DataError, match=message):
                InformationTable(attributes, columns, decision)
        table = InformationTable(specs, {"x": x, "d": (["q", "p"], codes([0, 1]))}, "d")
        assert table.decision_labels == ["q", "p"] and table.column("d") == table.decision_labels

    def test_unhashable_categorical_cell_is_data_error(self):
        with pytest.raises(DataError, match="categorical column 'c' has an unhashable cell"):
            InformationTable.from_columns({"c": [[1], [2]], "d": ["p", "q"]}, "d")

    def test_from_columns_numeric_kind_with_text_is_data_error(self):
        with pytest.raises(DataError, match="row 1 has unparsable cell 'w'"):
            InformationTable.from_columns({"x": ["1", "w"], "d": ["p", "q"]}, "d",
                                          kinds={"x": "numeric"})

    def test_cli_reports_infinity_with_exit_2(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("x,d\n1,p\n1e999,q\n")
        assert run_cli(["inspect", str(path), "--decision", "d"]) == 2
        err = capsys.readouterr().err
        assert "column 'x' has non-finite value inf at line 3" in err
        assert "Traceback" not in err

    def test_cli_nan_range_is_position_independent(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("x,d\nnan,p\n3,q\n1,p\n")
        assert run_cli(["inspect", str(path), "--decision", "d"]) == 0
        assert "x: numeric range [1, 3]" in capsys.readouterr().out


class TestKindsAndTotalDecision:
    """from_columns types columns by load_table's rules, and a missing decision
    cell is an error on either loader and either read path."""

    @pytest.mark.parametrize("kinds, message", [
        ({"x": "Numeric"}, "invalid kind 'Numeric' for column 'x'"),
        ({"x": ""}, "invalid kind '' for column 'x'"),
        ({"zz": "numeric"}, "schema hint for unknown column 'zz'")])
    def test_kinds_are_checked_like_schema_hints(self, kinds, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            InformationTable.from_columns({"x": ["1", "2"], "d": ["p", "q"]}, "d", kinds=kinds)
        assert outcome(load_table, "x,d\n1,p\n2,q\n", "d", schema_hints=kinds) == (
            f"DataError: {message}")

    def test_kind_for_the_decision_is_ignored(self):
        table = InformationTable.from_columns({"x": [1, 2], "d": [1, 2]}, "d",
                                              kinds={"d": "numeric"})
        assert table.attribute("d").kind == "categorical"

    @pytest.mark.parametrize("cell", ["", "?", " ", " ? "])
    @pytest.mark.parametrize("quoted", [False, True])
    def test_missing_decision_cell_is_data_error(self, cell, quoted):
        text = f"x,d\n1,p\n2,{cell}\n3,q\n"
        if quoted:
            text = text.replace("1,p", '1,"p"')
        assert _exact_reads(load_table, text, "d") == quoted
        assert outcome(load_table, text, "d") == (
            "DataError: decision column contains MISSING values")

    def test_missing_decision_value_from_columns_is_data_error(self):
        with pytest.raises(DataError, match="decision column contains MISSING values"):
            InformationTable.from_columns({"x": [1, 2], "d": ["p", MISSING]}, "d")


#: run headers with a column load_run rejects, and that column
UNEXPECTED_COLUMNS = [
    (("object_index", "predicted", "granules"), "granules"),
    (("object_index", "predicted", "granule", "score"), "score"),
    (("object_index", "predicted", "score", "granule"), "score")]


def _run_under(header, table):
    """A valid run of ``table`` under ``header``, each column past the second all "g"."""
    rows = [[i, label] + ["g"] * (len(header) - 2)
            for i, label in enumerate(table.decision_labels)]
    return run_csv(rows, header=header)


class TestRunFaults:
    @pytest.mark.parametrize("header, bad", UNEXPECTED_COLUMNS)
    def test_unexpected_column_is_data_error(self, toy8, header, bad):
        with pytest.raises(DataError, match=f"unexpected run column '{bad}'"):
            load_run(_run_under(header, toy8), toy8)

    def test_first_duplicate_in_file_order_is_named(self, toy8):
        rows = [[i, "0"] for i in (5, 2, 5, 2, 0, 1, 3, 4)]
        with pytest.raises(DataError, match="duplicate object_index 5"):
            load_run(run_csv(rows), toy8)

    @pytest.mark.parametrize("directive", ["", "# run_id=x\n", "# note\r\n"])
    def test_error_lines_count_the_directive_line(self, toy8, directive):
        head = directive + "object_index,predicted\n0,a\n"
        line = 4 if directive else 3
        with pytest.raises(DataError, match=f"ragged run row at line {line}$"):
            load_run(head + "1,b,c\n", toy8)
        with pytest.raises(DataError, match=f"non-integer object_index 'x' at line {line}$"):
            load_run(head + "x,b\n", toy8)
        with pytest.raises(DataError, match="^empty run file$"):
            load_run(directive, toy8)

    def test_cli_rejects_granule_typo_with_exit_2(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("a,d\n1,p\n2,q\n")
        run = tmp_path / "r.csv"
        run.write_text("object_index,predicted,granules\n0,p,g0\n1,q,g1\n")
        assert run_cli(["evaluate", str(table), str(run), "--decision", "d"]) == 2
        assert "unexpected run column 'granules'" in capsys.readouterr().err


class TestReadCurve:
    TEXT = ("bits_level,block_count,conditional_bits,normalized_conditional,"
            "boundary_fraction,gamma\n0,1,1.0,1.0,1.0,0.0\n\n1,2,0.5,0.5,0.5,0.5\n")

    @pytest.mark.parametrize("eol", ["\r", "\r\n"])
    def test_record_ends_read_alike(self, eol):
        assert read_curve(self.TEXT.replace("\n", eol)) == read_curve(self.TEXT)

    @pytest.mark.parametrize("old, new, message", [
        ("0.5,0.5,0.5,0.5", "0.5,x,0.5,0.5",
         "curve column 'normalized_conditional' has unparsable cell 'x' at line 4"),
        ("1,2,", "1.5,2,", "curve column 'bits_level' has unparsable cell '1.5' at line 4"),
        ("0,1,1.0,", "0,1,1.0,1.0,", "ragged curve row at line 2"),
        ("0,1,", "0," + "9" * 131_073 + ",", "line 2: field larger than field limit"),
        (TEXT, "", "empty curve file"),
        ("bits_level,", "bits,", "unexpected curve header"),
        (TEXT[TEXT.index("\n") + 1:], "", "curve file has no points"),
        ("1,2,0.5", "0,2,0.5", "curve rows must be ordered by strictly increasing bits_level")])
    def test_faults_are_data_errors(self, old, new, message):
        with pytest.raises(DataError, match=message):
            read_curve(self.TEXT.replace(old, new, 1))


def test_factorize_returns_first_occurrence_codes_unchanged():
    codes = np.array([0, 1, 0, 2, 1, 3], dtype=np.int64)
    assert factorize(codes) is codes
    for tokens in ([1, 0, 2], [0, 2, 1], [0, -1, 1], [0, 0, 5]):
        arr = np.array(tokens)
        assert factorize(arr).tolist() == factorize(tokens).tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 6), min_size=1, max_size=30))
def test_factorize_integer_array_matches_token_loop(tokens):
    assert factorize(np.array(tokens)).tolist() == factorize(list(tokens)).tolist()


@st.composite
def integer_keys(draw):
    """Integer arrays of each dtype over ranges inside, at and past the dense bound."""
    dtype = np.dtype(draw(st.sampled_from([np.int8, np.int32, np.uint64, np.int64])))
    info = np.iinfo(dtype)
    n = draw(st.integers(1, 40))
    lo = max(int(info.min), draw(st.sampled_from([0, 0, 1, -5, -(2**63)])))
    span = draw(st.sampled_from([1, n, _DENSE * n - 1, _DENSE * n, 10**6, 2**64]))
    hi = min(int(info.max), lo + span)
    values = draw(st.lists(st.one_of(st.integers(lo, hi), st.sampled_from([lo, hi])),
                           min_size=n, max_size=n))
    return np.array(values, dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(integer_keys())
def test_factorize_integer_array_matches_unique_oracle(keys):
    got = factorize(keys)
    assert got.dtype == np.int64
    assert got.tolist() == factorize_by_unique(keys).tolist()


def test_factorize_dense_keys_without_unique(monkeypatch):
    calls = []
    orig = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or orig(*a, **k))
    keys = np.array([7, 3, 7, 0, 3, 12], dtype=np.int64)  # below _DENSE * 6
    assert factorize(keys).tolist() == [0, 1, 0, 2, 1, 3]
    assert calls == []
    assert factorize(keys * 10**6).tolist() == [0, 1, 0, 2, 1, 3]
    assert calls == [1]


def test_loading_makes_no_full_collection():
    """Row lists must die young: none may be promoted into the old generations.
    The inputs are plain, so the byte paths read them; a second pass reads them
    by the csv path, whose one pass frees each row list when it reads the next."""
    rng = np.random.default_rng(11)
    values = np.round(rng.uniform(size=(20_000, 20)), 6)
    header = ",".join(f"a{j}" for j in range(20)) + ",d\n"
    table_text = header + "".join(
        ",".join(map(repr, row)) + f",{i % 3}\n" for i, row in enumerate(values.tolist()))
    n = 50_000
    runs_table = InformationTable.from_columns(
        {"d": [f"k{i % 3}" for i in range(n)]}, "d")
    run_texts = []
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(n).tolist()
        run_texts.append("object_index,predicted,granule\n" + "".join(
            f"{i},k{i % 3},g{i % 7}\n" for i in order))

    done = []

    def load_all():
        table = load_table(table_text, "d")
        runs = [load_run(text, runs_table) for text in run_texts]
        assert table.n == 20_000 and all(len(r.predicted) == n for r in runs)
        assert not math.isnan(table.attribute("a0").observed_range[0])
        done.append(load)

    # outcome and _exactly return a DataError: done shows each pass loaded all
    for load, reads in [(outcome, 0), (_exactly, 4)]:
        gc.collect()
        before = gc.get_stats()[2]["collections"]
        assert _exact_reads(load, load_all) == reads
        assert gc.get_stats()[2]["collections"] == before
        assert done[-1:] == [load]


#: characters str.splitlines breaks at but csv treats as ordinary cell text
LINE_BREAK_CHARS = ["\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _run_with_cell(column, value, directive=""):
    rows = [[str(i), "0", f"g{i % 3}"] for i in range(8)]
    rows[3][column] = value
    return directive + "object_index,predicted,granule\n" + "".join(
        ",".join(row) + "\n" for row in rows)


class TestRunCellsKeepLineBreakCharacters:
    @pytest.mark.parametrize("char", LINE_BREAK_CHARS)
    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("column", [1, 2])
    def test_cell_comes_back_unchanged(self, toy8, char, quoted, column):
        value = f"p{char}x"
        text = _run_with_cell(column, f'"{value}"' if quoted else value)
        run = load_run(text, toy8)
        assert (run.predicted if column == 1 else run.granule)[3] == value
        assert load_run_by_rows(text, toy8) == run

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_directive_line_ending(self, toy8, ending):
        text = _run_with_cell(1, "p\u2028x", directive=f"# run_id=r7 meta=m\x85n{ending}")
        run = load_run(text, toy8, run_id="ignored")
        assert (run.run_id, run.meta, run.predicted[3]) == ("r7", "m\x85n", "p\u2028x")
        assert load_run_by_rows(text, toy8, run_id="ignored") == run

    @pytest.mark.parametrize("encode", [False, True])
    def test_directive_after_a_unicode_space(self, toy8, encode):
        """U+3000 is whitespace to ``str.lstrip``, so this line is a directive."""
        text = _run_with_cell(1, "0", directive="\u3000# run_id=r7 meta=x\n")
        run = load_run(text.encode() if encode else text, toy8)
        assert (run.run_id, run.meta) == ("r7", "x")

    def test_cli_evaluates_run_with_line_break_cells(self, tmp_path, toy8_csv, capsys):
        table = tmp_path / "t.csv"
        table.write_text(toy8_csv)
        run = tmp_path / "r.csv"
        text = _run_with_cell(2, '"g\x85y"', directive="# run_id=r7\r\n")
        run.write_bytes(text.replace("0,0,g0\n", "0,0\x85,g0\n").encode())
        assert run_cli(["evaluate", str(table), str(run), "--decision", "d"]) == 0
        out = capsys.readouterr().out
        assert "run r7: accuracy=0.250000000" in out and "blocks=4" in out


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), run_inputs(n, st.sampled_from(["a", "b"] + LINE_BREAK_CHARS)))))
def test_load_run_with_line_break_cells_matches_row_by_row_oracle(inputs):
    n, text = inputs
    table = InformationTable.from_columns({"d": [f"k{i % 2}" for i in range(n)]}, "d")
    assert outcome(load_run, text, table) == outcome(load_run_by_rows, text, table)


class TestCsvModuleErrors:
    BIG = "x" * 131_073  # one past the csv module's default field size limit

    @pytest.mark.parametrize("text, line", [(BIG + ",d\n1,p\n", 1),
                                            ("a,d\n1,p\n" + BIG + ",q\n", 3),
                                            ("a,d\n" + "1,p\n" * 300 + BIG + ",q\n", 302)])
    def test_oversized_table_field_is_data_error(self, text, line):
        with pytest.raises(DataError, match=f"line {line}: field larger than field limit"):
            load_table(text, "d")

    def test_oversized_run_field_is_data_error(self, toy8):
        with pytest.raises(DataError, match="line 5: field larger than field limit"):
            load_run(_run_with_cell(1, self.BIG), toy8)

    @pytest.mark.parametrize("directive, line", [("", 2), ("# run_id=x\n", 3)])
    def test_oversized_run_field_counts_the_directive_line(self, toy8, directive, line):
        text = directive + "object_index,predicted\n0," + self.BIG + "\n"
        with pytest.raises(DataError, match=f"line {line}: field larger than field limit"):
            load_run(text, toy8)

    @pytest.mark.parametrize("cell", [
        "0." + "0" * 131_072 + "1",  # a number float() reads, on one line
        '"1' + "\n" * 131_073 + '"',  # a number padded over many short lines
        '"' + "a," * 65_537 + '"'])  # quoted text with a comma every two characters
    def test_oversized_field_that_numpy_reads_is_data_error(self, cell):
        for text in (f"a,d\n1,p\n{cell},q\n", f"d,a\np,1\nq,{cell}\n"):
            with pytest.raises(DataError, match="line 3: field larger than field limit"):
                load_table(text, "d")

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_lines_count_records_after_a_multiline_cell(self, toy8, eol):
        # header, a quoted cell over three physical lines, a blank record, a row
        head = eol.join(["a,d", f'"x{eol}{eol}y",p', "", "1,q", ""])
        with pytest.raises(DataError, match="line 5: field larger than field limit"):
            load_table(head + self.BIG + ",r" + eol, "d")
        with pytest.raises(DataError, match="ragged row at line 5"):
            load_table(head + "1,r,s" + eol, "d")
        run = _run_with_cell(1, f'"p{eol}q"').replace("\n", eol)
        with pytest.raises(DataError, match="line 7: field larger than field limit"):
            load_run(run.replace("5,0,", f"5,{self.BIG},"), toy8)
        with pytest.raises(DataError, match="ragged run row at line 7"):
            load_run(run.replace("5,0,", "5,0,0,"), toy8)

    @pytest.mark.parametrize("gap", [0, 300])
    def test_ragged_record_ends_the_read_before_an_unreadable_one(self, gap):
        text = "a,d\n1,p,x\n" + "1,p\n" * gap + self.BIG + ",q\n"
        with pytest.raises(DataError, match="ragged row at line 2"):
            load_table(text, "d")

    @pytest.mark.parametrize("text", ["a,d\r1,x\r2,y\r", "a,d\r\n1,x\r2,y\n"])
    def test_bare_carriage_return_ends_records(self, text):
        got = load_table(text, "d")
        want = load_table("a,d\n1,x\n2,y\n", "d")
        assert repr(got.attributes) == repr(want.attributes)
        assert got.decision_labels == want.decision_labels == ["x", "y"]

    def test_bare_carriage_return_in_run(self, toy8):
        text = _run_with_cell(1, "0").replace("\n", "\r")
        assert load_run(text, toy8) == load_run(_run_with_cell(1, "0"), toy8)

    def test_cli_exit_codes(self, tmp_path, toy8_csv, capsys):
        table = tmp_path / "t.csv"
        table.write_bytes(b"a,d\r1,x\r2,y\r")
        assert run_cli(["inspect", str(table), "--decision", "d"]) == 0
        assert "n=2" in capsys.readouterr().out
        table.write_text("a,d\n1,p\n" + self.BIG + ",q\n")
        assert run_cli(["inspect", str(table), "--decision", "d"]) == 2
        err = capsys.readouterr().err
        assert "line 3: field larger than field limit" in err and "Traceback" not in err
        table.write_text(toy8_csv)
        run = tmp_path / "r.csv"
        run.write_text(_run_with_cell(2, self.BIG))
        assert run_cli(["evaluate", str(table), str(run), "--decision", "d"]) == 2
        assert "line 5: field larger than field limit" in capsys.readouterr().err


# --- the csv path's one-pass reader against the chunked reader it replaced ----

#: cell text the csv module must quote: a comma, a quote and both line-end characters
READER_CELL = st.text(alphabet='ab ,"\n\r', max_size=4)


def _record(cells, quote_all):
    """One CSV record: a cell quoted where it holds a special character, in a
    record of one empty cell (which would read as a blank one), or everywhere."""
    return ",".join(
        '"' + cell.replace('"', '""') + '"'
        if quote_all or cells == [""] or any(ch in cell for ch in ',"\r\n') else cell
        for cell in cells)


@st.composite
def reader_texts(draw):
    """CSV bytes, the ``skipped`` lines, a lowered field size limit or None, and
    the bytes up to the end of the first ragged record (all of them if there is none).

    Runs of blank records cross the old reader's 256-record chunks, and a run
    before the header makes the header blank. A field over the lowered limit
    may fall anywhere, the header and the ragged record included."""
    width = draw(st.integers(1, 4))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    quote_all = draw(st.booleans())
    blank_runs = st.sampled_from([1, 2, 255, 256, 257, 600]).map(lambda k: [None] * k)
    rows = st.lists(READER_CELL, min_size=width, max_size=width).map(lambda r: [r])
    records = [row for part in draw(st.lists(st.one_of(rows, rows, blank_runs), max_size=8))
               for row in part]
    records.insert(0, draw(st.lists(READER_CELL, min_size=width, max_size=width)))
    if draw(st.booleans()):
        records = [None] * draw(st.sampled_from([1, 300])) + records
    if draw(st.booleans()):
        size = draw(st.integers(1, 5).filter(lambda k: k != width))
        records.insert(draw(st.integers(1, len(records))),
                       draw(st.lists(READER_CELL, min_size=size, max_size=size)))
    limit = None
    if draw(st.booleans()):
        limit = 6  # longer than any READER_CELL
        record = draw(st.sampled_from([record for record in records if record]))
        record[draw(st.integers(0, len(record) - 1))] = draw(
            st.sampled_from(["x" * 7, "a,\r\n" * 3, '"' * 8]))
    lines = ["" if record is None else _record(record, quote_all) for record in records]
    text = "".join(line + eol for line in lines)
    if draw(st.booleans()):
        text = text[:-len(eol)]  # no line end after the last record
    head = len(records[0] or ())
    ragged = [i for i, record in enumerate(records[1:], 1) if record and len(record) != head]
    cut = len("".join(line + eol for line in lines[:ragged[0] + 1])) if ragged else len(text)
    return text.encode(), draw(st.sampled_from([0, 1])), limit, text[:cut].encode()


@settings(max_examples=300, deadline=None)
@given(reader_texts())
def test_read_columns_matches_chunked_reader(inputs):
    """The one-pass reader returns what the chunked one did, or raises its error.
    Reading stops at the first ragged record, so the chunked reader reads only as
    far: it read on to the end of the ragged record's chunk and raised on an
    unreadable record there. Under a blank header the chunked reader listed a
    blank record only when its chunk also held another record, and each loader
    rejects an empty header first, so only the header and the ragged record count."""
    body, skipped, limit, upto_ragged = inputs
    old = csv.field_size_limit(limit or csv.field_size_limit())
    try:
        got = outcome(read_columns, body, skipped)
        want = outcome(read_columns_chunked, upto_ragged, skipped)
    finally:
        csv.field_size_limit(old)
    if isinstance(want, tuple) and want[0] == [] and isinstance(got, tuple):
        got, want = (got[0], got[3]), (want[0], want[3])
    assert got == want


# --- the byte reader of tables (reader.scan, np.loadtxt) against the exact path

#: characters on whose presence the byte scanner leaves a text to the exact path
TRIGGERS = ["\x00", "\x1c", "\x1d", "\x1e", "\x1f"]
TYPED_NUMBER = st.one_of(
    st.integers(-1000, 1000).map(str), st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.sampled_from(["nan", "-nan", "NaN", "-0.0", "+4", ".5", "5.", "1e-300", " 7 ",
                     "\xa05\u3000", '"4"', '" 4"', '"2\n"']))
#: cells np.loadtxt reads otherwise or not at all, or that are errors
ODD_NUMBER = st.sampled_from(["inf", "-inf", "1e999", "-1e999", "\u0661", "0x10",
                              "\ufeff1", '"1,5"', "1_0", "nan(1)"])
#: raw CSV text of one cell, quotes included
TYPED_WORD = st.sampled_from([
    "a", "b", "x y", " a ", '"a,b"', '"q""t"', 'q"t', '"a"b', ' "a"', "p\u2028q", "\x85",
    '"p\nq"', '"p\r\nq"', "\ufeff", "\u03a9", "#", "1"])


def _join(draw, rnd, lines):
    """CSV text of raw lines with one line end, blank lines, a trigger or a BOM.
    A bare CR and a blank line send a text to the csv path, so they (and a missing
    final line end) are rare enough to leave many texts to the byte path."""
    eol = "\r" if rare(rnd, 0.15) else draw(st.sampled_from(["\n", "\r\n"]))
    lines = [out for line in lines for out in ([""] if rare(rnd, 0.03) else []) + [line]]
    if rare(rnd, 0.1):
        at = rnd.randrange(len(lines))
        spot = rnd.randrange(len(lines[at]) + 1)
        lines[at] = lines[at][:spot] + rnd.choice(TRIGGERS) + lines[at][spot:]
    text = eol.join(lines) + ("" if rare(rnd, 0.15) else eol)
    if rare(rnd, 0.1):
        return text.encode("utf-8-sig")  # a BOM the decoder drops
    return "\ufeff" + text if rare(rnd, 0.05) else text


@st.composite
def typed_tables(draw):
    """Mostly all-numeric tables written cell by cell, quotes and all."""
    rnd = draw(st.randoms(use_true_random=False))
    width = draw(st.integers(1, 3))
    lines = [",".join([f"x{i}" for i in range(width)] + ["d"])]
    for _ in range(draw(st.integers(0, 8))):
        cells = [draw(ODD_NUMBER if rare(rnd, 0.03) else TYPED_NUMBER)
                 for _ in range(width)] + [draw(TYPED_WORD)]
        if rare(rnd, 0.05):
            cells[rnd.randrange(len(cells))] = draw(MISSING_CELL)
        if rare(rnd, 0.03):
            cells = cells[:-1] if rnd.random() < 0.5 else cells + ["1"]
        lines.append(",".join(cells))
    hints = {name: draw(st.sampled_from(["numeric", "categorical"]))
             for name in lines[0].split(",") if rare(rnd, 0.2)}
    if rare(rnd, 0.03):
        hints["x0"] = "bogus"
    if rare(rnd, 0.03):
        hints["zz"] = "numeric"  # unknown column
    return _join(draw, rnd, lines), hints


@st.composite
def typed_runs(draw, n):
    """Run files written cell by cell, with rare faults in object_index and rare
    padded, quoted or wrong header names."""
    rnd = draw(st.randoms(use_true_random=False))
    names = ["object_index", "predicted"] + ["granule"] * draw(st.booleans())
    if rare(rnd, 0.05):
        names[2:] = ["granule", "score"]
    rows = [[str(i)] + [draw(TYPED_WORD) for _ in names[1:]] for i in range(n)]
    rows = draw(st.permutations(rows))
    while rare(rnd, 0.2):
        rows[rnd.randrange(n)][0] = draw(st.sampled_from(
            ["x", "1.0", "", str(n), "-1", str(10**30), " 3 ", "+2", "-0", "0_1",
             "\u0661", "\x1c1", rows[rnd.randrange(n)][0]]))
    if rare(rnd, 0.1):
        rows = rows[:-1]
    if rare(rnd, 0.03) and rows:  # n == 1 may have lost its only row
        rows[0] = rows[0] + ["1"]
    header = ",".join(names)
    if rare(rnd, 0.15):  # a header that reads alike, or a wrong one
        header = header.replace(*rnd.choice([
            ("object_index", '"object_index"'), (",predicted", ", predicted"),
            ("object_index", "\u3000object_index"), ("granule", " granule\u3000"),
            ("granule", "granules")]), 1)
    lines = [header] + [",".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(0, "# run_id=r1 meta=k=3")
    return _join(draw, rnd, lines)


def _table_state(got):
    if isinstance(got, str):
        return got
    return ([repr(a) for a in got.attributes], got.decision_labels,
            [got.column(a.name).tobytes() if a.kind == "numeric" else got.column(a.name)
             for a in got.attributes])


def _by_rows_reads(text):
    """False where the row oracle's csv reader raises: on a bare CR, which
    ends a record, or on NUL under Python 3.10."""
    raw = text.decode("utf-8-sig") if isinstance(text, bytes) else text
    return "\r" not in raw.replace("\r\n", "") and "\x00" not in raw


@settings(max_examples=500, deadline=None)
@given(typed_tables())
def test_typed_load_table_matches_exact_path_and_row_oracle(inputs):
    text, hints = inputs
    got = _table_state(outcome(load_table, text, "d", schema_hints=hints))
    assert got == _table_state(_exactly(load_table, text, "d", schema_hints=hints))
    if _by_rows_reads(text):
        assert got == _table_state(outcome(load_table_by_rows, text, "d", schema_hints=hints))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), typed_runs(n))))
def test_typed_load_run_matches_exact_path_and_row_oracle(inputs):
    n, text = inputs
    table = InformationTable.from_columns({"d": [f"k{i % 2}" for i in range(n)]}, "d")
    got = outcome(load_run, text, table)
    assert got == _exactly(load_run, text, table)
    if _by_rows_reads(text):
        assert got == outcome(load_run_by_rows, text, table)


RAW = st.lists(st.sampled_from(list(',,,"\n\r 0123456789.e-+nafi?x\t') + [
    "\r\n", '""', "inf", "nan", "\xa0", "\ufeff"] + TRIGGERS), max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["a,d\n", "a,b,d\n", "d\n", "d,a\r\n", "object_index,predicted\n",
                        "# x\r\nobject_index,predicted,granule\n"]), RAW)
def test_typed_path_matches_exact_path_on_raw_text(head, body):
    """Quotes, line ends and number syntax in any order, mostly not CSV-shaped."""
    if "object_index" in head:
        table = InformationTable.from_columns({"d": ["k0", "k1", "k0"]}, "d")
        assert outcome(load_run, head + body, table) == _exactly(load_run, head + body, table)
    else:
        got = _table_state(outcome(load_table, head + body, "d"))
        assert got == _table_state(_exactly(load_table, head + body, "d"))


#: raw cells of mixed tables: numbers, words, missing tokens and NaN spellings
MIXED_NUMBER = st.one_of(
    st.integers(-1000, 1000).map(str), st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.sampled_from(["-0.0", "+4", ".5", "5.", "1e-300", " 7 ", "\xa05\u3000"]))
MIXED_WORD = st.sampled_from(["a", "b", "x y", " a ", "\u03a9", "0x1", "--", "inf1", "p\u2028q"] * 4
                             + ["NaN", BLANK, " " + BLANK])
#: cells the typed path reads as missing
MIXED_GAP = st.sampled_from(["", "", "", "nan", "NaN", "-nan"])
#: cells on which it falls back in a numeric column, and the blank's sentinel
MIXED_ODD = st.sampled_from(["?", " ", " ? ", "\t", BLANK, " " + BLANK, "1_0", "inf"])


@st.composite
def mixed_tables(draw):
    """Tables of numeric, categorical and blank columns, written cell by cell.

    A categorical column's word may sit only in row 1 or only after it; a
    blank column holds only empty cells. Quotes and cells that make the
    typed path fall back are rare, so about a quarter of the texts are read
    typed (tokens wider than the rows send about a fifth to the csv path),
    many of them with empty cells filled. Returns the text and schema hints,
    which some columns have.
    """
    rnd = draw(st.randoms(use_true_random=False))
    modes = draw(st.lists(st.sampled_from(
        ["numeric"] * 4 + ["categorical"] * 2 + ["word-first", "word-late", "blank"]),
        min_size=1, max_size=4))
    n = draw(st.integers(1, 8))

    def cell(pool):
        return draw(MIXED_ODD if rare(rnd, 0.02) else
                    MIXED_GAP if rare(rnd, 0.25) else pool)

    columns = []
    for mode in modes:
        col = [cell(MIXED_WORD if mode == "categorical" else MIXED_NUMBER) for _ in range(n)]
        if mode == "word-first":
            col[0] = draw(MIXED_WORD)
        elif mode == "word-late" and n > 1:
            col[rnd.randrange(1, n)] = draw(MIXED_WORD)
        elif mode == "blank":
            col = [""] * n
        columns.append(col)
    columns.append([draw(MIXED_GAP if rare(rnd, 0.05) else MIXED_WORD) for _ in range(n)])
    header = [f"x{i}" for i in range(len(modes))] + ["d"]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(header) - 1))  # the decision need not be last
        header.insert(at, header.pop())
        columns.insert(at, columns.pop())
    rows = [list(row) for row in zip(*columns)]
    if rare(rnd, 0.1):
        cells = [(i, j) for i in range(n) for j in range(len(header))]
        for i, j in rnd.sample(cells, min(len(cells), 2)):  # commas inside quotes
            rows[i][j] = '"' + rows[i][j] + rnd.choice(["", ",", ",,", ",\n,", "\r,"]) + '"'
    hints = {name: draw(st.sampled_from(["numeric", "categorical"]))
             for name in header if rare(rnd, 0.1)}
    return _join(draw, rnd, [",".join(header)] + [",".join(row) for row in rows]), hints


@settings(max_examples=500, deadline=None)
@given(mixed_tables())
def test_typed_mixed_table_matches_exact_path_and_row_oracle(inputs):
    text, hints = inputs
    got = _table_state(outcome(load_table, text, "d", schema_hints=hints))
    assert got == _table_state(_exactly(load_table, text, "d", schema_hints=hints))
    if _by_rows_reads(text):
        assert got == _table_state(outcome(load_table_by_rows, text, "d", schema_hints=hints))


#: cells of plain tables: no quotes, no padding, and none wider than four bytes
PLAIN_NUMBER = st.one_of(st.integers(-99, 99).map(str),
                         st.sampled_from(["2.5", "-0.0", ".5", "5.", "1e3", "0.25", "nan"]))
PLAIN_WORD = st.sampled_from(["a", "b", "ab", "x y", "\u03a9", "a\u2028", "-"])


@st.composite
def plain_tables(draw):
    """Tables in ``reader.scan``'s grammar with schema hints, which the byte path reads.

    No cell is quoted or padded, no line is blank, no record ends in a bare CR, no
    token is wider than the rows, and a numeric column has a number (or a blank) in
    its first record. Hints fall on any column, the decision included; a hint that
    contradicts the cells, an invalid kind and an unknown name are rare.
    """
    rnd = draw(st.randoms(use_true_random=False))
    kinds = draw(st.lists(st.sampled_from(["numeric", "numeric", "categorical"]),
                          min_size=1, max_size=3))
    n = draw(st.integers(4, 9))
    columns = []
    for kind in kinds:
        pool = PLAIN_NUMBER if kind == "numeric" else st.one_of(PLAIN_WORD, PLAIN_NUMBER)
        col = [draw(st.just("") if rare(rnd, 0.1) else pool) for _ in range(n)]
        if kind == "categorical":
            col[0] = draw(PLAIN_WORD)  # so the first record infers it categorical
            if rare(rnd, 0.1):
                col[rnd.randrange(1, n)] = "?"
        columns.append(col)
    columns.append([draw(st.sampled_from(["p", "q", "0", "1"])) for _ in range(n)])
    header = [f"x{i}" for i in range(len(kinds))] + ["d"]
    kinds.append("categorical")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(header) - 1))  # the decision need not be last
        for seq in (header, columns, kinds):
            seq.insert(at, seq.pop())
    hints = {}
    for name, kind in zip(header, kinds):
        if rare(rnd, 0.5):
            other = "categorical" if kind == "numeric" else "numeric"
            hints[name] = other if rare(rnd, 0.05 if name != "d" else 0.5) else kind
    if rare(rnd, 0.03):
        hints[rnd.choice(header)] = "bogus"
    if rare(rnd, 0.03):
        hints["zz"] = "numeric"  # unknown column
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)] + [",".join(row) for row in zip(*columns)]
    return eol.join(lines) + ("" if rare(rnd, 0.1) else eol), hints


def test_plain_hinted_tables_are_read_by_bytes():
    hits = Counter()

    @settings(max_examples=300, deadline=None)
    @given(plain_tables())
    def check(inputs):
        text, hints = inputs
        reads = _exact_reads(load_table, text, "d", schema_hints=hints)
        got = _table_state(outcome(load_table, text, "d", schema_hints=hints))
        assert got == _table_state(_exactly(load_table, text, "d", schema_hints=hints))
        assert got == _table_state(outcome(load_table_by_rows, text, "d", schema_hints=hints))
        if hints:
            hits.update(["hinted"] + ["by bytes"] * (reads == 0))

    check()
    assert hits["by bytes"] > hits["hinted"] / 2, hits


def test_load_table_leaves_a_bytearray_as_it_is():
    """The byte scanner adds a final line end to a copy, not to the caller's buffer."""
    data = bytearray(b"a,d\n1,x\n2,y")
    assert _exact_reads(load_table, data, "d") == 0
    assert data == b"a,d\n1,x\n2,y"


def test_blank_reads_as_nan_with_the_bytes_of_math_nan():
    """The sentinel the table byte reader writes into empty numeric fields, read by
    its own np.loadtxt call: numpy (down to the declared floor) and float() must
    both read it as math.nan, and read only the asked columns."""
    text = f"a,w,b,d\r\n{BLANK},{BLANK} x,-0.0,p\n2.5e-3,\u2028,{BLANK},q\n".encode()
    values = np.loadtxt(io.BytesIO(text), dtype=np.float64, delimiter=",", comments=None,
                        skiprows=1, usecols=[0, 2], ndmin=2, encoding="latin-1")
    nan = np.float64(math.nan).tobytes()
    assert np.float64(float(BLANK)).tobytes() == nan
    assert values.tobytes() == np.array([[math.nan, -0.0], [2.5e-3, math.nan]]).tobytes()


class TestTypedPathSelection:
    # a blank line, a blank cell, and a column whose only number is -2.5e3
    CLEAN = "a,b,d\r\n1,nan,p\r\n\r\n 3,-2.5e3,q;r\r\n+4,,p\u2028\r\n"
    QUOTED = 'a,b,d\r\n1,-2.5e3,p\r\n\r\n" 3",nan,"q,r"\r\n+4,-0.0,p\u2028\r\n'
    # CLEAN without the blank line, which sends a table to the csv path, and with a
    # fourth row, so that no token is wider than the rows (p\u2028 takes 4 bytes)
    PLAIN = CLEAN.replace("\r\n\r\n", "\r\n") + "-1,,q\r\n"

    def test_clean_numeric_table_is_read_typed(self):
        assert _exact_reads(load_table, self.PLAIN, "d") == 0
        assert _exact_reads(load_table, self.PLAIN.encode("utf-8-sig"), "d") == 0
        got = _table_state(outcome(load_table, self.PLAIN, "d"))
        assert got == _table_state(_exactly(load_table, self.PLAIN, "d"))
        assert _exact_reads(load_table, self.CLEAN, "d") == 1  # the blank line

    @pytest.mark.parametrize("old, new", [
        ("-2.5e3", ""), ("-2.5e3", "?"), ("-2.5e3", "x"), ("a,b", '"a",b'),
        ("+4", "1_0"), (" 3,-2.5e3,q;r", '" 3",-2.5e3,"q,r"')]
        + [("+4", char + "4") for char in TRIGGERS]
        + [("\r\n 3", "\r\n\r\n 3"),  # a blank line
           ("p\r\n", "p\r"),  # a bare CR
           ("q;r", "q;rrr"),  # a token wider than the rows
           ("a,b", "a" * 131_073 + ",b")])  # a header field over the csv limit
    def test_table_falls_back(self, old, new):
        text = self.PLAIN.replace(old, new, 1)
        assert _exact_reads(load_table, text, "d") == 1
        assert _table_state(outcome(load_table, text, "d")) == _table_state(
            _exactly(load_table, text, "d"))

    @pytest.mark.parametrize("load, text, cell", [
        (load_table, PLAIN.replace("+4", "@"), b"1\xa0"),
        (load_table, PLAIN.replace("+4", "@"), b"\x851"),
        (load_run, _run_with_cell(2, "@"), b"g\xa0"),  # a token
        (load_run, _run_with_cell(0, "@"), b"3\xa0")],  # after an index digit
        ids=["table-1a0", "table-851", "run-token", "run-index"])
    def test_invalid_utf8_is_data_error(self, toy8, load, text, cell):
        """np.loadtxt reads the table fields, decoded as latin-1, as 1.0: bytes must be
        checked as UTF-8 before they are scanned."""
        data = text.encode().replace(b"@", cell)
        args = (data, "d") if load is load_table else (data, toy8)
        got = outcome(load, *args)
        assert got == _exactly(load, *args)
        assert got.startswith("DataError: input is not valid UTF-8: ")

    @pytest.mark.parametrize("text", [
        "\ufeff" + PLAIN,  # a str keeps U+FEFF in its first header name
        PLAIN.replace("q;r", "\ud800")], ids=["feff", "surrogate"])
    def test_str_text_is_read_by_bytes(self, text):
        assert _exact_reads(load_table, text, "d") == 0
        got = outcome(load_table, text, "d")
        assert _table_state(got) == _table_state(_exactly(load_table, text, "d"))
        assert got.attributes[0].name == text[:text.index(",")]

    @pytest.mark.parametrize("text, decision", [
        (QUOTED, "nope"), (QUOTED.replace("b", "a", 1), "d"),
        (CLEAN, "nope"), (CLEAN.replace("b", "a", 1), "d")])
    def test_header_errors_match_exact_path(self, text, decision):
        assert outcome(load_table, text, decision) == _exactly(load_table, text, decision)
        assert outcome(load_table, text, decision).startswith("DataError: ")

    @pytest.mark.parametrize("text, message", [
        (PLAIN.replace("nan", "inf"), "column 'b' has non-finite value inf at line 2"),
        (PLAIN.replace("-1,", "-1e999,"), "column 'a' has non-finite value -inf at line 5"),
        (PLAIN.replace("-1,", "-inf,")[:-2], "column 'a' has non-finite value -inf at line 5")],
        ids=["nan-inf", "overflow", "last-line"])
    def test_infinity_is_read_by_bytes(self, text, message):
        """The grammar has no blank line and no multi-line record, so the byte path
        names the line of an infinity as the csv path does."""
        assert _exact_reads(load_table, text, "d") == 0
        assert outcome(load_table, text, "d") == _exactly(load_table, text, "d") == (
            "DataError: " + message)

    @pytest.mark.parametrize("hints", [
        {"a": "numeric"}, {"a": "categorical"}, {"b": "numeric"}, {"b": "categorical"},
        {"d": "numeric"}, {"b": "bogus"}, {"zz": "numeric"}], ids=repr)
    def test_hinted_table_is_read_typed(self, hints):
        text = self.PLAIN + "2,0.5,p\r\n" * 2  # six rows, so that -2.5e3 can be coded
        assert _exact_reads(load_table, text, "d", schema_hints=hints) == 0
        assert _table_state(outcome(load_table, text, "d", schema_hints=hints)) == _table_state(
            _exactly(load_table, text, "d", schema_hints=hints))

    @pytest.mark.parametrize("name, exact", [("\u00e9" * 6, 0), ("\u00e9" * 7, 1)])
    def test_header_field_limit_counts_bytes(self, name, exact):
        """scan measures every field, the header's too, in bytes, and the csv module
        in characters: a name over the limit only in bytes goes to the csv path."""
        old = csv.field_size_limit(12)
        try:
            text = self.PLAIN.replace("a,b", name + ",b", 1)
            assert _exact_reads(load_table, text, "d") == exact
            got = outcome(load_table, text, "d")
            assert _table_state(got) == _table_state(_exactly(load_table, text, "d"))
            assert got.attributes[0].name == name
        finally:
            csv.field_size_limit(old)

    def test_table_with_only_a_header_or_one_column_falls_back(self):
        assert _exact_reads(load_table, "a,d\n\n", "d") == 1
        # one column: a blank line would read as an empty field
        for text in ("d\np\nq\n", "d\np\n\nq\n"):
            assert _exact_reads(load_table, text, "d") == 1
            assert _table_state(outcome(load_table, text, "d")) == _table_state(
                _exactly(load_table, text, "d"))

    @pytest.mark.parametrize("run_id", [None, "r"])
    @pytest.mark.parametrize("header", [("object_index", "predicted"),
                                        ("object_index", "predicted", "granule")])
    def test_clean_run_is_read_typed(self, toy8, run_id, header):
        rows = [[i, f"p;\u2028{i % 3}", f"g'{i % 2}"][:len(header)] for i in range(8)]
        rows[3][1] = ""  # a predicted label may be empty
        assert _exact_reads(load_run, run_csv(rows[::-1], run_id, "m", header), toy8) == 0

    @pytest.mark.parametrize("column, value", [(0, ""), (0, "1.0"), (0, " 3 x"),
                                               (1, '"p,\u20281"'), (2, '"g""1"')]
                             + [(2, char) for char in TRIGGERS])
    def test_run_falls_back(self, toy8, column, value):
        assert _exact_reads(load_run, _run_with_cell(column, value), toy8) == 1

    # the sweep benchmark's table in small: blanks at the start, inside and at
    # the end of lines, a categorical column and a decision of words
    MIXED = "x0,c0,x1,y,x2\n0.5,c1,,no,\n,c0,-1.25,yes,3\n1e-3,c1,2,no,nan\n-0.0,c2,7,yes,4\n"

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_mixed_table_with_blanks_is_read_typed(self, eol):
        text = self.MIXED.replace("\n", eol)
        # a bare CR sends a table to the csv path; a missing final line end does not
        for variant, exact in [(text, eol == "\r"), (text.encode("utf-8-sig"), eol == "\r"),
                               (text + "5,c0,1,no,", eol == "\r")]:
            assert _exact_reads(load_table, variant, "y") == exact
            got = _table_state(outcome(load_table, variant, "y"))
            assert got == _table_state(_exactly(load_table, variant, "y"))
        table = load_table(text, "y")
        assert [a.kind[0] for a in table.attributes] == list("ncncn")
        assert table.column("c0") == ["c1", "c0", "c1", "c2"]
        assert np.isnan(table.column("x2")[[0, 2]]).all()

    @pytest.mark.parametrize("old, new", [
        ("1e-3", "?"), ("1e-3", " "), ("1e-3", "w"), ("c0,-1", '"c0",-1')])
    def test_mixed_table_falls_back(self, old, new):
        text = self.MIXED.replace(old, new, 1)
        assert _exact_reads(load_table, text, "y") == 1
        assert _table_state(outcome(load_table, text, "y")) == _table_state(
            _exactly(load_table, text, "y"))

    @pytest.mark.parametrize("old, new", [
        ("1e-3", BLANK), ("c2", BLANK), ("c2", " c0 "), ("c2", " ? "), ("no,\n,c0", "no,\n,")])
    def test_mixed_table_with_odd_tokens_is_read_typed(self, old, new):
        """The sentinel reads as NaN in a number column, as float() reads it, and is a
        token in a text column; padded and missing tokens merge after coding."""
        text = self.MIXED.replace(old, new, 1)
        assert _exact_reads(load_table, text, "y") == 0
        assert _table_state(outcome(load_table, text, "y")) == _table_state(
            _exactly(load_table, text, "y"))

    def test_all_blank_numeric_column_falls_back(self):
        text = "x0,c0,x1,y\n0.5,c1,,no\n,c0,,yes\n"
        assert _exact_reads(load_table, text, "y") == 1
        assert load_table(text, "y").attribute("x1").kind == "categorical"

    def test_late_blank_stays_typed(self):
        text = "a,b,d\n" + "".join(f"{i / 7!r},{i % 5},{i % 2}\n" for i in range(300))
        text += "0.5,,1\n"
        assert _exact_reads(load_table, text, "d") == 0
        assert np.isnan(load_table(text, "d").column("b")[-1])


# --- the run byte reader (reader.scan in load_run) against the exact path -----

def _run_read_alike(text, table, exact_reads):
    """Outcome of ``load_run`` after checking it takes the path ``exact_reads``
    names and matches the exact path and, where it reads the text, the row oracle."""
    assert _exact_reads(load_run, text, table) == exact_reads
    got = outcome(load_run, text, table)
    want = _exactly(load_run, text, table)
    assert got == want
    if not isinstance(got, str):  # and the codes evaluate_run scores
        texts, predicted, blocks = got._codes
        assert (texts, predicted.tolist(), blocks.tolist()) == (
            want._codes[0], want._codes[1].tolist(), want._codes[2].tolist())
    if _by_rows_reads(text):
        assert got == outcome(load_run_by_rows, text, table)
    return got


def _line_ends(text, ends):
    """``text`` with its n-th LF replaced by ``ends[n % len(ends)]``."""
    lines = text.split("\n")
    return "".join(line + ends[i % len(ends)] for i, line in enumerate(lines[:-1])) + lines[-1]


class TestRunByteReaderPath:
    BASE = _run_with_cell(1, "0")

    @pytest.mark.parametrize("text, exact", [
        (BASE, 0),
        (BASE.replace("\n", "\r\n"), 0),
        (_line_ends(BASE, ["\r\n", "\n", "\n"]), 0),
        (_line_ends(BASE, ["\n", "\n", "\r\n"]), 0),  # an LF header, CRLF records among LF
        (BASE.replace("\n", "\r"), 1),
        (BASE.replace("\n3,", "\r3,"), 1),  # one bare CR among the records
        (BASE[:-1], 0),  # no final line end
        (BASE[:-1] + "\r", 0),  # a final CR
        (BASE.encode("utf-8-sig"), 0),  # ASCII after a BOM
        (BASE.replace("\n3,", "\n\n3,"), 1),  # a blank line
        (BASE.replace("granule\n", "granule\n\n"), 1)])
    def test_line_ends(self, toy8, text, exact):
        got = _run_read_alike(text, toy8, exact)
        assert got == load_run(self.BASE, toy8)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_header_only(self, toy8, eol):
        got = _run_read_alike("object_index,predicted,granule" + eol, toy8, 1)
        assert got == "DataError: run row count 0 != universe size 8"

    @pytest.mark.parametrize("header", [
        " object_index , predicted,granule", "\u3000object_index,predicted\u3000,granule",
        "object_index,predicted,\u3000granule "])
    def test_padded_header(self, toy8, header):
        """The csv path strips header names, never tokens: the byte path reads these."""
        text = self.BASE.replace("object_index,predicted,granule", header)
        assert _run_read_alike(text, toy8, 0) == load_run(self.BASE, toy8)

    @pytest.mark.parametrize("header, message", [
        (header, f"unexpected run column '{bad}'") for header, bad in UNEXPECTED_COLUMNS] + [
        (header, "run header must start with object_index,predicted")
        for header in [("obj", "predicted"), ("object_index",), ()]])  # (): a blank first line
    def test_wrong_header(self, toy8, toy8_csv, tmp_path, capsys, header, message):
        text = _run_under(header, toy8)
        got = _run_read_alike(text, toy8, int(len(header) < 2))  # scan needs 2 columns
        assert got.startswith(f"DataError: {message}")
        (tmp_path / "t.csv").write_text(toy8_csv)
        (tmp_path / "r.csv").write_text(text)
        assert run_cli(["evaluate", str(tmp_path / "t.csv"), str(tmp_path / "r.csv"),
                        "--decision", "d"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("column, value, exact", [
        (1, "", 0), (2, "", 0), (1, "p\u2028x", 0), (2, "g\x85y", 0), (1, "Ω\x7f", 0),
        (2, " g ", 0), (1, "p\tq", 1), (1, "p\rq", 1), (1, "p\r", 1), (2, 'g"q', 1), (1, '"0"', 1)])
    def test_tokens(self, toy8, column, value, exact):
        run = _run_read_alike(_run_with_cell(column, value), toy8, exact)
        if "\r" not in value:  # a CR ends a record
            assert (run.predicted if column == 1 else run.granule)[3] == value.strip('"')

    @pytest.mark.parametrize("value, exact", [
        ("003", 0), ("0" * 17 + "3", 0), ("0" * 18 + "3", 1), ("+3", 1), (" 3", 1),
        ("3 ", 1), ("", 1), ("1" + "0" * 17, 0), ("9" * 19, 1), ("٣", 1)])
    def test_object_index(self, toy8, value, exact):
        got = _run_read_alike(_run_with_cell(0, value), toy8, exact)
        if int(value or "-1") == 3:
            assert got == load_run(self.BASE, toy8)
        else:
            assert got.startswith("DataError: ")

    @pytest.mark.parametrize("limit, column, value", [
        (None, 2, "g" * 131_073), (12, 2, "g" * 13), (12, 1, "p" * 13), (12, 0, "0" * 12 + "3")])
    def test_field_over_the_csv_limit(self, limit, column, value):
        table = InformationTable.from_columns({"d": [f"k{i % 2}" for i in range(20)]}, "d")
        rows = [[str(i), "0", f"g{i % 3}"] for i in range(20)]
        header = ("object_index", "predicted", "granule")
        old = csv.field_size_limit(limit or csv.field_size_limit())
        try:
            rows[3][column] = value
            text = run_csv(rows, header=header)
            assert _exact_reads(load_run, text, table) == 1
            assert outcome(load_run, text, table) == _exactly(load_run, text, table) == (
                "DataError: unreadable CSV record at line 5: field larger than field limit "
                f"({csv.field_size_limit()})")
            with pytest.raises(csv.Error, match="field larger than field limit"):
                load_run_by_rows(text, table)
            if limit:  # a field at the limit is read by bytes
                rows[3][column] = value[1:]
                _run_read_alike(run_csv(rows, header=header), table, 0)
        finally:
            csv.field_size_limit(old)

    @pytest.mark.parametrize("width, exact", [(8, 0), (9, 1)])
    def test_token_wider_than_the_rows(self, toy8, width, exact):
        _run_read_alike(_run_with_cell(1, "p" * width), toy8, exact)

    @pytest.mark.parametrize("width, exact", [(20, 0), (150, 1)])
    def test_token_past_the_work_bound(self, width, exact):
        # 200 rows of about 9 bytes: a 150-byte token makes 150 * 200 > 8 * 1,900
        table = InformationTable.from_columns({"d": [f"k{i % 2}" for i in range(200)]}, "d")
        rows = [[i, "0", f"g{i % 3}"] for i in range(200)]
        rows[7][2] = "w" * width
        run = _run_read_alike(run_csv(rows, header=("object_index", "predicted", "granule")),
                              table, exact)
        assert run.granule[7] == "w" * width


def _bench_shaped_table(shape, n=400):
    """(text, decision) of a table shaped as a benchmark workload writes it."""
    rng = np.random.default_rng(3)

    def numbers(values, gaps=None):
        cells = [repr(v) for v in np.round(values, 6).tolist()]
        for i in np.flatnonzero(gaps if gaps is not None else []).tolist():
            cells[i] = ""
        return cells

    def words(prefix, k):
        return [f"{prefix}{v}" for v in rng.integers(0, k, n).tolist()]

    gaps = rng.random((n, 4)) < 0.05
    columns = {
        "sweep": [numbers(rng.normal(size=n), gaps[:, j]) for j in range(4)]
        + [words("c", 6), words("g", 4), [("no", "yes")[v] for v in rng.integers(0, 2, n)]],
        "compare": [numbers(rng.normal(10, 3, n), gaps[:, 0]), numbers(rng.uniform(size=n), gaps[:, 1]),
                    words("k", 5), [("lo", "mid", "hi")[v] for v in rng.integers(0, 3, n)],
                    words("", 3)],
        "reduce": [numbers(rng.uniform(size=n)) for _ in range(20)] + [words("", 2)],
    }[shape]
    header = [f"a{j}" for j in range(len(columns) - 1)] + ["d"]
    return ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in zip(*columns)), "d"


@pytest.mark.parametrize("shape", ["sweep", "compare", "reduce"])
def test_bench_shaped_table_is_read_by_one_float_loadtxt(shape):
    text, decision = _bench_shaped_table(shape)
    calls, orig = [], np.loadtxt

    def loadtxt(*args, **kwargs):
        calls.append(orig(*args, **kwargs))
        return calls[-1]

    with mock.patch("numpy.loadtxt", loadtxt):
        assert _exact_reads(load_table, text, decision) == 0
    assert [values.dtype for values in calls] == [np.float64]
    want = _table_state(load_table_by_rows(text, decision))
    assert _table_state(load_table(text, decision)) == want
    hints = {a.name: a.kind for a in load_table(text, decision).attributes}
    assert _exact_reads(load_table, text, decision, schema_hints=hints) == 0
    assert _table_state(load_table(text, decision, schema_hints=hints)) == want


@pytest.mark.parametrize("name, decision", [("toy8.csv", "d"),
                                            ("titanic_synthetic.csv", "Survived")])
def test_shipped_tables_are_read_typed(name, decision):
    data = (DATA_DIR / name).read_bytes()
    hints = {a.name: a.kind for a in load_table(data, decision).attributes}
    for kinds in (None, hints):
        assert _exact_reads(load_table, data, decision, schema_hints=kinds) == 0
        assert _table_state(outcome(load_table, data, decision, schema_hints=kinds)) == (
            _table_state(_exactly(load_table, data, decision)))


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_bench_shaped_run_skips_csv_and_loadtxt(eol):
    """A shuffled 2000-row run with 128 granules, as the compare benchmark writes them."""
    rng = np.random.default_rng(5)
    n = 2000
    labels = rng.integers(0, 3, size=n)
    table = InformationTable.from_columns({"d": np.array(["A", "B", "C"])[labels].tolist()}, "d")
    pred = np.where(rng.random(n) < 0.8, labels, (labels + 1) % 3)
    rows = rng.permutation(n)
    lines = ["object_index,predicted,granule"] + [
        f"{i},{'ABC'[pred[i]]},g{(pred[i] * 97 + labels[i] * 31 + i) % 128}" for i in rows.tolist()]
    text = eol.join(lines) + eol
    with mock.patch("numpy.loadtxt", side_effect=AssertionError("np.loadtxt called")):
        assert _exact_reads(load_run, text, table) == 0
        run = load_run(text, table)
    want = load_run_by_rows(text, table)
    assert run == want and repr(run) == repr(want)
    assert len(set(run.granule)) == 128


#: tokens in the byte reader's grammar: no quote, no byte below 0x20
RUN_TOKEN = st.sampled_from(["a", "b", "", " a ", "x y", "Ω", "p\u2028q", "\x85",
                             "1", "#", "\x7f", "ab", "aé", "g12", "g1", "g120"])
#: padding around a run header name, which both paths strip
NAME_PAD = st.sampled_from(["", " ", "\u3000", "\xa0"])


@st.composite
def plain_runs(draw, n):
    """Runs in the byte reader's grammar, with rare faults that load_run rejects,
    and the read_columns calls expected: 1 where a token is wider than the rows.
    Half pad their header names; a wrong name or a fourth column is rare."""
    rnd = draw(st.randoms(use_true_random=False))
    names = ["object_index", "predicted"] + ["granule"] * draw(st.booleans())
    if rare(rnd, 0.05):
        names[2:] = ["granule", "score"]
    if rare(rnd, 0.1):
        at = rnd.randrange(len(names))
        names[at] = ["obj", "pred", "granules", "score"][at]
    pad = NAME_PAD if rare(rnd, 0.5) else st.just("")
    header = ",".join(draw(pad) + name + draw(pad) for name in names)
    rows = [[draw(st.sampled_from(["", "0", "00"])) + str(i)]
            + [draw(RUN_TOKEN) for _ in names[1:]] for i in range(n)]
    rows = draw(st.permutations(rows))
    if rare(rnd, 0.1):
        rows[rnd.randrange(n)][0] = draw(st.sampled_from([str(n), "9" * 18, rows[0][0]]))
    if rare(rnd, 0.1):
        rows = rows[:-1]
    widest = max((len(cell.encode()) for row in rows for cell in row[1:]), default=0)
    lines = [header] + [",".join(r) for r in rows]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    if draw(st.booleans()):
        lines.insert(0, "# run_id=r1 meta=k=3")
        ends.insert(0, draw(st.sampled_from(["\n", "\r\n", "\r"])))
    text = "".join(line + end for line, end in zip(lines, ends))
    return (text.encode("utf-8-sig") if rare(rnd, 0.1) else text,
            int(not rows or widest > len(rows)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), plain_runs(n))))
def test_plain_runs_are_read_by_bytes_like_the_exact_path(inputs):
    n, (text, exact) = inputs
    table = InformationTable.from_columns({"d": [f"k{i % 2}" for i in range(n)]}, "d")
    _run_read_alike(text, table, exact)
