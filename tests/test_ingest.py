"""CSV ingestion: the columnar loaders against the row-by-row oracles, input
hygiene for non-finite numbers and run headers, and garbage-collector load."""

import csv
import gc
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from granulens import (MISSING, DataError, InformationTable, load_run,
                       load_table)
from granulens.cli import run_cli
from granulens.table import factorize

from helpers import load_run_by_rows, load_table_by_rows, run_csv

PAD = st.sampled_from(["", "", " ", "\t", " ", "\xa0", "\x1c", " 　"])
NUMBER = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.sampled_from(["-0.0", "0.0", "0", "-0", "+4", ".5", "5.", "1e3",
                     "-2.5E-3", "7E+2", "1e-300", "1_0", "1_000.5"]))
MISSING_CELL = st.sampled_from(["", "?", " ? ", "\t"])
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
        if rnd.random() < 0.05:
            buf.write("\n")  # a blank line
        if rnd.random() < 0.02:
            row = row[:-1] if rnd.random() < 0.5 else row + ["extra"]
        writer.writerow(row)
    return buf.getvalue()


@st.composite
def table_inputs(draw):
    rnd = draw(st.randoms(use_true_random=True))  # rare faults at set rates
    kinds = draw(st.lists(st.sampled_from(["numeric", "numeric", "categorical"]),
                          min_size=1, max_size=4))
    names = [f"c{i}" for i in range(len(kinds))]
    header = names + ["d"]
    if rnd.random() < 0.03:
        header[0] = "d"  # duplicate name
    rows = [[draw(cell(kind)) for kind in kinds]
            + [draw(cell("missing" if rnd.random() < 0.01 else "decision"))]
            for _ in range(draw(st.integers(0, 12)))]
    hints = {name: draw(st.sampled_from(["numeric", "categorical"]))
             for name in names + ["d"] if rnd.random() < 0.3}
    if rnd.random() < 0.05:
        hints[rnd.choice(names)] = "bogus"
    if rnd.random() < 0.05:
        hints["zz"] = "numeric"  # unknown column
    decision = "d" if rnd.random() < 0.97 else "nope"
    return write_rows(draw, rnd, header, rows), decision, hints


@st.composite
def run_inputs(draw, n, word=WORD):
    rnd = draw(st.randoms(use_true_random=True))
    rows = [[str(i), draw(word), draw(word)] for i in range(n)]
    rows = draw(st.permutations(rows))
    while rnd.random() < 0.4:
        rows[rnd.randrange(n)][0] = draw(st.sampled_from(
            ["x", "1.5", "", str(n), "-1", str(10**30), "-" + str(10**30), " 3 ",
             "+2", "0_1", rows[rnd.randrange(n)][0]]))
    if rnd.random() < 0.1:
        rows = rows[:-1]
    granule = draw(st.booleans())
    header = ["object_index", "predicted"] + (["granule"] if granule else [])
    body = write_rows(draw, rnd, header, [r if granule else r[:2] for r in rows])
    if draw(st.booleans()):
        body = "# run_id=r1 meta=k=3\n" + body
    return body


def outcome(load, *args, **kwargs):
    try:
        return load(*args, **kwargs)
    except DataError as exc:
        return f"DataError: {exc}"


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
        with pytest.raises(DataError, match="row 0 has unparsable cell 'foo'"):
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
        listed = InformationTable.from_columns(
            {"x": [MISSING, 2, -1.0, float("nan")], "d": list("pqpq")}, "d")
        assert listed.column("x").tobytes() == values.tobytes()
        with pytest.raises(DataError, match="column 'x' has non-finite value -inf at row 2"):
            InformationTable.from_columns({"x": np.array([1.0, 2.0, -np.inf]),
                                           "d": list("pqp")}, "d")

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


class TestRunFaults:
    @pytest.mark.parametrize("header, bad", [
        (("object_index", "predicted", "granules"), "granules"),
        (("object_index", "predicted", "granule", "score"), "score"),
        (("object_index", "predicted", "score", "granule"), "score")])
    def test_unexpected_column_is_data_error(self, toy8, header, bad):
        rows = [[i, label] + ["g"] * (len(header) - 2)
                for i, label in enumerate(toy8.decision_labels)]
        with pytest.raises(DataError, match=f"unexpected run column '{bad}'"):
            load_run(run_csv(rows, header=header), toy8)

    def test_first_duplicate_in_file_order_is_named(self, toy8):
        rows = [[i, "0"] for i in (5, 2, 5, 2, 0, 1, 3, 4)]
        with pytest.raises(DataError, match="duplicate object_index 5"):
            load_run(run_csv(rows), toy8)

    def test_cli_rejects_granule_typo_with_exit_2(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("a,d\n1,p\n2,q\n")
        run = tmp_path / "r.csv"
        run.write_text("object_index,predicted,granules\n0,p,g0\n1,q,g1\n")
        assert run_cli(["evaluate", str(table), str(run), "--decision", "d"]) == 2
        assert "unexpected run column 'granules'" in capsys.readouterr().err


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


def test_loading_makes_no_full_collection():
    """Row lists must die young: none may be promoted into the old generations."""
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

    gc.collect()
    before = gc.get_stats()[2]["collections"]
    table = load_table(table_text, "d")
    runs = [load_run(text, runs_table) for text in run_texts]
    assert gc.get_stats()[2]["collections"] == before
    assert table.n == 20_000 and all(len(r.predicted) == n for r in runs)
    assert not math.isnan(table.attribute("a0").observed_range[0])


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
