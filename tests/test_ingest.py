"""CSV ingestion: the columnar loaders against the row-by-row oracles, input
hygiene for non-finite numbers and run headers, and garbage-collector load."""

import csv
import gc
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from granulens import (MISSING, DataError, InformationTable, load_run,
                       load_table, read_curve)
from granulens.cli import run_cli
from granulens.reader import read_columns
from granulens.table import _BLANK, _DENSE, factorize

from helpers import factorize_by_unique, load_run_by_rows, load_table_by_rows, run_csv

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


def rare(rnd, p):
    """True at rate p for uniform draws. hypothesis' own randoms draw 0.0
    most often and shrink toward it, so 0.0 must mean no fault."""
    return rnd.random() >= 1 - p


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

    @pytest.mark.parametrize("directive", ["", "# run_id=x\n", "# note\r\n"])
    def test_error_lines_count_the_directive_line(self, toy8, directive):
        head = directive + "object_index,predicted\n0,a\n"
        line = 4 if directive else 3
        with pytest.raises(DataError, match=f"ragged run row at line {line}$"):
            load_run(head + "1,b,c\n", toy8)
        with pytest.raises(DataError, match=f"non-integer object_index 'x' at line {line}$"):
            load_run(head + "x,b\n", toy8)

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
        ("0,1,", "0," + "9" * 131_073 + ",", "line 2: field larger than field limit")])
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


# --- numpy's C parser (reader.read_typed) against the exact path -------------

#: characters on whose presence read_typed leaves a text to the exact path
TRIGGERS = ["\x00", "\x1c", "\x1d", "\x1e", "\x1f"]
TYPED_NUMBER = st.one_of(
    st.integers(-1000, 1000).map(str), st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.sampled_from(["nan", "-nan", "NaN", "-0.0", "+4", ".5", "5.", "1e-300", " 7 ",
                     "\xa05\u3000", '"4"', '" 4"', '"2\n"']))
#: cells read_typed reads otherwise or not at all, or that are errors
ODD_NUMBER = st.sampled_from(["inf", "-inf", "1e999", "-1e999", "\u0661", "0x10",
                              "\ufeff1", '"1,5"', "1_0", "nan(1)"])
#: raw CSV text of one cell, quotes included
TYPED_WORD = st.sampled_from([
    "a", "b", "x y", " a ", '"a,b"', '"q""t"', 'q"t', '"a"b', ' "a"', "p\u2028q", "\x85",
    '"p\nq"', '"p\r\nq"', "\ufeff", "\u03a9", "#", "1"])


def _exactly(load, *args, **kwargs):
    """Outcome of ``load`` with read_typed declining every text."""
    with mock.patch("granulens.table.read_typed", return_value=None), \
            mock.patch("granulens.harness.read_typed", return_value=None):
        return outcome(load, *args, **kwargs)


def _join(draw, rnd, lines):
    """CSV text of raw lines with one line end, blank lines, a trigger or a BOM."""
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [out for line in lines for out in ([""] if rare(rnd, 0.05) else []) + [line]]
    if rare(rnd, 0.1):
        at = rnd.randrange(len(lines))
        spot = rnd.randrange(len(lines[at]) + 1)
        lines[at] = lines[at][:spot] + rnd.choice(TRIGGERS) + lines[at][spot:]
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
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
    hints = {"x0": "numeric"} if rare(rnd, 0.05) else None
    return _join(draw, rnd, lines), hints


@st.composite
def typed_runs(draw, n):
    """Run files written cell by cell, with rare faults in object_index."""
    rnd = draw(st.randoms(use_true_random=False))
    granule = draw(st.booleans())
    rows = [[str(i), draw(TYPED_WORD), draw(TYPED_WORD)][:2 + granule] for i in range(n)]
    rows = draw(st.permutations(rows))
    while rare(rnd, 0.2):
        rows[rnd.randrange(n)][0] = draw(st.sampled_from(
            ["x", "1.0", "", str(n), "-1", str(10**30), " 3 ", "+2", "-0", "0_1",
             "\u0661", "\x1c1", rows[rnd.randrange(n)][0]]))
    if rare(rnd, 0.1):
        rows = rows[:-1]
    if rare(rnd, 0.03) and rows:  # n == 1 may have lost its only row
        rows[0] = rows[0] + ["1"]
    header = "object_index,predicted"
    if rare(rnd, 0.1):
        header = rnd.choice(['"object_index",predicted', "object_index, predicted"])
    lines = [header + ",granule" * granule] + [",".join(row) for row in rows]
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
                             + ["NaN", _BLANK, " " + _BLANK])
#: cells the typed path reads as missing
MIXED_GAP = st.sampled_from(["", "", "", "nan", "NaN", "-nan"])
#: cells on which it falls back in a numeric column, or the sentinel anywhere
MIXED_ODD = st.sampled_from(["?", " ", " ? ", "\t", _BLANK, " " + _BLANK, "1_0", "inf"])


@st.composite
def mixed_tables(draw):
    """Tables of numeric, categorical and blank columns, written cell by cell.

    A categorical column's word may sit only in row 1 or only after it; a
    blank column holds only empty cells. Quotes and cells that make the
    typed path fall back are rare, so about a third of the texts are read
    typed, many of them with empty cells filled.
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
    return _join(draw, rnd, [",".join(header)] + [",".join(row) for row in rows])


@settings(max_examples=500, deadline=None)
@given(mixed_tables())
def test_typed_mixed_table_matches_exact_path_and_row_oracle(text):
    got = _table_state(outcome(load_table, text, "d"))
    assert got == _table_state(_exactly(load_table, text, "d"))
    if _by_rows_reads(text):
        assert got == _table_state(outcome(load_table_by_rows, text, "d"))


def test_blank_reads_as_nan_with_the_bytes_of_math_nan():
    """The sentinel read_typed writes into empty cells: np.loadtxt (down to the
    declared numpy floor) and float() must both read it as math.nan."""
    rows = np.loadtxt(io.StringIO(f"a,d\n{_BLANK},p\n"), dtype="f8,O,", delimiter=",",
                      comments=None, skiprows=1, ndmin=1)
    nan = np.float64(math.nan).tobytes()
    assert rows["f0"].tobytes() == np.float64(float(_BLANK)).tobytes() == nan


def _exact_reads(load, *args, **kwargs):
    """Times ``load`` fell back to read_columns."""
    calls = []

    def counting(*a, **k):
        calls.append(a)
        return read_columns(*a, **k)

    with mock.patch("granulens.table.read_columns", counting), \
            mock.patch("granulens.harness.read_columns", counting):
        outcome(load, *args, **kwargs)
    return len(calls)


class TestTypedPathSelection:
    # a blank line, a blank cell, and a column whose only number is -2.5e3
    CLEAN = "a,b,d\r\n1,nan,p\r\n\r\n 3,-2.5e3,q;r\r\n+4,,p\u2028\r\n"
    QUOTED = 'a,b,d\r\n1,-2.5e3,p\r\n\r\n" 3",nan,"q,r"\r\n+4,-0.0,p\u2028\r\n'

    def test_clean_numeric_table_is_read_typed(self):
        assert _exact_reads(load_table, self.CLEAN, "d") == 0
        assert _exact_reads(load_table, self.CLEAN.encode("utf-8-sig"), "d") == 0
        got = _table_state(outcome(load_table, self.CLEAN, "d"))
        assert got == _table_state(_exactly(load_table, self.CLEAN, "d"))

    @pytest.mark.parametrize("old, new", [
        ("-2.5e3", ""), ("-2.5e3", "?"), ("-2.5e3", "x"), ("nan", "inf"), ("a,b", '"a",b'),
        ("+4", "1_0"), (" 3,-2.5e3,q;r", '" 3",-2.5e3,"q,r"')]
        + [("+4", char + "4") for char in TRIGGERS])
    def test_table_falls_back(self, old, new):
        assert _exact_reads(load_table, self.CLEAN.replace(old, new, 1), "d") == 1

    @pytest.mark.parametrize("text, decision", [
        (QUOTED, "nope"), (QUOTED.replace("b", "a", 1), "d"),
        (CLEAN, "nope"), (CLEAN.replace("b", "a", 1), "d")])
    def test_header_errors_match_exact_path(self, text, decision):
        assert outcome(load_table, text, decision) == _exactly(load_table, text, decision)
        assert outcome(load_table, text, decision).startswith("DataError: ")

    def test_table_with_hints_or_only_a_header_falls_back(self):
        assert _exact_reads(load_table, self.CLEAN, "d", schema_hints={"a": "numeric"}) == 1
        assert _exact_reads(load_table, "a,d\n\n", "d") == 1

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
    MIXED = "x0,c0,x1,y,x2\n0.5,c1,,no,\n,c0,-1.25,yes,3\n\n1e-3,c1,2,no,nan\n-0.0,c2,7,yes,4\n"

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_mixed_table_with_blanks_is_read_typed(self, eol):
        text = self.MIXED.replace("\n", eol)
        for variant in (text, text.encode("utf-8-sig"), text + "5,c0,1,no,"):
            assert _exact_reads(load_table, variant, "y") == 0
            got = _table_state(outcome(load_table, variant, "y"))
            assert got == _table_state(_exactly(load_table, variant, "y"))
        table = load_table(text, "y")
        assert [a.kind[0] for a in table.attributes] == list("ncncn")
        assert table.column("c0") == ["c1", "c0", "c1", "c2"]
        assert np.isnan(table.column("x2")[[0, 2]]).all()

    @pytest.mark.parametrize("old, new", [
        ("1e-3", _BLANK), ("c2", _BLANK), ("1e-3", "?"), ("1e-3", " "), ("1e-3", "w"),
        ("c0,-1", '"c0",-1')])
    def test_mixed_table_falls_back(self, old, new):
        text = self.MIXED.replace(old, new, 1)
        assert _exact_reads(load_table, text, "y") == 1

    def test_all_blank_numeric_column_falls_back(self):
        text = "x0,c0,x1,y\n0.5,c1,,no\n,c0,,yes\n"
        assert _exact_reads(load_table, text, "y") == 1
        assert load_table(text, "y").attribute("x1").kind == "categorical"

    def test_late_blank_stays_typed(self):
        text = "a,b,d\n" + "".join(f"{i / 7!r},{i % 5},{i % 2}\n" for i in range(300))
        text += "0.5,,1\n"
        assert _exact_reads(load_table, text, "d") == 0
        assert np.isnan(load_table(text, "d").column("b")[-1])
